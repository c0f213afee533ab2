//! `sapsim sweep` — run a scenario grid from a manifest and compare the
//! runs.
//!
//! The manifest is a small JSON file (see
//! [`sapsim_sweep::parse_manifest`]) naming the grid axes. The grid runs
//! on the deterministic work-stealing pool: the printed report — and
//! every file written via `--out` — is byte-identical at any `--workers`
//! value, and each scenario matches a standalone `sapsim simulate` of
//! the same configuration. Only the `--obs-dir` JSONL logs and the
//! `--metrics-dir` snapshots sit outside that contract (they record
//! wall-clock timings and pool-scheduling detail).

use super::{create_dir, write_file};
use crate::args::Parsed;
use crate::error::CliError;
use sapsim_sweep::{effective_workers, parse_manifest, run_sweep, SweepOptions};
use std::io::Write;
use std::path::Path;

/// Execute the subcommand.
pub fn run(argv: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let parsed = Parsed::parse(
        argv,
        &["workers", "out", "obs-dir", "metrics-dir"],
        &["json"],
    )?;
    let [manifest_path] = parsed.positionals() else {
        return Err(CliError::Usage(
            "sweep requires exactly one manifest file argument".into(),
        ));
    };
    let workers: usize = parsed.get_parsed("workers", 0)?;
    let out_dir = parsed.get("out").map(str::to_string);
    let obs_dir = parsed.get("obs-dir").map(str::to_string);
    let metrics_dir = parsed.get("metrics-dir").map(str::to_string);
    let json = parsed.flag("json");

    let text = std::fs::read_to_string(manifest_path)
        .map_err(|e| CliError::Io(format!("cannot read {manifest_path}: {e}")))?;
    let manifest = parse_manifest(&text)?;
    let scenarios = manifest.spec.expand()?;

    let options = SweepOptions {
        workers,
        collect_artifacts: out_dir.is_some(),
        collect_obs: obs_dir.is_some(),
        collect_metrics: metrics_dir.is_some(),
    };
    if !json {
        writeln!(
            out,
            "sweep `{}`: {} scenarios on {} workers ...",
            manifest.name,
            scenarios.len(),
            effective_workers(workers, scenarios.len())
        )?;
    }
    let output = run_sweep(&scenarios, &options)?;

    if json {
        writeln!(out, "{}", output.report.to_json())?;
    } else {
        writeln!(out)?;
        write!(out, "{}", output.report.render())?;
    }

    if let Some(dir) = &out_dir {
        let dir = Path::new(dir);
        create_dir(dir)?;
        let files = [
            ("report.json", output.report.to_json()),
            ("report.txt", output.report.render()),
            ("cdf_overlay.csv", output.cdf_overlay_csv()),
            ("contention_overlay.csv", output.contention_overlay_csv()),
        ];
        for (name, contents) in files {
            write_file(&dir.join(name), &contents)?;
        }
        if !json {
            writeln!(out, "wrote report + overlay CSVs to {}", dir.display())?;
        }
    }

    if let Some(dir) = &obs_dir {
        let dir = Path::new(dir);
        create_dir(dir)?;
        let mut written = 0usize;
        for artifact in &output.artifacts {
            if let Some(jsonl) = &artifact.obs_jsonl {
                write_file(&dir.join(format!("{}.obs.jsonl", artifact.name)), jsonl)?;
                written += 1;
            }
        }
        if !json {
            writeln!(out, "wrote {written} obs logs to {}", dir.display())?;
        }
    }

    if let Some(dir) = &metrics_dir {
        let dir = Path::new(dir);
        create_dir(dir)?;
        let mut written = 0usize;
        for artifact in &output.artifacts {
            if let Some(json_line) = &artifact.metrics_json {
                let mut contents = json_line.clone();
                contents.push('\n');
                write_file(
                    &dir.join(format!("{}.metrics.json", artifact.name)),
                    &contents,
                )?;
                written += 1;
            }
        }
        if let Some(pool) = &output.sweep_metrics {
            let mut contents = pool.to_json();
            contents.push('\n');
            write_file(&dir.join("sweep.metrics.json"), &contents)?;
        }
        if !json {
            writeln!(
                out,
                "wrote {written} cell snapshots + sweep.metrics.json to {}",
                dir.display()
            )?;
        }
    }
    Ok(())
}
