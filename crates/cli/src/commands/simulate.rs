//! `sapsim simulate` — run and summarize, with optional snapshot
//! capture (`--snapshot-at`/`--snapshot-out`) and resume (`--resume`),
//! and every paper artifact of the run written with `--out DIR`.

use super::{
    create_dir, execute_with_obs, obs_args_from, parse_fault_spec, sim_config_from, write_file,
    ObsArgs, RunExec, OBS_BOOL_FLAGS, SIM_BOOL_FLAGS, SIM_VALUE_OPTIONS,
};
use crate::args::Parsed;
use crate::error::CliError;
use sapsim_analysis::artifacts::paper_artifacts;
use sapsim_analysis::cdf::{utilization_cdf, VmResource};
use sapsim_analysis::contention::contention_aggregate;
use sapsim_core::{RunResult, SimConfig, SimSnapshot};
use sapsim_sim::{SimTime, MILLIS_PER_DAY};
use sapsim_sweep::RunSummary;
use std::io::Write;
use std::path::Path;

/// Value options only `simulate` understands, on top of the shared sim
/// surface: snapshot capture and resume, and the artifact directory.
const SIMULATE_VALUE_OPTIONS: &[&str] = &["snapshot-at", "snapshot-out", "resume", "out"];

/// Execute the subcommand.
pub fn run(argv: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let flags = [SIM_BOOL_FLAGS, OBS_BOOL_FLAGS, &["json"]].concat();
    let options = [SIM_VALUE_OPTIONS, SIMULATE_VALUE_OPTIONS].concat();
    let parsed = Parsed::parse(argv, &options, &flags)?;
    if !parsed.positionals().is_empty() {
        return Err(CliError::Usage(
            "simulate takes no positional arguments".into(),
        ));
    }
    if parsed.get("resume").is_some() {
        return run_resume(&parsed, out);
    }
    let cfg = sim_config_from(&parsed)?;
    let obs = obs_args_from(&parsed)?;
    let capture = capture_args(&parsed)?;
    let artifact_dir = artifact_dir(&parsed)?;
    let header = format!(
        "simulating {} days at scale {:.2} (policy {}, seed {}) ...",
        cfg.days,
        cfg.scale,
        cfg.policy.name(),
        cfg.seed
    );
    report(&parsed, &header, artifact_dir, out, |out| {
        execute(cfg, obs.as_ref(), capture, out)
    })
}

/// Run and report. With `--json` the only stdout line is the versioned
/// run summary: obs, snapshot and artifact files are still written, but
/// their status lines are swallowed so the output stays a single JSON
/// object. Otherwise `header`, the status lines and the human-readable
/// report.
fn report(
    parsed: &Parsed,
    header: &str,
    artifact_dir: Option<&Path>,
    out: &mut dyn Write,
    run: impl FnOnce(&mut dyn Write) -> Result<RunResult, CliError>,
) -> Result<(), CliError> {
    if parsed.flag("json") {
        let mut status = Vec::new();
        let result = run(&mut status)?;
        write_artifacts(&result, artifact_dir, &mut status)?;
        writeln!(out, "{}", RunSummary::from_run(&result).to_json())?;
        return Ok(());
    }
    writeln!(out, "{header}")?;
    let result = run(out)?;
    print_report(&result, out)?;
    write_artifacts(&result, artifact_dir, out)
}

/// `--out DIR`, created before the run so that a path which cannot hold
/// files fails fast instead of after the simulation.
fn artifact_dir(parsed: &Parsed) -> Result<Option<&Path>, CliError> {
    let dir = parsed.get("out").map(Path::new);
    if let Some(dir) = dir {
        create_dir(dir)?;
    }
    Ok(dir)
}

/// Write every paper figure and table of `result` into `dir` (when
/// `--out` was given), plus a one-line status to `out`.
fn write_artifacts(result: &RunResult, dir: Option<&Path>, out: &mut dyn Write) -> Result<(), CliError> {
    let Some(dir) = dir else { return Ok(()) };
    let artifacts = paper_artifacts(result);
    for artifact in &artifacts {
        write_file(&dir.join(artifact.name), &artifact.contents)?;
    }
    writeln!(out, "\nwrote {} paper artifacts to {}", artifacts.len(), dir.display())?;
    Ok(())
}

/// Parse the snapshot-capture pair. Both options or neither: a capture
/// instant without a destination (or vice versa) is a usage error.
fn capture_args(parsed: &Parsed) -> Result<Option<(SimTime, &str)>, CliError> {
    match (parsed.get("snapshot-at"), parsed.get("snapshot-out")) {
        (None, None) => Ok(None),
        (Some(_), None) => Err(CliError::Usage(
            "--snapshot-at requires --snapshot-out FILE".into(),
        )),
        (None, Some(_)) => Err(CliError::Usage(
            "--snapshot-out requires --snapshot-at DAYS".into(),
        )),
        (Some(raw), Some(path)) => {
            let days: f64 = raw.parse().map_err(|_| {
                CliError::Usage(format!("invalid value `{raw}` for `--snapshot-at`"))
            })?;
            if !days.is_finite() || days < 0.0 {
                return Err(CliError::Usage(format!(
                    "--snapshot-at: `{raw}` is not a non-negative number of days"
                )));
            }
            let at = SimTime::from_millis((days * MILLIS_PER_DAY as f64).round() as u64);
            Ok(Some((at, path)))
        }
    }
}

/// Run cold, capturing and writing the snapshot file when requested.
fn execute(
    cfg: SimConfig,
    obs: Option<&ObsArgs>,
    capture: Option<(SimTime, &str)>,
    out: &mut dyn Write,
) -> Result<RunResult, CliError> {
    let Some((at, path)) = capture else {
        let (result, _) = execute_with_obs(RunExec::Cold(cfg), obs, out)?;
        return Ok(result);
    };
    let (result, snap) = execute_with_obs(RunExec::Snapshot(cfg, at), obs, out)?;
    let snap = snap.expect("snapshot mode always captures");
    std::fs::write(path, snap.to_file_string())
        .map_err(|e| CliError::Io(format!("cannot create {path}: {e}")))?;
    writeln!(
        out,
        "snapshot: wrote day {:.2} state to {path}",
        at.as_millis() as f64 / MILLIS_PER_DAY as f64
    )?;
    Ok(result)
}

/// `--resume FILE`: load, verify, and run a captured snapshot to its
/// horizon. The run configuration is embedded in the snapshot, so every
/// config-shaping option conflicts; the exception is `--faults`, which
/// must *restate* the spec the snapshot was captured under (see
/// [`SimSnapshot::verify_fault_spec`]). Observation options (`--obs-*`,
/// `--metrics-out`, `--progress`) apply as on a cold run.
fn run_resume(parsed: &Parsed, out: &mut dyn Write) -> Result<(), CliError> {
    let path = parsed.get("resume").expect("checked by the caller");
    // Only `--faults` (restated, checked below) and the observation
    // options may accompany the embedded configuration.
    let allowed = |opt: &str| opt == "faults" || opt == "metrics-out" || opt.starts_with("obs-");
    let options = SIM_VALUE_OPTIONS
        .iter()
        .filter(|opt| !allowed(opt) && parsed.get(opt).is_some());
    let flags = SIM_BOOL_FLAGS.iter().filter(|flag| parsed.flag(flag));
    if let Some(opt) = options.chain(flags).next() {
        return Err(CliError::Usage(format!(
            "--{opt} conflicts with --resume: the snapshot embeds the run configuration"
        )));
    }
    for opt in ["snapshot-at", "snapshot-out"] {
        if parsed.get(opt).is_some() {
            return Err(CliError::Usage(format!(
                "--{opt} cannot be combined with --resume"
            )));
        }
    }

    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError::Io(format!("cannot read {path}: {e}")))?;
    // Corruption (truncation, schema drift, hash mismatch, a body that
    // does not fit its config's world) is a data error; a loadable
    // snapshot whose fault spec is not restated is a configuration error.
    let snap =
        SimSnapshot::from_file_str(&text).map_err(|e| CliError::Data(format!("{path}: {e}")))?;
    let given = match parsed.get("faults") {
        Some(spec) => Some(parse_fault_spec(spec)?),
        None => None,
    };
    snap.verify_fault_spec(given.as_ref())?;
    let obs = obs_args_from(parsed)?;
    let artifact_dir = artifact_dir(parsed)?;
    let cfg = snap.config();
    let header = format!(
        "resuming day {:.2} of {} at scale {:.2} (policy {}, seed {}) from {path} ...",
        snap.at().as_millis() as f64 / MILLIS_PER_DAY as f64,
        cfg.days,
        cfg.scale,
        cfg.policy.name(),
        cfg.seed
    );
    report(parsed, &header, artifact_dir, out, |out| {
        Ok(execute_with_obs(RunExec::Resume(&snap), obs.as_ref(), out)?.0)
    })
}

/// The human-readable run report shared by the cold and resume paths.
fn print_report(result: &RunResult, out: &mut dyn Write) -> Result<(), CliError> {
    let topo = result.cloud.topology();
    writeln!(out, "\ninfrastructure:")?;
    writeln!(
        out,
        "  {} hypervisors in {} building blocks across {} DCs",
        topo.nodes().len(),
        topo.bbs().len(),
        topo.dcs().len()
    )?;

    let s = &result.stats;
    writeln!(out, "\nscheduling:")?;
    writeln!(
        out,
        "  placements: {} attempted, {:.1}% placed ({} fragmented, {} no-candidate)",
        s.placements_attempted,
        s.placement_success_rate() * 100.0,
        s.failed_fragmented,
        s.failed_no_candidate
    )?;
    writeln!(
        out,
        "  retries: {} | DRS migrations: {} | cross-BB migrations: {}",
        s.placement_retries, s.drs_migrations, s.cross_bb_migrations
    )?;
    writeln!(
        out,
        "  resizes: {} ({} in place, {} migrated, {} failed)",
        s.resizes_attempted, s.resizes_in_place, s.resizes_migrated, s.resizes_failed
    )?;
    writeln!(
        out,
        "  maintenance: {} windows ({} aborted), {} evacuations",
        s.maintenance_windows, s.maintenance_aborted, s.evacuations
    )?;
    writeln!(
        out,
        "  population: peak {} VMs, {} at window end, {} departures",
        s.peak_vm_count, s.final_vm_count, s.departures
    )?;

    if !result.config.faults.is_none() || !s.faults.is_zero() {
        let f = &s.faults;
        writeln!(out, "\nfaults:")?;
        writeln!(
            out,
            "  host failures: {} ({} recovered), {} straggler nodes",
            f.host_failures, f.host_recoveries, f.straggler_nodes
        )?;
        writeln!(
            out,
            "  evacuations: {} ({} replaced, {} retries, {} lost, {} still pending, peak queue {})",
            f.evacuated,
            f.evac_replaced,
            f.evac_retries,
            f.evac_lost,
            f.evac_pending_end,
            f.evac_pending_peak
        )?;
        writeln!(
            out,
            "  telemetry: {} dropout windows, {} samples dropped",
            f.dropout_windows, f.dropped_samples
        )?;
    }

    writeln!(out, "\nthe paper's headline findings on this run:")?;
    writeln!(
        out,
        "  {}",
        utilization_cdf(result, VmResource::Cpu).summary_line()
    )?;
    writeln!(
        out,
        "  {}",
        utilization_cdf(result, VmResource::Memory).summary_line()
    )?;
    let agg = contention_aggregate(result);
    writeln!(
        out,
        "  contention: peak daily mean {:.2}%, peak p95 {:.2}%, max sample {:.1}%",
        agg.peak_mean(),
        agg.peak_p95(),
        agg.peak_max()
    )?;

    if result.profile.enabled() {
        writeln!(
            out,
            "\nevent-loop profile (wall clock, not simulation time):"
        )?;
        writeln!(
            out,
            "  {:<16} {:>10} {:>12} {:>10} {:>10}",
            "phase", "count", "total ms", "mean us", "max us"
        )?;
        for (kind, stat) in result.profile.phases() {
            if stat.count == 0 {
                continue;
            }
            writeln!(
                out,
                "  {:<16} {:>10} {:>12.1} {:>10} {:>10}",
                kind.name(),
                stat.count,
                stat.total_us as f64 / 1000.0,
                stat.mean_us(),
                stat.max_us
            )?;
        }
        writeln!(
            out,
            "  wall clock total: {:.1} ms",
            result.profile.wall_us() as f64 / 1000.0
        )?;
    }
    Ok(())
}
