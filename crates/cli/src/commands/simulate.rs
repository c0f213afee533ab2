//! `sapsim simulate` — run and summarize, with every paper artifact of
//! the run written with `--out DIR`.

use super::{
    create_dir, execute_with_obs, obs_args_from, sim_config_from, write_file, SIM_BOOL_FLAGS,
    SIM_VALUE_OPTIONS,
};
use crate::args::Parsed;
use crate::error::CliError;
use sapsim_analysis::artifacts::paper_artifacts;
use sapsim_analysis::cdf::{utilization_cdf, VmResource};
use sapsim_analysis::contention::contention_aggregate;
use sapsim_core::RunResult;
use sapsim_sweep::RunSummary;
use std::io::Write;
use std::path::Path;

/// The value option only `simulate` understands, on top of the shared sim
/// surface: the artifact directory.
const SIMULATE_VALUE_OPTIONS: &[&str] = &["out"];

/// Execute the subcommand.
pub(crate) fn run(argv: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let flags = [SIM_BOOL_FLAGS, &["json"]].concat();
    let options = [SIM_VALUE_OPTIONS, SIMULATE_VALUE_OPTIONS].concat();
    let parsed = Parsed::parse(argv, &options, &flags)?;
    if !parsed.positionals().is_empty() {
        return Err(CliError::Usage(
            "simulate takes no positional arguments".into(),
        ));
    }
    let cfg = sim_config_from(&parsed)?;
    let obs = obs_args_from(&parsed)?;
    let artifact_dir = artifact_dir(&parsed)?;
    // With `--json` the only stdout line is the versioned run summary: obs
    // and artifact files are still written, but their status lines are
    // swallowed so the output stays a single JSON object.
    if parsed.flag("json") {
        let mut status = Vec::new();
        let result = execute_with_obs(cfg, obs.as_ref(), &mut status)?;
        write_artifacts(&result, artifact_dir, &mut status)?;
        writeln!(out, "{}", RunSummary::from_run(&result).to_json())?;
        return Ok(());
    }
    writeln!(
        out,
        "simulating {} days at scale {:.2} (policy {}, seed {}) ...",
        cfg.days,
        cfg.scale,
        cfg.policy.name(),
        cfg.seed
    )?;
    let result = execute_with_obs(cfg, obs.as_ref(), out)?;
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

/// The human-readable run report.
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
