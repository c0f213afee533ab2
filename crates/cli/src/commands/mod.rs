//! The `sapsim` subcommands.

pub(crate) mod export;
pub(crate) mod import;
pub mod obs;
pub(crate) mod simulate;
pub(crate) mod sweep;
pub(crate) mod tables;

use crate::args::Parsed;
use crate::error::CliError;
use sapsim_core::obs::{
    JsonlRecorder, MetricsRecorder, MetricsRegistry, NullRecorder, ObsConfig, ProgressRecorder,
    Recorder,
};
use sapsim_core::{
    FaultError, FaultSpec, PlacementGranularity, RunResult, SimConfig, SimDriver, SimError,
};
use sapsim_scheduler::PolicyKind;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;

/// Options shared by `simulate` and `export`.
pub(crate) const SIM_VALUE_OPTIONS: &[&str] = &[
    "scale",
    "days",
    "seed",
    "policy",
    "granularity",
    "overcommit",
    "anonymize",
    "obs-out",
    "obs-chrome",
    "obs-sample",
    "obs-ring",
    "metrics-out",
    "faults",
];
/// Boolean flags shared by `simulate` and `export`.
pub(crate) const SIM_BOOL_FLAGS: &[&str] = &["no-drs", "cross-bb", "no-warmup", "progress"];

/// Build a [`SimConfig`] from parsed CLI arguments.
pub(crate) fn sim_config_from(parsed: &Parsed) -> Result<SimConfig, CliError> {
    let mut cfg = SimConfig::default();
    cfg.scale = parsed.get_parsed("scale", 0.05)?;
    cfg.days = parsed.get_parsed("days", 5u64)?;
    cfg.seed = parsed.get_parsed("seed", 0u64)?;
    cfg.gp_cpu_overcommit = parsed.get_parsed("overcommit", 4.0)?;
    cfg.policy = parsed
        .get("policy")
        .unwrap_or("paper-default")
        .parse::<PolicyKind>()
        .map_err(CliError::Usage)?;
    cfg.granularity = parsed
        .get("granularity")
        .unwrap_or("bb")
        .parse::<PlacementGranularity>()
        .map_err(CliError::Usage)?;
    if parsed.flag("no-drs") {
        cfg.drs_enabled = false;
    }
    if parsed.flag("cross-bb") {
        cfg.cross_bb_enabled = true;
    }
    if parsed.flag("no-warmup") {
        cfg.warmup_days = 0;
    }
    if let Some(spec) = parsed.get("faults") {
        cfg.faults = parse_fault_spec(spec)?;
    }
    cfg.validate()?;
    Ok(cfg)
}

/// Parse `--faults`: either a path to a JSON spec file or an inline
/// `key=value,...` list (see [`sapsim_core::FaultSpec::parse_inline`]).
/// Syntax failures classify by where the spec came from (usage for
/// inline, data for a file); a well-formed spec with invalid knobs is a
/// configuration error either way.
fn parse_fault_spec(spec: &str) -> Result<FaultSpec, CliError> {
    if std::path::Path::new(spec).is_file() {
        let text = std::fs::read_to_string(spec)
            .map_err(|e| CliError::Io(format!("cannot read fault spec {spec}: {e}")))?;
        FaultSpec::from_json_str(&text).map_err(|e| match e {
            FaultError::InvalidSpec(_) => CliError::Config(SimError::FaultPlan(e)),
            other => CliError::Data(format!("fault spec {spec}: {other}")),
        })
    } else {
        FaultSpec::parse_inline(spec).map_err(|e| match e {
            FaultError::InvalidSpec(_) => CliError::Config(SimError::FaultPlan(e)),
            other => CliError::Usage(format!("--faults: {other}")),
        })
    }
}

/// Create an output directory (and its parents) with a path-bearing
/// error.
pub(crate) fn create_dir(dir: &Path) -> Result<(), CliError> {
    std::fs::create_dir_all(dir)
        .map_err(|e| CliError::Io(format!("cannot create {}: {e}", dir.display())))
}

/// Write one artifact file with a path-bearing error.
pub(crate) fn write_file(path: &Path, contents: &str) -> Result<(), CliError> {
    std::fs::write(path, contents)
        .map_err(|e| CliError::Io(format!("cannot create {}: {e}", path.display())))
}

/// Observability export destinations, recorder knobs and the live
/// heartbeat, parsed from the shared `--obs-*`, `--metrics-out` and
/// `--progress` options.
#[derive(Debug)]
pub(crate) struct ObsArgs {
    /// Where to write the JSONL event log, if requested.
    pub(crate) jsonl_path: Option<String>,
    /// Where to write the Chrome trace, if requested.
    pub(crate) chrome_path: Option<String>,
    /// Where to write the `sapsim.metrics/v1` snapshot, if requested.
    pub(crate) metrics_path: Option<String>,
    /// Recorder configuration (sampling rate, ring capacity).
    pub(crate) config: ObsConfig,
    /// Print the live heartbeat on stderr (`--progress`).
    pub(crate) progress: bool,
}

/// Build the observability arguments from parsed CLI options. Returns
/// `Ok(None)` when neither an `--obs-*`/`--metrics-out` output nor
/// `--progress` was requested, so callers fall back to the zero-cost
/// [`sapsim_core::obs::NullRecorder`] path.
pub(crate) fn obs_args_from(parsed: &Parsed) -> Result<Option<ObsArgs>, CliError> {
    let jsonl_path = parsed.get("obs-out").map(str::to_string);
    let chrome_path = parsed.get("obs-chrome").map(str::to_string);
    let metrics_path = parsed.get("metrics-out").map(str::to_string);
    let progress = parsed.flag("progress");
    if jsonl_path.is_none() && chrome_path.is_none() {
        // The sampling/ring knobs shape the event ring only; a pure
        // metrics run has no ring to shape.
        if parsed.get("obs-sample").is_some() || parsed.get("obs-ring").is_some() {
            return Err(CliError::Usage(
                "--obs-sample/--obs-ring have no effect without --obs-out or --obs-chrome".into(),
            ));
        }
        if metrics_path.is_none() && !progress {
            return Ok(None);
        }
    }
    let defaults = ObsConfig::default();
    let config = ObsConfig {
        decision_sample_rate: parsed.get_parsed("obs-sample", defaults.decision_sample_rate)?,
        ring_capacity: parsed.get_parsed("obs-ring", defaults.ring_capacity)?,
    };
    config.validate().map_err(SimError::from)?;
    Ok(Some(ObsArgs {
        jsonl_path,
        chrome_path,
        metrics_path,
        config,
        progress,
    }))
}

/// Run `cfg` under `rec`, wrapped in a [`ProgressRecorder`] when
/// `--progress` asked for the live heartbeat.
fn observe<R: Recorder>(
    cfg: SimConfig,
    rec: &mut R,
    progress: bool,
) -> Result<RunResult, CliError> {
    let driver = SimDriver::new(cfg)?;
    Ok(if progress {
        driver.run_with_recorder(&mut ProgressRecorder::new(rec))
    } else {
        driver.run_with_recorder(rec)
    })
}

/// Run `cfg`, with the observability recorder attached when any
/// `--obs-*`/`--metrics-out` output was requested. Writes the requested
/// export files and a one-line status per file to `out`.
///
/// A pure `--metrics-out` run uses the lightweight [`MetricsRecorder`]
/// (no event ring, no decision detail); requesting a JSONL log or Chrome
/// trace upgrades to a [`JsonlRecorder`] with the metrics registry
/// attached. `--progress` wraps whichever recorder runs (the
/// [`NullRecorder`] when no output was requested) in a
/// [`ProgressRecorder`].
pub(crate) fn execute_with_obs(
    cfg: SimConfig,
    obs: Option<&ObsArgs>,
    out: &mut dyn Write,
) -> Result<RunResult, CliError> {
    let Some(obs) = obs else {
        return observe(cfg, &mut NullRecorder, false);
    };
    if obs.jsonl_path.is_none() && obs.chrome_path.is_none() {
        let Some(path) = obs.metrics_path.as_deref() else {
            return observe(cfg, &mut NullRecorder, obs.progress);
        };
        let mut rec = MetricsRecorder::new();
        let result = observe(cfg, &mut rec, obs.progress)?;
        write_metrics_snapshot(rec.registry(), path, out)?;
        return Ok(result);
    }
    let mut rec = JsonlRecorder::new(obs.config);
    if obs.metrics_path.is_some() {
        rec = rec.with_metrics();
    }
    let result = observe(cfg, &mut rec, obs.progress)?;
    if let Some(path) = &obs.jsonl_path {
        let file =
            File::create(path).map_err(|e| CliError::Io(format!("cannot create {path}: {e}")))?;
        let mut sink = BufWriter::new(file);
        rec.write_jsonl(&mut sink)?;
        sink.flush()?;
        writeln!(
            out,
            "obs: wrote {} events ({} dropped) to {path}",
            rec.len(),
            rec.dropped()
        )?;
    }
    if let Some(path) = &obs.chrome_path {
        let file =
            File::create(path).map_err(|e| CliError::Io(format!("cannot create {path}: {e}")))?;
        let mut sink = BufWriter::new(file);
        rec.write_chrome_trace(&mut sink)?;
        sink.flush()?;
        writeln!(
            out,
            "obs: wrote Chrome trace to {path} (open via chrome://tracing)"
        )?;
    }
    if let Some(path) = &obs.metrics_path {
        let registry = rec.metrics().expect("with_metrics was enabled above");
        write_metrics_snapshot(registry, path, out)?;
    }
    Ok(result)
}

/// Write one `sapsim.metrics/v1` JSON snapshot to `path` plus a status
/// line to `out`.
fn write_metrics_snapshot(
    registry: &MetricsRegistry,
    path: &str,
    out: &mut dyn Write,
) -> Result<(), CliError> {
    let mut json = registry.to_json();
    json.push('\n');
    std::fs::write(path, &json)
        .map_err(|e| CliError::Io(format!("cannot create {path}: {e}")))?;
    writeln!(
        out,
        "obs: wrote metrics snapshot ({} series) to {path}",
        registry.len()
    )?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(parts: &[&str]) -> Parsed {
        let argv: Vec<String> = parts.iter().map(|s| s.to_string()).collect();
        Parsed::parse(&argv, SIM_VALUE_OPTIONS, SIM_BOOL_FLAGS).unwrap()
    }

    #[test]
    fn defaults_build_a_valid_config() {
        let cfg = sim_config_from(&parse(&[])).unwrap();
        assert_eq!(cfg.scale, 0.05);
        assert_eq!(cfg.days, 5);
        assert!(cfg.drs_enabled);
        assert!(!cfg.cross_bb_enabled);
    }

    #[test]
    fn options_map_through() {
        let cfg = sim_config_from(&parse(&[
            "--scale",
            "0.1",
            "--days",
            "3",
            "--policy",
            "contention-aware",
            "--granularity",
            "node",
            "--no-drs",
            "--cross-bb",
            "--no-warmup",
            "--overcommit",
            "2.5",
        ]))
        .unwrap();
        assert_eq!(cfg.scale, 0.1);
        assert_eq!(cfg.days, 3);
        assert_eq!(cfg.policy, PolicyKind::ContentionAware);
        assert_eq!(cfg.granularity, PlacementGranularity::Node);
        assert!(!cfg.drs_enabled);
        assert!(cfg.cross_bb_enabled);
        assert_eq!(cfg.warmup_days, 0);
        assert_eq!(cfg.gp_cpu_overcommit, 2.5);
    }

    #[test]
    fn bad_policy_and_scale_are_rejected() {
        let err = sim_config_from(&parse(&["--policy", "nope"])).unwrap_err();
        assert_eq!(err, CliError::Usage("unknown policy `nope`".into()));
        let err = sim_config_from(&parse(&["--scale", "500"])).unwrap_err();
        assert_eq!(err.exit_code(), 3, "validation failures are config errors");
        assert!(err.to_string().starts_with("invalid config:"));
        let err = sim_config_from(&parse(&["--scale", "0"])).unwrap_err();
        assert_eq!(err.exit_code(), 3);
    }

    #[test]
    fn multi_region_scales_parse_and_validate() {
        // Scales above 1 replicate the studied region; the CLI accepts
        // them up to `SimConfig::MAX_SCALE`.
        let cfg = sim_config_from(&parse(&["--scale", "7.0"])).unwrap();
        assert_eq!(cfg.scale, 7.0);
        assert_eq!(
            sim_config_from(&parse(&["--scale", "100"])).unwrap().scale,
            SimConfig::MAX_SCALE
        );
    }

    #[test]
    fn inline_fault_spec_maps_through() {
        let cfg = sim_config_from(&parse(&[
            "--faults",
            "fail=6.0,downtime=12,straggler=0.2,slowdown=0.7,dropout=3.0",
        ]))
        .unwrap();
        assert_eq!(cfg.faults.host_fail_rate_per_month, 6.0);
        assert_eq!(cfg.faults.host_downtime_hours, 12.0);
        assert_eq!(cfg.faults.straggler_fraction, 0.2);
        assert_eq!(cfg.faults.dropout_rate_per_month, 3.0);
        assert!(!cfg.faults.is_none());
        // No flag at all leaves the fault layer inert.
        assert!(sim_config_from(&parse(&[])).unwrap().faults.is_none());
    }

    #[test]
    fn fault_spec_file_maps_through() {
        let dir = std::env::temp_dir().join("sapsim-cli-mod-faults");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("spec.json");
        std::fs::write(&path, r#"{"host_fail_rate_per_month": 2.5}"#).unwrap();
        let cfg = sim_config_from(&parse(&["--faults", path.to_str().unwrap()])).unwrap();
        assert_eq!(cfg.faults.host_fail_rate_per_month, 2.5);
        assert_eq!(
            cfg.faults.evac_retry_limit,
            FaultSpec::none().evac_retry_limit
        );
    }

    #[test]
    fn bad_fault_specs_are_rejected() {
        let err = sim_config_from(&parse(&["--faults", "bogus-key=1"])).unwrap_err();
        assert_eq!(err.exit_code(), 2, "inline syntax is a usage error");
        let err = sim_config_from(&parse(&["--faults", "fail=-2"])).unwrap_err();
        assert_eq!(err.exit_code(), 3, "a parseable-but-invalid spec is config");
    }

    #[test]
    fn no_obs_flags_means_no_recorder() {
        assert!(obs_args_from(&parse(&[])).unwrap().is_none());
    }

    #[test]
    fn obs_out_enables_recorder_with_defaults() {
        let obs = obs_args_from(&parse(&["--obs-out", "run.jsonl"]))
            .unwrap()
            .unwrap();
        assert_eq!(obs.jsonl_path.as_deref(), Some("run.jsonl"));
        assert!(obs.chrome_path.is_none());
        let defaults = ObsConfig::default();
        assert_eq!(
            obs.config.decision_sample_rate,
            defaults.decision_sample_rate
        );
        assert_eq!(obs.config.ring_capacity, defaults.ring_capacity);
    }

    #[test]
    fn obs_knobs_map_through() {
        let obs = obs_args_from(&parse(&[
            "--obs-chrome",
            "trace.json",
            "--obs-sample",
            "0.25",
            "--obs-ring",
            "1024",
        ]))
        .unwrap()
        .unwrap();
        assert_eq!(obs.chrome_path.as_deref(), Some("trace.json"));
        assert_eq!(obs.config.decision_sample_rate, 0.25);
        assert_eq!(obs.config.ring_capacity, 1024);
    }

    #[test]
    fn obs_knobs_without_an_output_are_rejected() {
        let err = obs_args_from(&parse(&["--obs-sample", "0.5"])).unwrap_err();
        assert!(err.to_string().contains("--obs-out"));
        assert_eq!(err.exit_code(), 2);
    }

    #[test]
    fn progress_flag_maps_through() {
        let obs = obs_args_from(&parse(&["--progress"])).unwrap().unwrap();
        assert!(obs.progress);
        assert!(obs.jsonl_path.is_none() && obs.metrics_path.is_none());
        let metrics = obs_args_from(&parse(&["--metrics-out", "m.json"])).unwrap();
        assert!(!metrics.unwrap().progress);
        assert_eq!(
            sim_config_from(&parse(&["--progress"])).unwrap(),
            sim_config_from(&parse(&[])).unwrap(),
            "the heartbeat observes the run, it is not part of the config"
        );
    }

    #[test]
    fn metrics_out_alone_enables_the_metrics_recorder_path() {
        let obs = obs_args_from(&parse(&["--metrics-out", "run.metrics.json"]))
            .unwrap()
            .unwrap();
        assert_eq!(obs.metrics_path.as_deref(), Some("run.metrics.json"));
        assert!(obs.jsonl_path.is_none());
        assert!(obs.chrome_path.is_none());
    }

    #[test]
    fn metrics_out_composes_with_obs_out() {
        let obs = obs_args_from(&parse(&[
            "--obs-out",
            "run.jsonl",
            "--metrics-out",
            "run.metrics.json",
        ]))
        .unwrap()
        .unwrap();
        assert_eq!(obs.jsonl_path.as_deref(), Some("run.jsonl"));
        assert_eq!(obs.metrics_path.as_deref(), Some("run.metrics.json"));
    }

    #[test]
    fn ring_knobs_with_only_metrics_out_are_still_rejected() {
        // The ring/sampling knobs shape the event ring; a pure metrics
        // run has none, so silently ignoring them would mislead.
        let err =
            obs_args_from(&parse(&["--metrics-out", "m.json", "--obs-ring", "64"])).unwrap_err();
        assert_eq!(err.exit_code(), 2);
    }

    #[test]
    fn metrics_snapshot_is_written_and_announced() {
        let dir = std::env::temp_dir().join("sapsim-cli-mod-metrics");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.metrics.json");
        let path_str = path.to_str().unwrap().to_string();
        let mut cfg = SimConfig::default();
        cfg.scale = 0.02;
        cfg.days = 1;
        cfg.warmup_days = 0;
        let obs = ObsArgs {
            jsonl_path: None,
            chrome_path: None,
            metrics_path: Some(path_str.clone()),
            config: ObsConfig::default(),
            progress: false,
        };
        let mut out = Vec::new();
        let with_metrics = execute_with_obs(cfg, Some(&obs), &mut out).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.starts_with(r#"{"schema":"sapsim.metrics/v1""#));
        assert!(text.ends_with('\n'));
        let status = String::from_utf8(out).unwrap();
        assert!(status.contains("metrics snapshot"));
        assert!(status.contains(&path_str));
        // The canonical result is byte-identical with metrics off.
        let plain = execute_with_obs(cfg, None, &mut Vec::new()).unwrap();
        assert_eq!(with_metrics.canonical_bytes(), plain.canonical_bytes());
    }

    #[test]
    fn invalid_obs_knobs_are_rejected() {
        assert!(obs_args_from(&parse(&["--obs-out", "x", "--obs-sample", "1.5"])).is_err());
        assert!(obs_args_from(&parse(&["--obs-out", "x", "--obs-ring", "0"])).is_err());
        assert!(obs_args_from(&parse(&["--obs-out", "x", "--obs-ring", "nope"])).is_err());
    }
}
