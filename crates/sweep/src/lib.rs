//! # sapsim-sweep — deterministic multi-run orchestration
//!
//! The paper's punchlines are comparative (vanilla Nova vs. DRS-corrected
//! placement, contention with and without the second scheduling layer),
//! so the natural unit of work is a *grid* of runs. This crate executes a
//! [`SweepSpec`](sapsim_core::SweepSpec) expansion on a fixed-order
//! work-stealing pool and reduces the results deterministically:
//!
//! * **Scheduling** — workers claim scenario *indices* from a shared
//!   atomic counter (classic work stealing, zero dependencies:
//!   `std::thread::scope` + `AtomicUsize` + `mpsc`), so a slow scenario
//!   never idles the pool.
//! * **Reduction** — finished runs are sent back as `(index, outcome)`
//!   pairs and placed into index-addressed slots; the report is then
//!   assembled in *expansion order*. Completion order — the only thing
//!   the worker count changes — never reaches the output.
//! * **Witnesses** — every run's canonical bytes are fingerprinted
//!   (FNV-1a 64) into its [`RunSummary`], so "byte-identical at any
//!   worker count, and identical to N sequential `sapsim simulate`
//!   invocations" is a directly testable claim.
//!
//! The only sweep output *outside* the determinism contract is the
//! optional per-run observability JSONL ([`ScenarioArtifacts::obs_jsonl`]):
//! it contains wall-clock span timings by design.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod manifest;
mod report;
mod summary;

pub use manifest::{parse_manifest, Manifest};
pub use report::{ScenarioOutcome, SweepReport, SWEEP_REPORT_SCHEMA};
pub use summary::{ClassCount, RunSummary, UtilizationBands, RUN_SUMMARY_SCHEMA};

use sapsim_analysis::cdf::{utilization_cdf, VmResource};
use sapsim_analysis::contention::contention_aggregate;
use sapsim_core::{Scenario, SimError, SweepSpec};
use sapsim_obs::{JsonlRecorder, MetricsRecorder, MetricsRegistry, NullRecorder};
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::Instant;

/// What went wrong while parsing, expanding, or executing a sweep.
///
/// Marked `#[non_exhaustive]`; keep a wildcard arm.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SweepError {
    /// A scenario config was invalid (wraps the core error).
    Sim(SimError),
    /// The grid manifest (or a serialized summary/report) was malformed.
    /// The payload is the full human-readable message.
    Manifest(String),
    /// Reading or writing sweep inputs/outputs failed.
    Io(String),
    /// The sweep expanded to zero scenarios.
    NoScenarios,
}

impl fmt::Display for SweepError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SweepError::Sim(err) => write!(f, "{err}"),
            SweepError::Manifest(msg) => f.write_str(msg),
            SweepError::Io(msg) => f.write_str(msg),
            SweepError::NoScenarios => f.write_str("sweep expands to no scenarios"),
        }
    }
}

impl std::error::Error for SweepError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SweepError::Sim(err) => Some(err),
            _ => None,
        }
    }
}

impl From<SimError> for SweepError {
    fn from(err: SimError) -> Self {
        SweepError::Sim(err)
    }
}

/// Execution knobs for [`run_sweep`]. Pure execution: no field here can
/// change the report bytes (the obs JSONL artifact is the documented
/// exception — it records wall-clock timings).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SweepOptions {
    /// Worker threads: `0` (the default) = one per available CPU,
    /// otherwise exactly that many (clamped to the scenario count).
    pub workers: usize,
    /// Collect per-scenario CDF/contention CSV artifacts.
    pub collect_artifacts: bool,
    /// Run each scenario under a [`JsonlRecorder`] and collect its JSONL
    /// log. Costs recorder overhead per run; implies nothing about the
    /// report, which stays byte-identical either way.
    pub collect_obs: bool,
    /// Collect a `sapsim.metrics/v1` snapshot per scenario cell
    /// ([`ScenarioArtifacts::metrics_json`]) plus a sweep-level registry
    /// of pool health — per-worker cell counts, busy time, and claim
    /// depth ([`SweepOutput::sweep_metrics`]). Like the obs JSONL these
    /// carry wall-clock data and sit outside the byte-equality contract;
    /// the report itself stays byte-identical either way.
    pub collect_metrics: bool,
}

/// Per-scenario side outputs (only with
/// [`SweepOptions::collect_artifacts`] / [`SweepOptions::collect_obs`]).
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioArtifacts {
    /// The scenario's report label.
    pub name: String,
    /// Figure 14 CPU CDF (`utilization,cumulative_fraction`). Empty
    /// unless artifacts were collected.
    pub cpu_cdf_csv: String,
    /// Figure 14 memory CDF. Empty unless artifacts were collected.
    pub memory_cdf_csv: String,
    /// Daily contention aggregate CSV. Empty unless artifacts were
    /// collected.
    pub contention_csv: String,
    /// Observability JSONL of the run. **Not** covered by the byte-
    /// equality contract: it contains wall-clock span timings.
    pub obs_jsonl: Option<String>,
    /// `sapsim.metrics/v1` snapshot of the run (with
    /// [`SweepOptions::collect_metrics`]). Same caveat as the JSONL: the
    /// span histograms inside are wall-clock data.
    pub metrics_json: Option<String>,
}

/// Everything a sweep produces: the deterministic report plus optional
/// per-scenario artifacts (in expansion order, like the report).
#[derive(Debug, Clone, PartialEq)]
pub struct SweepOutput {
    /// The deterministic cross-run report.
    pub report: SweepReport,
    /// Per-scenario artifacts; empty unless requested via options.
    pub artifacts: Vec<ScenarioArtifacts>,
    /// Pool-health registry (with [`SweepOptions::collect_metrics`]):
    /// per-worker cell counts and busy time as labeled gauges, cell
    /// wall-time and claim-depth histograms merged across workers.
    /// Wall-clock data — not part of the byte-equality contract.
    pub sweep_metrics: Option<MetricsRegistry>,
}

impl SweepOutput {
    /// Merge the per-scenario CDF CSVs into one overlay table
    /// (`scenario,resource,utilization,cumulative_fraction`) — the
    /// Figure 14 overlay plot input.
    pub fn cdf_overlay_csv(&self) -> String {
        let mut out = String::from("scenario,resource,utilization,cumulative_fraction\n");
        for a in &self.artifacts {
            for (resource, csv) in [("cpu", &a.cpu_cdf_csv), ("memory", &a.memory_cdf_csv)] {
                for line in csv.lines().skip(1) {
                    out.push_str(&a.name);
                    out.push(',');
                    out.push_str(resource);
                    out.push(',');
                    out.push_str(line);
                    out.push('\n');
                }
            }
        }
        out
    }

    /// Merge the per-scenario contention CSVs into one overlay table
    /// (first column: scenario).
    pub fn contention_overlay_csv(&self) -> String {
        let mut out = String::new();
        for (i, a) in self.artifacts.iter().enumerate() {
            let mut lines = a.contention_csv.lines();
            let header = lines.next().unwrap_or_default();
            if i == 0 {
                out.push_str("scenario,");
                out.push_str(header);
                out.push('\n');
            }
            for line in lines {
                out.push_str(&a.name);
                out.push(',');
                out.push_str(line);
                out.push('\n');
            }
        }
        out
    }
}

/// Resolve the worker count for `work` scenarios: `0` = one per
/// available CPU, clamped to `[1, work]`. The pool is plain std and its
/// output is worker-count-independent by construction.
pub fn effective_workers(requested: usize, work: usize) -> usize {
    let requested = if requested == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        requested
    };
    requested.clamp(1, work.max(1))
}

/// Expand `spec` and execute the grid. Convenience wrapper around
/// [`run_sweep`].
pub fn run_spec(spec: &SweepSpec, options: &SweepOptions) -> Result<SweepOutput, SweepError> {
    let scenarios = spec.expand()?;
    run_sweep(&scenarios, options)
}

/// Execute `scenarios` on the work-stealing pool and reduce
/// deterministically.
///
/// The returned report (and the CSV artifacts) are byte-identical at any
/// [`SweepOptions::workers`] value, and each scenario's outcome is
/// byte-identical to running it alone via
/// [`Scenario::run`] — the contract the integration suite pins.
pub fn run_sweep(
    scenarios: &[Scenario],
    options: &SweepOptions,
) -> Result<SweepOutput, SweepError> {
    if scenarios.is_empty() {
        return Err(SweepError::NoScenarios);
    }
    let workers = effective_workers(options.workers, scenarios.len());
    let mut slots: Vec<Option<(ScenarioOutcome, ScenarioArtifacts)>> =
        (0..scenarios.len()).map(|_| None).collect();

    let next = AtomicUsize::new(0);
    let next = &next;
    let (tx, rx) = mpsc::channel();
    let sweep_metrics = std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(workers);
        for _ in 0..workers {
            let tx = tx.clone();
            handles.push(scope.spawn(move || {
                // Worker-local pool accounting, merged after the joins so
                // the hot claim loop never touches shared state beyond
                // the one atomic.
                let mut local = MetricsRegistry::new();
                let mut busy_us: u64 = 0;
                loop {
                    let index = next.fetch_add(1, Ordering::Relaxed);
                    if index >= scenarios.len() {
                        break;
                    }
                    if options.collect_metrics {
                        // Cells still unclaimed at claim time (including
                        // this one): the depth of the claim queue.
                        local.observe("sweep_claim_depth", (scenarios.len() - index) as u64);
                    }
                    let t0 = Instant::now();
                    let outcome = execute_one(&scenarios[index], options);
                    if options.collect_metrics {
                        let us = t0.elapsed().as_micros() as u64;
                        busy_us += us;
                        local.counter("sweep_cells_completed", 1);
                        local.observe("sweep_cell_us", us);
                    }
                    if tx.send((index, outcome)).is_err() {
                        break;
                    }
                }
                (local, busy_us)
            }));
        }
        drop(tx);
        // Receive in *completion* order, store by *expansion* index —
        // this line is the whole determinism story of the reduction.
        for (index, outcome) in rx {
            slots[index] = Some(outcome);
        }
        if !options.collect_metrics {
            return None;
        }
        // Fold worker registries in spawn order: per-worker utilization
        // as labeled gauges, the distributions merged bit-stably.
        let mut registry = MetricsRegistry::new();
        registry.gauge("sweep_workers", workers as f64);
        registry.gauge("sweep_cells_total", scenarios.len() as f64);
        for (w, handle) in handles.into_iter().enumerate() {
            let (local, busy_us) = handle.join().expect("sweep worker panicked");
            let cells = local.counter_value("sweep_cells_completed").unwrap_or(0);
            registry.merge(&local);
            let label = w.to_string();
            registry.gauge_with("sweep_worker_cells", "worker", &label, cells as f64);
            registry.gauge_with("sweep_worker_busy_us", "worker", &label, busy_us as f64);
        }
        Some(registry)
    });

    let mut outcomes = Vec::with_capacity(scenarios.len());
    let mut artifacts = Vec::new();
    for slot in slots {
        let (outcome, artifact) =
            slot.expect("every claimed index sends exactly one result before the scope ends");
        outcomes.push(outcome);
        if options.collect_artifacts || options.collect_obs || options.collect_metrics {
            artifacts.push(artifact);
        }
    }
    Ok(SweepOutput {
        report: SweepReport::new(outcomes),
        artifacts,
        sweep_metrics,
    })
}

/// Run one scenario and package its outcome + artifacts.
fn execute_one(
    scenario: &Scenario,
    options: &SweepOptions,
) -> (ScenarioOutcome, ScenarioArtifacts) {
    let (run, obs_jsonl, metrics_json) = if options.collect_obs {
        let mut rec = JsonlRecorder::with_defaults();
        if options.collect_metrics {
            rec = rec.with_metrics();
        }
        let run = scenario.run_with_recorder(&mut rec);
        let metrics_json = rec.metrics().map(|m| m.to_json());
        let mut buf = Vec::new();
        rec.write_jsonl(&mut buf)
            .expect("writing JSONL into a Vec cannot fail");
        let text = String::from_utf8(buf).expect("JSONL export is UTF-8");
        (run, Some(text), metrics_json)
    } else if options.collect_metrics {
        let mut rec = MetricsRecorder::new();
        let run = scenario.run_with_recorder(&mut rec);
        let json = rec.registry().to_json();
        (run, None, Some(json))
    } else {
        let run = scenario.run_with_recorder(&mut NullRecorder);
        (run, None, None)
    };

    let outcome = ScenarioOutcome {
        name: scenario.name().to_string(),
        id: scenario.id(),
        summary: RunSummary::from_run(&run),
    };
    let artifacts = if options.collect_artifacts {
        ScenarioArtifacts {
            name: scenario.name().to_string(),
            cpu_cdf_csv: utilization_cdf(&run, VmResource::Cpu).to_csv(),
            memory_cdf_csv: utilization_cdf(&run, VmResource::Memory).to_csv(),
            contention_csv: contention_aggregate(&run).to_csv(),
            obs_jsonl,
            metrics_json,
        }
    } else {
        ScenarioArtifacts {
            name: scenario.name().to_string(),
            cpu_cdf_csv: String::new(),
            memory_cdf_csv: String::new(),
            contention_csv: String::new(),
            obs_jsonl,
            metrics_json,
        }
    };
    (outcome, artifacts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sapsim_core::SimConfig;

    fn tiny_spec() -> SweepSpec {
        let mut base = SimConfig::smoke_test();
        base.scale = 0.01;
        base.days = 1;
        let mut spec = SweepSpec::new(base);
        spec.seeds = vec![1, 2];
        spec.drs = vec![true, false];
        spec
    }

    #[test]
    fn report_is_byte_identical_at_any_worker_count() {
        let spec = tiny_spec();
        let outputs: Vec<SweepOutput> = [1, 2, 4]
            .iter()
            .map(|&workers| {
                let options = SweepOptions {
                    workers,
                    collect_artifacts: true,
                    ..SweepOptions::default()
                };
                run_spec(&spec, &options).expect("sweep runs")
            })
            .collect();
        let reference = outputs[0].report.to_json();
        assert!(reference.contains(SWEEP_REPORT_SCHEMA));
        for output in &outputs[1..] {
            assert_eq!(output.report.to_json(), reference);
            assert_eq!(
                output.cdf_overlay_csv(),
                outputs[0].cdf_overlay_csv(),
                "artifact overlays must not depend on the worker count"
            );
            assert_eq!(
                output.contention_overlay_csv(),
                outputs[0].contention_overlay_csv()
            );
        }
    }

    #[test]
    fn sweep_outcomes_match_sequential_runs() {
        let spec = tiny_spec();
        let output = run_spec(&spec, &SweepOptions::default()).expect("sweep runs");
        let scenarios = spec.expand().expect("valid");
        assert_eq!(output.report.scenarios.len(), scenarios.len());
        for (outcome, scenario) in output.report.scenarios.iter().zip(&scenarios) {
            assert_eq!(outcome.name, scenario.name());
            assert_eq!(outcome.id, scenario.id());
            let solo = RunSummary::from_run(&scenario.run());
            assert_eq!(
                outcome.summary,
                solo,
                "pooled and sequential runs must agree for `{}`",
                scenario.name()
            );
        }
    }

    #[test]
    fn obs_artifacts_are_collected_on_request() {
        let mut base = SimConfig::smoke_test();
        base.scale = 0.01;
        base.days = 1;
        let spec = SweepSpec::new(base);
        let options = SweepOptions {
            workers: 1,
            collect_obs: true,
            ..SweepOptions::default()
        };
        let output = run_spec(&spec, &options).expect("sweep runs");
        assert_eq!(output.artifacts.len(), 1);
        let obs = output.artifacts[0].obs_jsonl.as_ref().expect("collected");
        assert!(obs.starts_with("{\"type\":\"meta\""));
    }

    #[test]
    fn metrics_artifacts_and_pool_registry_are_collected() {
        let spec = tiny_spec(); // expands to 4 scenarios
        let options = SweepOptions {
            workers: 2,
            collect_metrics: true,
            ..SweepOptions::default()
        };
        let output = run_spec(&spec, &options).expect("sweep runs");
        assert_eq!(output.artifacts.len(), 4);
        for a in &output.artifacts {
            let json = a.metrics_json.as_ref().expect("per-cell snapshot");
            assert!(json.starts_with("{\"schema\":\"sapsim.metrics/v1\""));
            assert!(json.contains("\"placements\""));
        }
        let m = output.sweep_metrics.as_ref().expect("pool registry");
        assert_eq!(m.counter_value("sweep_cells_completed"), Some(4));
        assert_eq!(m.gauge_value("sweep_cells_total"), Some(4.0));
        assert_eq!(m.histogram("sweep_cell_us").expect("merged").count(), 4);
        assert_eq!(m.histogram("sweep_claim_depth").expect("merged").count(), 4);
        // Metrics collection must not move the deterministic report.
        let plain = run_spec(&spec, &SweepOptions::default()).expect("sweep runs");
        assert_eq!(plain.report.to_json(), output.report.to_json());
        assert!(plain.sweep_metrics.is_none());
        assert!(plain.artifacts.is_empty());
    }

    #[test]
    fn empty_sweeps_are_rejected() {
        assert_eq!(
            run_sweep(&[], &SweepOptions::default()),
            Err(SweepError::NoScenarios)
        );
    }

    #[test]
    fn report_renders_comparison_and_deltas() {
        let output = run_spec(&tiny_spec(), &SweepOptions::default()).expect("sweep runs");
        let text = output.report.render();
        assert!(text.contains("sweep report — 4 scenarios"));
        assert!(text.contains("placed%"));
        assert!(text.contains("deltas vs baseline"));
        assert!(text.contains("utilization bands"));
        let table = output.report.comparison_table();
        assert_eq!(table.lines().count(), 5);
    }
}
