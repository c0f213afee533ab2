//! The versioned machine-readable run summary.
//!
//! One [`RunSummary`] condenses a [`RunResult`] into the quantities the
//! paper's comparative tables are built from: the driver counters, the
//! Table 1/2 class averages, the Figure 14 under/optimal/over bands, and
//! the contention peaks. The same JSON object is what `sapsim simulate
//! --json` prints and what each sweep scenario contributes to the sweep
//! report — so sweep post-processing and one-off runs share one schema.

use sapsim_analysis::cdf::{utilization_cdf, VmResource};
use sapsim_analysis::classify::{table1_by_vcpu, table2_by_ram};
use sapsim_analysis::contention::contention_aggregate;
use sapsim_analysis::heatmap::cpu_imbalance;
use sapsim_api::SchemaId;
use sapsim_core::scenario::fnv1a_64;
use sapsim_core::{DriverStats, RunResult, SimConfig};
use sapsim_json::{decode, json_codec, ToJson};

use crate::SweepError;

/// Schema identifier embedded in every serialized [`RunSummary`] —
/// spelled by the `sapsim-api` schema registry ([`SchemaId::RunSummaryV1`]).
/// Bump the `/v1` suffix on any breaking change to the JSON shape.
pub(crate) const RUN_SUMMARY_SCHEMA: &str = SchemaId::RunSummaryV1.as_str();

/// Average-alive VM count of one size class (a Table 1 or Table 2 row).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ClassCount {
    /// Class label (`Small`, `Medium`, `Large`, `Extra Large`).
    pub(crate) class: String,
    /// Average number of VMs of that class alive over the window.
    pub(crate) avg_vms: f64,
}

json_codec!(struct ClassCount { class, avg_vms });

/// The Figure 14 under/optimal/over split for one resource.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct UtilizationBands {
    /// Which resource (`cpu` or `memory`).
    pub(crate) resource: String,
    /// VMs with at least one sample.
    pub(crate) vms: usize,
    /// Fraction of VMs below 70 % mean utilization.
    pub(crate) under: f64,
    /// Fraction in 70–85 %.
    pub(crate) optimal: f64,
    /// Fraction above 85 %.
    pub(crate) over: f64,
}

json_codec!(struct UtilizationBands { resource, vms, under, optimal, over });

/// Machine-readable summary of one finished run.
///
/// Everything here is derived from the run's canonical content: the
/// embedded config states the whole experiment, and `canonical_hash`
/// fingerprints [`RunResult::canonical_bytes`] — so two runs that must
/// be bit-identical produce byte-identical summaries at any worker
/// count.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSummary {
    /// Always [`RUN_SUMMARY_SCHEMA`]; rejected on mismatch when parsing.
    pub(crate) schema: String,
    /// The run configuration.
    pub config: SimConfig,
    /// 16 hex digits of FNV-1a 64 over the run's canonical bytes — the
    /// determinism witness sweep byte-equality tests compare.
    pub canonical_hash: String,
    /// Driver counters (placements, migrations, faults, ...).
    pub stats: DriverStats,
    /// Total hypervisor nodes in the topology.
    pub(crate) nodes: usize,
    /// Nodes hosting at least one VM at window end (the Table 5 view of
    /// this run's footprint).
    pub(crate) active_nodes: usize,
    /// Table 1: average-alive VM counts per vCPU class.
    pub(crate) table1_by_vcpu: Vec<ClassCount>,
    /// Table 2: average-alive VM counts per RAM class.
    pub(crate) table2_by_ram: Vec<ClassCount>,
    /// Figure 14 bands, one entry per resource (`cpu`, then `memory`).
    pub(crate) utilization: Vec<UtilizationBands>,
    /// Peak single-sample host CPU contention (percent).
    pub(crate) peak_contention_pct: f64,
    /// Highest daily-mean host CPU contention (percent).
    pub(crate) peak_mean_contention_pct: f64,
    /// Highest daily-p95 host CPU contention (percent).
    pub(crate) peak_p95_contention_pct: f64,
    /// Std-dev of per-node mean CPU utilization (percentage points;
    /// [`cpu_imbalance`]). Added after v1 shipped, so a summary written
    /// without it reads as 0.
    pub(crate) cpu_imbalance_pct: f64,
}

json_codec!(struct RunSummary {
    schema, config, canonical_hash, stats, nodes, active_nodes, table1_by_vcpu, table2_by_ram,
    utilization, peak_contention_pct, peak_mean_contention_pct, peak_p95_contention_pct,
    #[default] cpu_imbalance_pct,
});

impl RunSummary {
    /// Summarize a finished run.
    pub fn from_run(run: &RunResult) -> RunSummary {
        let agg = contention_aggregate(run);
        let active_nodes = run
            .cloud
            .topology()
            .nodes()
            .iter()
            .filter(|n| !run.cloud.vms_on_node(n.id).is_empty())
            .count();
        let class_counts = |rows: &[(String, f64)]| {
            rows.iter()
                .map(|(class, avg)| ClassCount {
                    class: class.clone(),
                    avg_vms: *avg,
                })
                .collect::<Vec<_>>()
        };
        let table1: Vec<(String, f64)> = table1_by_vcpu(run)
            .iter()
            .map(|(c, n)| (c.to_string(), *n))
            .collect();
        let table2: Vec<(String, f64)> = table2_by_ram(run)
            .iter()
            .map(|(c, n)| (c.to_string(), *n))
            .collect();
        let bands = |resource: VmResource| {
            let cdf = utilization_cdf(run, resource);
            UtilizationBands {
                resource: cdf.resource.to_string(),
                vms: cdf.vms,
                under: cdf.under,
                optimal: cdf.optimal,
                over: cdf.over,
            }
        };
        RunSummary {
            schema: RUN_SUMMARY_SCHEMA.to_string(),
            config: run.config,
            canonical_hash: format!("{:016x}", fnv1a_64(&run.canonical_bytes())),
            stats: run.stats,
            nodes: run.cloud.topology().nodes().len(),
            active_nodes,
            table1_by_vcpu: class_counts(&table1),
            table2_by_ram: class_counts(&table2),
            utilization: vec![bands(VmResource::Cpu), bands(VmResource::Memory)],
            peak_contention_pct: agg.peak_max(),
            peak_mean_contention_pct: agg.peak_mean(),
            peak_p95_contention_pct: agg.peak_p95(),
            cpu_imbalance_pct: cpu_imbalance(run),
        }
    }

    /// Single-line JSON form — what `sapsim simulate --json` prints.
    /// The line is routed through the registry's envelope check, so a
    /// serializer drifting away from [`SchemaId::RunSummaryV1`] panics
    /// here instead of shipping misversioned bytes.
    pub fn to_json(&self) -> String {
        sapsim_api::envelope::checked_line(SchemaId::RunSummaryV1, self.to_json_string())
    }

    /// Parse a serialized summary, rejecting unknown schema versions.
    pub fn from_json_str(text: &str) -> Result<RunSummary, SweepError> {
        let summary: RunSummary = decode(text)
            .map_err(|e| SweepError::Manifest(format!("bad run summary: {e}")))?;
        if sapsim_api::envelope::expect_schema(&summary.schema, SchemaId::RunSummaryV1).is_err() {
            return Err(SweepError::Manifest(format!(
                "unsupported run-summary schema `{}` (expected `{RUN_SUMMARY_SCHEMA}`)",
                summary.schema
            )));
        }
        Ok(summary)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sapsim_core::{Scenario, SimConfig};

    fn tiny_run() -> RunResult {
        let mut cfg = SimConfig::smoke_test();
        cfg.scale = 0.01;
        cfg.days = 1;
        cfg.seed = 5;
        Scenario::new("tiny", cfg).expect("valid").run()
    }

    #[test]
    fn summary_round_trips_and_pins_the_schema() {
        let run = tiny_run();
        let summary = RunSummary::from_run(&run);
        assert_eq!(summary.schema, RUN_SUMMARY_SCHEMA);
        assert_eq!(summary.canonical_hash.len(), 16);
        assert_eq!(summary.table1_by_vcpu.len(), 4);
        assert_eq!(summary.table2_by_ram.len(), 4);
        assert_eq!(summary.utilization.len(), 2);
        assert!(summary.stats.placed > 0);

        let json = summary.to_json();
        let back = RunSummary::from_json_str(&json).expect("parses");
        assert_eq!(back, summary);

        let wrong_schema = json.replace(RUN_SUMMARY_SCHEMA, "sapsim.run-summary/v999");
        assert!(RunSummary::from_json_str(&wrong_schema).is_err());
    }

    #[test]
    fn summary_is_execution_independent() {
        let run = tiny_run();
        let mut rec = sapsim_obs::MetricsRecorder::new();
        let watched = Scenario::new("watched", run.config)
            .expect("valid")
            .run_with_recorder(&mut sapsim_obs::ProgressRecorder::new(&mut rec));
        assert!(watched.profile.enabled() && !run.profile.enabled());
        assert_eq!(
            RunSummary::from_run(&run).to_json(),
            RunSummary::from_run(&watched).to_json(),
            "how a run was observed must not leak into the summary"
        );
    }
}
