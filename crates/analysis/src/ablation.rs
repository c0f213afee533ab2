//! The Section 7 ablations: quantifying the guidance the paper derives.
//!
//! * **A1 — placement-policy comparison**: vanilla spreading vs. memory
//!   bin-packing vs. the paper's mixed production policy vs. the
//!   contention- and lifetime-aware extensions, at both scheduling
//!   granularities (cluster-level Nova vs. holistic node-level).
//! * **A2 — overcommit sweep**: how the general-purpose vCPU:pCPU ratio
//!   trades placeable VMs against contention and ready time.
//! * **A3 — rebalancer ablation**: DRS on/off and cross-BB rebalancing
//!   on/off.

use crate::contention::contention_aggregate;
use sapsim_core::{PlacementGranularity, RunResult, SimConfig, SimDriver};
use sapsim_scheduler::PolicyKind;
use sapsim_telemetry::{EntityRef, MetricId};
use std::fmt::Write as _;

/// Outcome metrics of one configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct AblationRow {
    /// Configuration label.
    pub(crate) label: String,
    /// Fraction of placement attempts that succeeded (the paper's
    /// "maximize the number of placeable VMs" objective).
    pub placement_success: f64,
    /// Nova retry count per 1,000 placements — intra-cluster
    /// fragmentation signal.
    pub(crate) retries_per_k: f64,
    /// Peak single-sample contention across all nodes (percent).
    pub peak_contention: f64,
    /// Highest daily-mean contention (percent).
    pub(crate) peak_mean_contention: f64,
    /// Standard deviation of per-node mean CPU utilization (percent) —
    /// the imbalance measure behind Figures 5–7.
    pub(crate) cpu_imbalance: f64,
    /// Migrations executed (DRS + cross-BB).
    pub(crate) migrations: u64,
    /// Active nodes (≥1 VM at window end).
    pub(crate) active_nodes: usize,
}

/// Extract ablation metrics from a finished run.
pub fn ablation_row(label: impl Into<String>, run: &RunResult) -> AblationRow {
    let agg = contention_aggregate(run);
    // Per-node mean CPU utilization over the window.
    let mut utils: Vec<f64> = Vec::new();
    for node in run.cloud.topology().nodes() {
        let e = EntityRef::Node(node.id.index() as u32);
        if let Some(r) = run.store.rollup(MetricId::HostCpuUtilPct, e) {
            if let Some(m) = r.overall_mean() {
                utils.push(m);
            }
        }
    }
    let mean = utils.iter().sum::<f64>() / utils.len().max(1) as f64;
    let var = utils
        .iter()
        .map(|u| (u - mean) * (u - mean))
        .sum::<f64>()
        / utils.len().max(1) as f64;
    let active_nodes = run
        .cloud
        .topology()
        .nodes()
        .iter()
        .filter(|n| !run.cloud.vms_on_node(n.id).is_empty())
        .count();
    AblationRow {
        label: label.into(),
        placement_success: run.stats.placement_success_rate(),
        retries_per_k: if run.stats.placements_attempted > 0 {
            run.stats.placement_retries as f64 * 1000.0 / run.stats.placements_attempted as f64
        } else {
            0.0
        },
        peak_contention: agg.peak_max(),
        peak_mean_contention: agg.peak_mean(),
        cpu_imbalance: var.sqrt(),
        migrations: run.stats.drs_migrations + run.stats.cross_bb_migrations,
        active_nodes,
    }
}

/// A1: run every policy at both granularities on the same workload seed.
pub fn run_policy_ablation(base: SimConfig) -> Vec<AblationRow> {
    let mut rows = Vec::new();
    for granularity in [PlacementGranularity::BuildingBlock, PlacementGranularity::Node] {
        for policy in PolicyKind::ALL {
            let mut cfg = base;
            cfg.policy = policy;
            cfg.granularity = granularity;
            let run = SimDriver::new(cfg).expect("valid config").run();
            let g = match granularity {
                PlacementGranularity::BuildingBlock => "bb",
                PlacementGranularity::Node => "node",
            };
            rows.push(ablation_row(format!("{}/{}", policy.name(), g), &run));
        }
    }
    rows
}

/// A2: sweep the general-purpose CPU overcommit ratio.
pub fn run_overcommit_sweep(base: SimConfig, ratios: &[f64]) -> Vec<AblationRow> {
    ratios
        .iter()
        .map(|&ratio| {
            let mut cfg = base;
            cfg.gp_cpu_overcommit = ratio;
            let run = SimDriver::new(cfg).expect("valid config").run();
            ablation_row(format!("overcommit-{ratio:.1}"), &run)
        })
        .collect()
}

/// A3: rebalancer on/off matrix.
pub fn run_rebalance_ablation(base: SimConfig) -> Vec<AblationRow> {
    let mut rows = Vec::new();
    for (drs, cross) in [(false, false), (true, false), (true, true)] {
        let mut cfg = base;
        cfg.drs_enabled = drs;
        cfg.cross_bb_enabled = cross;
        let run = SimDriver::new(cfg).expect("valid config").run();
        let label = match (drs, cross) {
            (false, false) => "no-rebalancing",
            (true, false) => "drs-only (production)",
            (true, true) => "drs+cross-bb",
            _ => unreachable!(),
        };
        rows.push(ablation_row(label, &run));
    }
    rows
}

/// Render ablation rows as an aligned table.
pub fn render_ablation(rows: &[AblationRow]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<26} {:>9} {:>10} {:>10} {:>10} {:>10} {:>10} {:>8}",
        "config", "placed%", "retries/k", "peak-cont%", "mean-cont%", "imbalance", "migrations", "nodes"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:<26} {:>9.2} {:>10.2} {:>10.2} {:>10.3} {:>10.2} {:>10} {:>8}",
            r.label,
            r.placement_success * 100.0,
            r.retries_per_k,
            r.peak_contention,
            r.peak_mean_contention,
            r.cpu_imbalance,
            r.migrations,
            r.active_nodes
        );
    }
    out
}

/// CSV form of ablation rows.
pub fn ablation_csv(rows: &[AblationRow]) -> String {
    let mut out = String::from(
        "config,placement_success,retries_per_k,peak_contention,peak_mean_contention,cpu_imbalance,migrations,active_nodes\n",
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{},{:.4},{:.3},{:.3},{:.4},{:.3},{},{}",
            r.label,
            r.placement_success,
            r.retries_per_k,
            r.peak_contention,
            r.peak_mean_contention,
            r.cpu_imbalance,
            r.migrations,
            r.active_nodes
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn micro() -> SimConfig {
        SimConfig::builder()
            .seed(81)
            .scale(0.01)
            .days(2)
            .build()
            .expect("valid micro config")
    }

    #[test]
    fn rebalance_ablation_shows_drs_effect() {
        let rows = run_rebalance_ablation(micro());
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].migrations, 0, "no rebalancing → no migrations");
        // DRS performs migrations and does not hurt placements.
        assert!(rows[1].migrations >= rows[0].migrations);
        for r in &rows {
            assert!(r.placement_success > 0.9);
        }
    }

    #[test]
    fn overcommit_sweep_trades_contention_for_capacity() {
        let rows = run_overcommit_sweep(micro(), &[1.0, 8.0]);
        assert_eq!(rows.len(), 2);
        // Tight overcommit (1:1) cannot show less contention than loose
        // 8:1 packing of the same demand onto the same hardware.
        assert!(
            rows[0].peak_contention <= rows[1].peak_contention + 1e-9,
            "1:1 = {:.2}%, 8:1 = {:.2}%",
            rows[0].peak_contention,
            rows[1].peak_contention
        );
    }

    #[test]
    fn renders_are_aligned() {
        let rows = run_rebalance_ablation(micro());
        let text = render_ablation(&rows);
        assert!(text.contains("placed%"));
        assert_eq!(text.lines().count(), rows.len() + 1);
        let csv = ablation_csv(&rows);
        assert_eq!(csv.lines().count(), rows.len() + 1);
    }
}
