//! Figure 13 companions: storage-utilization distribution statistics.
//!
//! The paper: "18% of the host show more than 90% of free storage, and 7%
//! are highly utilized requiring more than 30% of storage."

use sapsim_core::RunResult;
use sapsim_telemetry::{EntityRef, MetricId};

/// Distribution of per-node storage utilization over the window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct StorageDistribution {
    /// Nodes considered.
    pub(crate) nodes: usize,
    /// Fraction of nodes whose mean free storage exceeds 90 %.
    pub(crate) over_90_pct_free: f64,
    /// Fraction of nodes using more than 30 % of their storage on average.
    pub(crate) over_30_pct_used: f64,
    /// Mean used fraction across nodes.
    pub(crate) mean_used_fraction: f64,
}

/// Compute the storage distribution from disk-usage rollups and node
/// capacities.
pub(crate) fn storage_distribution(run: &RunResult) -> StorageDistribution {
    let topo = run.cloud.topology();
    let mut used_fractions: Vec<f64> = Vec::new();
    for node in topo.nodes() {
        let e = EntityRef::Node(node.id.index() as u32);
        let Some(rollup) = run.store.rollup(MetricId::HostDiskUsageGb, e) else {
            continue;
        };
        let Some(mean_used_gb) = rollup.overall_mean() else {
            continue;
        };
        let capacity = topo.node_physical_capacity(node.id).disk_gib as f64;
        if capacity > 0.0 {
            used_fractions.push((mean_used_gb / capacity).clamp(0.0, 1.0));
        }
    }
    let n = used_fractions.len();
    let over_90_free = used_fractions.iter().filter(|&&u| u < 0.10).count();
    let over_30_used = used_fractions.iter().filter(|&&u| u > 0.30).count();
    StorageDistribution {
        nodes: n,
        over_90_pct_free: if n > 0 { over_90_free as f64 / n as f64 } else { 0.0 },
        over_30_pct_used: if n > 0 { over_30_used as f64 / n as f64 } else { 0.0 },
        mean_used_fraction: if n > 0 {
            used_fractions.iter().sum::<f64>() / n as f64
        } else {
            0.0
        },
    }
}

impl StorageDistribution {
    /// One-line paper-style summary.
    pub(crate) fn summary_line(&self) -> String {
        format!(
            "{} nodes — {:.0}% of hosts >90% free storage, {:.0}% of hosts >30% used (mean used {:.0}%)",
            self.nodes,
            self.over_90_pct_free * 100.0,
            self.over_30_pct_used * 100.0,
            self.mean_used_fraction * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sapsim_core::{SimConfig, SimDriver};

    #[test]
    fn distribution_is_consistent() {
        let mut cfg = SimConfig::smoke_test();
        cfg.seed = 71;
        let r = SimDriver::new(cfg).unwrap().run();
        let d = storage_distribution(&r);
        assert!(d.nodes > 10);
        assert!((0.0..=1.0).contains(&d.over_90_pct_free));
        assert!((0.0..=1.0).contains(&d.over_30_pct_used));
        assert!((0.0..=1.0).contains(&d.mean_used_fraction));
        // Storage is lightly used overall (the paper's uneven-but-low
        // picture): the mean used fraction stays below half.
        assert!(d.mean_used_fraction < 0.5, "mean used = {:.2}", d.mean_used_fraction);
        assert!(d.summary_line().contains("free storage"));
    }
}
