//! Figure 8: the ten nodes with the highest CPU ready time across the
//! region, as full-resolution time series.

use sapsim_core::RunResult;
use sapsim_telemetry::{EntityRef, MetricId};
use std::fmt::Write as _;

/// One node's ready-time series.
#[derive(Debug, Clone)]
pub struct ReadySeries {
    /// The node.
    pub(crate) entity: EntityRef,
    /// Total ready time over the window, seconds.
    pub(crate) total_ready_s: f64,
    /// Maximum single-interval ready time, seconds.
    pub(crate) max_ready_s: f64,
    /// `(hours since window start, ready seconds)` samples.
    pub(crate) points: Vec<(f64, f64)>,
}

/// The Figure 8 result: the top-`k` nodes by total ready time.
#[derive(Debug, Clone)]
pub struct TopReadyNodes {
    /// Series, ordered by descending total ready time.
    pub nodes: Vec<ReadySeries>,
}

/// Extract the top-`k` ready-time series from a run. Requires
/// `record_raw_host_series` to have been enabled.
pub fn top_ready_nodes(run: &RunResult, k: usize) -> TopReadyNodes {
    let mut all: Vec<ReadySeries> = run
        .store
        .series_of(MetricId::HostCpuReadyMs)
        .into_iter()
        .map(|(entity, series)| {
            let mut total = 0.0;
            let mut max = 0.0f64;
            let points: Vec<(f64, f64)> = series
                .iter()
                .map(|(t, ms)| {
                    let s = ms / 1000.0;
                    total += s;
                    max = max.max(s);
                    (t.as_hours_f64(), s)
                })
                .collect();
            ReadySeries {
                entity,
                total_ready_s: total,
                max_ready_s: max,
                points,
            }
        })
        .collect();
    all.sort_by(|a, b| {
        b.total_ready_s
            .partial_cmp(&a.total_ready_s)
            .expect("totals are finite")
            .then(a.entity.cmp(&b.entity))
    });
    all.truncate(k);
    TopReadyNodes { nodes: all }
}

impl TopReadyNodes {
    /// Weekday vs weekend mean ready seconds across the top nodes — the
    /// paper observes "less workload and thus less contention on weekends".
    pub fn weekday_weekend_means(&self) -> (f64, f64) {
        let (mut wd_sum, mut wd_n, mut we_sum, mut we_n) = (0.0, 0usize, 0.0, 0usize);
        for node in &self.nodes {
            for &(hours, ready) in &node.points {
                let t = sapsim_sim::SimTime::from_millis(
                    (hours * sapsim_sim::MILLIS_PER_HOUR as f64) as u64,
                );
                if t.is_weekend() {
                    we_sum += ready;
                    we_n += 1;
                } else {
                    wd_sum += ready;
                    wd_n += 1;
                }
            }
        }
        (
            if wd_n > 0 { wd_sum / wd_n as f64 } else { 0.0 },
            if we_n > 0 { we_sum / we_n as f64 } else { 0.0 },
        )
    }

    /// CSV: `entity,hours,ready_seconds`.
    pub(crate) fn to_csv(&self) -> String {
        let mut out = String::from("entity,hours,ready_seconds\n");
        for n in &self.nodes {
            for (h, s) in &n.points {
                let _ = writeln!(out, "{},{h:.2},{s:.3}", n.entity);
            }
        }
        out
    }

    /// Paper-style summary table.
    pub(crate) fn render_summary(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<12} {:>16} {:>16}",
            "node", "total ready (s)", "max/interval (s)"
        );
        for n in &self.nodes {
            let _ = writeln!(
                out,
                "{:<12} {:>16.1} {:>16.1}",
                n.entity.to_string(),
                n.total_ready_s,
                n.max_ready_s
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sapsim_core::{SimConfig, SimDriver};

    fn run() -> RunResult {
        let mut cfg = SimConfig::smoke_test();
        cfg.seed = 41;
        SimDriver::new(cfg).unwrap().run()
    }

    #[test]
    fn top_k_is_sorted_and_bounded() {
        let r = run();
        let top = top_ready_nodes(&r, 10);
        assert!(top.nodes.len() <= 10);
        for w in top.nodes.windows(2) {
            assert!(w[0].total_ready_s >= w[1].total_ready_s);
        }
        for n in &top.nodes {
            assert!(n.max_ready_s <= n.total_ready_s + 1e-9);
            assert!(!n.points.is_empty());
        }
    }

    #[test]
    fn k_larger_than_population_returns_all() {
        let r = run();
        let nodes = r.cloud.topology().nodes().len();
        let top = top_ready_nodes(&r, nodes + 100);
        assert_eq!(top.nodes.len(), nodes);
    }

    #[test]
    fn renders_are_well_formed() {
        let r = run();
        let top = top_ready_nodes(&r, 5);
        let csv = top.to_csv();
        assert!(csv.starts_with("entity,hours,ready_seconds"));
        let table = top.render_summary();
        assert!(table.contains("total ready"));
    }
}
