//! Figure 9: aggregated CPU contention over all nodes of the region —
//! daily mean, 95th percentile, and maximum.

use sapsim_core::RunResult;
use sapsim_telemetry::{summary, MetricId};
use std::fmt::Write as _;

/// One day's aggregate over all nodes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct ContentionDay {
    /// Day index (0-based).
    pub(crate) day: usize,
    /// Mean of node daily-mean contention (percent).
    pub(crate) mean: f64,
    /// 95th percentile of node daily means (percent).
    pub(crate) p95: f64,
    /// Maximum single sample across all nodes that day (percent).
    pub(crate) max: f64,
}

/// The Figure 9 result.
#[derive(Debug, Clone)]
pub struct ContentionAggregate {
    /// Per-day aggregates.
    pub(crate) days: Vec<ContentionDay>,
}

/// Aggregate contention from a run's rollups: the daily mean and p95 are
/// computed over the population of per-node daily means; the daily max is
/// the maximum raw sample (the rollup retains per-day maxima).
pub fn contention_aggregate(run: &RunResult) -> ContentionAggregate {
    let rollups = run.store.rollups_of(MetricId::HostCpuContentionPct);
    let num_days = run.store.rollup_days();
    let mut days = Vec::with_capacity(num_days);
    for day in 0..num_days {
        let mut means: Vec<f64> = Vec::with_capacity(rollups.len());
        let mut max = 0.0f64;
        for (_, r) in &rollups {
            if let Some(cell) = r.day(day) {
                if let Some(m) = cell.mean() {
                    means.push(m);
                    max = max.max(cell.stat.max);
                }
            }
        }
        if means.is_empty() {
            continue;
        }
        days.push(ContentionDay {
            day,
            mean: summary::mean(&means).expect("nonempty"),
            p95: summary::quantile(&means, 0.95).expect("nonempty"),
            max,
        });
    }
    ContentionAggregate { days }
}

impl ContentionAggregate {
    /// Highest daily max over the window.
    pub fn peak_max(&self) -> f64 {
        self.days.iter().map(|d| d.max).fold(0.0, f64::max)
    }

    /// Highest daily mean over the window.
    pub fn peak_mean(&self) -> f64 {
        self.days.iter().map(|d| d.mean).fold(0.0, f64::max)
    }

    /// Highest daily p95 over the window.
    pub fn peak_p95(&self) -> f64 {
        self.days.iter().map(|d| d.p95).fold(0.0, f64::max)
    }

    /// CSV rows `day,mean,p95,max`.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("day,mean,p95,max\n");
        for d in &self.days {
            let _ = writeln!(out, "{},{:.3},{:.3},{:.3}", d.day, d.mean, d.p95, d.max);
        }
        out
    }

    /// Paper-style text summary.
    pub(crate) fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{:<5} {:>8} {:>8} {:>8}", "day", "mean%", "p95%", "max%");
        for d in &self.days {
            let _ = writeln!(
                out,
                "{:<5} {:>8.2} {:>8.2} {:>8.2}",
                d.day, d.mean, d.p95, d.max
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
        cfg.seed = 51;
        SimDriver::new(cfg).unwrap().run()
    }

    #[test]
    fn aggregate_covers_every_day() {
        let r = run();
        let agg = contention_aggregate(&r);
        assert_eq!(agg.days.len(), r.config.days as usize);
        for d in &agg.days {
            // Contention is zero-inflated: on a day when under 5 % of the
            // node-samples are contended, p95 is 0 and the mean is not.
            assert!(d.mean <= d.max + 1e-9, "mean ≤ max on day {}", d.day);
            assert!(d.p95 <= d.max + 1e-9, "p95 ≤ max on day {}", d.day);
            assert!(d.mean >= 0.0);
            assert!(d.max <= 100.0);
        }
    }

    #[test]
    fn paper_shape_mean_and_p95_low_max_high() {
        // Fig. 9: "the daily mean and 95 percentile remain below the 5%
        // mark"; maxima reach well beyond.
        let r = run();
        let agg = contention_aggregate(&r);
        assert!(agg.peak_mean() < 5.0, "peak mean = {:.2}%", agg.peak_mean());
        assert!(agg.peak_p95() < 10.0, "peak p95 = {:.2}%", agg.peak_p95());
        // At smoke-test scale the fleet may be entirely quiet (both zero);
        // the invariant is that the max never sits below the mean.
        assert!(
            agg.peak_max() >= agg.peak_mean(),
            "max dominates the mean"
        );
    }

    #[test]
    fn renders() {
        let agg = contention_aggregate(&run());
        assert!(agg.to_csv().starts_with("day,mean,p95,max"));
        assert!(agg.render().contains("mean%"));
    }
}
