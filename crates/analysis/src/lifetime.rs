//! Figure 15: VM lifetime per flavor, grouped by vCPU and RAM class.
//!
//! The paper limited its plot "to flavors with at least 30 instances" and
//! annotated each bar with the instance count; we do the same.

use sapsim_core::RunResult;
use sapsim_workload::{CpuClass, RamClass};
use std::collections::HashMap;
use std::fmt::Write as _;

/// Lifetime statistics of one flavor.
#[derive(Debug, Clone, PartialEq)]
pub struct FlavorLifetime {
    /// Flavor name.
    pub(crate) flavor: String,
    /// vCPU class of the flavor.
    pub(crate) cpu_class: CpuClass,
    /// RAM class of the flavor.
    pub(crate) ram_class: RamClass,
    /// Number of instances observed.
    pub(crate) instances: usize,
    /// Mean lifetime in days.
    pub(crate) mean_days: f64,
    /// Minimum lifetime in days.
    pub min_days: f64,
    /// Maximum lifetime in days.
    pub max_days: f64,
}

/// The Figure 15 result: per-flavor lifetime stats for flavors with at
/// least `min_instances` observed VMs, sorted by (cpu class, flavor name).
pub fn lifetime_per_flavor(run: &RunResult, min_instances: usize) -> Vec<FlavorLifetime> {
    let mut groups: HashMap<&str, Vec<usize>> = HashMap::new();
    for (i, spec) in run.specs.iter().enumerate() {
        groups.entry(spec.flavor_name.as_str()).or_default().push(i);
    }
    let mut out: Vec<FlavorLifetime> = groups
        .into_iter()
        .filter(|(_, idxs)| idxs.len() >= min_instances)
        .map(|(flavor, idxs)| {
            let lifetimes: Vec<f64> = idxs
                .iter()
                .map(|&i| run.specs[i].lifetime.as_days_f64())
                .collect();
            let spec0 = &run.specs[idxs[0]];
            FlavorLifetime {
                flavor: flavor.to_string(),
                cpu_class: CpuClass::of(spec0.resources.cpu_cores),
                ram_class: RamClass::of(spec0.resources.memory_gib()),
                instances: idxs.len(),
                mean_days: lifetimes.iter().sum::<f64>() / lifetimes.len() as f64,
                min_days: lifetimes.iter().cloned().fold(f64::INFINITY, f64::min),
                max_days: lifetimes.iter().cloned().fold(0.0, f64::max),
            }
        })
        .collect();
    out.sort_by(|a, b| (a.cpu_class, &a.flavor).cmp(&(b.cpu_class, &b.flavor)));
    out
}

/// Correlation between flavor size (vCPUs) and mean lifetime across
/// flavors — the paper finds no consistent relationship ("small VMs do
/// not consistently live shorter, nor large VMs longer"). Returns the
/// Pearson correlation of (log vCPUs, log mean lifetime).
pub(crate) fn size_lifetime_correlation(run: &RunResult, min_instances: usize) -> f64 {
    let flavors = lifetime_per_flavor(run, min_instances);
    let points: Vec<(f64, f64)> = flavors
        .iter()
        .map(|f| {
            let spec = run
                .specs
                .iter()
                .find(|s| s.flavor_name == f.flavor)
                .expect("flavor has instances");
            (
                (spec.resources.cpu_cores as f64).ln(),
                f.mean_days.max(1e-3).ln(),
            )
        })
        .collect();
    pearson(&points)
}

fn pearson(points: &[(f64, f64)]) -> f64 {
    let n = points.len() as f64;
    if points.len() < 2 {
        return 0.0;
    }
    let mx = points.iter().map(|p| p.0).sum::<f64>() / n;
    let my = points.iter().map(|p| p.1).sum::<f64>() / n;
    let mut cov = 0.0;
    let mut vx = 0.0;
    let mut vy = 0.0;
    for &(x, y) in points {
        cov += (x - mx) * (y - my);
        vx += (x - mx) * (x - mx);
        vy += (y - my) * (y - my);
    }
    if vx <= 0.0 || vy <= 0.0 {
        0.0
    } else {
        cov / (vx.sqrt() * vy.sqrt())
    }
}

/// Render the Figure 15 data as a grouped text table.
pub(crate) fn render_lifetimes(flavors: &[FlavorLifetime]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<20} {:<12} {:<12} {:>7} {:>12} {:>12} {:>12}",
        "flavor", "cpu class", "ram class", "n", "mean (d)", "min (d)", "max (d)"
    );
    for f in flavors {
        let _ = writeln!(
            out,
            "{:<20} {:<12} {:<12} {:>7} {:>12.2} {:>12.3} {:>12.1}",
            f.flavor,
            f.cpu_class.label(),
            f.ram_class.label(),
            f.instances,
            f.mean_days,
            f.min_days,
            f.max_days
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sapsim_core::{SimConfig, SimDriver};

    fn run() -> RunResult {
        let mut cfg = SimConfig::smoke_test();
        cfg.seed = 61;
        SimDriver::new(cfg).unwrap().run()
    }

    #[test]
    fn min_instances_filter_applies() {
        let r = run();
        let all = lifetime_per_flavor(&r, 1);
        let filtered = lifetime_per_flavor(&r, 30);
        assert!(filtered.len() <= all.len());
        assert!(filtered.iter().all(|f| f.instances >= 30));
        assert!(!filtered.is_empty());
    }

    #[test]
    fn lifetimes_span_minutes_to_years() {
        // Fig. 15: "observed lifetimes range from few minutes to multiple
        // years". Check across all flavors (with churn, CI flavors reach
        // minutes; HANA flavors reach years).
        let r = run();
        let flavors = lifetime_per_flavor(&r, 1);
        let min = flavors.iter().map(|f| f.min_days).fold(f64::INFINITY, f64::min);
        let max = flavors.iter().map(|f| f.max_days).fold(0.0f64, f64::max);
        assert!(min < 0.05, "min lifetime = {min:.4} days");
        assert!(max > 365.0, "max lifetime = {max:.0} days");
    }

    #[test]
    fn no_strong_size_lifetime_correlation() {
        let r = run();
        let rho = size_lifetime_correlation(&r, 10);
        assert!(
            rho.abs() < 0.75,
            "paper: size does not determine lifetime (rho = {rho:.2})"
        );
    }

    #[test]
    fn within_flavor_spread_is_wide() {
        let r = run();
        let flavors = lifetime_per_flavor(&r, 30);
        let wide = flavors
            .iter()
            .filter(|f| f.max_days / f.min_days.max(1e-6) > 10.0)
            .count();
        assert!(
            wide * 2 > flavors.len(),
            "most flavors span an order of magnitude"
        );
    }

    #[test]
    fn render_contains_annotations() {
        let r = run();
        let flavors = lifetime_per_flavor(&r, 30);
        let text = render_lifetimes(&flavors);
        assert!(text.contains("flavor"));
        assert!(text.lines().count() == flavors.len() + 1);
    }

    #[test]
    fn pearson_sanity() {
        let perfect: Vec<(f64, f64)> = (0..10).map(|i| (i as f64, 2.0 * i as f64)).collect();
        assert!((pearson(&perfect) - 1.0).abs() < 1e-9);
        let anti: Vec<(f64, f64)> = (0..10).map(|i| (i as f64, -(i as f64))).collect();
        assert!((pearson(&anti) + 1.0).abs() < 1e-9);
        assert_eq!(pearson(&[]), 0.0);
        assert_eq!(pearson(&[(1.0, 1.0)]), 0.0);
    }
}
