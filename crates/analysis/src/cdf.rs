//! Figure 14: cumulative distribution of average VM utilization per
//! resource, with the paper's under/optimal/over classification.

use sapsim_core::RunResult;
use sapsim_telemetry::summary;

/// The paper's classification thresholds (Section 5.5): a VM is
/// *underutilized* below 70 % of its requested resources, *optimally
/// utilized* in 70–85 %, *overutilized* above 85 %.
pub const UNDER_THRESHOLD: f64 = 0.70;
/// Upper bound of the optimal band.
pub const OVER_THRESHOLD: f64 = 0.85;

/// Which per-VM ratio to analyze.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VmResource {
    /// `vrops_virtualmachine_cpu_usage_ratio` means.
    Cpu,
    /// `vrops_virtualmachine_memory_consumed_ratio` means.
    Memory,
}

/// One resource's Figure 14 result.
#[derive(Debug, Clone)]
pub struct UtilizationCdf {
    /// Which resource.
    pub resource: &'static str,
    /// Number of VMs with samples.
    pub vms: usize,
    /// `(mean utilization, cumulative fraction)` pairs.
    pub cdf: Vec<(f64, f64)>,
    /// Fraction of VMs below 70 %.
    pub under: f64,
    /// Fraction in 70–85 %.
    pub optimal: f64,
    /// Fraction above 85 %.
    pub over: f64,
}

/// Per-VM mean utilization ratios of one resource, for every placed VM
/// that was sampled at least once.
pub fn vm_mean_ratios(run: &RunResult, resource: VmResource) -> Vec<f64> {
    run.vm_stats
        .iter()
        .filter(|v| v.placed)
        .filter_map(|v| match resource {
            VmResource::Cpu => v.cpu_ratio.mean(),
            VmResource::Memory => v.mem_ratio.mean(),
        })
        .collect()
}

/// Build the Figure 14 CDF for one resource.
pub fn utilization_cdf(run: &RunResult, resource: VmResource) -> UtilizationCdf {
    let means = vm_mean_ratios(run, resource);
    let under = summary::fraction_below(&means, UNDER_THRESHOLD);
    let optimal = summary::fraction_in(&means, UNDER_THRESHOLD, OVER_THRESHOLD);
    let over = (1.0 - under - optimal).max(0.0);
    UtilizationCdf {
        resource: match resource {
            VmResource::Cpu => "cpu",
            VmResource::Memory => "memory",
        },
        vms: means.len(),
        cdf: summary::empirical_cdf(&means),
        under,
        optimal,
        over,
    }
}

impl UtilizationCdf {
    /// Render as CSV (`utilization,cumulative_fraction`).
    pub fn to_csv(&self) -> String {
        let mut out = String::from("utilization,cumulative_fraction\n");
        for (v, f) in &self.cdf {
            out.push_str(&format!("{v:.4},{f:.4}\n"));
        }
        out
    }

    /// One-line paper-style summary.
    pub fn summary_line(&self) -> String {
        format!(
            "{}: {} VMs — {:.1}% under (<70%), {:.1}% optimal (70-85%), {:.1}% over (>85%)",
            self.resource,
            self.vms,
            self.under * 100.0,
            self.optimal * 100.0,
            self.over * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sapsim_core::{SimConfig, SimDriver};

    fn run() -> RunResult {
        let mut cfg = SimConfig::smoke_test();
        cfg.seed = 21;
        cfg.days = 2;
        SimDriver::new(cfg).unwrap().run()
    }

    #[test]
    fn fractions_partition_to_one() {
        let r = run();
        for res in [VmResource::Cpu, VmResource::Memory] {
            let c = utilization_cdf(&r, res);
            assert!(c.vms > 300);
            assert!(
                (c.under + c.optimal + c.over - 1.0).abs() < 1e-9,
                "{:?}",
                res
            );
            // CDF is monotone and ends at 1.
            for w in c.cdf.windows(2) {
                assert!(w[0].0 <= w[1].0);
                assert!(w[0].1 <= w[1].1);
            }
            assert!((c.cdf.last().unwrap().1 - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn cpu_is_overprovisioned_memory_is_not() {
        // The paper's headline Figure 14 shape: most VMs use <70 % of
        // requested CPU, while the majority of memory sits above 85 %.
        let r = run();
        let cpu = utilization_cdf(&r, VmResource::Cpu);
        let mem = utilization_cdf(&r, VmResource::Memory);
        assert!(
            cpu.under > 0.75,
            "CPU under-utilized fraction = {:.2}",
            cpu.under
        );
        assert!(
            mem.over > 0.40,
            "memory over-85% fraction = {:.2}",
            mem.over
        );
        assert!(
            mem.under < cpu.under,
            "memory is better aligned than CPU"
        );
    }

    #[test]
    fn csv_and_summary_render() {
        let r = run();
        let c = utilization_cdf(&r, VmResource::Cpu);
        let csv = c.to_csv();
        assert!(csv.starts_with("utilization,"));
        assert_eq!(csv.lines().count(), 1 + c.cdf.len());
        assert!(c.summary_line().contains("cpu"));
    }
}
