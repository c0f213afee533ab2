//! Workload archetypes: what kind of application a VM runs.
//!
//! Paper Section 5.5 names the constituents of the SAP workload: SAP
//! S/4HANA systems (ABAP application servers + HANA in-memory databases)
//! and general-purpose applications (development environments, CI/CD,
//! Kubernetes infrastructure). Each archetype carries the statistical
//! parameters that drive its demand and lifetime models.

use std::fmt;

/// The application archetypes present in the modeled fleet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Archetype {
    /// SAP HANA in-memory database: memory-resident, long-lived, steady
    /// CPU with batch/housekeeping windows, slowly growing memory.
    HanaDb,
    /// SAP ABAP application server: diurnal business-hours CPU, high
    /// steady memory (the runtime preallocates its buffers).
    AbapAppServer,
    /// CI/CD build executor: short-lived, CPU-bursty, modest memory.
    CiCd,
    /// Developer environment: mostly idle, strongly diurnal, low memory
    /// pressure.
    DevEnvironment,
    /// Kubernetes worker node: moderate, noisy CPU; high memory commitment
    /// (the kubelet packs pods up to its allocatable limit).
    KubernetesNode,
    /// Everything else: miscellaneous services with mixed behaviour.
    GenericService,
}

sapsim_json::json_codec!(enum Archetype {
    HanaDb, AbapAppServer, CiCd, DevEnvironment, KubernetesNode, GenericService,
});

impl Archetype {
    /// All archetypes.
    pub const ALL: [Archetype; 6] = [
        Archetype::HanaDb,
        Archetype::AbapAppServer,
        Archetype::CiCd,
        Archetype::DevEnvironment,
        Archetype::KubernetesNode,
        Archetype::GenericService,
    ];

    /// The statistical parameters of this archetype.
    pub fn params(self) -> ArchetypeParams {
        match self {
            // HANA: the paper's headline workload. Memory consumed sits
            // close to the request (column store is resident); CPU is
            // moderate with low diurnality (databases serve global users
            // and run nightly jobs). Lifetimes are months to years.
            Archetype::HanaDb => ArchetypeParams {
                cpu_mean_range: (0.12, 0.38),
                cpu_diurnal_amp: 0.30,
                cpu_noise_sigma: 0.06,
                cpu_hot_prob: 0.03,
                cpu_spike_prob: 0.01,
                cpu_spike_mag: 0.35,
                weekend_dampening: 0.15,
                mem_mean_range: (0.72, 0.86),
                mem_high_prob: 0.95,
                mem_noise_sigma: 0.010,
                mem_daily_drift: 0.0008,
                lifetime_median_days: 540.0,
                lifetime_sigma: 1.1,
            },
            // ABAP app servers: business-hours diurnal CPU, preallocated
            // memory buffers → high consumed ratio.
            Archetype::AbapAppServer => ArchetypeParams {
                cpu_mean_range: (0.05, 0.25),
                cpu_diurnal_amp: 0.60,
                cpu_noise_sigma: 0.05,
                cpu_hot_prob: 0.03,
                cpu_spike_prob: 0.005,
                cpu_spike_mag: 0.30,
                weekend_dampening: 0.55,
                mem_mean_range: (0.50, 0.80),
                mem_high_prob: 0.75,
                mem_noise_sigma: 0.015,
                mem_daily_drift: 0.0002,
                lifetime_median_days: 300.0,
                lifetime_sigma: 1.3,
            },
            // CI/CD: bursty, short-lived. High spike magnitude models
            // builds saturating their vCPUs.
            // CI farms build around the clock (global teams, nightly
            // pipelines): high flat load with a modest business-hours swing
            // — the persistently dark columns of Figure 5.
            Archetype::CiCd => ArchetypeParams {
                cpu_mean_range: (0.06, 0.24),
                cpu_diurnal_amp: 0.25,
                cpu_noise_sigma: 0.12,
                cpu_hot_prob: 0.05,
                cpu_spike_prob: 0.05,
                cpu_spike_mag: 0.40,
                weekend_dampening: 0.25,
                mem_mean_range: (0.30, 0.72),
                mem_high_prob: 0.30,
                mem_noise_sigma: 0.05,
                mem_daily_drift: 0.0,
                lifetime_median_days: 0.8,
                lifetime_sigma: 1.6,
            },
            // Dev environments: mostly idle.
            Archetype::DevEnvironment => ArchetypeParams {
                cpu_mean_range: (0.02, 0.10),
                cpu_diurnal_amp: 1.20,
                cpu_noise_sigma: 0.04,
                cpu_hot_prob: 0.01,
                cpu_spike_prob: 0.02,
                cpu_spike_mag: 0.30,
                weekend_dampening: 0.80,
                mem_mean_range: (0.25, 0.70),
                mem_high_prob: 0.20,
                mem_noise_sigma: 0.04,
                mem_daily_drift: 0.0,
                lifetime_median_days: 21.0,
                lifetime_sigma: 1.5,
            },
            // Kubernetes nodes: kubelet packs pods → memory high; CPU noisy.
            Archetype::KubernetesNode => ArchetypeParams {
                cpu_mean_range: (0.05, 0.22),
                cpu_diurnal_amp: 0.60,
                cpu_noise_sigma: 0.08,
                cpu_hot_prob: 0.03,
                cpu_spike_prob: 0.03,
                cpu_spike_mag: 0.30,
                weekend_dampening: 0.35,
                mem_mean_range: (0.55, 0.80),
                mem_high_prob: 0.85,
                mem_noise_sigma: 0.02,
                mem_daily_drift: 0.0001,
                lifetime_median_days: 75.0,
                lifetime_sigma: 1.2,
            },
            // Generic services: wide mixture.
            Archetype::GenericService => ArchetypeParams {
                cpu_mean_range: (0.02, 0.16),
                cpu_diurnal_amp: 0.70,
                cpu_noise_sigma: 0.06,
                cpu_hot_prob: 0.03,
                cpu_spike_prob: 0.015,
                cpu_spike_mag: 0.30,
                weekend_dampening: 0.45,
                mem_mean_range: (0.30, 0.75),
                mem_high_prob: 0.45,
                mem_noise_sigma: 0.03,
                mem_daily_drift: 0.0,
                lifetime_median_days: 120.0,
                lifetime_sigma: 1.6,
            },
        }
    }
}

impl fmt::Display for Archetype {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Archetype::HanaDb => "hana-db",
            Archetype::AbapAppServer => "abap-app-server",
            Archetype::CiCd => "ci-cd",
            Archetype::DevEnvironment => "dev-environment",
            Archetype::KubernetesNode => "kubernetes-node",
            Archetype::GenericService => "generic-service",
        };
        f.write_str(s)
    }
}

/// Statistical parameters of one archetype.
///
/// All CPU/memory quantities are fractions of the VM's *requested*
/// resources (what `vrops_virtualmachine_*_ratio` reports in the dataset).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArchetypeParams {
    /// Per-VM mean CPU utilization is drawn uniformly from this range
    /// (the cold majority; see `cpu_hot_prob`).
    pub cpu_mean_range: (f64, f64),
    /// Probability that a VM is a *hot* outlier whose mean CPU is drawn
    /// from the high band instead — the small optimally-/over-utilized
    /// tail of Figure 14(a).
    pub cpu_hot_prob: f64,
    /// Amplitude of the business-hours sinusoid added to CPU.
    pub cpu_diurnal_amp: f64,
    /// Standard deviation of the Ornstein–Uhlenbeck CPU noise.
    pub cpu_noise_sigma: f64,
    /// Probability that a sampling interval carries a CPU spike.
    pub cpu_spike_prob: f64,
    /// Magnitude of a CPU spike (added to the base level).
    pub cpu_spike_mag: f64,
    /// How much weekday load exceeds weekend load, 0 = no difference,
    /// 1 = weekends fully idle. Applied to the diurnal component.
    pub weekend_dampening: f64,
    /// Low component of the per-VM mean memory-consumed mixture (the
    /// under-/optimally-utilized minority of Figure 14(b)).
    pub mem_mean_range: (f64, f64),
    /// Probability that a VM's memory mean comes from the high band
    /// (0.86–0.99) instead — the >85 % majority of Figure 14(b).
    pub mem_high_prob: f64,
    /// Standard deviation of memory noise.
    pub mem_noise_sigma: f64,
    /// Linear memory growth per day (HANA delta-merge growth etc.).
    pub mem_daily_drift: f64,
    /// Median lifetime in days (log-normal).
    pub lifetime_median_days: f64,
    /// Log-space sigma of the lifetime distribution.
    pub lifetime_sigma: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn params_are_sane_for_every_archetype() {
        for a in Archetype::ALL {
            let p = a.params();
            assert!(p.cpu_mean_range.0 >= 0.0 && p.cpu_mean_range.1 <= 1.0, "{a}");
            assert!(p.cpu_mean_range.0 < p.cpu_mean_range.1, "{a}");
            assert!(p.mem_mean_range.0 < p.mem_mean_range.1, "{a}");
            assert!(p.mem_mean_range.1 <= 1.0, "{a}");
            assert!(p.cpu_spike_prob >= 0.0 && p.cpu_spike_prob <= 1.0, "{a}");
            assert!((0.0..=1.0).contains(&p.cpu_hot_prob), "{a}");
            assert!((0.0..=1.0).contains(&p.mem_high_prob), "{a}");
            assert!((0.0..=1.0).contains(&p.weekend_dampening), "{a}");
            assert!((0.0..=2.0).contains(&p.cpu_diurnal_amp), "{a}");
            assert!(p.lifetime_median_days > 0.0, "{a}");
            assert!(p.lifetime_sigma > 0.0, "{a}");
        }
    }

    #[test]
    fn hana_is_memory_resident_and_long_lived() {
        let p = Archetype::HanaDb.params();
        assert!(p.mem_high_prob >= 0.9, "HANA memory stays consumed");
        assert!(p.lifetime_median_days >= 365.0, "HANA systems live years");
        assert!(p.mem_daily_drift > 0.0, "HANA memory grows slowly");
    }

    #[test]
    fn cicd_is_short_lived_and_bursty() {
        let p = Archetype::CiCd.params();
        assert!(p.lifetime_median_days < 2.0);
        assert!(p.cpu_spike_prob > Archetype::DevEnvironment.params().cpu_spike_prob);
    }

    #[test]
    fn lifetime_medians_span_minutes_to_years() {
        // Fig. 15: observed lifetimes range from few minutes to multiple
        // years. The medians must spread over orders of magnitude so the
        // log-normal tails cover that span.
        let medians: Vec<f64> = Archetype::ALL
            .iter()
            .map(|a| a.params().lifetime_median_days)
            .collect();
        let min = medians.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = medians.iter().cloned().fold(0.0, f64::max);
        assert!(min < 1.0, "shortest median under a day");
        assert!(max > 365.0, "longest median over a year");
    }

    #[test]
    fn display_names_are_unique() {
        let names: std::collections::HashSet<String> =
            Archetype::ALL.iter().map(|a| a.to_string()).collect();
        assert_eq!(names.len(), Archetype::ALL.len());
    }
}
