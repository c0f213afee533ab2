//! Weighers: score the candidates that survived filtering.
//!
//! Mirrors Nova's weigher stage (paper Figure 3): "weighers are used to
//! generate a score and rank the remaining hypervisors". As in Nova, each
//! weigher's raw scores are min-max normalized across the candidate set and
//! combined with a per-weigher multiplier; a *negative* multiplier flips a
//! spreading weigher into a packing one — exactly how the deployment in the
//! paper bin-packs HANA workloads while load-balancing everything else
//! (Section 3.2).

use crate::request::{HostView, PlacementRequest};

/// A placement weigher: higher raw score = more preferred (before the
/// multiplier is applied).
pub trait Weigher: Send + Sync {
    /// Short name for logs and stats.
    fn name(&self) -> &'static str;

    /// Raw (unnormalized) score of one candidate.
    fn weigh(&self, request: &PlacementRequest, host: &HostView) -> f64;
}

/// Prefers hosts with more free vCPUs (Nova's `CPUWeigher` with a positive
/// multiplier — the load-balancing default).
#[derive(Debug, Default, Clone, Copy)]
pub struct CpuWeigher;

impl Weigher for CpuWeigher {
    fn name(&self) -> &'static str {
        "CPUWeigher"
    }

    fn weigh(&self, _request: &PlacementRequest, host: &HostView) -> f64 {
        host.free().cpu_cores as f64
    }
}

/// Prefers hosts with more free memory (Nova's `RAMWeigher`).
#[derive(Debug, Default, Clone, Copy)]
pub struct RamWeigher;

impl Weigher for RamWeigher {
    fn name(&self) -> &'static str {
        "RAMWeigher"
    }

    fn weigh(&self, _request: &PlacementRequest, host: &HostView) -> f64 {
        host.free().memory_mib as f64
    }
}

/// Penalizes hosts with recent CPU contention — the extension the paper
/// derives from its findings (Section 7: "enhancements to the initial
/// placement capabilities ... incorporating both current and historic
/// utilization data, for example the contention metrics").
///
/// The raw score is `-contention_pct`, so after normalization the
/// least-contended candidate scores highest. Used with a positive
/// multiplier.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct ContentionWeigher;

impl Weigher for ContentionWeigher {
    fn name(&self) -> &'static str {
        "ContentionWeigher"
    }

    fn weigh(&self, _request: &PlacementRequest, host: &HostView) -> f64 {
        -host.contention_pct
    }
}

/// Prefers hosts whose resident VMs have a remaining lifetime similar to
/// the request's hint — the lifetime-aware extension (paper Section 7:
/// "placement strategies that incorporate workload lifetime can reduce
/// migrations and mitigate resource fragmentation"). Co-locating VMs that
/// will retire together lets whole nodes drain naturally.
///
/// Requests without a hint score every candidate equally.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct LifetimeAffinityWeigher;

impl Weigher for LifetimeAffinityWeigher {
    fn name(&self) -> &'static str {
        "LifetimeAffinityWeigher"
    }

    fn weigh(&self, request: &PlacementRequest, host: &HostView) -> f64 {
        match request.lifetime_hint_days {
            None => 0.0,
            Some(hint) => {
                // Compare in log space: a 2-day VM next to a 4-day VM is
                // "similar"; next to a 2-year VM it is not. Hosts with no
                // residents yet are neutral targets (distance 0) so empty
                // hosts seed new lifetime cohorts.
                let resident = host.mean_remaining_lifetime_days;
                if resident <= 0.0 {
                    return 0.0;
                }
                let d = (hint.max(0.01).ln() - resident.max(0.01).ln()).abs();
                -d
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::test_support::host;
    use sapsim_topology::{BbPurpose, Resources};

    fn req() -> PlacementRequest {
        PlacementRequest::new(1, Resources::new(2, 2048, 10), BbPurpose::GeneralPurpose)
    }

    #[test]
    fn cpu_and_ram_weighers_score_free_capacity() {
        let roomy = host(0, Resources::new(100, 10_000, 100), Resources::ZERO);
        let tight = host(
            1,
            Resources::new(100, 10_000, 100),
            Resources::new(90, 9_000, 90),
        );
        assert!(CpuWeigher.weigh(&req(), &roomy) > CpuWeigher.weigh(&req(), &tight));
        assert!(RamWeigher.weigh(&req(), &roomy) > RamWeigher.weigh(&req(), &tight));
    }

    #[test]
    fn contention_weigher_prefers_quiet_hosts() {
        let mut quiet = host(0, Resources::new(10, 10, 10), Resources::ZERO);
        let mut noisy = quiet;
        quiet.contention_pct = 1.0;
        noisy.contention_pct = 35.0;
        assert!(ContentionWeigher.weigh(&req(), &quiet) > ContentionWeigher.weigh(&req(), &noisy));
    }

    #[test]
    fn lifetime_weigher_without_hint_is_neutral() {
        let mut a = host(0, Resources::new(10, 10, 10), Resources::ZERO);
        a.mean_remaining_lifetime_days = 100.0;
        let mut b = a;
        b.mean_remaining_lifetime_days = 1.0;
        assert_eq!(
            LifetimeAffinityWeigher.weigh(&req(), &a),
            LifetimeAffinityWeigher.weigh(&req(), &b)
        );
    }

    #[test]
    fn lifetime_weigher_prefers_similar_cohorts() {
        let r = PlacementRequest {
            lifetime_hint_days: Some(2.0),
            ..req()
        };
        let mut similar = host(0, Resources::new(10, 10, 10), Resources::ZERO);
        similar.mean_remaining_lifetime_days = 3.0;
        let mut dissimilar = similar;
        dissimilar.mean_remaining_lifetime_days = 700.0;
        assert!(
            LifetimeAffinityWeigher.weigh(&r, &similar)
                > LifetimeAffinityWeigher.weigh(&r, &dissimilar)
        );
    }

    #[test]
    fn lifetime_weigher_is_symmetric_in_log_space() {
        let r = PlacementRequest {
            lifetime_hint_days: Some(10.0),
            ..req()
        };
        let mut shorter = host(0, Resources::new(10, 10, 10), Resources::ZERO);
        shorter.mean_remaining_lifetime_days = 5.0;
        let mut longer = shorter;
        longer.mean_remaining_lifetime_days = 20.0;
        let a = LifetimeAffinityWeigher.weigh(&r, &shorter);
        let b = LifetimeAffinityWeigher.weigh(&r, &longer);
        assert!((a - b).abs() < 1e-12, "2x in either direction is equal");
    }

    #[test]
    fn empty_hosts_are_neutral_lifetime_targets() {
        let r = PlacementRequest {
            lifetime_hint_days: Some(2.0),
            ..req()
        };
        let empty = host(0, Resources::new(10, 10, 10), Resources::ZERO);
        assert_eq!(LifetimeAffinityWeigher.weigh(&r, &empty), 0.0);
    }
}
