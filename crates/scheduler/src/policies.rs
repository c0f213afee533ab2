//! Preset placement policies.
//!
//! The deployment in the paper runs a *mixed* strategy (Section 3.2): "The
//! default strategy aims to load-balance general-purpose workloads, whereas
//! SAP S/4HANA workloads are explicitly bin-packed to maximize memory
//! utilization." [`PolicyKind::PaperDefault`] reproduces that; the other
//! kinds are the baselines and extensions the evaluation compares.

use crate::filter::{
    AvailabilityZoneFilter, ComputeFilter, ComputeStatusFilter, DiskFilter, Filter, PurposeFilter,
    RamFilter,
};
use crate::pipeline::{FilterScheduler, PipelineStats, RankOptions, Ranking, ScheduleError};
use crate::request::{HostView, PlacementRequest};
use crate::weigher::{ContentionWeigher, CpuWeigher, LifetimeAffinityWeigher, RamWeigher, Weigher};
use sapsim_topology::BbPurpose;

/// Which placement strategy to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PolicyKind {
    /// Load-balance everything (CPU + RAM spreading weighers) — vanilla
    /// Nova defaults.
    Spread,
    /// Bin-pack everything on memory (negative RAM multiplier).
    PackMemory,
    /// The paper's production configuration: spread general-purpose
    /// workloads, bin-pack HANA on memory.
    PaperDefault,
    /// `PaperDefault` plus a contention-penalty weigher on the
    /// general-purpose pipeline (Section 7 extension).
    ContentionAware,
    /// `PaperDefault` plus lifetime-affinity weighing on the
    /// general-purpose pipeline (Section 7 extension).
    LifetimeAware,
}

sapsim_json::json_codec!(enum PolicyKind {
    Spread, PackMemory, PaperDefault, ContentionAware, LifetimeAware,
});

impl PolicyKind {
    /// All policy kinds, in ablation order.
    pub const ALL: [PolicyKind; 5] = [
        PolicyKind::Spread,
        PolicyKind::PackMemory,
        PolicyKind::PaperDefault,
        PolicyKind::ContentionAware,
        PolicyKind::LifetimeAware,
    ];

    /// Stable name for reports.
    pub const fn name(self) -> &'static str {
        match self {
            PolicyKind::Spread => "spread",
            PolicyKind::PackMemory => "pack-memory",
            PolicyKind::PaperDefault => "paper-default",
            PolicyKind::ContentionAware => "contention-aware",
            PolicyKind::LifetimeAware => "lifetime-aware",
        }
    }

    /// Inverse of [`PolicyKind::name`]: resolve a stable kebab-case name
    /// (as used by the CLI `--policy` flag and sweep manifests) back to
    /// its kind. Returns `None` for unknown names.
    pub fn from_name(name: &str) -> Option<PolicyKind> {
        PolicyKind::ALL.into_iter().find(|k| k.name() == name)
    }
}

impl std::fmt::Display for PolicyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for PolicyKind {
    type Err = String;

    /// Typed spelling of [`PolicyKind::from_name`]; the error message is
    /// the exact string the CLI prints for `--policy`, so both paths stay
    /// pinned by one contract.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        PolicyKind::from_name(s).ok_or_else(|| format!("unknown policy `{s}`"))
    }
}

fn standard_filters() -> Vec<Box<dyn Filter>> {
    vec![
        Box::new(ComputeStatusFilter),
        Box::new(AvailabilityZoneFilter),
        Box::new(PurposeFilter),
        Box::new(ComputeFilter),
        Box::new(RamFilter),
        Box::new(DiskFilter),
    ]
}

fn spread_weighers() -> Vec<(f64, Box<dyn Weigher>)> {
    vec![
        (1.0, Box::new(CpuWeigher) as Box<dyn Weigher>),
        (1.0, Box::new(RamWeigher)),
    ]
}

fn pack_memory_weighers() -> Vec<(f64, Box<dyn Weigher>)> {
    vec![(-2.0, Box::new(RamWeigher) as Box<dyn Weigher>)]
}

/// A ready-to-run placement policy: one pipeline for general-purpose
/// requests and one for HANA requests, dispatched on the request's
/// building-block purpose.
#[derive(Debug)]
pub struct PlacementPolicy {
    general: FilterScheduler,
    hana: FilterScheduler,
}

impl PlacementPolicy {
    /// Build the pipelines for `kind`.
    pub fn new(kind: PolicyKind) -> Self {
        let general = match kind {
            PolicyKind::Spread => FilterScheduler::new(standard_filters(), spread_weighers()),
            PolicyKind::PackMemory => {
                FilterScheduler::new(standard_filters(), pack_memory_weighers())
            }
            PolicyKind::PaperDefault => FilterScheduler::new(standard_filters(), spread_weighers()),
            PolicyKind::ContentionAware => {
                let mut w = spread_weighers();
                // The contention signal outranks raw free capacity: a host
                // that looks free but is contended is exactly the trap the
                // paper observed.
                w.push((2.0, Box::new(ContentionWeigher)));
                FilterScheduler::new(standard_filters(), w)
            }
            PolicyKind::LifetimeAware => {
                let mut w = spread_weighers();
                w.push((1.5, Box::new(LifetimeAffinityWeigher)));
                FilterScheduler::new(standard_filters(), w)
            }
        };
        // HANA: always memory-bin-packed except under the pure Spread
        // baseline, which deliberately mis-handles it to expose the cost.
        let hana = match kind {
            PolicyKind::Spread => FilterScheduler::new(standard_filters(), spread_weighers()),
            _ => FilterScheduler::new(standard_filters(), pack_memory_weighers()),
        };
        PlacementPolicy { general, hana }
    }

    /// Rank candidates for one request (best first), with the full
    /// per-filter and per-weigher audit detail. See
    /// [`FilterScheduler::rank`].
    pub fn rank(
        &mut self,
        request: &PlacementRequest,
        hosts: &[HostView],
    ) -> Result<Ranking, ScheduleError> {
        match request.purpose {
            BbPurpose::Hana => self.hana.rank(request, hosts),
            _ => self.general.rank(request, hosts),
        }
    }

    /// The hot-path form of [`rank`](PlacementPolicy::rank): writes into a
    /// reusable [`Ranking`] and accepts [`RankOptions`] (candidate index,
    /// top-k head, stats gating). Dispatches on the request purpose
    /// exactly like `rank`. See `FilterScheduler::rank_into`.
    pub fn rank_into(
        &mut self,
        request: &PlacementRequest,
        hosts: &[HostView],
        opts: RankOptions<'_>,
        out: &mut Ranking,
    ) -> Result<(), ScheduleError> {
        match request.purpose {
            BbPurpose::Hana => self.hana.rank_into(request, hosts, opts, out),
            _ => self.general.rank_into(request, hosts, opts, out),
        }
    }

    /// Combined pipeline statistics `(general, hana)`.
    pub fn stats(&self) -> (&PipelineStats, &PipelineStats) {
        (self.general.stats(), self.hana.stats())
    }

    /// Candidate-index prune counters `(general, hana)` — see
    /// `IndexStats`.
    pub fn index_stats(&self) -> (&crate::pipeline::IndexStats, &crate::pipeline::IndexStats) {
        (self.general.index_stats(), self.hana.index_stats())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::test_support::host;
    use sapsim_topology::Resources;

    fn hosts_gradient() -> Vec<HostView> {
        // Host 0 fullest … host 3 emptiest.
        (0..4u32)
            .map(|i| {
                host(
                    i,
                    Resources::with_memory_gib(100, 1000, 1000),
                    Resources::with_memory_gib(80 - i * 20, 800 - i as u64 * 200, 0),
                )
            })
            .collect()
    }

    fn hana_hosts_gradient() -> Vec<HostView> {
        hosts_gradient()
            .into_iter()
            .map(|mut h| {
                h.purpose = BbPurpose::Hana;
                h
            })
            .collect()
    }

    #[test]
    fn paper_default_spreads_gp_and_packs_hana() {
        let mut p = PlacementPolicy::new(PolicyKind::PaperDefault);
        let gp = PlacementRequest::new(
            1,
            Resources::with_memory_gib(2, 8, 1),
            BbPurpose::GeneralPurpose,
        );
        let best_gp = p.rank(&gp, &hosts_gradient()).unwrap().order[0];
        assert_eq!(best_gp, 3, "GP goes to the emptiest host");

        let hana = PlacementRequest::new(2, Resources::with_memory_gib(2, 8, 1), BbPurpose::Hana);
        let best_hana = p.rank(&hana, &hana_hosts_gradient()).unwrap().order[0];
        assert_eq!(best_hana, 0, "HANA goes to the fullest fitting host");
    }

    #[test]
    fn spread_policy_spreads_hana_too() {
        let mut p = PlacementPolicy::new(PolicyKind::Spread);
        let hana = PlacementRequest::new(2, Resources::with_memory_gib(2, 8, 1), BbPurpose::Hana);
        let best = p.rank(&hana, &hana_hosts_gradient()).unwrap().order[0];
        assert_eq!(best, 3);
    }

    #[test]
    fn pack_memory_packs_gp_too() {
        let mut p = PlacementPolicy::new(PolicyKind::PackMemory);
        let gp = PlacementRequest::new(
            1,
            Resources::with_memory_gib(2, 8, 1),
            BbPurpose::GeneralPurpose,
        );
        let best = p.rank(&gp, &hosts_gradient()).unwrap().order[0];
        assert_eq!(best, 0);
    }

    #[test]
    fn contention_aware_avoids_contended_free_host() {
        let mut hosts = hosts_gradient();
        // Make the emptiest host heavily contended.
        hosts[3].contention_pct = 45.0;
        let mut p = PlacementPolicy::new(PolicyKind::ContentionAware);
        let gp = PlacementRequest::new(
            1,
            Resources::with_memory_gib(2, 8, 1),
            BbPurpose::GeneralPurpose,
        );
        let best = p.rank(&gp, &hosts).unwrap().order[0];
        assert_ne!(best, 3, "the contended host loses despite being emptiest");
        assert_eq!(best, 2, "the next-emptiest quiet host wins");
    }

    #[test]
    fn lifetime_aware_colocates_similar_lifetimes() {
        let mut hosts = hosts_gradient();
        // Two equally-free hosts; one hosts a short-lived cohort.
        hosts[2].allocated = hosts[3].allocated;
        hosts[2].mean_remaining_lifetime_days = 1.5;
        hosts[3].mean_remaining_lifetime_days = 600.0;
        let mut p = PlacementPolicy::new(PolicyKind::LifetimeAware);
        let gp = PlacementRequest {
            lifetime_hint_days: Some(1.0),
            ..PlacementRequest::new(
                1,
                Resources::with_memory_gib(2, 8, 1),
                BbPurpose::GeneralPurpose,
            )
        };
        let best = p.rank(&gp, &hosts).unwrap().order[0];
        assert_eq!(best, 2, "short-lived VM joins the short-lived cohort");
    }

    #[test]
    fn policy_names_are_stable() {
        let names: Vec<_> = PolicyKind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(
            names,
            vec![
                "spread",
                "pack-memory",
                "paper-default",
                "contention-aware",
                "lifetime-aware"
            ]
        );
    }

    #[test]
    fn from_name_inverts_name() {
        for kind in PolicyKind::ALL {
            assert_eq!(PolicyKind::from_name(kind.name()), Some(kind));
        }
        assert_eq!(PolicyKind::from_name("Spread"), None);
        assert_eq!(PolicyKind::from_name(""), None);
        for kind in PolicyKind::ALL {
            assert_eq!(kind.to_string().parse::<PolicyKind>(), Ok(kind));
        }
        assert_eq!(
            "nope".parse::<PolicyKind>(),
            Err("unknown policy `nope`".to_string())
        );
    }

    #[test]
    fn stats_split_by_pipeline() {
        let mut p = PlacementPolicy::new(PolicyKind::PaperDefault);
        let gp = PlacementRequest::new(
            1,
            Resources::with_memory_gib(2, 8, 1),
            BbPurpose::GeneralPurpose,
        );
        let hana = PlacementRequest::new(2, Resources::with_memory_gib(2, 8, 1), BbPurpose::Hana);
        p.rank(&gp, &hosts_gradient()).unwrap();
        p.rank(&hana, &hana_hosts_gradient()).unwrap();
        p.rank(&hana, &hana_hosts_gradient()).unwrap();
        let (g, h) = p.stats();
        assert_eq!(g.requests, 1);
        assert_eq!(h.requests, 2);
    }
}
