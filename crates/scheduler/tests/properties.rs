//! Randomized properties of the scheduling core: whatever the candidate
//! set looks like, the pipeline's outputs obey its contracts.

use sapsim_scheduler::{
    default_filters, pack_all, CpuWeigher, FilterScheduler, HostLoad, HostView, PackingStrategy,
    PlacementRequest, RamWeigher, Rebalancer, VmLoad, Weigher,
};
use sapsim_sim::{for_each_seed, SimRng};
use sapsim_topology::{AzId, BbId, BbPurpose, NodeId, ResourceKind, Resources};

/// `len` in `[1, max)` hosts of one capacity with arbitrary allocations.
fn hosts(rng: &mut SimRng, max: u64) -> Vec<HostView> {
    (0..rng.range(1, max) as u32)
        .map(|i| HostView {
            bb: BbId::from_raw(i),
            node: None,
            purpose: BbPurpose::GeneralPurpose,
            az: AzId::from_raw(i % 3),
            capacity: Resources::new(512, 1_048_576, 10_000),
            allocated: Resources::new(
                rng.range(0, 512) as u32,
                rng.range(0, 1_048_576),
                rng.range(0, 10_000),
            ),
            enabled: rng.bool(0.5),
            contention_pct: rng.range_f64(0.0, 50.0),
            mean_remaining_lifetime_days: 0.0,
        })
        .collect()
}

fn spread() -> FilterScheduler {
    FilterScheduler::new(
        default_filters(),
        vec![
            (1.0, Box::new(CpuWeigher) as Box<dyn Weigher>),
            (1.0, Box::new(RamWeigher)),
        ],
    )
}

/// Every ranked candidate fits the request and is enabled; the ranking
/// is a permutation of exactly the feasible set.
#[test]
fn ranking_returns_exactly_the_feasible_set() {
    for_each_seed(256, |rng| {
        let hosts = hosts(rng, 40);
        let request = PlacementRequest::new(
            1,
            Resources::new(rng.range(1, 256) as u32, rng.range(1, 524_288), 100),
            BbPurpose::GeneralPurpose,
        );
        let mut scheduler = spread();
        let feasible: Vec<usize> = hosts
            .iter()
            .enumerate()
            .filter(|(_, h)| h.enabled && h.fits(&request.resources))
            .map(|(i, _)| i)
            .collect();
        match scheduler.rank(&request, &hosts) {
            Ok(ranked) => {
                let mut sorted = ranked.order.clone();
                sorted.sort_unstable();
                assert_eq!(sorted, feasible);
                assert_eq!(ranked.candidates as usize, hosts.len());
                let eliminated: u32 = ranked.rejections.iter().map(|&(_, n)| n).sum();
                assert_eq!(
                    eliminated as usize + ranked.order.len(),
                    hosts.len(),
                    "every candidate is either ranked or accounted for"
                );
            }
            Err(_) => assert!(feasible.is_empty()),
        }
    });
}

/// Ranking is deterministic.
#[test]
fn ranking_is_deterministic() {
    for_each_seed(256, |rng| {
        let hosts = hosts(rng, 30);
        let request =
            PlacementRequest::new(1, Resources::new(8, 8192, 50), BbPurpose::GeneralPurpose);
        let r1 = spread().rank(&request, &hosts);
        let r2 = spread().rank(&request, &hosts);
        assert_eq!(r1.ok(), r2.ok());
    });
}

/// pack_all never overfills a bin, never loses an item, and the
/// decreasing variant never opens more bins than the plain one.
#[test]
fn packing_invariants() {
    for_each_seed(256, |rng| {
        let sizes: Vec<u64> = (0..rng.range(1, 120)).map(|_| rng.range(1, 512)).collect();
        let items: Vec<Resources> = sizes
            .iter()
            .map(|&g| Resources::with_memory_gib(1, g, 1))
            .collect();
        let capacity = Resources::with_memory_gib(256, 512, 10_000);
        let ff = pack_all(
            &items,
            capacity,
            PackingStrategy::FirstFit,
            ResourceKind::Memory,
        );
        let ffd = pack_all(
            &items,
            capacity,
            PackingStrategy::FirstFitDecreasing,
            ResourceKind::Memory,
        );
        for out in [&ff, &ffd] {
            for bin in &out.bins {
                assert!(capacity.fits(bin));
            }
            let placed = out.assignments.iter().flatten().count();
            assert_eq!(placed + out.unplaced, items.len());
            assert_eq!(out.unplaced, 0, "all items fit an empty bin here");
        }
        assert!(ffd.bin_count() <= ff.bin_count());
        // Lower bound: total size / capacity.
        let total: u64 = sizes.iter().sum();
        let lower = total.div_ceil(512) as usize;
        assert!(ffd.bin_count() >= lower);
        assert!(ff.bin_count() <= 2 * lower + 1, "FF is 2-approximate-ish");
    });
}

/// The DRS planner never increases the utilization gap, never moves a
/// pinned VM, and never exceeds its migration budget.
#[test]
fn drs_plan_invariants() {
    for_each_seed(256, |rng| {
        let loads: Vec<HostLoad<NodeId>> = (0..rng.range(2, 12))
            .map(|i| HostLoad {
                id: NodeId::from_raw(i as u32),
                cpu_capacity: 48.0,
                mem_capacity_mib: 768.0 * 1024.0,
                vms: (0..rng.range(0, 20))
                    .map(|j| VmLoad {
                        vm_uid: i * 1000 + j,
                        cpu_demand: rng.range_f64(0.0, 4.0),
                        mem_used_mib: 1024.0,
                        movable: rng.bool(0.5),
                    })
                    .collect(),
            })
            .collect();
        let planner = Rebalancer::default();
        let report = planner.plan(&loads);
        assert!(report.gap_after <= report.gap_before + 1e-9);
        assert!(report.migrations.len() <= planner.config().max_migrations);
        for m in &report.migrations {
            let host = m.from.index();
            let vm = loads[host]
                .vms
                .iter()
                .find(|v| v.vm_uid == m.vm_uid)
                .expect("migrated VM came from its claimed source");
            assert!(vm.movable, "pinned VMs never move");
            assert!(m.from != m.to);
        }
    });
}
