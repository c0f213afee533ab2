//! Integration: the incremental host-view cache against the from-scratch
//! oracle.
//!
//! A seeded randomized sweep drives every mutator the cache hooks —
//! place, remove, migrate, in-place resize, contention updates, node
//! state flips, block reservation toggles — over a multi-AZ,
//! multi-purpose topology, and repeatedly asserts that the cached views
//! equal a scratch rebuild field for field at both granularities, and
//! that the candidate index's bucket membership and disabled counts stay
//! exact. A second test pins the indexed top-k rank against the naive
//! full rank for a spread of requests.

use sapsim_core::{Cloud, PlacementGranularity};
use sapsim_scheduler::{PlacementPolicy, PlacementRequest, PolicyKind, RankOptions, Ranking};
use sapsim_sim::{SimDuration, SimRng, SimTime};
use sapsim_topology::{
    AzId, BbId, BbPurpose, HardwareProfile, NodeId, NodeState, OvercommitPolicy, Resources,
    Topology,
};
use sapsim_workload::{Archetype, UsageModel, VmId, VmSpec, WorkloadClass};

/// Two AZs, four building blocks across three purposes and three hardware
/// profiles — enough structure that every purpose×AZ bucket shape occurs.
fn build_world() -> Cloud {
    let mut topo = Topology::new();
    let region = topo.add_region();
    let az_a = topo.add_az(region, "az-a");
    let az_b = topo.add_az(region, "az-b");
    let dc_a = topo.add_dc(az_a, "dc-a");
    let dc_b = topo.add_dc(az_b, "dc-b");
    topo.add_bb(
        dc_a,
        "gp-a",
        BbPurpose::GeneralPurpose,
        HardwareProfile::general_purpose(),
        OvercommitPolicy::general_purpose(),
        4,
    );
    topo.add_bb(
        dc_a,
        "hana-a",
        BbPurpose::Hana,
        HardwareProfile::hana_large(),
        OvercommitPolicy::NONE,
        2,
    );
    topo.add_bb(
        dc_b,
        "gp-b",
        BbPurpose::GeneralPurpose,
        HardwareProfile::general_purpose_dense(),
        OvercommitPolicy::general_purpose(),
        3,
    );
    topo.add_bb(
        dc_b,
        "ci-b",
        BbPurpose::CiFarm,
        HardwareProfile::general_purpose(),
        OvercommitPolicy::general_purpose(),
        2,
    );
    Cloud::new(topo)
}

fn spec(id: u64, arrival: SimTime, rng: &mut SimRng) -> VmSpec {
    let cpu = rng.range(1, 8) as u32;
    let mem_gib = rng.range(4, 64);
    let lifetime_days = rng.range(1, 300);
    VmSpec {
        id: VmId(id),
        flavor_index: 0,
        flavor_name: "sweep".into(),
        resources: Resources::with_memory_gib(cpu, mem_gib, 20),
        archetype: Archetype::GenericService,
        class: WorkloadClass::GeneralPurpose,
        usage: UsageModel::draw(Archetype::GenericService, rng),
        arrival,
        age_at_arrival: SimDuration::ZERO,
        lifetime: SimDuration::from_days(lifetime_days),
        resize: None,
    }
}

/// The cache contract: cached views equal a scratch rebuild field for
/// field, and the index partitions every host into its static
/// purpose×AZ bucket with an exact disabled count.
fn assert_coherent(cloud: &mut Cloud, now: SimTime, label: &str) {
    for granularity in [
        PlacementGranularity::Node,
        PlacementGranularity::BuildingBlock,
    ] {
        let naive = cloud.host_views(granularity, now);
        let (cached, index) = cloud.host_views_cached(granularity, now);
        assert_eq!(
            cached,
            &naive[..],
            "{label}: {granularity:?} cached views diverge from the oracle"
        );
        assert_eq!(index.len(), naive.len(), "{label}: {granularity:?}");
        let mut covered = 0usize;
        for bucket in index.buckets() {
            let mut disabled = 0u32;
            for &h in &bucket.hosts {
                let v = &naive[h as usize];
                assert_eq!(v.purpose, bucket.purpose, "{label}: {granularity:?}");
                assert_eq!(v.az, bucket.az, "{label}: {granularity:?}");
                if !v.enabled {
                    disabled += 1;
                }
                covered += 1;
            }
            assert_eq!(
                bucket.disabled, disabled,
                "{label}: {granularity:?} bucket ({:?}, {:?}) disabled count stale",
                bucket.purpose, bucket.az
            );
        }
        assert_eq!(
            covered,
            naive.len(),
            "{label}: {granularity:?} buckets must partition every host"
        );
    }
}

#[test]
fn randomized_mutation_sweep_keeps_cache_coherent() {
    for seed in 0..4u64 {
        let mut cloud = build_world();
        let mut rng = SimRng::seed_from(seed);
        let node_ids: Vec<NodeId> = cloud.topology().nodes().iter().map(|n| n.id).collect();
        let bb_ids: Vec<BbId> = cloud.topology().bbs().iter().map(|b| b.id).collect();
        cloud.reserve_vm_slots(1024);
        let mut now = SimTime::ZERO;
        let mut next_id = 0u64;
        let mut placed: Vec<VmId> = Vec::new();
        for step in 0..400 {
            match rng.range(0, 10) {
                0..=2 => {
                    // Place onto a random block, if any of its nodes fits.
                    let s = spec(next_id, now, &mut rng);
                    let bb = bb_ids[rng.range(0, bb_ids.len() as u64) as usize];
                    if let Some(node) = cloud.choose_node_within_bb(bb, &s.resources) {
                        cloud.place(next_id as usize, &s, node, SimRng::seed_from(next_id));
                        placed.push(s.id);
                        next_id += 1;
                    }
                }
                3 => {
                    if !placed.is_empty() {
                        let i = rng.range(0, placed.len() as u64) as usize;
                        let id = placed.swap_remove(i);
                        assert!(cloud.remove(id).is_some());
                    }
                }
                4 => {
                    // Migrate a random VM to any node that fits it.
                    if !placed.is_empty() {
                        let id = placed[rng.range(0, placed.len() as u64) as usize];
                        let resources = cloud.vm(id).expect("placed").resources;
                        let bb = bb_ids[rng.range(0, bb_ids.len() as u64) as usize];
                        if let Some(node) = cloud.choose_node_within_bb(bb, &resources) {
                            cloud.migrate(id, node);
                        }
                    }
                }
                5 => {
                    // In-place resize (may fail for lack of headroom).
                    if !placed.is_empty() {
                        let id = placed[rng.range(0, placed.len() as u64) as usize];
                        let old = cloud.vm(id).expect("placed").resources;
                        let new = if rng.bool(0.5) {
                            Resources {
                                cpu_cores: old.cpu_cores * 2,
                                ..old
                            }
                        } else {
                            Resources {
                                cpu_cores: (old.cpu_cores / 2).max(1),
                                ..old
                            }
                        };
                        cloud.resize_in_place(id, new);
                    }
                }
                6 => {
                    let node = node_ids[rng.range(0, node_ids.len() as u64) as usize];
                    cloud.set_node_contention(node, rng.range_f64(0.0, 50.0));
                }
                7 => {
                    // Flip node state. VMs may be stranded on an inactive
                    // node — the cache must track the views regardless;
                    // only the driver's evacuation logic cares.
                    let node = node_ids[rng.range(0, node_ids.len() as u64) as usize];
                    let state = match rng.range(0, 3) {
                        0 => NodeState::Active,
                        1 => NodeState::Failed,
                        _ => NodeState::Maintenance,
                    };
                    cloud.set_node_state(node, state);
                }
                8 => {
                    let bb = bb_ids[rng.range(0, bb_ids.len() as u64) as usize];
                    cloud.set_bb_reserved(bb, rng.bool(0.5));
                }
                _ => {
                    now += SimDuration::from_millis(rng.range(1, 3_600_000));
                }
            }
            if step % 7 == 0 {
                assert_coherent(&mut cloud, now, &format!("seed {seed} step {step}"));
            }
        }
        now += SimDuration::from_days(1);
        assert_coherent(&mut cloud, now, &format!("seed {seed} final"));
    }
}

#[test]
fn indexed_top_k_rank_matches_naive_full_rank() {
    let mut cloud = build_world();
    let mut rng = SimRng::seed_from(99);
    cloud.reserve_vm_slots(256);
    // Populate deterministically, then disable some capacity so pruned
    // buckets, disabled hosts, and full buckets all occur.
    let bb_ids: Vec<BbId> = cloud.topology().bbs().iter().map(|b| b.id).collect();
    for id in 0..120u64 {
        let s = spec(id, SimTime::ZERO, &mut rng);
        let bb = bb_ids[(id % bb_ids.len() as u64) as usize];
        if let Some(node) = cloud.choose_node_within_bb(bb, &s.resources) {
            cloud.place(id as usize, &s, node, SimRng::seed_from(id));
        }
    }
    cloud.set_node_state(cloud.topology().bbs()[0].nodes[0], NodeState::Failed);
    cloud.set_bb_reserved(bb_ids[3], true);
    let now = SimTime::from_days(1);

    for granularity in [
        PlacementGranularity::Node,
        PlacementGranularity::BuildingBlock,
    ] {
        let mut naive_policy = PlacementPolicy::new(PolicyKind::PaperDefault);
        let mut cached_policy = PlacementPolicy::new(PolicyKind::PaperDefault);
        for case in 0..24u64 {
            let purpose = match rng.range(0, 3) {
                0 => BbPurpose::GeneralPurpose,
                1 => BbPurpose::Hana,
                _ => BbPurpose::CiFarm,
            };
            let mut request =
                PlacementRequest::new(1000 + case, Resources::with_memory_gib(2, 16, 10), purpose);
            if rng.bool(0.5) {
                request = request.in_az(AzId::from_raw(rng.range(0, 2) as u32));
            }
            let naive_views = cloud.host_views(granularity, now);
            let naive = naive_policy.rank(&request, &naive_views);
            let (views, index) = cloud.host_views_cached(granularity, now);
            let mut out = Ranking::default();
            let cached = cached_policy.rank_into(
                &request,
                views,
                RankOptions {
                    index: Some(index),
                    top_k: 5,
                    count_stats: true,
                },
                &mut out,
            );
            let label = format!(
                "{granularity:?} case {case} ({purpose:?}, az {:?})",
                request.az
            );
            match (naive, cached) {
                (Ok(full), Ok(())) => {
                    assert_eq!(out.candidates, full.candidates, "{label}");
                    assert_eq!(out.rejections, full.rejections, "{label}");
                    let k = out.sorted_len;
                    assert_eq!(
                        &out.order[..k],
                        &full.order[..k],
                        "{label}: sorted head diverges"
                    );
                    assert_eq!(&out.scores[..k], &full.scores[..k], "{label}");
                    // Same survivor set overall, independent of tail order.
                    let mut a = out.order.clone();
                    let mut b = full.order.clone();
                    a.sort_unstable();
                    b.sort_unstable();
                    assert_eq!(a, b, "{label}: survivor sets diverge");
                }
                (Err(a), Err(b)) => {
                    assert_eq!(a.rejections, b.rejections, "{label}");
                    assert_eq!(a.candidates, b.candidates, "{label}");
                }
                (naive, cached) => panic!(
                    "{label}: outcome diverges (naive ok: {}, cached ok: {})",
                    naive.is_ok(),
                    cached.is_ok()
                ),
            }
        }
        // Both pipelines saw exactly the same request stream.
        assert_eq!(
            naive_policy.stats().0.requests + naive_policy.stats().1.requests,
            cached_policy.stats().0.requests + cached_policy.stats().1.requests,
        );
    }
}
