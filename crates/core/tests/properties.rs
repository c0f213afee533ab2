//! Randomized property of the cloud's allocation accounting: arbitrary
//! sequences of place / remove / migrate / resize operations never break
//! the invariants that `verify_accounting` checks.

use sapsim_core::{Cloud, PlacementGranularity};
use sapsim_sim::{for_each_seed, SimDuration, SimRng, SimTime};
use sapsim_topology::{BbPurpose, HardwareProfile, NodeId, OvercommitPolicy, Resources, Topology};
use sapsim_workload::{Archetype, UsageModel, VmId, VmSpec, WorkloadClass};

fn fixture() -> Topology {
    let mut topo = Topology::new();
    let r = topo.add_region("r");
    let az = topo.add_az(r, "az");
    let dc = topo.add_dc(az, "A");
    topo.add_bb(
        dc,
        "a-bb0",
        BbPurpose::GeneralPurpose,
        HardwareProfile::general_purpose(),
        OvercommitPolicy::general_purpose(),
        4,
    );
    topo.add_bb(
        dc,
        "a-bb1",
        BbPurpose::GeneralPurpose,
        HardwareProfile::general_purpose_dense(),
        OvercommitPolicy::general_purpose(),
        3,
    );
    topo
}

fn spec(id: u64, cpu: u32, mem_gib: u64) -> VmSpec {
    let mut rng = SimRng::seed_from(id);
    VmSpec {
        id: VmId(id),
        flavor_index: 0,
        flavor_name: "p".into(),
        resources: Resources::with_memory_gib(cpu, mem_gib, 10),
        archetype: Archetype::GenericService,
        class: WorkloadClass::GeneralPurpose,
        usage: UsageModel::draw(Archetype::GenericService, &mut rng),
        arrival: SimTime::ZERO,
        age_at_arrival: SimDuration::ZERO,
        lifetime: SimDuration::from_days(30),
        resize: None,
    }
}

/// Accounting invariants survive any operation sequence, including
/// failed operations (which must leave state unchanged).
#[test]
fn accounting_survives_arbitrary_operations() {
    for_each_seed(64, |rng| {
        let topo = fixture();
        let node_count = topo.nodes().len() as u64;
        let mut cloud = Cloud::new(topo);
        let mut specs: Vec<VmSpec> = Vec::new();
        let mut live: Vec<VmId> = Vec::new();
        let mut next_id = 0u64;

        for _ in 0..rng.range(1, 80) {
            // Place, or pick a live VM to remove, migrate or resize.
            let op = rng.range(0, 4);
            if op == 0 {
                let s = spec(next_id, rng.range(1, 16) as u32, rng.range(1, 128));
                // Find a fitting node via the same helper the driver
                // uses; skip if the fleet is full.
                let views = cloud.host_views(PlacementGranularity::Node, SimTime::ZERO);
                if let Some(v) = views.iter().find(|v| v.fits(&s.resources)) {
                    let node = v.node.expect("node view");
                    cloud.place(specs.len(), &s, node, SimRng::seed_from(next_id));
                    live.push(s.id);
                    specs.push(s);
                    next_id += 1;
                }
            } else if !live.is_empty() {
                let index = rng.range(0, live.len() as u64) as usize;
                match op {
                    1 => assert!(cloud.remove(live.remove(index)).is_some()),
                    // May fail (full target / same node) — fine either way.
                    2 => {
                        let to = NodeId::from_raw(rng.range(0, node_count) as u32);
                        let _ = cloud.migrate(live[index], to);
                    }
                    _ => {
                        let new = Resources::with_memory_gib(
                            rng.range(1, 32) as u32,
                            rng.range(1, 256),
                            10,
                        );
                        let _ = cloud.resize_in_place(live[index], new);
                    }
                }
            }
            if let Err(e) = cloud.verify_accounting(&specs) {
                panic!("accounting broken: {e}");
            }
        }
        assert_eq!(cloud.vm_count(), live.len());
    });
}
