//! The online placement engine behind `sapsim serve`.
//!
//! [`PlacementEngine`] is the incremental decision path of the driver —
//! `HostViewCache` + `CandidateIndex` + the allocation-free top-k rank
//! and Nova-style greedy walk — lifted out of the discrete-event loop so
//! a long-running service can drive it one request at a time. It owns a
//! live [`Cloud`] built from the same paper estate (including the
//! deterministic reserve-block selection) and offers exactly the
//! operations the wire protocol speaks: place (single or batched),
//! resize, evacuate, plus cheap state summaries, deep-copy forks for
//! what-if planning, and a canonical state hash for differential
//! checking against an equivalent offline request sequence.
//!
//! Time stands still at [`SimTime::ZERO`]: the service models an
//! operator-driven control plane, not a telemetry replay, so lifetime
//! hints come from the requests rather than from a workload trace.

use crate::cloud::{Cloud, PlacedVm};
use crate::config::{PlacementGranularity, SimConfig};
use crate::driver::SimDriver;
use crate::error::SimError;
use crate::scenario::fnv1a_64;
use sapsim_json::ToJson;
use sapsim_obs::DECISION_TOP_K;
use sapsim_scheduler::{PlacementPolicy, PlacementRequest, Ranking};
use sapsim_sim::{SimRng, SimTime};
use sapsim_topology::{
    paper_estate_custom, paper_estate_replicated, AzId, BbId, BbPurpose, NodeId, NodeState,
    Resources, Topology, TopologyBuilder,
};
use sapsim_workload::{Archetype, UsageModel, VmId, VmSpec, WorkloadClass};

/// One placement order for [`PlacementEngine::place`].
#[derive(Debug, Clone, PartialEq)]
pub struct PlaceSpec {
    /// Requested resources.
    pub resources: Resources,
    /// Workload class (decides the building-block purpose, with the
    /// CI-farm → general-purpose downgrade when the estate has no farm).
    pub class: WorkloadClass,
    /// Optional availability-zone pin.
    pub az: Option<AzId>,
    /// Expected lifetime in days, feeding the lifetime-aware weigher.
    pub lifetime_days: f64,
}

/// Outcome of a single placement through the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlaceOutcome {
    /// Placed; the engine assigned `vm` on `node` after `retries`
    /// fragmented candidates.
    Placed {
        /// The id the engine assigned (dense, monotonically increasing).
        vm: VmId,
        /// The hosting node.
        node: NodeId,
        /// Ranked candidates rejected before this one fit.
        retries: u32,
    },
    /// No host survived the filters.
    NoCandidate,
    /// Hosts ranked, but none could actually fit the VM.
    Fragmented {
        /// Candidates tried before giving up.
        retries: u32,
    },
}

/// Outcome of a resize through the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResizeResult {
    /// The VM does not exist.
    UnknownVm,
    /// The current host absorbed the new shape.
    InPlace {
        /// The (unchanged) hosting node.
        node: NodeId,
    },
    /// The VM migrated to a new host through the placement pipeline.
    Migrated {
        /// The new hosting node.
        node: NodeId,
    },
    /// No host could take the new shape; the VM keeps its old one.
    Failed,
}

/// Outcome of draining a node through the engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EvacReport {
    /// VMs that found a new host, in eviction order.
    pub moved: Vec<(VmId, NodeId)>,
    /// VMs no host could absorb (removed from the cloud).
    pub lost: Vec<VmId>,
}

/// The long-lived incremental scheduler: a live [`Cloud`] plus the
/// policy pipeline, reusable ranking scratch, and dense per-VM tables.
///
/// All operations are sequential (`&mut self`); the serve layer
/// serializes mutations onto one writer thread and forks snapshots for
/// concurrent reads, so the engine itself never needs interior
/// synchronization.
#[derive(Debug)]
pub struct PlacementEngine {
    cfg: SimConfig,
    cloud: Cloud,
    policy: PlacementPolicy,
    specs: Vec<VmSpec>,
    vm_az: Vec<Option<AzId>>,
    ranking: Ranking,
    vm_rng_root: SimRng,
    next_vm: u64,
    version: u64,
    ci_farm_exists: bool,
}

impl PlacementEngine {
    /// Build an engine over the paper estate described by `cfg` (scale,
    /// seed, policy, granularity, overcommit, replicas, reserve
    /// fraction — the workload-generator knobs are ignored). The estate
    /// and its reserve-block selection are derived exactly as the
    /// offline driver derives them, so a served estate and a simulated
    /// estate with the same config start from the same topology.
    pub fn new(cfg: SimConfig) -> Result<PlacementEngine, SimError> {
        cfg.validate()?;
        let root_rng = SimRng::seed_from(cfg.seed);
        let mut builder = TopologyBuilder::new();
        builder.gp_cpu_overcommit = cfg.gp_cpu_overcommit;
        let (topo, region_dcs) = if cfg.region_replicas > 1 {
            paper_estate_replicated(cfg.scale, cfg.region_replicas, cfg.seed, &builder)
        } else {
            paper_estate_custom(cfg.scale, cfg.seed, &builder)
        };
        let ci_farm_exists = topo.bbs().iter().any(|bb| bb.purpose == BbPurpose::CiFarm);
        let mut cloud = Cloud::new(topo);

        // Reserve-block selection: same stream, same visit order as the
        // driver (`SimDriver::build_state`), so the estates agree.
        if cfg.reserve_bb_fraction > 0.0 {
            let mut reserve_rng = root_rng.split("reserve");
            for region in &region_dcs {
                for dc in [region.dc_a, region.dc_b] {
                    let gp_bbs: Vec<BbId> = cloud
                        .topology()
                        .dc(dc)
                        .bbs
                        .iter()
                        .copied()
                        .filter(|&bb| {
                            cloud.topology().bb(bb).purpose == BbPurpose::GeneralPurpose
                        })
                        .collect();
                    let mut count =
                        (gp_bbs.len() as f64 * cfg.reserve_bb_fraction).round() as usize;
                    if count == 0 && gp_bbs.len() >= 4 {
                        count = 1;
                    }
                    let mut picks = gp_bbs;
                    for i in 0..count.min(picks.len()) {
                        let j =
                            i + (reserve_rng.range(0, (picks.len() - i) as u64)) as usize;
                        picks.swap(i, j);
                        cloud.set_bb_reserved(picks[i], true);
                    }
                }
            }
        }

        Ok(PlacementEngine {
            cfg,
            cloud,
            policy: PlacementPolicy::new(cfg.policy),
            specs: Vec::new(),
            vm_az: Vec::new(),
            ranking: Ranking::default(),
            vm_rng_root: root_rng.split("vm-demand"),
            next_vm: 0,
            version: 0,
            ci_farm_exists,
        })
    }

    /// The engine's state version: bumps once per applied mutation
    /// (place batches bump once per batch). Dry-run plans cite the
    /// version they were planned against; commit compares it.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Bump the version — the serve layer calls this once per applied
    /// mutating request after its operations succeed.
    pub fn bump_version(&mut self) {
        self.version += 1;
    }

    /// The underlying topology.
    pub fn topology(&self) -> &Topology {
        self.cloud.topology()
    }

    /// Live VM count.
    pub fn vm_count(&self) -> usize {
        self.cloud.vm_count()
    }

    /// Total nodes and nodes currently `Active`.
    pub fn node_counts(&self) -> (usize, usize) {
        let nodes = self.topology().nodes();
        let active = nodes.iter().filter(|n| n.state == NodeState::Active).count();
        (nodes.len(), active)
    }

    /// Resolve an availability zone by name.
    pub fn az_by_name(&self, name: &str) -> Option<AzId> {
        self.topology()
            .azs()
            .iter()
            .find(|az| az.name == name)
            .map(|az| az.id)
    }

    /// Resolve a node by name.
    pub fn node_by_name(&self, name: &str) -> Option<NodeId> {
        self.topology()
            .nodes()
            .iter()
            .find(|n| n.name == name)
            .map(|n| n.id)
    }

    /// The `(node, building block, availability zone)` names for a node.
    pub fn node_location(&self, node: NodeId) -> (String, String, String) {
        let topo = self.topology();
        let n = topo.node(node);
        let bb = topo.bb(n.bb);
        let az = topo.az(topo.dc(bb.dc).az);
        (n.name.clone(), bb.name.clone(), az.name.clone())
    }

    /// The hosting node of a VM, if it is placed.
    pub fn vm_node(&self, vm: VmId) -> Option<NodeId> {
        self.cloud.vm(vm).map(|v| v.node)
    }

    /// Current resources of a VM, if it is placed.
    pub fn vm_resources(&self, vm: VmId) -> Option<Resources> {
        self.cloud.vm(vm).map(|v| v.resources)
    }

    /// Canonical FNV-1a hash over the full serialized cloud state, as
    /// 16 hex digits. Two engines that applied the same request
    /// sequence — whether over a socket or in-process — hash equal.
    pub fn state_hash(&self) -> String {
        let json = self.cloud.capture_state().to_json_string();
        format!("{:016x}", fnv1a_64(json.as_bytes()))
    }

    /// Deep-copy fork for what-if planning: an independent engine whose
    /// cloud is rebuilt through the snapshot restore path (PR 8), so
    /// mutating the fork never touches the parent.
    pub fn fork(&self) -> PlacementEngine {
        let cloud = Cloud::restore_state(self.topology().clone(), self.cloud.capture_state())
            .expect("forking a live cloud state always restores");
        PlacementEngine {
            cfg: self.cfg,
            cloud,
            policy: PlacementPolicy::new(self.cfg.policy),
            specs: self.specs.clone(),
            vm_az: self.vm_az.clone(),
            ranking: Ranking::default(),
            vm_rng_root: self.vm_rng_root.clone(),
            next_vm: self.next_vm,
            version: self.version,
            ci_farm_exists: self.ci_farm_exists,
        }
    }

    /// Place one VM. Consumes one VM id whether or not placement
    /// succeeds, so id assignment is independent of outcomes and a
    /// dry-run fork assigns the same ids the live engine will.
    pub fn place(&mut self, order: &PlaceSpec) -> PlaceOutcome {
        let id = VmId(self.next_vm);
        self.next_vm += 1;
        let spec = self.synthesize_spec(id, order);
        let spec_index = self.specs.len();
        self.specs.push(spec);
        self.vm_az.push(order.az);

        let mut purpose = order.class.required_bb_purpose();
        if purpose == BbPurpose::CiFarm && !self.ci_farm_exists {
            purpose = BbPurpose::GeneralPurpose;
        }
        let spec = &self.specs[spec_index];
        let mut request = PlacementRequest::new(id.raw(), spec.resources, purpose)
            .with_lifetime_hint(order.lifetime_days);
        if let Some(az) = order.az {
            request = request.in_az(az);
        }

        match Self::walk(
            &mut self.cloud,
            &mut self.policy,
            &self.cfg,
            &request,
            &spec.resources,
            &mut self.ranking,
        ) {
            WalkOutcome::NoCandidate => PlaceOutcome::NoCandidate,
            WalkOutcome::Fragmented { retries } => PlaceOutcome::Fragmented { retries },
            WalkOutcome::Target { node, retries } => {
                let rng = self.vm_rng_root.split_index(id.raw());
                self.cloud.place(spec_index, spec, node, rng);
                PlaceOutcome::Placed { vm: id, node, retries }
            }
        }
    }

    /// Resize a VM to `new`: in place when its host has room, otherwise
    /// a region-wide re-schedule at the new shape (Nova's resize path).
    pub fn resize(&mut self, vm: VmId, new: Resources) -> ResizeResult {
        let Some(placed) = self.cloud.vm(vm) else {
            return ResizeResult::UnknownVm;
        };
        let spec_index = placed.spec_index;
        let node = placed.node;
        if self.cloud.resize_in_place(vm, new) {
            return ResizeResult::InPlace { node };
        }
        let spec = &self.specs[spec_index];
        let mut purpose = spec.class.required_bb_purpose();
        if purpose == BbPurpose::CiFarm && !self.ci_farm_exists {
            purpose = BbPurpose::GeneralPurpose;
        }
        let mut request = PlacementRequest::new(vm.raw(), new, purpose);
        if let Some(az) = self.vm_az[spec_index] {
            request = request.in_az(az);
        }
        match Self::walk(
            &mut self.cloud,
            &mut self.policy,
            &self.cfg,
            &request,
            &new,
            &mut self.ranking,
        ) {
            WalkOutcome::Target { node, .. } if self.cloud.resize_to_node(vm, new, node) => {
                ResizeResult::Migrated { node }
            }
            _ => ResizeResult::Failed,
        }
    }

    /// Drain a node: mark it under maintenance, then push every
    /// resident VM back through the full placement pipeline (restart
    /// semantics — the same path the fault layer uses for failed
    /// hosts). VMs with nowhere to go are removed and reported lost.
    pub fn evacuate(&mut self, node: NodeId) -> EvacReport {
        self.cloud.set_node_state(node, NodeState::Maintenance);
        let residents: Vec<VmId> = self.cloud.vms_on_node(node).to_vec();
        let mut report = EvacReport {
            moved: Vec::new(),
            lost: Vec::new(),
        };
        for vm in residents {
            let resident = self.cloud.vm(vm).expect("resident is placed").clone();
            let target = self.evac_target(&resident);
            let placed = self.cloud.remove(vm).expect("resident is placed");
            match target {
                Some(to) => {
                    self.cloud.readmit(placed, to);
                    report.moved.push((vm, to));
                }
                None => report.lost.push(vm),
            }
        }
        report
    }

    /// Remove a VM entirely (bench/steady-state helper).
    pub fn release(&mut self, vm: VmId) -> bool {
        self.cloud.remove(vm).is_some()
    }

    /// Pick a restart target for a displaced VM (source node already
    /// filtered out by its non-`Active` state).
    fn evac_target(&mut self, placed: &PlacedVm) -> Option<NodeId> {
        let spec = &self.specs[placed.spec_index];
        let mut purpose = spec.class.required_bb_purpose();
        if purpose == BbPurpose::CiFarm && !self.ci_farm_exists {
            purpose = BbPurpose::GeneralPurpose;
        }
        let mut request = PlacementRequest::new(placed.id.raw(), placed.resources, purpose);
        if let Some(az) = self.vm_az[placed.spec_index] {
            request = request.in_az(az);
        }
        // `resources` is the *current* shape (post-resize, if any).
        let resources = placed.resources;
        match Self::walk(
            &mut self.cloud,
            &mut self.policy,
            &self.cfg,
            &request,
            &resources,
            &mut self.ranking,
        ) {
            WalkOutcome::Target { node, .. } => Some(node),
            _ => None,
        }
    }

    /// The driver's rank-then-greedy-walk, shared by every engine op:
    /// cached host views + candidate index, top-k rank, and the
    /// exhaustive re-rank continuation when the sorted head is all
    /// fragmented (see `SimDriver::place_vm`).
    fn walk(
        cloud: &mut Cloud,
        policy: &mut PlacementPolicy,
        cfg: &SimConfig,
        request: &PlacementRequest,
        resources: &Resources,
        ranking: &mut Ranking,
    ) -> WalkOutcome {
        if SimDriver::rank_request(
            cloud,
            policy,
            cfg,
            request,
            SimTime::ZERO,
            DECISION_TOP_K,
            false,
            ranking,
        )
        .is_err()
        {
            return WalkOutcome::NoCandidate;
        }
        let mut retries = 0u32;
        let mut pos = 0usize;
        while pos < ranking.order.len() {
            if pos >= ranking.sorted_len {
                SimDriver::rank_request(
                    cloud,
                    policy,
                    cfg,
                    request,
                    SimTime::ZERO,
                    usize::MAX,
                    false,
                    ranking,
                )
                .expect("re-rank of a non-empty survivor set succeeds");
            }
            let candidate = ranking.order[pos];
            pos += 1;
            let node = match cfg.granularity {
                PlacementGranularity::BuildingBlock => {
                    let bb = BbId::from_raw(candidate as u32);
                    match cloud.choose_node_within_bb(bb, resources) {
                        Some(n) => n,
                        None => {
                            retries += 1;
                            continue;
                        }
                    }
                }
                PlacementGranularity::Node => NodeId::from_raw(candidate as u32),
            };
            return WalkOutcome::Target { node, retries };
        }
        WalkOutcome::Fragmented { retries }
    }

    /// Materialize a [`VmSpec`] for a served placement: class-matched
    /// archetype, a deterministic per-id usage model, zero arrival/age
    /// (service time stands still), and the requested lifetime.
    fn synthesize_spec(&self, id: VmId, order: &PlaceSpec) -> VmSpec {
        let archetype = match order.class {
            WorkloadClass::Hana => Archetype::HanaDb,
            WorkloadClass::CiFarm => Archetype::CiCd,
            WorkloadClass::GeneralPurpose => Archetype::GenericService,
        };
        let mut usage_rng = self.vm_rng_root.split("serve-usage").split_index(id.raw());
        let usage = UsageModel::draw(archetype, &mut usage_rng);
        let lifetime_ms = (order.lifetime_days.max(0.0) * 86_400_000.0).round() as u64;
        VmSpec {
            id,
            flavor_index: 0,
            flavor_name: format!(
                "serve-c{}-m{}",
                order.resources.cpu_cores,
                order.resources.memory_gib()
            ),
            resources: order.resources,
            archetype,
            class: order.class,
            usage,
            arrival: SimTime::ZERO,
            age_at_arrival: sapsim_sim::SimDuration::ZERO,
            lifetime: sapsim_sim::SimDuration::from_millis(lifetime_ms),
            resize: None,
        }
    }
}

/// Internal outcome of the shared rank-and-walk.
enum WalkOutcome {
    Target { node: NodeId, retries: u32 },
    NoCandidate,
    Fragmented { retries: u32 },
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> SimConfig {
        SimConfig {
            scale: 0.05,
            seed: 7,
            ..SimConfig::default()
        }
    }

    fn gp_order(cpus: u32, mem_mib: u64) -> PlaceSpec {
        PlaceSpec {
            resources: Resources::new(cpus, mem_mib, 50),
            class: WorkloadClass::GeneralPurpose,
            az: None,
            lifetime_days: 30.0,
        }
    }

    #[test]
    fn engine_places_resizes_and_evacuates() {
        let mut engine = PlacementEngine::new(small_cfg()).expect("valid config");
        assert_eq!(engine.vm_count(), 0);
        let PlaceOutcome::Placed { vm, node, .. } = engine.place(&gp_order(4, 16_384)) else {
            panic!("tiny estate places a small VM");
        };
        assert_eq!(engine.vm_count(), 1);
        assert_eq!(engine.vm_node(vm), Some(node));

        // In-place resize shrink always fits.
        let ResizeResult::InPlace { node: same } =
            engine.resize(vm, Resources::new(2, 8_192, 50))
        else {
            panic!("shrink resizes in place");
        };
        assert_eq!(same, node);
        assert_eq!(engine.resize(VmId(999), Resources::new(1, 1, 1)), ResizeResult::UnknownVm);

        // Evacuating the VM's node moves (or loses) it; the node drops
        // out of Active either way.
        let report = engine.evacuate(node);
        assert_eq!(report.moved.len() + report.lost.len(), 1);
        let (_, active) = engine.node_counts();
        assert_eq!(active, engine.topology().nodes().len() - 1);
        if let Some(&(moved_vm, new_node)) = report.moved.first() {
            assert_eq!(moved_vm, vm);
            assert_ne!(new_node, node);
            assert_eq!(engine.vm_node(vm), Some(new_node));
        }
    }

    #[test]
    fn fork_is_independent_and_hashes_stably() {
        let mut engine = PlacementEngine::new(small_cfg()).expect("valid config");
        engine.place(&gp_order(2, 8_192));
        let base_hash = engine.state_hash();
        assert_eq!(base_hash.len(), 16);

        let mut fork = engine.fork();
        assert_eq!(fork.state_hash(), base_hash);
        // Same next id on both sides: the fork predicts the parent.
        let PlaceOutcome::Placed { vm: fork_vm, node: fork_node, .. } =
            fork.place(&gp_order(2, 8_192))
        else {
            panic!("fork places");
        };
        assert_eq!(engine.state_hash(), base_hash, "fork mutation is isolated");
        let PlaceOutcome::Placed { vm: live_vm, node: live_node, .. } =
            engine.place(&gp_order(2, 8_192))
        else {
            panic!("live places");
        };
        assert_eq!(fork_vm, live_vm);
        assert_eq!(fork_node, live_node);
        assert_eq!(engine.state_hash(), fork.state_hash());
    }

    #[test]
    fn same_orders_same_hash_across_engines() {
        let run = || {
            let mut engine = PlacementEngine::new(small_cfg()).expect("valid config");
            for i in 0..10u32 {
                engine.place(&gp_order(1 + (i % 4), 4_096));
            }
            engine.bump_version();
            engine.state_hash()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn az_pin_is_respected() {
        let mut engine = PlacementEngine::new(small_cfg()).expect("valid config");
        let az = engine.az_by_name("az-a").expect("estate has az-a");
        let mut order = gp_order(2, 8_192);
        order.az = Some(az);
        let PlaceOutcome::Placed { node, .. } = engine.place(&order) else {
            panic!("places in az-a");
        };
        let (_, _, az_name) = engine.node_location(node);
        assert_eq!(az_name, "az-a");
    }

    #[test]
    fn reserve_selection_is_deterministic_and_nonempty() {
        // The engine replicates the driver's reserve-block stream
        // (`root.split("reserve")`, per-region [dc_a, dc_b] order); a
        // full engine-vs-driver estate comparison runs in the serve CI
        // smoke via the state hash. Here: deterministic and non-empty
        // at the default fraction — on an estate with at least four
        // general-purpose blocks per data center, below which an 8 %
        // reserve rounds to none.
        let half_region = || {
            let mut cfg = small_cfg();
            cfg.scale = 0.5;
            cfg
        };
        let reserved = |cfg: SimConfig| -> Vec<bool> {
            let engine = PlacementEngine::new(cfg).expect("valid config");
            engine
                .topology()
                .bbs()
                .iter()
                .map(|bb| engine.cloud.is_bb_reserved(bb.id))
                .collect()
        };
        let a = reserved(half_region());
        assert_eq!(a, reserved(half_region()));
        assert!(
            a.iter().any(|&r| r),
            "default reserve fraction selects at least one block"
        );
        let mut no_reserve = half_region();
        no_reserve.reserve_bb_fraction = 0.0;
        assert!(reserved(no_reserve).iter().all(|&r| !r));
    }
}
