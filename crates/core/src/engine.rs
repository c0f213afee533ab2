//! The placement world and the one scheduler that changes it: the
//! [`PlacementEngine`] behind both `sapsim serve` and `SimDriver`.
//!
//! This module is the only place that knows how a VM gets a host. The
//! engine owns the live [`Cloud`], the policy pipeline with its ranking
//! scratch, each VM's class and AZ pin, and a clock. One request rule
//! (class → building-block purpose with the CI-farm downgrade, AZ pin,
//! lifetime hint) feeds one walk (the incremental host views and their
//! candidate index, the allocation-free top-k rank, and Nova's greedy
//! retry over it). On top sit the operations the wire protocol speaks —
//! place, resize, evacuate — plus cheap state summaries, field-copy
//! forks for what-if planning, and a canonical state hash for
//! differential checking against an equivalent offline request
//! sequence. The discrete-event loop (`SimDriver`) holds one engine in
//! its run state and calls the same methods for arrivals, resizes,
//! host-failure evacuations and evacuation retries, so a served estate
//! and a simulated one boot and schedule alike by construction.
//!
//! The driver advances the engine's clock to each event's time; the
//! service never does, so a served engine stands still at
//! [`SimTime::ZERO`]. A placement's lifetime hint is its caller's. An
//! evacuee asks with what is left of its own lifetime at the engine's
//! clock, so a served drain and a simulated host failure rank it alike;
//! in `serve` that is the lifetime it was placed with.

use crate::cloud::{Cloud, PlacedVm};
use crate::config::{PlacementGranularity, SimConfig};
use crate::error::SimError;
use crate::scenario::fnv1a_64;
use sapsim_json::ToJson;
use sapsim_obs::DECISION_TOP_K;
use sapsim_scheduler::{PlacementPolicy, PlacementRequest, RankOptions, Ranking, ScheduleError};
use sapsim_sim::{SimRng, SimTime};
use sapsim_topology::{
    paper_estate_replicated, AzId, BbId, BbPurpose, DcId, NodeId, NodeState, RegionDcs, Resources,
    Topology, TopologyBuilder,
};
use sapsim_workload::{Archetype, UsageModel, VmId, VmSpec, WorkloadClass};

/// Build the estate `cfg` describes (scale, replicas, seed, overcommit):
/// the topology and each region's data-center pair, in estate order.
/// `region_replicas = 1` is the historical single-region estate,
/// bit-for-bit.
fn estate(cfg: &SimConfig) -> (Topology, Vec<RegionDcs>) {
    let mut builder = TopologyBuilder::new();
    builder.gp_cpu_overcommit = cfg.gp_cpu_overcommit;
    paper_estate_replicated(cfg.scale, cfg.region_replicas, cfg.seed, &builder)
}

/// Hold back a fraction of general-purpose blocks per DC as
/// failover/expansion reserve (deterministic selection). One shared
/// stream walks `dcs` — every region's DC pair, in estate order.
fn reserve_blocks(cloud: &mut Cloud, cfg: &SimConfig, dcs: impl Iterator<Item = DcId>) {
    if cfg.reserve_bb_fraction <= 0.0 {
        return;
    }
    let mut reserve_rng = SimRng::seed_from(cfg.seed).split("reserve");
    for dc in dcs {
        let topo = cloud.topology();
        let mut picks: Vec<BbId> = topo
            .dc(dc)
            .bbs
            .iter()
            .copied()
            .filter(|&bb| topo.bb(bb).purpose == BbPurpose::GeneralPurpose)
            .collect();
        // Round, but always hold at least one block back when the DC has
        // enough general-purpose blocks to spare one.
        let mut count = (picks.len() as f64 * cfg.reserve_bb_fraction).round() as usize;
        if count == 0 && picks.len() >= 4 {
            count = 1;
        }
        // Deterministic partial shuffle: pick `count` blocks.
        for i in 0..count.min(picks.len()) {
            let j = i + (reserve_rng.range(0, (picks.len() - i) as u64)) as usize;
            picks.swap(i, j);
            cloud.set_bb_reserved(picks[i], true);
        }
    }
}

/// How a walk ended: the chosen node (`None` when every ranked candidate
/// was tried) and the retries, or `Err` when no host survived the
/// filters.
pub(crate) type Walked = Result<(Option<NodeId>, u32), ScheduleError>;

/// One placement order for [`PlacementEngine::place`].
#[derive(Debug, Clone, PartialEq)]
pub struct PlaceSpec {
    /// Requested resources.
    pub resources: Resources,
    /// Workload class (decides the building-block purpose, with the
    /// CI-farm → general-purpose downgrade where the pinned AZ's region,
    /// or for an unpinned order the whole estate, has no farm).
    pub class: WorkloadClass,
    /// Optional availability-zone pin.
    pub az: Option<AzId>,
    /// Expected lifetime in days, feeding the lifetime-aware weigher.
    pub lifetime_days: f64,
}

/// Outcome of a single placement, served or simulated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlaceOutcome {
    /// Placed: `vm` runs on `node` after `retries` fragmented
    /// candidates.
    Placed {
        /// The VM's id (the engine assigns them dense and increasing).
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

impl PlaceOutcome {
    /// The outcome of placing `vm` by a walk that ended as `walked`.
    pub(crate) fn of(vm: VmId, walked: &Walked) -> PlaceOutcome {
        match *walked {
            Ok((Some(node), retries)) => PlaceOutcome::Placed { vm, node, retries },
            Ok((None, retries)) => PlaceOutcome::Fragmented { retries },
            Err(_) => PlaceOutcome::NoCandidate,
        }
    }
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

/// The one owner of the placement world: a live [`Cloud`] plus the
/// policy pipeline, reusable ranking scratch, a clock, and what the
/// request rule reads per VM after placement — its class and AZ pin,
/// indexed by id.
///
/// All operations are sequential (`&mut self`); the serve layer
/// serializes mutations onto one writer thread and forks snapshots for
/// concurrent reads, so the engine itself never needs interior
/// synchronization.
#[derive(Debug)]
pub struct PlacementEngine {
    cfg: SimConfig,
    /// The live estate. The driver's rebalancers, maintenance windows,
    /// departures and telemetry read and change it directly; placement
    /// decisions go through the engine's methods.
    pub(crate) cloud: Cloud,
    policy: PlacementPolicy,
    vm_class: Vec<WorkloadClass>,
    vm_az: Vec<Option<AzId>>,
    ranking: Ranking,
    vm_rng_root: SimRng,
    next_vm: u64,
    version: u64,
    /// Per region, by index: whether it has a CI farm.
    ci_farm: Vec<bool>,
    now: SimTime,
}

impl PlacementEngine {
    /// Build an engine over the paper estate described by `cfg` (scale,
    /// seed, policy, granularity, overcommit, replicas, reserve
    /// fraction — the workload-generator knobs are ignored): the estate,
    /// then its reserve-block selection. `SimDriver` boots its runs
    /// here too, so a served estate and a simulated estate with the same
    /// config start from the same world.
    pub fn new(cfg: SimConfig) -> Result<PlacementEngine, SimError> {
        cfg.validate()?;
        let (topo, region_dcs) = estate(&cfg);
        let mut cloud = Cloud::new(topo);
        reserve_blocks(&mut cloud, &cfg, region_dcs.iter().flat_map(|r| [r.dc_a, r.dc_b]));
        Ok(PlacementEngine::with_cloud(cfg, cloud))
    }

    /// An engine over `cloud` as it stands: no VM admitted yet, the
    /// clock at zero.
    fn with_cloud(cfg: SimConfig, cloud: Cloud) -> PlacementEngine {
        let topo = cloud.topology();
        let mut ci_farm = vec![false; topo.regions().len()];
        for bb in topo
            .bbs()
            .iter()
            .filter(|bb| bb.purpose == BbPurpose::CiFarm)
        {
            ci_farm[topo.az(topo.bb_az(bb.id)).region.index()] = true;
        }
        PlacementEngine {
            cfg,
            cloud,
            policy: PlacementPolicy::new(cfg.policy),
            vm_class: Vec::new(),
            vm_az: Vec::new(),
            ranking: Ranking::default(),
            vm_rng_root: SimRng::seed_from(cfg.seed).split("vm-demand"),
            next_vm: 0,
            version: 0,
            ci_farm,
            now: SimTime::ZERO,
        }
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
    /// cloud is a field-for-field clone — warm host-view cache and
    /// candidate index included — so mutating the fork never touches the
    /// parent. The policy and ranking scratch start fresh.
    pub fn fork(&self) -> PlacementEngine {
        PlacementEngine {
            cfg: self.cfg,
            cloud: self.cloud.clone(),
            policy: PlacementPolicy::new(self.cfg.policy),
            vm_class: self.vm_class.clone(),
            vm_az: self.vm_az.clone(),
            ranking: Ranking::default(),
            vm_rng_root: self.vm_rng_root.clone(),
            next_vm: self.next_vm,
            version: self.version,
            ci_farm: self.ci_farm.clone(),
            now: self.now,
        }
    }

    /// Move the clock to `now`; host views read it for the residents'
    /// remaining lifetimes. The driver calls this once per event.
    pub(crate) fn advance_clock(&mut self, now: SimTime) {
        debug_assert!(now >= self.now, "the clock never runs backwards");
        self.now = now;
    }

    /// The ranking the last walk ended on, for the caller's audit record.
    pub(crate) fn last_ranking(&self) -> &Ranking {
        &self.ranking
    }

    /// The policy pipeline, for its end-of-run statistics.
    pub(crate) fn policy(&self) -> &PlacementPolicy {
        &self.policy
    }

    /// Hand out the next VM id and record what the request rule reads
    /// for it from now on: its class and AZ pin.
    pub(crate) fn admit(&mut self, class: WorkloadClass, az: Option<AzId>) -> VmId {
        let id = VmId(self.next_vm);
        self.next_vm += 1;
        self.vm_class.push(class);
        self.vm_az.push(az);
        id
    }

    /// Place one VM. Consumes one VM id whether or not placement
    /// succeeds, so id assignment is independent of outcomes and a
    /// dry-run fork assigns the same ids the live engine will.
    pub fn place(&mut self, order: &PlaceSpec) -> PlaceOutcome {
        let id = self.admit(order.class, order.az);
        let spec = self.synthesize_spec(id, order);
        PlaceOutcome::of(id, &self.place_spec(&spec, order.lifetime_days))
    }

    /// Place the admitted VM `spec` describes, asking with a lifetime
    /// hint: walk the ranking and commit on the first node that fits.
    /// The VM's id is its spec index.
    pub(crate) fn place_spec(&mut self, spec: &VmSpec, lifetime_hint_days: f64) -> Walked {
        let request = self.request(spec.id, spec.resources, Some(lifetime_hint_days));
        let walked = self.walk(&request, |_, _| true);
        if let Ok((Some(node), _)) = walked {
            let rng = self.vm_rng_root.split_index(spec.id.raw());
            self.cloud.place(spec.id.raw() as usize, spec, node, rng);
        }
        walked
    }

    /// Resize a VM to `new`: in place when its host has room, otherwise
    /// a region-wide re-schedule at the new shape (Nova's resize path).
    pub fn resize(&mut self, vm: VmId, new: Resources) -> ResizeResult {
        let Some(placed) = self.cloud.vm(vm) else {
            return ResizeResult::UnknownVm;
        };
        let node = placed.node;
        if self.cloud.resize_in_place(vm, new) {
            return ResizeResult::InPlace { node };
        }
        let request = self.request(vm, new, None);
        match self.walk(&request, |cloud, node| cloud.resize_to_node(vm, new, node)) {
            Ok((Some(node), _)) => ResizeResult::Migrated { node },
            _ => ResizeResult::Failed,
        }
    }

    /// Drain a node: mark it under maintenance, then push every
    /// resident VM back through the full placement pipeline (restart
    /// semantics — the same path the simulator takes for failed hosts).
    /// VMs with nowhere to go are removed and reported lost.
    pub fn evacuate(&mut self, node: NodeId) -> EvacReport {
        self.cloud.set_node_state(node, NodeState::Maintenance);
        let residents: Vec<VmId> = self.cloud.vms_on_node(node).to_vec();
        let mut report = EvacReport {
            moved: Vec::new(),
            lost: Vec::new(),
        };
        for vm in residents {
            match self.evacuate_vm(vm) {
                Ok(to) => report.moved.push((vm, to)),
                Err(_) => report.lost.push(vm),
            }
        }
        report
    }

    /// Move one resident of an out-of-service node elsewhere. The target
    /// is ranked while the resident still holds its allocation on the
    /// source (the source itself is filtered out by its non-`Active`
    /// state), at its *current* shape (post-resize, if any); then the
    /// resident leaves the source. `Err` hands back the removed VM, its
    /// demand-model state intact, when no host can take it.
    pub(crate) fn evacuate_vm(&mut self, vm: VmId) -> Result<NodeId, Box<PlacedVm>> {
        let placed = self.cloud.vm(vm).expect("resident is placed");
        let target = self.restart_target(vm, placed.resources, placed.departure);
        let placed = self.cloud.remove(vm).expect("resident is placed");
        self.readmit(placed, target)
    }

    /// Restart a VM that holds no allocation — displaced by a host
    /// failure and waiting for room. `Err` hands it back when no host
    /// can take it yet.
    pub(crate) fn restart(&mut self, placed: PlacedVm) -> Result<NodeId, Box<PlacedVm>> {
        let target = self.restart_target(placed.id, placed.resources, placed.departure);
        self.readmit(placed, target)
    }

    /// Put a displaced VM on `target`, or hand it back without one.
    fn readmit(&mut self, vm: PlacedVm, target: Option<NodeId>) -> Result<NodeId, Box<PlacedVm>> {
        let Some(to) = target else {
            return Err(Box::new(vm));
        };
        self.cloud.readmit(vm, to);
        Ok(to)
    }

    /// The first node of a walk for `vm` at `resources` that fits. An
    /// evacuee asks with what is left of its lifetime at the engine's
    /// clock, `max(departure − now, 0)` in days: in `serve`, whose clock
    /// stands at zero, that is the lifetime it was placed with.
    fn restart_target(
        &mut self,
        vm: VmId,
        resources: Resources,
        departure: SimTime,
    ) -> Option<NodeId> {
        // Time differences saturate at zero.
        let residual_days = (departure - self.now).as_days_f64();
        let request = self.request(vm, resources, Some(residual_days));
        self.walk(&request, |_, _| true)
            .ok()
            .and_then(|(node, _)| node)
    }

    /// The one request rule: the class the VM was admitted with decides
    /// the building-block purpose, plus its AZ pin and the lifetime hint,
    /// if any. A CI-farm VM is downgraded to general purpose where no
    /// farm exists — in its pinned AZ's region, or for an unpinned VM
    /// anywhere in the estate — so its executors run in the general pool
    /// as they would before an operator carves one out.
    fn request(
        &self,
        vm: VmId,
        resources: Resources,
        lifetime_hint_days: Option<f64>,
    ) -> PlacementRequest {
        let i = vm.raw() as usize;
        let az = self.vm_az[i];
        let mut purpose = self.vm_class[i].required_bb_purpose();
        let farm = match az {
            Some(az) => self.ci_farm[self.topology().az(az).region.index()],
            None => self.ci_farm.contains(&true),
        };
        if purpose == BbPurpose::CiFarm && !farm {
            purpose = BbPurpose::GeneralPurpose;
        }
        PlacementRequest {
            vm_uid: vm.raw(),
            resources,
            purpose,
            az,
            lifetime_hint_days,
        }
    }

    /// Rank `request` into the ranking scratch at the engine's clock.
    ///
    /// Reads the incremental host-view cache and prunes through its
    /// purpose×AZ candidate index, ranking only a `top_k` head; `walk`
    /// extends past the head by re-ranking exhaustively when needed.
    /// Unit tests can switch to the from-scratch oracle
    /// (`tests::with_naive_views`), which produces byte-identical runs.
    fn rank(
        &mut self,
        request: &PlacementRequest,
        top_k: usize,
        count_stats: bool,
    ) -> Result<(), ScheduleError> {
        #[cfg(test)]
        if tests::NAIVE_VIEWS.get() {
            let views = self.cloud.host_views(self.cfg.granularity, self.now);
            let full = RankOptions {
                index: None,
                top_k: usize::MAX,
                count_stats,
            };
            return self
                .policy
                .rank_into(request, &views, full, &mut self.ranking);
        }
        let (views, index) = self.cloud.host_views_cached(self.cfg.granularity, self.now);
        let opts = RankOptions {
            index: Some(index),
            top_k,
            count_stats,
        };
        self.policy
            .rank_into(request, views, opts, &mut self.ranking)
    }

    /// Rank `request`, then walk the ranking greedily, Nova-style: the
    /// first node that fits and that `accept` takes wins. Place and
    /// evacuation accept any node; resize passes
    /// [`Cloud::resize_to_node`], so a node that refuses the new shape
    /// continues the walk. A refusing `accept` must leave the cloud as it
    /// found it.
    ///
    /// Retries count ranked building blocks with aggregate room but no
    /// single node that fits, the fragmentation failure mode of
    /// cluster-level scheduling (node granularity never retries). Either
    /// way the ranking scratch holds the last rank pass, and only the
    /// first pass counts in the pipeline statistics.
    fn walk(
        &mut self,
        request: &PlacementRequest,
        mut accept: impl FnMut(&mut Cloud, NodeId) -> bool,
    ) -> Walked {
        self.rank(request, DECISION_TOP_K, true)?;
        let mut retries = 0u32;
        let mut pos = 0usize;
        while pos < self.ranking.order.len() {
            if pos >= self.ranking.sorted_len {
                // The ranked head is exhausted (every sorted candidate was
                // fragmented or refused): extend the walk by re-ranking the
                // same request exhaustively. Failed attempts never mutate
                // the cloud, so the full order's head reproduces the head
                // just walked, and the continuation stays out of the
                // pipeline statistics and counters.
                self.rank(request, usize::MAX, false)
                    .expect("re-rank of a non-empty survivor set succeeds");
            }
            let candidate = self.ranking.order[pos];
            pos += 1;
            let node = match self.cfg.granularity {
                PlacementGranularity::BuildingBlock => {
                    let bb = BbId::from_raw(candidate as u32);
                    match self.cloud.choose_node_within_bb(bb, &request.resources) {
                        Some(n) => n,
                        None => {
                            retries += 1;
                            continue;
                        }
                    }
                }
                PlacementGranularity::Node => NodeId::from_raw(candidate as u32),
            };
            if accept(&mut self.cloud, node) {
                return Ok((Some(node), retries));
            }
        }
        Ok((None, retries))
    }

    /// Materialize the [`VmSpec`] that [`Cloud::place`] takes for a served
    /// placement: class-matched archetype, a deterministic per-id usage
    /// model, zero arrival/age (service time stands still), and the
    /// requested lifetime. The engine keeps none of it.
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

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::cell::Cell;

    thread_local! {
        /// Set while [`with_naive_views`] runs: every rank pass then
        /// rebuilds the host views from scratch and ranks them fully.
        pub(crate) static NAIVE_VIEWS: Cell<bool> = const { Cell::new(false) };
    }

    /// Run `f` with every placement on this thread ranked by the
    /// from-scratch oracle instead of the cached views and their index.
    pub(crate) fn with_naive_views<T>(f: impl FnOnce() -> T) -> T {
        NAIVE_VIEWS.set(true);
        let out = f();
        NAIVE_VIEWS.set(false);
        out
    }

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

    /// A history that leaves every mutator's mark on the engine: mixed
    /// classes and AZ pins, a resize, an evacuation, and a placement after
    /// the last rank, so rows are still dirty when it returns.
    fn mixed_history() -> PlacementEngine {
        let mut engine = PlacementEngine::new(small_cfg()).expect("valid config");
        let az = engine.az_by_name("az-a").expect("estate has az-a");
        let classes = [WorkloadClass::GeneralPurpose, WorkloadClass::Hana, WorkloadClass::CiFarm];
        for i in 0..120u32 {
            let mut order = gp_order(1 + i % 8, 2_048 * u64::from(1 + i % 6));
            order.class = classes[(i % 3) as usize];
            order.az = (i % 4 == 0).then_some(az);
            engine.place(&order);
        }
        engine.resize(VmId(3), Resources::new(6, 24_576, 50));
        let node = engine.vm_node(VmId(5)).expect("vm 5 placed");
        engine.evacuate(node);
        engine.place(&gp_order(8, 32_768));
        engine.bump_version();
        engine
    }

    #[test]
    fn fork_matches_a_fresh_replay_step_for_step() {
        // The oracle is a second engine that replayed the same requests
        // from `PlacementEngine::new`, not a copy of the first.
        let engine = mixed_history();
        let mut fork = engine.fork();
        let mut oracle = mixed_history();
        for g in [PlacementGranularity::BuildingBlock, PlacementGranularity::Node] {
            let naive = fork.cloud.host_views(g, SimTime::ZERO);
            let (cached, _) = fork.cloud.host_views_cached(g, SimTime::ZERO);
            assert_eq!(cached, &naive[..], "{g:?}: the fork's cached views are the naive ones");
        }
        assert_eq!(fork.state_hash(), oracle.state_hash());
        assert_eq!(fork.version(), oracle.version());

        let steps: &[fn(&mut PlacementEngine) -> String] = &[
            |e| format!("{:?}", e.place(&gp_order(8, 32_768))),
            |e| {
                let mut pinned = gp_order(4, 16_384);
                pinned.az = e.az_by_name("az-a");
                format!("{:?}", e.place(&pinned))
            },
            |e| {
                let mut hana = gp_order(16, 262_144);
                hana.class = WorkloadClass::Hana;
                format!("{:?}", e.place(&hana))
            },
            |e| format!("{:?}", e.place(&gp_order(10_000, 4_096))),
            |e| format!("{:?}", e.resize(VmId(7), Resources::new(2, 4_096, 50))),
            |e| {
                // On the fullest general-purpose host, a MiB more memory
                // than the host has left: the VM has to move.
                let free_mib = |e: &PlacementEngine, vm| {
                    let node = e.vm_node(vm).expect("placed");
                    e.cloud.node_capacity(node).memory_mib - e.cloud.node_allocated(node).memory_mib
                };
                let placed = (0..120).map(VmId).filter(|&vm| {
                    e.vm_class[vm.raw() as usize] == WorkloadClass::GeneralPurpose
                        && e.vm_node(vm).is_some()
                });
                let vm = placed.min_by_key(|&vm| free_mib(e, vm)).expect("a placed VM");
                let memory = e.vm_resources(vm).expect("placed").memory_mib + free_mib(e, vm) + 1;
                format!("{:?}", e.resize(vm, Resources::new(4, memory, 50)))
            },
            |e| format!("{:?}", e.resize(VmId(9_999), Resources::new(1, 1, 1))),
            |e| {
                let node = e.vm_node(VmId(10)).expect("vm 10 placed");
                format!("{:?}", e.evacuate(node))
            },
            |e| format!("{:?}", e.place(&gp_order(2, 8_192))),
        ];
        for (i, step) in steps.iter().enumerate() {
            assert_eq!(step(&mut fork), step(&mut oracle), "step {i}: same outcome");
            assert_eq!(fork.state_hash(), oracle.state_hash(), "step {i}: same state");
        }
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

    /// Half a region: at least four general-purpose blocks per data
    /// center, below which an 8 % reserve rounds to none.
    fn half_region() -> SimConfig {
        SimConfig {
            scale: 0.5,
            ..small_cfg()
        }
    }

    #[test]
    fn reserve_selection_is_deterministic_and_nonempty() {
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

    fn vm_spec(id: u64, class: WorkloadClass, resources: Resources) -> VmSpec {
        VmSpec {
            id: VmId(id),
            flavor_index: 0,
            flavor_name: "t".into(),
            resources,
            archetype: Archetype::GenericService,
            class,
            usage: UsageModel::draw(Archetype::GenericService, &mut SimRng::seed_from(id)),
            arrival: SimTime::ZERO,
            age_at_arrival: sapsim_sim::SimDuration::ZERO,
            lifetime: sapsim_sim::SimDuration::from_days(30),
            resize: None,
        }
    }

    /// An estate of one single-DC region per entry of `regions`, each
    /// block of the listed purpose with two general-purpose nodes.
    fn regions_of(regions: &[&[BbPurpose]]) -> Cloud {
        use sapsim_topology::{HardwareProfile, OvercommitPolicy};
        let mut topo = Topology::new();
        for (r, purposes) in regions.iter().enumerate() {
            let region = topo.add_region(format!("r{r}"));
            let az = topo.add_az(region, format!("az-{r}"));
            let dc = topo.add_dc(az, format!("dc-{r}"));
            for (b, &purpose) in purposes.iter().enumerate() {
                let profile = HardwareProfile::general_purpose();
                topo.add_bb(
                    dc,
                    format!("bb{r}-{b}"),
                    purpose,
                    profile,
                    OvercommitPolicy::NONE,
                    2,
                );
            }
        }
        Cloud::new(topo)
    }

    #[test]
    fn placement_request_applies_the_one_rule() {
        use BbPurpose::{CiFarm, GeneralPurpose, Hana};
        use WorkloadClass as C;
        // Only the first of the two regions has a CI farm.
        let farm_and_none: &[&[BbPurpose]] = &[&[GeneralPurpose, CiFarm], &[GeneralPurpose, Hana]];
        let mut engine = PlacementEngine::with_cloud(small_cfg(), regions_of(farm_and_none));
        let farm = engine.az_by_name("az-0");
        let no_farm = engine.az_by_name("az-1");
        let asked = Resources::new(8, 32_768, 100);
        let table = [
            (C::GeneralPurpose, farm, GeneralPurpose),
            (C::GeneralPurpose, no_farm, GeneralPurpose),
            (C::GeneralPurpose, None, GeneralPurpose),
            (C::Hana, farm, Hana),
            (C::Hana, no_farm, Hana),
            (C::Hana, None, Hana),
            (C::CiFarm, farm, CiFarm),
            // The pinned AZ's region decides; an unpinned VM sees the
            // whole estate, which has a farm.
            (C::CiFarm, no_farm, GeneralPurpose),
            (C::CiFarm, None, CiFarm),
        ];
        for (class, az, purpose) in table {
            let vm = engine.admit(class, az);
            for hint in [None, Some(12.5)] {
                let expected = PlacementRequest {
                    vm_uid: vm.raw(),
                    resources: asked,
                    purpose,
                    az,
                    lifetime_hint_days: hint,
                };
                assert_eq!(
                    engine.request(vm, asked, hint),
                    expected,
                    "{class:?} in {az:?}"
                );
            }
        }

        // Without a farm anywhere, an unpinned CI VM runs in the general
        // pool too.
        let mut engine = PlacementEngine::with_cloud(small_cfg(), regions_of(&farm_and_none[1..]));
        let vm = engine.admit(C::CiFarm, None);
        assert_eq!(engine.request(vm, asked, None).purpose, GeneralPurpose);
    }

    /// `blocks` general-purpose blocks of two 48-core / 768 GiB nodes, no
    /// overcommit, one AZ. `fill[b]` is how many cores (with their 16 GiB
    /// each) are taken on the two nodes of block `b`, one VM per non-zero
    /// entry, numbered from 0 in fill order.
    pub(crate) fn filled_cloud(fill: &[[u32; 2]]) -> Cloud {
        let mut cloud = regions_of(&[&vec![BbPurpose::GeneralPurpose; fill.len()]]);
        let mut next = 0;
        for (b, cores) in fill.iter().enumerate() {
            for (n, &cpus) in cores.iter().enumerate().filter(|(_, &cpus)| cpus > 0) {
                let node = cloud.topology().bbs()[b].nodes[n];
                let resources = Resources::with_memory_gib(cpus, 16 * cpus as u64, 10);
                let spec = vm_spec(next, WorkloadClass::GeneralPurpose, resources);
                cloud.place(next as usize, &spec, node, SimRng::seed_from(next));
                next += 1;
            }
        }
        cloud
    }

    /// An engine at `granularity` over `cloud`, its VMs admitted as
    /// unpinned general-purpose ones.
    pub(crate) fn engine_over(cloud: Cloud, granularity: PlacementGranularity) -> PlacementEngine {
        let vms = cloud.vm_count();
        let cfg = SimConfig {
            granularity,
            ..SimConfig::default()
        };
        let mut engine = PlacementEngine::with_cloud(cfg, cloud);
        for _ in 0..vms {
            engine.admit(WorkloadClass::GeneralPurpose, None);
        }
        engine
    }

    /// One lifetime rule for evacuations: an evacuee asks with what is
    /// left of its lifetime at the engine's clock, so a served drain and a
    /// host failure send it to the same node. Under `LifetimeAware` the
    /// hint decides here: `cohort`'s resident retires with the evacuee,
    /// `roomy` has more free cores but a resident that stays for years.
    #[test]
    fn served_drains_and_host_failures_ask_with_the_residual_lifetime() {
        use sapsim_scheduler::PolicyKind;
        let mut cloud = regions_of(&[&[BbPurpose::GeneralPurpose; 2]]);
        let nodes: Vec<NodeId> = cloud.topology().nodes().iter().map(|n| n.id).collect();
        let (source, cohort, roomy, full) = (nodes[0], nodes[1], nodes[2], nodes[3]);
        // One VM per node, equal memory everywhere: cores and lifetimes
        // decide. VM 0 is the evacuee.
        let residents = [
            (source, 8, 30),
            (cohort, 8, 30),
            (roomy, 4, 1_000),
            (full, 48, 1_000),
        ];
        for (id, (node, cpus, days)) in residents.into_iter().enumerate() {
            let resources = Resources::with_memory_gib(cpus, 64, 10);
            let mut spec = vm_spec(id as u64, WorkloadClass::GeneralPurpose, resources);
            spec.lifetime = sapsim_sim::SimDuration::from_days(days);
            cloud.place(id, &spec, node, SimRng::seed_from(id as u64));
        }
        let cfg = SimConfig {
            granularity: PlacementGranularity::Node,
            policy: PolicyKind::LifetimeAware,
            ..SimConfig::default()
        };
        let mut engine = PlacementEngine::with_cloud(cfg, cloud);
        for _ in residents {
            engine.admit(WorkloadClass::GeneralPurpose, None);
        }
        let evacuee = VmId(0);
        let failed_at = |days| {
            let mut fork = engine.fork();
            fork.advance_clock(SimTime::from_days(days));
            fork.cloud.set_node_state(source, NodeState::Failed);
            fork
        };

        // Without a hint the roomier node would win.
        let mut hintless = failed_at(0);
        let request = hintless.request(evacuee, Resources::with_memory_gib(8, 64, 10), None);
        assert_eq!(hintless.walk(&request, |_, _| true), Ok((Some(roomy), 0)));

        let mut served = engine.fork();
        assert_eq!(served.evacuate(source).moved, [(evacuee, cohort)]);
        // A host failure ten days in, and the restart of an evacuee that
        // waited for room.
        assert_eq!(failed_at(10).evacuate_vm(evacuee).ok(), Some(cohort));
        let mut waited = failed_at(10);
        let displaced = waited.cloud.remove(evacuee).expect("resident");
        assert_eq!(waited.restart(displaced).ok(), Some(cohort));
    }

    /// Both nodes half full: 48 cores free in the block, 24 on a node.
    const FRAGMENTED: [u32; 2] = [24, 24];

    /// A 32-core VM: fits an emptyish node, not half of one.
    fn big_vm() -> PlacementRequest {
        let resources = Resources::with_memory_gib(32, 512, 10);
        PlacementRequest::new(99, resources, BbPurpose::GeneralPurpose)
    }

    #[test]
    fn walk_retries_past_a_fragmented_block_at_block_granularity_only() {
        // Block 0 has the most room and ranks first, but no node of it
        // fits; block 1 has 40 cores free on its second node.
        let fill = [FRAGMENTED, [48, 8]];
        let mut engine = engine_over(filled_cloud(&fill), PlacementGranularity::BuildingBlock);
        let target = engine.topology().bbs()[1].nodes[1];
        assert_eq!(engine.walk(&big_vm(), |_, _| true), Ok((Some(target), 1)));
        assert_eq!(engine.ranking.order, [0, 1]);

        // Node granularity filters the half-full nodes out: no retry.
        let mut engine = engine_over(filled_cloud(&fill), PlacementGranularity::Node);
        assert_eq!(engine.walk(&big_vm(), |_, _| true), Ok((Some(target), 0)));
        assert_eq!(engine.ranking.order, [target.index()]);
    }

    #[test]
    fn walk_continues_exhaustively_past_a_fragmented_head() {
        // The whole sorted head (DECISION_TOP_K blocks) is fragmented.
        // Of the two blocks behind it, the later one ranks better.
        let mut fill = vec![FRAGMENTED; DECISION_TOP_K];
        fill.extend([[48, 12], [48, 8]]);
        let mut engine = engine_over(filled_cloud(&fill), PlacementGranularity::BuildingBlock);
        let target = engine.topology().bbs()[DECISION_TOP_K + 1].nodes[1];
        let walked = engine.walk(&big_vm(), |_, _| true);
        assert_eq!(walked, Ok((Some(target), DECISION_TOP_K as u32)));
        let ranking = &engine.ranking;
        assert_eq!(ranking.sorted_len, fill.len(), "the walk ended on a full re-rank");
        assert_eq!(ranking.order[DECISION_TOP_K..], [DECISION_TOP_K + 1, DECISION_TOP_K]);
        let (general, hana) = engine.policy.stats();
        assert_eq!(general.requests + hana.requests, 1, "the continuation is no second request");
    }

    #[test]
    fn walk_moves_on_when_accept_refuses() {
        let fill = [[0, 0], [8, 8], [16, 16]];
        let mut engine = engine_over(filled_cloud(&fill), PlacementGranularity::BuildingBlock);
        let first_of = |b: usize| engine.topology().bbs()[b].nodes[0];
        let (first, second, third) = (first_of(0), first_of(1), first_of(2));

        let mut offered = Vec::new();
        let walked = engine.walk(&big_vm(), |_, node| {
            offered.push(node);
            node != first
        });
        assert_eq!(walked, Ok((Some(second), 0)));
        assert_eq!(offered, [first, second]);

        offered.clear();
        let walked = engine.walk(&big_vm(), |_, node| {
            offered.push(node);
            false
        });
        assert_eq!(walked, Ok((None, 0)));
        assert_eq!(offered, [first, second, third]);
    }

    #[test]
    fn walk_without_survivors_reports_rejections_largest_first() {
        use sapsim_scheduler::RejectReason::{HostDisabled, InsufficientCpu};
        let mut cloud = filled_cloud(&[[0, 0], FRAGMENTED, FRAGMENTED]);
        cloud.set_bb_reserved(BbId::from_raw(0), true);
        let mut engine = engine_over(cloud, PlacementGranularity::BuildingBlock);
        let mut request = big_vm();
        request.resources.cpu_cores = 64;
        let walked = engine.walk(&request, |_, _| {
            panic!("nothing to offer");
        });
        let err = walked.expect_err("one block reserved, two too full");
        assert_eq!(err.rejections, [(InsufficientCpu, 2), (HostDisabled, 1)]);
        // What the driver builds its no-candidate record from.
        let ranking = engine.last_ranking();
        assert_eq!(ranking.rejections, [(HostDisabled, 1), (InsufficientCpu, 2)]);
        assert_eq!((ranking.candidates, err.candidates), (3, 3));
        assert!(ranking.order.is_empty());
    }
}
