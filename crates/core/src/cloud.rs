//! The mutable world state: which VM runs where, and what is allocated.

use crate::config::PlacementGranularity;
use crate::error::SimError;
use crate::viewcache::{HostViewCache, WorldRefs};
use sapsim_json::json_codec;
use sapsim_scheduler::{CandidateIndex, HostView};
use sapsim_sim::{SimRng, SimTime, MILLIS_PER_DAY};
use sapsim_topology::{BbId, NodeId, NodeState, Resources, Topology};
use sapsim_workload::{UsageState, VmId, VmSpec, WorkloadClass};
use std::collections::BTreeSet;

/// Runtime state of one placed VM: its placement, its live demand-model
/// noise and private RNG stream, and what the last scrape measured.
#[derive(Debug, Clone, PartialEq)]
pub struct PlacedVm {
    /// Index into the driver's spec list.
    pub spec_index: usize,
    /// The VM's id.
    pub id: VmId,
    /// Current host node.
    pub node: NodeId,
    /// Currently allocated (requested) resources — the flavor template,
    /// updated by resizes.
    pub resources: Resources,
    /// Evolving demand-model noise.
    pub(crate) usage_state: UsageState,
    /// Per-VM random stream for the demand model.
    pub(crate) rng: SimRng,
    /// Demand at the last scrape, core-equivalents.
    pub last_cpu_demand_cores: f64,
    /// Consumed memory at the last scrape, MiB.
    pub last_mem_used_mib: f64,
    /// Filled disk at the last scrape, GiB (age-driven fill fraction of
    /// the flavor's disk allocation).
    pub(crate) last_disk_used_gib: f64,
    /// Scheduled departure instant.
    pub(crate) departure: SimTime,
    /// Whether the rebalancers may migrate this VM. HANA VMs are pinned:
    /// "migrating VMs that exhibit high CPU or memory operations should be
    /// avoided" (paper Section 3.2).
    pub movable: bool,
}

json_codec!(struct PlacedVm {
    spec_index, id, node, resources, usage_state, rng, last_cpu_demand_cores, last_mem_used_mib,
    last_disk_used_gib, departure, movable,
});

/// The state [`PlacementEngine::state_hash`](crate::PlacementEngine::state_hash)
/// hashes: everything placement and fault events have changed since
/// `Cloud::new`, and nothing that the config derives (topology shape,
/// virtual capacities, the host-view cache). Two clouds that applied the
/// same operations encode to the same bytes.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct CloudState {
    /// Operational state per node, indexed by `NodeId::raw`. The state
    /// bit lives inside the topology at runtime, but maintenance and
    /// fault transitions mutate it.
    pub(crate) node_states: Vec<NodeState>,
    /// Requested resources allocated per node.
    pub(crate) node_alloc: Vec<Resources>,
    /// Resident VM ids per node, order preserved — scrape aggregation
    /// and evacuation both walk residency lists in order.
    pub(crate) node_vms: Vec<Vec<VmId>>,
    /// Most recent sampled contention per node (percent).
    pub(crate) node_contention: Vec<f64>,
    /// Per-node sum of resident departure instants (ms).
    pub(crate) node_departure_sum_ms: Vec<f64>,
    /// Aggregated allocation per building block.
    pub(crate) bb_alloc: Vec<Resources>,
    /// The dense VM slot table (demand state and RNG streams included).
    pub(crate) vm_slots: Vec<Option<PlacedVm>>,
    /// Number of `Some` entries in `vm_slots`.
    pub(crate) vm_count: usize,
    /// Reserve building blocks, ascending id order.
    pub(crate) reserved_bbs: Vec<BbId>,
}

json_codec!(struct CloudState {
    node_states, node_alloc, node_vms, node_contention, node_departure_sum_ms, bb_alloc,
    vm_slots, vm_count, reserved_bbs,
});

/// The cloud: topology plus allocation and residency bookkeeping.
///
/// All mutation goes through [`place`](Cloud::place),
/// [`remove`](Cloud::remove), and [`migrate`](Cloud::migrate), which keep
/// the per-node and per-block accounting consistent (checked by
/// [`verify_accounting`](Cloud::verify_accounting) in tests).
///
/// `Clone` is a full deep copy, warm view cache and candidate index
/// included — what [`PlacementEngine::fork`](crate::PlacementEngine::fork)
/// hands a what-if planner.
#[derive(Debug, Clone)]
pub struct Cloud {
    topo: Topology,
    /// Cached per-node schedulable capacity (overcommit applied).
    node_virtual_cap: Vec<Resources>,
    /// Requested resources allocated per node.
    node_alloc: Vec<Resources>,
    /// Resident VM ids per node.
    node_vms: Vec<Vec<VmId>>,
    /// Most recent sampled contention per node (percent).
    node_contention: Vec<f64>,
    /// Sum of residual-lifetime *departure instants* (in ms) of resident
    /// VMs per node; mean remaining lifetime at `now` is
    /// `sum / count − now`.
    node_departure_sum_ms: Vec<f64>,
    /// Cached per-block total virtual capacity.
    bb_virtual_cap: Vec<Resources>,
    /// Aggregated allocation per block.
    bb_alloc: Vec<Resources>,
    /// All placed VMs, in a dense slot table indexed by `VmId::raw`.
    /// The workload generator numbers VM ids as consecutive spec indices,
    /// so the table stays compact, lookups are a bounds-checked index, and
    /// the telemetry scrape can walk all VMs in id order without hashing.
    /// `None` marks never-placed or departed ids.
    vm_slots: Vec<Option<PlacedVm>>,
    /// Number of `Some` entries in `vm_slots`.
    vm_count: usize,
    /// Building blocks held back from placement as failover/expansion
    /// reserve (paper Section 5.1: "capacities are intentionally reserved
    /// in case of emergency failover, redundancy, and scalability
    /// demands"). Their nodes stay active and monitored — they are the
    /// persistently light columns of the heatmaps — but the scheduler
    /// never offers them. Ordered set for deterministic iteration.
    reserved_bbs: BTreeSet<BbId>,
    /// Incrementally maintained host-view snapshots (both granularities)
    /// with their candidate indices. Every mutator above marks the
    /// entries it touches; [`host_views_cached`](Cloud::host_views_cached)
    /// refreshes only those. Pure acceleration state: never serialized,
    /// never observable — [`host_views`](Cloud::host_views) remains the
    /// from-scratch oracle the cache is tested against.
    view_cache: HostViewCache,
}

impl Cloud {
    /// Wrap a topology into an empty cloud.
    pub fn new(topo: Topology) -> Self {
        let node_virtual_cap: Vec<Resources> = topo
            .nodes()
            .iter()
            .map(|n| topo.node_virtual_capacity(n.id))
            .collect();
        let bb_virtual_cap: Vec<Resources> = topo
            .bbs()
            .iter()
            .map(|bb| bb.total_virtual_capacity())
            .collect();
        let n = topo.nodes().len();
        let b = topo.bbs().len();
        Cloud {
            topo,
            node_virtual_cap,
            node_alloc: vec![Resources::ZERO; n],
            node_vms: vec![Vec::new(); n],
            node_contention: vec![0.0; n],
            node_departure_sum_ms: vec![0.0; n],
            bb_virtual_cap,
            bb_alloc: vec![Resources::ZERO; b],
            vm_slots: Vec::new(),
            vm_count: 0,
            reserved_bbs: BTreeSet::new(),
            view_cache: HostViewCache::new(),
        }
    }

    /// Pre-size the VM slot table for ids `0..n` (the driver knows the
    /// spec count up front). Growing lazily also works; pre-sizing avoids
    /// reallocation mid-run and lets the scrape zip the slot table against
    /// per-spec state of the same length.
    pub fn reserve_vm_slots(&mut self, n: usize) {
        debug_assert!(
            n >= self.vm_slots.len() || self.vm_slots[n..].iter().all(Option::is_none),
            "reserve_vm_slots({n}) would orphan populated slots beyond the requested size"
        );
        if self.vm_slots.len() < n {
            self.vm_slots.resize_with(n, || None);
        }
    }

    /// Grow the slot table through `id` if necessary and hand back the
    /// (asserted-vacant) slot — the shared admission step of
    /// [`place`](Cloud::place) and [`readmit`](Cloud::readmit). `action`
    /// names the caller in the duplicate-occupancy panic.
    fn slot_entry_mut(&mut self, id: VmId, action: &str) -> &mut Option<PlacedVm> {
        let idx = id.raw() as usize;
        if idx >= self.vm_slots.len() {
            self.vm_slots.resize_with(idx + 1, || None);
        }
        assert!(self.vm_slots[idx].is_none(), "duplicate {action} of {id}");
        &mut self.vm_slots[idx]
    }

    /// Mark a building block as capacity reserve: it stays in telemetry
    /// but is never offered to the placement pipeline.
    pub fn set_bb_reserved(&mut self, bb: BbId, reserved: bool) {
        let changed = if reserved {
            self.reserved_bbs.insert(bb)
        } else {
            self.reserved_bbs.remove(&bb)
        };
        if changed {
            // A reservation flip changes the `enabled` bit of the block
            // and of every node in it.
            self.view_cache.mark_bb_entry(bb.index());
            for &n in &self.topo.bb(bb).nodes {
                self.view_cache.mark_node_entry(n.index());
            }
        }
    }

    /// Whether a building block is held in reserve.
    pub fn is_bb_reserved(&self, bb: BbId) -> bool {
        self.reserved_bbs.contains(&bb)
    }

    /// Change a node's operational state (maintenance transitions).
    pub fn set_node_state(&mut self, node: NodeId, state: NodeState) {
        let bb = self.topo.node(node).bb;
        self.topo.node_mut(node).state = state;
        self.view_cache.mark_node(node.index(), bb.index());
    }

    /// Evacuate every VM off `node` to other nodes of the same building
    /// block (live-migration before maintenance). Returns
    /// `Ok(migrations)` when the node is empty afterwards, or
    /// `Err(stuck_vm)` naming the first VM that could not be moved —
    /// pinned, or no sibling has room — in which case some VMs may
    /// already have moved (like a real half-completed evacuation).
    pub(crate) fn evacuate_node(&mut self, node: NodeId) -> Result<u64, VmId> {
        let bb = self.topo.node(node).bb;
        let residents: Vec<VmId> = self.node_vms[node.index()].clone();
        let mut moved = 0u64;
        for vm_id in residents {
            let vm = self.vm(vm_id).expect("resident");
            if !vm.movable {
                return Err(vm_id);
            }
            let resources = vm.resources;
            let Some(target) = self.choose_node_within_bb(bb, &resources) else {
                return Err(vm_id);
            };
            if !self.migrate(vm_id, target) {
                return Err(vm_id);
            }
            moved += 1;
        }
        Ok(moved)
    }

    /// The underlying topology.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Number of currently placed VMs.
    pub fn vm_count(&self) -> usize {
        self.vm_count
    }

    /// Access a placed VM.
    pub fn vm(&self, id: VmId) -> Option<&PlacedVm> {
        self.vm_slots.get(id.raw() as usize)?.as_ref()
    }

    /// Mutable access to a placed VM (the driver updates demand state
    /// during scrapes).
    pub(crate) fn vm_mut(&mut self, id: VmId) -> Option<&mut PlacedVm> {
        self.vm_slots.get_mut(id.raw() as usize)?.as_mut()
    }

    /// The dense VM slot table, indexed by `VmId::raw` (`None` for ids not
    /// currently placed). The telemetry scrape walks this mutably,
    /// advancing each VM's independent demand model.
    pub(crate) fn vm_slots_mut(&mut self) -> &mut [Option<PlacedVm>] {
        &mut self.vm_slots
    }

    /// Ids of VMs resident on a node.
    pub fn vms_on_node(&self, node: NodeId) -> &[VmId] {
        &self.node_vms[node.index()]
    }

    /// Requested resources allocated on a node.
    pub fn node_allocated(&self, node: NodeId) -> Resources {
        self.node_alloc[node.index()]
    }

    /// Schedulable capacity of a node.
    pub fn node_capacity(&self, node: NodeId) -> Resources {
        self.node_virtual_cap[node.index()]
    }

    /// Requested resources allocated on a building block.
    pub fn bb_allocated(&self, bb: BbId) -> Resources {
        self.bb_alloc[bb.index()]
    }

    /// Update the cached contention hint for a node (called by the driver
    /// after each scrape).
    pub fn set_node_contention(&mut self, node: NodeId, pct: f64) {
        let i = node.index();
        // The scrape re-reports every node each interval, mostly with an
        // unchanged value; dirtying only on change keeps per-placement
        // refreshes proportional to what actually moved. (A NaN never
        // compares equal, so a pathological sample still dirties.)
        if self.node_contention[i] == pct {
            return;
        }
        self.node_contention[i] = pct;
        let bb = self.topo.node(node).bb;
        self.view_cache.mark_node(i, bb.index());
    }

    /// Mean remaining lifetime (days) of the VMs on `node` at `now`.
    pub(crate) fn node_mean_remaining_lifetime_days(&self, node: NodeId, now: SimTime) -> f64 {
        let count = self.node_vms[node.index()].len();
        if count == 0 {
            return 0.0;
        }
        let mean_departure_ms = self.node_departure_sum_ms[node.index()] / count as f64;
        ((mean_departure_ms - now.as_millis() as f64) / MILLIS_PER_DAY as f64).max(0.0)
    }

    /// Build the candidate views for the initial-placement scheduler at
    /// the requested granularity. Views are ordered by arena index, so
    /// returned candidate indices map directly to `BbId`/`NodeId` raws.
    ///
    /// This is the from-scratch build — O(hosts) per call. The hot path
    /// is [`host_views_cached`](Cloud::host_views_cached), which must
    /// return field-for-field identical views; this method stays as the
    /// oracle that equivalence tests and benches compare against.
    pub fn host_views(&self, granularity: PlacementGranularity, now: SimTime) -> Vec<HostView> {
        match granularity {
            PlacementGranularity::BuildingBlock => self
                .topo
                .bbs()
                .iter()
                .map(|bb| {
                    let nodes = &bb.nodes;
                    let (mut cont_sum, mut life_sum, mut life_n) = (0.0, 0.0, 0usize);
                    let mut enabled = false;
                    for &n in nodes {
                        cont_sum += self.node_contention[n.index()];
                        let c = self.node_vms[n.index()].len();
                        if c > 0 {
                            life_sum += self.node_departure_sum_ms[n.index()];
                            life_n += c;
                        }
                        enabled |= self.topo.node(n).state == NodeState::Active;
                    }
                    let enabled = enabled && !self.reserved_bbs.contains(&bb.id);
                    let mean_life_days = if life_n > 0 {
                        ((life_sum / life_n as f64 - now.as_millis() as f64)
                            / MILLIS_PER_DAY as f64)
                            .max(0.0)
                    } else {
                        0.0
                    };
                    HostView {
                        bb: bb.id,
                        node: None,
                        purpose: bb.purpose,
                        az: self.topo.bb_az(bb.id),
                        capacity: self.bb_virtual_cap[bb.id.index()],
                        allocated: self.bb_alloc[bb.id.index()],
                        enabled,
                        contention_pct: cont_sum / nodes.len().max(1) as f64,
                        mean_remaining_lifetime_days: mean_life_days,
                    }
                })
                .collect(),
            PlacementGranularity::Node => self
                .topo
                .nodes()
                .iter()
                .map(|n| {
                    let bb = self.topo.bb(n.bb);
                    HostView {
                        bb: bb.id,
                        node: Some(n.id),
                        purpose: bb.purpose,
                        az: self.topo.bb_az(bb.id),
                        capacity: self.node_virtual_cap[n.id.index()],
                        allocated: self.node_alloc[n.id.index()],
                        enabled: n.state == NodeState::Active
                            && !self.reserved_bbs.contains(&bb.id),
                        contention_pct: self.node_contention[n.id.index()],
                        mean_remaining_lifetime_days: self
                            .node_mean_remaining_lifetime_days(n.id, now),
                    }
                })
                .collect(),
        }
    }

    /// The incrementally maintained equivalent of
    /// [`host_views`](Cloud::host_views), plus the matching purpose×AZ
    /// [`CandidateIndex`] for bucket pruning in the filter stage.
    ///
    /// Only the entries dirtied by mutations since the previous call are
    /// rebuilt (plus a cheap `now`-dependent lifetime recomputation), so
    /// the per-decision cost is proportional to what changed rather than
    /// to fleet size. The returned views are field-for-field identical to
    /// a fresh `host_views` build — `RunResult::canonical_bytes()`
    /// equivalence across both paths is pinned by the integration suites.
    pub fn host_views_cached(
        &mut self,
        granularity: PlacementGranularity,
        now: SimTime,
    ) -> (&[HostView], &CandidateIndex) {
        // Destructure so the cache can be borrowed mutably while the
        // bookkeeping arrays it reads stay immutably borrowed.
        let Cloud {
            topo,
            node_virtual_cap,
            node_alloc,
            node_vms,
            node_contention,
            node_departure_sum_ms,
            bb_virtual_cap,
            bb_alloc,
            reserved_bbs,
            view_cache,
            ..
        } = self;
        let world = WorldRefs {
            topo: &*topo,
            node_virtual_cap: &node_virtual_cap[..],
            node_alloc: &node_alloc[..],
            node_vms: &node_vms[..],
            node_contention: &node_contention[..],
            node_departure_sum_ms: &node_departure_sum_ms[..],
            bb_virtual_cap: &bb_virtual_cap[..],
            bb_alloc: &bb_alloc[..],
            reserved_bbs: &*reserved_bbs,
        };
        match granularity {
            PlacementGranularity::Node => view_cache.refresh_node(&world, now),
            PlacementGranularity::BuildingBlock => view_cache.refresh_bb(&world, now),
        }
    }

    /// Activity counters of the incremental host-view cache: refresh and
    /// hit/dirty rates per layer, for the engine-health metrics export.
    /// Observational only — reading them cannot affect placement.
    pub fn view_cache_stats(&self) -> crate::viewcache::HostViewCacheStats {
        self.view_cache.stats()
    }

    /// Pick a node for `resources` inside `bb` the way VMware's initial
    /// placement does: the active node with the lowest CPU allocation
    /// ratio that fits. Returns `None` when the block is fragmented
    /// (aggregate room but no single node fits) or full.
    pub fn choose_node_within_bb(&self, bb: BbId, resources: &Resources) -> Option<NodeId> {
        let mut best: Option<(NodeId, f64)> = None;
        for &nid in &self.topo.bb(bb).nodes {
            if self.topo.node(nid).state != NodeState::Active {
                continue;
            }
            let free =
                self.node_virtual_cap[nid.index()].saturating_sub(&self.node_alloc[nid.index()]);
            if !free.fits(resources) {
                continue;
            }
            let cap = self.node_virtual_cap[nid.index()];
            let ratio = if cap.cpu_cores > 0 {
                self.node_alloc[nid.index()].cpu_cores as f64 / cap.cpu_cores as f64
            } else {
                0.0
            };
            if best.is_none_or(|(_, r)| ratio < r) {
                best = Some((nid, ratio));
            }
        }
        best.map(|(n, _)| n)
    }

    /// Commit a VM onto a node. The caller must have verified fit (the
    /// scheduler's filters / `choose_node_within_bb` do); this method
    /// enforces it again and panics on violation, because silently
    /// overcommitting *requested* resources would corrupt every
    /// downstream measurement.
    pub fn place(&mut self, spec_index: usize, spec: &VmSpec, node: NodeId, rng: SimRng) {
        let free =
            self.node_virtual_cap[node.index()].saturating_sub(&self.node_alloc[node.index()]);
        assert!(
            free.fits(&spec.resources),
            "placement on {node} violates capacity: free={free}, request={}",
            spec.resources
        );
        let departure = spec.departure();
        self.node_alloc[node.index()] += spec.resources;
        self.node_vms[node.index()].push(spec.id);
        self.node_departure_sum_ms[node.index()] += departure.as_millis() as f64;
        let bb = self.topo.node(node).bb;
        self.bb_alloc[bb.index()] += spec.resources;
        self.view_cache.mark_node(node.index(), bb.index());
        *self.slot_entry_mut(spec.id, "placement") = Some(PlacedVm {
            spec_index,
            id: spec.id,
            node,
            resources: spec.resources,
            usage_state: UsageState::new(),
            rng,
            last_cpu_demand_cores: 0.0,
            last_mem_used_mib: 0.0,
            last_disk_used_gib: 0.0,
            departure,
            movable: spec.class != WorkloadClass::Hana,
        });
        self.vm_count += 1;
    }

    /// Re-admit a previously [`remove`](Cloud::remove)d VM onto `node` —
    /// the restart half of a fault evacuation. Unlike [`place`](Cloud::place)
    /// this preserves the VM's demand-model state and RNG stream, so the
    /// restarted VM keeps drawing the same usage trajectory it would have
    /// on its failed host. Same capacity contract as `place`: the caller
    /// must have verified fit through the scheduling pipeline; violations
    /// panic.
    pub(crate) fn readmit(&mut self, mut vm: PlacedVm, node: NodeId) {
        let free =
            self.node_virtual_cap[node.index()].saturating_sub(&self.node_alloc[node.index()]);
        assert!(
            free.fits(&vm.resources),
            "readmission on {node} violates capacity: free={free}, request={}",
            vm.resources
        );
        self.node_alloc[node.index()] += vm.resources;
        self.node_vms[node.index()].push(vm.id);
        self.node_departure_sum_ms[node.index()] += vm.departure.as_millis() as f64;
        let bb = self.topo.node(node).bb;
        self.bb_alloc[bb.index()] += vm.resources;
        self.view_cache.mark_node(node.index(), bb.index());
        vm.node = node;
        let id = vm.id;
        *self.slot_entry_mut(id, "readmission") = Some(vm);
        self.vm_count += 1;
    }

    /// Remove a VM (deletion at end of lifetime). Returns its final state,
    /// or `None` if the id is unknown (e.g. the VM was never placed).
    pub fn remove(&mut self, id: VmId) -> Option<PlacedVm> {
        let vm = self.vm_slots.get_mut(id.raw() as usize)?.take()?;
        self.vm_count -= 1;
        let node = vm.node;
        self.node_alloc[node.index()] -= vm.resources;
        self.node_vms[node.index()].retain(|&v| v != id);
        self.node_departure_sum_ms[node.index()] -= vm.departure.as_millis() as f64;
        let bb = self.topo.node(node).bb;
        self.bb_alloc[bb.index()] -= vm.resources;
        self.view_cache.mark_node(node.index(), bb.index());
        Some(vm)
    }

    /// Migrate a VM to another node. Fails (returns `false`, state
    /// unchanged) if the destination lacks room for the VM's *requested*
    /// resources.
    pub fn migrate(&mut self, id: VmId, to: NodeId) -> bool {
        let Some(vm) = self.vm(id) else {
            return false;
        };
        let from = vm.node;
        if from == to {
            return false;
        }
        let resources = vm.resources;
        let free = self.node_virtual_cap[to.index()].saturating_sub(&self.node_alloc[to.index()]);
        if !free.fits(&resources) {
            return false;
        }
        let departure_ms = vm.departure.as_millis() as f64;
        self.node_alloc[from.index()] -= resources;
        self.node_vms[from.index()].retain(|&v| v != id);
        self.node_departure_sum_ms[from.index()] -= departure_ms;
        let from_bb = self.topo.node(from).bb;
        self.bb_alloc[from_bb.index()] -= resources;

        self.node_alloc[to.index()] += resources;
        self.node_vms[to.index()].push(id);
        self.node_departure_sum_ms[to.index()] += departure_ms;
        let to_bb = self.topo.node(to).bb;
        self.bb_alloc[to_bb.index()] += resources;

        self.view_cache.mark_node(from.index(), from_bb.index());
        self.view_cache.mark_node(to.index(), to_bb.index());
        self.vm_mut(id).expect("checked above").node = to;
        true
    }

    /// Resize a VM in place: swap its requested resources for `new` on its
    /// current node. Fails (state unchanged) if the node cannot hold the
    /// new size; the caller then falls back to resize-with-migration via
    /// the placement pipeline, like Nova's resize re-schedule.
    pub fn resize_in_place(&mut self, id: VmId, new: Resources) -> bool {
        let Some(vm) = self.vm(id) else {
            return false;
        };
        let node = vm.node;
        let old = vm.resources;
        let after = self.node_alloc[node.index()].saturating_sub(&old) + new;
        if !self.node_virtual_cap[node.index()].fits(&after) {
            return false;
        }
        self.node_alloc[node.index()] = after;
        let bb = self.topo.node(node).bb;
        self.bb_alloc[bb.index()] = self.bb_alloc[bb.index()].saturating_sub(&old) + new;
        self.view_cache.mark_node(node.index(), bb.index());
        self.vm_mut(id).expect("checked above").resources = new;
        true
    }

    /// Resize-with-migration: move the VM to `to` with its *new* size in
    /// one atomic step (Nova's resize re-schedule). Fails unchanged if the
    /// destination cannot hold the new size.
    pub(crate) fn resize_to_node(&mut self, id: VmId, new: Resources, to: NodeId) -> bool {
        let Some(vm) = self.vm(id) else {
            return false;
        };
        let from = vm.node;
        let old = vm.resources;
        if from == to {
            return self.resize_in_place(id, new);
        }
        let free = self.node_virtual_cap[to.index()].saturating_sub(&self.node_alloc[to.index()]);
        if !free.fits(&new) {
            return false;
        }
        let departure_ms = vm.departure.as_millis() as f64;
        self.node_alloc[from.index()] -= old;
        self.node_vms[from.index()].retain(|&v| v != id);
        self.node_departure_sum_ms[from.index()] -= departure_ms;
        let from_bb = self.topo.node(from).bb;
        self.bb_alloc[from_bb.index()] -= old;

        self.node_alloc[to.index()] += new;
        self.node_vms[to.index()].push(id);
        self.node_departure_sum_ms[to.index()] += departure_ms;
        let to_bb = self.topo.node(to).bb;
        self.bb_alloc[to_bb.index()] += new;

        self.view_cache.mark_node(from.index(), from_bb.index());
        self.view_cache.mark_node(to.index(), to_bb.index());
        let vm = self.vm_mut(id).expect("checked above");
        vm.node = to;
        vm.resources = new;
        true
    }

    /// Copy out the full mutable state. Pure read — the cloud is
    /// untouched and the image shares no mutable state with it.
    pub(crate) fn capture_state(&self) -> CloudState {
        CloudState {
            node_states: self.topo.nodes().iter().map(|n| n.state).collect(),
            node_alloc: self.node_alloc.clone(),
            node_vms: self.node_vms.clone(),
            node_contention: self.node_contention.clone(),
            node_departure_sum_ms: self.node_departure_sum_ms.clone(),
            bb_alloc: self.bb_alloc.clone(),
            vm_slots: self.vm_slots.clone(),
            vm_count: self.vm_count,
            reserved_bbs: self.reserved_bbs.iter().copied().collect(),
        }
    }

    /// Cross-check every accounting invariant; used by tests and debug
    /// assertions. Expensive — O(VMs). A violation surfaces as
    /// [`SimError::Topology`].
    pub fn verify_accounting(&self, specs: &[VmSpec]) -> Result<(), SimError> {
        let violation = |msg: String| Err(SimError::Topology(msg));
        let mut node_sum = vec![Resources::ZERO; self.topo.nodes().len()];
        let mut bb_sum = vec![Resources::ZERO; self.topo.bbs().len()];
        for vm in self.vm_slots.iter().flatten() {
            debug_assert!(vm.spec_index < specs.len());
            node_sum[vm.node.index()] += vm.resources;
            bb_sum[self.topo.node(vm.node).bb.index()] += vm.resources;
            if !self.node_vms[vm.node.index()].contains(&vm.id) {
                return violation(format!(
                    "{} missing from residency list of {}",
                    vm.id, vm.node
                ));
            }
        }
        for (i, expect) in node_sum.iter().enumerate() {
            if self.node_alloc[i] != *expect {
                return violation(format!(
                    "node {i} allocation drift: tracked={}, actual={expect}",
                    self.node_alloc[i]
                ));
            }
            if !self.node_virtual_cap[i].fits(expect) {
                return violation(format!("node {i} over-allocated: {expect}"));
            }
        }
        for (i, expect) in bb_sum.iter().enumerate() {
            if self.bb_alloc[i] != *expect {
                return violation(format!(
                    "bb {i} allocation drift: tracked={}, actual={expect}",
                    self.bb_alloc[i]
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sapsim_json::ToJson;
    use sapsim_sim::SimDuration;
    use sapsim_topology::{BbPurpose, HardwareProfile, OvercommitPolicy};
    use sapsim_workload::{Archetype, UsageModel};

    fn tiny_cloud() -> (Cloud, Vec<VmSpec>) {
        let mut topo = Topology::new();
        let r = topo.add_region();
        let az = topo.add_az(r, "az-a");
        let dc = topo.add_dc(az, "A");
        topo.add_bb(
            dc,
            "a-bb0",
            BbPurpose::GeneralPurpose,
            HardwareProfile::general_purpose(),
            OvercommitPolicy::general_purpose(),
            3,
        );
        (Cloud::new(topo), Vec::new())
    }

    fn spec(id: u64, cpu: u32, mem_gib: u64, lifetime_days: u64) -> VmSpec {
        let mut rng = SimRng::seed_from(id);
        VmSpec {
            id: VmId(id),
            flavor_index: 0,
            flavor_name: "t".into(),
            resources: Resources::with_memory_gib(cpu, mem_gib, 10),
            archetype: Archetype::GenericService,
            class: WorkloadClass::GeneralPurpose,
            usage: UsageModel::draw(Archetype::GenericService, &mut rng),
            arrival: SimTime::ZERO,
            age_at_arrival: SimDuration::ZERO,
            lifetime: SimDuration::from_days(lifetime_days),
            resize: None,
        }
    }

    #[test]
    fn place_updates_all_accounting() {
        let (mut cloud, mut specs) = tiny_cloud();
        let s = spec(0, 4, 32, 10);
        let node = cloud.topology().bbs()[0].nodes[0];
        specs.push(s.clone());
        cloud.place(0, &s, node, SimRng::seed_from(1));
        assert_eq!(cloud.vm_count(), 1);
        assert_eq!(cloud.node_allocated(node).cpu_cores, 4);
        assert_eq!(cloud.bb_allocated(BbId::from_raw(0)).cpu_cores, 4);
        assert_eq!(cloud.vms_on_node(node), &[VmId(0)]);
        cloud.verify_accounting(&specs).unwrap();
    }

    #[test]
    fn remove_releases_everything() {
        let (mut cloud, mut specs) = tiny_cloud();
        let s = spec(0, 4, 32, 10);
        let node = cloud.topology().bbs()[0].nodes[0];
        specs.push(s.clone());
        cloud.place(0, &s, node, SimRng::seed_from(1));
        let vm = cloud.remove(VmId(0)).unwrap();
        assert_eq!(vm.node, node);
        assert_eq!(cloud.vm_count(), 0);
        assert!(cloud.node_allocated(node).is_zero());
        assert!(cloud.bb_allocated(BbId::from_raw(0)).is_zero());
        cloud.verify_accounting(&specs).unwrap();
        assert!(cloud.remove(VmId(0)).is_none());
    }

    #[test]
    fn readmit_restores_accounting_and_preserves_vm_state() {
        let (mut cloud, mut specs) = tiny_cloud();
        let s = spec(0, 4, 32, 10);
        let from = cloud.topology().bbs()[0].nodes[0];
        let to = cloud.topology().bbs()[0].nodes[1];
        specs.push(s.clone());
        cloud.place(0, &s, from, SimRng::seed_from(1));
        let before = cloud.vm(VmId(0)).unwrap().clone();

        // Fault evacuation: remove off the failing host, readmit elsewhere.
        let vm = cloud.remove(VmId(0)).unwrap();
        cloud.readmit(vm, to);
        assert_eq!(cloud.vm_count(), 1);
        assert!(cloud.node_allocated(from).is_zero());
        assert_eq!(cloud.node_allocated(to).cpu_cores, 4);
        assert_eq!(cloud.vms_on_node(to), &[VmId(0)]);
        let after = cloud.vm(VmId(0)).unwrap();
        assert_eq!(after.node, to);
        assert_eq!(after.departure, before.departure);
        assert_eq!(after.resources, before.resources);
        cloud.verify_accounting(&specs).unwrap();
    }

    #[test]
    #[should_panic(expected = "duplicate placement of")]
    fn duplicate_placement_panics() {
        let (mut cloud, _) = tiny_cloud();
        let s = spec(0, 4, 32, 10);
        let node = cloud.topology().bbs()[0].nodes[0];
        cloud.place(0, &s, node, SimRng::seed_from(1));
        cloud.place(0, &s, node, SimRng::seed_from(1));
    }

    #[test]
    #[should_panic(expected = "duplicate readmission of")]
    fn duplicate_readmission_panics() {
        let (mut cloud, _) = tiny_cloud();
        let s = spec(0, 4, 32, 10);
        let node = cloud.topology().bbs()[0].nodes[0];
        cloud.place(0, &s, node, SimRng::seed_from(1));
        let ghost = cloud.vm(VmId(0)).unwrap().clone();
        cloud.readmit(ghost, node);
    }

    #[test]
    #[should_panic(expected = "violates capacity")]
    fn readmit_enforces_capacity() {
        let (mut cloud, _) = tiny_cloud();
        let s = spec(0, 4, 32, 10);
        let filler = spec(1, 1, 768, 10);
        let n0 = cloud.topology().bbs()[0].nodes[0];
        let n1 = cloud.topology().bbs()[0].nodes[1];
        cloud.place(0, &s, n0, SimRng::seed_from(1));
        cloud.place(1, &filler, n1, SimRng::seed_from(2));
        let vm = cloud.remove(VmId(0)).unwrap();
        cloud.readmit(vm, n1);
    }

    #[test]
    fn migrate_moves_allocation() {
        let (mut cloud, mut specs) = tiny_cloud();
        let s = spec(0, 4, 32, 10);
        let from = cloud.topology().bbs()[0].nodes[0];
        let to = cloud.topology().bbs()[0].nodes[1];
        specs.push(s.clone());
        cloud.place(0, &s, from, SimRng::seed_from(1));
        assert!(cloud.migrate(VmId(0), to));
        assert!(cloud.node_allocated(from).is_zero());
        assert_eq!(cloud.node_allocated(to).cpu_cores, 4);
        assert_eq!(cloud.vm(VmId(0)).unwrap().node, to);
        cloud.verify_accounting(&specs).unwrap();
        // Self-migration and unknown ids are no-ops.
        assert!(!cloud.migrate(VmId(0), to));
        assert!(!cloud.migrate(VmId(9), from));
    }

    #[test]
    fn migrate_rejects_full_destination() {
        let (mut cloud, mut specs) = tiny_cloud();
        // Fill node 1's memory entirely (768 GiB, no overcommit on memory).
        let filler = spec(1, 1, 768, 10);
        let n0 = cloud.topology().bbs()[0].nodes[0];
        let n1 = cloud.topology().bbs()[0].nodes[1];
        specs.push(spec(0, 4, 32, 10));
        specs.push(filler.clone());
        cloud.place(1, &filler, n1, SimRng::seed_from(2));
        cloud.place(0, &specs[0], n0, SimRng::seed_from(1));
        assert!(!cloud.migrate(VmId(0), n1));
        assert_eq!(cloud.vm(VmId(0)).unwrap().node, n0);
        cloud.verify_accounting(&specs).unwrap();
    }

    #[test]
    #[should_panic(expected = "violates capacity")]
    fn overcommitting_requested_resources_panics() {
        let (mut cloud, _) = tiny_cloud();
        let huge = spec(0, 10_000, 32, 10);
        let node = cloud.topology().bbs()[0].nodes[0];
        cloud.place(0, &huge, node, SimRng::seed_from(1));
    }

    #[test]
    fn choose_node_prefers_least_loaded() {
        let (mut cloud, _) = tiny_cloud();
        let bb = BbId::from_raw(0);
        let s0 = spec(0, 100, 32, 10);
        let n = cloud.choose_node_within_bb(bb, &s0.resources).unwrap();
        cloud.place(0, &s0, n, SimRng::seed_from(1));
        // Next choice avoids the loaded node.
        let n2 = cloud
            .choose_node_within_bb(bb, &Resources::with_memory_gib(4, 8, 1))
            .unwrap();
        assert_ne!(n, n2);
    }

    #[test]
    fn choose_node_detects_fragmentation() {
        let (mut cloud, _) = tiny_cloud();
        let bb = BbId::from_raw(0);
        // Fill each node's memory to 700 GiB of 768: aggregate free memory
        // is 3×68 GiB = 204 GiB, but no node can host a 100 GiB VM.
        for (i, &node) in cloud.topology().bbs()[0].nodes.clone().iter().enumerate() {
            let filler = spec(i as u64, 1, 700, 10);
            cloud.place(i, &filler, node, SimRng::seed_from(i as u64));
        }
        let req = Resources::with_memory_gib(1, 100, 1);
        assert_eq!(cloud.choose_node_within_bb(bb, &req), None);
    }

    #[test]
    fn maintenance_nodes_are_skipped() {
        let (mut cloud, _) = tiny_cloud();
        let bb = BbId::from_raw(0);
        let nodes = cloud.topology().bbs()[0].nodes.clone();
        // Mark all but one node as in maintenance.
        for &n in &nodes[..2] {
            // Cloud doesn't expose node_mut; mutate through the topology
            // accessor used by the driver for maintenance events.
            cloud.topo.node_mut(n).state = NodeState::Maintenance;
        }
        let chosen = cloud
            .choose_node_within_bb(bb, &Resources::with_memory_gib(1, 1, 1))
            .unwrap();
        assert_eq!(chosen, nodes[2]);
    }

    #[test]
    fn bb_views_aggregate_cluster_state() {
        let (mut cloud, _) = tiny_cloud();
        let s = spec(0, 4, 32, 20);
        let node = cloud.topology().bbs()[0].nodes[0];
        cloud.place(0, &s, node, SimRng::seed_from(1));
        cloud.set_node_contention(node, 30.0);
        let views = cloud.host_views(PlacementGranularity::BuildingBlock, SimTime::ZERO);
        assert_eq!(views.len(), 1);
        let v = &views[0];
        assert_eq!(v.node, None);
        assert_eq!(v.allocated.cpu_cores, 4);
        assert_eq!(v.capacity.cpu_cores, 192 * 3);
        assert!((v.contention_pct - 10.0).abs() < 1e-9, "mean of 30,0,0");
        assert!((v.mean_remaining_lifetime_days - 20.0).abs() < 0.01);
    }

    #[test]
    fn node_views_expose_individual_nodes() {
        let (cloud, _) = tiny_cloud();
        let views = cloud.host_views(PlacementGranularity::Node, SimTime::ZERO);
        assert_eq!(views.len(), 3);
        assert!(views.iter().all(|v| v.node.is_some()));
        assert!(views.iter().all(|v| v.capacity.cpu_cores == 192));
    }

    #[test]
    fn mean_remaining_lifetime_decays_with_time() {
        let (mut cloud, _) = tiny_cloud();
        let s = spec(0, 4, 32, 20);
        let node = cloud.topology().bbs()[0].nodes[0];
        cloud.place(0, &s, node, SimRng::seed_from(1));
        let at0 = cloud.node_mean_remaining_lifetime_days(node, SimTime::ZERO);
        let at10 = cloud.node_mean_remaining_lifetime_days(node, SimTime::from_days(10));
        assert!((at0 - 20.0).abs() < 0.01);
        assert!((at10 - 10.0).abs() < 0.01);
        assert_eq!(
            cloud.node_mean_remaining_lifetime_days(
                cloud.topology().bbs()[0].nodes[1],
                SimTime::ZERO
            ),
            0.0
        );
    }

    #[test]
    fn resize_in_place_updates_accounting() {
        let (mut cloud, mut specs) = tiny_cloud();
        let s = spec(0, 4, 32, 10);
        let node = cloud.topology().bbs()[0].nodes[0];
        specs.push(s.clone());
        cloud.place(0, &s, node, SimRng::seed_from(1));
        let new = Resources::with_memory_gib(8, 64, 10);
        assert!(cloud.resize_in_place(VmId(0), new));
        assert_eq!(cloud.node_allocated(node).cpu_cores, 8);
        assert_eq!(cloud.bb_allocated(BbId::from_raw(0)).memory_mib, 64 * 1024);
        assert_eq!(cloud.vm(VmId(0)).unwrap().resources, new);
        cloud.verify_accounting(&specs).unwrap();
    }

    #[test]
    fn resize_in_place_fails_without_room() {
        let (mut cloud, mut specs) = tiny_cloud();
        // Fill the node's memory to 700 of 768 GiB, then try to grow a
        // 32 GiB VM to 100 GiB.
        let filler = spec(1, 1, 668, 10);
        let s = spec(0, 4, 32, 10);
        let node = cloud.topology().bbs()[0].nodes[0];
        specs.push(s.clone());
        specs.push(filler.clone());
        cloud.place(1, &filler, node, SimRng::seed_from(2));
        cloud.place(0, &s, node, SimRng::seed_from(1));
        let new = Resources::with_memory_gib(4, 101, 10);
        assert!(!cloud.resize_in_place(VmId(0), new));
        assert_eq!(
            cloud.vm(VmId(0)).unwrap().resources,
            s.resources,
            "failed resize leaves state unchanged"
        );
        cloud.verify_accounting(&specs).unwrap();
    }

    fn assert_cache_coherent(cloud: &mut Cloud, now: SimTime) {
        for granularity in [
            PlacementGranularity::Node,
            PlacementGranularity::BuildingBlock,
        ] {
            let naive = cloud.host_views(granularity, now);
            let (cached, index) = cloud.host_views_cached(granularity, now);
            assert_eq!(cached, &naive[..], "{granularity:?} views diverged");
            assert_eq!(index.len(), naive.len());
            for bucket in index.buckets() {
                let expect = bucket
                    .hosts
                    .iter()
                    .filter(|&&h| !naive[h as usize].enabled)
                    .count() as u32;
                assert_eq!(
                    bucket.disabled, expect,
                    "{granularity:?} bucket disabled count drift"
                );
            }
        }
    }

    #[test]
    fn cached_views_track_every_mutator() {
        let (mut cloud, _) = tiny_cloud();
        let nodes = cloud.topology().bbs()[0].nodes.clone();
        let mut now = SimTime::ZERO;
        assert_cache_coherent(&mut cloud, now);

        cloud.place(0, &spec(0, 4, 32, 20), nodes[0], SimRng::seed_from(1));
        assert_cache_coherent(&mut cloud, now);

        // Time-only advance: no dirty entries, but the lifetime column
        // must still follow `now`.
        now = SimTime::from_days(1);
        assert_cache_coherent(&mut cloud, now);

        cloud.set_node_contention(nodes[1], 35.0);
        cloud.migrate(VmId(0), nodes[2]);
        assert_cache_coherent(&mut cloud, now);

        cloud.set_node_state(nodes[2], NodeState::Failed);
        assert_cache_coherent(&mut cloud, now);
        cloud.set_node_state(nodes[2], NodeState::Active);

        cloud.resize_in_place(VmId(0), Resources::with_memory_gib(8, 64, 10));
        cloud.resize_to_node(VmId(0), Resources::with_memory_gib(2, 16, 10), nodes[1]);
        assert_cache_coherent(&mut cloud, now);

        cloud.set_bb_reserved(BbId::from_raw(0), true);
        assert_cache_coherent(&mut cloud, now);
        cloud.set_bb_reserved(BbId::from_raw(0), false);

        cloud.remove(VmId(0));
        now = SimTime::from_days(2);
        assert_cache_coherent(&mut cloud, now);
    }

    #[test]
    fn cached_index_tracks_reservation_and_state_disabling() {
        let (mut cloud, _) = tiny_cloud();
        let now = SimTime::ZERO;
        // Prime both layers.
        assert_cache_coherent(&mut cloud, now);

        // Reserving the only block disables the BB entry and all nodes.
        cloud.set_bb_reserved(BbId::from_raw(0), true);
        {
            let (views, index) = cloud.host_views_cached(PlacementGranularity::Node, now);
            assert!(views.iter().all(|v| !v.enabled));
            assert_eq!(index.buckets().iter().map(|b| b.disabled).sum::<u32>(), 3);
        }
        cloud.set_bb_reserved(BbId::from_raw(0), false);
        assert_cache_coherent(&mut cloud, now);

        // A failed node disables its node entry; the block stays enabled
        // while any sibling is active.
        let node = cloud.topology().bbs()[0].nodes[0];
        cloud.set_node_state(node, NodeState::Failed);
        {
            let (views, _) = cloud.host_views_cached(PlacementGranularity::BuildingBlock, now);
            assert!(views[0].enabled, "one failed node must not disable the BB");
        }
        assert_cache_coherent(&mut cloud, now);
    }

    #[test]
    fn captured_state_round_trips_through_json_and_stays_detached() {
        let (mut cloud, mut specs) = tiny_cloud();
        let nodes = cloud.topology().bbs()[0].nodes.clone();
        specs.push(spec(0, 4, 32, 20));
        specs.push(spec(1, 2, 16, 5));
        cloud.place(0, &specs[0], nodes[0], SimRng::seed_from(1));
        cloud.place(1, &specs[1], nodes[1], SimRng::seed_from(2));
        cloud.set_node_contention(nodes[0], 42.5);
        cloud.set_node_state(nodes[2], NodeState::Maintenance);
        cloud.set_bb_reserved(BbId::from_raw(0), true);

        let state = cloud.capture_state();
        // The image holds every mutation, per-VM RNG streams and f64
        // bookkeeping included, and survives a trip through JSON.
        assert_eq!(state.vm_count, 2);
        assert_eq!(state.vm_slots[0].as_ref(), cloud.vm(VmId(0)));
        assert_eq!(state.node_contention[nodes[0].index()], 42.5);
        assert_eq!(state.node_states[nodes[2].index()], NodeState::Maintenance);
        assert_eq!(state.reserved_bbs, vec![BbId::from_raw(0)]);
        let parsed: CloudState = sapsim_json::decode(&state.to_json_string()).unwrap();
        assert_eq!(parsed, state);
        // Mutating the cloud afterwards leaves the image alone.
        cloud.remove(VmId(0)).unwrap();
        assert_eq!(state.vm_count, 2);
        assert_ne!(cloud.capture_state(), state);
    }

    #[test]
    fn shrinking_resize_always_succeeds() {
        let (mut cloud, mut specs) = tiny_cloud();
        let s = spec(0, 8, 64, 10);
        let node = cloud.topology().bbs()[0].nodes[0];
        specs.push(s.clone());
        cloud.place(0, &s, node, SimRng::seed_from(1));
        assert!(cloud.resize_in_place(VmId(0), Resources::with_memory_gib(2, 16, 10)));
        assert_eq!(cloud.node_allocated(node).cpu_cores, 2);
        cloud.verify_accounting(&specs).unwrap();
    }
}
