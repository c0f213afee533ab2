//! Spatial partitioning of a run into per-region sub-simulations.
//!
//! The driver shards a multi-region estate along region boundaries: every
//! region's nodes, blocks, and DCs occupy one contiguous arena range (the
//! presets build regions sequentially), so a shard is three index ranges
//! plus the subset of state those ranges own. Each shard receives
//!
//! * a full-width [`CloudState`] whose *foreign* rows are emptied (slots
//!   `None`, allocations zero, residency lists cleared) — ids never need
//!   rebasing, and the AZ pin on every placement request keeps the empty
//!   foreign rows out of all candidate sets;
//! * the pending events its region owns, with their original global seq
//!   numbers, plus a replica of every periodic epoch event (scrape,
//!   gauges, rebalancer rounds) — the periodic handlers are restricted to
//!   the shard's index ranges, so replicas partition the work rather than
//!   repeat it;
//! * its region's pending-evacuation queue entries.
//!
//! Merging is the inverse, in fixed estate order: each region's rows come
//! from their owner shard, so the merged state — and therefore
//! `RunResult::canonical_bytes()` — is independent of worker count and
//! byte-identical to the sequential loop. The two driver statistics that
//! are *peaks of a global quantity* (concurrent VM count, pending-evac
//! queue depth) cannot be summed after the fact; shards instead log a
//! [`DeltaEntry`] per population-changing event and the merge replays the
//! logs in global event order ([`replay_population_peaks`]).

use crate::cloud::CloudState;
use crate::driver::Event;
use sapsim_sim::SimTime;
use sapsim_topology::{Resources, Topology};
use std::ops::Range;

/// The contiguous arena ranges one region owns. Produced by
/// [`region_spans`]; spans tile `0..len` of each arena in region order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct RegionSpan {
    /// Node-arena range.
    pub(crate) nodes: Range<usize>,
    /// Building-block-arena range.
    pub(crate) bbs: Range<usize>,
    /// Data-center-arena range.
    pub(crate) dcs: Range<usize>,
}

/// Execution context of one shard, carried on the shard's `RunState`:
/// the ranges its periodic handlers cover, the seq-number watershed
/// between pre-partition events (globally ordered) and shard-scheduled
/// ones, and the population-delta log the merge replays.
#[derive(Debug)]
pub(crate) struct ShardScope {
    /// The region's arena ranges.
    pub(crate) span: RegionSpan,
    /// `next_seq` at the partition instant: every pending event below
    /// this fired with a globally-comparable seq.
    pub(crate) pre_seq: u64,
    /// Population-changing events, in shard firing order.
    pub(crate) deltas: Vec<DeltaEntry>,
}

/// One population-changing event in a shard's delta log.
///
/// `order` is the event's global seq when it was pending at the
/// partition instant, else `u64::MAX`. That is a *total* order key at
/// equal timestamps: handler-scheduled events always carry seqs at or
/// above the watershed, so in the global run every pre-partition event
/// at an instant fires before every handler-scheduled one — and the two
/// peak sample points (VM arrival, host failure) are both scheduled at
/// build time, i.e. always in the globally-ordered class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct DeltaEntry {
    /// Fire time in ms.
    pub(crate) time_ms: u64,
    /// Global seq for pre-partition events, `u64::MAX` otherwise.
    pub(crate) order: u64,
    /// Change in the shard's live VM count.
    pub(crate) vm_delta: i64,
    /// Change in the shard's pending-evacuation queue length.
    pub(crate) pending_delta: i64,
    /// The global run samples `peak_vm_count` at this event.
    pub(crate) sample_vm: bool,
    /// The global run samples `evac_pending_peak` at this event.
    pub(crate) sample_pending: bool,
}

/// Estate-wide population state at the partition instant — the running
/// sums and peaks the delta replay continues from.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PopulationBase {
    /// Live VMs at partition.
    pub(crate) vm_count: usize,
    /// `peak_vm_count` already observed by the sequential prefix.
    pub(crate) peak_vm: usize,
    /// Pending-evacuation queue length at partition.
    pub(crate) pending: usize,
    /// `evac_pending_peak` already observed by the sequential prefix.
    pub(crate) pending_peak: u64,
}

/// Compute each region's contiguous arena ranges.
///
/// # Panics
/// Debug-asserts that every arena is tiled contiguously in region order —
/// the presets construct regions sequentially, so a gap means the
/// topology was not built by them and must not be sharded.
pub(crate) fn region_spans(topo: &Topology) -> Vec<RegionSpan> {
    let mut spans = Vec::with_capacity(topo.regions().len());
    let (mut next_node, mut next_bb, mut next_dc) = (0usize, 0usize, 0usize);
    for region in topo.regions() {
        let (node_start, bb_start, dc_start) = (next_node, next_bb, next_dc);
        for &az in &region.azs {
            for &dc in &topo.az(az).dcs {
                debug_assert_eq!(dc.index(), next_dc, "DC arena is not region-contiguous");
                next_dc += 1;
                for &bb in &topo.dc(dc).bbs {
                    debug_assert_eq!(bb.index(), next_bb, "BB arena is not region-contiguous");
                    next_bb += 1;
                    for &node in &topo.bb(bb).nodes {
                        debug_assert_eq!(
                            node.index(),
                            next_node,
                            "node arena is not region-contiguous"
                        );
                        next_node += 1;
                    }
                }
            }
        }
        spans.push(RegionSpan {
            nodes: node_start..next_node,
            bbs: bb_start..next_bb,
            dcs: dc_start..next_dc,
        });
    }
    debug_assert_eq!(next_node, topo.nodes().len(), "spans must tile the node arena");
    debug_assert_eq!(next_bb, topo.bbs().len(), "spans must tile the BB arena");
    debug_assert_eq!(next_dc, topo.dcs().len(), "spans must tile the DC arena");
    spans
}

/// Flatten spans into dense owner tables: `node_owner[i]` / `bb_owner[i]`
/// is the region that owns arena index `i` — the row-ownership key of the
/// telemetry merge.
pub(crate) fn owner_tables(spans: &[RegionSpan]) -> (Vec<u32>, Vec<u32>) {
    let nodes = spans.last().map_or(0, |s| s.nodes.end);
    let bbs = spans.last().map_or(0, |s| s.bbs.end);
    let mut node_owner = vec![0u32; nodes];
    let mut bb_owner = vec![0u32; bbs];
    for (r, span) in spans.iter().enumerate() {
        node_owner[span.nodes.clone()].fill(r as u32);
        bb_owner[span.bbs.clone()].fill(r as u32);
    }
    (node_owner, bb_owner)
}

/// Split the pending-event set by owning region, preserving each event's
/// original `(time, seq)`. Spatially-owned events go to exactly one
/// shard; the periodic epoch events (scrape, OS gauges, rebalancer
/// rounds) are replicated into every shard so each can drive its own
/// range of the shared schedule.
pub(crate) fn partition_events(
    events: &[(SimTime, u64, Event)],
    vm_region: &[u32],
    node_owner: &[u32],
    shard_count: usize,
) -> Vec<Vec<(SimTime, u64, Event)>> {
    let mut parts: Vec<Vec<(SimTime, u64, Event)>> = vec![Vec::new(); shard_count];
    for &(time, seq, payload) in events {
        match payload {
            Event::VmArrival(spec_index) => {
                parts[vm_region[spec_index] as usize].push((time, seq, payload));
            }
            Event::VmDeparture(id) | Event::VmResize(id) | Event::EvacRetry(id) => {
                parts[vm_region[id.raw() as usize] as usize].push((time, seq, payload));
            }
            Event::MaintenanceStart(node)
            | Event::MaintenanceEnd(node)
            | Event::HostFail(node)
            | Event::HostRecover(node) => {
                parts[node_owner[node.index()] as usize].push((time, seq, payload));
            }
            Event::Scrape | Event::OsGauge | Event::DrsRound | Event::CrossBbRound => {
                for part in &mut parts {
                    part.push((time, seq, payload));
                }
            }
        }
    }
    parts
}

/// Carve one region's shard state out of the estate-wide state: same
/// table widths, but every row outside the span emptied to what a fresh
/// unoccupied node would hold. Node operational states and contention
/// hints stay verbatim — foreign nodes are invisible to the shard's
/// AZ-pinned candidate sets either way, and keeping them makes the
/// partition trivially shape-valid.
pub(crate) fn partition_cloud_state(
    base: &CloudState,
    span: &RegionSpan,
    vm_region: &[u32],
    region: u32,
) -> CloudState {
    let mut node_alloc = base.node_alloc.clone();
    let mut node_vms = base.node_vms.clone();
    let mut node_departure_sum_ms = base.node_departure_sum_ms.clone();
    for i in 0..node_alloc.len() {
        if !span.nodes.contains(&i) {
            node_alloc[i] = Resources::ZERO;
            node_vms[i].clear();
            node_departure_sum_ms[i] = 0.0;
        }
    }
    let mut bb_alloc = base.bb_alloc.clone();
    for (i, alloc) in bb_alloc.iter_mut().enumerate() {
        if !span.bbs.contains(&i) {
            *alloc = Resources::ZERO;
        }
    }
    let vm_slots: Vec<_> = base
        .vm_slots
        .iter()
        .enumerate()
        .map(|(i, slot)| {
            if vm_region[i] == region {
                slot.clone()
            } else {
                None
            }
        })
        .collect();
    let vm_count = vm_slots.iter().flatten().count();
    CloudState {
        node_states: base.node_states.clone(),
        node_alloc,
        node_vms,
        node_contention: base.node_contention.clone(),
        node_departure_sum_ms,
        bb_alloc,
        vm_slots,
        vm_count,
        reserved_bbs: base.reserved_bbs.clone(),
    }
}

/// Reassemble the estate-wide state from drained shards, in fixed estate
/// order: every node/BB row comes from the region that owns it, every VM
/// slot from the region the VM was assigned to. The reserve-block set is
/// immutable after construction and identical in every shard.
pub(crate) fn merge_cloud_states(
    mut shards: Vec<CloudState>,
    spans: &[RegionSpan],
    vm_region: &[u32],
) -> CloudState {
    assert_eq!(shards.len(), spans.len(), "one shard state per region");
    let nodes = spans.last().map_or(0, |s| s.nodes.end);
    let bbs = spans.last().map_or(0, |s| s.bbs.end);
    let slots = shards[0].vm_slots.len();
    let mut merged = CloudState {
        node_states: Vec::with_capacity(nodes),
        node_alloc: Vec::with_capacity(nodes),
        node_vms: Vec::with_capacity(nodes),
        node_contention: Vec::with_capacity(nodes),
        node_departure_sum_ms: Vec::with_capacity(nodes),
        bb_alloc: Vec::with_capacity(bbs),
        vm_slots: Vec::with_capacity(slots),
        vm_count: 0,
        reserved_bbs: std::mem::take(&mut shards[0].reserved_bbs),
    };
    for (shard, span) in shards.iter_mut().zip(spans) {
        debug_assert_eq!(merged.node_states.len(), span.nodes.start);
        merged
            .node_states
            .extend_from_slice(&shard.node_states[span.nodes.clone()]);
        merged
            .node_alloc
            .extend_from_slice(&shard.node_alloc[span.nodes.clone()]);
        for i in span.nodes.clone() {
            merged.node_vms.push(std::mem::take(&mut shard.node_vms[i]));
        }
        merged
            .node_contention
            .extend_from_slice(&shard.node_contention[span.nodes.clone()]);
        merged
            .node_departure_sum_ms
            .extend_from_slice(&shard.node_departure_sum_ms[span.nodes.clone()]);
        merged
            .bb_alloc
            .extend_from_slice(&shard.bb_alloc[span.bbs.clone()]);
    }
    for (i, &region) in vm_region.iter().enumerate() {
        merged
            .vm_slots
            .push(shards[region as usize].vm_slots[i].take());
    }
    merged.vm_count = merged.vm_slots.iter().flatten().count();
    merged
}

/// Replay the shards' population-delta logs in global event order and
/// return the estate-wide `(peak_vm_count, evac_pending_peak)`.
///
/// Each log is already sorted by `(time, order)` — shards fire in
/// `(time, seq)` order and handler-scheduled events (`order == MAX`)
/// carry seqs above every pending one — so a linear k-way merge keyed on
/// `(time, order, region)` visits the entries exactly as the sequential
/// loop would have, and the running sums at each sample point equal the
/// global populations the sequential loop sampled.
pub(crate) fn replay_population_peaks(
    base: PopulationBase,
    logs: &[Vec<DeltaEntry>],
) -> (usize, u64) {
    let mut cursor = vec![0usize; logs.len()];
    let mut vm = base.vm_count as i64;
    let mut pending = base.pending as i64;
    let mut peak_vm = base.peak_vm as i64;
    let mut peak_pending = base.pending_peak as i64;
    loop {
        let mut next: Option<(u64, u64, usize)> = None;
        for (region, log) in logs.iter().enumerate() {
            if let Some(e) = log.get(cursor[region]) {
                let key = (e.time_ms, e.order, region);
                if next.is_none_or(|best| key < best) {
                    next = Some(key);
                }
            }
        }
        let Some((_, _, region)) = next else { break };
        let e = &logs[region][cursor[region]];
        cursor[region] += 1;
        vm += e.vm_delta;
        pending += e.pending_delta;
        debug_assert!(vm >= 0 && pending >= 0, "population went negative in replay");
        if e.sample_vm {
            peak_vm = peak_vm.max(vm);
        }
        if e.sample_pending {
            peak_pending = peak_pending.max(pending);
        }
    }
    (peak_vm as usize, peak_pending as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sapsim_json::ToJson;
    use crate::{SimConfig, SimDriver};
    use sapsim_sim::MILLIS_PER_DAY;
    use sapsim_topology::{paper_estate_replicated, NodeId, TopologyBuilder};
    use sapsim_workload::VmId;

    fn replicated_topo(replicas: usize) -> Topology {
        let builder = TopologyBuilder::new();
        paper_estate_replicated(0.02, replicas, 7, &builder).0
    }

    #[test]
    fn spans_tile_every_arena_in_region_order() {
        let topo = replicated_topo(3);
        let spans = region_spans(&topo);
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].nodes.start, 0);
        for pair in spans.windows(2) {
            assert_eq!(pair[0].nodes.end, pair[1].nodes.start);
            assert_eq!(pair[0].bbs.end, pair[1].bbs.start);
            assert_eq!(pair[0].dcs.end, pair[1].dcs.start);
        }
        assert_eq!(spans.last().unwrap().nodes.end, topo.nodes().len());
        assert_eq!(spans.last().unwrap().bbs.end, topo.bbs().len());
        assert_eq!(spans.last().unwrap().dcs.end, topo.dcs().len());

        let (node_owner, bb_owner) = owner_tables(&spans);
        assert_eq!(node_owner.len(), topo.nodes().len());
        assert_eq!(bb_owner.len(), topo.bbs().len());
        for (i, &owner) in node_owner.iter().enumerate() {
            assert!(spans[owner as usize].nodes.contains(&i));
        }
    }

    #[test]
    fn events_split_by_owner_and_periodics_replicate() {
        let t = SimTime::from_secs(60);
        let vm_region = vec![0u32, 1, 1];
        let node_owner = vec![0u32, 0, 1, 1];
        let events = vec![
            (t, 0, Event::VmArrival(2)),
            (t, 1, Event::VmDeparture(VmId(0))),
            (t, 2, Event::HostFail(NodeId::from_raw(3))),
            (t, 3, Event::Scrape),
            (t, 4, Event::DrsRound),
        ];
        let parts = partition_events(&events, &vm_region, &node_owner, 2);
        let payloads = |r: usize| -> Vec<Event> { parts[r].iter().map(|e| e.2).collect() };
        assert_eq!(
            payloads(0),
            vec![Event::VmDeparture(VmId(0)), Event::Scrape, Event::DrsRound]
        );
        assert_eq!(
            payloads(1),
            vec![
                Event::VmArrival(2),
                Event::HostFail(NodeId::from_raw(3)),
                Event::Scrape,
                Event::DrsRound
            ]
        );
        // Original (time, seq) pairs survive the split untouched.
        assert_eq!(parts[1][0], (t, 0, Event::VmArrival(2)));
    }

    #[test]
    fn cloud_partition_then_merge_is_identity_mid_run() {
        // A real mid-flight state: two replicated regions, one day in.
        let mut cfg = SimConfig::smoke_test();
        cfg.seed = 91;
        cfg.scale = cfg.scale.min(1.0);
        cfg.region_replicas = 2;
        let snap = SimDriver::new(cfg)
            .unwrap()
            .snapshot_at(SimTime::from_millis(MILLIS_PER_DAY + 4321))
            .unwrap();
        let base = &snap.cloud;
        assert!(base.vm_count > 0, "mid-run state must be populated");

        let mut builder = TopologyBuilder::new();
        builder.gp_cpu_overcommit = cfg.gp_cpu_overcommit;
        let w_topo =
            paper_estate_replicated(cfg.scale, cfg.region_replicas, cfg.seed, &builder).0;
        let spans = region_spans(&w_topo);
        // The driver's per-VM region stream is private; recover ownership
        // from where each VM actually sits (placement is region-local).
        let (node_owner, _) = owner_tables(&spans);
        let mut vm_region = vec![u32::MAX; base.vm_slots.len()];
        for (i, slot) in base.vm_slots.iter().enumerate() {
            if let Some(vm) = slot {
                vm_region[i] = node_owner[vm.node.index()];
            }
        }
        for p in &snap.pending {
            vm_region[p.vm.spec_index] = node_owner[p.vm.node.index()];
        }
        // Unplaced VMs can go anywhere; park them in region 0.
        for r in vm_region.iter_mut() {
            if *r == u32::MAX {
                *r = 0;
            }
        }

        let shards: Vec<CloudState> = (0..spans.len())
            .map(|r| partition_cloud_state(base, &spans[r], &vm_region, r as u32))
            .collect();
        let shard_total: usize = shards.iter().map(|s| s.vm_count).sum();
        assert_eq!(shard_total, base.vm_count, "partition conserves VMs");
        let merged = merge_cloud_states(shards, &spans, &vm_region);
        assert_eq!(
            merged.to_json_string(),
            base.to_json_string(),
            "partition → merge must be the identity on a quiescent state"
        );
    }

    #[test]
    fn replay_reconstructs_global_peaks_from_shard_logs() {
        let entry = |time_ms, order, vm_delta, pending_delta, sample_vm, sample_pending| {
            DeltaEntry {
                time_ms,
                order,
                vm_delta,
                pending_delta,
                sample_vm,
                sample_pending,
            }
        };
        // Region 0: two arrivals, then a handler-scheduled departure at
        // t=30 that must sort *after* region 1's arrival at the same
        // instant (build seq 7 < the post-partition watershed).
        let logs = vec![
            vec![
                entry(10, 1, 1, 0, true, false),
                entry(20, 4, 1, 0, true, false),
                entry(30, u64::MAX, -1, 0, false, false),
            ],
            vec![
                entry(15, 2, 1, 0, true, false),
                entry(30, 7, 1, 0, true, false),
                entry(40, 9, -2, 2, false, true),
            ],
        ];
        let base = PopulationBase {
            vm_count: 5,
            peak_vm: 6,
            pending: 1,
            pending_peak: 1,
        };
        // Running VM count: 5 →6 →7 →8 →(9 at t=30 seq 7, sampled) →8 →6.
        // Pending: 1 → 3 at t=40, sampled.
        let (peak_vm, peak_pending) = replay_population_peaks(base, &logs);
        assert_eq!(peak_vm, 9);
        assert_eq!(peak_pending, 3);
        // Without the order key the MAX-order departure would replay
        // before the seq-7 arrival and clip the peak to 8.
    }
}
