//! Persistent host-view cache with dirty-set tracking.
//!
//! [`Cloud::host_views`](crate::Cloud::host_views) rebuilds every
//! candidate view from scratch on every call — O(hosts) work plus an
//! allocation per placement decision. This module keeps both granularity
//! snapshots (node and building block) alive across decisions: mutators
//! mark only the entries they touch, and a refresh recomputes exactly the
//! dirty rows plus a cheap `now`-dependent lifetime pass. The per-entry
//! arithmetic below mirrors the naive builders *operation for operation*
//! (including accumulation order), so a cached view is bit-identical to a
//! freshly built one — the contract the equivalence suites pin.
//!
//! Alongside each view slice the cache maintains a
//! [`CandidateIndex`] (purpose×AZ partition with per-bucket disabled
//! counts) so the filter stage can prune whole infeasible buckets while
//! keeping rejection attribution exact. Purpose and AZ are fixed at
//! build time; only the `enabled` flag is forwarded on refresh.

use sapsim_scheduler::{CandidateIndex, HostView};
use sapsim_sim::{SimTime, MILLIS_PER_DAY};
use sapsim_topology::{BbId, NodeState, Resources, Topology};
use sapsim_workload::VmId;
use std::collections::BTreeSet;

/// Borrowed snapshot of every `Cloud` field the view builders read.
/// Grouping them in one struct lets `Cloud::host_views_cached` hand the
/// cache disjoint borrows of its bookkeeping arrays while the cache
/// itself is borrowed mutably.
pub(crate) struct WorldRefs<'a> {
    pub topo: &'a Topology,
    pub node_virtual_cap: &'a [Resources],
    pub node_alloc: &'a [Resources],
    pub node_vms: &'a [Vec<VmId>],
    pub node_contention: &'a [f64],
    pub node_departure_sum_ms: &'a [f64],
    pub bb_virtual_cap: &'a [Resources],
    pub bb_alloc: &'a [Resources],
    pub reserved_bbs: &'a BTreeSet<BbId>,
}

/// Cumulative activity counters of one cache layer — how often the layer
/// was consulted and how much of it actually had to be recomputed. The
/// refresh/dirty ratio is the cache's effectiveness: a refresh touching
/// zero dirty rows is a pure hit. Observational only; nothing reads these
/// back into refresh behaviour.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerCacheStats {
    /// Refresh calls against an already-built snapshot.
    pub refreshes: u64,
    /// Refreshes that recomputed no dirty rows (lifetime-only or no-op).
    pub clean_refreshes: u64,
    /// Dirty rows recomputed across all refreshes.
    pub rows_recomputed: u64,
    /// Refreshes whose `now` moved, forcing the lifetime-column pass.
    pub lifetime_passes: u64,
    /// Full from-scratch builds (first use of the layer).
    pub full_builds: u64,
    /// Entries marked dirty by mutators (deduplicated per refresh cycle).
    pub marks: u64,
}

/// Both layers' [`LayerCacheStats`], as returned by
/// [`Cloud::view_cache_stats`](crate::Cloud::view_cache_stats).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HostViewCacheStats {
    /// Node-granularity layer.
    pub node: LayerCacheStats,
    /// Building-block-granularity layer.
    pub bb: LayerCacheStats,
}

/// Both granularity caches, owned by `Cloud`.
#[derive(Debug, Clone, Default)]
pub(crate) struct HostViewCache {
    node: LayerCache,
    bb: LayerCache,
}

impl HostViewCache {
    pub fn new() -> Self {
        Self::default()
    }

    /// Snapshot both layers' activity counters.
    pub fn stats(&self) -> HostViewCacheStats {
        HostViewCacheStats {
            node: self.node.stats,
            bb: self.bb.stats,
        }
    }

    /// Mark one node and its building block stale in both layers — the
    /// common hook for placement, removal, migration, resize, contention
    /// updates, and node state changes.
    pub fn mark_node(&mut self, node: usize, bb: usize) {
        self.node.mark(node);
        self.bb.mark(bb);
    }

    /// Mark a single node-layer entry stale (reservation flips use this
    /// per node, paired with one [`mark_bb_entry`](Self::mark_bb_entry)).
    pub fn mark_node_entry(&mut self, node: usize) {
        self.node.mark(node);
    }

    /// Mark a single BB-layer entry stale.
    pub fn mark_bb_entry(&mut self, bb: usize) {
        self.bb.mark(bb);
    }

    /// Refresh and return the node-granularity snapshot.
    pub fn refresh_node(
        &mut self,
        world: &WorldRefs<'_>,
        now: SimTime,
    ) -> (&[HostView], &CandidateIndex) {
        self.node.refresh(world, now, Granularity::Node)
    }

    /// Refresh and return the building-block-granularity snapshot.
    pub fn refresh_bb(
        &mut self,
        world: &WorldRefs<'_>,
        now: SimTime,
    ) -> (&[HostView], &CandidateIndex) {
        self.bb.refresh(world, now, Granularity::Bb)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Granularity {
    Node,
    Bb,
}

/// One cached snapshot: the views, their candidate index, and the
/// book-keeping to refresh only what changed.
#[derive(Debug, Clone, Default)]
struct LayerCache {
    built: bool,
    views: Vec<HostView>,
    index: CandidateIndex,
    /// BB layer only: the lifetime accumulators of the last full entry
    /// rebuild, so the `now`-only pass can recompute the mean without
    /// re-walking the block's nodes. Any mutation that changes these
    /// underlying sums also dirties the entry, keeping them current.
    life_sum_ms: Vec<f64>,
    life_count: Vec<usize>,
    /// The `now` the lifetime column currently reflects.
    now_ms: u64,
    dirty: Vec<bool>,
    dirty_list: Vec<u32>,
    stats: LayerCacheStats,
}

impl LayerCache {
    fn mark(&mut self, i: usize) {
        // Before the first build there is nothing to invalidate.
        if self.built && !self.dirty[i] {
            self.dirty[i] = true;
            self.dirty_list.push(i as u32);
            self.stats.marks += 1;
        }
    }

    fn refresh(
        &mut self,
        world: &WorldRefs<'_>,
        now: SimTime,
        granularity: Granularity,
    ) -> (&[HostView], &CandidateIndex) {
        let now_ms = now.as_millis();
        if !self.built {
            self.stats.full_builds += 1;
            self.build(world, now_ms, granularity);
            return (&self.views, &self.index);
        }
        self.stats.refreshes += 1;
        if self.dirty_list.is_empty() {
            self.stats.clean_refreshes += 1;
        } else {
            self.stats.rows_recomputed += self.dirty_list.len() as u64;
        }
        if self.now_ms != now_ms {
            self.stats.lifetime_passes += 1;
        }
        if self.now_ms != now_ms {
            // Time moved: only the lifetime column depends on `now`.
            // Recompute it for every entry with the exact arithmetic of
            // the full rebuild (the accumulators are cached, so this is
            // O(entries) arithmetic with no allocation).
            match granularity {
                Granularity::Node => {
                    for (i, v) in self.views.iter_mut().enumerate() {
                        v.mean_remaining_lifetime_days = node_mean_life(world, i, now_ms);
                    }
                }
                Granularity::Bb => {
                    for (i, v) in self.views.iter_mut().enumerate() {
                        v.mean_remaining_lifetime_days =
                            bb_mean_life(self.life_sum_ms[i], self.life_count[i], now_ms);
                    }
                }
            }
            self.now_ms = now_ms;
        }
        for &iu in &self.dirty_list {
            let i = iu as usize;
            let fresh = match granularity {
                Granularity::Node => node_view(world, i, now_ms),
                Granularity::Bb => {
                    let (v, life_sum, life_n) = bb_view(world, i, now_ms);
                    self.life_sum_ms[i] = life_sum;
                    self.life_count[i] = life_n;
                    v
                }
            };
            if fresh.enabled != self.views[i].enabled {
                self.index.set_enabled(i, fresh.enabled);
            }
            self.views[i] = fresh;
            self.dirty[i] = false;
        }
        self.dirty_list.clear();
        (&self.views, &self.index)
    }

    fn build(&mut self, world: &WorldRefs<'_>, now_ms: u64, granularity: Granularity) {
        match granularity {
            Granularity::Node => {
                let n = world.topo.nodes().len();
                self.views = (0..n).map(|i| node_view(world, i, now_ms)).collect();
            }
            Granularity::Bb => {
                let n = world.topo.bbs().len();
                self.views = Vec::with_capacity(n);
                self.life_sum_ms = Vec::with_capacity(n);
                self.life_count = Vec::with_capacity(n);
                for i in 0..n {
                    let (v, life_sum, life_n) = bb_view(world, i, now_ms);
                    self.views.push(v);
                    self.life_sum_ms.push(life_sum);
                    self.life_count.push(life_n);
                }
            }
        }
        self.index = CandidateIndex::build(&self.views);
        self.dirty = vec![false; self.views.len()];
        self.dirty_list.clear();
        self.now_ms = now_ms;
        self.built = true;
    }
}

/// One node-granularity view — mirrors the `Node` arm of
/// `Cloud::host_views` exactly.
fn node_view(world: &WorldRefs<'_>, i: usize, now_ms: u64) -> HostView {
    let n = &world.topo.nodes()[i];
    let bb = world.topo.bb(n.bb);
    HostView {
        bb: bb.id,
        node: Some(n.id),
        purpose: bb.purpose,
        az: world.topo.bb_az(bb.id),
        capacity: world.node_virtual_cap[i],
        allocated: world.node_alloc[i],
        enabled: n.state == NodeState::Active && !world.reserved_bbs.contains(&bb.id),
        contention_pct: world.node_contention[i],
        mean_remaining_lifetime_days: node_mean_life(world, i, now_ms),
    }
}

/// Mirrors `Cloud::node_mean_remaining_lifetime_days`.
fn node_mean_life(world: &WorldRefs<'_>, i: usize, now_ms: u64) -> f64 {
    let count = world.node_vms[i].len();
    if count == 0 {
        return 0.0;
    }
    let mean_departure_ms = world.node_departure_sum_ms[i] / count as f64;
    ((mean_departure_ms - now_ms as f64) / MILLIS_PER_DAY as f64).max(0.0)
}

/// One BB-granularity view plus its lifetime accumulators — mirrors the
/// `BuildingBlock` arm of `Cloud::host_views` exactly, including the node
/// iteration (= accumulation) order, so the floating-point results are
/// identical.
fn bb_view(world: &WorldRefs<'_>, bi: usize, now_ms: u64) -> (HostView, f64, usize) {
    let bb = &world.topo.bbs()[bi];
    let nodes = &bb.nodes;
    let (mut cont_sum, mut life_sum, mut life_n) = (0.0, 0.0, 0usize);
    let mut enabled = false;
    for &n in nodes {
        cont_sum += world.node_contention[n.index()];
        let c = world.node_vms[n.index()].len();
        if c > 0 {
            life_sum += world.node_departure_sum_ms[n.index()];
            life_n += c;
        }
        enabled |= world.topo.node(n).state == NodeState::Active;
    }
    let enabled = enabled && !world.reserved_bbs.contains(&bb.id);
    let view = HostView {
        bb: bb.id,
        node: None,
        purpose: bb.purpose,
        az: world.topo.bb_az(bb.id),
        capacity: world.bb_virtual_cap[bb.id.index()],
        allocated: world.bb_alloc[bb.id.index()],
        enabled,
        contention_pct: cont_sum / nodes.len().max(1) as f64,
        mean_remaining_lifetime_days: bb_mean_life(life_sum, life_n, now_ms),
    };
    (view, life_sum, life_n)
}

/// Mirrors the BB-arm lifetime expression of `Cloud::host_views`.
fn bb_mean_life(life_sum_ms: f64, life_n: usize, now_ms: u64) -> f64 {
    if life_n > 0 {
        ((life_sum_ms / life_n as f64 - now_ms as f64) / MILLIS_PER_DAY as f64).max(0.0)
    } else {
        0.0
    }
}
