//! DRS's side: balancing inside each building block, and the optional
//! rebalancer across a data center's general-purpose blocks.

use super::{tally, Event, RunState};
use crate::cloud::Cloud;
use sapsim_obs::{Recorder, SpanKind};
use sapsim_scheduler::{HostLoad, VmLoad};
use sapsim_topology::{BbId, BbPurpose, NodeId, NodeState, Resources};
use sapsim_workload::VmId;

/// Return a round's host loads to the pool so the next round reuses their
/// VM vectors instead of reallocating them.
fn recycle_loads<I>(loads: &mut Vec<HostLoad<I>>, pool: &mut Vec<Vec<VmLoad>>) {
    for mut hl in loads.drain(..) {
        hl.vms.clear();
        pool.push(hl.vms);
    }
}

/// The rebalancers' view of `nodes` as one host `id`: `per_node` physical
/// capacity times the node count, and the cached demand of every VM on
/// them, gathered into a vector from `pool`.
fn host_load<I>(
    cloud: &Cloud,
    pool: &mut Vec<Vec<VmLoad>>,
    id: I,
    nodes: &[NodeId],
    per_node: Resources,
) -> HostLoad<I> {
    let mut vms = pool.pop().unwrap_or_default();
    for &node in nodes {
        for &vm_id in cloud.vms_on_node(node) {
            let vm = cloud.vm(vm_id).expect("resident");
            vms.push(VmLoad {
                vm_uid: vm_id.raw(),
                cpu_demand: vm.last_cpu_demand_cores,
                mem_used_mib: vm.last_mem_used_mib,
                movable: vm.movable,
            });
        }
    }
    let n = nodes.len() as f64;
    HostLoad {
        id,
        cpu_capacity: per_node.cpu_cores as f64 * n,
        mem_capacity_mib: per_node.memory_mib as f64 * n,
        vms,
    }
}

/// What one rebalancing pass did: the migrations it applied, the units
/// (building blocks for DRS, data centers across blocks) it gathered and
/// planned, and the units it skipped as unchanged since a quiet pass.
#[derive(Default)]
struct Pass {
    applied: u64,
    planned: u64,
    unchanged: u64,
}

/// Whether the unchanged-unit skip is on: always, except inside
/// `tests::with_every_unit_planned`, the oracle the skip is tested
/// against.
fn skip_unchanged() -> bool {
    #[cfg(test)]
    if tests::PLAN_EVERY_UNIT.get() {
        return false;
    }
    true
}

impl RunState {
    /// `DrsRound`: plan and apply migrations inside each building block,
    /// then schedule the next round.
    pub(super) fn drs_round<R: Recorder>(&mut self, rec: &mut R) {
        let pass = self.timed(rec, SpanKind::DrsRound, |st, _| st.drs_migrations());
        let applied = &mut self.stats.drs_migrations;
        tally(rec, applied, "drs_migrations", pass.applied);
        if R::ENABLED {
            rec.counter_add("drs_blocks_planned", pass.planned);
            rec.counter_add("drs_blocks_unchanged", pass.unchanged);
        }
        self.sim
            .schedule_after(self.cfg.drs_interval, Event::DrsRound);
    }

    /// `CrossBbRound`: rebalance each data center's general-purpose
    /// blocks, then schedule the next round.
    pub(super) fn cross_bb_round<R: Recorder>(&mut self, rec: &mut R) {
        let pass = self.timed(rec, SpanKind::CrossBbRound, |st, _| {
            st.cross_bb_migrations()
        });
        let applied = &mut self.stats.cross_bb_migrations;
        tally(rec, applied, "cross_bb_migrations", pass.applied);
        if R::ENABLED {
            rec.counter_add("cross_bb_dcs_planned", pass.planned);
            rec.counter_add("cross_bb_dcs_unchanged", pass.unchanged);
        }
        self.sim
            .schedule_after(self.cfg.cross_bb_interval, Event::CrossBbRound);
    }

    /// One DRS pass over every building block. A block whose epoch has
    /// not moved since it was last planned is skipped: that plan applied
    /// nothing (an applied migration advances the epoch), the plan is a
    /// pure function of the block's loads and node states, and a refused
    /// migration changes nothing, so the pass would apply nothing again.
    fn drs_migrations(&mut self) -> Pass {
        let RunState {
            engine,
            drs,
            scratch,
            ..
        } = self;
        let cloud = &mut engine.cloud;
        let mut pass = Pass::default();
        for bb_idx in 0..cloud.topology().bbs().len() {
            let bb = BbId::from_raw(bb_idx as u32);
            let epoch = cloud.bb_epoch(bb);
            if skip_unchanged() && scratch.drs_quiet[bb_idx] == epoch {
                pass.unchanged += 1;
                continue;
            }
            pass.planned += 1;
            recycle_loads(&mut scratch.node_loads, &mut scratch.vm_load_pool);
            for &nid in &cloud.topology().bb(bb).nodes {
                if cloud.topology().node(nid).state != NodeState::Active {
                    // A node out of service is empty, which is exactly
                    // what the rebalancer finds most attractive: it must
                    // not be offered as a migration target.
                    continue;
                }
                let physical = cloud.topology().node_physical_capacity(nid);
                let pool = &mut scratch.vm_load_pool;
                let load = host_load(cloud, pool, nid, &[nid], physical);
                scratch.node_loads.push(load);
            }
            // An applied migration advances the epoch past this record.
            scratch.drs_quiet[bb_idx] = epoch;
            if scratch.node_loads.len() >= 2 {
                for m in drs.plan(&scratch.node_loads).migrations {
                    if cloud.migrate(VmId(m.vm_uid), m.to) {
                        pass.applied += 1;
                    }
                }
            }
        }
        pass
    }

    /// One cross-BB pass per data center: rebalance general-purpose load
    /// across that DC's general-purpose blocks. A migration plan names a
    /// destination block; the actual node is chosen like any initial
    /// placement. A data center is skipped by the DRS rule, keyed on the
    /// sum of its general-purpose blocks' epochs: epochs only grow, so
    /// an equal sum means no block changed, and `choose_node_within_bb`
    /// reads only those blocks.
    fn cross_bb_migrations(&mut self) -> Pass {
        let RunState {
            engine,
            cross,
            scratch,
            ..
        } = self;
        let cloud = &mut engine.cloud;
        let mut pass = Pass::default();
        for dc_idx in 0..cloud.topology().dcs().len() {
            let dc = cloud.topology().dcs()[dc_idx].id;
            let general = |&bb: &BbId| cloud.topology().bb(bb).purpose == BbPurpose::GeneralPurpose;
            let blocks = &cloud.topology().dc(dc).bbs;
            let key: u64 = blocks
                .iter()
                .filter(|bb| general(bb))
                .map(|&bb| cloud.bb_epoch(bb))
                .sum();
            if skip_unchanged() && scratch.cross_quiet[dc_idx] == key {
                pass.unchanged += 1;
                continue;
            }
            pass.planned += 1;
            recycle_loads(&mut scratch.bb_loads, &mut scratch.vm_load_pool);
            for &bb in blocks.iter().filter(|bb| general(bb)) {
                let block = cloud.topology().bb(bb);
                let pool = &mut scratch.vm_load_pool;
                let load = host_load(cloud, pool, bb, &block.nodes, block.profile.physical);
                scratch.bb_loads.push(load);
            }
            scratch.cross_quiet[dc_idx] = key;
            if scratch.bb_loads.len() >= 2 {
                for m in cross.plan(&scratch.bb_loads).migrations {
                    let vm_id = VmId(m.vm_uid);
                    let resources = cloud.vm(vm_id).expect("planned VM exists").resources;
                    if let Some(node) = cloud.choose_node_within_bb(m.to, &resources) {
                        if cloud.migrate(vm_id, node) {
                            pass.applied += 1;
                        }
                    }
                }
            }
        }
        pass
    }
}

#[cfg(test)]
pub(super) mod tests {
    use std::cell::Cell;

    thread_local! {
        /// Set while [`with_every_unit_planned`] runs: both rebalancers
        /// then gather and plan every unit on every pass.
        pub(super) static PLAN_EVERY_UNIT: Cell<bool> = const { Cell::new(false) };
    }

    /// Run `f` with the unchanged-unit skip off on this thread.
    pub(in crate::driver) fn with_every_unit_planned<T>(f: impl FnOnce() -> T) -> T {
        PLAN_EVERY_UNIT.set(true);
        let out = f();
        PLAN_EVERY_UNIT.set(false);
        out
    }
}
