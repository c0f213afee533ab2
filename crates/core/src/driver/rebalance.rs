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

impl RunState {
    /// `DrsRound`: plan and apply migrations inside each building block,
    /// then schedule the next round.
    pub(super) fn drs_round<R: Recorder>(&mut self, rec: &mut R) {
        let migrated = self.timed(rec, SpanKind::DrsRound, |st, _| st.drs_migrations());
        let applied = &mut self.stats.drs_migrations;
        tally(rec, applied, "drs_migrations", migrated);
        self.sim
            .schedule_after(self.cfg.drs_interval, Event::DrsRound);
    }

    /// `CrossBbRound`: rebalance each data center's general-purpose
    /// blocks, then schedule the next round.
    pub(super) fn cross_bb_round<R: Recorder>(&mut self, rec: &mut R) {
        let migrated = self.timed(rec, SpanKind::CrossBbRound, |st, _| {
            st.cross_bb_migrations()
        });
        let applied = &mut self.stats.cross_bb_migrations;
        tally(rec, applied, "cross_bb_migrations", migrated);
        self.sim
            .schedule_after(self.cfg.cross_bb_interval, Event::CrossBbRound);
    }

    /// One DRS pass over every building block; the migrations applied.
    fn drs_migrations(&mut self) -> u64 {
        let RunState {
            engine,
            drs,
            scratch,
            ..
        } = self;
        let cloud = &mut engine.cloud;
        let mut applied = 0u64;
        for bb_idx in 0..cloud.topology().bbs().len() {
            let bb = BbId::from_raw(bb_idx as u32);
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
            if scratch.node_loads.len() < 2 {
                continue;
            }
            let plan = drs.plan(&scratch.node_loads);
            for m in plan.migrations {
                if cloud.migrate(VmId(m.vm_uid), m.to) {
                    applied += 1;
                }
            }
        }
        applied
    }

    /// One cross-BB pass per data center: rebalance general-purpose load
    /// across that DC's general-purpose blocks. A migration plan names a
    /// destination block; the actual node is chosen like any initial
    /// placement. Returns the migrations applied.
    fn cross_bb_migrations(&mut self) -> u64 {
        let RunState {
            engine,
            cross,
            scratch,
            ..
        } = self;
        let cloud = &mut engine.cloud;
        let mut applied = 0u64;
        for dc_idx in 0..cloud.topology().dcs().len() {
            recycle_loads(&mut scratch.bb_loads, &mut scratch.vm_load_pool);
            let dc = cloud.topology().dcs()[dc_idx].id;
            for &bb in &cloud.topology().dc(dc).bbs {
                let block = cloud.topology().bb(bb);
                if block.purpose != BbPurpose::GeneralPurpose {
                    continue;
                }
                let pool = &mut scratch.vm_load_pool;
                let load = host_load(cloud, pool, bb, &block.nodes, block.profile.physical);
                scratch.bb_loads.push(load);
            }
            if scratch.bb_loads.len() < 2 {
                continue;
            }
            let plan = cross.plan(&scratch.bb_loads);
            for m in plan.migrations {
                let vm_id = VmId(m.vm_uid);
                let resources = cloud.vm(vm_id).expect("planned VM exists").resources;
                if let Some(node) = cloud.choose_node_within_bb(m.to, &resources) {
                    if cloud.migrate(vm_id, node) {
                        applied += 1;
                    }
                }
            }
        }
        applied
    }
}
