//! Nodes leaving and rejoining the fleet: maintenance windows, host
//! failures and recoveries, and the pending-evacuation queue.

use super::{tally, Event, PendingEvac, RunState};
use crate::cloud::PlacedVm;
use sapsim_faults::EVAC_BACKOFF_MAX_DOUBLINGS;
use sapsim_obs::{FaultEventKind, ObsEvent, Recorder};
use sapsim_sim::{SimDuration, SimTime};
use sapsim_topology::{NodeId, NodeState};
use sapsim_workload::VmId;

/// The driver's one `ObsEvent::Fault` construction.
#[inline(always)]
fn fault_event<R: Recorder>(
    rec: &mut R,
    kind: FaultEventKind,
    now: SimTime,
    node: NodeId,
    vm: Option<VmId>,
) {
    if R::ENABLED {
        rec.record(ObsEvent::Fault {
            kind,
            sim_time_ms: now.as_millis(),
            node: node.index() as u32,
            vm_uid: vm.map(VmId::raw),
        });
    }
}

impl RunState {
    /// `MaintenanceStart`: silence the node so the evacuation targets
    /// exclude it, then move everything off inside its block. A stuck VM
    /// (pinned, or no sibling capacity) aborts the window and the node
    /// returns to service; on a node already down the window lapses.
    pub(super) fn maintenance_start<R: Recorder>(&mut self, rec: &mut R, node: NodeId) {
        if self.engine.topology().node(node).state != NodeState::Active {
            self.stats.maintenance_aborted += 1;
            return;
        }
        let cloud = &mut self.engine.cloud;
        cloud.set_node_state(node, NodeState::Maintenance);
        match cloud.evacuate_node(node) {
            Ok(moved) => {
                self.stats.maintenance_windows += 1;
                tally(rec, &mut self.stats.evacuations, "evacuations", moved);
                let end = Event::MaintenanceEnd(node);
                self.sim.schedule_after(self.cfg.maintenance_duration, end);
            }
            Err(_stuck) => {
                self.stats.maintenance_aborted += 1;
                cloud.set_node_state(node, NodeState::Active);
            }
        }
    }

    /// `MaintenanceEnd`: the node returns to service.
    pub(super) fn maintenance_end(&mut self, node: NodeId) {
        if self.engine.topology().node(node).state == NodeState::Maintenance {
            self.engine.cloud.set_node_state(node, NodeState::Active);
        }
    }

    /// `HostFail`: the node drops dead. Unlike maintenance there is no
    /// "abort": every resident is displaced through the engine, and what
    /// cannot restart at once waits in the pending queue. A node already
    /// out of service skips the failure rather than stacking it.
    pub(super) fn host_fail<R: Recorder>(&mut self, rec: &mut R, now: SimTime, node: NodeId) {
        if self.engine.topology().node(node).state != NodeState::Active {
            return;
        }
        self.engine.cloud.set_node_state(node, NodeState::Failed);
        let faults = &mut self.stats.faults;
        tally(rec, &mut faults.host_failures, "host_failures", 1);
        fault_event(rec, FaultEventKind::HostFail, now, node, None);
        let residents: Vec<VmId> = self.engine.cloud.vms_on_node(node).to_vec();
        for id in residents {
            let evacuated = &mut self.stats.faults.evacuated;
            tally(rec, evacuated, "fault_evacuations", 1);
            let placed = self.engine.evacuate_vm(id);
            self.settle_evacuation(rec, now, id, placed, 0, self.pending.len());
        }
    }

    /// `HostRecover`: a failed node rejoins the fleet.
    pub(super) fn host_recover<R: Recorder>(&mut self, rec: &mut R, now: SimTime, node: NodeId) {
        if self.engine.topology().node(node).state == NodeState::Failed {
            self.engine.cloud.set_node_state(node, NodeState::Active);
            let recoveries = &mut self.stats.faults.host_recoveries;
            tally(rec, recoveries, "host_recoveries", 1);
            fault_event(rec, FaultEventKind::HostRecover, now, node, None);
        }
    }

    /// `EvacRetry`: try to restart a VM waiting in the pending queue.
    pub(super) fn evac_retry<R: Recorder>(&mut self, rec: &mut R, now: SimTime, id: VmId) {
        let Some(pos) = self.pending.iter().position(|p| p.vm.id == id) else {
            // Already re-placed or departed.
            return;
        };
        // Out of the queue for the walk; back at the same position if it
        // has to wait on. Its departure event, scheduled at its arrival,
        // fires before any retry at or after the departure.
        let PendingEvac { vm, retries } = self.pending.remove(pos);
        debug_assert!(vm.departure > now, "{id} waits past its departure");
        let placed = self.engine.restart(vm);
        self.settle_evacuation(rec, now, id, placed, retries + 1, pos);
    }

    /// Book how evacuation attempt `attempt` of `id` ended: replaced; or
    /// waiting at `pos` in the pending queue to retry after a bounded
    /// exponential backoff; or, past the retry limit, lost. A host
    /// failure's own try is attempt 0, so it always waits.
    fn settle_evacuation<R: Recorder>(
        &mut self,
        rec: &mut R,
        now: SimTime,
        id: VmId,
        placed: Result<NodeId, Box<PlacedVm>>,
        attempt: u32,
        pos: usize,
    ) {
        let faults = &mut self.stats.faults;
        let (kind, node) = match placed {
            Ok(node) => {
                tally(rec, &mut faults.evac_replaced, "fault_evac_replaced", 1);
                (FaultEventKind::EvacReplaced, node)
            }
            Err(vm) if attempt <= self.cfg.faults.evac_retry_limit => {
                let kind = if attempt == 0 {
                    FaultEventKind::EvacPending
                } else {
                    tally(rec, &mut faults.evac_retries, "fault_evac_retries", 1);
                    FaultEventKind::EvacRetry
                };
                let (node, retries) = (vm.node, attempt);
                self.pending.insert(pos, PendingEvac { vm: *vm, retries });
                faults.evac_pending_peak = faults.evac_pending_peak.max(self.pending.len() as u64);
                // Double per attempt, capped so the shift stays sane.
                let backoff = self.cfg.faults.evac_retry_backoff_secs;
                let wait =
                    SimDuration::from_secs(backoff << attempt.min(EVAC_BACKOFF_MAX_DOUBLINGS));
                self.sim.schedule_after(wait, Event::EvacRetry(id));
                (kind, node)
            }
            Err(vm) => {
                tally(rec, &mut faults.evac_lost, "fault_evac_lost", 1);
                (FaultEventKind::EvacLost, vm.node)
            }
        };
        fault_event(rec, kind, now, node, Some(id));
    }
}
