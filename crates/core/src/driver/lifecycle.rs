//! Nova's side of a VM's life: arrival (placement), resize and departure.

use super::{tally, Event, RunState};
use crate::engine::{PlaceOutcome, ResizeResult};
use sapsim_obs::{
    DecisionOutcome, DecisionRecord, HostScore, ObsEvent, Recorder, SpanKind, DECISION_TOP_K,
};
use sapsim_scheduler::{Ranking, RejectReason};
use sapsim_sim::SimTime;
use sapsim_workload::VmId;

/// Counter name for a filter rejection reason (static, so counters stay
/// allocation-free).
const fn rejection_counter(reason: RejectReason) -> &'static str {
    match reason {
        RejectReason::HostDisabled => "rejections_host_disabled",
        RejectReason::WrongAz => "rejections_wrong_az",
        RejectReason::WrongPurpose => "rejections_wrong_purpose",
        RejectReason::InsufficientCpu => "rejections_insufficient_cpu",
        RejectReason::InsufficientMemory => "rejections_insufficient_memory",
        RejectReason::InsufficientDisk => "rejections_insufficient_disk",
    }
}

impl RunState {
    /// `VmArrival`: place the VM and, once it runs, schedule its
    /// departure and planned resize inside the horizon.
    pub(super) fn arrive<R: Recorder>(&mut self, rec: &mut R, now: SimTime, spec_index: usize) {
        self.stats.placements_attempted += 1;
        let outcome = self.timed(rec, SpanKind::Placement, |st, rec| {
            st.place_vm(rec, now, spec_index)
        });
        match outcome {
            PlaceOutcome::Placed { retries, .. } => {
                let stats = &mut self.stats;
                tally(rec, &mut stats.placed, "placements", 1);
                let retried = &mut stats.placement_retries;
                tally(rec, retried, "placement_retries", retries as u64);
                self.vm_stats[spec_index].placed = true;
                let spec = &self.specs[spec_index];
                if spec.departure() <= self.horizon {
                    self.sim
                        .schedule_at(spec.departure(), Event::VmDeparture(spec.id));
                }
                if let Some(t) = spec.resize_time().filter(|&t| t > now && t <= self.horizon) {
                    self.sim.schedule_at(t, Event::VmResize(spec.id));
                }
                self.stats.peak_vm_count = self.stats.peak_vm_count.max(self.engine.vm_count());
                self.region_placed[self.vm_region[spec_index] as usize] += 1;
            }
            PlaceOutcome::NoCandidate => {
                let failed = &mut self.stats.failed_no_candidate;
                tally(rec, failed, "placements_failed_no_candidate", 1);
            }
            PlaceOutcome::Fragmented { .. } => {
                let failed = &mut self.stats.failed_fragmented;
                tally(rec, failed, "placements_failed_fragmented", 1);
            }
        }
    }

    /// `VmDeparture`: the VM's lifetime ended, running or waiting for
    /// re-placement after a host failure.
    pub(super) fn depart<R: Recorder>(&mut self, rec: &mut R, id: VmId) {
        let vm = match self.engine.cloud.remove(id) {
            Some(vm) => vm,
            None => match self.pending.iter().position(|p| p.vm.id == id) {
                Some(pos) => self.pending.remove(pos).vm,
                None => return,
            },
        };
        self.region_departed[self.vm_region[vm.spec_index] as usize] += 1;
        tally(rec, &mut self.stats.departures, "departures", 1);
    }

    /// `VmResize`: in place if the node has room, otherwise re-schedule
    /// region-wide with the new size (Nova's resize path); if no capacity
    /// exists anywhere the VM keeps its old flavor.
    pub(super) fn resize(&mut self, id: VmId) {
        let Some(vm) = self.engine.cloud.vm(id) else {
            return; // Never placed (placement failed at arrival).
        };
        let Some(resize) = self.specs[vm.spec_index].resize else {
            return;
        };
        self.stats.resizes_attempted += 1;
        match self.engine.resize(id, resize.resources) {
            ResizeResult::InPlace { .. } => self.stats.resizes_in_place += 1,
            ResizeResult::Migrated { .. } => self.stats.resizes_migrated += 1,
            ResizeResult::Failed | ResizeResult::UnknownVm => self.stats.resizes_failed += 1,
        }
    }

    /// Place one VM via the policy pipeline with Nova-style greedy retries.
    ///
    /// When the recorder is enabled, every rank pass feeds the rejection
    /// counters, and sampled decisions (see
    /// [`Recorder::wants_decision`]) emit a full [`DecisionRecord`] —
    /// candidate set size, per-filter eliminations, top-k weigher scores,
    /// chosen host, retry depth.
    fn place_vm<R: Recorder>(
        &mut self,
        rec: &mut R,
        now: SimTime,
        spec_index: usize,
    ) -> PlaceOutcome {
        let spec = &self.specs[spec_index];
        let vm = spec.id;
        // The lifetime-aware extension assumes the operator can predict
        // lifetime (e.g. from the flavor's history); we grant it the true
        // residual lifetime, an upper bound on what prediction can achieve.
        let hint_days = (spec.lifetime - spec.age_at_arrival).as_days_f64();
        let walked = self.engine.place_spec(spec, hint_days);
        let outcome = PlaceOutcome::of(vm, &walked);
        if R::ENABLED {
            // A pass with survivors lists its eliminations in reason
            // order; one without reports them largest first.
            let ranking = self.engine.last_ranking();
            let rejections = match &walked {
                Ok(_) => &ranking.rejections,
                Err(err) => &err.rejections,
            };
            for &(reason, n) in rejections {
                rec.counter_add(rejection_counter(reason), n as u64);
            }
            if rec.wants_decision(vm.raw()) {
                let record = decision_from(ranking, rejections, now, vm.raw(), outcome);
                rec.record(ObsEvent::Decision(record));
            }
        }
        outcome
    }
}

/// Build the audit-log entry for an arrival from the ranking its walk
/// ended on (an empty order, hence no top-k, after a pass without
/// survivors) and that pass's `rejections`.
fn decision_from(
    ranked: &Ranking,
    rejections: &[(RejectReason, u32)],
    now: SimTime,
    vm_uid: u64,
    placed: PlaceOutcome,
) -> DecisionRecord {
    let (outcome, chosen, retries) = match placed {
        PlaceOutcome::Placed { node, retries, .. } => {
            (DecisionOutcome::Placed, Some(node), retries)
        }
        PlaceOutcome::Fragmented { retries } => (DecisionOutcome::Fragmented, None, retries),
        PlaceOutcome::NoCandidate => (DecisionOutcome::NoCandidate, None, 0),
    };
    let k = DECISION_TOP_K.min(ranked.order.len());
    let top_k = (0..k)
        .map(|i| HostScore {
            host: ranked.order[i] as u32,
            score: ranked.scores[i],
            weights: ranked
                .weigher_scores
                .iter()
                .map(|&(name, ref contrib)| (name.into(), contrib[i]))
                .collect(),
        })
        .collect();
    DecisionRecord {
        sim_time_ms: now.as_millis(),
        vm_uid,
        candidates: ranked.candidates,
        retries,
        outcome,
        chosen_host: chosen.map(|n| n.index() as u32),
        rejections: rejections
            .iter()
            .map(|&(reason, n)| (reason.label().into(), n))
            .collect(),
        top_k,
    }
}
