//! The simulation driver: builds the world, runs the event loop, and
//! produces a [`RunResult`].
//!
//! A run builds a [`RunState`] from its config and seed, drains it to the
//! horizon, and folds it into the result; the config and the seed are all
//! it takes to reproduce a run byte for byte. Each [`Event`] has one
//! handler, a `RunState` method in the module of the actor it models
//! (the paper's §2.2):
//!
//! - `lifecycle` (Nova): `VmArrival`, `VmDeparture`, `VmResize`.
//! - `monitoring` (vROps): `Scrape`, `OsGauge`.
//! - `rebalance` (DRS): `DrsRound`, `CrossBbRound`.
//! - `faults`: `MaintenanceStart`, `MaintenanceEnd`, `HostFail`,
//!   `HostRecover`, `EvacRetry`.
//!
//! Handlers book lifecycle counts through `tally`, which bumps a
//! [`DriverStats`] field and the recorder's counter of the same event
//! together.

mod faults;
mod lifecycle;
mod monitoring;
mod rebalance;

use crate::cloud::PlacedVm;
use crate::config::SimConfig;
use crate::engine::PlacementEngine;
use crate::error::SimError;
use crate::hypervisor::NodeDemand;
use crate::result::{DriverStats, RunResult, VmUsageSummary};
use sapsim_faults::FaultPlan;
use sapsim_obs::{NullRecorder, ObsEvent, Recorder, RunProfile, RunProgress, SpanKind};
use sapsim_scheduler::{HostLoad, Rebalancer, VmLoad};
use sapsim_sim::{SimRng, SimTime, Simulation};
use sapsim_telemetry::{RunningStat, TsdbStore};
use sapsim_topology::{AzId, BbId, BbPurpose, DcId, NodeId, Topology};
use sapsim_workload::{
    paper_flavor_catalog, DayPhase, GeneratorConfig, VmId, VmSpec, WorkloadClass, WorkloadGenerator,
};
use std::time::Instant;

/// Events of the cloud simulation.
#[derive(Debug, Clone, Copy)]
enum Event {
    /// A VM (by spec index) arrives and must be placed.
    VmArrival(usize),
    /// A VM reaches the end of its lifetime.
    VmDeparture(VmId),
    /// A VM's planned flavor change (a recorded event, paper Section 4).
    VmResize(VmId),
    /// Periodic vROps-style telemetry scrape (drives the demand models).
    Scrape,
    /// Periodic Nova-DB gauge recording.
    OsGauge,
    /// DRS evaluation round over every building block.
    DrsRound,
    /// Cross-BB rebalancing round over every data center.
    CrossBbRound,
    /// A node enters planned maintenance (evacuate + silence telemetry).
    MaintenanceStart(NodeId),
    /// A node leaves maintenance.
    MaintenanceEnd(NodeId),
    /// A node drops dead (abrupt failure from the fault plan).
    HostFail(NodeId),
    /// A failed node rejoins the fleet.
    HostRecover(NodeId),
    /// Retry the re-placement of a VM in the pending-evacuation queue.
    EvacRetry(VmId),
}

/// A VM displaced by a host failure that found no capacity yet: it waits
/// in the driver's pending queue between backoff retries, preserving its
/// demand-model state for the eventual restart.
#[derive(Debug)]
struct PendingEvac {
    vm: PlacedVm,
    retries: u32,
}

/// Per-region context of the workload assignment: AZ handles and, per
/// [`class_slot`], capacity. One per region: several when `scale > 1` or
/// `region_replicas > 1`.
struct RegionCtx {
    az_a: AzId,
    az_b: AzId,
    /// The share of each class's nodes that is in DC A (0.5 if none).
    share_a: [f64; 3],
    /// Each class's nodes in both DCs: the region assignment's weights.
    class_nodes: [f64; 3],
}

/// Slot of a workload class in [`RegionCtx`]'s per-class arrays.
const fn class_slot(class: WorkloadClass) -> usize {
    match class {
        WorkloadClass::GeneralPurpose => 0,
        WorkloadClass::Hana => 1,
        WorkloadClass::CiFarm => 2,
    }
}

/// Per class slot, the nodes of data center `dc` in blocks of the
/// class's purpose (GPU blocks host no class).
fn dc_class_nodes(topo: &Topology, dc: DcId) -> [f64; 3] {
    let mut nodes = [0.0; 3];
    for &bb in &topo.dc(dc).bbs {
        let block = topo.bb(bb);
        let slot = match block.purpose {
            BbPurpose::GeneralPurpose => 0,
            BbPurpose::Hana => 1,
            BbPurpose::CiFarm => 2,
            BbPurpose::Gpu => continue,
        };
        nodes[slot] += block.nodes.len() as f64;
    }
    nodes
}

/// Start a wall-clock span — `None` (no clock read at all) when the
/// recorder is disabled, so instrumentation monomorphizes away.
#[inline(always)]
fn span_start<R: Recorder>() -> Option<Instant> {
    if R::ENABLED {
        Some(Instant::now())
    } else {
        None
    }
}

/// Close a span opened by [`span_start`]: fold the duration into the
/// profile and buffer a span event stamped relative to the run origin.
#[inline(always)]
fn span_end<R: Recorder>(
    rec: &mut R,
    profile: &mut RunProfile,
    kind: SpanKind,
    origin: Instant,
    start: Option<Instant>,
) {
    if let Some(start) = start {
        let dur_us = start.elapsed().as_micros() as u64;
        let ts_us = start.duration_since(origin).as_micros() as u64;
        profile.add(kind, dur_us);
        rec.record(ObsEvent::Span {
            kind,
            ts_us,
            dur_us,
        });
    }
}

/// Book `n` events: bump their [`DriverStats`] field and, when the
/// recorder is on, its counter `name`, so the two cannot drift apart.
#[inline(always)]
fn tally<R: Recorder>(rec: &mut R, field: &mut u64, name: &'static str, n: u64) {
    *field += n;
    if R::ENABLED {
        rec.counter_add(name, n);
    }
}

/// Reusable buffers for the periodic events, allocated once per run so the
/// hot paths (scrape, rebalancing rounds) run allocation-free in steady
/// state. Scratch never carries state across events.
#[derive(Default)]
struct DriverScratch {
    /// Per-node demand accumulator for `scrape`.
    demands: Vec<NodeDemand>,
    /// Host loads rebuilt by `drs_round` for each building block.
    node_loads: Vec<HostLoad<NodeId>>,
    /// Host loads rebuilt by `cross_bb_round` for each data center.
    bb_loads: Vec<HostLoad<BbId>>,
    /// Recycled per-host VM-load vectors for both rebalancers.
    vm_load_pool: Vec<Vec<VmLoad>>,
}

/// Everything about a run's workload that is a pure function of its
/// [`SimConfig`] and estate: the specs and the per-VM region/AZ
/// assignments. Every RNG stream used here is a stateless lineage split
/// of the root, so deriving any subset in any order reproduces the same
/// draws.
struct DerivedWorld {
    regions: usize,
    specs: Vec<VmSpec>,
    /// Per spec, the peak-hour phase of its usage model: what the scrape's
    /// per-VM step reads instead of taking a cosine per VM.
    peak_phases: Vec<DayPhase>,
    vm_region: Vec<u32>,
    vm_az: Vec<AzId>,
}

/// The complete mutable state of a simulation in flight.
///
/// `run_with_recorder` builds one, drains it to the horizon, and folds it
/// into a [`RunResult`]. The placement world — cloud, policy, each VM's
/// class and AZ pin, the ranking scratch — is one [`PlacementEngine`],
/// the one `sapsim serve` runs; arrivals, resizes and fault evacuations
/// go through its methods, and everything else here is what only a
/// replay has: the specs, the event queue, telemetry, the rebalancers
/// and the pending-evacuation queue.
struct RunState {
    cfg: SimConfig,
    engine: PlacementEngine,
    specs: Vec<VmSpec>,
    peak_phases: Vec<DayPhase>,
    sim: Simulation<Event>,
    warmup: SimTime,
    horizon: SimTime,
    store: TsdbStore,
    stats: DriverStats,
    scratch: DriverScratch,
    vm_stats: Vec<VmUsageSummary>,
    vm_region: Vec<u32>,
    drs: Rebalancer,
    cross: Rebalancer,
    fault_plan: FaultPlan,
    pending: Vec<PendingEvac>,
    region_placed: Vec<u64>,
    region_departed: Vec<u64>,
    run_start: Instant,
    profile: RunProfile,
}

impl RunState {
    /// Where the run stands at `now`, for the recorder's progress hooks.
    fn progress(&self, now: SimTime) -> RunProgress {
        RunProgress {
            now_ms: now.as_millis(),
            horizon_ms: self.horizon.as_millis(),
            events: self.sim.stats().fired,
            live_vms: self.engine.vm_count(),
        }
    }

    /// Run `f` inside a wall-clock span of `kind`.
    #[inline(always)]
    fn timed<R: Recorder, T>(
        &mut self,
        rec: &mut R,
        kind: SpanKind,
        f: impl FnOnce(&mut RunState, &mut R) -> T,
    ) -> T {
        let start = span_start::<R>();
        let out = f(self, rec);
        span_end(rec, &mut self.profile, kind, self.run_start, start);
        out
    }

    /// Dispatch one fired event to its handler, with the engine's clock
    /// at the event's time.
    fn handle_event<R: Recorder>(&mut self, rec: &mut R, now: SimTime, event: Event) {
        self.engine.advance_clock(now);
        match event {
            Event::VmArrival(spec_index) => self.arrive(rec, now, spec_index),
            Event::VmDeparture(id) => self.depart(rec, id),
            Event::VmResize(id) => self.resize(id),
            Event::Scrape => self.scrape(rec, now),
            Event::OsGauge => self.os_gauges(rec, now),
            Event::DrsRound => self.drs_round(rec),
            Event::CrossBbRound => self.cross_bb_round(rec),
            Event::MaintenanceStart(node) => self.maintenance_start(rec, node),
            Event::MaintenanceEnd(node) => self.maintenance_end(node),
            Event::HostFail(node) => self.host_fail(rec, now, node),
            Event::HostRecover(node) => self.host_recover(rec, now, node),
            Event::EvacRetry(id) => self.evac_retry(rec, now, id),
        }
    }

    /// The observation time of `now` inside the recorded `[0, days)`
    /// window: `None` during warm-up and at the (inclusive) horizon.
    fn observed(&self, now: SimTime) -> Option<SimTime> {
        let obs = SimTime::from_millis(now.as_millis().checked_sub(self.warmup.as_millis())?);
        (obs < SimTime::from_days(self.cfg.days)).then_some(obs)
    }
}

/// Runs one complete simulation from a [`SimConfig`].
///
/// ```
/// use sapsim_core::{SimConfig, SimDriver};
///
/// let mut config = SimConfig::smoke_test();
/// config.days = 1;
/// let result = SimDriver::new(config).expect("valid config").run();
/// assert!(result.stats.placed > 0);
/// ```
#[derive(Debug)]
pub struct SimDriver {
    config: SimConfig,
}

impl SimDriver {
    /// Validate the configuration and build a driver. An out-of-range
    /// knob surfaces as [`SimError::InvalidConfig`] (or
    /// [`SimError::FaultPlan`] for fault-spec knobs).
    pub fn new(config: SimConfig) -> Result<Self, SimError> {
        config.validate()?;
        Ok(SimDriver { config })
    }

    /// The configuration.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Execute the run to completion without observability. Equivalent to
    /// `run_with_recorder(&mut NullRecorder)` — the instrumentation
    /// monomorphizes to nothing.
    pub fn run(&self) -> RunResult {
        self.run_with_recorder(&mut NullRecorder)
    }

    /// Execute the run to completion, streaming observability into `rec`.
    ///
    /// The recorder is purely observational: it never feeds anything back
    /// into the simulation, so `RunResult::canonical_bytes()` is
    /// byte-identical whichever recorder is plugged in (the determinism
    /// suite asserts this). Wall-clock timings flow only into the
    /// non-canonical [`RunProfile`] on the result.
    pub fn run_with_recorder<R: Recorder>(&self, rec: &mut R) -> RunResult {
        let mut st = Self::build_state(&self.config, R::ENABLED);
        Self::run_to_horizon(&mut st, rec);
        Self::finalize(st, rec)
    }

    /// Derive the config-determined workload on the estate `topo`: the
    /// specs and the per-VM assignment streams.
    fn derive_world(cfg: &SimConfig, topo: &Topology) -> DerivedWorld {
        let root_rng = SimRng::seed_from(cfg.seed);
        // Every region is two AZs of one data center each, A then B.
        let regions: Vec<RegionCtx> = topo
            .regions()
            .iter()
            .map(|r| {
                let (az_a, az_b) = (r.azs[0], r.azs[1]);
                let a = dc_class_nodes(topo, topo.az(az_a).dcs[0]);
                let b = dc_class_nodes(topo, topo.az(az_b).dcs[0]);
                let class_nodes = [0, 1, 2].map(|i| a[i] + b[i]);
                // A class absent from one DC gets share 0 or 1, steering
                // all of its VMs to the DC that can host them.
                let share_a = [0, 1, 2].map(|i| {
                    if class_nodes[i] == 0.0 {
                        0.5
                    } else {
                        a[i] / class_nodes[i]
                    }
                });
                RegionCtx {
                    az_a,
                    az_b,
                    share_a,
                    class_nodes,
                }
            })
            .collect();

        let generator = WorkloadGenerator::new(
            paper_flavor_catalog(),
            GeneratorConfig {
                // A replicated estate multiplies capacity, so the
                // workload scales with it (identity at one replica).
                scale: cfg.scale * cfg.region_replicas as f64,
                horizon_days: cfg.days,
                churn: cfg.churn,
                rampup_days: cfg.warmup_days,
                resize_probability: cfg.resize_probability,
                seed: cfg.seed,
            },
        );
        let specs = generator.generate();
        let peak_phases = specs.iter().map(|s| s.usage.peak_phase()).collect();

        // Per-VM region assignment: weight each region by its node
        // capacity for the VM's class, so replicated estates fill
        // proportionally. Single-region runs skip the stream entirely —
        // `scale ≤ 1` reproduces historical runs byte-for-byte.
        let vm_region: Vec<u32> = if regions.len() == 1 {
            vec![0; specs.len()]
        } else {
            let mut region_rng = root_rng.split("region-assign");
            // A region without a CI farm still hosts CI executors in its
            // general pool, so CI weights fall back to GP capacity when no
            // region anywhere has a dedicated farm.
            let ci = class_slot(WorkloadClass::CiFarm);
            let any_ci = regions.iter().any(|r| r.class_nodes[ci] > 0.0);
            let cumulative = [0, 1, 2].map(|slot| {
                let slot = if slot == ci && !any_ci { 0 } else { slot };
                let mut acc = 0.0;
                regions
                    .iter()
                    .map(|r| {
                        acc += r.class_nodes[slot];
                        acc
                    })
                    .collect::<Vec<f64>>()
            });
            specs
                .iter()
                .map(|s| {
                    let cum = &cumulative[class_slot(s.class)];
                    let total = *cum.last().unwrap();
                    let x = region_rng.range_f64(0.0, total.max(f64::MIN_POSITIVE));
                    cum.partition_point(|&c| c <= x).min(regions.len() - 1) as u32
                })
                .collect()
        };
        // Per-VM AZ assignment: keep each DC's population proportional to
        // its capacity share for the VM's class, like the per-DC VM counts
        // of Table 5. Drawn from a dedicated stream so placement policy
        // changes never reshuffle it.
        let mut az_rng = root_rng.split("az-assign");
        let vm_az: Vec<_> = specs
            .iter()
            .zip(&vm_region)
            .map(|(s, &r)| {
                let region = &regions[r as usize];
                if az_rng.bool(region.share_a[class_slot(s.class)]) {
                    region.az_a
                } else {
                    region.az_b
                }
            })
            .collect();

        DerivedWorld {
            regions: regions.len(),
            specs,
            peak_phases,
            vm_region,
            vm_az,
        }
    }

    /// Build the complete initial [`RunState`] of a run: the engine
    /// (estate and reserve selection), derived workload, event-queue
    /// seeding, maintenance and fault plans.
    fn build_state(cfg: &SimConfig, profile_enabled: bool) -> RunState {
        let root_rng = SimRng::seed_from(cfg.seed);
        let run_start = Instant::now();
        let profile = RunProfile::new(profile_enabled);

        // --- World construction -------------------------------------
        let mut engine = PlacementEngine::new(*cfg).expect("SimDriver::new validated the config");
        let DerivedWorld {
            regions,
            specs,
            peak_phases,
            vm_region,
            vm_az,
        } = Self::derive_world(cfg, engine.topology());
        // The generator numbers ids as consecutive spec indices, and the
        // engine hands them out in admission order, so both agree. Pre-size
        // the slot table so the scrape can zip it against per-spec state.
        for (spec, &az) in specs.iter().zip(&vm_az) {
            let id = engine.admit(spec.class, Some(az));
            debug_assert_eq!(id, spec.id, "spec ids are spec indices");
        }
        engine.cloud.reserve_vm_slots(specs.len());
        let cloud = &engine.cloud;

        // --- Simulation state ----------------------------------------
        let mut sim: Simulation<Event> = Simulation::new();
        let warmup = SimTime::from_days(cfg.warmup_days);
        let horizon = SimTime::from_days(cfg.warmup_days + cfg.days);
        // Dense tables for every node/BB/region series: the scrape's write
        // path is an indexed store, not a hash-map insert.
        let store = TsdbStore::with_topology(
            cfg.days as usize,
            cloud.topology().nodes().len(),
            cloud.topology().bbs().len(),
        );
        let mut stats = DriverStats::default();
        // The only pre-sized scratch buffer: the per-node demand sums.
        let scratch = DriverScratch {
            demands: vec![NodeDemand::default(); cloud.topology().nodes().len()],
            ..DriverScratch::default()
        };
        let vm_stats: Vec<VmUsageSummary> = specs
            .iter()
            .enumerate()
            .map(|(i, s)| VmUsageSummary {
                id: s.id,
                spec_index: i,
                placed: false,
                cpu_ratio: RunningStat::new(),
                mem_ratio: RunningStat::new(),
            })
            .collect();

        for (i, s) in specs.iter().enumerate() {
            sim.schedule_at(s.arrival, Event::VmArrival(i));
        }
        sim.schedule_at(SimTime::ZERO, Event::Scrape);
        sim.schedule_at(SimTime::ZERO, Event::OsGauge);
        if cfg.drs_enabled {
            sim.schedule_at(SimTime::ZERO + cfg.drs_interval, Event::DrsRound);
        }
        if cfg.cross_bb_enabled {
            sim.schedule_at(SimTime::ZERO + cfg.cross_bb_interval, Event::CrossBbRound);
        }

        // Planned maintenance: each node independently draws whether it
        // has a window inside the observation period, uniformly placed.
        if cfg.maintenance_rate_per_month > 0.0 {
            let mut mrng = root_rng.split("maintenance");
            let prob = (cfg.maintenance_rate_per_month * cfg.days as f64 / 30.0).clamp(0.0, 1.0);
            let obs_span_ms = (horizon - warmup).as_millis() as f64;
            for node in cloud.topology().nodes() {
                if !mrng.bool(prob) {
                    continue;
                }
                let frac: f64 = mrng.range_f64(0.05, 0.85);
                let start =
                    warmup + sapsim_sim::SimDuration::from_millis((obs_span_ms * frac) as u64);
                sim.schedule_at(start, Event::MaintenanceStart(node.id));
            }
        }
        // Unplanned faults: the plan is drawn from its own lineage-split
        // RNG stream, so enabling faults never reshuffles workload,
        // placement, or maintenance draws (and `FaultSpec::none()`
        // consumes no randomness at all). Failure and recovery events are
        // scheduled up front; the handlers guard on node state so the
        // interleaving with planned maintenance stays well-defined.
        let fault_plan = FaultPlan::generate(
            &cfg.faults,
            cloud.topology().nodes().len(),
            warmup,
            horizon,
            &root_rng,
        );
        for hf in &fault_plan.host_failures {
            let node = NodeId::from_raw(hf.node);
            sim.schedule_at(hf.at, Event::HostFail(node));
            if let Some(t) = hf.recover_at {
                sim.schedule_at(t, Event::HostRecover(node));
            }
        }
        stats.faults.straggler_nodes = fault_plan.straggler_count() as u64;
        stats.faults.dropout_windows = fault_plan.dropout_window_count() as u64;

        RunState {
            cfg: *cfg,
            engine,
            specs,
            peak_phases,
            sim,
            warmup,
            horizon,
            store,
            stats,
            scratch,
            vm_stats,
            vm_region,
            drs: Rebalancer::new(cfg.drs),
            cross: Rebalancer::new(cfg.drs),
            fault_plan,
            pending: Vec::new(),
            // Per-region lifecycle tallies for the metrics export. Plain
            // vector bumps in the hot path; the labeled fold happens once
            // at end of run, and only multi-region estates emit it.
            region_placed: vec![0; regions],
            region_departed: vec![0; regions],
            run_start,
            profile,
        }
    }

    /// Drain the event loop to the horizon (inclusive).
    fn run_to_horizon<R: Recorder>(st: &mut RunState, rec: &mut R) {
        while let Some(ev) = st.sim.next_event_until(st.horizon) {
            rec.tick(|| st.progress(ev.time));
            st.handle_event(rec, ev.time, ev.payload);
        }
    }

    /// Close out a drained run: final accounting, spec rebase onto the
    /// observation window, end-of-run metrics fold, and the result.
    fn finalize<R: Recorder>(mut st: RunState, rec: &mut R) -> RunResult {
        let cfg = st.cfg;
        st.stats.faults.evac_pending_end = st.pending.len() as u64;
        st.stats.final_vm_count = st.engine.vm_count();
        debug_assert!(st.engine.cloud.verify_accounting(&st.specs).is_ok());

        // Rebase every spec onto observation time (warm-up becomes
        // pre-window age), so downstream analyses see the same [0, days)
        // window the telemetry was recorded against.
        // Time differences saturate at zero: a spec that arrived during
        // warm-up turns its wait into age and arrives at 0.
        for spec in &mut st.specs {
            spec.age_at_arrival += st.warmup - spec.arrival;
            spec.arrival = SimTime::ZERO + (spec.arrival - st.warmup);
        }

        if R::ENABLED {
            let wall_us = st.run_start.elapsed().as_micros() as u64;
            st.profile.set_wall_us(wall_us);
            rec.record(ObsEvent::Span {
                kind: SpanKind::Run,
                ts_us: 0,
                dur_us: wall_us,
            });
            st.fold_engine_metrics(rec);
        }
        rec.finish(st.progress(st.horizon));

        RunResult {
            config: cfg,
            store: st.store,
            vm_stats: st.vm_stats,
            specs: st.specs,
            stats: st.stats,
            cloud: st.engine.cloud,
            profile: st.profile,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PlacementGranularity;
    use sapsim_scheduler::PolicyKind;
    use sapsim_sim::QueueBackend;
    use sapsim_telemetry::{EntityRef, MetricId};

    fn smoke(seed: u64) -> RunResult {
        let mut cfg = SimConfig::smoke_test();
        cfg.seed = seed;
        SimDriver::new(cfg).unwrap().run()
    }

    #[test]
    fn smoke_run_places_most_vms() {
        let r = smoke(1);
        assert!(r.stats.placements_attempted > 500);
        assert!(
            r.stats.placement_success_rate() > 0.95,
            "success rate = {:.3} (failures: {} no-candidate, {} fragmented)",
            r.stats.placement_success_rate(),
            r.stats.failed_no_candidate,
            r.stats.failed_fragmented,
        );
        assert!(r.stats.final_vm_count > 0);
        assert!(r.stats.scrapes >= 3 * 288 - 1);
        r.cloud.verify_accounting(&r.specs).unwrap();
    }

    #[test]
    fn runs_are_deterministic() {
        let a = smoke(42);
        let b = smoke(42);
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.specs.len(), b.specs.len());
        // Telemetry identical: spot-check a rollup.
        let ra = a.store.rollups_of(MetricId::HostCpuUtilPct);
        let rb = b.store.rollups_of(MetricId::HostCpuUtilPct);
        assert_eq!(ra.len(), rb.len());
        for ((ea, va), (eb, vb)) in ra.iter().zip(rb.iter()) {
            assert_eq!(ea, eb);
            assert_eq!(va.daily_means(), vb.daily_means());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = smoke(1);
        let b = smoke(2);
        assert_ne!(a.stats, b.stats);
    }

    #[test]
    fn telemetry_covers_every_node_and_block() {
        let r = smoke(3);
        let nodes = r.cloud.topology().nodes().len();
        assert_eq!(r.store.rollups_of(MetricId::HostCpuUtilPct).len(), nodes);
        assert_eq!(r.store.rollups_of(MetricId::HostMemUsagePct).len(), nodes);
        let bbs = r.cloud.topology().bbs().len();
        assert_eq!(r.store.rollups_of(MetricId::OsVcpusUsed).len(), bbs);
        let region = r
            .store
            .series(MetricId::OsInstancesTotal, EntityRef::Region)
            .expect("region instance counter");
        assert!(region.len() > 1000, "30 s cadence over 3 days");
    }

    #[test]
    fn vm_stats_accumulate_for_placed_vms() {
        let r = smoke(4);
        let sampled = r
            .vm_stats
            .iter()
            .filter(|v| v.placed && v.cpu_ratio.count > 0)
            .count();
        assert!(sampled > 500, "sampled = {sampled}");
        for v in r.vm_stats.iter().filter(|v| v.cpu_ratio.count > 0) {
            assert!(v.cpu_ratio.mean().unwrap() >= 0.0);
            assert!(v.cpu_ratio.mean().unwrap() <= 1.0);
            assert!(v.mem_ratio.mean().unwrap() <= 1.0);
        }
    }

    #[test]
    fn drs_migrates_when_enabled_only() {
        let mut cfg = SimConfig::smoke_test();
        cfg.seed = 5;
        let with = SimDriver::new(cfg).unwrap().run();
        cfg.drs_enabled = false;
        let without = SimDriver::new(cfg).unwrap().run();
        assert_eq!(without.stats.drs_migrations, 0);
        // The same workload with DRS on does migrate at least occasionally.
        assert!(with.stats.drs_migrations >= without.stats.drs_migrations);
    }

    #[test]
    fn cross_bb_rebalancer_runs_when_enabled() {
        let mut cfg = SimConfig::smoke_test();
        cfg.seed = 6;
        cfg.cross_bb_enabled = true;
        let r = SimDriver::new(cfg).unwrap().run();
        // It ran; whether it migrated depends on imbalance, so just check
        // accounting stayed intact.
        r.cloud.verify_accounting(&r.specs).unwrap();
    }

    #[test]
    fn node_granularity_places_without_fragmentation_retries() {
        let mut cfg = SimConfig::smoke_test();
        cfg.seed = 7;
        cfg.granularity = PlacementGranularity::Node;
        let r = SimDriver::new(cfg).unwrap().run();
        assert_eq!(
            r.stats.placement_retries, 0,
            "node-level candidates are exact; no fragmentation retries"
        );
        assert!(r.stats.placement_success_rate() > 0.95);
    }

    #[test]
    fn hana_vms_land_on_hana_blocks() {
        let r = smoke(8);
        let ci_farm_exists = r
            .cloud
            .topology()
            .bbs()
            .iter()
            .any(|bb| bb.purpose == BbPurpose::CiFarm);
        for vm_stat in r.vm_stats.iter().filter(|v| v.placed) {
            let spec = &r.specs[vm_stat.spec_index];
            if let Some(vm) = r.cloud.vm(spec.id) {
                let bb = r.cloud.topology().node(vm.node).bb;
                let purpose = r.cloud.topology().bb(bb).purpose;
                let mut expected = spec.class.required_bb_purpose();
                if expected == BbPurpose::CiFarm && !ci_farm_exists {
                    expected = BbPurpose::GeneralPurpose;
                }
                assert_eq!(purpose, expected, "{} on wrong block type", spec.id);
            }
        }
    }

    #[test]
    fn policies_produce_different_placements() {
        let mut cfg = SimConfig::smoke_test();
        cfg.seed = 9;
        cfg.policy = PolicyKind::Spread;
        let spread = SimDriver::new(cfg).unwrap().run();
        cfg.policy = PolicyKind::PackMemory;
        let pack = SimDriver::new(cfg).unwrap().run();
        // Packing concentrates load: the busiest node under packing has
        // more allocated memory than under spreading.
        let max_alloc = |r: &RunResult| {
            r.cloud
                .topology()
                .nodes()
                .iter()
                .map(|n| r.cloud.node_allocated(n.id).memory_mib)
                .max()
                .unwrap()
        };
        assert!(max_alloc(&pack) >= max_alloc(&spread));
    }

    #[test]
    fn resizes_fire_and_change_allocations() {
        let mut cfg = SimConfig::smoke_test();
        cfg.seed = 11;
        cfg.days = 5;
        cfg.resize_probability = 0.25;
        let r = SimDriver::new(cfg).unwrap().run();
        assert!(
            r.stats.resizes_attempted > 10,
            "attempted = {}",
            r.stats.resizes_attempted
        );
        assert_eq!(
            r.stats.resizes_attempted,
            r.stats.resizes_in_place + r.stats.resizes_migrated + r.stats.resizes_failed
        );
        assert!(r.stats.resizes_in_place + r.stats.resizes_migrated > 0);
        // Resized VMs that are still alive carry doubled allocations.
        let mut seen_doubled = false;
        for v in r.vm_stats.iter().filter(|v| v.placed) {
            let spec = &r.specs[v.spec_index];
            if let (Some(resize), Some(vm)) = (spec.resize, r.cloud.vm(spec.id)) {
                if vm.resources == resize.resources {
                    seen_doubled = true;
                    assert_eq!(vm.resources.cpu_cores, spec.resources.cpu_cores * 2);
                }
            }
        }
        assert!(
            seen_doubled,
            "at least one applied resize survives the window"
        );
        r.cloud.verify_accounting(&r.specs).unwrap();
    }

    #[test]
    fn maintenance_silences_nodes_and_returns_them() {
        let mut cfg = SimConfig::smoke_test();
        cfg.seed = 13;
        cfg.days = 3;
        cfg.maintenance_rate_per_month = 3.0; // force plenty of windows
        let r = SimDriver::new(cfg).unwrap().run();
        assert!(
            r.stats.maintenance_windows > 0,
            "windows = {} (aborted = {})",
            r.stats.maintenance_windows,
            r.stats.maintenance_aborted
        );
        // Maintenance produces missing telemetry: at least one node has a
        // day with fewer samples than a full day of scrapes.
        let full_day = 86_400 / r.config.scrape_interval.as_secs();
        let mut gap_seen = false;
        for (_, rollup) in r.store.rollups_of(MetricId::HostCpuUtilPct) {
            for d in 0..rollup.num_days() {
                let count = rollup.day(d).map(|c| c.stat.count).unwrap_or(0);
                if count > 0 && count < full_day {
                    gap_seen = true;
                }
            }
        }
        assert!(gap_seen, "maintenance gaps appear in the telemetry");
        r.cloud.verify_accounting(&r.specs).unwrap();
    }

    #[test]
    fn departures_free_capacity() {
        let r = smoke(10);
        assert!(r.stats.departures > 0, "CI churn departs within 3 days");
        // Peak ≥ final.
        assert!(r.stats.peak_vm_count >= r.stats.final_vm_count);
    }

    #[test]
    fn recorder_counters_agree_with_driver_stats() {
        use sapsim_obs::{JsonlRecorder, ObsConfig};
        let mut cfg = SimConfig::smoke_test();
        cfg.seed = 14;
        for (cfg, faulted) in [(cfg, false), (faulty_cfg(14), true)] {
            let mut rec = JsonlRecorder::new(ObsConfig {
                ring_capacity: 1 << 20,
                ..ObsConfig::default()
            });
            let r = SimDriver::new(cfg).unwrap().run_with_recorder(&mut rec);
            let counters: std::collections::BTreeMap<_, _> = rec.counters().collect();
            let counter = |name: &str| counters.get(name).copied().unwrap_or(0);
            assert_eq!(counter("placements"), r.stats.placed);
            assert_eq!(counter("scrapes"), r.stats.scrapes);
            assert_eq!(counter("departures"), r.stats.departures);
            assert_eq!(counter("placement_retries"), r.stats.placement_retries);
            let f = &r.stats.faults;
            for (name, field) in [
                ("host_failures", f.host_failures),
                ("fault_evacuations", f.evacuated),
                ("fault_evac_replaced", f.evac_replaced),
                ("fault_evac_retries", f.evac_retries),
                ("fault_evac_lost", f.evac_lost),
                ("host_recoveries", f.host_recoveries),
                ("fault_dropped_samples", f.dropped_samples),
            ] {
                assert_eq!(counter(name), field, "{name}");
            }
            if faulted {
                assert!(f.host_failures > 0 && f.evac_replaced > 0 && f.dropped_samples > 0);
            }
            // Every placement was sampled at the default rate of 1.0 and
            // the ring is large enough to hold them all.
            let decisions = rec
                .events()
                .filter(|e| matches!(e, ObsEvent::Decision(_)))
                .count() as u64;
            assert_eq!(decisions, r.stats.placements_attempted);
            assert_eq!(rec.dropped(), 0);
            // The profile saw every scrape and its three sub-phases.
            assert!(r.profile.enabled());
            assert_eq!(r.profile.phase(SpanKind::Scrape).count, r.stats.scrapes);
            assert_eq!(
                r.profile.phase(SpanKind::ScrapeSample).count,
                r.stats.scrapes
            );
            assert!(r.profile.wall_us() > 0);
        }
    }

    #[test]
    fn null_recorder_run_has_disabled_profile() {
        let r = smoke(15);
        assert!(!r.profile.enabled());
        assert_eq!(r.profile.wall_us(), 0);
        assert_eq!(r.profile.phase(SpanKind::Scrape).count, 0);
    }

    #[test]
    fn decision_sampling_rate_zero_records_no_decisions() {
        use sapsim_obs::{JsonlRecorder, ObsConfig};
        let mut cfg = SimConfig::smoke_test();
        cfg.seed = 16;
        let mut rec = JsonlRecorder::new(ObsConfig {
            decision_sample_rate: 0.0,
            ..ObsConfig::default()
        });
        let r = SimDriver::new(cfg).unwrap().run_with_recorder(&mut rec);
        assert!(r.stats.placed > 0);
        assert_eq!(
            rec.events()
                .filter(|e| matches!(e, ObsEvent::Decision(_)))
                .count(),
            0
        );
        // Counters still accumulate — sampling only bounds the ring.
        let counters: std::collections::BTreeMap<_, _> = rec.counters().collect();
        assert_eq!(counters["placements"], r.stats.placed);
    }

    fn faulty_cfg(seed: u64) -> SimConfig {
        let mut cfg = SimConfig::smoke_test();
        cfg.seed = seed;
        cfg.faults = sapsim_faults::FaultSpec {
            host_fail_rate_per_month: 10.0, // prob 1.0 over 3 days: every node fails
            host_downtime_hours: 6.0,
            straggler_fraction: 0.25,
            straggler_slowdown: 0.6,
            dropout_rate_per_month: 6.0,
            dropout_duration_hours: 4.0,
            ..sapsim_faults::FaultSpec::none()
        };
        cfg
    }

    #[test]
    fn fault_free_spec_is_a_behavioural_noop() {
        let baseline = smoke(17);
        let mut cfg = SimConfig::smoke_test();
        cfg.seed = 17;
        cfg.faults = sapsim_faults::FaultSpec::none(); // explicit none == untouched default
        let explicit = SimDriver::new(cfg).unwrap().run();
        assert!(explicit.stats.faults.is_zero());
        let bytes = baseline.canonical_bytes();
        assert_eq!(bytes, explicit.canonical_bytes());
        // The fault layer is also invisible on the wire when unused.
        assert!(!String::from_utf8_lossy(&bytes).contains("\"faults\""));
    }

    #[test]
    fn host_failures_evacuate_through_the_pipeline_and_conserve_vms() {
        let r = SimDriver::new(faulty_cfg(18)).unwrap().run();
        let f = &r.stats.faults;
        assert!(f.host_failures > 0, "every node should fail once");
        assert!(f.host_recoveries > 0, "6 h downtime fits inside the run");
        assert!(f.evacuated > 0, "failures hit occupied nodes");
        // Evacuation conserves VMs: everything ever placed is either still
        // resident, departed, lost to the retry limit, or still pending.
        assert_eq!(
            r.stats.placed,
            r.stats.final_vm_count as u64 + r.stats.departures + f.evac_lost + f.evac_pending_end,
            "VM conservation: placed == resident + departed + lost + pending"
        );
        // No VM is ever left on a node that is out of service.
        for node in r.cloud.topology().nodes() {
            if node.state != sapsim_topology::NodeState::Active {
                assert!(
                    r.cloud.vms_on_node(node.id).is_empty(),
                    "{} is {:?} but still hosts VMs",
                    node.id,
                    node.state
                );
            }
        }
        r.cloud.verify_accounting(&r.specs).unwrap();
    }

    /// One evacuation order for served drains and host failures: the
    /// target is ranked while the resident still holds its allocation on
    /// the source. Counted there, the source's block looks fuller than
    /// block 1 and ranks second; released first, it would rank first.
    #[test]
    fn host_failures_and_served_drains_rank_before_releasing_the_resident() {
        use crate::engine::tests::{engine_over, filled_cloud};
        let engine = engine_over(
            filled_cloud(&[[16, 8], [16, 0]]),
            PlacementGranularity::BuildingBlock,
        );
        let bbs = engine.topology().bbs();
        let (source, sibling, target) = (bbs[0].nodes[0], bbs[0].nodes[1], bbs[1].nodes[1]);
        let resident = VmId(0);

        let mut served = engine.fork();
        assert_eq!(served.evacuate(source).moved, [(resident, target)]);

        let mut released = engine.fork();
        released
            .cloud
            .set_node_state(source, sapsim_topology::NodeState::Failed);
        let displaced = released.cloud.remove(resident).expect("resident");
        assert_eq!(released.restart(displaced).ok(), Some(sibling));

        let mut st = SimDriver::build_state(&cell(1, 0.01, 1, Default::default()), false);
        st.engine = engine;
        st.handle_event(&mut NullRecorder, SimTime::ZERO, Event::HostFail(source));
        assert_eq!(st.stats.faults.evac_replaced, 1);
        assert_eq!(st.engine.vm_node(resident), Some(target));
    }

    #[test]
    fn faulty_runs_are_deterministic() {
        let a = SimDriver::new(faulty_cfg(19)).unwrap().run();
        let b = SimDriver::new(faulty_cfg(19)).unwrap().run();
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.canonical_bytes(), b.canonical_bytes());
    }

    /// Every fault kind on, aggressively enough that a 1–2-day run at
    /// 1–2 % scale sees failures, stragglers and dropouts on most seeds.
    fn busy_faults() -> sapsim_faults::FaultSpec {
        sapsim_faults::FaultSpec {
            host_fail_rate_per_month: 15.0,
            host_downtime_hours: 12.0,
            straggler_fraction: 0.25,
            straggler_slowdown: 0.6,
            dropout_rate_per_month: 6.0,
            dropout_duration_hours: 6.0,
            ..sapsim_faults::FaultSpec::none()
        }
    }

    /// One cell of the equivalence grids: a short run without warm-up.
    fn cell(seed: u64, scale: f64, days: u64, faults: sapsim_faults::FaultSpec) -> SimConfig {
        SimConfig {
            seed,
            scale,
            days,
            warmup_days: 0,
            faults,
            ..SimConfig::default()
        }
    }

    /// `cfg` at both granularities.
    fn granularities(cfg: SimConfig) -> [SimConfig; 2] {
        [
            PlacementGranularity::BuildingBlock,
            PlacementGranularity::Node,
        ]
        .map(|granularity| SimConfig { granularity, ..cfg })
    }

    /// `cfg` under both sweep policies at both granularities.
    fn policy_grid(cfg: SimConfig) -> impl Iterator<Item = SimConfig> {
        [PolicyKind::PaperDefault, PolicyKind::Spread]
            .into_iter()
            .flat_map(move |policy| granularities(SimConfig { policy, ..cfg }))
    }

    /// The cached hot path (host-view cache, candidate index, top-k rank)
    /// must be byte-identical to the from-scratch oracle.
    fn assert_naive_oracle_agrees(cfg: SimConfig) {
        let cached = SimDriver::new(cfg).unwrap().run();
        let naive = crate::engine::tests::with_naive_views(|| SimDriver::new(cfg).unwrap().run());
        assert_eq!(cached.stats, naive.stats, "{cfg:?}");
        assert!(
            cached.canonical_bytes() == naive.canonical_bytes(),
            "cached and naive runs diverged: {cfg:?}"
        );
    }

    /// A cold run on the binary-heap queue: the state the production
    /// build seeds, moved onto the heap before the first event fires.
    fn run_on_heap<R: Recorder>(cfg: &SimConfig, rec: &mut R) -> RunResult {
        let mut st = SimDriver::build_state(cfg, R::ENABLED);
        let events = st.sim.snapshot_events();
        let (now, stats, next_seq) = (st.sim.now(), st.sim.stats(), st.sim.next_seq());
        st.sim = Simulation::restore(QueueBackend::BinaryHeap, now, stats, next_seq, events);
        SimDriver::run_to_horizon(&mut st, rec);
        SimDriver::finalize(st, rec)
    }

    /// The timing wheel must be byte-identical to the binary-heap oracle.
    fn assert_heap_oracle_agrees(cfg: SimConfig) {
        let wheel = SimDriver::new(cfg).unwrap().run();
        let heap = run_on_heap(&cfg, &mut NullRecorder);
        assert_eq!(wheel.stats, heap.stats, "{cfg:?}");
        assert!(
            wheel.canonical_bytes() == heap.canonical_bytes(),
            "wheel and heap runs diverged: {cfg:?}"
        );
    }

    #[test]
    fn cached_views_match_the_naive_oracle() {
        let smoke = SimConfig {
            seed: 23,
            ..SimConfig::smoke_test()
        };
        for cfg in granularities(smoke) {
            assert_naive_oracle_agrees(cfg);
        }
    }

    #[test]
    fn cached_views_match_the_naive_oracle_under_faults() {
        assert_naive_oracle_agrees(faulty_cfg(24));
    }

    #[test]
    fn cached_views_match_the_naive_oracle_across_seeds_and_faults() {
        for seed in [31, 32, 33] {
            for faults in [sapsim_faults::FaultSpec::none(), busy_faults()] {
                assert_naive_oracle_agrees(cell(seed, 0.02, 2, faults));
            }
        }
    }

    #[test]
    fn cached_views_match_the_naive_oracle_under_busy_faults() {
        assert_naive_oracle_agrees(cell(35, 0.02, 2, busy_faults()));
    }

    #[test]
    fn node_granularity_cached_views_match_the_naive_oracle() {
        assert_naive_oracle_agrees(SimConfig {
            granularity: PlacementGranularity::Node,
            ..cell(34, 0.02, 2, busy_faults())
        });
    }

    #[test]
    fn queue_backends_are_byte_identical() {
        let smoke = SimConfig {
            seed: 25,
            ..SimConfig::smoke_test()
        };
        for cfg in granularities(smoke) {
            assert_heap_oracle_agrees(cfg);
        }
    }

    #[test]
    fn queue_backends_are_byte_identical_under_faults() {
        assert_heap_oracle_agrees(faulty_cfg(26));
    }

    /// 2 policies × 2 granularities × 3 seeds, with faults on the middle
    /// seed so both regimes appear at every (policy, granularity) point.
    #[test]
    fn queue_backends_are_byte_identical_across_the_sweep_grid() {
        for (seed, faults) in [
            (41, sapsim_faults::FaultSpec::none()),
            (42, busy_faults()),
            (43, sapsim_faults::FaultSpec::none()),
        ] {
            policy_grid(cell(seed, 0.01, 1, faults)).for_each(assert_heap_oracle_agrees);
        }
    }

    /// The heap has no wheel, so its metrics carry no wheel gauges while
    /// the engine counters stay and the result bytes do not move.
    #[test]
    fn heap_queue_runs_export_no_wheel_gauges() {
        let cfg = cell(43, 0.02, 2, sapsim_faults::FaultSpec::none());
        let mut rec = sapsim_obs::MetricsRecorder::new();
        let heap = run_on_heap(&cfg, &mut rec);
        assert!(rec.registry().gauge_value("wheel_live_events").is_none());
        assert!(rec.registry().counter_value("sim_events_fired").is_some());
        let wheel = SimDriver::new(cfg).unwrap().run();
        assert!(heap.canonical_bytes() == wheel.canonical_bytes());
    }

    /// Full-region scale (scale > 1 replicates the studied region), too
    /// heavy for the debug-mode unit suite — CI runs it in release:
    /// `cargo test --release -p sapsim-core multi_region -- --ignored`.
    #[test]
    #[ignore = "full-region scale; run in release via CI"]
    fn multi_region_estates_fill_every_region_deterministically() {
        let cfg = SimConfig {
            scale: 1.02,
            days: 1,
            warmup_days: 0,
            seed: 27,
            ..SimConfig::default()
        };
        let a = SimDriver::new(cfg).unwrap().run();
        let b = SimDriver::new(cfg).unwrap().run();
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.canonical_bytes(), b.canonical_bytes());

        // Both the full replica and the small remainder region host VMs,
        // in rough proportion to their capacity.
        let topo = a.cloud.topology();
        assert_eq!(topo.regions().len(), 2);
        let mut per_region = vec![0u64; topo.regions().len()];
        for node in topo.nodes() {
            let az = topo.dc(topo.bb(node.bb).dc).az;
            per_region[topo.az(az).region.index()] += a.cloud.vms_on_node(node.id).len() as u64;
        }
        assert!(
            per_region.iter().all(|&n| n > 0),
            "every region hosts VMs: {per_region:?}"
        );
        assert!(a.stats.placement_success_rate() > 0.9);
        a.cloud.verify_accounting(&a.specs).unwrap();
    }

    #[test]
    fn dropouts_punch_gaps_into_the_telemetry() {
        let r = SimDriver::new(faulty_cfg(20)).unwrap().run();
        assert!(r.stats.faults.dropout_windows > 0);
        assert!(r.stats.faults.dropped_samples > 0);
        // Dropped scrapes never reach the store: some node-day has fewer
        // samples than the full cadence even though the node was healthy.
        let full_day = 86_400 / r.config.scrape_interval.as_secs();
        let gap_seen = r
            .store
            .rollups_of(MetricId::HostCpuUtilPct)
            .iter()
            .any(|(_, rollup)| {
                (0..rollup.num_days()).any(|d| {
                    let count = rollup.day(d).map(|c| c.stat.count).unwrap_or(0);
                    count > 0 && count < full_day
                })
            });
        assert!(gap_seen, "dropout gaps appear in the telemetry");
    }

    #[test]
    fn stragglers_degrade_but_never_help() {
        let mut cfg = SimConfig::smoke_test();
        cfg.seed = 21;
        cfg.faults.straggler_fraction = 1.0;
        cfg.faults.straggler_slowdown = 0.5;
        let slow = SimDriver::new(cfg).unwrap().run();
        assert!(slow.stats.faults.straggler_nodes > 0);
        let baseline = smoke(21);
        let ready_sum = |r: &RunResult| -> f64 {
            r.store
                .rollups_of(MetricId::HostCpuReadyMs)
                .iter()
                .flat_map(|(_, rollup)| rollup.daily_means())
                .flatten()
                .sum()
        };
        assert!(
            ready_sum(&slow) >= ready_sum(&baseline),
            "halved throughput cannot reduce CPU-ready"
        );
    }
}
