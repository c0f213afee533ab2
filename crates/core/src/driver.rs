//! The simulation driver: builds the world, runs the event loop, records
//! telemetry, and produces a [`RunResult`].
//!
//! The driver is factored around an explicit [`RunState`] — the complete
//! mutable state of a run in flight. A run builds one from its config and
//! seed, drains it to the horizon, and folds it into the result; the
//! config and the seed are all it takes to reproduce a run byte for byte.
//!
//! Placement is not the driver's own: `RunState` holds the
//! [`PlacementEngine`] that `sapsim serve` runs, boots the estate through
//! it, and makes every arrival, resize and fault evacuation one of its
//! operations at the event's time. What stays here is the workload, the
//! event loop, telemetry, the rebalancers and the fault plan.

use crate::cloud::{Cloud, PlacedVm};
use crate::config::SimConfig;
use crate::engine::{PlaceOutcome, PlacementEngine, ResizeResult};
use crate::error::SimError;
use crate::hypervisor::{self, NodeDemand};
use crate::result::{DriverStats, RunResult, VmUsageSummary};
use sapsim_faults::{FaultPlan, EVAC_BACKOFF_MAX_DOUBLINGS};
use sapsim_obs::{
    DecisionOutcome, DecisionRecord, FaultEventKind, HostScore, NullRecorder, ObsEvent, Recorder,
    RunProfile, RunProgress, SpanKind, DECISION_TOP_K,
};
use sapsim_scheduler::{HostLoad, Ranking, Rebalancer, RejectReason, VmLoad};
use sapsim_sim::{SimDuration, SimRng, SimTime, Simulation};
use sapsim_telemetry::{EntityRef, MetricId, RunningStat, TsdbStore};
use sapsim_topology::{AzId, BbId, BbPurpose, DcId, NodeId, Topology};
use sapsim_workload::{
    paper_flavor_catalog, DayPhase, GeneratorConfig, ScrapeTick, VmId, VmSpec, WorkloadClass,
    WorkloadGenerator,
};
use std::time::Instant;

/// Events of the cloud simulation.
#[derive(Debug, Clone, Copy)]
enum Event {
    /// A VM (by spec index) arrives and must be placed.
    VmArrival(usize),
    /// A VM reaches the end of its lifetime.
    VmDeparture(VmId),
    /// A VM's planned flavor change (paper Section 4 lists resize among
    /// the recorded scheduling-relevant events).
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
    /// A node drops dead (abrupt failure from the fault plan); residents
    /// are evacuated through the normal scheduling pipeline.
    HostFail(NodeId),
    /// A failed node rejoins the fleet.
    HostRecover(NodeId),
    /// Retry the re-placement of a VM waiting in the pending-evacuation
    /// queue (bounded exponential backoff).
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

/// Per-region context of the workload assignment: AZ handles and
/// capacity shares. One per region: several when `scale > 1` or
/// `region_replicas > 1`, else the single region that reproduces the
/// historical behaviour byte-for-byte.
struct RegionCtx {
    az_a: AzId,
    az_b: AzId,
    /// `(gp, hana, ci)` fraction of the region's class capacity in DC A.
    share_a: (f64, f64, f64),
    /// `(gp, hana, ci)` node counts across both DCs — the weights of the
    /// estate-level region assignment.
    class_nodes: (f64, f64, f64),
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

/// Reusable buffers for the periodic events, allocated once per run so the
/// hot paths (scrape, rebalancing rounds) run allocation-free in steady
/// state.
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

impl DriverScratch {
    /// Fresh scratch for an `n`-node estate; the only pre-sized buffer is
    /// the per-node demand accumulator. Scratch never carries state
    /// across events.
    fn for_nodes(n: usize) -> DriverScratch {
        DriverScratch {
            demands: vec![NodeDemand::default(); n],
            node_loads: Vec::new(),
            bb_loads: Vec::new(),
            vm_load_pool: Vec::new(),
        }
    }
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

    /// One telemetry round: advance every VM's demand model, aggregate
    /// per-node physical load, evaluate the hypervisor model, and record.
    /// During warm-up (`now < warmup`) the demand models and contention
    /// hints advance but nothing is recorded; the same holds for the one
    /// horizon event that fires exactly at window end (the event loop is
    /// horizon-inclusive, and that instant is already outside `[0, days)`).
    ///
    /// The round runs in three phases so DRS can read the cached per-VM
    /// demand between scrapes:
    ///
    /// 1. **Per-VM sampling**: each VM advances its own demand model on
    ///    its own split-off RNG stream and caches the resulting demand in
    ///    its slot. The slot and summary tables are parallel arrays, both
    ///    indexed by spec; no VM reads another VM's state.
    /// 2. **Per-node reduction**: cached demands are summed in fixed
    ///    (node, residency) order — the only cross-VM float accumulation.
    /// 3. **Hypervisor model + recording**, in node order.
    fn scrape<R: Recorder>(&mut self, rec: &mut R, now: SimTime) {
        let (warmup, origin) = (self.warmup, self.run_start);
        let RunState {
            cfg,
            engine,
            specs,
            peak_phases,
            vm_stats,
            store,
            scratch,
            fault_plan: plan,
            stats,
            profile,
            ..
        } = self;
        let cloud = &mut engine.cloud;
        let faults = &mut stats.faults;
        let observing = now >= warmup;
        let obs_time = if observing {
            SimTime::from_millis(now.as_millis() - warmup.as_millis())
        } else {
            SimTime::ZERO
        };
        let recording = observing && obs_time < SimTime::from_days(cfg.days);
        let interval = cfg.scrape_interval;

        // Phase 1: sample every placed VM. `vm_stats` is indexed by spec,
        // and the generator numbers ids as consecutive spec indices, so
        // slot i of the dense VM table pairs with summary i.
        let t_sample = span_start::<R>();
        let tick = ScrapeTick::new(now, interval);
        let slots = cloud.vm_slots_mut();
        assert_eq!(slots.len(), vm_stats.len(), "both tables are spec-indexed");
        for (i, (slot, summary)) in slots.iter_mut().zip(vm_stats.iter_mut()).enumerate() {
            let Some(vm) = slot.as_mut() else { continue };
            debug_assert_eq!(vm.spec_index, i, "slot table is id-indexed");
            let spec = &specs[vm.spec_index];
            let age = spec.age_at(now);
            let (cpu_ratio, mem_ratio) = spec.usage.step(
                peak_phases[vm.spec_index],
                &tick,
                &mut vm.usage_state,
                age,
                &mut vm.rng,
            );
            // Demand scales with the *current* request (resizes
            // apply); disk fills toward the original allocation.
            let current = vm.resources;
            vm.last_cpu_demand_cores = cpu_ratio * current.cpu_cores as f64;
            vm.last_mem_used_mib = mem_ratio * current.memory_mib as f64;
            vm.last_disk_used_gib = hypervisor::vm_disk_fill_fraction(age.as_days_f64())
                * spec.resources.disk_gib as f64;
            if recording {
                summary.cpu_ratio.push(cpu_ratio);
                summary.mem_ratio.push(mem_ratio);
            }
        }

        span_end(rec, profile, SpanKind::ScrapeSample, origin, t_sample);

        // Phase 2: reduce the cached per-VM demands into per-node totals.
        let t_reduce = span_start::<R>();
        debug_assert_eq!(scratch.demands.len(), cloud.topology().nodes().len());
        for (node_idx, d) in scratch.demands.iter_mut().enumerate() {
            *d = NodeDemand::default();
            for &vm_id in cloud.vms_on_node(NodeId::from_raw(node_idx as u32)) {
                let vm = cloud.vm(vm_id).expect("resident VM exists");
                d.cpu_demand_cores += vm.last_cpu_demand_cores;
                d.mem_used_mib += vm.last_mem_used_mib;
                d.disk_used_gib += vm.last_disk_used_gib;
            }
        }

        span_end(rec, profile, SpanKind::ScrapeReduce, origin, t_reduce);

        // Phase 3: evaluate and record the node model.
        let t_record = span_start::<R>();
        for (node_idx, demand) in scratch.demands.iter().enumerate() {
            let node = NodeId::from_raw(node_idx as u32);
            let physical = cloud.topology().node_physical_capacity(node);
            // Straggler nodes run at degraded pCPU throughput for the
            // whole run; healthy nodes get factor 1.0, which reproduces
            // the plain model bit-for-bit.
            let sample = hypervisor::sample_node_with_throughput(
                &physical,
                demand,
                interval.as_millis(),
                plan.throughput(node_idx),
            );
            cloud.set_node_contention(node, sample.cpu_contention_pct);
            if !recording {
                continue;
            }
            debug_assert!(
                (obs_time.day_index() as usize) < store.rollup_days(),
                "rolled sample at day {} outside the {}-day window",
                obs_time.day_index(),
                store.rollup_days(),
            );
            if cloud.topology().node(node).state != sapsim_topology::NodeState::Active {
                // Under maintenance or failed: the exporter loses the
                // host — the white (missing) cells of the paper's
                // heatmaps.
                continue;
            }
            if plan.is_dropped_out(node_idx, now) {
                // Telemetry dropout: the node is healthy and the scrape
                // ran (demand models advanced, contention hints set), but
                // the sample never reached the TSDB.
                faults.dropped_samples += 1;
                if R::ENABLED {
                    rec.counter_add("fault_dropped_samples", 1);
                }
                continue;
            }
            let e = EntityRef::Node(node_idx as u32);
            store.record_rolled(MetricId::HostCpuUtilPct, e, obs_time, sample.cpu_util_pct);
            store.record_rolled(MetricId::HostMemUsagePct, e, obs_time, sample.mem_usage_pct);
            store.record_rolled(MetricId::HostNetTxKbps, e, obs_time, sample.net_tx_kbps);
            store.record_rolled(MetricId::HostNetRxKbps, e, obs_time, sample.net_rx_kbps);
            store.record_rolled(MetricId::HostDiskUsageGb, e, obs_time, sample.disk_usage_gb);
            store.record_rolled(
                MetricId::HostCpuContentionPct,
                e,
                obs_time,
                sample.cpu_contention_pct,
            );
            store.record_rolled(MetricId::HostCpuReadyMs, e, obs_time, sample.cpu_ready_ms);
            if cfg.record_raw_host_series {
                store.record(
                    MetricId::HostCpuContentionPct,
                    e,
                    obs_time,
                    sample.cpu_contention_pct,
                );
                store.record(MetricId::HostCpuReadyMs, e, obs_time, sample.cpu_ready_ms);
            }
        }
        span_end(rec, profile, SpanKind::ScrapeRecord, origin, t_record);
    }

    /// Fold every engine-health counter that accumulates *outside* the
    /// recorder — event queue, timing wheel, host-view cache, candidate
    /// index, fault plan, per-region tallies — into the recorder's
    /// metrics registry, if it carries one. Runs once at end of run, so
    /// none of this prices into the hot path; driver lifecycle counters
    /// stream separately through `counter_add` as they happen.
    fn fold_engine_metrics<R: Recorder>(&self, rec: &mut R) {
        let Some(m) = rec.metrics_mut() else {
            return;
        };
        // Monotone run totals export as counters so `obs metrics` merges
        // across runs sum them; gauges are reserved for genuine
        // point-in-time or peak values (final depths, live counts).
        let s = self.sim.stats();
        m.counter("sim_events_fired", s.fired);
        m.counter("sim_events_scheduled", s.scheduled);
        m.counter("sim_events_cancelled", s.cancelled);
        if let Some(w) = self.sim.wheel_stats() {
            m.counter("wheel_cascades", w.cascades);
            m.counter("wheel_cascade_moves", w.cascade_moves);
            m.counter("wheel_overflow_refiles", w.overflow_refiles);
            m.gauge("wheel_overflow_depth", w.overflow_depth as f64);
            m.gauge("wheel_max_overflow_depth", w.max_overflow_depth as f64);
            m.gauge("wheel_live_events", w.live as f64);
            const LEVEL_NAMES: [&str; sapsim_sim::WHEEL_LEVELS] = ["0", "1", "2", "3", "4", "5"];
            for (level, &occ) in w.occupied_buckets.iter().enumerate() {
                m.gauge_with(
                    "wheel_occupied_buckets",
                    "level",
                    LEVEL_NAMES[level],
                    occ as f64,
                );
            }
        }
        let vc = self.engine.cloud.view_cache_stats();
        for (layer, st) in [("node", vc.node), ("bb", vc.bb)] {
            m.counter_with("viewcache_refreshes", "layer", layer, st.refreshes);
            m.counter_with(
                "viewcache_clean_refreshes",
                "layer",
                layer,
                st.clean_refreshes,
            );
            m.counter_with(
                "viewcache_rows_recomputed",
                "layer",
                layer,
                st.rows_recomputed,
            );
            m.counter_with(
                "viewcache_lifetime_passes",
                "layer",
                layer,
                st.lifetime_passes,
            );
            m.counter_with("viewcache_full_builds", "layer", layer, st.full_builds);
            m.counter_with("viewcache_marks", "layer", layer, st.marks);
        }
        let (gp, hana) = self.engine.policy().index_stats();
        for (pipe, st) in [("general", *gp), ("hana", *hana)] {
            m.counter_with("index_requests", "pipeline", pipe, st.indexed_requests);
            m.counter_with("index_full_scans", "pipeline", pipe, st.full_scans);
            m.counter_with(
                "index_buckets_examined",
                "pipeline",
                pipe,
                st.buckets_examined,
            );
            m.counter_with("index_buckets_pruned", "pipeline", pipe, st.buckets_pruned);
            m.counter_with("index_hosts_pruned", "pipeline", pipe, st.hosts_pruned);
        }
        m.counter(
            "fault_planned_host_failures",
            self.fault_plan.host_failures.len() as u64,
        );
        m.counter(
            "fault_planned_recoveries",
            self.fault_plan.recovery_count() as u64,
        );
        m.counter(
            "fault_planned_stragglers",
            self.fault_plan.straggler_count() as u64,
        );
        m.counter(
            "fault_planned_dropout_windows",
            self.fault_plan.dropout_window_count() as u64,
        );
        m.gauge("vm_peak_live", self.stats.peak_vm_count as f64);
        m.gauge("vm_final_live", self.stats.final_vm_count as f64);
        m.gauge(
            "evac_pending_end",
            self.stats.faults.evac_pending_end as f64,
        );
        // Region breakdowns only exist on replicated estates — a
        // single-region export stays byte-identical to the historical
        // schema.
        if self.region_placed.len() > 1 {
            for (r, (&placed, &departed)) in self
                .region_placed
                .iter()
                .zip(&self.region_departed)
                .enumerate()
            {
                let label = r.to_string();
                m.counter_with("region_placements", "region", &label, placed);
                m.counter_with("region_departures", "region", &label, departed);
            }
        }
    }
}

/// The days `vm` has left at `now`: the lifetime hint its restart after
/// a host failure asks with.
fn residual_days(vm: &PlacedVm, now: SimTime) -> f64 {
    if vm.departure > now {
        (vm.departure - now).as_days_f64()
    } else {
        0.0
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
                let (dc_a, dc_b) = (topo.az(az_a).dcs[0], topo.az(az_b).dcs[0]);
                RegionCtx {
                    az_a,
                    az_b,
                    share_a: Self::dc_purpose_shares(topo, dc_a, dc_b),
                    class_nodes: Self::dc_class_nodes(topo, dc_a, dc_b),
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
            let any_ci = regions.iter().any(|r| r.class_nodes.2 > 0.0);
            let weights_for = |class: WorkloadClass| -> Vec<f64> {
                let mut acc = 0.0;
                regions
                    .iter()
                    .map(|r| {
                        acc += match class {
                            WorkloadClass::Hana => r.class_nodes.1,
                            WorkloadClass::CiFarm if any_ci => r.class_nodes.2,
                            _ => r.class_nodes.0,
                        };
                        acc
                    })
                    .collect()
            };
            let cum_gp = weights_for(WorkloadClass::GeneralPurpose);
            let cum_hana = weights_for(WorkloadClass::Hana);
            let cum_ci = weights_for(WorkloadClass::CiFarm);
            specs
                .iter()
                .map(|s| {
                    let cum = match s.class {
                        WorkloadClass::Hana => &cum_hana,
                        WorkloadClass::CiFarm => &cum_ci,
                        WorkloadClass::GeneralPurpose => &cum_gp,
                    };
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
                let share_a = match s.class {
                    WorkloadClass::Hana => region.share_a.1,
                    WorkloadClass::CiFarm => region.share_a.2,
                    WorkloadClass::GeneralPurpose => region.share_a.0,
                };
                if az_rng.bool(share_a) {
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
        let scratch = DriverScratch::for_nodes(cloud.topology().nodes().len());
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

        let drs = Rebalancer::new(cfg.drs);
        let cross = Rebalancer::new(cfg.drs);

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

        // Per-region lifecycle tallies for the metrics export. Plain
        // vector bumps in the hot path; the labeled fold happens once at
        // end of run, and only multi-region estates emit the breakdown.
        let region_placed: Vec<u64> = vec![0; regions];
        let region_departed: Vec<u64> = vec![0; regions];

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
            drs,
            cross,
            fault_plan,
            pending: Vec::new(),
            region_placed,
            region_departed,
            run_start,
            profile,
        }
    }

    /// Drain the event loop to the horizon (inclusive).
    fn run_to_horizon<R: Recorder>(st: &mut RunState, rec: &mut R) {
        while let Some(ev) = st.sim.next_event_until(st.horizon) {
            rec.tick(|| st.progress(ev.time));
            Self::handle_event(st, rec, ev.time, ev.payload);
        }
    }

    /// Dispatch one fired event against the run state.
    fn handle_event<R: Recorder>(st: &mut RunState, rec: &mut R, now: SimTime, payload: Event) {
        let cfg = st.cfg;
        st.engine.advance_clock(now);
        match payload {
            Event::VmArrival(spec_index) => {
                st.stats.placements_attempted += 1;
                let t0 = span_start::<R>();
                let outcome = Self::place_vm(st, rec, now, spec_index);
                span_end(rec, &mut st.profile, SpanKind::Placement, st.run_start, t0);
                match outcome {
                    PlaceOutcome::Placed { retries, .. } => {
                        let spec = &st.specs[spec_index];
                        st.stats.placed += 1;
                        st.stats.placement_retries += retries as u64;
                        st.vm_stats[spec_index].placed = true;
                        if spec.departure() <= st.horizon {
                            st.sim
                                .schedule_at(spec.departure(), Event::VmDeparture(spec.id));
                        }
                        if let Some(t) = spec.resize_time() {
                            if t > now && t <= st.horizon {
                                st.sim.schedule_at(t, Event::VmResize(spec.id));
                            }
                        }
                        st.stats.peak_vm_count = st.stats.peak_vm_count.max(st.engine.vm_count());
                        st.region_placed[st.vm_region[spec_index] as usize] += 1;
                        if R::ENABLED {
                            rec.counter_add("placements", 1);
                            rec.counter_add("placement_retries", retries as u64);
                        }
                    }
                    PlaceOutcome::NoCandidate => {
                        st.stats.failed_no_candidate += 1;
                        if R::ENABLED {
                            rec.counter_add("placements_failed_no_candidate", 1);
                        }
                    }
                    PlaceOutcome::Fragmented { .. } => {
                        st.stats.failed_fragmented += 1;
                        if R::ENABLED {
                            rec.counter_add("placements_failed_fragmented", 1);
                        }
                    }
                }
            }
            Event::VmDeparture(id) => {
                if let Some(vm) = st.engine.cloud.remove(id) {
                    st.stats.departures += 1;
                    st.region_departed[st.vm_region[vm.spec_index] as usize] += 1;
                    if R::ENABLED {
                        rec.counter_add("departures", 1);
                    }
                } else if let Some(pos) = st.pending.iter().position(|p| p.vm.id == id) {
                    // The VM's lifetime ended while it was waiting for
                    // re-placement after a host failure.
                    let evac = st.pending.remove(pos);
                    st.stats.departures += 1;
                    st.region_departed[st.vm_region[evac.vm.spec_index] as usize] += 1;
                    if R::ENABLED {
                        rec.counter_add("departures", 1);
                    }
                }
            }
            Event::VmResize(id) => Self::handle_resize(st, id),
            Event::Scrape => {
                st.stats.scrapes += 1;
                let t0 = span_start::<R>();
                st.scrape(rec, now);
                span_end(rec, &mut st.profile, SpanKind::Scrape, st.run_start, t0);
                if R::ENABLED {
                    rec.counter_add("scrapes", 1);
                    // Distribution of the live population across
                    // scrape ticks — a cheap load curve that needs no
                    // TSDB pass to read back.
                    if let Some(m) = rec.metrics_mut() {
                        m.observe("live_vms_at_scrape", st.engine.vm_count() as u64);
                    }
                }
                st.sim.schedule_after(cfg.scrape_interval, Event::Scrape);
            }
            Event::OsGauge => {
                let t0 = span_start::<R>();
                Self::record_os_gauges(&st.engine.cloud, &mut st.store, now, st.warmup);
                span_end(rec, &mut st.profile, SpanKind::OsGauge, st.run_start, t0);
                st.sim.schedule_after(cfg.os_gauge_interval, Event::OsGauge);
            }
            Event::DrsRound => {
                let t0 = span_start::<R>();
                let migrated = Self::drs_round(&mut st.engine.cloud, &st.drs, &mut st.scratch);
                span_end(rec, &mut st.profile, SpanKind::DrsRound, st.run_start, t0);
                st.stats.drs_migrations += migrated;
                if R::ENABLED {
                    rec.counter_add("drs_migrations", migrated);
                }
                st.sim.schedule_after(cfg.drs_interval, Event::DrsRound);
            }
            Event::CrossBbRound => {
                let t0 = span_start::<R>();
                let migrated =
                    Self::cross_bb_round(&mut st.engine.cloud, &st.cross, &mut st.scratch);
                span_end(rec, &mut st.profile, SpanKind::CrossBbRound, st.run_start, t0);
                st.stats.cross_bb_migrations += migrated;
                if R::ENABLED {
                    rec.counter_add("cross_bb_migrations", migrated);
                }
                st.sim
                    .schedule_after(cfg.cross_bb_interval, Event::CrossBbRound);
            }
            Event::MaintenanceStart(node) => {
                if st.engine.topology().node(node).state != sapsim_topology::NodeState::Active {
                    // The node is already down (failed): planned
                    // maintenance cannot start and the window lapses.
                    st.stats.maintenance_aborted += 1;
                } else {
                    // Silence the node first so the evacuation targets
                    // exclude it, then move everything off. A stuck VM
                    // (pinned, or no sibling capacity) aborts the window
                    // and the node returns to service.
                    st.engine
                        .cloud
                        .set_node_state(node, sapsim_topology::NodeState::Maintenance);
                    match st.engine.cloud.evacuate_node(node) {
                        Ok(moved) => {
                            st.stats.maintenance_windows += 1;
                            st.stats.evacuations += moved;
                            if R::ENABLED {
                                rec.counter_add("evacuations", moved);
                            }
                            st.sim.schedule_after(
                                cfg.maintenance_duration,
                                Event::MaintenanceEnd(node),
                            );
                        }
                        Err(_stuck) => {
                            st.stats.maintenance_aborted += 1;
                            st.engine
                                .cloud
                                .set_node_state(node, sapsim_topology::NodeState::Active);
                        }
                    }
                }
            }
            Event::MaintenanceEnd(node) => {
                if st.engine.topology().node(node).state == sapsim_topology::NodeState::Maintenance
                {
                    st.engine
                        .cloud
                        .set_node_state(node, sapsim_topology::NodeState::Active);
                }
            }
            Event::HostFail(node) => {
                if st.engine.topology().node(node).state != sapsim_topology::NodeState::Active {
                    // Already out of service (maintenance window in
                    // progress): the drawn failure is skipped rather
                    // than stacked on top.
                    return;
                }
                st.engine
                    .cloud
                    .set_node_state(node, sapsim_topology::NodeState::Failed);
                st.stats.faults.host_failures += 1;
                if R::ENABLED {
                    rec.counter_add("host_failures", 1);
                    rec.record(ObsEvent::Fault {
                        kind: FaultEventKind::HostFail,
                        sim_time_ms: now.as_millis(),
                        node: node.index() as u32,
                        vm_uid: None,
                    });
                }
                // Unlike planned maintenance there is no "abort":
                // every resident is forcibly displaced, and whatever
                // cannot restart immediately joins the pending queue.
                let residents: Vec<VmId> = st.engine.cloud.vms_on_node(node).to_vec();
                for id in residents {
                    st.stats.faults.evacuated += 1;
                    if R::ENABLED {
                        rec.counter_add("fault_evacuations", 1);
                    }
                    let residual = residual_days(st.engine.cloud.vm(id).expect("resident"), now);
                    match st.engine.evacuate_vm(id, Some(residual)) {
                        Ok(target) => {
                            st.stats.faults.evac_replaced += 1;
                            if R::ENABLED {
                                rec.counter_add("fault_evac_replaced", 1);
                                rec.record(ObsEvent::Fault {
                                    kind: FaultEventKind::EvacReplaced,
                                    sim_time_ms: now.as_millis(),
                                    node: target.index() as u32,
                                    vm_uid: Some(id.raw()),
                                });
                            }
                        }
                        Err(vm) => {
                            if R::ENABLED {
                                rec.record(ObsEvent::Fault {
                                    kind: FaultEventKind::EvacPending,
                                    sim_time_ms: now.as_millis(),
                                    node: node.index() as u32,
                                    vm_uid: Some(id.raw()),
                                });
                            }
                            st.pending.push(PendingEvac {
                                vm: *vm,
                                retries: 0,
                            });
                            st.stats.faults.evac_pending_peak = st
                                .stats
                                .faults
                                .evac_pending_peak
                                .max(st.pending.len() as u64);
                            st.sim.schedule_after(
                                SimDuration::from_secs(cfg.faults.evac_retry_backoff_secs),
                                Event::EvacRetry(id),
                            );
                        }
                    }
                }
            }
            Event::HostRecover(node) => {
                if st.engine.topology().node(node).state == sapsim_topology::NodeState::Failed {
                    st.engine
                        .cloud
                        .set_node_state(node, sapsim_topology::NodeState::Active);
                    st.stats.faults.host_recoveries += 1;
                    if R::ENABLED {
                        rec.counter_add("host_recoveries", 1);
                        rec.record(ObsEvent::Fault {
                            kind: FaultEventKind::HostRecover,
                            sim_time_ms: now.as_millis(),
                            node: node.index() as u32,
                            vm_uid: None,
                        });
                    }
                }
            }
            Event::EvacRetry(id) => {
                let Some(pos) = st.pending.iter().position(|p| p.vm.id == id) else {
                    // Already re-placed, departed, or given up on.
                    return;
                };
                if st.pending[pos].vm.departure <= now {
                    // Lifetime ran out while waiting; the regular
                    // departure event (if any remains) will find
                    // nothing and count nothing.
                    st.pending.remove(pos);
                    st.stats.departures += 1;
                    if R::ENABLED {
                        rec.counter_add("departures", 1);
                    }
                    return;
                }
                // Out of the queue for the walk; back at the same position
                // if it has to wait on.
                let PendingEvac { vm, retries } = st.pending.remove(pos);
                let residual = residual_days(&vm, now);
                match st.engine.restart(vm, Some(residual)) {
                    Ok(node) => {
                        st.stats.faults.evac_replaced += 1;
                        if R::ENABLED {
                            rec.counter_add("fault_evac_replaced", 1);
                            rec.record(ObsEvent::Fault {
                                kind: FaultEventKind::EvacReplaced,
                                sim_time_ms: now.as_millis(),
                                node: node.index() as u32,
                                vm_uid: Some(id.raw()),
                            });
                        }
                    }
                    Err(vm) if retries < cfg.faults.evac_retry_limit => {
                        let retries = retries + 1;
                        st.stats.faults.evac_retries += 1;
                        if R::ENABLED {
                            rec.counter_add("fault_evac_retries", 1);
                            rec.record(ObsEvent::Fault {
                                kind: FaultEventKind::EvacRetry,
                                sim_time_ms: now.as_millis(),
                                node: vm.node.index() as u32,
                                vm_uid: Some(id.raw()),
                            });
                        }
                        // Bounded exponential backoff: double per
                        // attempt, capped so the shift stays sane.
                        let shift = retries.min(EVAC_BACKOFF_MAX_DOUBLINGS);
                        st.pending.insert(pos, PendingEvac { vm: *vm, retries });
                        st.sim.schedule_after(
                            SimDuration::from_secs(cfg.faults.evac_retry_backoff_secs << shift),
                            Event::EvacRetry(id),
                        );
                    }
                    Err(vm) => {
                        st.stats.faults.evac_lost += 1;
                        if R::ENABLED {
                            rec.counter_add("fault_evac_lost", 1);
                            rec.record(ObsEvent::Fault {
                                kind: FaultEventKind::EvacLost,
                                sim_time_ms: now.as_millis(),
                                node: vm.node.index() as u32,
                                vm_uid: Some(id.raw()),
                            });
                        }
                    }
                }
            }
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
        if cfg.warmup_days > 0 {
            for spec in &mut st.specs {
                if spec.arrival >= st.warmup {
                    spec.arrival =
                        SimTime::from_millis(spec.arrival.as_millis() - st.warmup.as_millis());
                } else {
                    spec.age_at_arrival += st.warmup - spec.arrival;
                    spec.arrival = SimTime::ZERO;
                }
            }
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

    /// `(gp, hana, ci)` shares: the fraction of each purpose class's node
    /// capacity that lives in DC A. A class entirely absent from one DC
    /// gets share 0 or 1, steering all of its VMs to the DC that can host
    /// them.
    fn dc_purpose_shares(topo: &Topology, dc_a: DcId, dc_b: DcId) -> (f64, f64, f64) {
        let count = |dc: DcId, purpose: BbPurpose| -> f64 {
            topo.dc(dc)
                .bbs
                .iter()
                .filter(|&&bb| topo.bb(bb).purpose == purpose)
                .map(|&bb| topo.bb(bb).nodes.len() as f64)
                .sum()
        };
        let share = |purpose: BbPurpose| -> f64 {
            let a = count(dc_a, purpose);
            let b = count(dc_b, purpose);
            if a + b == 0.0 {
                0.5
            } else {
                a / (a + b)
            }
        };
        (
            share(BbPurpose::GeneralPurpose),
            share(BbPurpose::Hana),
            share(BbPurpose::CiFarm),
        )
    }

    /// `(gp, hana, ci)` node counts summed over a region's two DCs — the
    /// capacity weights of the estate-level region assignment.
    fn dc_class_nodes(topo: &Topology, dc_a: DcId, dc_b: DcId) -> (f64, f64, f64) {
        let count = |purpose: BbPurpose| -> f64 {
            [dc_a, dc_b]
                .iter()
                .flat_map(|&dc| topo.dc(dc).bbs.iter())
                .filter(|&&bb| topo.bb(bb).purpose == purpose)
                .map(|&bb| topo.bb(bb).nodes.len() as f64)
                .sum()
        };
        (
            count(BbPurpose::GeneralPurpose),
            count(BbPurpose::Hana),
            count(BbPurpose::CiFarm),
        )
    }

    /// Handle a planned resize: in place if the node has room, otherwise
    /// re-schedule region-wide with the new size (Nova's resize path); if
    /// no capacity exists anywhere the VM keeps its old flavor.
    fn handle_resize(st: &mut RunState, id: VmId) {
        let Some(vm) = st.engine.cloud.vm(id) else {
            return; // Never placed (placement failed at arrival).
        };
        let Some(resize) = st.specs[vm.spec_index].resize else {
            return;
        };
        st.stats.resizes_attempted += 1;
        match st.engine.resize(id, resize.resources) {
            ResizeResult::InPlace { .. } => st.stats.resizes_in_place += 1,
            ResizeResult::Migrated { .. } => st.stats.resizes_migrated += 1,
            ResizeResult::Failed | ResizeResult::UnknownVm => st.stats.resizes_failed += 1,
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
        st: &mut RunState,
        rec: &mut R,
        now: SimTime,
        spec_index: usize,
    ) -> PlaceOutcome {
        let spec = &st.specs[spec_index];
        let vm = spec.id;
        // The lifetime-aware extension assumes the operator can predict
        // lifetime (e.g. from the flavor's history); we grant it the true
        // residual lifetime, an upper bound on what prediction can achieve.
        let residual_days = (spec.lifetime - spec.age_at_arrival).as_days_f64();
        let walked = st.engine.place_spec(spec, residual_days);
        let outcome = PlaceOutcome::of(vm, &walked);
        if R::ENABLED {
            // A pass with survivors lists its eliminations in reason
            // order; one without reports them largest first.
            let ranking = st.engine.last_ranking();
            let rejections = match &walked {
                Ok(_) => &ranking.rejections,
                Err(err) => &err.rejections,
            };
            for &(reason, n) in rejections {
                rec.counter_add(rejection_counter(reason), n as u64);
            }
            if rec.wants_decision(vm.raw()) {
                let record = Self::decision_from(ranking, rejections, now, vm.raw(), outcome);
                rec.record(ObsEvent::Decision(record));
            }
        }
        outcome
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

    /// Record the Nova-database gauges. In the paper's deployment Nova's
    /// "compute host" is the vSphere cluster, so these gauges are per
    /// building block, plus the region-wide instance counter.
    ///
    /// Samples are stamped with observation-relative time, exactly like
    /// `scrape`: nothing is recorded during warm-up, and the one
    /// horizon-boundary event (which the inclusive event loop fires at the
    /// first instant past the `[0, days)` window) is dropped rather than
    /// recorded outside the rollup range.
    fn record_os_gauges(cloud: &Cloud, store: &mut TsdbStore, now: SimTime, warmup: SimTime) {
        if now < warmup {
            return;
        }
        let obs = SimTime::from_millis(now.as_millis() - warmup.as_millis());
        if (obs.day_index() as usize) >= store.rollup_days() {
            return; // the single horizon-boundary event
        }
        debug_assert!(
            (obs.day_index() as usize) < store.rollup_days(),
            "rolled gauge at day {} outside the {}-day window",
            obs.day_index(),
            store.rollup_days(),
        );
        for bb in cloud.topology().bbs() {
            let e = EntityRef::Bb(bb.id.index() as u32);
            let cap = bb.total_virtual_capacity();
            let alloc = cloud.bb_allocated(bb.id);
            store.record_rolled(MetricId::OsVcpus, e, obs, cap.cpu_cores as f64);
            store.record_rolled(MetricId::OsVcpusUsed, e, obs, alloc.cpu_cores as f64);
            store.record_rolled(MetricId::OsMemoryMb, e, obs, cap.memory_mib as f64);
            store.record_rolled(MetricId::OsMemoryMbUsed, e, obs, alloc.memory_mib as f64);
        }
        store.record(
            MetricId::OsInstancesTotal,
            EntityRef::Region,
            obs,
            cloud.vm_count() as f64,
        );
    }

    /// Return a round's host loads to the scratch pool so the next round
    /// reuses their VM vectors instead of reallocating them.
    fn recycle_loads<I>(loads: &mut Vec<HostLoad<I>>, pool: &mut Vec<Vec<VmLoad>>) {
        for mut hl in loads.drain(..) {
            hl.vms.clear();
            pool.push(hl.vms);
        }
    }

    /// One DRS round: plan and apply migrations inside each building
    /// block.
    fn drs_round(cloud: &mut Cloud, drs: &Rebalancer, scratch: &mut DriverScratch) -> u64 {
        let mut applied = 0u64;
        for bb_idx in 0..cloud.topology().bbs().len() {
            let bb = BbId::from_raw(bb_idx as u32);
            Self::recycle_loads(&mut scratch.node_loads, &mut scratch.vm_load_pool);
            for &nid in &cloud.topology().bb(bb).nodes {
                if cloud.topology().node(nid).state != sapsim_topology::NodeState::Active {
                    // A failed or in-maintenance node is empty (its VMs
                    // were evacuated) — but an empty host is exactly what
                    // the rebalancer finds most attractive, so it must not
                    // be offered as a migration target while out of
                    // service.
                    continue;
                }
                let physical = cloud.topology().node_physical_capacity(nid);
                let mut vms = scratch.vm_load_pool.pop().unwrap_or_default();
                for &vmid in cloud.vms_on_node(nid) {
                    let vm = cloud.vm(vmid).expect("resident");
                    vms.push(VmLoad {
                        vm_uid: vmid.raw(),
                        cpu_demand: vm.last_cpu_demand_cores,
                        mem_used_mib: vm.last_mem_used_mib,
                        movable: vm.movable,
                    });
                }
                scratch.node_loads.push(HostLoad {
                    id: nid,
                    cpu_capacity: physical.cpu_cores as f64,
                    mem_capacity_mib: physical.memory_mib as f64,
                    vms,
                });
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

    /// One cross-BB round per data center: rebalance general-purpose load
    /// across that DC's general-purpose blocks. A migration plan names a
    /// destination block; the actual node is chosen like any initial
    /// placement.
    fn cross_bb_round(
        cloud: &mut Cloud,
        rebalancer: &Rebalancer,
        scratch: &mut DriverScratch,
    ) -> u64 {
        let mut applied = 0u64;
        for dc_idx in 0..cloud.topology().dcs().len() {
            Self::recycle_loads(&mut scratch.bb_loads, &mut scratch.vm_load_pool);
            let dc: DcId = cloud.topology().dcs()[dc_idx].id;
            for &bb in &cloud.topology().dc(dc).bbs {
                let block = cloud.topology().bb(bb);
                if block.purpose != BbPurpose::GeneralPurpose {
                    continue;
                }
                let phys = &block.profile.physical;
                let n = block.nodes.len() as f64;
                let mut vms = scratch.vm_load_pool.pop().unwrap_or_default();
                for &nid in &block.nodes {
                    for &vmid in cloud.vms_on_node(nid) {
                        let vm = cloud.vm(vmid).expect("resident");
                        vms.push(VmLoad {
                            vm_uid: vmid.raw(),
                            cpu_demand: vm.last_cpu_demand_cores,
                            mem_used_mib: vm.last_mem_used_mib,
                            movable: vm.movable,
                        });
                    }
                }
                scratch.bb_loads.push(HostLoad {
                    id: bb,
                    cpu_capacity: phys.cpu_cores as f64 * n,
                    mem_capacity_mib: phys.memory_mib as f64 * n,
                    vms,
                });
            }
            if scratch.bb_loads.len() < 2 {
                continue;
            }
            let plan = rebalancer.plan(&scratch.bb_loads);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PlacementGranularity;
    use sapsim_scheduler::PolicyKind;
    use sapsim_sim::QueueBackend;

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
        let mut rec = JsonlRecorder::new(ObsConfig {
            ring_capacity: 1 << 20,
            ..ObsConfig::default()
        });
        let r = SimDriver::new(cfg).unwrap().run_with_recorder(&mut rec);
        let counters: std::collections::BTreeMap<_, _> = rec.counters().collect();
        assert_eq!(counters["placements"], r.stats.placed);
        assert_eq!(counters["scrapes"], r.stats.scrapes);
        assert_eq!(counters["departures"], r.stats.departures);
        assert_eq!(counters["placement_retries"], r.stats.placement_retries);
        // Every placement was sampled at the default rate of 1.0 and the
        // ring is large enough to hold them all.
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
        assert_eq!(released.restart(displaced, None).ok(), Some(sibling));

        let mut st = SimDriver::build_state(&cell(1, 0.01, 1, Default::default()), false);
        st.engine = engine;
        SimDriver::handle_event(
            &mut st,
            &mut NullRecorder,
            SimTime::ZERO,
            Event::HostFail(source),
        );
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
