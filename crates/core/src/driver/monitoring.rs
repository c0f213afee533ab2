//! vROps's side: the telemetry scrape and the Nova-database gauges,
//! plus the end-of-run fold of engine-health metrics.

use super::{span_end, span_start, tally, Event, RunState};
use crate::hypervisor::{self, NodeDemand};
use sapsim_obs::{Recorder, SpanKind};
use sapsim_sim::SimTime;
use sapsim_telemetry::{EntityRef, MetricId};
use sapsim_topology::{NodeId, NodeState};
use sapsim_workload::ScrapeTick;

impl RunState {
    /// `Scrape`: one telemetry round, then the next one an interval
    /// later.
    pub(super) fn scrape<R: Recorder>(&mut self, rec: &mut R, now: SimTime) {
        self.timed(rec, SpanKind::Scrape, |st, rec| {
            st.telemetry_round(rec, now)
        });
        tally(rec, &mut self.stats.scrapes, "scrapes", 1);
        if R::ENABLED {
            // Distribution of the live population across scrape ticks — a
            // cheap load curve that needs no TSDB pass to read back.
            if let Some(m) = rec.metrics_mut() {
                m.observe("live_vms_at_scrape", self.engine.vm_count() as u64);
            }
        }
        self.sim
            .schedule_after(self.cfg.scrape_interval, Event::Scrape);
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
    fn telemetry_round<R: Recorder>(&mut self, rec: &mut R, now: SimTime) {
        let (observed, origin) = (self.observed(now), self.run_start);
        let recording = observed.is_some();
        let obs = observed.unwrap_or(SimTime::ZERO);
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
            if cloud.topology().node(node).state != NodeState::Active {
                // Under maintenance or failed: the exporter loses the
                // host — the white (missing) cells of the paper's
                // heatmaps.
                continue;
            }
            if plan.is_dropped_out(node_idx, now) {
                // Telemetry dropout: the node is healthy and the scrape
                // ran (demand models advanced, contention hints set), but
                // the sample never reached the TSDB.
                tally(rec, &mut faults.dropped_samples, "fault_dropped_samples", 1);
                continue;
            }
            let (e, contention) = (EntityRef::Node(node_idx as u32), sample.cpu_contention_pct);
            store.record_rolled(MetricId::HostCpuUtilPct, e, obs, sample.cpu_util_pct);
            store.record_rolled(MetricId::HostMemUsagePct, e, obs, sample.mem_usage_pct);
            store.record_rolled(MetricId::HostNetTxKbps, e, obs, sample.net_tx_kbps);
            store.record_rolled(MetricId::HostNetRxKbps, e, obs, sample.net_rx_kbps);
            store.record_rolled(MetricId::HostDiskUsageGb, e, obs, sample.disk_usage_gb);
            store.record_rolled(MetricId::HostCpuContentionPct, e, obs, contention);
            store.record_rolled(MetricId::HostCpuReadyMs, e, obs, sample.cpu_ready_ms);
            if cfg.record_raw_host_series {
                store.record(MetricId::HostCpuContentionPct, e, obs, contention);
                store.record(MetricId::HostCpuReadyMs, e, obs, sample.cpu_ready_ms);
            }
        }
        span_end(rec, profile, SpanKind::ScrapeRecord, origin, t_record);
    }

    /// `OsGauge`: record the Nova-database gauges, then schedule the next
    /// recording.
    pub(super) fn os_gauges<R: Recorder>(&mut self, rec: &mut R, now: SimTime) {
        self.timed(rec, SpanKind::OsGauge, |st, _| st.record_os_gauges(now));
        self.sim
            .schedule_after(self.cfg.os_gauge_interval, Event::OsGauge);
    }

    /// Record the Nova-database gauges. In the paper's deployment Nova's
    /// "compute host" is the vSphere cluster, so these gauges are per
    /// building block, plus the region-wide instance counter.
    ///
    /// Samples are stamped with observation-relative time, exactly like
    /// the scrape: nothing is recorded during warm-up or at the one
    /// horizon-boundary event.
    fn record_os_gauges(&mut self, now: SimTime) {
        let Some(obs) = self.observed(now) else {
            return;
        };
        let (cloud, store) = (&self.engine.cloud, &mut self.store);
        for bb in cloud.topology().bbs() {
            let e = EntityRef::Bb(bb.id.index() as u32);
            let cap = bb.total_virtual_capacity();
            let alloc = cloud.bb_allocated(bb.id);
            store.record_rolled(MetricId::OsVcpus, e, obs, cap.cpu_cores as f64);
            store.record_rolled(MetricId::OsVcpusUsed, e, obs, alloc.cpu_cores as f64);
            store.record_rolled(MetricId::OsMemoryMb, e, obs, cap.memory_mib as f64);
            store.record_rolled(MetricId::OsMemoryMbUsed, e, obs, alloc.memory_mib as f64);
        }
        let vms = cloud.vm_count() as f64;
        store.record(MetricId::OsInstancesTotal, EntityRef::Region, obs, vms);
    }

    /// Fold every engine-health counter that accumulates *outside* the
    /// recorder — event queue, timing wheel, host-view cache, candidate
    /// index, fault plan, per-region tallies — into the recorder's
    /// metrics registry, if it carries one. Runs once at end of run, so
    /// none of this prices into the hot path; driver lifecycle counters
    /// stream separately through `counter_add` as they happen.
    pub(super) fn fold_engine_metrics<R: Recorder>(&self, rec: &mut R) {
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
            for (level, &occ) in LEVEL_NAMES.iter().zip(&w.occupied_buckets) {
                m.gauge_with("wheel_occupied_buckets", "level", level, occ as f64);
            }
        }
        let vc = self.engine.cloud.view_cache_stats();
        for (layer, st) in [("node", vc.node), ("bb", vc.bb)] {
            for (name, n) in [
                ("viewcache_refreshes", st.refreshes),
                ("viewcache_clean_refreshes", st.clean_refreshes),
                ("viewcache_rows_recomputed", st.rows_recomputed),
                ("viewcache_lifetime_passes", st.lifetime_passes),
                ("viewcache_full_builds", st.full_builds),
                ("viewcache_marks", st.marks),
            ] {
                m.counter_with(name, "layer", layer, n);
            }
        }
        let (gp, hana) = self.engine.policy().index_stats();
        for (pipe, st) in [("general", *gp), ("hana", *hana)] {
            for (name, n) in [
                ("index_requests", st.indexed_requests),
                ("index_full_scans", st.full_scans),
                ("index_buckets_examined", st.buckets_examined),
                ("index_buckets_pruned", st.buckets_pruned),
                ("index_hosts_pruned", st.hosts_pruned),
            ] {
                m.counter_with(name, "pipeline", pipe, n);
            }
        }
        let plan = &self.fault_plan;
        for (name, n) in [
            ("fault_planned_host_failures", plan.host_failures.len()),
            ("fault_planned_recoveries", plan.recovery_count()),
            ("fault_planned_stragglers", plan.straggler_count()),
            ("fault_planned_dropout_windows", plan.dropout_window_count()),
        ] {
            m.counter(name, n as u64);
        }
        let stats = &self.stats;
        m.gauge("vm_peak_live", stats.peak_vm_count as f64);
        m.gauge("vm_final_live", stats.final_vm_count as f64);
        m.gauge("evac_pending_end", stats.faults.evac_pending_end as f64);
        // Region breakdowns only exist on replicated estates — a
        // single-region export stays byte-identical to the historical
        // schema.
        if self.region_placed.len() > 1 {
            let regions = self.region_placed.iter().zip(&self.region_departed);
            for (r, (&placed, &departed)) in regions.enumerate() {
                let label = r.to_string();
                m.counter_with("region_placements", "region", &label, placed);
                m.counter_with("region_departures", "region", &label, departed);
            }
        }
    }
}
