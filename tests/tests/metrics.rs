//! Integration: the engine-health metrics registry is purely
//! observational — collecting it (with or without the progress
//! heartbeat, under any recorder) never changes the canonical result —
//! and its exports honor their stable schemas:
//! the log-linear bucket boundaries and the `sapsim.metrics/v1` JSON.

use sapsim_core::obs::{
    bucket_index, bucket_upper_bound, Histogram, JsonlRecorder, MetricsRecorder, MetricsRegistry,
    NullRecorder, ObsConfig, ProgressRecorder, HIST_BUCKETS,
};
use sapsim_core::{SimConfig, SimDriver};
use sapsim_sweep::{parse_manifest, run_sweep, SweepOptions};

fn cfg(seed: u64) -> SimConfig {
    SimConfig::builder()
        .scale(0.02)
        .days(2)
        .seed(seed)
        .warmup_days(0)
        .build()
        .expect("valid test config")
}

/// The tentpole contract: a metrics-collecting run serializes to the
/// same canonical bytes as a plain run — with the progress heartbeat
/// on, and with the combined JSONL-plus-metrics recorder.
#[test]
fn metrics_collection_never_perturbs_the_simulation() {
    let baseline = SimDriver::new(cfg(41))
        .expect("valid")
        .run()
        .canonical_bytes();
    assert!(!baseline.is_empty());

    let mut rec = MetricsRecorder::new();
    let bytes = SimDriver::new(cfg(41))
        .expect("valid")
        .run_with_recorder(&mut rec)
        .canonical_bytes();
    assert!(
        bytes == baseline,
        "metrics run diverged from the plain baseline"
    );
    assert!(
        !rec.registry().is_empty(),
        "a metrics run populates the registry"
    );

    let bytes = SimDriver::new(cfg(41))
        .expect("valid")
        .run_with_recorder(&mut ProgressRecorder::new(&mut NullRecorder))
        .canonical_bytes();
    assert!(bytes == baseline, "the progress heartbeat changed results");

    let mut rec = JsonlRecorder::new(ObsConfig::default()).with_metrics();
    let bytes = SimDriver::new(cfg(41))
        .expect("valid")
        .run_with_recorder(&mut rec)
        .canonical_bytes();
    assert!(bytes == baseline, "the combined recorder changed results");
    assert!(rec.metrics().is_some_and(|m| !m.is_empty()));
}

/// One run fills every subsystem's corner of the registry: event-loop
/// counters, timing-wheel occupancy, host-view cache layers, candidate
/// index prune effectiveness, fault plan, VM lifecycle gauges, and the
/// live-VM histogram.
#[test]
fn engine_registry_covers_every_subsystem() {
    let mut rec = MetricsRecorder::new();
    SimDriver::new(cfg(42))
        .expect("valid")
        .run_with_recorder(&mut rec);
    let m = rec.registry();

    assert!(m.counter_value("placements").unwrap_or(0) > 0);
    assert!(m.counter_value("scrapes").unwrap_or(0) > 0);
    assert!(m.counter_value("sim_events_fired").unwrap_or(0) > 0);

    // The default backend is the timing wheel; its stats fold in.
    assert!(m.gauge_value("wheel_live_events").is_some());
    let wheel_levels = m
        .gauges()
        .filter(|(k, _)| k.name == "wheel_occupied_buckets")
        .count();
    assert!(wheel_levels > 1, "per-level wheel occupancy is exported");

    // Both host-view cache layers and both scheduler pipelines report.
    // Monotone totals are counters so cross-run merges sum them.
    for layer in ["node", "bb"] {
        assert!(
            m.counters()
                .any(|(k, _)| k.name == "viewcache_refreshes"
                    && k.label.as_ref().is_some_and(|(_, v)| v == layer)),
            "viewcache layer {layer} is exported"
        );
    }
    for pipeline in ["general", "hana"] {
        assert!(
            m.counters()
                .any(|(k, _)| k.name == "index_requests"
                    && k.label.as_ref().is_some_and(|(_, v)| v == pipeline)),
            "index pipeline {pipeline} is exported"
        );
    }

    // Fault-plan counters exist even for a fault-free run (all zero).
    assert_eq!(m.counter_value("fault_planned_host_failures"), Some(0));

    let peak = m.gauge_value("vm_peak_live").expect("peak gauge");
    let fin = m.gauge_value("vm_final_live").expect("final gauge");
    assert!(peak >= fin && peak > 0.0);

    let live = m.histogram("live_vms_at_scrape").expect("scrape histogram");
    assert!(live.count() > 0);
    assert!(
        live.max() as f64 <= peak,
        "no scrape ever saw more VMs than the tracked peak"
    );

    // Span timings fold into phase-labeled histograms.
    assert!(m.histograms().any(|(k, _)| k.name == "span_us"));

    // Single-region estates emit no per-region breakdown, keeping the
    // export schema identical to the historical one.
    assert!(m.counters().all(|(k, _)| k.name != "region_placements"));
}

/// Sweep-side contract: collecting per-cell snapshots and the pool
/// registry changes no report byte at any worker count, and the pool
/// registry's tallies cover every cell exactly once.
#[test]
fn sweep_metrics_leave_report_bytes_identical_across_workers() {
    let manifest = r#"{
        "name": "metrics-grid",
        "scale": 0.01,
        "days": 1,
        "warmup_days": 0,
        "seeds": [1, 2],
        "policies": ["paper-default", "spread"]
    }"#;
    let scenarios = parse_manifest(manifest)
        .expect("valid manifest")
        .spec
        .expand()
        .expect("valid grid");
    assert_eq!(scenarios.len(), 4);

    let plain = run_sweep(&scenarios, &SweepOptions::default()).expect("sweep runs");
    assert!(plain.sweep_metrics.is_none());

    for workers in [1usize, 2, 8] {
        let options = SweepOptions {
            workers,
            collect_metrics: true,
            ..SweepOptions::default()
        };
        let output = run_sweep(&scenarios, &options).expect("sweep runs");
        assert_eq!(
            output.report.to_json(),
            plain.report.to_json(),
            "metrics collection changed report bytes at {workers} workers"
        );

        let pool = output.sweep_metrics.as_ref().expect("pool registry");
        assert_eq!(pool.counter_value("sweep_cells_completed"), Some(4));
        assert_eq!(pool.gauge_value("sweep_cells_total"), Some(4.0));
        assert_eq!(
            pool.histogram("sweep_cell_us").map(Histogram::count),
            Some(4)
        );

        // Every cell carries its own well-formed snapshot.
        assert_eq!(output.artifacts.len(), 4);
        for artifact in &output.artifacts {
            let snapshot = artifact.metrics_json.as_deref().expect("cell snapshot");
            assert!(snapshot.starts_with(r#"{"schema":"sapsim.metrics/v1""#));
        }
    }
}

/// Golden bucket boundaries: exact buckets below 4, then four linear
/// sub-buckets per power-of-two octave, exactly invertible across the
/// whole `u64` range.
#[test]
fn histogram_bucket_boundaries_are_golden() {
    let expect: [u64; 16] = [0, 1, 2, 3, 4, 5, 6, 7, 9, 11, 13, 15, 19, 23, 27, 31];
    for (i, &ub) in expect.iter().enumerate() {
        assert_eq!(bucket_upper_bound(i), ub, "bucket {i}");
    }
    for i in 0..HIST_BUCKETS {
        let ub = bucket_upper_bound(i);
        assert_eq!(bucket_index(ub), i, "upper bound of bucket {i} maps back");
        if i + 1 < HIST_BUCKETS {
            assert_eq!(bucket_index(ub + 1), i + 1, "bound {i} is exact");
        }
    }
    assert_eq!(bucket_upper_bound(HIST_BUCKETS - 1), u64::MAX);

    let mut h = Histogram::new();
    for v in [0, 3, 5, 200, 200] {
        h.record(v);
    }
    let buckets: Vec<(u64, u64)> = h.buckets().collect();
    assert_eq!(buckets, vec![(0, 1), (3, 1), (5, 1), (223, 2)]);
    assert_eq!((h.count(), h.sum(), h.min(), h.max()), (5, 408, 0, 200));
}

/// Golden `sapsim.metrics/v1` export: exact bytes for a known registry,
/// and a lossless snapshot round-trip through `Histogram::from_parts`.
#[test]
fn metrics_json_export_is_golden() {
    let mut m = MetricsRegistry::new();
    m.counter("placements", 812);
    m.counter_with("region_placements", "region", "0", 5);
    m.gauge("vm_final_live", 12.5);
    m.observe("lat", 0);
    m.observe("lat", 5);
    assert_eq!(
        m.to_json(),
        concat!(
            r#"{"schema":"sapsim.metrics/v1","counters":["#,
            r#"{"name":"placements","value":812},"#,
            r#"{"name":"region_placements","label":{"region":"0"},"value":5}],"#,
            r#""gauges":[{"name":"vm_final_live","value":12.5}],"#,
            r#""histograms":[{"name":"lat","count":2,"sum":5,"min":0,"max":5,"#,
            r#""buckets":[[0,1],[5,1]]}]}"#
        )
    );

    let h = m.histogram("lat").expect("recorded");
    let rebuilt = Histogram::from_parts(h.buckets(), h.sum(), h.min(), h.max());
    assert_eq!(&rebuilt, h, "snapshot round-trip is lossless");
}

/// Merging registries is order-insensitive for counters and histograms
/// (gauges are last-writer-wins by design), so sweep-wide aggregation is
/// deterministic however the worker-local registries arrive.
#[test]
fn registry_merge_is_commutative_where_it_must_be() {
    let mut a = MetricsRegistry::new();
    a.counter("placements", 5);
    a.observe("lat", 3);
    a.observe("lat", 100);
    a.gauge("workers", 2.0);
    let mut b = MetricsRegistry::new();
    b.counter("placements", 7);
    b.counter("departures", 1);
    b.observe("lat", 3);
    b.gauge("cells", 4.0);

    let mut ab = a.clone();
    ab.merge(&b);
    let mut ba = b.clone();
    ba.merge(&a);
    assert_eq!(ab.to_json(), ba.to_json());
    assert_eq!(ab.counter_value("placements"), Some(12));
    assert_eq!(ab.histogram("lat").map(Histogram::count), Some(3));
}

/// Full-region scale — the acceptance check that a multi-region estate
/// with `--progress` and metrics collection stays byte-identical and
/// emits per-region breakdowns. Too heavy for the debug suite; CI runs
/// it in release: `cargo test --release -p sapsim-integration
/// multi_region -- --ignored`.
#[test]
#[ignore = "full-region scale; run in release via CI"]
fn multi_region_metrics_and_progress_stay_byte_identical() {
    let mut c = SimConfig::default();
    c.scale = 1.02;
    c.days = 1;
    c.warmup_days = 0;
    c.seed = 27;
    let baseline = SimDriver::new(c).expect("valid").run().canonical_bytes();

    let mut rec = MetricsRecorder::new();
    let bytes = SimDriver::new(c)
        .expect("valid")
        .run_with_recorder(&mut ProgressRecorder::new(&mut rec))
        .canonical_bytes();
    assert!(bytes == baseline, "metrics+progress diverged at region scale");

    // Both the full replica and the remainder region appear in the
    // breakdown, and the placements split across them.
    let m = rec.registry();
    for region in ["0", "1"] {
        let placed = m
            .counters()
            .find(|(k, _)| {
                k.name == "region_placements"
                    && k.label.as_ref().is_some_and(|(_, v)| v == region)
            })
            .map(|(_, v)| v)
            .unwrap_or(0);
        assert!(placed > 0, "region {region} saw placements");
    }
}
