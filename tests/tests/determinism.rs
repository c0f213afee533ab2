//! Integration: whole-system determinism — a run is a pure function of
//! its configuration, across every crate boundary at once.

use sapsim_analysis::trace::TraceWriter;
use sapsim_core::{SimConfig, SimDriver};
use sapsim_telemetry::MetricId;

fn cfg(seed: u64) -> SimConfig {
    SimConfig::builder()
        .scale(0.02)
        .days(2)
        .seed(seed)
        .warmup_days(0)
        .build()
        .expect("valid test config")
}

/// The strongest possible check: two runs export byte-identical datasets.
#[test]
fn identical_configs_export_identical_datasets() {
    let export = |seed: u64| -> Vec<u8> {
        let run = SimDriver::new(cfg(seed)).expect("valid").run();
        let mut out = Vec::new();
        TraceWriter::plain()
            .write_store(&run.store, &mut out)
            .expect("write");
        out
    };
    let a = export(5);
    let b = export(5);
    assert_eq!(a.len(), b.len());
    assert!(a == b, "byte-identical CSV exports");
    let c = export(6);
    assert!(a != c, "different seeds diverge");
}

/// Policy changes must not perturb the workload itself — only placement.
#[test]
fn workload_is_invariant_under_policy() {
    use sapsim_scheduler::PolicyKind;
    let run_with = |policy: PolicyKind| {
        let mut c = cfg(9);
        // Slightly larger fleet: at 2 % scale a DC has so few blocks that
        // DRS converges spread and packed runs to the same end state.
        c.scale = 0.05;
        c.policy = policy;
        SimDriver::new(c).expect("valid").run()
    };
    let spread = run_with(PolicyKind::Spread);
    let packed = run_with(PolicyKind::PackMemory);
    assert_eq!(spread.specs.len(), packed.specs.len());
    for (a, b) in spread.specs.iter().zip(packed.specs.iter()) {
        assert_eq!(a.id, b.id);
        assert_eq!(a.flavor_name, b.flavor_name);
        assert_eq!(a.arrival, b.arrival);
        assert_eq!(a.lifetime, b.lifetime);
    }
    // But placement genuinely differs.
    let alloc_sig = |r: &sapsim_core::RunResult| -> Vec<u64> {
        r.cloud
            .topology()
            .nodes()
            .iter()
            .map(|n| r.cloud.node_allocated(n.id).memory_mib)
            .collect()
    };
    assert_ne!(alloc_sig(&spread), alloc_sig(&packed));
}

/// Raw recording must not feed back into simulation behaviour: disabling
/// it changes the store but nothing else.
#[test]
fn telemetry_recording_is_observation_only() {
    let mut with_raw = cfg(11);
    with_raw.record_raw_host_series = true;
    let mut without_raw = cfg(11);
    without_raw.record_raw_host_series = false;
    let a = SimDriver::new(with_raw).expect("valid").run();
    let b = SimDriver::new(without_raw).expect("valid").run();
    assert_eq!(a.stats, b.stats, "simulation unaffected by recording mode");
    assert!(a.store.raw_series_count() > b.store.raw_series_count());
    // Rollups identical either way.
    let ra = a.store.rollups_of(MetricId::HostCpuUtilPct);
    let rb = b.store.rollups_of(MetricId::HostCpuUtilPct);
    for ((e1, r1), (e2, r2)) in ra.iter().zip(rb.iter()) {
        assert_eq!(e1, e2);
        assert_eq!(r1.daily_means(), r2.daily_means());
    }
}
