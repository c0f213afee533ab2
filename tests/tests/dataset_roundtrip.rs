//! Integration: simulate → export CSV (anonymized) → re-import → verify
//! the telemetry survives bit-exactly and the analyses agree.

use sapsim_analysis::trace::{TraceReader, TraceWriter, CSV_HEADER};
use sapsim_core::{SimConfig, SimDriver};
use sapsim_telemetry::MetricId;
use std::io::BufReader;

fn small_run() -> sapsim_core::RunResult {
    let cfg = SimConfig::builder()
        .scale(0.02)
        .days(2)
        .seed(77)
        .warmup_days(0)
        .build()
        .expect("valid test config");
    SimDriver::new(cfg).expect("valid").run()
}

#[test]
fn plain_roundtrip_is_exact() {
    let run = small_run();
    let mut csv = Vec::new();
    let w = TraceWriter::plain()
        .write_store(&run.store, &mut csv)
        .expect("write");
    assert!(w.rows > 10_000, "rows = {}", w.rows);

    let (imported, r) = TraceReader::new()
        .read_into_store(&mut BufReader::new(&csv[..]), run.config.days as usize)
        .expect("read");
    assert_eq!(r.rows, w.rows);
    assert_eq!(r.skipped, 0);

    // Every raw series round-trips exactly.
    for metric in MetricId::ALL {
        let orig = run.store.series_of(metric);
        let back = imported.series_of(metric);
        assert_eq!(orig.len(), back.len(), "{metric}");
        for ((e1, s1), (e2, s2)) in orig.iter().zip(back.iter()) {
            assert_eq!(e1, e2, "{metric}");
            assert_eq!(s1, s2, "{metric} {e1}");
        }
    }
}

#[test]
fn anonymized_roundtrip_preserves_aggregates() {
    let run = small_run();
    let mut csv = Vec::new();
    TraceWriter::anonymized(999)
        .write_store(&run.store, &mut csv)
        .expect("write");
    let text = String::from_utf8(csv.clone()).expect("utf8");
    assert!(text.starts_with(CSV_HEADER));
    assert!(!text.contains(",node-"), "clear node names must not leak");

    let (imported, _) = TraceReader::new()
        .read_into_store(&mut BufReader::new(&csv[..]), run.config.days as usize)
        .expect("read");
    // Aggregate invariance: total ready time region-wide.
    let total = |store: &sapsim_telemetry::TsdbStore| -> f64 {
        store
            .series_of(MetricId::HostCpuReadyMs)
            .iter()
            .flat_map(|(_, s)| s.values().iter().copied())
            .sum()
    };
    let a = total(&run.store);
    let b = total(&imported);
    assert!((a - b).abs() < 1e-6 * a.max(1.0), "{a} vs {b}");
    // Same number of node series.
    assert_eq!(
        run.store.series_of(MetricId::HostCpuReadyMs).len(),
        imported.series_of(MetricId::HostCpuReadyMs).len()
    );
}
