//! Dataset round trip: run a simulation, export its telemetry in the
//! published dataset's CSV format (with consistent anonymization), read it
//! back, and verify the analyses agree — demonstrating that the analysis
//! stack runs unchanged on the real Zenodo dataset once it is dropped in.
//!
//! ```sh
//! cargo run --release --bin trace_export
//! ```

use sapsim_analysis::trace::{TraceReader, TraceWriter};
use sapsim_core::{SimConfig, SimDriver};
use sapsim_telemetry::{summary, MetricId};
use std::io::BufReader;

fn main() {
    let config = SimConfig::builder()
        .scale(0.02)
        .days(2)
        .seed(3)
        .build()
        .expect("valid config");
    println!("simulating {} days at {:.0}% scale ...", config.days, config.scale * 100.0);
    let result = SimDriver::new(config).expect("valid config").run();

    // Export with anonymization, exactly like the published dataset
    // ("metadata ... consistently hashed or removed", paper Appendix A).
    let mut csv = Vec::new();
    let summary_w = TraceWriter::anonymized(0xC0FFEE)
        .write_store(&result.store, &mut csv)
        .expect("in-memory write");
    println!(
        "exported {} rows across {} series ({} MiB of CSV)",
        summary_w.rows,
        summary_w.series,
        csv.len() / (1024 * 1024)
    );
    println!("first rows of the dataset:");
    for line in String::from_utf8_lossy(&csv).lines().take(4) {
        println!("  {line}");
    }

    // Re-import and compare an aggregate computed both ways.
    let (imported, summary_r) = TraceReader::new()
        .read_into_store(&mut BufReader::new(&csv[..]), config.days as usize)
        .expect("in-memory read");
    println!(
        "re-imported {} rows ({} skipped)",
        summary_r.rows, summary_r.skipped
    );

    let mean_ready = |store: &sapsim_telemetry::TsdbStore| -> f64 {
        let all: Vec<f64> = store
            .series_of(MetricId::HostCpuReadyMs)
            .iter()
            .filter_map(|(_, s)| s.mean())
            .collect();
        summary::mean(&all).unwrap_or(0.0)
    };
    let original = mean_ready(&result.store);
    let roundtrip = mean_ready(&imported);
    println!(
        "mean per-node CPU ready: original {original:.3} ms, after round trip {roundtrip:.3} ms"
    );
    assert!(
        (original - roundtrip).abs() < 1e-9,
        "round trip must preserve every sample"
    );
    println!("round trip exact — the analysis stack is dataset-compatible.");
}
