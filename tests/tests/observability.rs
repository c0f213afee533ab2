//! Integration: the observability stack is purely observational — enabling
//! it, at any sampling rate, never changes what the simulation computes —
//! and its exports honor their stable schemas.

use sapsim_core::obs::{JsonlRecorder, ObsConfig, SpanKind};
use sapsim_core::{SimConfig, SimDriver};
use sapsim_json::JsonValue;

fn cfg(seed: u64) -> SimConfig {
    SimConfig::builder()
        .scale(0.02)
        .days(2)
        .seed(seed)
        .warmup_days(0)
        .build()
        .expect("valid test config")
}

fn recorded_run(seed: u64, config: ObsConfig) -> (Vec<u8>, JsonlRecorder) {
    let mut rec = JsonlRecorder::new(config);
    let result = SimDriver::new(cfg(seed))
        .expect("valid")
        .run_with_recorder(&mut rec);
    (result.canonical_bytes(), rec)
}

/// The determinism contract of the whole PR: a `NullRecorder` run, a fully
/// sampled `JsonlRecorder` run and a decision-sampling-off run all
/// serialize to byte-identical canonical results.
#[test]
fn recording_never_perturbs_the_simulation() {
    let baseline = SimDriver::new(cfg(31)).expect("valid").run().canonical_bytes();
    assert!(!baseline.is_empty());

    for rate in [1.0f64, 0.0] {
        let config = ObsConfig {
            decision_sample_rate: rate,
            ..ObsConfig::default()
        };
        let (bytes, rec) = recorded_run(31, config);
        assert!(
            bytes == baseline,
            "recorded run (sample rate={rate}) diverged from the unrecorded \
             baseline ({} vs {} bytes)",
            bytes.len(),
            baseline.len(),
        );
        if rate == 1.0 {
            assert!(!rec.is_empty(), "a fully sampled run records events");
        }
    }
}

/// Decision records are a pure function of the run: two identically
/// configured runs emit byte-identical decision lines (spans carry wall
/// clock and legitimately differ).
#[test]
fn decision_log_is_deterministic() {
    let decisions = |seed: u64| -> Vec<String> {
        let (_, rec) = recorded_run(seed, ObsConfig::default());
        let mut out = Vec::new();
        rec.write_jsonl(&mut out).expect("write");
        String::from_utf8(out)
            .expect("utf8")
            .lines()
            .filter(|l| l.contains("\"type\":\"decision\""))
            .map(str::to_string)
            .collect()
    };
    let a = decisions(31);
    let b = decisions(31);
    assert!(!a.is_empty());
    assert_eq!(a, b, "identical configs emit identical decision lines");
    assert_ne!(a, decisions(32), "different seeds diverge");
}

/// Golden-schema check for the JSONL export: every line parses, the meta
/// line leads, every record type and span kind is from the stable v1
/// vocabulary, and decision records carry every audit field.
#[test]
fn jsonl_export_honors_the_v1_schema() {
    let (_, rec) = recorded_run(33, ObsConfig::default());
    let mut out = Vec::new();
    rec.write_jsonl(&mut out).expect("write");
    let text = String::from_utf8(out).expect("utf8");

    let lines: Vec<JsonValue> = text
        .lines()
        .map(|l| sapsim_json::parse(l).expect("every line is valid JSON"))
        .collect();
    assert!(lines.len() > 1);
    assert_eq!(lines[0]["type"].as_str(), Some("meta"));
    assert_eq!(lines[0]["version"].as_u64(), Some(1));
    assert_eq!(lines[0]["events"].as_u64().unwrap(), rec.len() as u64);

    let kinds: Vec<&str> = SpanKind::ALL.iter().map(|k| k.name()).collect();
    let (mut spans, mut decisions, mut counters) = (0u64, 0u64, 0u64);
    for v in &lines[1..] {
        match v["type"].as_str().expect("typed record") {
            "span" => {
                spans += 1;
                assert!(kinds.contains(&v["kind"].as_str().unwrap()));
                assert!(v["ts_us"].as_u64().is_some());
                assert!(v["dur_us"].as_u64().is_some());
            }
            "decision" => {
                decisions += 1;
                for field in [
                    "sim_time_ms",
                    "vm_uid",
                    "candidates",
                    "retries",
                    "outcome",
                    "rejections",
                    "top_k",
                ] {
                    assert!(v[field] != JsonValue::Null, "decision field {field} present");
                }
                let outcome = v["outcome"].as_str().unwrap();
                assert!(["placed", "fragmented", "no_candidate"].contains(&outcome));
                if outcome == "placed" {
                    assert!(v["chosen_host"].as_u64().is_some());
                    assert!(!v["top_k"].as_arr().unwrap().is_empty());
                }
            }
            "counter" => {
                counters += 1;
                assert!(v["name"].as_str().is_some());
                assert!(v["value"].as_u64().is_some());
            }
            other => panic!("unknown record type {other:?}"),
        }
    }
    assert!(spans > 0, "a run emits spans");
    assert!(decisions > 0, "a fully sampled run emits decisions");
    assert!(counters > 0, "a run emits counters");
}

/// The Chrome export is valid JSON with monotonically non-decreasing `ts`
/// and complete-event fields throughout.
#[test]
fn chrome_trace_is_valid_and_time_ordered() {
    let (_, rec) = recorded_run(34, ObsConfig::default());
    let mut out = Vec::new();
    rec.write_chrome_trace(&mut out).expect("write");
    let trace: JsonValue = sapsim_json::parse(std::str::from_utf8(&out).expect("utf8")).expect("trace is valid JSON");
    let events = trace.as_arr().expect("top-level array");
    assert!(!events.is_empty());

    let mut last_ts = 0u64;
    for e in events {
        assert_eq!(e["ph"].as_str(), Some("X"));
        assert_eq!(e["cat"].as_str(), Some("sim"));
        assert!(e["name"].as_str().is_some());
        assert!(e["dur"].as_u64().is_some());
        let ts = e["ts"].as_u64().expect("ts");
        assert!(ts >= last_ts, "ts is monotone non-decreasing");
        last_ts = ts;
    }
}

/// The bounded ring drops the oldest events but keeps counting, and the
/// meta line reports the loss.
#[test]
fn ring_overflow_is_reported_not_silent() {
    let config = ObsConfig {
        ring_capacity: 16,
        ..ObsConfig::default()
    };
    let (_, rec) = recorded_run(35, config);
    assert_eq!(rec.len(), 16, "ring is capped at its capacity");
    assert!(rec.dropped() > 0, "a full run overflows a 16-slot ring");

    let mut out = Vec::new();
    rec.write_jsonl(&mut out).expect("write");
    let meta: JsonValue =
        sapsim_json::parse(String::from_utf8(out).expect("utf8").lines().next().unwrap())
            .expect("meta line");
    assert_eq!(meta["events"].as_u64().unwrap(), 16);
    assert_eq!(meta["dropped"].as_u64().unwrap(), rec.dropped());
}
