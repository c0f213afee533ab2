//! Integration: the exact bytes of the observability exports.
//!
//! * A hand-built [`JsonlRecorder`] with metrics pins the JSON Lines log,
//!   the Chrome trace and the `sapsim.metrics/v1` line byte for byte:
//!   every event kind, absent hosts and uids, empty and non-empty maps,
//!   keys that need escaping, and the float and integer edge cases.
//! * A seeded faulted run pins the hash of its `decision` and `fault`
//!   lines (span lines carry wall-clock times and are left out).

use sapsim_core::{FaultSpec, SimConfig, SimDriver};
use sapsim_json::fnv1a_64;
use sapsim_obs::{
    DecisionOutcome, DecisionRecord, FaultEventKind, HostScore, JsonlRecorder, ObsConfig,
    ObsEvent, Recorder, SpanKind,
};

/// `(name, value)` pairs in whatever collection the record declares.
fn pairs<K: From<&'static str>, V: Copy, C: FromIterator<(K, V)>>(
    items: &[(&'static str, V)],
) -> C {
    items.iter().map(|&(k, v)| (K::from(k), v)).collect()
}

fn recorder() -> JsonlRecorder {
    let mut rec = JsonlRecorder::new(ObsConfig {
        decision_sample_rate: 0.1,
        ring_capacity: 8,
    })
    .with_metrics();
    // Nine events into an eight-slot ring: the first one is dropped.
    rec.record(ObsEvent::Span {
        kind: SpanKind::OsGauge,
        ts_us: 1,
        dur_us: 1,
    });
    rec.record(ObsEvent::Span {
        kind: SpanKind::ScrapeSample,
        ts_us: 100,
        dur_us: 40,
    });
    rec.record(ObsEvent::Span {
        kind: SpanKind::Scrape,
        ts_us: 100,
        dur_us: u64::MAX,
    });
    rec.record(ObsEvent::Decision(DecisionRecord {
        sim_time_ms: u64::MAX,
        vm_uid: 7,
        candidates: 12,
        retries: 2,
        outcome: DecisionOutcome::Placed,
        chosen_host: Some(3),
        rejections: pairs(&[("insufficient_cpu", 2), ("wrong \"az\" \\", 8)]),
        top_k: vec![
            HostScore {
                host: 3,
                score: 0.1,
                weights: pairs(&[("cpu", 1e-7), ("ram", 1.0)]),
            },
            HostScore {
                host: u32::MAX,
                score: 1.0,
                weights: pairs(&[]),
            },
        ],
    }));
    rec.record(ObsEvent::Decision(DecisionRecord {
        sim_time_ms: 0,
        vm_uid: u64::MAX,
        candidates: 0,
        retries: 0,
        outcome: DecisionOutcome::NoCandidate,
        chosen_host: None,
        rejections: pairs(&[]),
        top_k: Vec::new(),
    }));
    rec.record(ObsEvent::Decision(DecisionRecord {
        sim_time_ms: 60_000,
        vm_uid: 9,
        candidates: 3,
        retries: 3,
        outcome: DecisionOutcome::Fragmented,
        chosen_host: None,
        rejections: pairs(&[("host_disabled", 1)]),
        top_k: Vec::new(),
    }));
    rec.record(ObsEvent::Fault {
        kind: FaultEventKind::HostFail,
        sim_time_ms: 500,
        node: 3,
        vm_uid: None,
    });
    rec.record(ObsEvent::Fault {
        kind: FaultEventKind::EvacReplaced,
        sim_time_ms: 500,
        node: 5,
        vm_uid: Some(u64::MAX),
    });
    rec.record(ObsEvent::Span {
        kind: SpanKind::Run,
        ts_us: 0,
        dur_us: 0,
    });
    rec.counter_add("placements", 812);
    rec.counter_add("evictions", u64::MAX);
    let metrics = rec.metrics_mut().expect("with_metrics");
    metrics.counter_with("labeled", "k\"\\", "v\"\\", 3);
    metrics.gauge("g_tenth", 0.1);
    metrics.gauge("g_tiny", 1e-7);
    metrics.gauge("g_one", 1.0);
    metrics.gauge_with("g_labeled", "k\"\\", "v\"\\", 0.5);
    metrics.observe_with("h", "k\"\\", "v\"\\", u64::MAX);
    rec
}

const JSONL: &str = concat!(
    r#"{"type":"meta","version":1,"decision_sample_rate":0.1,"ring_capacity":8,"events":8,"dropped":1}"#, "\n",
    r#"{"type":"span","kind":"scrape.sample","ts_us":100,"dur_us":40}"#, "\n",
    r#"{"type":"span","kind":"scrape","ts_us":100,"dur_us":18446744073709551615}"#, "\n",
    r#"{"type":"decision","sim_time_ms":18446744073709551615,"vm_uid":7,"candidates":12,"retries":2,"outcome":"placed","chosen_host":3,"rejections":{"insufficient_cpu":2,"wrong \"az\" \\":8},"top_k":[{"host":3,"score":0.1,"weights":{"cpu":0.0000001,"ram":1}},{"host":4294967295,"score":1,"weights":{}}]}"#, "\n",
    r#"{"type":"decision","sim_time_ms":0,"vm_uid":18446744073709551615,"candidates":0,"retries":0,"outcome":"no_candidate","chosen_host":null,"rejections":{},"top_k":[]}"#, "\n",
    r#"{"type":"decision","sim_time_ms":60000,"vm_uid":9,"candidates":3,"retries":3,"outcome":"fragmented","chosen_host":null,"rejections":{"host_disabled":1},"top_k":[]}"#, "\n",
    r#"{"type":"fault","kind":"host_fail","sim_time_ms":500,"node":3,"vm_uid":null}"#, "\n",
    r#"{"type":"fault","kind":"evac_replaced","sim_time_ms":500,"node":5,"vm_uid":18446744073709551615}"#, "\n",
    r#"{"type":"span","kind":"run","ts_us":0,"dur_us":0}"#, "\n",
    r#"{"type":"counter","name":"evictions","value":18446744073709551615}"#, "\n",
    r#"{"type":"counter","name":"placements","value":812}"#, "\n",
);

const CHROME: &str = concat!(
    r#"["#, "\n",
    r#"{"name":"run","cat":"sim","ph":"X","ts":0,"dur":0,"pid":1,"tid":1},"#, "\n",
    r#"{"name":"scrape","cat":"sim","ph":"X","ts":100,"dur":18446744073709551615,"pid":1,"tid":1},"#, "\n",
    r#"{"name":"scrape.sample","cat":"sim","ph":"X","ts":100,"dur":40,"pid":1,"tid":1}"#, "\n",
    r#"]"#, "\n",
);

const METRICS: &str = concat!(
    r#"{"schema":"sapsim.metrics/v1","counters":[{"name":"evictions","value":18446744073709551615},"#,
    r#"{"name":"fault_events","label":{"kind":"evac_replaced"},"value":1},"#,
    r#"{"name":"fault_events","label":{"kind":"host_fail"},"value":1},"#,
    r#"{"name":"labeled","label":{"k\"\\":"v\"\\"},"value":3},"#,
    r#"{"name":"placements","value":812}],"#,
    r#""gauges":[{"name":"g_labeled","label":{"k\"\\":"v\"\\"},"value":0.5},"#,
    r#"{"name":"g_one","value":1},"#,
    r#"{"name":"g_tenth","value":0.1},"#,
    r#"{"name":"g_tiny","value":0.0000001}],"#,
    r#""histograms":[{"name":"h","label":{"k\"\\":"v\"\\"},"count":1,"sum":18446744073709551615,"min":18446744073709551615,"max":18446744073709551615,"buckets":[[18446744073709551615,1]]},"#,
    r#"{"name":"span_us","label":{"phase":"os_gauge"},"count":1,"sum":1,"min":1,"max":1,"buckets":[[1,1]]},"#,
    r#"{"name":"span_us","label":{"phase":"run"},"count":1,"sum":0,"min":0,"max":0,"buckets":[[0,1]]},"#,
    r#"{"name":"span_us","label":{"phase":"scrape"},"count":1,"sum":18446744073709551615,"min":18446744073709551615,"max":18446744073709551615,"buckets":[[18446744073709551615,1]]},"#,
    r#"{"name":"span_us","label":{"phase":"scrape.sample"},"count":1,"sum":40,"min":40,"max":40,"buckets":[[47,1]]}]}"#,
);

#[test]
fn jsonl_chrome_and_metrics_bytes_are_golden() {
    let rec = recorder();
    let mut jsonl = Vec::new();
    rec.write_jsonl(&mut jsonl).expect("write");
    assert_eq!(String::from_utf8(jsonl).expect("utf8"), JSONL);
    let mut chrome = Vec::new();
    rec.write_chrome_trace(&mut chrome).expect("write");
    assert_eq!(String::from_utf8(chrome).expect("utf8"), CHROME);
    assert_eq!(rec.metrics().expect("with_metrics").to_json(), METRICS);
}

#[test]
fn faulted_run_decision_and_fault_lines_are_golden() {
    let mut config = SimConfig::builder()
        .scale(0.02)
        .days(2)
        .seed(41)
        .warmup_days(0)
        .build()
        .expect("valid test config");
    config.faults = FaultSpec {
        host_fail_rate_per_month: 15.0,
        host_downtime_hours: 12.0,
        ..FaultSpec::none()
    };
    let mut rec = JsonlRecorder::new(ObsConfig::default());
    SimDriver::new(config).expect("valid").run_with_recorder(&mut rec);
    let mut out = Vec::new();
    rec.write_jsonl(&mut out).expect("write");
    let text = String::from_utf8(out).expect("utf8");
    let lines: Vec<&str> = text
        .lines()
        .filter(|l| l.starts_with("{\"type\":\"decision\"") || l.starts_with("{\"type\":\"fault\""))
        .collect();
    let faults = lines.iter().filter(|l| l.contains("\"type\":\"fault\"")).count();
    let hash = fnv1a_64(lines.join("\n").as_bytes());
    assert_eq!((lines.len(), faults), (4070, 3075));
    assert_eq!(format!("{hash:016x}"), "e2fa942623271049");
}
