//! Integration: the one JSON codec, checked from the outside.
//!
//! * A seeded fuzzer builds random [`JsonValue`] trees, writes them out
//!   and reads them back: emit → parse must be the identity, whatever the
//!   nesting, escapes or 64-bit integers involved.
//! * A second fuzzer mutates valid `sapsim.api/v1` request and response
//!   lines byte by byte: the wire decoders must answer every input
//!   without panicking, and every request they accept re-encodes to a
//!   line that decodes back to the same value.
//! * A third mutates `sapsim obs summary` log lines and
//!   `sapsim.metrics/v1` snapshots and feeds them to `sapsim obs`: every
//!   rejection is a data error naming the line or the file, and every
//!   snapshot accepted re-encodes to one that decodes back equal.
//! * The encode-only and report-level root types (`canonical_bytes()`,
//!   `SweepReport`) survive a trip through the codec; the other ported
//!   roots have their round-trip tests beside their definitions.

use sapsim_api::{ApiRequest, ApiResponse};
use sapsim_cli::commands::obs;
use sapsim_core::{Scenario, SimConfig};
use sapsim_json::{decode, parse, JsonValue, ToJson};
use sapsim_obs::MetricsRegistry;
use sapsim_sim::{for_each_seed, SimRng};
use sapsim_sweep::{RunSummary, ScenarioOutcome, SweepReport};

/// A random string exercising every escape class.
fn random_string(rng: &mut SimRng) -> String {
    const ALPHABET: [char; 12] = [
        'a', 'Z', '0', ' ', '"', '\\', '/', '\n', '\t', '\u{1}', 'é', '😀',
    ];
    (0..rng.range(0, 12))
        .map(|_| ALPHABET[rng.range(0, ALPHABET.len() as u64) as usize])
        .collect()
}

/// A random tree. Numbers are generated the way the reader classifies
/// them: a non-negative integer below 2^64 is an `Int`, anything else a
/// `Num`.
fn random_value(rng: &mut SimRng, depth: u32) -> JsonValue {
    let leaf_only = depth >= 4;
    match rng.range(0, if leaf_only { 5 } else { 7 }) {
        0 => JsonValue::Null,
        1 => JsonValue::Bool(rng.bool(0.5)),
        2 => JsonValue::Int(match rng.range(0, 3) {
            0 => rng.range(0, 100),
            1 => u64::MAX - rng.range(0, 3),
            _ => rng.next_u64(),
        }),
        3 => {
            let magnitude = f64::from_bits(rng.next_u64());
            let x = if magnitude.is_finite() {
                magnitude
            } else {
                rng.range_f64(-1e9, 1e9)
            };
            if x >= 0.0 && x.fract() == 0.0 && x < 18_446_744_073_709_551_616.0 {
                JsonValue::Int(x as u64)
            } else {
                JsonValue::Num(x)
            }
        }
        4 => JsonValue::Str(random_string(rng)),
        5 => JsonValue::Arr(
            (0..rng.range(0, 5))
                .map(|_| random_value(rng, depth + 1))
                .collect(),
        ),
        _ => JsonValue::Obj(
            (0..rng.range(0, 5))
                .map(|_| (random_string(rng), random_value(rng, depth + 1)))
                .collect(),
        ),
    }
}

#[test]
fn emit_then_parse_is_the_identity_on_random_trees() {
    for_each_seed(2_000, |rng| {
        let value = random_value(rng, 0);
        let text = value.to_json_string();
        let back = parse(&text).unwrap_or_else(|e| panic!("own output must parse: {e}\n{text}"));
        assert_eq!(back, value, "{text}");
        assert_eq!(back.to_json_string(), text, "re-emit is byte-stable");
    });
}

/// Valid lines of every op, with optional fields both set and absent,
/// spelled out so that the inputs do not depend on the encoder.
const WIRE_LINES: [&str; 13] = [
    r#"{"schema":"sapsim.api/v1","op":"place","id":"r\"1é","vcpus":4,"memory_mib":32768,"disk_gib":100,"class":"hana","az":"az-a","count":3,"lifetime_days":30.5,"dry_run":true}"#,
    r#"{"schema":"sapsim.api/v1","op":"place","vcpus":1,"memory_mib":1024}"#,
    r#"{"schema":"sapsim.api/v1","op":"resize","vm":7,"vcpus":8,"memory_mib":65536,"disk_gib":50,"dry_run":true}"#,
    r#"{"schema":"sapsim.api/v1","op":"evacuate","id":"e","node":"a-bb001-n001","dry_run":false}"#,
    r#"{"schema":"sapsim.api/v1","op":"commit","txn":"0123456789abcdef"}"#,
    r#"{"schema":"sapsim.api/v1","op":"state","id":"q"}"#,
    r#"{"schema":"sapsim.api/v1","op":"shutdown"}"#,
    r#"{"schema":"sapsim.api/v1","op":"place","id":"r1","dry_run":false,"version":7,"placed":[{"vm":12,"node":"a-bb001-n001","bb":"a-bb001","az":"az-a","retries":2}],"failed":[{"index":1,"reason":"no-candidate"}]}"#,
    r#"{"schema":"sapsim.api/v1","op":"place","dry_run":true,"txn":"00000000000000ff","version":3,"placed":[],"failed":[]}"#,
    r#"{"schema":"sapsim.api/v1","op":"evacuate","dry_run":false,"version":9,"node":"a-bb001-n000","moved":[{"vm":4,"node":"a-bb001-n002"}],"lost":[5]}"#,
    r#"{"schema":"sapsim.api/v1","op":"commit","txn":"0123456789abcdef","applied":{"schema":"sapsim.api/v1","op":"resize","dry_run":false,"version":5,"vm":7,"outcome":"migrated","node":"a-bb002-n000"}}"#,
    r#"{"schema":"sapsim.api/v1","op":"state","version":11,"vms":100,"nodes":90,"active_nodes":89,"hash":"00ff00ff00ff00ff"}"#,
    r#"{"schema":"sapsim.api/v1","op":"error","code":"conflict","status":409,"error":"state moved"}"#,
];

/// One random edit of `line`: flip, insert or delete a byte, truncate,
/// or splice in a member another line carries.
fn mutate(rng: &mut SimRng, line: &[u8], donor: &[u8]) -> Vec<u8> {
    const BYTES: &[u8] = b"{}[]:,\"0123456789-.eEtrufalsn \\";
    let mut out = line.to_vec();
    let at = rng.range(0, out.len() as u64 + 1) as usize;
    match rng.range(0, 5) {
        0 if at < out.len() => out[at] ^= 1 << rng.range(0, 7),
        1 => out.insert(at, BYTES[rng.range(0, BYTES.len() as u64) as usize]),
        2 if at < out.len() => {
            out.remove(at);
        }
        3 => out.truncate(at),
        _ => {
            // A `"key":value` member of the donor, cut at quote and
            // comma boundaries, inserted after one of our commas.
            let starts: Vec<usize> = (0..donor.len()).filter(|&i| donor[i] == b'"').collect();
            let start = starts[rng.range(0, starts.len() as u64) as usize];
            let end = donor[start..]
                .iter()
                .position(|&b| b == b',' || b == b'}')
                .map_or(donor.len(), |n| start + n);
            let commas: Vec<usize> = (0..out.len()).filter(|&i| out[i] == b',').collect();
            if let Some(&comma) = commas.get(rng.range(0, commas.len() as u64 + 1) as usize) {
                let mut member = donor[start..end].to_vec();
                member.push(b',');
                out.splice(comma + 1..comma + 1, member);
            }
        }
    }
    out
}

#[test]
fn wire_decoders_survive_mutated_lines_and_reencode_canonically() {
    let mut accepted = 0;
    for_each_seed(5_000, |rng| {
        let pick = |rng: &mut SimRng| {
            WIRE_LINES[rng.range(0, WIRE_LINES.len() as u64) as usize].as_bytes()
        };
        let mut bytes = pick(rng).to_vec();
        for _ in 0..rng.range(1, 4) {
            let donor = pick(rng);
            bytes = mutate(rng, &bytes, donor);
        }
        let text = String::from_utf8_lossy(&bytes);
        for strict in [false, true] {
            if let Ok(request) = ApiRequest::parse_line(&text, strict) {
                accepted += 1;
                let line = request.to_json_line();
                let back = ApiRequest::parse_line(&line, true)
                    .unwrap_or_else(|e| panic!("{e}: re-encoded {line} from {text}"));
                assert_eq!(back, request, "{text}");
                assert_eq!(back.to_json_line(), line, "{text}");
            }
        }
        if let Ok(response) = ApiResponse::parse_line(&text) {
            let line = response.to_json_line();
            let back = ApiResponse::parse_line(&line)
                .unwrap_or_else(|e| panic!("{e}: re-encoded {line} from {text}"));
            assert_eq!(back.to_json_line(), line, "{text}");
        }
    });
    // Enough mutants stay valid for the round trip to be exercised.
    assert!(accepted > 400, "only {accepted} mutated requests decoded");
}

/// Valid `sapsim obs summary` input: one line of every type, spelled out.
const LOG_LINES: [&str; 7] = [
    r#"{"type":"meta","version":1,"decision_sample_rate":0.25,"ring_capacity":65536,"events":4,"dropped":0}"#,
    r#"{"type":"span","kind":"scrape.sample","ts_us":100,"dur_us":18446744073709551615}"#,
    r#"{"type":"decision","sim_time_ms":1000,"vm_uid":7,"candidates":12,"retries":1,"outcome":"placed","chosen_host":3,"rejections":{"insufficient_cpu":2,"wrong \"az\"":8},"top_k":[{"host":3,"score":0.1,"weights":{"cpu":1e-7,"ram":1}}]}"#,
    r#"{"type":"decision","sim_time_ms":0,"vm_uid":8,"candidates":0,"retries":0,"outcome":"no_candidate","chosen_host":null,"rejections":{},"top_k":[]}"#,
    r#"{"type":"fault","kind":"host_fail","sim_time_ms":500,"node":3,"vm_uid":null}"#,
    r#"{"type":"fault","kind":"evac_replaced","sim_time_ms":500,"node":5,"vm_uid":42}"#,
    r#"{"type":"counter","name":"placements","value":812}"#,
];

/// Valid `sapsim.metrics/v1` snapshots, spelled out.
const SNAPSHOTS: [&str; 3] = [
    concat!(
        r#"{"schema":"sapsim.metrics/v1","counters":[{"name":"placements","value":812},"#,
        r#"{"name":"labeled","label":{"k"\":"v"\"},"value":18446744073709551615}],"#,
        r#""gauges":[{"name":"live","value":0.1},{"name":"live","label":{"region":"0"},"value":1e-7}],"#,
        r#""histograms":[{"name":"lat","count":3,"sum":18446744073709551615,"min":0,"#,
        r#""max":18446744073709551615,"buckets":[[0,1],[47,1],[18446744073709551615,1]]},"#,
        r#"{"name":"lat","label":{"phase":"run"},"count":1,"sum":5,"min":5,"max":5,"buckets":[[5,1]]}]}"#,
    ),
    r#"{"schema":"sapsim.metrics/v1","counters":[],"gauges":[],"histograms":[]}"#,
    r#"{"schema":"sapsim.metrics/v1","counters":[{"name":"a","value":1}],"histograms":[{"name":"h","count":0,"sum":0,"min":0,"max":0,"buckets":[]}]}"#,
];

/// `sapsim obs ACTION PATH`, after writing `text` to `path`.
fn obs_on(action: &str, path: &std::path::Path, text: &str) -> Result<(), sapsim_cli::CliError> {
    std::fs::write(path, text).expect("write input");
    let argv = [action.to_string(), path.display().to_string()];
    obs::run(&argv, &mut Vec::new())
}

#[test]
fn obs_readers_survive_mutated_logs_and_snapshots() {
    let dir = std::env::temp_dir().join(format!("sapsim-obs-fuzz-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let (log_path, snapshot_path) = (dir.join("run.jsonl"), dir.join("run.metrics.json"));
    let (mut logs, mut snapshots) = (0, 0);
    for_each_seed(5_000, |rng| {
        let pick = |rng: &mut SimRng, from: &[&'static str]| {
            from[rng.range(0, from.len() as u64) as usize].as_bytes()
        };

        // A few valid lines, one of them mutated: only that one can fail.
        let mut lines: Vec<Vec<u8>> = (0..rng.range(1, 4))
            .map(|_| pick(rng, &LOG_LINES).to_vec())
            .collect();
        let bad = rng.range(0, lines.len() as u64) as usize;
        for _ in 0..rng.range(1, 4) {
            let donor = pick(rng, &LOG_LINES);
            lines[bad] = mutate(rng, &lines[bad], donor);
        }
        let text = String::from_utf8_lossy(&lines.join(&b'\n')).into_owned();
        match obs_on("summary", &log_path, &text) {
            Ok(()) => logs += 1,
            Err(e) => {
                assert_eq!(e.exit_code(), 5, "{e}: {text}");
                let line = format!("line {}: ", bad + 1);
                assert!(e.to_string().starts_with(&line), "{e}: {text}");
            }
        }

        let mut bytes = pick(rng, &SNAPSHOTS).to_vec();
        for _ in 0..rng.range(1, 4) {
            let donor = pick(rng, &SNAPSHOTS);
            bytes = mutate(rng, &bytes, donor);
        }
        let text = String::from_utf8_lossy(&bytes).into_owned();
        match obs_on("metrics", &snapshot_path, &text) {
            Ok(()) => {
                snapshots += 1;
                let registry: MetricsRegistry = decode(text.trim()).expect("accepted by the CLI");
                let line = registry.to_json();
                let back: MetricsRegistry =
                    decode(&line).unwrap_or_else(|e| panic!("{e}: re-encoded {line} from {text}"));
                assert_eq!(back, registry, "{text}");
                assert_eq!(back.to_json(), line, "{text}");
            }
            Err(e) => {
                assert_eq!(e.exit_code(), 5, "{e}: {text}");
                let file = format!("{}: ", snapshot_path.display());
                assert!(e.to_string().starts_with(&file), "{e}: {text}");
            }
        }
    });
    std::fs::remove_dir_all(&dir).expect("clean up");
    // Enough mutants stay valid for both readers to be exercised.
    assert!(
        logs > 250 && snapshots > 250,
        "only {logs} logs and {snapshots} snapshots read"
    );
}

fn tiny_config() -> SimConfig {
    SimConfig::builder()
        .scale(0.01)
        .days(1)
        .warmup_days(0)
        .seed(3)
        .build()
        .expect("valid config")
}

#[test]
fn canonical_bytes_are_one_json_object_in_a_fixed_key_order() {
    let run = Scenario::new("tiny", tiny_config()).expect("valid").run();
    let bytes = run.canonical_bytes();
    let text = std::str::from_utf8(&bytes).expect("canonical bytes are UTF-8");
    let doc = parse(text).expect("canonical bytes are JSON");
    let keys: Vec<&str> = doc
        .as_obj()
        .expect("an object")
        .iter()
        .map(|(key, _)| key.as_str())
        .collect();
    assert_eq!(
        keys,
        [
            "config",
            "store",
            "vm_stats",
            "specs",
            "stats",
            "placements"
        ]
    );
    assert_eq!(doc["config"]["seed"].as_u64(), Some(3));
    assert_eq!(doc["config"]["threads"].as_u64(), Some(0));
    assert_eq!(
        doc["specs"].as_arr().map(<[_]>::len),
        Some(run.specs.len()),
        "every generated spec is part of the canonical form"
    );
    // The tree is a faithful image: writing it back reproduces the bytes.
    assert_eq!(doc.to_json_string(), text);
}

#[test]
fn sweep_report_round_trips() {
    let scenario = Scenario::new("tiny", tiny_config()).expect("valid");
    let report = SweepReport::new(vec![ScenarioOutcome {
        name: scenario.name().to_string(),
        id: scenario.id(),
        summary: RunSummary::from_run(&scenario.run()),
    }]);
    let line = report.to_json();
    assert!(
        line.starts_with("{\"schema\":\"sapsim.sweep-report/v1\","),
        "{line}"
    );
    assert_eq!(SweepReport::from_json_str(&line).expect("parses"), report);
    let drifted = line.replace("sweep-report/v1", "sweep-report/v9");
    assert!(SweepReport::from_json_str(&drifted).is_err());
}
