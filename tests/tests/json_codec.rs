//! Integration: the one JSON codec, checked from the outside.
//!
//! * A seeded fuzzer builds random [`JsonValue`] trees, writes them out
//!   and reads them back: emit → parse must be the identity, whatever the
//!   nesting, escapes or 64-bit integers involved.
//! * The encode-only and report-level root types (`canonical_bytes()`,
//!   `SweepReport`) survive a trip through the codec; the other ported
//!   roots have their round-trip tests beside their definitions.

use sapsim_core::{Scenario, SimConfig};
use sapsim_json::{parse, JsonValue, ToJson};
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
