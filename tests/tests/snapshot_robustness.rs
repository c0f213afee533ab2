//! Integration: snapshot robustness — the fuzzer and the failure paths.
//!
//! * A seeded mini-fuzzer drives ~20 random `(scenario, T)` pairs
//!   through snapshot → file round trip → restore → immediate
//!   re-snapshot and asserts byte-identity of the `sapsim.snapshot/v1`
//!   text. A failure prints the `(seed, T, knobs)` tuple so the pair can
//!   be replayed as a unit test.
//! * Corrupted snapshot files (truncation, schema drift, tampered
//!   hashes, shape mismatches) must surface as typed
//!   [`SimError::Snapshot`] values — never a panic.
//! * One snapshot is a fork point, not a run: resuming it repeatedly
//!   must yield fully independent, identical runs.

use sapsim_core::{FaultSpec, SimConfig, SimDriver, SimError, SimSnapshot};
use sapsim_sim::{SimRng, SimTime, MILLIS_PER_DAY};

#[test]
fn fuzzer_snapshot_restore_resnapshot_is_byte_identity() {
    let mut rng = SimRng::seed_from(0xF0D5_CAFE);
    for trial in 0..20u32 {
        let seed = rng.next_u64() % 1_000;
        let faulted = rng.next_u64() % 2 == 1;
        let mut cfg = SimConfig::smoke_test();
        cfg.days = 1;
        cfg.seed = seed;
        if faulted {
            cfg.faults = FaultSpec {
                host_fail_rate_per_month: 15.0,
                host_downtime_hours: 3.0,
                dropout_rate_per_month: 4.0,
                dropout_duration_hours: 2.0,
                straggler_fraction: 0.1,
                ..FaultSpec::none()
            };
        }
        let horizon_ms = MILLIS_PER_DAY * (cfg.warmup_days + cfg.days);
        let at = SimTime::from_millis(rng.next_u64() % (horizon_ms + 1));
        let replay = format!(
            "replay: trial={trial} seed={seed} at={at} faulted={faulted}"
        );

        let text = SimDriver::new(cfg)
            .expect("valid fuzz config")
            .snapshot_at(at)
            .unwrap_or_else(|e| panic!("snapshot failed ({replay}): {e}"))
            .to_file_string();
        let reloaded = SimSnapshot::from_file_str(&text)
            .unwrap_or_else(|e| panic!("own output must reload ({replay}): {e}"));
        let again = SimDriver::resnapshot(&reloaded)
            .unwrap_or_else(|e| panic!("restore must capture back ({replay}): {e}"));
        assert_eq!(
            again.to_file_string(),
            text,
            "restore → re-capture drifted ({replay})"
        );
    }
}

fn sample_snapshot(faulted: bool) -> SimSnapshot {
    let mut cfg = SimConfig::smoke_test();
    cfg.days = 1;
    cfg.seed = 61;
    if faulted {
        cfg.faults = FaultSpec {
            host_fail_rate_per_month: 25.0,
            host_downtime_hours: 2.0,
            ..FaultSpec::none()
        };
    }
    SimDriver::new(cfg)
        .expect("valid config")
        .snapshot_at(SimTime::from_millis(MILLIS_PER_DAY / 2))
        .expect("instant within horizon")
}

#[test]
fn corrupted_files_yield_typed_errors_never_panics() {
    let good = sample_snapshot(false).to_file_string();
    let header_end = good.find('\n').expect("two-line format");
    let corruptions: [(&str, String); 8] = [
        ("empty", String::new()),
        ("header only", good[..header_end].to_string()),
        ("header, no body", good[..=header_end].to_string()),
        (
            "wrong schema version",
            good.replacen("sapsim.snapshot/v1", "sapsim.snapshot/v9", 1),
        ),
        ("not a header", format!("garbage\n{}", &good[header_end + 1..])),
        (
            "tampered hash",
            {
                let hash_start = good.find("\"canonical_hash\":\"").expect("hash field")
                    + "\"canonical_hash\":\"".len();
                let mut t = good.clone();
                t.replace_range(hash_start..hash_start + 16, "0000000000000000");
                t
            },
        ),
        ("truncated body", good[..good.len() - good.len() / 4].to_string()),
        (
            "bit flip in body",
            good.replacen("\"now\":", "\"wow\":", 1),
        ),
    ];
    for (label, text) in corruptions {
        match SimSnapshot::from_file_str(&text) {
            Err(SimError::Snapshot(msg)) => {
                assert!(!msg.is_empty(), "{label}: empty message");
            }
            Err(other) => panic!("{label}: wrong error class: {other}"),
            Ok(_) => panic!("{label}: corruption accepted"),
        }
    }
}

#[test]
fn shape_mismatches_are_rejected_on_restore() {
    // Syntactically pristine snapshots whose body disagrees with the
    // world its own config derives, re-signed so only the semantic
    // checks can reject them.
    let snap = sample_snapshot(false);
    let mut other_cfg = *snap.config();
    other_cfg.scale = 0.01; // derives a different estate and VM stream
    let other = SimDriver::new(other_cfg)
        .expect("valid config")
        .snapshot_at(snap.at())
        .expect("instant within horizon");
    let snap_text = snap.to_file_string();
    let other_text = other.to_file_string();
    let snap_body = snap_text.lines().nth(1).expect("body line");
    let other_body = other_text.lines().nth(1).expect("body line");
    // Graft: snap's config over other's tables, so every table has
    // plausible values but the wrong shape/provenance. The body leads
    // with `{"config":{...},"now":...`, so splitting on the first
    // `,"now":` isolates exactly the config object.
    let snap_cfg = snap_body.split(",\"now\":").next().expect("config prefix");
    let other_cfg = other_body.split(",\"now\":").next().expect("config prefix");
    let mut cases = vec![(
        "cross-config graft".to_string(),
        other_body.replacen(other_cfg, snap_cfg, 1),
    )];
    // A queued event naming a spec or node the world does not have. The
    // one pending scrape is the event swapped out, in a capture taken
    // before anything fired (its body is small, so the decodes are cheap).
    let fresh_text = SimDriver::new(*snap.config())
        .expect("valid config")
        .snapshot_at(SimTime::ZERO)
        .expect("instant within horizon")
        .to_file_string();
    let fresh_body = fresh_text.lines().nth(1).expect("body line");
    assert_eq!(fresh_body.matches("\"Scrape\"]").count(), 1);
    for event in ["VmArrival", "HostFail", "HostRecover", "MaintenanceStart"] {
        let bogus = format!("{{\"{event}\":99999999}}]");
        cases.push((
            event.to_string(),
            fresh_body.replacen("\"Scrape\"]", &bogus, 1),
        ));
    }
    for (label, body) in cases {
        let hash = format!("{:016x}", sapsim_core::fnv1a_64(body.as_bytes()));
        let text = format!(
            "{{\"schema\":\"sapsim.snapshot/v1\",\"canonical_hash\":\"{hash}\"}}\n{body}\n"
        );
        let reloaded = SimSnapshot::from_file_str(&text).expect("well-formed on the surface");
        match SimDriver::resume(&reloaded) {
            Err(SimError::Snapshot(msg)) => {
                assert!(msg.contains("snapshot"), "{label}: {msg}");
            }
            Err(other) => panic!("{label}: wrong error class: {other}"),
            Ok(_) => panic!("{label}: accepted"),
        }
    }
}

#[test]
fn faulted_snapshots_demand_their_spec_back() {
    let snap = sample_snapshot(true);
    let carried = snap.config().faults;
    // No spec given: typed refusal.
    let err = snap.verify_fault_spec(None).expect_err("must demand restating");
    assert!(matches!(err, SimError::Snapshot(_)), "{err}");
    // A different spec: typed refusal.
    let wrong = FaultSpec {
        host_fail_rate_per_month: 1.0,
        ..FaultSpec::none()
    };
    let err = snap
        .verify_fault_spec(Some(&wrong))
        .expect_err("mismatch must be rejected");
    assert!(matches!(err, SimError::Snapshot(_)), "{err}");
    // The carried spec restated: accepted.
    snap.verify_fault_spec(Some(&carried)).expect("restated spec");
}

#[test]
fn one_snapshot_forks_into_fully_independent_runs() {
    let snap = sample_snapshot(true);
    // Double-resume hazard: the second (and third) resume must see the
    // same pristine state as the first, not one advanced by it.
    let solo = SimDriver::resume(&snap).expect("resumes");
    for _ in 0..2 {
        let fork = SimDriver::resume(&snap).expect("resumes again");
        assert_eq!(fork.canonical_bytes(), solo.canonical_bytes());
    }
    // And the snapshot itself is untouched by having been resumed.
    let recapture = SimDriver::resnapshot(&snap).expect("still restorable");
    assert_eq!(recapture.to_file_string(), snap.to_file_string());
}
