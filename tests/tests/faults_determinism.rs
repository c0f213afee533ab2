//! Integration: the fault layer's two hard determinism guarantees.
//!
//! 1. With a *non-empty* fault plan, `RunResult::canonical_bytes()` is
//!    byte-identical from run to run (the plan is drawn up front from its
//!    own RNG stream).
//! 2. `FaultSpec::none()` is a behavioural no-op: byte-identical output
//!    to a config that never mentions faults, and the serialized result
//!    matches the pre-fault wire format (no `"faults"` key at all).

use sapsim_core::{FaultSpec, SimConfig, SimDriver};

fn cfg(seed: u64) -> SimConfig {
    SimConfig::builder()
        .scale(0.02)
        .days(2)
        .seed(seed)
        .warmup_days(0)
        .build()
        .expect("valid test config")
}

fn faulty(seed: u64) -> SimConfig {
    let mut c = cfg(seed);
    c.faults = FaultSpec {
        host_fail_rate_per_month: 15.0,
        host_downtime_hours: 12.0,
        straggler_fraction: 0.25,
        straggler_slowdown: 0.6,
        dropout_rate_per_month: 6.0,
        dropout_duration_hours: 6.0,
        ..FaultSpec::none()
    };
    c
}

/// Guarantee 1: a run with every fault kind active is still a pure
/// function of its config — on one region and on a three-region estate.
#[test]
fn faulty_runs_are_byte_identical_across_repeats() {
    let mut multi_region = cfg(23);
    multi_region.days = 1;
    multi_region.region_replicas = 3;
    multi_region.faults = FaultSpec {
        host_fail_rate_per_month: 20.0,
        host_downtime_hours: 4.0,
        dropout_rate_per_month: 6.0,
        dropout_duration_hours: 2.0,
        straggler_fraction: 0.2,
        ..FaultSpec::none()
    };
    for config in [faulty(23), multi_region] {
        let run = || -> (Vec<u8>, u64) {
            let r = SimDriver::new(config).expect("valid").run();
            (r.canonical_bytes(), r.stats.faults.host_failures)
        };
        let (first, failures) = run();
        assert!(
            failures > 0,
            "the plan must be non-empty for this to prove anything"
        );
        let (second, _) = run();
        assert!(
            second == first,
            "repeated faulty run diverged at region_replicas={} ({} vs {} bytes)",
            config.region_replicas,
            second.len(),
            first.len(),
        );
    }
}

/// Guarantee 2a: an explicit `FaultSpec::none()` produces the same bytes
/// as a config that never touched the field.
#[test]
fn explicit_none_matches_untouched_default() {
    let untouched = SimDriver::new(cfg(24)).expect("valid").run();
    let mut c = cfg(24);
    c.faults = FaultSpec::none();
    let explicit = SimDriver::new(c).expect("valid").run();
    assert!(untouched.canonical_bytes() == explicit.canonical_bytes());
}

/// Guarantee 2b: fault-free output carries no trace of the fault layer on
/// the wire — the serialized form is the pre-fault format, byte for byte
/// in its own right.
#[test]
fn fault_free_output_matches_the_pre_fault_wire_format() {
    let r = SimDriver::new(cfg(25)).expect("valid").run();
    assert!(r.stats.faults.is_zero());
    let text = String::from_utf8(r.canonical_bytes()).expect("canonical bytes are JSON");
    assert!(
        !text.contains("\"faults\""),
        "fault-free canonical serialization must not mention faults"
    );
}

/// Sanity: a non-empty plan actually changes the output (the guarantees
/// above would hold vacuously if the fault layer did nothing).
#[test]
fn nonempty_plan_changes_the_output() {
    let plain = SimDriver::new(cfg(26)).expect("valid").run();
    let injected = SimDriver::new(faulty(26)).expect("valid").run();
    assert!(injected.stats.faults.host_failures > 0);
    assert!(plain.canonical_bytes() != injected.canonical_bytes());
}

/// Enabling one fault kind must not reshuffle another kind's draws: the
/// host-failure schedule is identical whether or not dropouts are also
/// enabled (independent RNG streams per kind).
#[test]
fn fault_kinds_draw_from_independent_streams() {
    let mut only_fail = cfg(27);
    only_fail.faults = FaultSpec {
        host_fail_rate_per_month: 15.0,
        host_downtime_hours: 12.0,
        ..FaultSpec::none()
    };
    let mut fail_and_dropout = only_fail;
    fail_and_dropout.faults.dropout_rate_per_month = 6.0;
    let a = SimDriver::new(only_fail).expect("valid").run();
    let b = SimDriver::new(fail_and_dropout).expect("valid").run();
    assert_eq!(
        a.stats.faults.host_failures, b.stats.faults.host_failures,
        "adding dropouts shifted the host-failure schedule"
    );
    assert!(b.stats.faults.dropout_windows > 0);
}
