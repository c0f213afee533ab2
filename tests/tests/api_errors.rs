//! Integration: the public error taxonomy and the config builder.
//!
//! Every public fallible API returns a typed error with a *stable*
//! `Display` text — these goldens are the compatibility contract for
//! anyone matching on messages (and for the CLI's exit-code mapping,
//! which is pinned separately in `sapsim-cli`'s own tests). The second
//! half pins the `SimConfig` builder and its JSON wire format: the
//! `#[non_exhaustive]` refactor must not change a single serialized byte.

use sapsim_core::prelude::*;
use sapsim_core::FaultError;
use sapsim_json::ToJson;
use sapsim_obs::{ObsConfig, ObsError};
use sapsim_sweep::{parse_manifest, run_sweep, SweepError, SweepOptions};
use sapsim_topology::TopologyError;
use std::error::Error;

// ---------------------------------------------------------------- errors

#[test]
fn config_errors_have_stable_golden_messages() {
    let golden = |mutate: fn(&mut SimConfig), expected: &str| {
        let mut cfg = SimConfig::default();
        mutate(&mut cfg);
        let err = cfg.validate().expect_err("config must be rejected");
        assert_eq!(err.to_string(), expected);
    };
    golden(|c| c.days = 0, "invalid config: days must be at least 1");
    golden(
        |c| c.scale = 300.0,
        "invalid config: scale must be in (0, 100], got 300",
    );
    golden(
        |c| c.gp_cpu_overcommit = 0.0,
        "invalid config: gp_cpu_overcommit must be positive",
    );
    golden(
        |c| c.warmup_days = 3,
        "invalid config: warmup_days must be a multiple of 7 to keep the weekday \
         calendar anchored, got 3",
    );
}

#[test]
fn fault_spec_errors_have_stable_golden_messages() {
    let err = FaultSpec::parse_inline("bogus=1").expect_err("unknown key");
    assert_eq!(err.to_string(), "faults: unknown key `bogus`");
    assert!(matches!(err, FaultError::InlineSyntax(_)));

    // Semantic (range) errors surface as `InvalidSpec`, distinct from
    // syntax errors — the CLI maps them to different exit codes.
    let err = FaultSpec::parse_inline("fail=-2").expect_err("negative rate");
    assert_eq!(err.to_string(), "faults: host failure rate must be >= 0");
    assert!(matches!(err, FaultError::InvalidSpec(_)));

    // Through the config: wrapped in SimError with the source preserved.
    let mut cfg = SimConfig::default();
    cfg.faults.host_fail_rate_per_month = -1.0;
    let err = cfg.validate().expect_err("invalid fault spec");
    assert_eq!(
        err.to_string(),
        "invalid config: faults: host failure rate must be >= 0"
    );
    let source = err.source().expect("FaultPlan carries a source");
    assert_eq!(source.to_string(), "faults: host failure rate must be >= 0");
}

#[test]
fn sweep_errors_have_stable_golden_messages() {
    assert_eq!(
        run_sweep(&[], &SweepOptions::default()).expect_err("empty"),
        SweepError::NoScenarios
    );
    assert_eq!(
        SweepError::NoScenarios.to_string(),
        "sweep expands to no scenarios"
    );

    let err = parse_manifest("not json").expect_err("syntax");
    assert!(matches!(&err, SweepError::Manifest(m) if m.starts_with("bad sweep manifest")));

    // Config errors inside a manifest keep the SimError as source.
    let err = parse_manifest(r#"{"faults": ["fail=-2"]}"#).expect_err("semantic");
    assert_eq!(
        err.to_string(),
        "invalid config: faults: host failure rate must be >= 0"
    );
    assert!(err.source().is_some(), "SweepError::Sim exposes a source");
}

#[test]
fn obs_and_topology_errors_are_typed() {
    let bad = ObsConfig {
        ring_capacity: 0,
        ..ObsConfig::default()
    };
    let err = bad.validate().expect_err("zero ring");
    assert_eq!(err.to_string(), "obs ring capacity must be at least 1");
    assert!(matches!(err, ObsError::InvalidConfig(_)));

    let err = TopologyError::Invariant("bb 3 has no nodes".into());
    assert_eq!(err.to_string(), "bb 3 has no nodes");
    // Usable as a trait object like every other error in the taxonomy.
    let _: &dyn Error = &err;
}

#[test]
fn errors_are_send_and_static() {
    // The sweep pool ships failures over an mpsc channel; every error in
    // the taxonomy must stay `Send + 'static` for that to compile.
    fn check<T: Error + Send + 'static>() {}
    check::<SimError>();
    check::<FaultError>();
    check::<ObsError>();
    check::<SweepError>();
    check::<TopologyError>();
}

// --------------------------------------------------- builder + wire format

#[test]
fn builder_and_mutation_construction_agree() {
    let built = SimConfig::builder()
        .seed(7)
        .scale(0.02)
        .days(3)
        .warmup_days(0)
        .policy(PolicyKind::Spread)
        .granularity(PlacementGranularity::Node)
        .drs_enabled(false)
        .build()
        .expect("valid config");

    let mut mutated = SimConfig::default();
    mutated.seed = 7;
    mutated.scale = 0.02;
    mutated.days = 3;
    mutated.warmup_days = 0;
    mutated.policy = PolicyKind::Spread;
    mutated.granularity = PlacementGranularity::Node;
    mutated.drs_enabled = false;

    assert_eq!(built, mutated);
    // ... and therefore serialize to identical bytes.
    assert_eq!(
        built.to_json_string(),
        mutated.to_json_string(),
    );
}

#[test]
fn builder_validates_at_build_time() {
    let err = SimConfig::builder().days(0).build().expect_err("invalid");
    assert_eq!(err.to_string(), "invalid config: days must be at least 1");

    // to_builder derives variants from an existing config.
    let variant = SimConfig::smoke_test()
        .to_builder()
        .seed(9)
        .build()
        .expect("valid variant");
    assert_eq!(variant.seed, 9);
    assert_eq!(variant.scale, SimConfig::smoke_test().scale);
}

#[test]
fn wire_format_is_unchanged_by_the_api_refactor() {
    let json = SimConfig::default().to_json_string();

    // An empty fault spec is skipped, so pre-fault configs and canonical
    // bytes are unchanged. (That every field round-trips is pinned by
    // `sapsim-core`'s `every_field_round_trips_through_the_wire`.)
    assert!(!json.contains("\"faults\""), "empty faults must be skipped");
    assert!(json.contains("\"threads\":0"));

    // Round trip is lossless.
    let back: SimConfig = sapsim_json::decode(&json).expect("deserializes");
    assert_eq!(back, SimConfig::default());

    // Missing keys default: configs serialized before the `threads` knob
    // existed still deserialize.
    let trimmed = json.replace(",\"threads\":0}", "}");
    assert_ne!(trimmed, json, "threads is the final serialized field");
    let back: SimConfig = sapsim_json::decode(&trimmed).expect("old shape deserializes");
    assert_eq!(back, SimConfig::default());

    // The knob is gone, its key is not: old values are read past, 0 written.
    let back: SimConfig = sapsim_json::decode("{\"threads\":8}").expect("old value deserializes");
    assert_eq!(back, SimConfig::default());
    assert!(back.to_json_string().ends_with(",\"threads\":0}"));

    // A non-empty fault spec does serialize — and round-trips.
    let mut with_faults = SimConfig::default();
    with_faults.faults = FaultSpec::parse_inline("fail=2,downtime=6").expect("valid spec");
    let json = with_faults.to_json_string();
    assert!(json.contains("\"faults\""));
    let back: SimConfig = sapsim_json::decode(&json).expect("deserializes");
    assert_eq!(back, with_faults);
}

#[test]
fn prelude_covers_the_embedding_surface() {
    // Everything in this test resolves through `sapsim_core::prelude::*`
    // (see the top-level import): config, builder, session, and errors.
    let cfg = SimConfig::builder()
        .scale(0.01)
        .days(1)
        .warmup_days(0)
        .build()
        .expect("valid config");
    let scenario = Scenario::new("prelude-smoke", cfg).expect("valid scenario");
    assert_eq!(scenario.id().len(), 16);
    let mut spec = SweepSpec::new(cfg);
    spec.seeds = vec![1, 2];
    assert_eq!(spec.len(), 2);
    let _: fn(SimConfig) -> Result<SimDriver, SimError> = SimDriver::new;
}
