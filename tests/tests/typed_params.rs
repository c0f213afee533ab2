//! Integration: every stringly-typed CLI/manifest parameter is a real
//! type with a `FromStr` ↔ `Display` round-trip.
//!
//! The contract under test: for each parameter type, `parse(display(x))
//! == x` for every value, the accepted spellings are exactly the
//! documented ones, and rejections carry a message that names the valid
//! alternatives. These spellings are wire/manifest format — changing
//! one is a breaking change, which is why they are pinned here rather
//! than (only) in each crate's unit tests.

use sapsim_api::{ResizeOutcome, SchemaId, VmClass};
use sapsim_core::prelude::*;
use sapsim_faults::FaultSpec;
use sapsim_obs::ObsConfig;
use sapsim_scheduler::PolicyKind;

/// Round-trip helper: display, reparse, compare.
fn round_trips<T>(value: T)
where
    T: std::fmt::Display + std::str::FromStr + PartialEq + std::fmt::Debug,
    <T as std::str::FromStr>::Err: std::fmt::Debug,
{
    let spelled = value.to_string();
    let back: T = spelled.parse().expect("display form must reparse");
    assert_eq!(back, value, "round trip through `{spelled}`");
}

#[test]
fn policy_kinds_round_trip_and_reject_with_alternatives() {
    for kind in PolicyKind::ALL {
        round_trips(kind);
    }
    let err = "best-fit-3000".parse::<PolicyKind>().unwrap_err();
    assert_eq!(err, "unknown policy `best-fit-3000`");
}

#[test]
fn placement_granularities_round_trip() {
    for granularity in [
        PlacementGranularity::BuildingBlock,
        PlacementGranularity::Node,
    ] {
        round_trips(granularity);
    }
    assert_eq!(
        "bb".parse::<PlacementGranularity>().unwrap(),
        PlacementGranularity::BuildingBlock
    );
    assert_eq!(
        "node".parse::<PlacementGranularity>().unwrap(),
        PlacementGranularity::Node
    );
    assert!("rack".parse::<PlacementGranularity>().is_err());
}

#[test]
fn fault_specs_round_trip_through_their_inline_spelling() {
    let specs = [
        FaultSpec::none(),
        "fail=6.0,downtime=12".parse::<FaultSpec>().expect("valid spec"),
        "fail=2.5,downtime=24,dropout=2.0,retries=5"
            .parse::<FaultSpec>()
            .expect("valid spec"),
    ];
    for spec in specs {
        round_trips(spec);
    }
    assert_eq!(
        "".parse::<FaultSpec>().expect("empty spec is none"),
        FaultSpec::none()
    );
    assert!("fail=not-a-number".parse::<FaultSpec>().is_err());
    assert!("unknown-key=1".parse::<FaultSpec>().is_err());
}

#[test]
fn obs_configs_round_trip_through_their_spec_spelling() {
    let configs = [
        ObsConfig::default(),
        "sample=0.25,ring=1024".parse::<ObsConfig>().expect("valid spec"),
        "ring=1".parse::<ObsConfig>().expect("partial spec keeps defaults"),
    ];
    for config in configs {
        let spelled = config.to_string();
        let back: ObsConfig = spelled.parse().expect("display form must reparse");
        assert_eq!(back.decision_sample_rate, config.decision_sample_rate);
        assert_eq!(back.ring_capacity, config.ring_capacity);
    }
    assert!("sample=2.0".parse::<ObsConfig>().is_err(), "rate above 1");
    assert!("sample".parse::<ObsConfig>().is_err(), "missing `=`");
}

#[test]
fn api_wire_enums_round_trip() {
    for class in [VmClass::GeneralPurpose, VmClass::Hana, VmClass::CiFarm] {
        round_trips(class);
    }
    for outcome in [
        ResizeOutcome::InPlace,
        ResizeOutcome::Migrated,
        ResizeOutcome::Failed,
    ] {
        round_trips(outcome);
    }
    for schema in SchemaId::ALL {
        round_trips(schema);
    }
    assert!("xl".parse::<VmClass>().is_err());
    assert!("sapsim.api/v2".parse::<SchemaId>().is_err(), "v2 is not registered yet");
}

#[test]
fn parsed_cli_values_go_through_the_same_typed_parsers() {
    // The CLI layer must not keep a private string table: `--policy` and
    // `--granularity` values round-trip through the same `FromStr`
    // impls pinned above.
    for kind in PolicyKind::ALL {
        let mut config = SimConfig::default();
        config.policy = kind;
        assert_eq!(
            config.policy.to_string().parse::<PolicyKind>().unwrap(),
            kind
        );
    }
}
