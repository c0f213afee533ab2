//! The `sapsim sweep` grid manifest.
//!
//! A manifest is a small JSON file describing a sweep ergonomically —
//! axes use the CLI's stable spellings (kebab-case policy names,
//! `bb`/`node` granularities, inline fault specs) rather than the variant
//! names a serialized `SweepSpec` carries, and base-config overrides cover
//! the common knobs:
//!
//! ```json
//! {
//!   "name": "nova-vs-drs",
//!   "scale": 0.02,
//!   "days": 3,
//!   "warmup_days": 0,
//!   "seeds": [1, 2, 3],
//!   "policies": ["paper-default", "spread"],
//!   "granularities": ["bb", "node"],
//!   "drs": [true, false],
//!   "faults": [null, "fail=2,downtime=6"]
//! }
//! ```
//!
//! Base overrides: `seed`, `days`, `scale`, `warmup_days`. Axes:
//! `seeds`, `policies`, `granularities`, `overcommits` (the
//! general-purpose vCPU:pCPU ratio), `drs`, `cross_bbs` (the cross-BB
//! rebalancer on/off), `faults` and `scales`. A one-value axis sets that
//! value for every scenario without adding to the names. The paper's
//! Section 7 ablations A1–A3 are the manifests in the repository's
//! `experiments/` directory.
//!
//! The `scale` override and the `scales` axis accept any value in
//! `(0, 100]`: values at or below 1 shrink the studied region, values
//! above 1 replicate it into a multi-region estate (`10.0` sweeps a
//! ten-region deployment).
//!
//! Parsing resolves everything into a typed
//! [`SweepSpec`](sapsim_core::SweepSpec); unknown keys, unknown policy
//! names, and invalid fault specs are rejected with precise messages.

use crate::SweepError;
use sapsim_core::{PlacementGranularity, SimConfig, SweepSpec};
use sapsim_faults::FaultSpec;
use sapsim_scheduler::PolicyKind;

/// The raw JSON shape. Every field optional; unknown fields rejected so
/// typos fail loudly instead of silently sweeping nothing.
#[derive(Debug, Default)]
struct RawManifest {
    name: Option<String>,
    seed: Option<u64>,
    days: Option<u64>,
    scale: Option<f64>,
    warmup_days: Option<u64>,
    seeds: Vec<u64>,
    policies: Vec<String>,
    granularities: Vec<String>,
    overcommits: Vec<f64>,
    drs: Vec<bool>,
    cross_bbs: Vec<bool>,
    faults: Vec<Option<String>>,
    scales: Vec<f64>,
}

sapsim_json::json_codec!(struct RawManifest: default, deny_unknown {
    name, seed, days, scale, warmup_days, seeds, policies, granularities, overcommits, drs,
    cross_bbs, faults, scales,
});

/// A parsed sweep manifest: a display name plus the typed grid.
#[derive(Debug, Clone, PartialEq)]
pub struct Manifest {
    /// Report title (`name` field; defaults to `sweep`).
    pub name: String,
    /// The typed grid, ready for [`SweepSpec::expand`].
    pub spec: SweepSpec,
}

/// Parse a manifest file body.
pub fn parse_manifest(text: &str) -> Result<Manifest, SweepError> {
    let raw: RawManifest = sapsim_json::decode(text)
        .map_err(|e| SweepError::Manifest(format!("bad sweep manifest: {e}")))?;

    let mut base = SimConfig::default();
    if let Some(seed) = raw.seed {
        base.seed = seed;
    }
    if let Some(days) = raw.days {
        base.days = days;
    }
    if let Some(scale) = raw.scale {
        base.scale = scale;
    }
    if let Some(warmup) = raw.warmup_days {
        base.warmup_days = warmup;
    }

    let mut spec = SweepSpec::new(base);
    spec.seeds = raw.seeds;
    spec.overcommits = raw.overcommits;
    spec.drs = raw.drs;
    spec.cross_bbs = raw.cross_bbs;
    spec.scales = raw.scales;
    spec.policies = raw
        .policies
        .iter()
        .map(|name| {
            PolicyKind::from_name(name).ok_or_else(|| {
                SweepError::Manifest(format!(
                    "unknown policy `{name}` (expected one of: {})",
                    PolicyKind::ALL.map(|k| k.name()).join(", ")
                ))
            })
        })
        .collect::<Result<_, _>>()?;
    spec.granularities = raw
        .granularities
        .iter()
        .map(|g| match g.as_str() {
            "bb" | "building-block" => Ok(PlacementGranularity::BuildingBlock),
            "node" => Ok(PlacementGranularity::Node),
            other => Err(SweepError::Manifest(format!(
                "unknown granularity `{other}` (expected `bb` or `node`)"
            ))),
        })
        .collect::<Result<_, _>>()?;
    spec.faults = raw
        .faults
        .iter()
        .map(|entry| match entry {
            None => Ok(FaultSpec::none()),
            Some(inline) => FaultSpec::parse_inline(inline)
                .map_err(|e| SweepError::Sim(sapsim_core::SimError::FaultPlan(e))),
        })
        .collect::<Result<_, _>>()?;

    Ok(Manifest {
        name: raw.name.unwrap_or_else(|| "sweep".to_string()),
        spec,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_manifest_parses_into_a_typed_grid() {
        let m = parse_manifest(
            r#"{
                "name": "nova-vs-drs",
                "scale": 0.02,
                "days": 3,
                "warmup_days": 0,
                "seeds": [1, 2, 3],
                "policies": ["paper-default", "spread"],
                "granularities": ["bb", "node"],
                "overcommits": [1, 2.5],
                "drs": [true, false],
                "cross_bbs": [false, true],
                "faults": [null, "fail=2,downtime=6"]
            }"#,
        )
        .expect("valid manifest");
        assert_eq!(m.name, "nova-vs-drs");
        assert_eq!(m.spec.base.scale, 0.02);
        assert_eq!(m.spec.base.days, 3);
        assert_eq!(m.spec.base.warmup_days, 0);
        assert_eq!(m.spec.seeds, vec![1, 2, 3]);
        assert_eq!(
            m.spec.policies,
            vec![PolicyKind::PaperDefault, PolicyKind::Spread]
        );
        assert_eq!(
            m.spec.granularities,
            vec![
                PlacementGranularity::BuildingBlock,
                PlacementGranularity::Node
            ]
        );
        assert_eq!(m.spec.overcommits, vec![1.0, 2.5]);
        assert_eq!(m.spec.drs, vec![true, false]);
        assert_eq!(m.spec.cross_bbs, vec![false, true]);
        assert!(m.spec.faults[0].is_none());
        assert_eq!(m.spec.faults[1].host_fail_rate_per_month, 2.0);
        assert_eq!(m.spec.len(), 192);
    }

    #[test]
    fn empty_manifest_is_the_default_config_alone() {
        let m = parse_manifest("{}").expect("valid");
        assert_eq!(m.name, "sweep");
        assert!(m.spec.is_empty());
        assert_eq!(m.spec.base, SimConfig::default());
    }

    #[test]
    fn bad_manifests_fail_with_precise_messages() {
        let err = parse_manifest("not json").expect_err("syntax");
        assert!(err.to_string().contains("bad sweep manifest"));

        let err = parse_manifest(r#"{"polices": []}"#).expect_err("typo");
        assert!(err.to_string().contains("unknown field"));

        let err = parse_manifest(r#"{"policies": ["best-fit"]}"#).expect_err("policy");
        assert!(err.to_string().contains("unknown policy `best-fit`"));
        assert!(err.to_string().contains("paper-default"));

        let err = parse_manifest(r#"{"granularities": ["cluster"]}"#).expect_err("granularity");
        assert!(err.to_string().contains("unknown granularity `cluster`"));

        let err = parse_manifest(r#"{"faults": ["bogus=1"]}"#).expect_err("faults");
        assert!(err.to_string().contains("unknown key `bogus`"));
    }
}
