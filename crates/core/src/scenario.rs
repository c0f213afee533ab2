//! Named, content-addressed run descriptors and sweep grids.
//!
//! The paper's headline results are *comparative* — vanilla Nova vs.
//! DRS-corrected placement, contention with and without the second
//! scheduling layer — so the natural unit of work is not one run but a
//! *grid* of runs differing along a few axes. This module provides the
//! typed session layer for that:
//!
//! * [`Scenario`] — one named, validated run descriptor. Construction
//!   validates the config, so a `Scenario` in hand is always runnable;
//!   [`Scenario::id`] content-addresses the config, so two scenarios
//!   that must produce identical results share an id regardless of
//!   worker count or label.
//! * [`SweepSpec`] — a base config plus per-axis value lists
//!   (seeds × policies × granularity × DRS × faults × scale).
//!   [`SweepSpec::expand`] produces the full cross product in a fixed
//!   nested order with stable, human-readable names — the same order at
//!   any worker count, which is what makes the sweep executor's output
//!   reproducible byte for byte.

use crate::config::{PlacementGranularity, SimConfig};
use crate::error::SimError;
use crate::result::RunResult;
use sapsim_faults::FaultSpec;
use sapsim_json::{json_codec, ToJson};
use sapsim_obs::Recorder;
use sapsim_scheduler::PolicyKind;

/// FNV-1a 64-bit content hash — the hash used for scenario ids and sweep
/// determinism witnesses. Stable across platforms and releases; not
/// cryptographic.
pub use sapsim_json::fnv1a_64;

/// One named, validated run descriptor.
///
/// The constructor runs [`SimConfig::validate`], so every `Scenario` is
/// runnable by construction — [`Scenario::run`] cannot fail on config
/// grounds. Names are free-form labels for reports; identity for
/// deduplication and caching comes from [`Scenario::id`].
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    name: String,
    config: SimConfig,
}

impl Scenario {
    /// Validate `config` and wrap it under `name`.
    pub fn new(name: impl Into<String>, config: SimConfig) -> Result<Self, SimError> {
        let name = name.into();
        if name.is_empty() {
            return Err(SimError::InvalidConfig(
                "scenario name must not be empty".into(),
            ));
        }
        config.validate()?;
        Ok(Scenario { name, config })
    }

    /// The report label.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The validated configuration.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Content address of the config: 16 lowercase hex digits of
    /// [`fnv1a_64`] over the config JSON. Two scenarios with the same id
    /// are guaranteed to produce byte-identical
    /// [`RunResult::canonical_bytes`], whatever their names or worker
    /// counts.
    pub fn id(&self) -> String {
        let json = self.config.to_json_string();
        format!("{:016x}", fnv1a_64(json.as_bytes()))
    }

    /// Execute the scenario without observability.
    pub fn run(&self) -> RunResult {
        crate::SimDriver::new(self.config)
            .expect("Scenario holds a validated config")
            .run()
    }

    /// Execute the scenario, streaming observability into `rec`.
    pub fn run_with_recorder<R: Recorder>(&self, rec: &mut R) -> RunResult {
        crate::SimDriver::new(self.config)
            .expect("Scenario holds a validated config")
            .run_with_recorder(rec)
    }
}

/// A grid of runs: a base config plus value lists per swept axis.
///
/// An empty axis means "inherit the base config's value"; a non-empty
/// axis sweeps every listed value. [`SweepSpec::expand`] takes the full
/// cross product in a fixed nested order — scale (outermost), policy,
/// granularity, DRS, faults, seed (innermost) — and derives a stable
/// name per scenario from the axes that actually vary (the seed always
/// appears, so names stay unique across the commonest sweeps).
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSpec {
    /// The config every scenario starts from.
    pub base: SimConfig,
    /// Root RNG seeds (empty: just the base seed).
    pub seeds: Vec<u64>,
    /// Initial-placement policies (empty: just the base policy).
    pub policies: Vec<PolicyKind>,
    /// Placement granularities (empty: just the base granularity).
    pub granularities: Vec<PlacementGranularity>,
    /// DRS rebalancer on/off (empty: just the base setting).
    pub drs: Vec<bool>,
    /// Fault specs (empty: just the base spec).
    pub faults: Vec<FaultSpec>,
    /// Workload/topology scales (empty: just the base scale).
    pub scales: Vec<f64>,
}

json_codec!(struct SweepSpec: default { base, seeds, policies, granularities, drs, faults, scales });

impl Default for SweepSpec {
    fn default() -> Self {
        SweepSpec::new(SimConfig::default())
    }
}

impl SweepSpec {
    /// A sweep over nothing: expands to the base config alone.
    pub fn new(base: SimConfig) -> Self {
        SweepSpec {
            base,
            seeds: Vec::new(),
            policies: Vec::new(),
            granularities: Vec::new(),
            drs: Vec::new(),
            faults: Vec::new(),
            scales: Vec::new(),
        }
    }

    /// Number of scenarios [`SweepSpec::expand`] will produce.
    pub fn len(&self) -> usize {
        let axis = |n: usize| n.max(1);
        axis(self.scales.len())
            * axis(self.policies.len())
            * axis(self.granularities.len())
            * axis(self.drs.len())
            * axis(self.faults.len())
            * axis(self.seeds.len())
    }

    /// True when the grid is the base config alone.
    pub fn is_empty(&self) -> bool {
        self.len() == 1
    }

    /// Expand the grid into named, validated scenarios.
    ///
    /// The order is total and independent of execution: scale varies
    /// slowest, then policy, granularity, DRS, fault spec, and seed
    /// fastest. Every expanded config is validated, and duplicate
    /// scenario names (possible only through duplicated axis values)
    /// are rejected rather than silently collapsed.
    pub fn expand(&self) -> Result<Vec<Scenario>, SimError> {
        let scales = non_empty(&self.scales, self.base.scale);
        let policies = non_empty(&self.policies, self.base.policy);
        let granularities = non_empty(&self.granularities, self.base.granularity);
        let drs = non_empty(&self.drs, self.base.drs_enabled);
        let faults = non_empty(&self.faults, self.base.faults);
        let seeds = non_empty(&self.seeds, self.base.seed);

        let mut scenarios = Vec::with_capacity(self.len());
        for &scale in &scales {
            for &policy in &policies {
                for &granularity in &granularities {
                    for &drs_enabled in &drs {
                        for (fault_index, &fault_spec) in faults.iter().enumerate() {
                            for &seed in &seeds {
                                let mut config = self.base;
                                config.scale = scale;
                                config.policy = policy;
                                config.granularity = granularity;
                                config.drs_enabled = drs_enabled;
                                config.faults = fault_spec;
                                config.seed = seed;
                                let name = self.scenario_name(
                                    &config,
                                    fault_index,
                                    scales.len(),
                                    faults.len(),
                                );
                                scenarios.push(Scenario::new(name, config)?);
                            }
                        }
                    }
                }
            }
        }
        let mut names: Vec<&str> = scenarios.iter().map(|s| s.name()).collect();
        names.sort_unstable();
        if let Some(dup) = names.windows(2).find(|w| w[0] == w[1]) {
            return Err(SimError::InvalidConfig(format!(
                "sweep expands to duplicate scenario `{}` (repeated axis value?)",
                dup[0]
            )));
        }
        Ok(scenarios)
    }

    /// Stable per-scenario name: one component per axis that varies
    /// (≥ 2 values), plus the seed, joined with `-`.
    fn scenario_name(
        &self,
        config: &SimConfig,
        fault_index: usize,
        num_scales: usize,
        num_faults: usize,
    ) -> String {
        let mut parts: Vec<String> = Vec::new();
        if num_scales > 1 {
            parts.push(format!("scale{}", config.scale));
        }
        if self.policies.len() > 1 {
            parts.push(config.policy.name().to_string());
        }
        if self.granularities.len() > 1 {
            parts.push(
                match config.granularity {
                    PlacementGranularity::BuildingBlock => "bb",
                    PlacementGranularity::Node => "node",
                }
                .to_string(),
            );
        }
        if self.drs.len() > 1 {
            parts.push(if config.drs_enabled { "drs" } else { "nodrs" }.to_string());
        }
        if num_faults > 1 {
            parts.push(if config.faults.is_none() {
                "nofaults".to_string()
            } else {
                format!("f{fault_index}")
            });
        }
        parts.push(format!("s{}", config.seed));
        parts.join("-")
    }
}

fn non_empty<T: Copy>(axis: &[T], base: T) -> Vec<T> {
    if axis.is_empty() {
        vec![base]
    } else {
        axis.to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> SimConfig {
        SimConfig::smoke_test()
    }

    #[test]
    fn scenario_validates_at_construction() {
        let mut bad = base();
        bad.days = 0;
        assert!(Scenario::new("bad", bad).is_err());
        assert!(Scenario::new("", base()).is_err());
        let ok = Scenario::new("ok", base()).expect("valid");
        assert_eq!(ok.name(), "ok");
        assert_eq!(ok.config().days, base().days);
    }

    #[test]
    fn scenario_id_ignores_the_label_but_not_the_config() {
        let a = Scenario::new("a", base()).unwrap();
        let b = Scenario::new("b", base()).unwrap();
        assert_eq!(a.id(), b.id(), "the label must not change the id");
        assert_eq!(a.id().len(), 16);

        let mut reseeded = base();
        reseeded.seed = 99;
        let c = Scenario::new("c", reseeded).unwrap();
        assert_ne!(a.id(), c.id(), "the seed is part of the identity");
    }

    #[test]
    fn empty_sweep_expands_to_the_base_alone() {
        let spec = SweepSpec::new(base());
        assert!(spec.is_empty());
        let scenarios = spec.expand().expect("valid");
        assert_eq!(scenarios.len(), 1);
        assert_eq!(scenarios[0].name(), format!("s{}", base().seed));
        assert_eq!(*scenarios[0].config(), base());
    }

    #[test]
    fn expansion_order_and_names_are_stable() {
        let mut spec = SweepSpec::new(base());
        spec.policies = vec![PolicyKind::PaperDefault, PolicyKind::Spread];
        spec.granularities = vec![
            PlacementGranularity::BuildingBlock,
            PlacementGranularity::Node,
        ];
        spec.seeds = vec![1, 2, 3];
        spec.faults = vec![
            FaultSpec::none(),
            FaultSpec {
                host_fail_rate_per_month: 2.0,
                ..FaultSpec::none()
            },
        ];
        assert_eq!(spec.len(), 24);
        let scenarios = spec.expand().expect("valid");
        assert_eq!(scenarios.len(), 24);
        assert_eq!(scenarios[0].name(), "paper-default-bb-nofaults-s1");
        assert_eq!(scenarios[1].name(), "paper-default-bb-nofaults-s2");
        assert_eq!(scenarios[3].name(), "paper-default-bb-f1-s1");
        assert_eq!(scenarios[23].name(), "spread-node-f1-s3");
        // Seed varies fastest; policy slowest among the swept axes.
        assert_eq!(scenarios[12].config().policy, PolicyKind::Spread);
    }

    #[test]
    fn duplicate_axis_values_are_rejected() {
        let mut spec = SweepSpec::new(base());
        spec.seeds = vec![1, 1];
        let err = spec.expand().expect_err("duplicate");
        assert!(err.to_string().contains("duplicate scenario"));
    }

    #[test]
    fn invalid_expanded_configs_are_rejected() {
        let mut spec = SweepSpec::new(base());
        spec.scales = vec![0.02, SimConfig::MAX_SCALE * 2.0];
        assert!(spec.expand().is_err());
    }

    #[test]
    fn sweep_spec_round_trips_through_json() {
        let mut spec = SweepSpec::new(base());
        spec.seeds = vec![1, 2];
        spec.drs = vec![true, false];
        let back: SweepSpec = sapsim_json::decode(&spec.to_json_string()).expect("decodes");
        assert_eq!(back, spec);
        // Missing keys default: an axis-only document is a complete spec.
        let sparse: SweepSpec = sapsim_json::decode(r#"{"seeds":[4,5]}"#).expect("decodes");
        assert_eq!(sparse.base, SimConfig::default());
        assert_eq!(sparse.seeds, vec![4, 5]);
    }
}
