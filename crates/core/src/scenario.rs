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
//!   (scale × policy × granularity × overcommit × DRS × cross-BB ×
//!   faults × seeds).
//!   [`SweepSpec::expand`] produces the full cross product in a fixed
//!   nested order with stable, human-readable names — the same order at
//!   any worker count, which is what makes the sweep executor's output
//!   reproducible byte for byte.

use crate::config::{PlacementGranularity, SimConfig};
use crate::error::SimError;
use crate::result::RunResult;
use sapsim_faults::FaultSpec;
use sapsim_json::ToJson;
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
/// granularity, overcommit, DRS, cross-BB, faults, seed (innermost) —
/// and derives a stable name per scenario from the axes that actually
/// vary (the seed always appears, so names stay unique across the
/// commonest sweeps).
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
    /// General-purpose vCPU:pCPU overcommit ratios (empty: just the
    /// base ratio).
    pub overcommits: Vec<f64>,
    /// DRS rebalancer on/off (empty: just the base setting).
    pub drs: Vec<bool>,
    /// Cross-building-block rebalancer on/off (empty: just the base
    /// setting).
    pub cross_bbs: Vec<bool>,
    /// Fault specs (empty: just the base spec).
    pub faults: Vec<FaultSpec>,
    /// Workload/topology scales (empty: just the base scale).
    pub scales: Vec<f64>,
}

/// A scenario being expanded: its config and the name parts so far.
type Cell = (SimConfig, Vec<String>);

impl SweepSpec {
    /// A sweep over nothing: expands to the base config alone.
    pub fn new(base: SimConfig) -> Self {
        SweepSpec {
            base,
            seeds: Vec::new(),
            policies: Vec::new(),
            granularities: Vec::new(),
            overcommits: Vec::new(),
            drs: Vec::new(),
            cross_bbs: Vec::new(),
            faults: Vec::new(),
            scales: Vec::new(),
        }
    }

    /// Number of scenarios [`SweepSpec::expand`] will produce.
    pub fn len(&self) -> usize {
        [
            self.scales.len(),
            self.policies.len(),
            self.granularities.len(),
            self.overcommits.len(),
            self.drs.len(),
            self.cross_bbs.len(),
            self.faults.len(),
            self.seeds.len(),
        ]
        .iter()
        .map(|&n| n.max(1))
        .product()
    }

    /// True when the grid is the base config alone.
    pub fn is_empty(&self) -> bool {
        self.len() == 1
    }

    /// Expand the grid into named, validated scenarios.
    ///
    /// The order is total and independent of execution: scale varies
    /// slowest, then policy, granularity, overcommit, DRS, cross-BB,
    /// fault spec, and seed fastest. A scenario's name holds one part
    /// per axis with two or more values, then the seed, joined with
    /// `-`. Every expanded config is validated, and duplicate scenario
    /// names (possible only through duplicated axis values) are
    /// rejected rather than silently collapsed.
    pub fn expand(&self) -> Result<Vec<Scenario>, SimError> {
        let mut cells: Vec<Cell> = vec![(self.base, Vec::new())];
        widen(&mut cells, &self.scales, |c, v, _| {
            c.scale = v;
            format!("scale{v}")
        });
        widen(&mut cells, &self.policies, |c, v, _| {
            c.policy = v;
            v.name().to_string()
        });
        widen(&mut cells, &self.granularities, |c, v, _| {
            c.granularity = v;
            match v {
                PlacementGranularity::BuildingBlock => "bb".to_string(),
                PlacementGranularity::Node => "node".to_string(),
            }
        });
        widen(&mut cells, &self.overcommits, |c, v, _| {
            c.gp_cpu_overcommit = v;
            format!("oc{v}")
        });
        widen(&mut cells, &self.drs, |c, v, _| {
            c.drs_enabled = v;
            if v { "drs" } else { "nodrs" }.to_string()
        });
        widen(&mut cells, &self.cross_bbs, |c, v, _| {
            c.cross_bb_enabled = v;
            if v { "crossbb" } else { "nocrossbb" }.to_string()
        });
        widen(&mut cells, &self.faults, |c, v, i| {
            c.faults = v;
            if v.is_none() {
                "nofaults".to_string()
            } else {
                format!("f{i}")
            }
        });
        widen(&mut cells, &self.seeds, |c, v, _| {
            c.seed = v;
            format!("s{v}")
        });

        let scenarios = cells
            .into_iter()
            .map(|(config, mut parts)| {
                if self.seeds.len() < 2 {
                    // An unswept seed still names the scenario.
                    parts.push(format!("s{}", config.seed));
                }
                Scenario::new(parts.join("-"), config)
            })
            .collect::<Result<Vec<_>, _>>()?;
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
}

/// Cross `cells` with one axis, keeping the cells' order outermost.
/// `apply(config, value, value index)` sets the value and returns its
/// name part, which is kept when the axis has two or more values. An
/// empty axis leaves the base value.
fn widen<T: Copy>(
    cells: &mut Vec<Cell>,
    axis: &[T],
    apply: impl Fn(&mut SimConfig, T, usize) -> String,
) {
    if axis.is_empty() {
        return;
    }
    let mut wider = Vec::with_capacity(cells.len() * axis.len());
    for (config, parts) in cells.drain(..) {
        for (i, &value) in axis.iter().enumerate() {
            let mut config = config;
            let part = apply(&mut config, value, i);
            let mut parts = parts.clone();
            if axis.len() > 1 {
                parts.push(part);
            }
            wider.push((config, parts));
        }
    }
    *cells = wider;
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
        assert_eq!(ok.config.days, base().days);
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
        assert_eq!(scenarios[0].config, base());
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
        assert_eq!(scenarios[12].config.policy, PolicyKind::Spread);
    }

    #[test]
    fn overcommit_and_cross_bb_axes_nest_inside_granularity() {
        let mut spec = SweepSpec::new(base());
        spec.granularities = vec![
            PlacementGranularity::BuildingBlock,
            PlacementGranularity::Node,
        ];
        spec.overcommits = vec![2.0, 4.0];
        spec.drs = vec![false, true];
        spec.cross_bbs = vec![false, true];
        assert_eq!(spec.len(), 16);
        let scenarios = spec.expand().expect("valid");
        let seed = base().seed;
        assert_eq!(
            scenarios[0].name(),
            format!("bb-oc2-nodrs-nocrossbb-s{seed}")
        );
        assert_eq!(scenarios[1].name(), format!("bb-oc2-nodrs-crossbb-s{seed}"));
        assert_eq!(
            scenarios[15].name(),
            format!("node-oc4-drs-crossbb-s{seed}")
        );
        assert_eq!(scenarios[4].config.gp_cpu_overcommit, 4.0);
        // Cross-BB without DRS is a valid cell of its own.
        assert!(scenarios[1].config.cross_bb_enabled && !scenarios[1].config.drs_enabled);
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
}
