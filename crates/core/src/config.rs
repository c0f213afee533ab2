//! Simulation configuration.

use crate::error::SimError;
use sapsim_faults::FaultSpec;
use sapsim_json::json_codec;
use sapsim_scheduler::{DrsConfig, PolicyKind};
use sapsim_sim::SimDuration;

/// At which granularity the initial-placement scheduler sees candidates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PlacementGranularity {
    /// The production architecture: Nova places onto building blocks
    /// (vSphere clusters); node assignment is a second, independent step.
    /// "This abstraction can lead to fragmentation and imbalanced resource
    /// distribution situations within a vSphere cluster" (paper
    /// Section 3.1).
    BuildingBlock,
    /// The holistic extension (paper Section 7): one scheduler assigns VMs
    /// directly to individual hypervisors.
    Node,
}

json_codec!(enum PlacementGranularity { BuildingBlock, Node });

impl PlacementGranularity {
    /// The stable CLI/manifest spelling (`bb` | `node`).
    pub(crate) const fn as_str(self) -> &'static str {
        match self {
            PlacementGranularity::BuildingBlock => "bb",
            PlacementGranularity::Node => "node",
        }
    }
}

impl std::fmt::Display for PlacementGranularity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl std::str::FromStr for PlacementGranularity {
    type Err = String;

    /// The error message is exactly what the CLI prints for
    /// `--granularity`, keeping both paths under one pinned contract.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "bb" => Ok(PlacementGranularity::BuildingBlock),
            "node" => Ok(PlacementGranularity::Node),
            other => Err(format!("unknown granularity `{other}` (use bb|node)")),
        }
    }
}

/// Full configuration of one simulation run. A run is a pure function of
/// this value — two runs with equal configs produce identical results.
///
/// Marked `#[non_exhaustive]` so fields can be added without breaking
/// embedders: construct one by mutating [`SimConfig::default`] (or
/// [`SimConfig::smoke_test`]), or use [`SimConfig::builder`] for a
/// validated fluent form, which also sets the crate-private fields. The JSON wire
/// format is unchanged by the attribute and is pinned by tests.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub struct SimConfig {
    /// Root RNG seed.
    pub seed: u64,
    /// Observation window in days (the paper's is 30). Capped at
    /// `SimConfig::MAX_DAYS`.
    pub days: u64,
    /// Workload and topology scale. `1.0` is the full 1,823-node /
    /// ~45k-VM studied region; `0.1` a laptop-friendly tenth. Values
    /// above 1 replicate the region into a multi-region estate:
    /// `floor(scale)` full replicas plus one fractional remainder region,
    /// each with its own deterministic id namespace and RNG streams
    /// (`10.0` ≈ 18k nodes / ~450k VMs). Capped at [`SimConfig::MAX_SCALE`].
    pub scale: f64,
    /// Initial-placement policy.
    pub policy: PolicyKind,
    /// Candidate granularity for initial placement.
    pub granularity: PlacementGranularity,
    /// Whether the DRS-style intra-BB rebalancer runs.
    pub drs_enabled: bool,
    /// DRS tuning.
    pub drs: DrsConfig,
    /// How often DRS evaluates each building block.
    pub(crate) drs_interval: SimDuration,
    /// Whether the cross-BB rebalancer runs (off in the paper's production
    /// setup — enabling it is ablation A3).
    pub cross_bb_enabled: bool,
    /// How often the cross-BB rebalancer evaluates each data center.
    pub(crate) cross_bb_interval: SimDuration,
    /// Telemetry scrape interval for vROps-style metrics (paper: 300 s).
    pub(crate) scrape_interval: SimDuration,
    /// Telemetry interval for the Nova-DB gauges (paper: 30 s). Kept
    /// separate because the dataset's two exporters sample differently.
    pub(crate) os_gauge_interval: SimDuration,
    /// Record full-resolution (raw) host contention and ready-time series
    /// in addition to daily rollups. Needed by the Figure 8/9 analyses;
    /// costs memory proportional to nodes × samples.
    pub record_raw_host_series: bool,
    /// CPU overcommit ratio applied to general-purpose building blocks
    /// (the A2 ablation sweeps this).
    pub gp_cpu_overcommit: f64,
    /// Generate churn (creations/deletions) in addition to the initial
    /// population.
    pub(crate) churn: bool,
    /// Fraction of general-purpose building blocks held back as failover
    /// and expansion reserve (paper Section 5.1 explains the widespread
    /// idle capacity this produces in the heatmaps).
    pub(crate) reserve_bb_fraction: f64,
    /// Probability that a general-purpose VM carries one mid-life resize
    /// (paper Section 4 lists resize among the recorded events).
    pub(crate) resize_probability: f64,
    /// Expected number of planned-maintenance windows per node per 30
    /// days. Nodes under maintenance are evacuated and stop reporting
    /// telemetry — the white cells of the paper's heatmaps ("compute
    /// hosts might have ... experienced operational changes e.g., planned
    /// maintenance", Section 5).
    pub(crate) maintenance_rate_per_month: f64,
    /// Length of one maintenance window.
    pub(crate) maintenance_duration: SimDuration,
    /// Replicate the studied region this many times at the *per-region*
    /// [`SimConfig::scale`] — the orthogonal complement of `scale > 1`,
    /// which replicates only at full size. `region_replicas: 3` with
    /// `scale: 0.02` builds three tiny regions for less than the cost of
    /// one full one, which is how the determinism suites exercise
    /// multi-region behaviour cheaply. Requires `scale <= 1`; the total
    /// estate (`scale × region_replicas`) stays capped at
    /// [`SimConfig::MAX_SCALE`]. Defaults to 1 and is skipped from the
    /// wire format at that value, so pre-existing serialized configs,
    /// scenario ids, and canonical bytes are unchanged.
    pub region_replicas: usize,
    /// Pre-observation warm-up in days: the initial population ramps in
    /// over this span with telemetry running, so placement policies that
    /// consume utilization history (contention-aware, lifetime-aware)
    /// have signal by the time the observation window starts. Must be a
    /// multiple of 7 so the weekday calendar of the observation window
    /// stays anchored on the paper's Wednesday epoch. Telemetry and VM
    /// statistics cover only the observation window. Capped at
    /// `SimConfig::MAX_DAYS`.
    pub warmup_days: u64,
    /// Fault injection: abrupt host failures (with evacuation through the
    /// normal scheduling pipeline), straggler nodes, and telemetry
    /// dropouts. Defaults to [`FaultSpec::none`], which is a behavioural
    /// no-op and is skipped when serialized so pre-fault configs and
    /// canonical bytes are unchanged.
    pub faults: FaultSpec,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            seed: 0,
            days: 30,
            scale: 0.1,
            policy: PolicyKind::PaperDefault,
            granularity: PlacementGranularity::BuildingBlock,
            drs_enabled: true,
            drs: DrsConfig::default(),
            drs_interval: SimDuration::from_mins(15),
            cross_bb_enabled: false,
            cross_bb_interval: SimDuration::from_hours(6),
            scrape_interval: SimDuration::from_secs(300),
            os_gauge_interval: SimDuration::from_secs(30),
            record_raw_host_series: true,
            gp_cpu_overcommit: 4.0,
            churn: true,
            reserve_bb_fraction: 0.08,
            resize_probability: 0.02,
            maintenance_rate_per_month: 0.10,
            maintenance_duration: SimDuration::from_hours(18),
            region_replicas: 1,
            warmup_days: 7,
            faults: FaultSpec::none(),
        }
    }
}

/// Omit predicate keeping single-region configs byte-identical to the
/// pre-replica wire format (a missing key decodes to the default, 1).
#[allow(clippy::trivially_copy_pass_by_ref)]
fn is_single_region(n: &usize) -> bool {
    *n == 1
}

// The wire format. Missing keys take their defaults, so configs written
// before a field existed still load. Every field is listed: a config
// states the whole experiment. `threads` has no field: the format
// is add-only, so the key a deleted knob left behind is still written,
// always 0, in its old position, and ignored when read.
json_codec!(struct SimConfig: default {
    seed, days, scale, policy, granularity, drs_enabled, drs, drs_interval, cross_bb_enabled,
    cross_bb_interval, scrape_interval, os_gauge_interval, record_raw_host_series,
    gp_cpu_overcommit, churn, reserve_bb_fraction, resize_probability,
    maintenance_rate_per_month, maintenance_duration, region_replicas: is_single_region,
    warmup_days, threads = 0u64, faults: FaultSpec::is_none,
});

impl SimConfig {
    /// Upper bound on [`SimConfig::scale`]: 100 replicated regions
    /// (~182k nodes) — beyond the ROADMAP's 50k–100k-node north star, and
    /// a guard against typo-sized estates that would never finish.
    pub const MAX_SCALE: f64 = 100.0;

    /// Upper bound on [`SimConfig::days`] and [`SimConfig::warmup_days`]:
    /// ten years, 120× the paper's 30-day window — so their sum and its
    /// millisecond form cannot overflow, and a typo-sized horizon cannot
    /// ask for terabytes of daily rollups.
    pub(crate) const MAX_DAYS: u64 = 3_650;

    /// A small, fast configuration for tests: 2 % scale, 3 days, no
    /// warm-up.
    pub fn smoke_test() -> Self {
        SimConfig {
            scale: 0.02,
            days: 3,
            warmup_days: 0,
            ..SimConfig::default()
        }
    }

    /// Validate invariants; called by the driver before running.
    pub fn validate(&self) -> Result<(), SimError> {
        let invalid = |msg: String| Err(SimError::InvalidConfig(msg));
        if self.days == 0 {
            return invalid("days must be at least 1".into());
        }
        if self.days > Self::MAX_DAYS || self.warmup_days > Self::MAX_DAYS {
            return invalid(format!(
                "days and warmup_days must each stay within {}, got {} and {}",
                Self::MAX_DAYS,
                self.days,
                self.warmup_days
            ));
        }
        if !(self.scale > 0.0 && self.scale <= Self::MAX_SCALE) {
            return invalid(format!(
                "scale must be in (0, {}], got {}",
                Self::MAX_SCALE,
                self.scale
            ));
        }
        if self.scrape_interval.is_zero() || self.os_gauge_interval.is_zero() {
            return invalid("scrape intervals must be positive".into());
        }
        if !self.gp_cpu_overcommit.is_finite() || self.gp_cpu_overcommit <= 0.0 {
            return invalid("gp_cpu_overcommit must be positive".into());
        }
        if self.drs_enabled && self.drs_interval.is_zero() {
            return invalid("drs_interval must be positive when DRS is enabled".into());
        }
        if self.cross_bb_enabled && self.cross_bb_interval.is_zero() {
            return invalid(
                "cross_bb_interval must be positive when cross-BB rebalancing is enabled".into(),
            );
        }
        // NaN is in no range. A negative gap threshold lets the planner
        // bounce a VM between two hosts until `max_migrations`.
        if !(0.0..).contains(&self.drs.cpu_gap_threshold) {
            return invalid(format!(
                "drs.cpu_gap_threshold must be non-negative, got {}",
                self.drs.cpu_gap_threshold
            ));
        }
        if !(self.drs.mem_ceiling > 0.0 && self.drs.mem_ceiling <= 1.0) {
            return invalid(format!(
                "drs.mem_ceiling must be in (0, 1], got {}",
                self.drs.mem_ceiling
            ));
        }
        if !(0.0..=1.0).contains(&self.resize_probability) {
            return invalid(format!(
                "resize_probability must be in [0, 1], got {}",
                self.resize_probability
            ));
        }
        if !self.maintenance_rate_per_month.is_finite() || self.maintenance_rate_per_month < 0.0 {
            return invalid("maintenance_rate_per_month must be non-negative".into());
        }
        if !self.warmup_days.is_multiple_of(7) {
            return invalid(format!(
                "warmup_days must be a multiple of 7 to keep the weekday \
                 calendar anchored, got {}",
                self.warmup_days
            ));
        }
        if self.region_replicas == 0 {
            return invalid("region_replicas must be at least 1".into());
        }
        if self.region_replicas > 1 {
            if self.scale > 1.0 {
                return invalid(format!(
                    "region_replicas > 1 takes a per-region scale in (0, 1], got {}",
                    self.scale
                ));
            }
            let total = self.scale * self.region_replicas as f64;
            if total > Self::MAX_SCALE {
                return invalid(format!(
                    "scale x region_replicas must stay within {}, got {total}",
                    Self::MAX_SCALE
                ));
            }
        }
        if !(0.0..0.9).contains(&self.reserve_bb_fraction) {
            return invalid(format!(
                "reserve_bb_fraction must be in [0, 0.9), got {}",
                self.reserve_bb_fraction
            ));
        }
        self.faults.validate()?;
        Ok(())
    }

    /// Start a fluent, validated construction from [`SimConfig::default`].
    ///
    /// The builder is the recommended way for embedders to assemble a
    /// config now that `SimConfig` is `#[non_exhaustive]`:
    ///
    /// ```
    /// use sapsim_core::SimConfig;
    ///
    /// let config = SimConfig::builder()
    ///     .scale(0.05)
    ///     .days(7)
    ///     .warmup_days(0)
    ///     .build()
    ///     .expect("valid config");
    /// assert_eq!(config.days, 7);
    /// ```
    pub fn builder() -> SimConfigBuilder {
        SimConfigBuilder {
            config: SimConfig::default(),
        }
    }

    /// Re-open this config as a builder, e.g. to derive a variant from
    /// [`SimConfig::smoke_test`] or a deserialized base.
    pub fn to_builder(self) -> SimConfigBuilder {
        SimConfigBuilder { config: self }
    }
}

/// Fluent, validated constructor for [`SimConfig`].
///
/// Each setter overwrites one field of the wrapped config (starting from
/// [`SimConfig::default`] or the config passed to
/// [`SimConfig::to_builder`]); [`SimConfigBuilder::build`] runs
/// [`SimConfig::validate`] and hands back the finished value. Building
/// never changes the wire format: a builder-built config serializes
/// byte-identically to the same config assembled by field mutation.
#[derive(Debug, Clone)]
#[must_use = "a builder does nothing until `.build()` is called"]
pub struct SimConfigBuilder {
    config: SimConfig,
}

macro_rules! builder_setters {
    ($(
        $(#[$doc:meta])*
        $field:ident: $ty:ty
    ),* $(,)?) => {
        $(
            $(#[$doc])*
            pub fn $field(mut self, value: $ty) -> Self {
                self.config.$field = value;
                self
            }
        )*
    };
}

impl SimConfigBuilder {
    builder_setters! {
        /// Root RNG seed.
        seed: u64,
        /// Observation window in days.
        days: u64,
        /// Workload and topology scale in `(0, MAX_SCALE]`; values above
        /// 1 build a replicated multi-region estate.
        scale: f64,
        /// Initial-placement policy.
        policy: PolicyKind,
        /// Candidate granularity for initial placement.
        granularity: PlacementGranularity,
        /// Whether the DRS-style intra-BB rebalancer runs.
        drs_enabled: bool,
        /// DRS tuning.
        drs: DrsConfig,
        /// How often DRS evaluates each building block.
        drs_interval: SimDuration,
        /// Whether the cross-BB rebalancer runs.
        cross_bb_enabled: bool,
        /// How often the cross-BB rebalancer evaluates each data center.
        cross_bb_interval: SimDuration,
        /// Telemetry scrape interval for vROps-style metrics.
        scrape_interval: SimDuration,
        /// Telemetry interval for the Nova-DB gauges.
        os_gauge_interval: SimDuration,
        /// Record full-resolution host series in addition to rollups.
        record_raw_host_series: bool,
        /// CPU overcommit ratio for general-purpose building blocks.
        gp_cpu_overcommit: f64,
        /// Generate churn in addition to the initial population.
        churn: bool,
        /// Fraction of GP building blocks held back as reserve.
        reserve_bb_fraction: f64,
        /// Probability of one mid-life resize per GP VM.
        resize_probability: f64,
        /// Expected planned-maintenance windows per node per 30 days.
        maintenance_rate_per_month: f64,
        /// Length of one maintenance window.
        maintenance_duration: SimDuration,
        /// Replicate the studied region this many times at the
        /// per-region scale (requires `scale <= 1`).
        region_replicas: usize,
        /// Pre-observation warm-up in days (multiple of 7).
        warmup_days: u64,
        /// Fault injection spec.
        faults: FaultSpec,
    }

    /// Validate and return the finished config.
    pub fn build(self) -> Result<SimConfig, SimError> {
        self.config.validate()?;
        Ok(self.config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sapsim_json::{decode, ToJson};

    #[test]
    fn default_matches_paper_sampling() {
        let c = SimConfig::default();
        assert_eq!(c.days, 30);
        assert_eq!(c.scrape_interval.as_secs(), 300);
        assert_eq!(c.os_gauge_interval.as_secs(), 30);
        assert!(c.drs_enabled);
        assert!(!c.cross_bb_enabled, "production has no cross-BB rebalancer");
        assert!(c.validate().is_ok());
    }

    #[test]
    fn validation_rejects_nonsense() {
        let broken = [
            SimConfig {
                days: 0,
                ..SimConfig::default()
            },
            SimConfig {
                scale: 0.0,
                ..SimConfig::default()
            },
            SimConfig {
                scale: -0.5,
                ..SimConfig::default()
            },
            SimConfig {
                scale: SimConfig::MAX_SCALE * 2.0,
                ..SimConfig::default()
            },
            SimConfig {
                days: SimConfig::MAX_DAYS + 1,
                ..SimConfig::default()
            },
            // The three overflow inputs: `warmup_days + days` wraps, `days *
            // MILLIS_PER_DAY` wraps, the rollup tables exhaust memory.
            SimConfig {
                days: u64::MAX,
                ..SimConfig::default()
            },
            SimConfig {
                days: 213_503_982_335,
                warmup_days: 0,
                ..SimConfig::default()
            },
            SimConfig {
                days: 100_000_000,
                ..SimConfig::default()
            },
            SimConfig {
                warmup_days: 7 * (SimConfig::MAX_DAYS / 7 + 1),
                ..SimConfig::default()
            },
            SimConfig {
                scrape_interval: SimDuration::ZERO,
                ..SimConfig::default()
            },
            SimConfig {
                gp_cpu_overcommit: 0.0,
                ..SimConfig::default()
            },
            SimConfig {
                gp_cpu_overcommit: f64::NAN,
                ..SimConfig::default()
            },
            SimConfig {
                gp_cpu_overcommit: f64::INFINITY,
                ..SimConfig::default()
            },
            SimConfig {
                reserve_bb_fraction: 0.95,
                ..SimConfig::default()
            },
            SimConfig {
                resize_probability: 1.5,
                ..SimConfig::default()
            },
            SimConfig {
                maintenance_rate_per_month: -1.0,
                ..SimConfig::default()
            },
            SimConfig {
                maintenance_rate_per_month: f64::NAN,
                ..SimConfig::default()
            },
            SimConfig {
                faults: FaultSpec {
                    host_fail_rate_per_month: -1.0,
                    ..FaultSpec::none()
                },
                ..SimConfig::default()
            },
            SimConfig {
                faults: FaultSpec {
                    dropout_rate_per_month: 1.0,
                    dropout_duration_hours: f64::NAN,
                    ..FaultSpec::none()
                },
                ..SimConfig::default()
            },
        ];
        for (i, c) in broken.iter().enumerate() {
            assert!(c.validate().is_err(), "config {i} should be rejected");
        }
        let longest = SimConfig {
            days: SimConfig::MAX_DAYS,
            warmup_days: 7 * (SimConfig::MAX_DAYS / 7),
            ..SimConfig::default()
        };
        assert!(longest.validate().is_ok(), "the bound itself is accepted");
    }

    #[test]
    fn multi_region_scales_are_accepted() {
        for s in [1.5, 10.0, 50.0, SimConfig::MAX_SCALE] {
            let c = SimConfig {
                scale: s,
                ..SimConfig::default()
            };
            assert!(c.validate().is_ok(), "scale {s} must validate");
        }
    }

    #[test]
    fn warmup_must_align_to_weeks() {
        let bad = SimConfig {
            warmup_days: 3,
            ..SimConfig::default()
        };
        assert!(bad.validate().is_err());
        let ok = SimConfig {
            warmup_days: 14,
            ..SimConfig::default()
        };
        assert!(ok.validate().is_ok());
    }

    #[test]
    fn fault_free_config_serializes_like_the_pre_fault_format() {
        let json = SimConfig::default().to_json_string();
        assert!(
            !json.contains("faults"),
            "FaultSpec::none() must vanish from serialized configs: {json}"
        );
        let back: SimConfig = decode(&json).expect("deserializes");
        assert_eq!(back, SimConfig::default());

        let faulty = SimConfig {
            faults: FaultSpec {
                host_fail_rate_per_month: 1.0,
                ..FaultSpec::none()
            },
            ..SimConfig::default()
        };
        let json = faulty.to_json_string();
        assert!(json.contains("host_fail_rate_per_month"));
        let back: SimConfig = decode(&json).expect("deserializes");
        assert_eq!(back, faulty);
    }

    #[test]
    fn every_field_round_trips_through_the_wire() {
        let cfg = SimConfig {
            seed: 7,
            days: 12,
            scale: 0.5,
            policy: PolicyKind::Spread,
            granularity: PlacementGranularity::Node,
            drs_enabled: false,
            drs: DrsConfig {
                cpu_gap_threshold: 0.2,
                max_migrations: 4,
                mem_ceiling: 0.9,
            },
            drs_interval: SimDuration::from_mins(20),
            cross_bb_enabled: true,
            cross_bb_interval: SimDuration::from_hours(3),
            scrape_interval: SimDuration::from_secs(600),
            os_gauge_interval: SimDuration::from_secs(60),
            record_raw_host_series: false,
            gp_cpu_overcommit: 3.0,
            churn: false,
            reserve_bb_fraction: 0.1,
            resize_probability: 0.05,
            maintenance_rate_per_month: 0.2,
            maintenance_duration: SimDuration::from_hours(6),
            region_replicas: 2,
            warmup_days: 14,
            faults: FaultSpec {
                host_fail_rate_per_month: 2.0,
                ..FaultSpec::none()
            },
        };
        cfg.validate().expect("valid");
        // Every field sits away from its default, so one the wire drops
        // cannot decode back to an equal value. The destructuring lists
        // every field: a new one fails to compile until it is added here.
        let d = SimConfig::default();
        macro_rules! away_from_default {
            ($($field:ident),*) => {
                let SimConfig { $($field),* } = cfg;
                $(assert!($field != d.$field, concat!("`", stringify!($field), "` is at its default"));)*
            };
        }
        away_from_default! {
            seed, days, scale, policy, granularity, drs_enabled, drs, drs_interval,
            cross_bb_enabled, cross_bb_interval, scrape_interval, os_gauge_interval,
            record_raw_host_series, gp_cpu_overcommit, churn, reserve_bb_fraction,
            resize_probability, maintenance_rate_per_month, maintenance_duration, region_replicas,
            warmup_days, faults
        }
        let back: SimConfig = decode(&cfg.to_json_string()).expect("deserializes");
        assert_eq!(back, cfg);
    }

    #[test]
    fn builder_matches_field_mutation_and_wire_format() {
        let built = SimConfig::builder()
            .seed(7)
            .scale(0.05)
            .days(5)
            .policy(PolicyKind::ContentionAware)
            .granularity(PlacementGranularity::Node)
            .warmup_days(0)
            .build()
            .expect("valid");
        let mutated = SimConfig {
            seed: 7,
            scale: 0.05,
            days: 5,
            policy: PolicyKind::ContentionAware,
            granularity: PlacementGranularity::Node,
            warmup_days: 0,
            ..SimConfig::default()
        };
        assert_eq!(built, mutated);
        assert_eq!(
            built.to_json_string(),
            mutated.to_json_string(),
            "builder must not perturb the wire format"
        );
    }

    #[test]
    fn zero_interval_of_an_enabled_periodic_event_is_refused() {
        // A zero interval reschedules its event at the same instant
        // forever, so the run never ends. Each row switches its feature on
        // and zeroes its interval; only `validate` and `build` run here.
        let rows: [(&str, ConfigEdit); 4] = [
            ("scrape_interval", |c| c.scrape_interval = SimDuration::ZERO),
            ("os_gauge_interval", |c| {
                c.os_gauge_interval = SimDuration::ZERO
            }),
            ("drs_interval", |c| {
                c.drs_enabled = true;
                c.drs_interval = SimDuration::ZERO;
            }),
            ("cross_bb_interval", |c| {
                c.cross_bb_enabled = true;
                c.cross_bb_interval = SimDuration::ZERO;
            }),
        ];
        assert_each_refused(&rows);
    }

    type ConfigEdit = fn(&mut SimConfig);

    /// Each row edits the smoke-test config; `validate` and `build` must
    /// both refuse the result as invalid.
    fn assert_each_refused(rows: &[(&str, ConfigEdit)]) {
        for (row, edit) in rows {
            let mut cfg = SimConfig::smoke_test();
            edit(&mut cfg);
            let refused = |r: Result<(), SimError>| matches!(r, Err(SimError::InvalidConfig(_)));
            assert!(refused(cfg.validate()), "{row}: validate");
            assert!(refused(cfg.to_builder().build().map(drop)), "{row}: build");
        }
    }

    #[test]
    fn out_of_range_drs_tuning_is_refused() {
        // Each row sets one `drs` field to a value the planner cannot
        // honour; the boundary values beside them stay accepted.
        let rows: [(&str, ConfigEdit); 6] = [
            ("negative cpu_gap_threshold", |c| {
                c.drs.cpu_gap_threshold = -0.01
            }),
            ("NaN cpu_gap_threshold", |c| {
                c.drs.cpu_gap_threshold = f64::NAN
            }),
            ("zero mem_ceiling", |c| c.drs.mem_ceiling = 0.0),
            ("mem_ceiling above 1", |c| c.drs.mem_ceiling = 1.01),
            ("negative mem_ceiling", |c| c.drs.mem_ceiling = -0.5),
            ("NaN mem_ceiling", |c| c.drs.mem_ceiling = f64::NAN),
        ];
        assert_each_refused(&rows);
        let mut edge = SimConfig::smoke_test();
        edge.drs.cpu_gap_threshold = 0.0;
        edge.drs.mem_ceiling = 1.0;
        edge.validate()
            .expect("a zero threshold and a full ceiling are valid");
    }

    #[test]
    fn builder_rejects_what_validate_rejects() {
        let err = SimConfig::builder().days(0).build().expect_err("invalid");
        assert_eq!(err.to_string(), "invalid config: days must be at least 1");
        let err = SimConfig::smoke_test()
            .to_builder()
            .warmup_days(3)
            .build()
            .expect_err("invalid");
        assert!(err.to_string().contains("multiple of 7"));
    }

    #[test]
    fn region_replicas_validate_and_stay_off_the_wire() {
        let mut c = SimConfig::smoke_test();
        c.region_replicas = 3;
        assert!(c.validate().is_ok());

        let json = SimConfig::default().to_json_string();
        assert!(
            !json.contains("region_replicas"),
            "single-region configs must keep the pre-replica wire format: {json}"
        );
        let json = c.to_json_string();
        assert!(json.contains("\"region_replicas\":3"));
        let back: SimConfig = decode(&json).expect("deserializes");
        assert_eq!(back, c);

        let zero = SimConfig {
            region_replicas: 0,
            ..SimConfig::default()
        };
        assert!(zero.validate().is_err());
        let oversized = SimConfig {
            region_replicas: 4,
            scale: 10.0,
            ..SimConfig::default()
        };
        assert!(
            oversized.validate().is_err(),
            "replicas compose with per-region scale, not multi-region scale"
        );
        let too_many = SimConfig {
            region_replicas: 200,
            scale: 1.0,
            ..SimConfig::default()
        };
        assert!(too_many.validate().is_err(), "total estate stays capped");
    }

    #[test]
    fn smoke_test_config_is_tiny() {
        let c = SimConfig::smoke_test();
        assert!(c.scale <= 0.05);
        assert!(c.days <= 5);
        assert!(c.validate().is_ok());
    }
}
