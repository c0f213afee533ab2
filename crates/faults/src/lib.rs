//! # sapsim-faults — deterministic fault injection
//!
//! The paper is a *reality check*: the production fleet it measures lives
//! with abrupt host outages, degraded ("straggler") hypervisors, and gaps
//! in the vROps / `openstack_compute` telemetry. This crate models all
//! three as a **pre-computed, seeded plan** rather than as ad-hoc draws
//! inside the event loop:
//!
//! * [`FaultSpec`] — the user-facing knobs (rates, durations, retry
//!   policy). It is plain data, `Copy`, and serializable, so it can live
//!   inside `SimConfig` and inside `RunResult::canonical_bytes()`.
//! * [`FaultPlan`] — the expansion of a spec against a concrete fleet:
//!   *which* node fails *when*, which nodes run degraded, and which
//!   scrape windows are dropped. The plan is generated once, before the
//!   event loop starts, from an RNG stream split off the root seed under
//!   the `"faults"` label — so it is independent of the workload,
//!   scheduler, and maintenance streams (enabling faults never perturbs
//!   what the workload generator draws), and each fault *kind* has its
//!   own child stream (enabling dropouts never moves host failures).
//!
//! Determinism contract: `FaultPlan::generate` with [`FaultSpec::none`]
//! returns an empty plan without consuming any randomness, and an empty
//! plan is a behavioural no-op for the driver. With any non-empty plan,
//! the same seed yields byte-identical results at any thread count,
//! because all fault handling happens in the sequential event-loop phase.

use sapsim_json::json_codec;
use sapsim_sim::{SimDuration, SimRng, SimTime, MILLIS_PER_DAY, MILLIS_PER_HOUR};
use std::fmt;

/// How often a pending evacuation's retry backoff doubles before it
/// stays flat: retry `k` waits `evac_retry_backoff_secs << min(k, this)`.
pub const EVAC_BACKOFF_MAX_DOUBLINGS: u32 = 10;

/// Largest `evac_retry_backoff_secs`: fully doubled, it still fits in the
/// clock's `u64` milliseconds.
const MAX_BACKOFF_SECS: u64 = u64::MAX / (1_000 << EVAC_BACKOFF_MAX_DOUBLINGS);

/// Largest downtime or dropout length: its milliseconds reach half of the
/// clock's `u64`, which leaves the event time it is added to the other
/// half.
const MAX_HOURS: f64 = (u64::MAX / 2 / MILLIS_PER_HOUR) as f64;

/// What went wrong while validating or parsing a [`FaultSpec`].
///
/// Every variant carries the full human-readable message (already prefixed
/// with `faults:`), so `Display` needs no reassembly and the texts match
/// the pre-typed-error era byte for byte. Marked `#[non_exhaustive]` so
/// new fault kinds can add variants without a breaking release.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum FaultError {
    /// A knob is outside its documented range.
    InvalidSpec(String),
    /// An inline `key=value,...` spec (the `--faults` shorthand) failed
    /// to parse.
    InlineSyntax(String),
    /// A JSON spec body failed to deserialize.
    JsonSyntax(String),
}

impl fmt::Display for FaultError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultError::InvalidSpec(msg)
            | FaultError::InlineSyntax(msg)
            | FaultError::JsonSyntax(msg) => f.write_str(msg),
        }
    }
}

impl std::error::Error for FaultError {}

/// User-facing fault-injection parameters.
///
/// All rates are *expected events per node per 30 days* over the
/// observation window, mirroring `maintenance_rate_per_month` in the
/// simulation config. The default value ([`FaultSpec::none`]) disables
/// every fault kind and is serialized as an absent field, so configs
/// written before the fault layer existed round-trip unchanged.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultSpec {
    /// Expected abrupt host failures per node per 30 days (0 disables).
    pub host_fail_rate_per_month: f64,
    /// How long a failed host stays down before rejoining the fleet.
    /// `0` means the host never recovers within the run.
    pub host_downtime_hours: f64,
    /// Fraction of nodes that run as stragglers for the whole run
    /// (0 disables).
    pub straggler_fraction: f64,
    /// Effective pCPU throughput factor of a straggler node, in `(0, 1]`.
    /// Lower values inflate CPU-ready for resident VMs.
    pub straggler_slowdown: f64,
    /// Expected telemetry dropout windows per node per 30 days
    /// (0 disables).
    pub dropout_rate_per_month: f64,
    /// Length of one telemetry dropout window.
    pub dropout_duration_hours: f64,
    /// How many *re*-attempts a pending evacuation gets after the initial
    /// failed re-placement before the VM is declared lost.
    pub evac_retry_limit: u32,
    /// Base delay before the first evacuation retry; each further retry
    /// doubles it (bounded exponential backoff).
    pub evac_retry_backoff_secs: u64,
}

json_codec!(struct FaultSpec: default {
    host_fail_rate_per_month, host_downtime_hours, straggler_fraction, straggler_slowdown,
    dropout_rate_per_month, dropout_duration_hours, evac_retry_limit, evac_retry_backoff_secs,
});

impl Default for FaultSpec {
    fn default() -> Self {
        FaultSpec::none()
    }
}

impl FaultSpec {
    /// The empty spec: every fault kind disabled, retry/duration knobs at
    /// their documented defaults. Behavioural no-op for the driver.
    pub const fn none() -> Self {
        FaultSpec {
            host_fail_rate_per_month: 0.0,
            host_downtime_hours: 24.0,
            straggler_fraction: 0.0,
            straggler_slowdown: 0.7,
            dropout_rate_per_month: 0.0,
            dropout_duration_hours: 6.0,
            evac_retry_limit: 3,
            evac_retry_backoff_secs: 300,
        }
    }

    /// True when every fault kind is disabled (rates all zero), i.e. the
    /// expanded plan is guaranteed empty. An empty spec is left out of a
    /// serialized config, so pre-fault output stays byte-identical.
    pub fn is_none(&self) -> bool {
        self.host_fail_rate_per_month == 0.0
            && self.straggler_fraction == 0.0
            && self.dropout_rate_per_month == 0.0
    }

    /// Validate the knobs, mirroring `SimConfig::validate`.
    pub fn validate(&self) -> Result<(), FaultError> {
        let invalid = |msg: &str| Err(FaultError::InvalidSpec(msg.into()));
        let too_long = |what: &str| {
            invalid(&format!("faults: {what} must be at most {MAX_HOURS} hours"))
        };
        if !self.host_fail_rate_per_month.is_finite() || self.host_fail_rate_per_month < 0.0 {
            return invalid("faults: host failure rate must be >= 0");
        }
        if !self.host_downtime_hours.is_finite() || self.host_downtime_hours < 0.0 {
            return invalid("faults: host downtime must be >= 0 hours");
        }
        if self.host_downtime_hours > MAX_HOURS {
            return too_long("host downtime");
        }
        if !(0.0..=1.0).contains(&self.straggler_fraction) {
            return invalid("faults: straggler fraction must be in [0, 1]");
        }
        if !(self.straggler_slowdown > 0.0 && self.straggler_slowdown <= 1.0) {
            return invalid("faults: straggler slowdown must be in (0, 1]");
        }
        if !self.dropout_rate_per_month.is_finite() || self.dropout_rate_per_month < 0.0 {
            return invalid("faults: dropout rate must be >= 0");
        }
        if self.dropout_rate_per_month > 0.0
            && (!self.dropout_duration_hours.is_finite() || self.dropout_duration_hours <= 0.0)
        {
            return invalid("faults: dropout duration must be positive");
        }
        if self.dropout_duration_hours > MAX_HOURS {
            return too_long("dropout duration");
        }
        if self.host_fail_rate_per_month > 0.0 && self.evac_retry_backoff_secs == 0 {
            return invalid("faults: evacuation retry backoff must be positive");
        }
        if self.evac_retry_backoff_secs > MAX_BACKOFF_SECS {
            return invalid(&format!(
                "faults: evacuation retry backoff must be at most {MAX_BACKOFF_SECS} seconds"
            ));
        }
        Ok(())
    }

    /// Parse an inline `key=value,key=value` spec, the `--faults` CLI
    /// shorthand. Keys: `fail` (failures/node/month), `downtime` (hours),
    /// `straggler` (fraction), `slowdown` (throughput factor), `dropout`
    /// (windows/node/month), `dropout-hours`, `retries`, `backoff`
    /// (seconds). Unknown keys are rejected.
    pub fn parse_inline(text: &str) -> Result<Self, FaultError> {
        let mut spec = FaultSpec::none();
        for part in text.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let (key, value) = part.split_once('=').ok_or_else(|| {
                FaultError::InlineSyntax(format!("faults: expected key=value, got `{part}`"))
            })?;
            let fval = || -> Result<f64, FaultError> {
                value.parse::<f64>().map_err(|_| {
                    FaultError::InlineSyntax(format!(
                        "faults: `{key}` wants a number, got `{value}`"
                    ))
                })
            };
            match key.trim() {
                "fail" => spec.host_fail_rate_per_month = fval()?,
                "downtime" => spec.host_downtime_hours = fval()?,
                "straggler" => spec.straggler_fraction = fval()?,
                "slowdown" => spec.straggler_slowdown = fval()?,
                "dropout" => spec.dropout_rate_per_month = fval()?,
                "dropout-hours" => spec.dropout_duration_hours = fval()?,
                "retries" => {
                    spec.evac_retry_limit = value.parse::<u32>().map_err(|_| {
                        FaultError::InlineSyntax(format!(
                            "faults: `retries` wants an integer, got `{value}`"
                        ))
                    })?
                }
                "backoff" => {
                    spec.evac_retry_backoff_secs = value.parse::<u64>().map_err(|_| {
                        FaultError::InlineSyntax(format!(
                            "faults: `backoff` wants seconds, got `{value}`"
                        ))
                    })?
                }
                other => {
                    return Err(FaultError::InlineSyntax(format!(
                        "faults: unknown key `{other}`"
                    )))
                }
            }
        }
        spec.validate()?;
        Ok(spec)
    }

    /// The inline `key=value` spelling of this spec: only keys that
    /// differ from [`FaultSpec::none`] are emitted, in the documented
    /// key order, so `none()` displays as the empty string and every
    /// spec round-trips through [`FaultSpec::parse_inline`].
    fn inline_spec(&self) -> String {
        let base = FaultSpec::none();
        let mut parts: Vec<String> = Vec::new();
        if self.host_fail_rate_per_month != base.host_fail_rate_per_month {
            parts.push(format!("fail={}", self.host_fail_rate_per_month));
        }
        if self.host_downtime_hours != base.host_downtime_hours {
            parts.push(format!("downtime={}", self.host_downtime_hours));
        }
        if self.straggler_fraction != base.straggler_fraction {
            parts.push(format!("straggler={}", self.straggler_fraction));
        }
        if self.straggler_slowdown != base.straggler_slowdown {
            parts.push(format!("slowdown={}", self.straggler_slowdown));
        }
        if self.dropout_rate_per_month != base.dropout_rate_per_month {
            parts.push(format!("dropout={}", self.dropout_rate_per_month));
        }
        if self.dropout_duration_hours != base.dropout_duration_hours {
            parts.push(format!("dropout-hours={}", self.dropout_duration_hours));
        }
        if self.evac_retry_limit != base.evac_retry_limit {
            parts.push(format!("retries={}", self.evac_retry_limit));
        }
        if self.evac_retry_backoff_secs != base.evac_retry_backoff_secs {
            parts.push(format!("backoff={}", self.evac_retry_backoff_secs));
        }
        parts.join(",")
    }

    /// Parse a JSON file body (the `--faults <FILE>` form). Absent fields
    /// fall back to [`FaultSpec::none`] defaults.
    pub fn from_json_str(text: &str) -> Result<Self, FaultError> {
        let spec: FaultSpec = sapsim_json::decode(text)
            .map_err(|e| FaultError::JsonSyntax(format!("faults: bad JSON spec: {e}")))?;
        spec.validate()?;
        Ok(spec)
    }
}

impl std::fmt::Display for FaultSpec {
    /// The inline `--faults` spelling (non-default keys only); the
    /// inverse of [`FromStr`], with `none()` rendering as `""`.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.inline_spec())
    }
}

impl std::str::FromStr for FaultSpec {
    type Err = FaultError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        FaultSpec::parse_inline(s)
    }
}

/// One planned abrupt host failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HostFailure {
    /// Dense node index (the driver converts to its `NodeId`).
    pub node: u32,
    /// When the host drops dead.
    pub at: SimTime,
    /// When it rejoins the fleet, or `None` if it never does.
    pub recover_at: Option<SimTime>,
}

/// One planned telemetry dropout window `[from, until)` for a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct DropoutWindow {
    /// First dropped instant.
    pub(crate) from: SimTime,
    /// First instant scraped again.
    pub(crate) until: SimTime,
}

/// The expansion of a [`FaultSpec`] against a concrete fleet: concrete
/// failure times, per-node throughput factors, and per-node dropout
/// windows. Generated once before the event loop; immutable afterwards.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// Planned host failures, in node order (at most one per node).
    pub host_failures: Vec<HostFailure>,
    /// Per-node pCPU throughput factor (1.0 = healthy). Empty when no
    /// stragglers were drawn — [`FaultPlan::throughput`] then reads 1.0.
    pub(crate) throughput: Vec<f64>,
    /// Per-node telemetry dropout windows. Empty when none were drawn.
    pub(crate) dropouts: Vec<Vec<DropoutWindow>>,
}

impl FaultPlan {
    /// The empty plan: injects nothing, costs nothing.
    pub(crate) fn none() -> Self {
        FaultPlan::default()
    }

    /// Expand `spec` against a fleet of `num_nodes` nodes observed over
    /// `[warmup, horizon]`.
    ///
    /// `root` is the *run root* RNG: the plan splits its own `"faults"`
    /// stream off it, and a child stream per fault kind, so the draws are
    /// independent of every other consumer of the root and of each other.
    /// With `spec.is_none()` no randomness is consumed at all.
    pub fn generate(
        spec: &FaultSpec,
        num_nodes: usize,
        warmup: SimTime,
        horizon: SimTime,
        root: &SimRng,
    ) -> FaultPlan {
        if spec.is_none() || num_nodes == 0 || horizon <= warmup {
            return FaultPlan::none();
        }
        let frng = root.split("faults");
        let obs_span_ms = (horizon - warmup).as_millis() as f64;
        let obs_months = obs_span_ms / MILLIS_PER_DAY as f64 / 30.0;
        let mut plan = FaultPlan::none();

        if spec.host_fail_rate_per_month > 0.0 {
            let mut rng = frng.split("host-fail");
            let prob = (spec.host_fail_rate_per_month * obs_months).clamp(0.0, 1.0);
            for node in 0..num_nodes as u32 {
                if !rng.bool(prob) {
                    continue;
                }
                // Same placement idiom as maintenance windows: keep the
                // failure inside the meat of the observation window.
                let frac: f64 = rng.range_f64(0.05, 0.85);
                let at = warmup + SimDuration::from_millis((obs_span_ms * frac) as u64);
                let recover_at = (spec.host_downtime_hours > 0.0).then(|| {
                    at + SimDuration::from_millis(
                        (spec.host_downtime_hours * MILLIS_PER_HOUR as f64) as u64,
                    )
                });
                plan.host_failures.push(HostFailure {
                    node,
                    at,
                    recover_at,
                });
            }
        }

        if spec.straggler_fraction > 0.0 {
            let mut rng = frng.split("straggler");
            let mut throughput = vec![1.0; num_nodes];
            let mut any = false;
            for t in throughput.iter_mut() {
                if rng.bool(spec.straggler_fraction) {
                    *t = spec.straggler_slowdown;
                    any = true;
                }
            }
            if any && spec.straggler_slowdown < 1.0 {
                plan.throughput = throughput;
            }
        }

        if spec.dropout_rate_per_month > 0.0 {
            let mut rng = frng.split("dropout");
            let prob = (spec.dropout_rate_per_month * obs_months).clamp(0.0, 1.0);
            let mut dropouts = vec![Vec::new(); num_nodes];
            let mut any = false;
            for windows in dropouts.iter_mut() {
                if !rng.bool(prob) {
                    continue;
                }
                let frac: f64 = rng.range_f64(0.0, 0.9);
                let from = warmup + SimDuration::from_millis((obs_span_ms * frac) as u64);
                let until = from
                    + SimDuration::from_millis(
                        (spec.dropout_duration_hours * MILLIS_PER_HOUR as f64) as u64,
                    );
                windows.push(DropoutWindow { from, until });
                any = true;
            }
            if any {
                plan.dropouts = dropouts;
            }
        }

        plan
    }

    /// The pCPU throughput factor of a node (1.0 when healthy or when the
    /// plan has no straggler table).
    #[inline]
    pub fn throughput(&self, node: usize) -> f64 {
        self.throughput.get(node).copied().unwrap_or(1.0)
    }

    /// Whether the node's telemetry is inside a dropout window at `now`.
    #[inline]
    pub fn is_dropped_out(&self, node: usize, now: SimTime) -> bool {
        match self.dropouts.get(node) {
            Some(windows) => windows.iter().any(|w| w.from <= now && now < w.until),
            None => false,
        }
    }

    /// Number of straggler nodes in the plan.
    pub fn straggler_count(&self) -> usize {
        self.throughput.iter().filter(|&&t| t < 1.0).count()
    }

    /// Number of planned failures that schedule a recovery (the rest stay
    /// down for the remainder of the run).
    pub fn recovery_count(&self) -> usize {
        self.host_failures
            .iter()
            .filter(|f| f.recover_at.is_some())
            .count()
    }

    /// Total number of telemetry dropout windows in the plan.
    pub fn dropout_window_count(&self) -> usize {
        self.dropouts.iter().map(Vec::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sapsim_json::ToJson;

    fn busy_spec() -> FaultSpec {
        FaultSpec {
            host_fail_rate_per_month: 6.0,
            host_downtime_hours: 12.0,
            straggler_fraction: 0.25,
            straggler_slowdown: 0.6,
            dropout_rate_per_month: 4.0,
            dropout_duration_hours: 6.0,
            ..FaultSpec::none()
        }
    }

    fn window() -> (SimTime, SimTime) {
        (SimTime::from_days(7), SimTime::from_days(37))
    }

    #[test]
    fn none_spec_expands_to_empty_plan() {
        let (warmup, horizon) = window();
        let root = SimRng::seed_from(1);
        let plan = FaultPlan::generate(&FaultSpec::none(), 64, warmup, horizon, &root);
        assert_eq!(plan, FaultPlan::none());
        assert_eq!(plan.throughput(0), 1.0);
        assert!(!plan.is_dropped_out(0, warmup));
    }

    #[test]
    fn generation_is_deterministic() {
        let (warmup, horizon) = window();
        let a = FaultPlan::generate(&busy_spec(), 200, warmup, horizon, &SimRng::seed_from(42));
        let b = FaultPlan::generate(&busy_spec(), 200, warmup, horizon, &SimRng::seed_from(42));
        assert_eq!(a, b);
        assert_ne!(
            a,
            FaultPlan::none(),
            "busy spec on 200 nodes should draw faults"
        );
        let c = FaultPlan::generate(&busy_spec(), 200, warmup, horizon, &SimRng::seed_from(43));
        assert_ne!(a, c, "different seeds should draw different plans");
    }

    #[test]
    fn fault_kind_streams_are_independent() {
        let (warmup, horizon) = window();
        let root = SimRng::seed_from(7);
        let only_fail = FaultSpec {
            straggler_fraction: 0.0,
            dropout_rate_per_month: 0.0,
            ..busy_spec()
        };
        let everything = busy_spec();
        let a = FaultPlan::generate(&only_fail, 200, warmup, horizon, &root);
        let b = FaultPlan::generate(&everything, 200, warmup, horizon, &root);
        assert_eq!(
            a.host_failures, b.host_failures,
            "enabling stragglers/dropouts must not move host failures"
        );
    }

    #[test]
    fn failures_fall_inside_the_observation_window() {
        let (warmup, horizon) = window();
        let plan = FaultPlan::generate(&busy_spec(), 300, warmup, horizon, &SimRng::seed_from(3));
        assert!(!plan.host_failures.is_empty());
        assert_eq!(plan.recovery_count(), plan.host_failures.len());
        for hf in &plan.host_failures {
            assert!(hf.at > warmup && hf.at < horizon);
            let recover = hf.recover_at.expect("12h downtime set");
            assert_eq!(recover, hf.at + SimDuration::from_hours(12));
        }
        for (node, windows) in plan.dropouts.iter().enumerate() {
            for w in windows {
                assert!(w.from >= warmup && w.until > w.from);
                assert!(plan.is_dropped_out(node, w.from));
                assert!(!plan.is_dropped_out(node, w.until));
            }
        }
    }

    #[test]
    fn inline_parsing_round_trips() {
        let spec = FaultSpec::parse_inline(
            "fail=2.5,downtime=6,straggler=0.1,slowdown=0.5,dropout=1,dropout-hours=3,retries=5,backoff=60",
        )
        .expect("valid spec");
        assert_eq!(spec.host_fail_rate_per_month, 2.5);
        assert_eq!(spec.host_downtime_hours, 6.0);
        assert_eq!(spec.straggler_fraction, 0.1);
        assert_eq!(spec.straggler_slowdown, 0.5);
        assert_eq!(spec.dropout_rate_per_month, 1.0);
        assert_eq!(spec.dropout_duration_hours, 3.0);
        assert_eq!(spec.evac_retry_limit, 5);
        assert_eq!(spec.evac_retry_backoff_secs, 60);
        assert!(FaultSpec::parse_inline("")
            .expect("empty is none")
            .is_none());
    }

    #[test]
    fn inline_parsing_rejects_bad_input() {
        assert!(FaultSpec::parse_inline("fail").is_err());
        assert!(FaultSpec::parse_inline("bogus=1").is_err());
        assert!(FaultSpec::parse_inline("fail=lots").is_err());
        assert!(FaultSpec::parse_inline("fail=-1").is_err());
        assert!(FaultSpec::parse_inline("slowdown=0").is_err());
        assert!(FaultSpec::parse_inline("straggler=2").is_err());
    }

    #[test]
    fn json_parsing_fills_defaults() {
        let spec = FaultSpec::from_json_str(r#"{"host_fail_rate_per_month": 1.5}"#).expect("valid");
        assert_eq!(spec.host_fail_rate_per_month, 1.5);
        assert_eq!(spec.evac_retry_limit, FaultSpec::none().evac_retry_limit);
        assert!(FaultSpec::from_json_str("not json").is_err());
        assert!(FaultSpec::from_json_str(r#"{"straggler_fraction": 7.0}"#).is_err());
        assert!(FaultSpec::from_json_str(r#"{"evac_retry_limit": 1.5}"#).is_err());
    }

    #[test]
    fn json_round_trips_every_knob() {
        let spec = FaultSpec {
            host_fail_rate_per_month: 1.5,
            host_downtime_hours: 0.0,
            straggler_fraction: 0.25,
            straggler_slowdown: 0.5,
            dropout_rate_per_month: 3.0,
            dropout_duration_hours: 0.75,
            evac_retry_limit: 7,
            evac_retry_backoff_secs: 45,
        };
        let json = spec.to_json_string();
        assert_eq!(FaultSpec::from_json_str(&json), Ok(spec));
    }

    #[test]
    fn validation_rejects_nonsense() {
        let broken = [
            FaultSpec {
                host_fail_rate_per_month: -0.5,
                ..FaultSpec::none()
            },
            FaultSpec {
                straggler_fraction: 1.5,
                ..FaultSpec::none()
            },
            FaultSpec {
                straggler_slowdown: 0.0,
                ..FaultSpec::none()
            },
            FaultSpec {
                straggler_slowdown: 1.1,
                ..FaultSpec::none()
            },
            FaultSpec {
                dropout_rate_per_month: 2.0,
                dropout_duration_hours: 0.0,
                ..FaultSpec::none()
            },
            FaultSpec {
                host_fail_rate_per_month: 1.0,
                evac_retry_backoff_secs: 0,
                ..FaultSpec::none()
            },
            // Durations the millisecond clock cannot hold.
            FaultSpec {
                host_fail_rate_per_month: 30.0,
                evac_retry_backoff_secs: u64::MAX,
                ..FaultSpec::none()
            },
            FaultSpec {
                host_fail_rate_per_month: 30.0,
                host_downtime_hours: 1e300,
                ..FaultSpec::none()
            },
            FaultSpec {
                dropout_rate_per_month: 5.0,
                dropout_duration_hours: 1e300,
                ..FaultSpec::none()
            },
        ];
        for spec in broken {
            assert!(spec.validate().is_err(), "{spec:?} should be rejected");
        }
        assert!(FaultSpec::none().validate().is_ok());
        assert!(busy_spec().validate().is_ok());
    }
}
