//! The typed error surface of the simulator core.
//!
//! Everything a caller can get wrong when embedding the simulator — an
//! out-of-range config knob, a malformed fault spec, an inconsistent
//! topology, a failing observability sink — maps onto one [`SimError`]
//! variant, so `?` flows cleanly from `sapsim-faults` through
//! `sapsim-core` up into CLI and sweep layers without stringly-typed
//! plumbing. The enum is `Send + 'static` by construction, which is what
//! lets the sweep worker pool ship failures back over a channel.

use sapsim_faults::FaultError;
use std::fmt;

/// What went wrong while configuring or running a simulation.
///
/// Marked `#[non_exhaustive]`: embedders must keep a wildcard arm, so the
/// core can grow new failure classes without a breaking release. Every
/// variant's `Display` text is stable and covered by golden snapshots in
/// the integration suite.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SimError {
    /// A [`SimConfig`](crate::SimConfig) knob violates its documented
    /// range or cross-field invariant. The payload is the human-readable
    /// rule, e.g. `days must be at least 1`.
    InvalidConfig(String),
    /// The cloud topology or its resource accounting is inconsistent
    /// (a failed invariant, not a user mistake).
    Topology(String),
    /// The fault-injection spec is invalid or failed to parse.
    FaultPlan(FaultError),
    /// An observability sink (JSONL trace, Chrome trace, ...) could not
    /// be configured or written.
    ObsSink(String),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::InvalidConfig(msg) => write!(f, "invalid config: {msg}"),
            SimError::Topology(msg) => write!(f, "topology invariant violated: {msg}"),
            SimError::FaultPlan(err) => write!(f, "invalid config: {err}"),
            SimError::ObsSink(msg) => write!(f, "observability sink error: {msg}"),
        }
    }
}

impl std::error::Error for SimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SimError::FaultPlan(err) => Some(err),
            _ => None,
        }
    }
}

impl From<FaultError> for SimError {
    fn from(err: FaultError) -> Self {
        SimError::FaultPlan(err)
    }
}

impl From<sapsim_obs::ObsError> for SimError {
    fn from(err: sapsim_obs::ObsError) -> Self {
        SimError::ObsSink(err.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_prefixed_per_variant() {
        assert_eq!(
            SimError::InvalidConfig("days must be at least 1".into()).to_string(),
            "invalid config: days must be at least 1"
        );
        assert_eq!(
            SimError::Topology("cpu leak".into()).to_string(),
            "topology invariant violated: cpu leak"
        );
        assert_eq!(
            SimError::ObsSink("cannot create trace.jsonl".into()).to_string(),
            "observability sink error: cannot create trace.jsonl"
        );
    }

    #[test]
    fn fault_errors_convert_and_keep_their_source() {
        let err: SimError =
            FaultError::InvalidSpec("faults: dropout rate must be >= 0".into()).into();
        assert_eq!(
            err.to_string(),
            "invalid config: faults: dropout rate must be >= 0"
        );
        let source = std::error::Error::source(&err).expect("fault errors carry a source");
        assert_eq!(source.to_string(), "faults: dropout rate must be >= 0");
    }
}
