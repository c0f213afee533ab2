//! The schema registry: every versioned JSON line the workspace emits.
//!
//! A schema id is the `"schema"` field of an envelope —
//! `"sapsim.run-summary/v1"` and friends. Before this crate each emitter
//! carried its own string constant; the registry makes the set closed and
//! the spelling single-sourced, so a typo is a compile error and the
//! docs/goldens enumerate [`SchemaId::ALL`].

use crate::error::ProtocolError;
use std::fmt;
use std::str::FromStr;

/// Every schema the workspace reads or writes.
///
/// Marked `#[non_exhaustive]`: a `/v2` of any family, or a new family,
/// is an additive change for downstream matchers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[non_exhaustive]
pub enum SchemaId {
    /// `simulate --json`: one run's headline results.
    RunSummaryV1,
    /// `sweep --json`: the scenario-grid comparison report.
    SweepReportV1,
    /// `--metrics-out` / `--metrics-dir`: an engine-health registry
    /// snapshot.
    MetricsV1,
    /// The placement-service request/response envelope.
    ApiV1,
}

impl SchemaId {
    /// Every registered schema, in a stable order (documentation and
    /// golden tests iterate this).
    pub const ALL: [SchemaId; 4] = [
        SchemaId::RunSummaryV1,
        SchemaId::SweepReportV1,
        SchemaId::MetricsV1,
        SchemaId::ApiV1,
    ];

    /// The wire spelling of this schema id.
    pub const fn as_str(self) -> &'static str {
        match self {
            SchemaId::RunSummaryV1 => "sapsim.run-summary/v1",
            SchemaId::SweepReportV1 => "sapsim.sweep-report/v1",
            SchemaId::MetricsV1 => sapsim_obs::METRICS_SCHEMA,
            SchemaId::ApiV1 => "sapsim.api/v1",
        }
    }
}

impl fmt::Display for SchemaId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl FromStr for SchemaId {
    type Err = ProtocolError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        SchemaId::ALL
            .into_iter()
            .find(|id| id.as_str() == s)
            .ok_or_else(|| ProtocolError::UnknownSchema(format!("unknown schema `{s}`")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_spellings_are_pinned() {
        assert_eq!(SchemaId::RunSummaryV1.as_str(), "sapsim.run-summary/v1");
        assert_eq!(SchemaId::SweepReportV1.as_str(), "sapsim.sweep-report/v1");
        assert_eq!(SchemaId::MetricsV1.as_str(), "sapsim.metrics/v1");
        assert_eq!(SchemaId::ApiV1.as_str(), "sapsim.api/v1");
    }

    #[test]
    fn from_str_round_trips_every_member() {
        for id in SchemaId::ALL {
            assert_eq!(id.as_str().parse::<SchemaId>().unwrap(), id);
            assert_eq!(id.to_string(), id.as_str());
        }
        let err = "sapsim.bogus/v9".parse::<SchemaId>().unwrap_err();
        assert_eq!(err.code(), "unknown-schema");
    }
}
