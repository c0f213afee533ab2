//! Cross-run comparison artifacts.
//!
//! A [`SweepReport`] is the deterministic reduction of a sweep: one
//! [`ScenarioOutcome`] per expanded scenario, *in expansion order*, plus
//! renderers for the comparison table and the Table 1/2 delta view the
//! paper's comparative reading calls for. Serialization is single-line
//! JSON under a versioned schema so byte-equality across worker counts
//! is a meaningful assertion.

use crate::summary::RunSummary;
use crate::SweepError;
use sapsim_api::SchemaId;
use sapsim_json::{decode, json_codec, ToJson};
use std::fmt::Write as _;

/// Schema identifier embedded in every serialized [`SweepReport`] —
/// spelled by the `sapsim-api` schema registry ([`SchemaId::SweepReportV1`]).
pub const SWEEP_REPORT_SCHEMA: &str = SchemaId::SweepReportV1.as_str();

/// One scenario's contribution to a sweep report.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioOutcome {
    /// The scenario's report label (from [`SweepSpec::expand`]
    /// naming).
    ///
    /// [`SweepSpec::expand`]: sapsim_core::SweepSpec::expand
    pub name: String,
    /// The scenario's content address ([`Scenario::id`]).
    ///
    /// [`Scenario::id`]: sapsim_core::Scenario::id
    pub id: String,
    /// The run's machine-readable summary.
    pub summary: RunSummary,
}

json_codec!(struct ScenarioOutcome { name, id, summary });

/// The deterministic reduction of one sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepReport {
    /// Always [`SWEEP_REPORT_SCHEMA`]; rejected on mismatch when parsing.
    pub(crate) schema: String,
    /// Per-scenario outcomes in expansion order — never in completion
    /// order, which is what makes the report independent of the worker
    /// count.
    pub scenarios: Vec<ScenarioOutcome>,
}

json_codec!(struct SweepReport { schema, scenarios });

impl SweepReport {
    /// Assemble a report from outcomes already in expansion order.
    pub fn new(scenarios: Vec<ScenarioOutcome>) -> SweepReport {
        SweepReport {
            schema: SWEEP_REPORT_SCHEMA.to_string(),
            scenarios,
        }
    }

    /// Single-line JSON form — the sweep's canonical output bytes,
    /// routed through the registry's envelope check.
    pub fn to_json(&self) -> String {
        sapsim_api::envelope::checked_line(SchemaId::SweepReportV1, self.to_json_string())
    }

    /// Parse a serialized report, rejecting unknown schema versions.
    pub fn from_json_str(text: &str) -> Result<SweepReport, SweepError> {
        let report: SweepReport = decode(text)
            .map_err(|e| SweepError::Manifest(format!("bad sweep report: {e}")))?;
        if sapsim_api::envelope::expect_schema(&report.schema, SchemaId::SweepReportV1).is_err() {
            return Err(SweepError::Manifest(format!(
                "unsupported sweep-report schema `{}` (expected `{SWEEP_REPORT_SCHEMA}`)",
                report.schema
            )));
        }
        Ok(report)
    }

    /// The cross-run comparison table: one aligned row per scenario with
    /// the placement, fragmentation, contention, imbalance, and
    /// footprint columns the Section 7 ablations (`experiments/`) compare.
    pub(crate) fn comparison_table(&self) -> String {
        let width = self
            .scenarios
            .iter()
            .map(|s| s.name.len())
            .max()
            .unwrap_or(8)
            .max(8);
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<width$} {:>9} {:>10} {:>10} {:>10} {:>10} {:>10} {:>8} {:>17}",
            "scenario",
            "placed%",
            "retries/k",
            "peak-cont%",
            "mean-cont%",
            "imbalance",
            "migrations",
            "nodes",
            "hash"
        );
        for s in &self.scenarios {
            let stats = &s.summary.stats;
            let retries_per_k = if stats.placements_attempted > 0 {
                stats.placement_retries as f64 * 1000.0 / stats.placements_attempted as f64
            } else {
                0.0
            };
            let _ = writeln!(
                out,
                "{:<width$} {:>9.2} {:>10.2} {:>10.2} {:>10.3} {:>10.2} {:>10} {:>8} {:>17}",
                s.name,
                stats.placement_success_rate() * 100.0,
                retries_per_k,
                s.summary.peak_contention_pct,
                s.summary.peak_mean_contention_pct,
                s.summary.cpu_imbalance_pct,
                stats.drs_migrations + stats.cross_bb_migrations,
                s.summary.active_nodes,
                s.summary.canonical_hash,
            );
        }
        out
    }

    /// Per-scenario Table 1/2 and footprint deltas against the first
    /// scenario (the grid's baseline).
    pub(crate) fn delta_table(&self) -> String {
        let mut out = String::new();
        let Some(base) = self.scenarios.first() else {
            return out;
        };
        let _ = writeln!(out, "deltas vs baseline `{}`:", base.name);
        for s in self.scenarios.iter().skip(1) {
            let t1: Vec<String> = s
                .summary
                .table1_by_vcpu
                .iter()
                .zip(&base.summary.table1_by_vcpu)
                .map(|(a, b)| format!("{}{:+.1}", initial(&a.class), a.avg_vms - b.avg_vms))
                .collect();
            let t2: Vec<String> = s
                .summary
                .table2_by_ram
                .iter()
                .zip(&base.summary.table2_by_ram)
                .map(|(a, b)| format!("{}{:+.1}", initial(&a.class), a.avg_vms - b.avg_vms))
                .collect();
            let _ = writeln!(
                out,
                "  {:<24} T1[{}] T2[{}] nodes{:+}",
                s.name,
                t1.join(" "),
                t2.join(" "),
                s.summary.active_nodes as i64 - base.summary.active_nodes as i64,
            );
        }
        out
    }

    /// Human-readable report: header, comparison table, delta view, and
    /// per-scenario utilization bands.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "sweep report — {} scenarios", self.scenarios.len());
        out.push('\n');
        out.push_str(&self.comparison_table());
        if self.scenarios.len() > 1 {
            out.push('\n');
            out.push_str(&self.delta_table());
        }
        out.push('\n');
        let _ = writeln!(out, "utilization bands (under / optimal / over):");
        for s in &self.scenarios {
            for band in &s.summary.utilization {
                let _ = writeln!(
                    out,
                    "  {:<24} {:<6} {:>5.1}% / {:>5.1}% / {:>5.1}%  ({} VMs)",
                    s.name,
                    band.resource,
                    band.under * 100.0,
                    band.optimal * 100.0,
                    band.over * 100.0,
                    band.vms,
                );
            }
        }
        out
    }
}

/// First letter of a class label (`Extra Large` → `E`), for the compact
/// delta rows.
fn initial(label: &str) -> String {
    label.chars().next().map(String::from).unwrap_or_default()
}
