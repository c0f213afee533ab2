//! CSV export of a recorded telemetry store.

use crate::anonymize::Anonymizer;
use crate::trace::CSV_HEADER;
use sapsim_telemetry::{MetricId, TsdbStore};
use std::io::{self, Write};

/// What an export produced.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WriteSummary {
    /// Data rows written (excluding the header).
    pub rows: u64,
    /// Distinct series exported.
    pub series: u64,
}

/// Streams the raw series of a [`TsdbStore`] to CSV.
///
/// Only *raw* series are exported — the daily rollups are derived data
/// that any consumer can recompute, and the published dataset likewise
/// ships raw samples. Entity names are anonymized when an `Anonymizer`
/// is supplied, mirroring the published dataset's consistent hashing.
#[derive(Debug)]
pub struct TraceWriter {
    anonymizer: Option<Anonymizer>,
}

impl TraceWriter {
    /// A writer that keeps entity names in the clear (for local debugging).
    pub fn plain() -> Self {
        TraceWriter { anonymizer: None }
    }

    /// A writer that consistently hashes entity names with `salt`.
    pub fn anonymized(salt: u64) -> Self {
        TraceWriter {
            anonymizer: Some(Anonymizer::new(salt)),
        }
    }

    /// Export every raw series of `store` to `out`, ordered by metric then
    /// entity then time (fully deterministic).
    pub fn write_store(&mut self, store: &TsdbStore, out: &mut dyn Write) -> io::Result<WriteSummary> {
        writeln!(out, "{CSV_HEADER}")?;
        let mut summary = WriteSummary::default();
        for metric in MetricId::ALL {
            for (entity, series) in store.series_of(metric) {
                summary.series += 1;
                let name = entity.to_string();
                let shown = match &mut self.anonymizer {
                    Some(a) => a.token(&name),
                    None => name,
                };
                for (t, v) in series.iter() {
                    writeln!(out, "{},{},{},{}", t.as_millis(), metric.name(), shown, v)?;
                    summary.rows += 1;
                }
            }
        }
        Ok(summary)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sapsim_sim::SimTime;
    use sapsim_telemetry::EntityRef;

    fn store_fixture() -> TsdbStore {
        let mut db = TsdbStore::new(30);
        db.record(
            MetricId::HostCpuReadyMs,
            EntityRef::Node(1),
            SimTime::from_secs(300),
            123.5,
        );
        db.record(
            MetricId::HostCpuReadyMs,
            EntityRef::Node(0),
            SimTime::from_secs(300),
            7.0,
        );
        db.record(
            MetricId::OsInstancesTotal,
            EntityRef::Region,
            SimTime::from_secs(30),
            42.0,
        );
        db
    }

    #[test]
    fn plain_export_is_deterministic_and_ordered() {
        let db = store_fixture();
        let mut out = Vec::new();
        let s = TraceWriter::plain().write_store(&db, &mut out).unwrap();
        assert_eq!(s.rows, 3);
        assert_eq!(s.series, 3);
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], CSV_HEADER);
        // Metric order follows Table 4; entities sorted within a metric.
        assert_eq!(
            lines[1],
            "300000,vrops_hostsystem_cpu_ready_milliseconds,node-0,7"
        );
        assert_eq!(
            lines[2],
            "300000,vrops_hostsystem_cpu_ready_milliseconds,node-1,123.5"
        );
        assert_eq!(lines[3], "30000,openstack_compute_instances_total,region,42");
    }

    #[test]
    fn anonymized_export_hides_but_distinguishes_entities() {
        let db = store_fixture();
        let mut out = Vec::new();
        TraceWriter::anonymized(99)
            .write_store(&db, &mut out)
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(!text.contains("node-0,"), "plain names must not leak");
        assert!(!text.contains("node-1,"));
        // Two node rows carry different tokens.
        let tokens: Vec<&str> = text
            .lines()
            .skip(1)
            .take(2)
            .map(|l| l.split(',').nth(2).unwrap())
            .collect();
        assert_ne!(tokens[0], tokens[1]);
        assert_eq!(tokens[0].len(), 16);
    }

    #[test]
    fn empty_store_writes_header_only() {
        let db = TsdbStore::new(30);
        let mut out = Vec::new();
        let s = TraceWriter::plain().write_store(&db, &mut out).unwrap();
        assert_eq!(s.rows, 0);
        assert_eq!(String::from_utf8(out).unwrap().trim(), CSV_HEADER);
    }
}
