//! CSV import: load a trace back into a queryable store.

use crate::trace::CSV_HEADER;
use sapsim_sim::SimTime;
use sapsim_telemetry::{EntityRef, MetricId, Subsystem, TsdbStore};
use std::collections::HashMap;
use std::io::{self, BufRead};

/// What an import consumed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReadSummary {
    /// Valid data rows loaded.
    pub rows: u64,
    /// Rows skipped as malformed or referencing unknown metrics.
    pub skipped: u64,
}

/// Streams a CSV trace into a [`TsdbStore`].
///
/// Entity tokens that match the simulator's own naming (`node-3`, `bb-1`,
/// `vm-7`, `region`) are parsed directly. Anonymized tokens (as in the
/// published dataset) are assigned fresh stable ids in the namespace
/// implied by the metric's subsystem — host metrics become nodes, VM
/// metrics become VMs — so consistent hashing survives the round trip and
/// every analysis keyed on entity identity still works.
#[derive(Debug, Default)]
pub struct TraceReader {
    token_map: HashMap<(Subsystem, String), EntityRef>,
    next_node: u32,
    next_vm: u64,
}

impl TraceReader {
    /// A fresh reader.
    pub fn new() -> Self {
        Self::default()
    }

    /// Read `input` into a new store whose rollup window is `days` days.
    /// Rows are buffered and sorted by `(metric, entity, time)` before
    /// insertion, so unsorted trace files load correctly. Each sample is
    /// recorded both raw and into the daily rollup.
    pub fn read_into_store(
        &mut self,
        input: &mut dyn BufRead,
        days: usize,
    ) -> io::Result<(TsdbStore, ReadSummary)> {
        let mut summary = ReadSummary::default();
        let mut rows: Vec<(MetricId, EntityRef, u64, f64)> = Vec::new();

        for (lineno, line) in input.lines().enumerate() {
            let line = line?;
            let trimmed = line.trim();
            if trimmed.is_empty() || (lineno == 0 && trimmed == CSV_HEADER) {
                continue;
            }
            match self.parse_row(trimmed) {
                Some(row) => {
                    rows.push(row);
                    summary.rows += 1;
                }
                None => summary.skipped += 1,
            }
        }

        rows.sort_by_key(|a| (a.0, a.1, a.2));
        let mut store = TsdbStore::new(days);
        for (metric, entity, ts, value) in rows {
            let t = SimTime::from_millis(ts);
            store.record(metric, entity, t, value);
            store.record_rolled(metric, entity, t, value);
        }
        Ok((store, summary))
    }

    fn parse_row(&mut self, line: &str) -> Option<(MetricId, EntityRef, u64, f64)> {
        let mut parts = line.splitn(4, ',');
        let ts: u64 = parts.next()?.parse().ok()?;
        let metric = MetricId::from_name(parts.next()?)?;
        let entity_token = parts.next()?;
        let value: f64 = parts.next()?.parse().ok()?;
        if !value.is_finite() {
            return None;
        }
        let entity = self.resolve_entity(metric, entity_token)?;
        Some((metric, entity, ts, value))
    }

    fn resolve_entity(&mut self, metric: MetricId, token: &str) -> Option<EntityRef> {
        // Native simulator naming first.
        if token == "region" {
            return Some(EntityRef::Region);
        }
        if let Some(n) = token.strip_prefix("node-").and_then(|s| s.parse().ok()) {
            return Some(EntityRef::Node(n));
        }
        if let Some(b) = token.strip_prefix("bb-").and_then(|s| s.parse().ok()) {
            return Some(EntityRef::Bb(b));
        }
        if let Some(v) = token.strip_prefix("vm-").and_then(|s| s.parse().ok()) {
            return Some(EntityRef::Vm(v));
        }
        // Anonymized token: allocate in the metric's namespace.
        let subsystem = metric.subsystem();
        if subsystem == Subsystem::Region {
            return Some(EntityRef::Region);
        }
        let key = (subsystem, token.to_string());
        if let Some(&e) = self.token_map.get(&key) {
            return Some(e);
        }
        let fresh = match subsystem {
            Subsystem::ComputeHost => {
                let e = EntityRef::Node(self.next_node);
                self.next_node += 1;
                e
            }
            Subsystem::Vm => {
                let e = EntityRef::Vm(self.next_vm);
                self.next_vm += 1;
                e
            }
            Subsystem::Region => unreachable!("handled above"),
        };
        self.token_map.insert(key, fresh);
        Some(fresh)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::writer::TraceWriter;
    use std::io::BufReader;

    #[test]
    fn round_trip_preserves_samples() {
        let mut db = TsdbStore::new(30);
        for i in 0..5u32 {
            for s in 0..10u64 {
                db.record(
                    MetricId::HostCpuContentionPct,
                    EntityRef::Node(i),
                    SimTime::from_secs(s * 300),
                    (i as f64) + (s as f64) / 10.0,
                );
            }
        }
        let mut csv = Vec::new();
        TraceWriter::plain().write_store(&db, &mut csv).unwrap();

        let (loaded, summary) = TraceReader::new()
            .read_into_store(&mut BufReader::new(&csv[..]), 30)
            .unwrap();
        assert_eq!(summary.rows, 50);
        assert_eq!(summary.skipped, 0);
        for i in 0..5u32 {
            let orig = db
                .series(MetricId::HostCpuContentionPct, EntityRef::Node(i))
                .unwrap();
            let got = loaded
                .series(MetricId::HostCpuContentionPct, EntityRef::Node(i))
                .unwrap();
            assert_eq!(orig, got);
        }
    }

    #[test]
    fn anonymized_round_trip_preserves_structure() {
        let mut db = TsdbStore::new(30);
        for i in 0..3u32 {
            db.record(
                MetricId::HostCpuReadyMs,
                EntityRef::Node(i),
                SimTime::from_secs(300),
                i as f64,
            );
        }
        let mut csv = Vec::new();
        TraceWriter::anonymized(5).write_store(&db, &mut csv).unwrap();
        let (loaded, summary) = TraceReader::new()
            .read_into_store(&mut BufReader::new(&csv[..]), 30)
            .unwrap();
        assert_eq!(summary.rows, 3);
        // Three distinct node series survive, values intact.
        let series = loaded.series_of(MetricId::HostCpuReadyMs);
        assert_eq!(series.len(), 3);
        let mut values: Vec<f64> = series
            .iter()
            .map(|(_, s)| s.values()[0])
            .collect();
        values.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(values, vec![0.0, 1.0, 2.0]);
    }

    #[test]
    fn unsorted_input_loads() {
        let csv = format!(
            "{CSV_HEADER}\n\
             600000,vrops_hostsystem_cpu_ready_milliseconds,node-0,2\n\
             300000,vrops_hostsystem_cpu_ready_milliseconds,node-0,1\n"
        );
        let (store, summary) = TraceReader::new()
            .read_into_store(&mut BufReader::new(csv.as_bytes()), 30)
            .unwrap();
        assert_eq!(summary.rows, 2);
        let s = store
            .series(MetricId::HostCpuReadyMs, EntityRef::Node(0))
            .unwrap();
        assert_eq!(s.values(), &[1.0, 2.0]);
    }

    #[test]
    fn malformed_rows_are_skipped_not_fatal() {
        let csv = format!(
            "{CSV_HEADER}\n\
             nonsense line\n\
             300000,not_a_metric,node-0,1\n\
             300000,vrops_hostsystem_cpu_ready_milliseconds,node-0,NaN\n\
             300000,vrops_hostsystem_cpu_ready_milliseconds,node-0,1.5\n\
             \n"
        );
        let (store, summary) = TraceReader::new()
            .read_into_store(&mut BufReader::new(csv.as_bytes()), 30)
            .unwrap();
        assert_eq!(summary.rows, 1);
        assert_eq!(summary.skipped, 3);
        assert_eq!(store.raw_sample_count(), 1);
    }

    #[test]
    fn rollups_are_populated_on_import() {
        let csv = format!(
            "{CSV_HEADER}\n\
             0,vrops_hostsystem_memory_usage_percentage,node-0,40\n\
             43200000,vrops_hostsystem_memory_usage_percentage,node-0,60\n"
        );
        let (store, _) = TraceReader::new()
            .read_into_store(&mut BufReader::new(csv.as_bytes()), 2)
            .unwrap();
        let r = store
            .rollup(MetricId::HostMemUsagePct, EntityRef::Node(0))
            .unwrap();
        assert_eq!(r.daily_means()[0], Some(50.0));
    }

    #[test]
    fn vm_metrics_allocate_in_vm_namespace() {
        let csv = format!(
            "{CSV_HEADER}\n\
             0,vrops_virtualmachine_cpu_usage_ratio,deadbeefdeadbeef,0.5\n\
             0,vrops_hostsystem_memory_usage_percentage,deadbeefdeadbeef,40\n"
        );
        let (store, _) = TraceReader::new()
            .read_into_store(&mut BufReader::new(csv.as_bytes()), 30)
            .unwrap();
        assert!(store
            .series(MetricId::VmCpuUsageRatio, EntityRef::Vm(0))
            .is_some());
        assert!(store
            .series(MetricId::HostMemUsagePct, EntityRef::Node(0))
            .is_some());
    }
}
