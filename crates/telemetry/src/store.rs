//! The in-memory time-series database.
//!
//! # Storage layout
//!
//! The store has two write paths with identical semantics:
//!
//! * **Dense tables** — when constructed via
//!   [`with_topology`](TsdbStore::with_topology), node-, building-block-,
//!   and region-scoped series live in flat `Vec`s indexed by
//!   `metric.index() * entity_count + entity_index`. Recording into a dense
//!   slot is a bounds check plus an indexed write: no hashing, no map
//!   rehashes, no per-sample allocation after the first touch of a slot.
//!   This is the path the simulator's scrape loop takes hundreds of millions
//!   of times per full-region run.
//! * **Dynamic map** — everything else (VM series, entities outside the
//!   pre-sized range, stores built with [`new`](TsdbStore::new) such as
//!   trace imports) falls back to a `BTreeMap<SeriesKey, _>`. A `BTreeMap`
//!   rather than a `HashMap` so that iteration — and therefore
//!   serialization — is deterministic.
//!
//! Which path a sample lands on is an internal detail: the query API
//! ([`series`](TsdbStore::series), [`rollup`](TsdbStore::rollup),
//! [`series_of`](TsdbStore::series_of), …) merges both views and behaves
//! identically for either construction.

use crate::metric::{EntityRef, MetricId};
use crate::rollup::DailyRollup;
use crate::series::TimeSeries;
use sapsim_json::json_codec;
use sapsim_sim::SimTime;
use std::collections::BTreeMap;

/// The identity of one series: `(metric, entity)` — equivalent to a
/// Prometheus metric name plus its label set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub(crate) struct SeriesKey {
    /// Which metric.
    pub(crate) metric: MetricId,
    /// Which entity it is recorded against.
    pub(crate) entity: EntityRef,
}

json_codec!(struct SeriesKey { metric, entity });

impl SeriesKey {
    /// Construct a key.
    pub(crate) fn new(metric: MetricId, entity: EntityRef) -> Self {
        SeriesKey { metric, entity }
    }
}

/// Resolved dense position of a `(metric, entity)` pair.
enum Slot {
    Node(usize),
    Bb(usize),
    Region(usize),
}

/// An in-memory TSDB holding raw series and/or daily rollups.
///
/// Two storage modes per series, chosen by the recording side:
///
/// * [`record`](TsdbStore::record) keeps every raw sample — needed for
///   interval-resolution analyses (Figure 8's ready-time spikes, Figure 9's
///   contention percentiles).
/// * [`record_rolled`](TsdbStore::record_rolled) streams into a per-day
///   aggregate — sufficient for the daily-average heatmaps and far smaller.
///
/// Both may be used for the same key; they are independent views.
///
/// Construct with [`with_topology`](TsdbStore::with_topology) when the
/// entity population is known up front (the simulator does) to get dense,
/// allocation-free recording for host/building-block/region series; plain
/// [`new`](TsdbStore::new) keeps every series in the dynamic map, which is
/// what trace import wants when the entity universe is discovered on the
/// fly. See the module docs for the layout details.
#[derive(Debug, Default, Clone)]
pub struct TsdbStore {
    rollup_days: usize,
    /// Nodes covered by the dense tables; `Node(i)` with `i >= node_count`
    /// falls back to the dynamic map.
    node_count: usize,
    /// Building blocks covered by the dense tables.
    bb_count: usize,
    /// Row-major `[metric.index()][node_index]`, len `COUNT * node_count`.
    node_raw: Vec<Option<TimeSeries>>,
    node_rolled: Vec<Option<DailyRollup>>,
    /// Row-major `[metric.index()][bb_index]`, len `COUNT * bb_count`.
    bb_raw: Vec<Option<TimeSeries>>,
    bb_rolled: Vec<Option<DailyRollup>>,
    /// `[metric.index()]`, len `COUNT` when dense, empty when dynamic.
    region_raw: Vec<Option<TimeSeries>>,
    region_rolled: Vec<Option<DailyRollup>>,
    /// Fallback for VM series and anything outside the dense range.
    dyn_raw: BTreeMap<SeriesKey, TimeSeries>,
    dyn_rolled: BTreeMap<SeriesKey, DailyRollup>,
}

// The dynamic maps travel as `[key, value]` pair sequences: a `SeriesKey`
// is a record, which JSON cannot use as an object key, and `BTreeMap`
// iteration order makes the output deterministic.
json_codec!(struct TsdbStore {
    rollup_days, node_count, bb_count, node_raw, node_rolled, bb_raw, bb_rolled, region_raw,
    region_rolled, dyn_raw, dyn_rolled,
});

impl TsdbStore {
    /// A fully dynamic store whose rollups cover `rollup_days` days (the
    /// paper's observation window is 30). Every series lives in the
    /// fallback map; use [`with_topology`](TsdbStore::with_topology) for
    /// the dense write path.
    pub fn new(rollup_days: usize) -> Self {
        TsdbStore {
            rollup_days,
            ..TsdbStore::default()
        }
    }

    /// A store with dense tables pre-sized for `node_count` nodes and
    /// `bb_count` building blocks (plus the region singleton). Samples for
    /// `Node(i)` / `Bb(i)` within those bounds — and for `Region` — take
    /// the flat-`Vec` write path; everything else behaves exactly as in a
    /// [`new`](TsdbStore::new) store.
    pub fn with_topology(rollup_days: usize, node_count: usize, bb_count: usize) -> Self {
        TsdbStore {
            rollup_days,
            node_count,
            bb_count,
            node_raw: vec![None; MetricId::COUNT * node_count],
            node_rolled: vec![None; MetricId::COUNT * node_count],
            bb_raw: vec![None; MetricId::COUNT * bb_count],
            bb_rolled: vec![None; MetricId::COUNT * bb_count],
            region_raw: vec![None; MetricId::COUNT],
            region_rolled: vec![None; MetricId::COUNT],
            dyn_raw: BTreeMap::new(),
            dyn_rolled: BTreeMap::new(),
        }
    }

    /// The configured rollup window.
    pub fn rollup_days(&self) -> usize {
        self.rollup_days
    }

    /// Dense position for the pair, or `None` when it must use the
    /// dynamic map. The region tables double as the "is this store dense
    /// at all" flag: empty in [`new`](TsdbStore::new) stores.
    fn dense_slot(&self, metric: MetricId, entity: EntityRef) -> Option<Slot> {
        let m = metric.index();
        match entity {
            EntityRef::Node(i) if (i as usize) < self.node_count => {
                Some(Slot::Node(m * self.node_count + i as usize))
            }
            EntityRef::Bb(i) if (i as usize) < self.bb_count => {
                Some(Slot::Bb(m * self.bb_count + i as usize))
            }
            EntityRef::Region if !self.region_raw.is_empty() => Some(Slot::Region(m)),
            _ => None,
        }
    }

    /// Append a raw sample.
    pub fn record(&mut self, metric: MetricId, entity: EntityRef, time: SimTime, value: f64) {
        let slot = match self.dense_slot(metric, entity) {
            Some(Slot::Node(i)) => &mut self.node_raw[i],
            Some(Slot::Bb(i)) => &mut self.bb_raw[i],
            Some(Slot::Region(i)) => &mut self.region_raw[i],
            None => {
                self.dyn_raw
                    .entry(SeriesKey::new(metric, entity))
                    .or_default()
                    .push(time, value);
                return;
            }
        };
        slot.get_or_insert_with(TimeSeries::new).push(time, value);
    }

    /// Stream a sample into the daily rollup.
    pub fn record_rolled(
        &mut self,
        metric: MetricId,
        entity: EntityRef,
        time: SimTime,
        value: f64,
    ) {
        let days = self.rollup_days;
        let slot = match self.dense_slot(metric, entity) {
            Some(Slot::Node(i)) => &mut self.node_rolled[i],
            Some(Slot::Bb(i)) => &mut self.bb_rolled[i],
            Some(Slot::Region(i)) => &mut self.region_rolled[i],
            None => {
                self.dyn_rolled
                    .entry(SeriesKey::new(metric, entity))
                    .or_insert_with(|| DailyRollup::new(days))
                    .push(time, value);
                return;
            }
        };
        slot.get_or_insert_with(|| DailyRollup::new(days))
            .push(time, value);
    }

    /// Raw series for a key, if any samples were recorded.
    pub fn series(&self, metric: MetricId, entity: EntityRef) -> Option<&TimeSeries> {
        match self.dense_slot(metric, entity) {
            Some(Slot::Node(i)) => self.node_raw[i].as_ref(),
            Some(Slot::Bb(i)) => self.bb_raw[i].as_ref(),
            Some(Slot::Region(i)) => self.region_raw[i].as_ref(),
            None => self.dyn_raw.get(&SeriesKey::new(metric, entity)),
        }
    }

    /// Daily rollup for a key, if any samples were streamed.
    pub fn rollup(&self, metric: MetricId, entity: EntityRef) -> Option<&DailyRollup> {
        match self.dense_slot(metric, entity) {
            Some(Slot::Node(i)) => self.node_rolled[i].as_ref(),
            Some(Slot::Bb(i)) => self.bb_rolled[i].as_ref(),
            Some(Slot::Region(i)) => self.region_rolled[i].as_ref(),
            None => self.dyn_rolled.get(&SeriesKey::new(metric, entity)),
        }
    }

    /// All raw series of one metric, in deterministic (entity-sorted) order.
    pub fn series_of(&self, metric: MetricId) -> Vec<(EntityRef, &TimeSeries)> {
        let mut v = Vec::new();
        let m = metric.index();
        for i in 0..self.node_count {
            if let Some(s) = &self.node_raw[m * self.node_count + i] {
                v.push((EntityRef::Node(i as u32), s));
            }
        }
        for i in 0..self.bb_count {
            if let Some(s) = &self.bb_raw[m * self.bb_count + i] {
                v.push((EntityRef::Bb(i as u32), s));
            }
        }
        if let Some(s) = self.region_raw.get(m).and_then(Option::as_ref) {
            v.push((EntityRef::Region, s));
        }
        for (k, s) in &self.dyn_raw {
            if k.metric == metric {
                v.push((k.entity, s));
            }
        }
        v.sort_by_key(|(e, _)| *e);
        v
    }

    /// All rollups of one metric, in deterministic (entity-sorted) order.
    pub fn rollups_of(&self, metric: MetricId) -> Vec<(EntityRef, &DailyRollup)> {
        let mut v = Vec::new();
        let m = metric.index();
        for i in 0..self.node_count {
            if let Some(r) = &self.node_rolled[m * self.node_count + i] {
                v.push((EntityRef::Node(i as u32), r));
            }
        }
        for i in 0..self.bb_count {
            if let Some(r) = &self.bb_rolled[m * self.bb_count + i] {
                v.push((EntityRef::Bb(i as u32), r));
            }
        }
        if let Some(r) = self.region_rolled.get(m).and_then(Option::as_ref) {
            v.push((EntityRef::Region, r));
        }
        for (k, r) in &self.dyn_rolled {
            if k.metric == metric {
                v.push((k.entity, r));
            }
        }
        v.sort_by_key(|(e, _)| *e);
        v
    }

    /// Number of raw series.
    pub fn raw_series_count(&self) -> usize {
        self.node_raw.iter().flatten().count()
            + self.bb_raw.iter().flatten().count()
            + self.region_raw.iter().flatten().count()
            + self.dyn_raw.len()
    }

    /// Number of rolled series.
    pub fn rolled_series_count(&self) -> usize {
        self.node_rolled.iter().flatten().count()
            + self.bb_rolled.iter().flatten().count()
            + self.region_rolled.iter().flatten().count()
            + self.dyn_rolled.len()
    }

    /// Total raw samples across all series.
    pub fn raw_sample_count(&self) -> usize {
        self.node_raw
            .iter()
            .chain(&self.bb_raw)
            .chain(&self.region_raw)
            .flatten()
            .map(TimeSeries::len)
            .sum::<usize>()
            + self.dyn_raw.values().map(TimeSeries::len).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sapsim_json::ToJson;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn record_and_query_raw() {
        let mut db = TsdbStore::new(30);
        let e = EntityRef::Node(0);
        db.record(MetricId::HostCpuUtilPct, e, t(0), 50.0);
        db.record(MetricId::HostCpuUtilPct, e, t(300), 60.0);
        let s = db.series(MetricId::HostCpuUtilPct, e).unwrap();
        assert_eq!(s.len(), 2);
        assert_eq!(s.mean(), Some(55.0));
        assert!(db.series(MetricId::HostMemUsagePct, e).is_none());
    }

    #[test]
    fn rolled_recording_aggregates_by_day() {
        let mut db = TsdbStore::new(2);
        let e = EntityRef::Node(1);
        db.record_rolled(MetricId::HostMemUsagePct, e, t(100), 10.0);
        db.record_rolled(MetricId::HostMemUsagePct, e, t(200), 30.0);
        db.record_rolled(
            MetricId::HostMemUsagePct,
            e,
            SimTime::from_days(1) + sapsim_sim::SimDuration::from_secs(5),
            50.0,
        );
        let r = db.rollup(MetricId::HostMemUsagePct, e).unwrap();
        assert_eq!(r.daily_means(), vec![Some(20.0), Some(50.0)]);
    }

    #[test]
    fn series_of_is_sorted_and_filtered() {
        let mut db = TsdbStore::new(30);
        for i in [5u32, 1, 3] {
            db.record(MetricId::HostCpuReadyMs, EntityRef::Node(i), t(0), i as f64);
        }
        db.record(MetricId::HostMemUsagePct, EntityRef::Node(9), t(0), 1.0);
        let got: Vec<_> = db
            .series_of(MetricId::HostCpuReadyMs)
            .into_iter()
            .map(|(e, _)| e)
            .collect();
        assert_eq!(
            got,
            vec![EntityRef::Node(1), EntityRef::Node(3), EntityRef::Node(5)]
        );
    }

    #[test]
    fn raw_and_rolled_views_are_independent() {
        let mut db = TsdbStore::new(30);
        let e = EntityRef::Vm(7);
        db.record(MetricId::VmCpuUsageRatio, e, t(0), 0.5);
        assert!(db.rollup(MetricId::VmCpuUsageRatio, e).is_none());
        db.record_rolled(MetricId::VmCpuUsageRatio, e, t(0), 0.5);
        assert_eq!(db.raw_series_count(), 1);
        assert_eq!(db.rolled_series_count(), 1);
        assert_eq!(db.raw_sample_count(), 1);
    }

    #[test]
    fn counts() {
        let mut db = TsdbStore::new(30);
        for i in 0..10u32 {
            for s in 0..5u64 {
                db.record(
                    MetricId::HostCpuUtilPct,
                    EntityRef::Node(i),
                    t(s * 300),
                    0.0,
                );
            }
        }
        assert_eq!(db.raw_series_count(), 10);
        assert_eq!(db.raw_sample_count(), 50);
    }

    /// Replay the same recording script against a dynamic store and a
    /// dense (`with_topology`) store and require identical observable
    /// behavior from every query API.
    #[test]
    fn dense_and_dynamic_stores_are_observably_identical() {
        let mut dynamic = TsdbStore::new(3);
        let mut dense = TsdbStore::with_topology(3, 4, 2);
        let script: Vec<(MetricId, EntityRef, u64, f64)> = vec![
            (MetricId::HostCpuUtilPct, EntityRef::Node(0), 0, 10.0),
            (MetricId::HostCpuUtilPct, EntityRef::Node(3), 0, 20.0),
            (MetricId::HostCpuUtilPct, EntityRef::Node(7), 0, 30.0), // out of dense range
            (MetricId::OsVcpusUsed, EntityRef::Bb(1), 30, 64.0),
            (MetricId::OsInstancesTotal, EntityRef::Region, 30, 2.0),
            (MetricId::VmCpuUsageRatio, EntityRef::Vm(42), 300, 0.5),
            (MetricId::HostCpuUtilPct, EntityRef::Node(0), 300, 12.0),
        ];
        for &(m, e, s, v) in &script {
            dynamic.record(m, e, t(s), v);
            dense.record(m, e, t(s), v);
            dynamic.record_rolled(m, e, t(s), v);
            dense.record_rolled(m, e, t(s), v);
        }
        assert_eq!(dynamic.raw_series_count(), dense.raw_series_count());
        assert_eq!(dynamic.rolled_series_count(), dense.rolled_series_count());
        assert_eq!(dynamic.raw_sample_count(), dense.raw_sample_count());
        for m in MetricId::ALL {
            let a: Vec<_> = dynamic
                .series_of(m)
                .into_iter()
                .map(|(e, s)| (e, s.clone()))
                .collect();
            let b: Vec<_> = dense
                .series_of(m)
                .into_iter()
                .map(|(e, s)| (e, s.clone()))
                .collect();
            assert_eq!(a, b, "{m}");
            let ra: Vec<_> = dynamic
                .rollups_of(m)
                .into_iter()
                .map(|(e, r)| (e, r.clone()))
                .collect();
            let rb: Vec<_> = dense
                .rollups_of(m)
                .into_iter()
                .map(|(e, r)| (e, r.clone()))
                .collect();
            assert_eq!(ra, rb, "{m}");
        }
        for &(m, e, _, _) in &script {
            assert_eq!(dynamic.series(m, e), dense.series(m, e), "{m} {e}");
        }
    }

    #[test]
    fn out_of_range_entities_fall_back_to_dynamic() {
        let mut db = TsdbStore::with_topology(30, 2, 1);
        db.record(MetricId::HostCpuUtilPct, EntityRef::Node(1), t(0), 1.0);
        db.record(MetricId::HostCpuUtilPct, EntityRef::Node(2), t(0), 2.0);
        db.record(MetricId::HostCpuUtilPct, EntityRef::Node(1000), t(0), 3.0);
        assert_eq!(db.raw_series_count(), 3);
        let got: Vec<_> = db
            .series_of(MetricId::HostCpuUtilPct)
            .into_iter()
            .map(|(e, s)| (e, s.values()[0]))
            .collect();
        assert_eq!(
            got,
            vec![
                (EntityRef::Node(1), 1.0),
                (EntityRef::Node(2), 2.0),
                (EntityRef::Node(1000), 3.0),
            ]
        );
    }

    #[test]
    fn dense_store_json_roundtrips() {
        let mut db = TsdbStore::with_topology(2, 2, 1);
        db.record(MetricId::HostCpuUtilPct, EntityRef::Node(0), t(0), 1.0);
        db.record_rolled(MetricId::OsInstancesTotal, EntityRef::Region, t(86_400 + 30), 5.0);
        db.record(MetricId::VmCpuUsageRatio, EntityRef::Vm(9), t(0), 0.25);
        let json = db.to_json_string();
        let back: TsdbStore = sapsim_json::decode(&json).unwrap();
        assert_eq!(back.rollup_days(), 2);
        assert_eq!(back.raw_series_count(), db.raw_series_count());
        assert_eq!(
            back.series(MetricId::VmCpuUsageRatio, EntityRef::Vm(9))
                .unwrap()
                .values(),
            &[0.25]
        );
        assert_eq!(
            back.rollup(MetricId::OsInstancesTotal, EntityRef::Region)
                .unwrap()
                .daily_means(),
            vec![None, Some(5.0)]
        );
        // Serialization is deterministic: same store, same bytes.
        assert_eq!(json, db.to_json_string());
        assert_eq!(json, back.to_json_string());
    }
}
