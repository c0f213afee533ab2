//! Engine-health metrics: a deterministic registry of counters, gauges,
//! and log-linear histograms.
//!
//! The registry answers "how is the engine itself behaving" — timing-wheel
//! occupancy, cache hit rates, pool utilization, events per second — the
//! way [`RunProfile`](crate::RunProfile) answers "where did the wall-clock
//! time go". Like the profile, a registry is observational only: nothing
//! in it may ever feed back into simulation state, and it is excluded from
//! canonical serializations.
//!
//! Two properties make snapshots mergeable across sweep cells without any
//! loss of bit-stability:
//!
//! * **Fixed bucket boundaries.** [`Histogram`] buckets are log-linear
//!   with power-of-two octaves split into [`HIST_SUB_BUCKETS`] linear
//!   sub-buckets — a pure function of the recorded value, never of the
//!   data distribution. Merging two histograms is element-wise addition,
//!   so `merge(a, b)` and `merge(b, a)` are byte-identical.
//! * **Ordered iteration.** All three families are `BTreeMap`s keyed by
//!   [`MetricKey`], so export order is a function of the keys alone.
//!
//! The JSON export ([`MetricsRegistry::to_json`]) is the versioned
//! `sapsim.metrics/v1` schema: one line, self-describing histogram bucket
//! upper bounds, stable field order. The registry reads it back through
//! [`FromJson`], which is how `sapsim obs metrics` merges snapshots.
//! [`MetricsRegistry::to_prometheus`] renders the same entries as a
//! Prometheus text page.

use crate::event::Name;
use sapsim_json::{json_codec, DecodeError, ErrorKind, FromJson, JsonValue, Keyed, ToJson};
use std::collections::BTreeMap;

/// The schema id of the metrics snapshot line.
pub const METRICS_SCHEMA: &str = "sapsim.metrics/v1";

/// Log-linear sub-bucket resolution: each power-of-two octave is split
/// into `2^HIST_SUB_BITS` linear sub-buckets.
pub const HIST_SUB_BITS: u32 = 2;

/// Number of linear sub-buckets per power-of-two octave.
pub const HIST_SUB_BUCKETS: usize = 1 << HIST_SUB_BITS;

/// Total number of histogram buckets: values `0..4` get exact buckets,
/// then 62 octaves × 4 sub-buckets cover the rest of the `u64` range
/// (exponents 2 through 63 inclusive), so the top bucket's inclusive
/// upper bound is exactly `u64::MAX`.
pub const HIST_BUCKETS: usize = ((64 - HIST_SUB_BITS as usize) << HIST_SUB_BITS) + HIST_SUB_BUCKETS;

/// The bucket a value falls into. Pure integer arithmetic on the value —
/// platform- and distribution-independent, which is what makes merged
/// histograms bit-stable.
pub const fn bucket_index(value: u64) -> usize {
    if value < (1 << HIST_SUB_BITS) {
        return value as usize;
    }
    let exp = 63 - value.leading_zeros();
    let sub = ((value >> (exp - HIST_SUB_BITS)) & ((1 << HIST_SUB_BITS) - 1)) as usize;
    (((exp - HIST_SUB_BITS + 1) as usize) << HIST_SUB_BITS) + sub
}

/// Inclusive upper bound of bucket `index` — the inverse of
/// [`bucket_index`]. The last bucket tops out at `u64::MAX`.
///
/// # Panics
/// If `index >= HIST_BUCKETS`.
pub const fn bucket_upper_bound(index: usize) -> u64 {
    assert!(index < HIST_BUCKETS);
    if index < HIST_SUB_BUCKETS {
        return index as u64;
    }
    let exp = (index >> HIST_SUB_BITS) as u32 + HIST_SUB_BITS - 1;
    let sub = (index & (HIST_SUB_BUCKETS - 1)) as u128;
    let ub = ((HIST_SUB_BUCKETS as u128 + sub + 1) << (exp - HIST_SUB_BITS)) - 1;
    if ub > u64::MAX as u128 {
        u64::MAX
    } else {
        ub as u64
    }
}

/// A log-linear histogram of `u64` observations with fixed power-of-two
/// bucket boundaries.
///
/// The counts vector is allocated lazily on the first observation and is
/// always full-width after that, so merging never reshapes anything.
/// `sum` saturates rather than wrapping: a saturated sum is equally
/// saturated on every platform, keeping merged exports deterministic.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Histogram {
    counts: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Record one observation.
    pub fn record(&mut self, value: u64) {
        if self.counts.is_empty() {
            self.counts = vec![0; HIST_BUCKETS];
        }
        self.counts[bucket_index(value)] += 1;
        if self.count == 0 || value < self.min {
            self.min = value;
        }
        if value > self.max {
            self.max = value;
        }
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
    }

    /// Fold `other` into `self` (element-wise bucket addition). Counts
    /// saturate rather than wrap: histograms are merged from
    /// file-supplied snapshots, and a saturated count is equally
    /// saturated on every platform.
    pub fn merge(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        if self.counts.is_empty() {
            self.counts = vec![0; HIST_BUCKETS];
        }
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine = mine.saturating_add(*theirs);
        }
        if self.count == 0 || other.min < self.min {
            self.min = other.min;
        }
        if other.max > self.max {
            self.max = other.max;
        }
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Saturating sum of observations.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest observation (0 when empty).
    pub fn min(&self) -> u64 {
        self.min
    }

    /// Largest observation (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean observation, `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }

    /// The bucket upper bound at or below which a `q` fraction of the
    /// observations fall (`q` clamped to `[0, 1]`); `None` when empty.
    /// Bucket-resolution, like a Prometheus `histogram_quantile`: the
    /// serve front end reports request-latency p50/p99 through this.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (ub, n) in self.buckets() {
            seen += n;
            if seen >= rank {
                return Some(ub);
            }
        }
        Some(self.max)
    }

    /// Non-empty buckets as `(inclusive upper bound, count)`, in bound
    /// order.
    pub fn buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(i, &n)| (bucket_upper_bound(i), n))
    }

    /// Rebuild a histogram from a parsed `sapsim.metrics/v1` snapshot:
    /// sparse `(inclusive upper bound, count)` entries plus the summary
    /// fields the export carries alongside them. Bounds produced by
    /// [`bucket_upper_bound`] map back to their own bucket exactly, so
    /// `from_parts(h.buckets(), h.sum(), h.min(), h.max())` reproduces
    /// `h`; a rebuilt snapshot then merges like any live histogram.
    pub fn from_parts(
        buckets: impl IntoIterator<Item = (u64, u64)>,
        sum: u64,
        min: u64,
        max: u64,
    ) -> Histogram {
        let mut h = Histogram::new();
        for (upper_bound, count) in buckets {
            if count == 0 {
                continue;
            }
            if h.counts.is_empty() {
                h.counts = vec![0; HIST_BUCKETS];
            }
            let idx = bucket_index(upper_bound);
            h.counts[idx] = h.counts[idx].saturating_add(count);
            h.count = h.count.saturating_add(count);
        }
        if h.count > 0 {
            h.sum = sum;
            h.min = min;
            h.max = max;
        }
        h
    }
}

/// One metric's identity: a name plus at most one label pair (e.g.
/// `("region", "r01")`, `("phase", "scrape")`, `("worker", "3")`). The
/// simulator names metrics statically; a key read from a snapshot owns
/// its strings.
///
/// Ordered by name then label, which fixes the export order.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct MetricKey {
    /// Metric name (snake-case by convention).
    pub name: Name,
    /// Optional `(label name, label value)` breakdown.
    pub label: Option<(Name, String)>,
}

impl MetricKey {
    /// An unlabeled key.
    pub fn plain(name: &'static str) -> Self {
        MetricKey {
            name: name.into(),
            label: None,
        }
    }

    /// A labeled key.
    pub fn labeled(name: &'static str, key: &'static str, value: impl Into<String>) -> Self {
        MetricKey {
            name: name.into(),
            label: Some((key.into(), value.into())),
        }
    }

    /// This key's members of a snapshot entry.
    fn wire(&self) -> (Name, Option<Keyed<(Name, String)>>) {
        (self.name.clone(), self.label.clone().map(Keyed))
    }

    fn from_wire(name: Name, label: Option<Keyed<(Name, String)>>) -> Self {
        MetricKey {
            name,
            label: label.map(|Keyed(pair)| pair),
        }
    }
}

/// A named value, optionally labeled: a `counters` or `gauges` entry of
/// a `sapsim.metrics/v1` snapshot, and the JSONL log's `counter` line.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample<V> {
    /// Metric name.
    pub name: Name,
    /// Optional `{"<label name>":"<label value>"}` breakdown.
    pub label: Option<Keyed<(Name, String)>>,
    /// The value.
    pub value: V,
}

impl<V> Sample<V> {
    pub(crate) fn new(key: &MetricKey, value: V) -> Self {
        let (name, label) = key.wire();
        Sample { name, label, value }
    }
}

json_codec!(struct Sample<u64> { name, #[default] label: Option::is_none, value });
json_codec!(struct Sample<f64> { name, #[default] label: Option::is_none, value });

/// A `histograms` entry: the summary fields, then the non-empty buckets
/// as `[inclusive upper bound, count]`.
#[derive(Debug)]
struct HistogramSample {
    name: Name,
    label: Option<Keyed<(Name, String)>>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
    buckets: Vec<(u64, u64)>,
}

json_codec!(struct HistogramSample {
    name, #[default] label: Option::is_none, count, sum, min, max, buckets,
});

impl HistogramSample {
    /// The histogram this entry describes, or the rule it breaks: every
    /// bound is canonical (any other would land, silently, in the wrong
    /// bucket) and the buckets add up to `count`.
    fn histogram(&self) -> Result<Histogram, DecodeError> {
        let invalid = |rule: String| Err(ErrorKind::Invalid(rule).into());
        let buckets = self.buckets.iter().copied();
        let canonical = |&(bound, _): &(u64, u64)| bound == bucket_upper_bound(bucket_index(bound));
        if let Some((bound, _)) = buckets.clone().find(|b| !canonical(b)) {
            return invalid(format!(
                "bucket bound {bound} is not a canonical bucket boundary"
            ));
        }
        let hist = Histogram::from_parts(buckets, self.sum, self.min, self.max);
        if hist.count() != self.count {
            return invalid("bucket counts do not add up to count".to_string());
        }
        Ok(hist)
    }
}

/// The `sapsim.metrics/v1` line. A missing family reads as empty.
#[derive(Debug)]
struct Snapshot {
    schema: Name,
    counters: Vec<Sample<u64>>,
    gauges: Vec<Sample<f64>>,
    histograms: Vec<HistogramSample>,
}

json_codec!(struct Snapshot {
    schema, #[default] counters, #[default] gauges, #[default] histograms,
});

/// A deterministic registry of counters, gauges, and histograms.
///
/// Purely observational: nothing read out of a registry may feed back
/// into simulation state, and registries never appear in canonical
/// serializations. All iteration orders are fixed by the key ordering.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsRegistry {
    counters: BTreeMap<MetricKey, u64>,
    gauges: BTreeMap<MetricKey, f64>,
    histograms: BTreeMap<MetricKey, Histogram>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Total number of recorded series (counters + gauges + histograms).
    pub fn len(&self) -> usize {
        self.counters.len() + self.gauges.len() + self.histograms.len()
    }

    /// Add `delta` to the named monotonic counter.
    pub fn counter(&mut self, name: &'static str, delta: u64) {
        *self.counters.entry(MetricKey::plain(name)).or_insert(0) += delta;
    }

    /// Add `delta` to a labeled counter breakdown.
    pub fn counter_with(&mut self, name: &'static str, key: &'static str, value: &str, delta: u64) {
        *self
            .counters
            .entry(MetricKey::labeled(name, key, value))
            .or_insert(0) += delta;
    }

    /// Set the named gauge to its latest value.
    pub fn gauge(&mut self, name: &'static str, value: f64) {
        self.gauges.insert(MetricKey::plain(name), value);
    }

    /// Set a labeled gauge breakdown.
    pub fn gauge_with(&mut self, name: &'static str, key: &'static str, value: &str, v: f64) {
        self.gauges.insert(MetricKey::labeled(name, key, value), v);
    }

    /// Record one observation into the named histogram.
    pub fn observe(&mut self, name: &'static str, value: u64) {
        self.histograms
            .entry(MetricKey::plain(name))
            .or_default()
            .record(value);
    }

    /// Record one observation into a labeled histogram breakdown.
    pub fn observe_with(&mut self, name: &'static str, key: &'static str, label: &str, value: u64) {
        self.histograms
            .entry(MetricKey::labeled(name, key, label))
            .or_default()
            .record(value);
    }

    /// Counter entries in key order.
    pub fn counters(&self) -> impl Iterator<Item = (&MetricKey, u64)> {
        self.counters.iter().map(|(k, &v)| (k, v))
    }

    /// Gauge entries in key order.
    pub fn gauges(&self) -> impl Iterator<Item = (&MetricKey, f64)> {
        self.gauges.iter().map(|(k, &v)| (k, v))
    }

    /// Histogram entries in key order.
    pub fn histograms(&self) -> impl Iterator<Item = (&MetricKey, &Histogram)> {
        self.histograms.iter()
    }

    /// One counter's value, unlabeled.
    pub fn counter_value(&self, name: &'static str) -> Option<u64> {
        self.counters.get(&MetricKey::plain(name)).copied()
    }

    /// One gauge's value, unlabeled.
    pub fn gauge_value(&self, name: &'static str) -> Option<f64> {
        self.gauges.get(&MetricKey::plain(name)).copied()
    }

    /// One histogram, unlabeled.
    pub fn histogram(&self, name: &'static str) -> Option<&Histogram> {
        self.histograms.get(&MetricKey::plain(name))
    }

    /// Fold `other` into `self`: counters add, gauges take `other`'s
    /// value (last-writer-wins, matching gauge semantics), histograms
    /// merge bucket-wise. Because the bucket boundaries are fixed, merge
    /// order cannot change the exported bytes of the counters or
    /// histograms.
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (key, &value) in &other.counters {
            self.add_counter(key.clone(), value);
        }
        for (key, &value) in &other.gauges {
            self.gauges.insert(key.clone(), value);
        }
        for (key, hist) in &other.histograms {
            self.histograms.entry(key.clone()).or_default().merge(hist);
        }
    }

    /// Add `value` to the counter at `key`, saturating rather than
    /// wrapping: how counts read from files (snapshots, logs) fold.
    pub fn add_counter(&mut self, key: MetricKey, value: u64) {
        let slot = self.counters.entry(key).or_insert(0);
        *slot = slot.saturating_add(value);
    }

    /// Serialize as one `sapsim.metrics/v1` JSON line (no trailing
    /// newline). Field order, entry order, and number formatting are all
    /// deterministic; histogram buckets carry their own inclusive upper
    /// bounds so consumers never need this crate's bucket math.
    pub fn to_json(&self) -> String {
        Snapshot {
            schema: METRICS_SCHEMA.into(),
            counters: self.counters().map(|(k, v)| Sample::new(k, v)).collect(),
            gauges: self.gauges().map(|(k, v)| Sample::new(k, v)).collect(),
            histograms: self
                .histograms()
                .map(|(key, h)| {
                    let (name, label) = key.wire();
                    HistogramSample {
                        name,
                        label,
                        count: h.count(),
                        sum: h.sum(),
                        min: h.min(),
                        max: h.max(),
                        buckets: h.buckets().collect(),
                    }
                })
                .collect(),
        }
        .to_json_string()
    }
}

/// Read a `sapsim.metrics/v1` line back. Entries of one key fold as
/// [`MetricsRegistry::merge`] folds registries. Histogram buckets must
/// sit on canonical bounds and add up to the entry's `count`.
impl FromJson for MetricsRegistry {
    fn from_json(value: &JsonValue) -> Result<Self, DecodeError> {
        let snapshot = Snapshot::from_json(value)?;
        if snapshot.schema != METRICS_SCHEMA {
            let found = DecodeError::unknown_name(&snapshot.schema, vec![METRICS_SCHEMA]);
            return Err(found.at("schema"));
        }
        let mut registry = MetricsRegistry::new();
        for entry in snapshot.counters {
            registry.add_counter(MetricKey::from_wire(entry.name, entry.label), entry.value);
        }
        for entry in snapshot.gauges {
            let key = MetricKey::from_wire(entry.name, entry.label);
            registry.gauges.insert(key, entry.value);
        }
        for (i, entry) in snapshot.histograms.into_iter().enumerate() {
            let within = |e: DecodeError| e.at_index(i).at("histograms");
            let hist = entry.histogram().map_err(within)?;
            let key = MetricKey::from_wire(entry.name, entry.label);
            registry.histograms.entry(key).or_default().merge(&hist);
        }
        Ok(registry)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_log_linear_powers_of_two() {
        // Exact low buckets, then four linear sub-buckets per octave.
        let expect: [u64; 16] = [0, 1, 2, 3, 4, 5, 6, 7, 9, 11, 13, 15, 19, 23, 27, 31];
        for (i, &ub) in expect.iter().enumerate() {
            assert_eq!(bucket_upper_bound(i), ub, "bucket {i}");
        }
        assert_eq!(bucket_upper_bound(HIST_BUCKETS - 1), u64::MAX);
    }

    #[test]
    fn quantiles_resolve_to_bucket_upper_bounds() {
        let mut h = Histogram::default();
        assert_eq!(h.quantile(0.5), None);
        for v in 1..=100u64 {
            h.record(v);
        }
        // Bucket resolution: the answer is the upper bound of the bucket
        // containing the rank, so it is >= the exact quantile and never
        // beyond the recorded max's bucket.
        let p50 = h.quantile(0.5).unwrap();
        let p99 = h.quantile(0.99).unwrap();
        assert!((50..100).contains(&p50), "p50 = {p50}");
        assert!(p99 >= 99, "p99 = {p99}");
        assert!(h.quantile(0.0).unwrap() >= 1);
        assert!(h.quantile(1.0).unwrap() >= p99);
        let mut single = Histogram::default();
        single.record(7);
        assert_eq!(single.quantile(0.5), Some(7));
    }

    #[test]
    fn bucket_index_inverts_upper_bounds() {
        for i in 0..HIST_BUCKETS {
            let ub = bucket_upper_bound(i);
            assert_eq!(bucket_index(ub), i, "upper bound {ub} of bucket {i}");
            if ub < u64::MAX {
                assert_eq!(bucket_index(ub + 1), i + 1);
            }
        }
    }

    #[test]
    fn bucket_index_is_monotone_on_samples() {
        let mut last = 0;
        for v in (0..10_000u64).chain((0..54).map(|e| (1u64 << e) + 3)) {
            let i = bucket_index(v);
            assert!(i >= last || v < 10_000, "index must not decrease");
            if v < 10_000 {
                last = i;
            }
            assert!(v <= bucket_upper_bound(i), "{v} exceeds its bucket bound");
        }
    }

    #[test]
    fn top_octave_values_are_recordable() {
        // Regression: observations at and above 2^63 land in the last
        // octave (indices 248..252) rather than out of bounds.
        let mut h = Histogram::new();
        for v in [1u64 << 63, (1 << 63) + 1, u64::MAX - 1, u64::MAX] {
            h.record(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.max(), u64::MAX);
        let (top_ub, top_n) = h.buckets().last().expect("non-empty");
        assert_eq!(top_ub, u64::MAX);
        assert_eq!(top_n, 2);
        let rebuilt = Histogram::from_parts(h.buckets(), h.sum(), h.min(), h.max());
        assert_eq!(rebuilt, h);
    }

    #[test]
    fn merge_saturates_instead_of_wrapping() {
        let a = Histogram::from_parts([(5u64, u64::MAX - 1)], u64::MAX, 5, 5);
        let b = Histogram::from_parts([(5u64, 3)], 15, 5, 5);
        let mut m = a.clone();
        m.merge(&b);
        assert_eq!(m.count(), u64::MAX);
        assert_eq!(m.buckets().next(), Some((5, u64::MAX)));
    }

    #[test]
    fn histogram_tracks_summary_stats() {
        let mut h = Histogram::new();
        for v in [3u64, 100, 7, 0, 100_000] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 100_110);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 100_000);
        assert_eq!(h.buckets().map(|(_, n)| n).sum::<u64>(), 5);
    }

    #[test]
    fn histogram_merge_is_commutative() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for v in [1u64, 5, 9, 1 << 40] {
            a.record(v);
        }
        for v in [2u64, 5, 1 << 20] {
            b.record(v);
        }
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.count(), 7);
    }

    #[test]
    fn registry_merge_sums_counters_and_merges_histograms() {
        let mut a = MetricsRegistry::new();
        a.counter("placements", 10);
        a.counter_with("placements", "region", "r00", 6);
        a.observe("span_us", 12);
        a.gauge("live_vms", 5.0);
        let mut b = MetricsRegistry::new();
        b.counter("placements", 3);
        b.counter_with("placements", "region", "r01", 2);
        b.observe("span_us", 40);
        b.gauge("live_vms", 9.0);
        a.merge(&b);
        assert_eq!(a.counter_value("placements"), Some(13));
        assert_eq!(a.gauge_value("live_vms"), Some(9.0));
        assert_eq!(a.histogram("span_us").unwrap().count(), 2);
        let labeled: Vec<_> = a
            .counters()
            .filter(|(k, _)| k.label.is_some())
            .map(|(k, v)| (k.label.clone().unwrap().1, v))
            .collect();
        assert_eq!(labeled, vec![("r00".to_string(), 6), ("r01".to_string(), 2)]);
    }

    #[test]
    fn metrics_v1_json_is_stable() {
        let mut m = MetricsRegistry::new();
        m.counter("events_fired", 42);
        m.counter_with("placements", "region", "r01", 7);
        m.gauge("live_vms", 3.0);
        m.observe("span_us", 5);
        m.observe("span_us", 6);
        assert_eq!(
            m.to_json(),
            "{\"schema\":\"sapsim.metrics/v1\",\
             \"counters\":[{\"name\":\"events_fired\",\"value\":42},\
             {\"name\":\"placements\",\"label\":{\"region\":\"r01\"},\"value\":7}],\
             \"gauges\":[{\"name\":\"live_vms\",\"value\":3}],\
             \"histograms\":[{\"name\":\"span_us\",\"count\":2,\"sum\":11,\
             \"min\":5,\"max\":6,\"buckets\":[[5,1],[6,1]]}]}"
        );
    }

    #[test]
    fn empty_registry_serializes_to_empty_families() {
        assert_eq!(
            MetricsRegistry::new().to_json(),
            "{\"schema\":\"sapsim.metrics/v1\",\"counters\":[],\"gauges\":[],\"histograms\":[]}"
        );
    }

    #[test]
    fn from_parts_round_trips_export_buckets() {
        let mut h = Histogram::new();
        for v in [1u64, 7, 300, 1 << 33] {
            h.record(v);
        }
        let back = Histogram::from_parts(h.buckets(), h.sum(), h.min(), h.max());
        assert_eq!(back, h, "snapshot rebuild must reproduce the original");
        let mut merged = back.clone();
        merged.merge(&h);
        assert_eq!(merged.count(), 2 * h.count());
    }
}
