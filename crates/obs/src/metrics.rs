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
//! upper bounds, stable field order.

use sapsim_json as json;
use std::collections::BTreeMap;

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

/// One metric's identity: a static name plus at most one label pair
/// (e.g. `("region", "r01")`, `("phase", "scrape")`, `("worker", "3")`).
///
/// Ordered by name then label, which fixes the export order.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct MetricKey {
    /// Metric name (snake-case by convention).
    pub name: &'static str,
    /// Optional `(label name, label value)` breakdown.
    pub label: Option<(&'static str, String)>,
}

impl MetricKey {
    /// An unlabeled key.
    pub fn plain(name: &'static str) -> Self {
        MetricKey { name, label: None }
    }

    /// A labeled key.
    pub fn labeled(name: &'static str, key: &'static str, value: impl Into<String>) -> Self {
        MetricKey {
            name,
            label: Some((key, value.into())),
        }
    }
}

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
            *self.counters.entry(key.clone()).or_insert(0) += value;
        }
        for (key, &value) in &other.gauges {
            self.gauges.insert(key.clone(), value);
        }
        for (key, hist) in &other.histograms {
            self.histograms.entry(key.clone()).or_default().merge(hist);
        }
    }

    /// Serialize as one `sapsim.metrics/v1` JSON line (no trailing
    /// newline). Field order, entry order, and number formatting are all
    /// deterministic; histogram buckets carry their own inclusive upper
    /// bounds so consumers never need this crate's bucket math.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256);
        out.push_str("{\"schema\":\"sapsim.metrics/v1\",");
        out.push_str(&self.fields_json());
        out.push('}');
        out
    }

    /// The body of the `sapsim.metrics/v1` line — everything after the
    /// `schema` key, without the enclosing braces. The envelope writer
    /// in `sapsim-api` wraps this so the schema id has a single owner;
    /// [`to_json`](Self::to_json) is the historical all-in-one spelling
    /// and stays byte-identical.
    pub fn fields_json(&self) -> String {
        let mut out = String::with_capacity(256);
        out.push_str("\"counters\":[");
        for (i, (key, value)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_key(&mut out, key);
            out.push_str(",\"value\":");
            json::push_u64(&mut out, *value);
            out.push('}');
        }
        out.push_str("],\"gauges\":[");
        for (i, (key, value)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_key(&mut out, key);
            out.push_str(",\"value\":");
            json::push_f64(&mut out, *value);
            out.push('}');
        }
        out.push_str("],\"histograms\":[");
        for (i, (key, hist)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_key(&mut out, key);
            out.push_str(",\"count\":");
            json::push_u64(&mut out, hist.count());
            out.push_str(",\"sum\":");
            json::push_u64(&mut out, hist.sum());
            out.push_str(",\"min\":");
            json::push_u64(&mut out, hist.min());
            out.push_str(",\"max\":");
            json::push_u64(&mut out, hist.max());
            out.push_str(",\"buckets\":[");
            for (j, (ub, n)) in hist.buckets().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push('[');
                json::push_u64(&mut out, ub);
                out.push(',');
                json::push_u64(&mut out, n);
                out.push(']');
            }
            out.push_str("]}");
        }
        out.push(']');
        out
    }
}

fn push_key(out: &mut String, key: &MetricKey) {
    out.push_str("{\"name\":");
    json::push_str(out, key.name);
    if let Some((k, v)) = &key.label {
        out.push_str(",\"label\":{");
        json::push_str(out, k);
        out.push(':');
        json::push_str(out, v);
        out.push('}');
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
    fn fields_json_is_the_envelope_body_of_to_json() {
        let mut reg = MetricsRegistry::new();
        reg.counter("a", 1);
        reg.gauge("b", 2.5);
        reg.observe("c", 3);
        let wrapped = format!("{{\"schema\":\"sapsim.metrics/v1\",{}}}", reg.fields_json());
        assert_eq!(wrapped, reg.to_json());
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
