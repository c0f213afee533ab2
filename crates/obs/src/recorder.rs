//! Recorder trait, the no-op recorder, and the ring-buffered JSONL
//! recorder.

use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::io;

use crate::event::{LogLine, LogMeta, Name, ObsEvent};
use crate::metrics::{MetricKey, MetricsRegistry, Sample};
use sapsim_json::{json_codec, ToJson};

/// What went wrong while configuring an observability sink.
///
/// Marked `#[non_exhaustive]` so sink I/O failures can grow variants
/// without a breaking release.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ObsError {
    /// An [`ObsConfig`] knob is outside its documented range. The
    /// payload is the human-readable rule.
    InvalidConfig(String),
}

impl fmt::Display for ObsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ObsError::InvalidConfig(msg) => f.write_str(msg),
        }
    }
}

impl std::error::Error for ObsError {}

/// Sink for observability events.
///
/// The trait carries a `const ENABLED` flag so instrumentation sites can
/// be written as
///
/// ```ignore
/// if R::ENABLED {
///     rec.record(ObsEvent::Span { .. });
/// }
/// ```
///
/// and monomorphize to **nothing** for [`NullRecorder`]: with
/// `ENABLED = false` the branch is statically dead and the event
/// construction — including any clock reads guarding it — is compiled
/// out. This is what keeps observability off the hot path when unused.
pub trait Recorder {
    /// Whether this recorder actually collects anything. Instrumentation
    /// must gate all event-building work on this constant.
    const ENABLED: bool;

    /// Buffer one typed event.
    fn record(&mut self, event: ObsEvent);

    /// Add `delta` to the named monotonic counter.
    fn counter_add(&mut self, name: &'static str, delta: u64);

    /// Whether the decision for `vm_uid` should be recorded, per the
    /// configured sample rate. Deterministic in `vm_uid`: the answer
    /// never depends on call order, thread count, or any simulation RNG.
    fn wants_decision(&mut self, vm_uid: u64) -> bool;

    /// The engine-health metrics registry this recorder aggregates into,
    /// when it keeps one. Instrumentation that folds engine snapshots
    /// (timing-wheel occupancy, cache hit rates, per-region counters)
    /// gates on `R::ENABLED` and then on this returning `Some`, so
    /// recorders without a registry pay only a branch.
    fn metrics_mut(&mut self) -> Option<&mut MetricsRegistry> {
        None
    }

    /// Called by the event loop before each event fires. Only a recorder
    /// that reads `progress` evaluates it: the default costs nothing.
    fn tick(&mut self, _progress: impl FnOnce() -> RunProgress) {}

    /// Called once when the run reaches its horizon.
    fn finish(&mut self, _progress: RunProgress) {}
}

/// Where a run stands (simulated instants in milliseconds on the
/// warm-up-inclusive timeline), as [`Recorder::tick`] and
/// [`Recorder::finish`] see it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunProgress {
    /// The instant of the event about to fire (the horizon at finish).
    pub now_ms: u64,
    /// The run's horizon.
    pub horizon_ms: u64,
    /// Events fired so far.
    pub events: u64,
    /// VMs live on the estate.
    pub live_vms: usize,
}

/// The disabled recorder: every method is a no-op and `ENABLED` is
/// false, so instrumented code paths compile to exactly the
/// uninstrumented code.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullRecorder;

impl Recorder for NullRecorder {
    const ENABLED: bool = false;

    #[inline(always)]
    fn record(&mut self, _event: ObsEvent) {}

    #[inline(always)]
    fn counter_add(&mut self, _name: &'static str, _delta: u64) {}

    #[inline(always)]
    fn wants_decision(&mut self, _vm_uid: u64) -> bool {
        false
    }
}

/// Knobs bounding what the [`JsonlRecorder`] collects.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ObsConfig {
    /// Fraction of placement decisions to audit, in `[0, 1]`. Sampling
    /// is a deterministic hash of the VM uid (SplitMix64 finalizer), so
    /// the same VMs are sampled at the same rate regardless of thread
    /// count or event interleaving — and the simulation RNG streams are
    /// never touched.
    pub decision_sample_rate: f64,
    /// Maximum number of buffered events. On overflow the oldest event
    /// is dropped and the drop is counted, so a full-region run stays
    /// bounded no matter how long it is.
    pub ring_capacity: usize,
}

impl Default for ObsConfig {
    fn default() -> Self {
        ObsConfig {
            decision_sample_rate: 1.0,
            ring_capacity: 65_536,
        }
    }
}

impl ObsConfig {
    /// Check the knobs are usable: rate in `[0, 1]`, capacity nonzero.
    pub fn validate(&self) -> Result<(), ObsError> {
        if !(0.0..=1.0).contains(&self.decision_sample_rate) {
            return Err(ObsError::InvalidConfig(format!(
                "decision sample rate must be in [0, 1], got {}",
                self.decision_sample_rate
            )));
        }
        if self.ring_capacity == 0 {
            return Err(ObsError::InvalidConfig(
                "obs ring capacity must be at least 1".to_string(),
            ));
        }
        Ok(())
    }
}

impl fmt::Display for ObsConfig {
    /// The compact spec spelling, `sample=<rate>,ring=<capacity>` —
    /// the inverse of [`FromStr`], so configs round-trip through their
    /// own display form.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "sample={},ring={}",
            self.decision_sample_rate, self.ring_capacity
        )
    }
}

impl std::str::FromStr for ObsConfig {
    type Err = ObsError;

    /// Parse a compact spec: comma-separated `sample=<rate>` and
    /// `ring=<capacity>` pairs in any order, each optional (missing
    /// keys keep their defaults). The empty string is the default
    /// config. The result is [`validate`](ObsConfig::validate)d.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut config = ObsConfig::default();
        for part in s.split(',').filter(|p| !p.is_empty()) {
            let (key, value) = part.split_once('=').ok_or_else(|| {
                ObsError::InvalidConfig(format!("obs spec: expected key=value, got `{part}`"))
            })?;
            match key {
                "sample" => {
                    config.decision_sample_rate = value.parse().map_err(|_| {
                        ObsError::InvalidConfig(format!(
                            "obs spec: `sample` wants a number, got `{value}`"
                        ))
                    })?;
                }
                "ring" => {
                    config.ring_capacity = value.parse().map_err(|_| {
                        ObsError::InvalidConfig(format!(
                            "obs spec: `ring` wants a positive integer, got `{value}`"
                        ))
                    })?;
                }
                other => {
                    return Err(ObsError::InvalidConfig(format!(
                        "obs spec: unknown key `{other}` (use sample|ring)"
                    )))
                }
            }
        }
        config.validate()?;
        Ok(config)
    }
}

/// SplitMix64 finalizer: a cheap, well-mixed 64-bit hash. Used to turn a
/// VM uid into a uniform `[0, 1)` value for sampling without consuming
/// any simulation randomness.
fn splitmix64(uid: u64) -> u64 {
    let mut z = uid.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A recorder that aggregates engine-health metrics and nothing else: no
/// event ring, no decision audit log — every event and counter folds
/// straight into a [`MetricsRegistry`].
///
/// Spans become `span_us` histogram observations labeled by phase, fault
/// events become `fault_events` counter breakdowns by kind, and named
/// counters pass through unchanged. Decision sampling is declined
/// ([`Recorder::wants_decision`] is `false`), so the driver never builds
/// the comparatively expensive [`DecisionRecord`](crate::DecisionRecord)
/// for this recorder — that is what keeps the metrics-enabled path within
/// a few percent of [`NullRecorder`].
#[derive(Debug, Clone, Default)]
pub struct MetricsRecorder {
    registry: MetricsRegistry,
}

impl MetricsRecorder {
    /// An empty metrics recorder.
    pub fn new() -> Self {
        MetricsRecorder::default()
    }

    /// The aggregated registry.
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }
}

/// Fold one typed event into a registry — shared by every recorder that
/// carries one, so the metric names agree across recorders.
fn fold_event(registry: &mut MetricsRegistry, event: &ObsEvent) {
    match event {
        ObsEvent::Span { kind, dur_us, .. } => {
            registry.observe_with("span_us", "phase", kind.name(), *dur_us);
        }
        ObsEvent::Fault { kind, .. } => {
            registry.counter_with("fault_events", "kind", kind.name(), 1);
        }
        ObsEvent::Decision(_) => {}
    }
}

impl Recorder for MetricsRecorder {
    const ENABLED: bool = true;

    fn record(&mut self, event: ObsEvent) {
        fold_event(&mut self.registry, &event);
    }

    fn counter_add(&mut self, name: &'static str, delta: u64) {
        self.registry.counter(name, delta);
    }

    fn wants_decision(&mut self, _vm_uid: u64) -> bool {
        false
    }

    fn metrics_mut(&mut self) -> Option<&mut MetricsRegistry> {
        Some(&mut self.registry)
    }
}

/// Ring-buffered recorder that exports JSON Lines and Chrome traces.
///
/// Events are kept in a bounded `VecDeque`; when full, the oldest event
/// is evicted and counted in [`JsonlRecorder::dropped`]. Counters are a
/// small `BTreeMap` keyed by static names, so their export order is
/// stable. Optionally ([`JsonlRecorder::with_metrics`]) the recorder also
/// folds everything into a [`MetricsRegistry`], so one run can feed both
/// the event log and the metrics export.
#[derive(Debug, Clone)]
pub struct JsonlRecorder {
    config: ObsConfig,
    ring: VecDeque<ObsEvent>,
    dropped: u64,
    counters: BTreeMap<&'static str, u64>,
    metrics: Option<MetricsRegistry>,
}

impl Default for JsonlRecorder {
    fn default() -> Self {
        JsonlRecorder::new(ObsConfig::default())
    }
}

impl JsonlRecorder {
    /// New recorder with the given knobs.
    pub fn new(config: ObsConfig) -> Self {
        JsonlRecorder {
            config,
            ring: VecDeque::with_capacity(config.ring_capacity.min(4096)),
            dropped: 0,
            counters: BTreeMap::new(),
            metrics: None,
        }
    }

    /// Also aggregate a [`MetricsRegistry`] alongside the event ring.
    pub fn with_metrics(mut self) -> Self {
        self.metrics = Some(MetricsRegistry::new());
        self
    }

    /// The aggregated metrics registry, when enabled.
    pub fn metrics(&self) -> Option<&MetricsRegistry> {
        self.metrics.as_ref()
    }

    /// New recorder with [`ObsConfig::default`] knobs (sample everything,
    /// 64k-event ring).
    pub fn with_defaults() -> Self {
        JsonlRecorder::default()
    }

    /// Buffered events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &ObsEvent> {
        self.ring.iter()
    }

    /// Counter values in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.counters.iter().map(|(&name, &value)| (name, value))
    }

    /// Events evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Whether no events are buffered.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Write the full log as JSON Lines ([`LogLine`]s): one `meta` line,
    /// every buffered event in order, then one `counter` line per counter.
    pub fn write_jsonl(&self, out: &mut dyn io::Write) -> io::Result<()> {
        let meta = LogMeta {
            version: 1,
            decision_sample_rate: self.config.decision_sample_rate,
            ring_capacity: self.config.ring_capacity as u64,
            events: self.ring.len() as u64,
            dropped: self.dropped,
        };
        let counters = self
            .counters
            .iter()
            .map(|(&name, &value)| LogLine::Counter(Sample::new(&MetricKey::plain(name), value)));
        let lines = std::iter::once(LogLine::Meta(meta))
            .chain(self.ring.iter().map(LogLine::from))
            .chain(counters);
        let mut text = String::with_capacity(256);
        for line in lines {
            text.clear();
            line.write_json(&mut text);
            text.push('\n');
            out.write_all(text.as_bytes())?;
        }
        Ok(())
    }

    /// Write the buffered spans as a Chrome `chrome://tracing` /
    /// Perfetto-compatible JSON array of complete (`"ph":"X"`) events,
    /// one per line.
    ///
    /// Spans are sorted by start time ascending, then duration
    /// descending, so `ts` is monotone and enclosing spans (e.g. a
    /// scrape) precede their sub-phases (sample/reduce/record) that
    /// start at the same instant.
    pub fn write_chrome_trace(&self, out: &mut dyn io::Write) -> io::Result<()> {
        let mut spans: Vec<ChromeEvent> = self
            .ring
            .iter()
            .filter_map(|event| match *event {
                ObsEvent::Span {
                    kind,
                    ts_us,
                    dur_us,
                } => Some(ChromeEvent {
                    name: kind.name().into(),
                    ts: ts_us,
                    dur: dur_us,
                }),
                ObsEvent::Decision(_) | ObsEvent::Fault { .. } => None,
            })
            .collect();
        spans.sort_by(|a, b| a.ts.cmp(&b.ts).then(b.dur.cmp(&a.dur)));

        let mut body = String::with_capacity(64 + spans.len() * 96);
        body.push('[');
        for (i, span) in spans.iter().enumerate() {
            if i > 0 {
                body.push(',');
            }
            body.push('\n');
            span.write_json(&mut body);
        }
        out.write_all(body.as_bytes())?;
        out.write_all(b"\n]\n")
    }
}

/// One Chrome trace complete event: a span on the single simulator
/// thread.
#[derive(Debug, Default)]
struct ChromeEvent {
    name: Name,
    ts: u64,
    dur: u64,
}

json_codec!(struct ChromeEvent: default {
    name, cat = "sim", ph = "X", ts, dur, pid = 1u64, tid = 1u64,
});

impl Recorder for JsonlRecorder {
    const ENABLED: bool = true;

    fn record(&mut self, event: ObsEvent) {
        if let Some(metrics) = &mut self.metrics {
            fold_event(metrics, &event);
        }
        if self.ring.len() >= self.config.ring_capacity {
            self.ring.pop_front();
            self.dropped += 1;
        }
        self.ring.push_back(event);
    }

    fn counter_add(&mut self, name: &'static str, delta: u64) {
        if let Some(metrics) = &mut self.metrics {
            metrics.counter(name, delta);
        }
        *self.counters.entry(name).or_insert(0) += delta;
    }

    fn wants_decision(&mut self, vm_uid: u64) -> bool {
        let rate = self.config.decision_sample_rate;
        if rate >= 1.0 {
            return true;
        }
        if rate <= 0.0 {
            return false;
        }
        // Top 53 bits of the hash → uniform f64 in [0, 1).
        let unit = (splitmix64(vm_uid) >> 11) as f64 / (1u64 << 53) as f64;
        unit < rate
    }

    fn metrics_mut(&mut self) -> Option<&mut MetricsRegistry> {
        self.metrics.as_mut()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{DecisionOutcome, DecisionRecord, SpanKind};
    use sapsim_json::JsonValue;

    #[test]
    fn obs_config_round_trips_through_its_display_form() {
        let configs = [
            ObsConfig::default(),
            ObsConfig {
                decision_sample_rate: 0.25,
                ring_capacity: 1024,
            },
            ObsConfig {
                decision_sample_rate: 0.0,
                ring_capacity: 1,
            },
        ];
        for config in configs {
            let spec = config.to_string();
            let back: ObsConfig = spec.parse().expect("round trip");
            assert_eq!(back, config, "spec: {spec}");
        }
        assert_eq!("".parse::<ObsConfig>().unwrap(), ObsConfig::default());
        assert_eq!(
            "ring=64".parse::<ObsConfig>().unwrap().decision_sample_rate,
            1.0
        );
        for bad in ["sample", "sample=x", "ring=0", "sample=2.0", "pace=1"] {
            assert!(bad.parse::<ObsConfig>().is_err(), "spec: {bad}");
        }
    }

    fn span(kind: SpanKind, ts_us: u64, dur_us: u64) -> ObsEvent {
        ObsEvent::Span {
            kind,
            ts_us,
            dur_us,
        }
    }

    fn decision(vm_uid: u64) -> ObsEvent {
        ObsEvent::Decision(DecisionRecord {
            sim_time_ms: 0,
            vm_uid,
            candidates: 1,
            retries: 0,
            outcome: DecisionOutcome::Placed,
            chosen_host: Some(0),
            rejections: Default::default(),
            top_k: Vec::new(),
        })
    }

    #[test]
    fn config_validation_bounds_rate_and_capacity() {
        assert!(ObsConfig::default().validate().is_ok());
        let bad_rate = ObsConfig {
            decision_sample_rate: 1.5,
            ..ObsConfig::default()
        };
        assert!(bad_rate.validate().is_err());
        let nan_rate = ObsConfig {
            decision_sample_rate: f64::NAN,
            ..ObsConfig::default()
        };
        assert!(nan_rate.validate().is_err());
        let zero_ring = ObsConfig {
            ring_capacity: 0,
            ..ObsConfig::default()
        };
        assert!(zero_ring.validate().is_err());
    }

    #[test]
    fn ring_evicts_oldest_and_counts_drops() {
        let mut rec = JsonlRecorder::new(ObsConfig {
            ring_capacity: 2,
            ..ObsConfig::default()
        });
        rec.record(span(SpanKind::Scrape, 0, 1));
        rec.record(span(SpanKind::Scrape, 1, 1));
        rec.record(span(SpanKind::Scrape, 2, 1));
        assert_eq!(rec.len(), 2);
        assert_eq!(rec.dropped(), 1);
        let first = rec.events().next().unwrap();
        assert!(matches!(first, ObsEvent::Span { ts_us: 1, .. }));
    }

    #[test]
    fn counters_accumulate_in_name_order() {
        let mut rec = JsonlRecorder::with_defaults();
        rec.counter_add("zeta", 1);
        rec.counter_add("alpha", 2);
        rec.counter_add("zeta", 3);
        let got: Vec<_> = rec.counters().collect();
        assert_eq!(got, vec![("alpha", 2), ("zeta", 4)]);
    }

    #[test]
    fn sampling_is_deterministic_and_respects_extremes() {
        let mut always = JsonlRecorder::new(ObsConfig {
            decision_sample_rate: 1.0,
            ..ObsConfig::default()
        });
        let mut never = JsonlRecorder::new(ObsConfig {
            decision_sample_rate: 0.0,
            ..ObsConfig::default()
        });
        let mut half = JsonlRecorder::new(ObsConfig {
            decision_sample_rate: 0.5,
            ..ObsConfig::default()
        });
        let mut sampled = 0u64;
        for uid in 0..4096u64 {
            assert!(always.wants_decision(uid));
            assert!(!never.wants_decision(uid));
            let first = half.wants_decision(uid);
            // Same uid, same answer — independent of call order.
            assert_eq!(first, half.wants_decision(uid));
            sampled += u64::from(first);
        }
        // The finalizer hash is uniform: 0.5 should land near half.
        assert!((1500..=2600).contains(&sampled), "sampled {sampled}/4096");
    }

    #[test]
    fn jsonl_export_has_meta_events_and_counters() {
        let mut rec = JsonlRecorder::with_defaults();
        rec.record(span(SpanKind::Scrape, 5, 10));
        rec.record(decision(7));
        rec.counter_add("placements", 1);
        let mut buf = Vec::new();
        rec.write_jsonl(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<JsonValue> = text
            .lines()
            .map(|l| sapsim_json::parse(l).expect("valid JSON line"))
            .collect();
        assert_eq!(lines.len(), 4);
        assert_eq!(lines[0]["type"].as_str(), Some("meta"));
        assert_eq!(lines[0]["version"].as_u64(), Some(1));
        assert_eq!(lines[0]["events"].as_u64(), Some(2));
        assert_eq!(lines[0]["dropped"].as_u64(), Some(0));
        assert_eq!(lines[1]["type"].as_str(), Some("span"));
        assert_eq!(lines[2]["type"].as_str(), Some("decision"));
        assert_eq!(lines[3]["type"].as_str(), Some("counter"));
        assert_eq!(lines[3]["name"].as_str(), Some("placements"));
        assert_eq!(lines[3]["value"].as_u64(), Some(1));
    }

    #[test]
    fn metrics_recorder_folds_spans_faults_and_counters() {
        use crate::event::FaultEventKind;
        let mut rec = MetricsRecorder::new();
        rec.record(span(SpanKind::Scrape, 0, 120));
        rec.record(span(SpanKind::Scrape, 300, 80));
        rec.record(decision(9)); // decisions carry no metric
        rec.record(ObsEvent::Fault {
            kind: FaultEventKind::HostFail,
            sim_time_ms: 0,
            node: 3,
            vm_uid: None,
        });
        rec.counter_add("placements", 5);
        assert!(!rec.wants_decision(1), "metrics recorder declines sampling");
        let m = rec.registry();
        assert_eq!(m.counter_value("placements"), Some(5));
        let spans = m
            .histograms()
            .find(|(k, _)| k.label.as_ref().is_some_and(|(_, v)| v == "scrape"))
            .map(|(_, h)| h)
            .expect("scrape span histogram");
        assert_eq!(spans.count(), 2);
        assert_eq!(spans.sum(), 200);
        let faults: Vec<_> = m
            .counters()
            .filter(|(k, _)| k.name == "fault_events")
            .collect();
        assert_eq!(faults.len(), 1);
        assert_eq!(faults[0].1, 1);
    }

    #[test]
    fn jsonl_recorder_with_metrics_mirrors_its_counters() {
        let mut rec = JsonlRecorder::with_defaults().with_metrics();
        rec.record(span(SpanKind::Placement, 0, 7));
        rec.counter_add("placements", 2);
        let m = rec.metrics().expect("registry enabled");
        assert_eq!(m.counter_value("placements"), Some(2));
        assert_eq!(m.histograms().count(), 1);
        // Without with_metrics() no registry exists.
        assert!(JsonlRecorder::with_defaults().metrics().is_none());
    }

    #[test]
    fn chrome_trace_is_sorted_and_skips_decisions() {
        let mut rec = JsonlRecorder::with_defaults();
        // Inserted out of order; parent and child share a start time.
        rec.record(span(SpanKind::ScrapeSample, 100, 40));
        rec.record(decision(1));
        rec.record(span(SpanKind::Scrape, 100, 90));
        rec.record(span(SpanKind::DrsRound, 50, 10));
        let mut buf = Vec::new();
        rec.write_chrome_trace(&mut buf).unwrap();
        let trace: JsonValue = sapsim_json::parse(std::str::from_utf8(&buf).expect("utf8")).unwrap();
        let events = trace.as_arr().unwrap();
        assert_eq!(events.len(), 3, "decisions are not trace events");
        let ts: Vec<u64> = events.iter().map(|e| e["ts"].as_u64().unwrap()).collect();
        assert_eq!(ts, vec![50, 100, 100], "ts must be monotone");
        // At equal ts the longer (enclosing) span comes first.
        assert_eq!(events[1]["name"].as_str(), Some("scrape"));
        assert_eq!(events[2]["name"].as_str(), Some("scrape.sample"));
        for e in events {
            assert_eq!(e["ph"].as_str(), Some("X"));
            assert_eq!(e["cat"].as_str(), Some("sim"));
            assert!(e["dur"].as_u64().is_some());
        }
    }
}
