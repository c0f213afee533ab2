//! Typed observability events and the JSON Lines records they are
//! written as.

use crate::metrics::Sample;
use sapsim_json::{json_codec, FromJson, JsonValue, Keyed, ObjectWriter, TaggedJson, ToJson};
use std::borrow::Cow;

/// A name: a `&'static str` when the simulator writes it, owned when read.
pub(crate) type Name = Cow<'static, str>;

/// How many ranked survivors a [`DecisionRecord`] keeps per decision,
/// with their combined and per-weigher scores. Five is enough to see why
/// the winner won and what the runner-up alternatives scored, while
/// keeping a full-region audit log bounded.
pub const DECISION_TOP_K: usize = 5;

/// The event-loop phases the driver profiles. Each variant is one span
/// name in the Chrome trace and one row of the aggregated
/// [`RunProfile`](crate::RunProfile).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SpanKind {
    /// The whole run (one span, from world construction to teardown).
    Run,
    /// One VM-arrival placement (rank + greedy claim walk).
    Placement,
    /// One telemetry scrape round (parent of the three phases below).
    Scrape,
    /// Scrape phase 1: per-VM demand sampling.
    ScrapeSample,
    /// Scrape phase 2: per-node demand reduction.
    ScrapeReduce,
    /// Scrape phase 3: hypervisor model evaluation + TSDB recording.
    ScrapeRecord,
    /// One Nova-DB gauge recording round.
    OsGauge,
    /// One DRS evaluation round over every building block.
    DrsRound,
    /// One cross-BB rebalancing round over every data center.
    CrossBbRound,
}

impl SpanKind {
    /// Number of variants (the size of a per-kind table).
    pub(crate) const COUNT: usize = 9;

    /// Every kind, in display order.
    pub const ALL: [SpanKind; SpanKind::COUNT] = [
        SpanKind::Run,
        SpanKind::Placement,
        SpanKind::Scrape,
        SpanKind::ScrapeSample,
        SpanKind::ScrapeReduce,
        SpanKind::ScrapeRecord,
        SpanKind::OsGauge,
        SpanKind::DrsRound,
        SpanKind::CrossBbRound,
    ];

    /// Stable snake-case name used in the JSONL and Chrome exports.
    pub const fn name(self) -> &'static str {
        match self {
            SpanKind::Run => "run",
            SpanKind::Placement => "placement",
            SpanKind::Scrape => "scrape",
            SpanKind::ScrapeSample => "scrape.sample",
            SpanKind::ScrapeReduce => "scrape.reduce",
            SpanKind::ScrapeRecord => "scrape.record",
            SpanKind::OsGauge => "os_gauge",
            SpanKind::DrsRound => "drs_round",
            SpanKind::CrossBbRound => "cross_bb_round",
        }
    }

    /// Dense index for per-kind tables.
    pub(crate) const fn index(self) -> usize {
        self as usize
    }
}

json_codec!(str SpanKind: name);

/// What became of one placement request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecisionOutcome {
    /// A candidate was claimed.
    Placed,
    /// Candidates survived filtering but every claim failed
    /// (intra-cluster fragmentation).
    Fragmented,
    /// No candidate survived the filter chain.
    NoCandidate,
}

impl DecisionOutcome {
    /// Every outcome.
    pub(crate) const ALL: [DecisionOutcome; 3] = [
        DecisionOutcome::Placed,
        DecisionOutcome::Fragmented,
        DecisionOutcome::NoCandidate,
    ];

    /// Stable snake-case name used in the JSONL export.
    pub const fn name(self) -> &'static str {
        match self {
            DecisionOutcome::Placed => "placed",
            DecisionOutcome::Fragmented => "fragmented",
            DecisionOutcome::NoCandidate => "no_candidate",
        }
    }
}

json_codec!(str DecisionOutcome: name);

/// One ranked survivor of the filter stage, with its combined score and
/// the per-weigher contributions that produced it.
#[derive(Debug, Clone, PartialEq)]
pub struct HostScore {
    /// Candidate id at the run's placement granularity (building-block
    /// index at cluster-level scheduling, node index at node level).
    pub host: u32,
    /// Combined (multiplier-weighted, normalized) score.
    pub score: f64,
    /// `(weigher name, contribution)` pairs, one per configured weigher.
    pub weights: Keyed<Vec<(Name, f64)>>,
}

json_codec!(struct HostScore { host, score, weights });

/// The audit-log entry for one scheduler decision — everything needed to
/// reconstruct *why* the pipeline chose what it chose.
#[derive(Debug, Clone, PartialEq)]
pub struct DecisionRecord {
    /// Simulation time of the decision, in milliseconds.
    pub sim_time_ms: u64,
    /// The requesting VM's uid.
    pub vm_uid: u64,
    /// Size of the candidate set the filter chain examined.
    pub candidates: u32,
    /// Ranked candidates tried and rejected before the claim succeeded
    /// (Nova's greedy retries); 0 on first-try success and on
    /// `NoCandidate` failures.
    pub retries: u32,
    /// What happened.
    pub outcome: DecisionOutcome,
    /// Node index the VM landed on (`None` unless `outcome` is
    /// [`DecisionOutcome::Placed`]).
    pub chosen_host: Option<u32>,
    /// Per-filter elimination counts, `(reason label, count)`, in stable
    /// reason order.
    pub rejections: Keyed<Vec<(Name, u32)>>,
    /// Top-[`DECISION_TOP_K`] survivors with combined and per-weigher
    /// scores, best first.
    pub top_k: Vec<HostScore>,
}

json_codec!(struct DecisionRecord {
    sim_time_ms, vm_uid, candidates, retries, outcome, chosen_host, rejections, top_k,
});

/// One step in the life of an injected fault or its evacuation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultEventKind {
    /// A host dropped dead (abrupt failure).
    HostFail,
    /// A failed host rejoined the fleet.
    HostRecover,
    /// A displaced VM was re-placed through the scheduling pipeline.
    EvacReplaced,
    /// A displaced VM found no capacity and joined the pending queue.
    EvacPending,
    /// A pending evacuation retried and failed again (backoff continues).
    EvacRetry,
    /// A pending evacuation exhausted its retry budget and was abandoned.
    EvacLost,
}

impl FaultEventKind {
    /// Every kind.
    pub(crate) const ALL: [FaultEventKind; 6] = [
        FaultEventKind::HostFail,
        FaultEventKind::HostRecover,
        FaultEventKind::EvacReplaced,
        FaultEventKind::EvacPending,
        FaultEventKind::EvacRetry,
        FaultEventKind::EvacLost,
    ];

    /// Stable snake-case name used in the JSONL export.
    pub const fn name(self) -> &'static str {
        match self {
            FaultEventKind::HostFail => "host_fail",
            FaultEventKind::HostRecover => "host_recover",
            FaultEventKind::EvacReplaced => "evac_replaced",
            FaultEventKind::EvacPending => "evac_pending",
            FaultEventKind::EvacRetry => "evac_retry",
            FaultEventKind::EvacLost => "evac_lost",
        }
    }
}

json_codec!(str FaultEventKind: name);

/// A typed observability event, as buffered by the
/// [`JsonlRecorder`](crate::JsonlRecorder).
#[derive(Debug, Clone, PartialEq)]
pub enum ObsEvent {
    /// A timed section of the event loop. `ts_us` is the start offset
    /// from the run's wall-clock origin, `dur_us` the elapsed time, both
    /// in microseconds.
    Span {
        /// Which phase.
        kind: SpanKind,
        /// Start offset from the run origin (µs).
        ts_us: u64,
        /// Elapsed wall-clock time (µs).
        dur_us: u64,
    },
    /// One scheduler decision.
    Decision(DecisionRecord),
    /// One fault-injection step.
    Fault {
        /// What happened.
        kind: FaultEventKind,
        /// Simulation time of the event, in milliseconds.
        sim_time_ms: u64,
        /// Node index — the failing/recovering host, or for evacuation
        /// events the VM's node (destination for
        /// [`FaultEventKind::EvacReplaced`], the lost host otherwise).
        node: u32,
        /// The affected VM's uid; `None` for host-level events.
        vm_uid: Option<u64>,
    },
}

/// The `meta` line that opens a log: format version, the recorder's
/// knobs, and how many events it kept and dropped.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogMeta {
    /// Log format version (1).
    pub(crate) version: u32,
    /// [`ObsConfig::decision_sample_rate`](crate::ObsConfig::decision_sample_rate).
    pub decision_sample_rate: f64,
    /// [`ObsConfig::ring_capacity`](crate::ObsConfig::ring_capacity).
    pub ring_capacity: u64,
    /// Events in the log.
    pub events: u64,
    /// Events evicted from the ring before the log was written.
    pub dropped: u64,
}

json_codec!(struct LogMeta { version, decision_sample_rate, ring_capacity, events, dropped });

/// A `span` line: an [`ObsEvent::Span`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRecord {
    /// Which phase.
    pub kind: SpanKind,
    /// Start offset from the run origin (µs).
    pub(crate) ts_us: u64,
    /// Elapsed wall-clock time (µs).
    pub dur_us: u64,
}

json_codec!(struct SpanRecord { kind, ts_us, dur_us });

/// A `fault` line: an [`ObsEvent::Fault`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultRecord {
    /// What happened.
    pub kind: FaultEventKind,
    /// Simulation time of the event, in milliseconds.
    pub(crate) sim_time_ms: u64,
    /// The host (see [`ObsEvent::Fault`]).
    pub(crate) node: u32,
    /// The affected VM's uid; `None` for host-level events.
    pub(crate) vm_uid: Option<u64>,
}

json_codec!(struct FaultRecord { kind, sim_time_ms, node, vm_uid });

/// One line of the JSON Lines log, tagged by `type`: what `write_jsonl`
/// writes and `sapsim obs summary` reads back. A decision is borrowed
/// from the recorder on the way out and owned on the way in.
#[derive(Debug, Clone, PartialEq)]
pub enum LogLine<'a> {
    /// The opening `meta` line.
    Meta(LogMeta),
    /// A timed section of the event loop.
    Span(SpanRecord),
    /// One scheduler decision.
    Decision(Cow<'a, DecisionRecord>),
    /// One fault-injection step.
    Fault(FaultRecord),
    /// One recorder counter, after the events (never labeled).
    Counter(Sample<u64>),
}

json_codec!(enum LogLine<'_>: tag type {
    Meta(LogMeta) = "meta", Span(SpanRecord) = "span",
    Decision(Cow<'_, DecisionRecord>) = "decision", Fault(FaultRecord) = "fault",
    Counter(Sample<u64>) = "counter",
});

impl ToJson for LogLine<'_> {
    fn write_json(&self, out: &mut String) {
        let mut object = ObjectWriter::new(out);
        self.write_members(&mut object);
        object.end();
    }
}

impl FromJson for LogLine<'_> {
    fn from_json(value: &JsonValue) -> Result<Self, sapsim_json::DecodeError> {
        Self::from_members(value)
    }
}

impl<'a> From<&'a ObsEvent> for LogLine<'a> {
    fn from(event: &'a ObsEvent) -> Self {
        match *event {
            ObsEvent::Span {
                kind,
                ts_us,
                dur_us,
            } => LogLine::Span(SpanRecord {
                kind,
                ts_us,
                dur_us,
            }),
            ObsEvent::Decision(ref record) => LogLine::Decision(Cow::Borrowed(record)),
            ObsEvent::Fault {
                kind,
                sim_time_ms,
                node,
                vm_uid,
            } => LogLine::Fault(FaultRecord {
                kind,
                sim_time_ms,
                node,
                vm_uid,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sapsim_json::JsonValue;

    fn line(ev: &ObsEvent) -> JsonValue {
        let text = LogLine::from(ev).to_json_string();
        let value = sapsim_json::parse(&text).expect("event lines are valid JSON");
        let back: LogLine = sapsim_json::decode(&text).expect("event lines read back");
        assert_eq!(back, LogLine::from(ev));
        value
    }

    fn keyed<V: Copy>(pairs: &[(&'static str, V)]) -> Keyed<Vec<(Name, V)>> {
        pairs.iter().map(|&(k, v)| (k.into(), v)).collect()
    }

    #[test]
    fn span_kinds_have_unique_stable_names_and_dense_indices() {
        let mut seen = std::collections::BTreeSet::new();
        for (i, kind) in SpanKind::ALL.iter().enumerate() {
            assert!(seen.insert(kind.name()), "duplicate name {}", kind.name());
            assert_eq!(kind.index(), i, "ALL must follow discriminant order");
        }
        assert_eq!(seen.len(), SpanKind::COUNT);
    }

    #[test]
    fn span_event_encodes_all_fields() {
        let v = line(&ObsEvent::Span {
            kind: SpanKind::Scrape,
            ts_us: 12,
            dur_us: 345,
        });
        assert_eq!(v["type"].as_str(), Some("span"));
        assert_eq!(v["kind"].as_str(), Some("scrape"));
        assert_eq!(v["ts_us"].as_u64(), Some(12));
        assert_eq!(v["dur_us"].as_u64(), Some(345));
    }

    #[test]
    fn decision_event_encodes_audit_fields() {
        let v = line(&ObsEvent::Decision(DecisionRecord {
            sim_time_ms: 1_000,
            vm_uid: 42,
            candidates: 17,
            retries: 2,
            outcome: DecisionOutcome::Placed,
            chosen_host: Some(9),
            rejections: keyed(&[("insufficient_cpu", 3), ("wrong_az", 8)]),
            top_k: vec![HostScore {
                host: 4,
                score: 1.5,
                weights: keyed(&[("cpu", 0.5), ("ram", 1.0)]),
            }],
        }));
        assert_eq!(v["type"].as_str(), Some("decision"));
        assert_eq!(v["vm_uid"].as_u64(), Some(42));
        assert_eq!(v["candidates"].as_u64(), Some(17));
        assert_eq!(v["retries"].as_u64(), Some(2));
        assert_eq!(v["outcome"].as_str(), Some("placed"));
        assert_eq!(v["chosen_host"].as_u64(), Some(9));
        assert_eq!(v["rejections"]["insufficient_cpu"].as_u64(), Some(3));
        assert_eq!(v["rejections"]["wrong_az"].as_u64(), Some(8));
        assert_eq!(v["top_k"][0]["host"].as_u64(), Some(4));
        assert_eq!(v["top_k"][0]["score"].as_f64(), Some(1.5));
        assert_eq!(v["top_k"][0]["weights"]["cpu"].as_f64(), Some(0.5));
        assert_eq!(v["top_k"][0]["weights"]["ram"].as_f64(), Some(1.0));
    }

    #[test]
    fn fault_event_encodes_all_fields() {
        let v = line(&ObsEvent::Fault {
            kind: FaultEventKind::EvacReplaced,
            sim_time_ms: 777,
            node: 13,
            vm_uid: Some(99),
        });
        assert_eq!(v["type"].as_str(), Some("fault"));
        assert_eq!(v["kind"].as_str(), Some("evac_replaced"));
        assert_eq!(v["sim_time_ms"].as_u64(), Some(777));
        assert_eq!(v["node"].as_u64(), Some(13));
        assert_eq!(v["vm_uid"].as_u64(), Some(99));

        let v = line(&ObsEvent::Fault {
            kind: FaultEventKind::HostFail,
            sim_time_ms: 0,
            node: 2,
            vm_uid: None,
        });
        assert_eq!(v["kind"].as_str(), Some("host_fail"));
        assert_eq!(v["vm_uid"], JsonValue::Null);
    }

    #[test]
    fn fault_kinds_have_unique_stable_names() {
        let names: std::collections::BTreeSet<_> =
            FaultEventKind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(names.len(), FaultEventKind::ALL.len());
        assert_eq!(
            sapsim_json::decode::<FaultEventKind>("\"evac_lost\""),
            Ok(FaultEventKind::EvacLost)
        );
        let unknown = sapsim_json::decode::<DecisionOutcome>("\"lost\"").unwrap_err();
        assert_eq!(
            unknown.to_string(),
            "unknown variant `lost` (use placed|fragmented|no_candidate)"
        );
    }

    #[test]
    fn failed_decision_has_null_chosen_host_and_empty_top_k() {
        let v = line(&ObsEvent::Decision(DecisionRecord {
            sim_time_ms: 0,
            vm_uid: 1,
            candidates: 3,
            retries: 0,
            outcome: DecisionOutcome::NoCandidate,
            chosen_host: None,
            rejections: keyed(&[("host_disabled", 3)]),
            top_k: Vec::new(),
        }));
        assert_eq!(v["chosen_host"], JsonValue::Null);
        assert_eq!(v["outcome"].as_str(), Some("no_candidate"));
        assert_eq!(v["top_k"].as_arr().unwrap().len(), 0);
    }
}
