//! Typed observability events and their JSONL encoding.

use sapsim_json as json;

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
    pub const COUNT: usize = 9;

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
    pub const fn index(self) -> usize {
        self as usize
    }
}

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
    /// Stable snake-case name used in the JSONL export.
    pub const fn name(self) -> &'static str {
        match self {
            DecisionOutcome::Placed => "placed",
            DecisionOutcome::Fragmented => "fragmented",
            DecisionOutcome::NoCandidate => "no_candidate",
        }
    }
}

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
    pub weights: Vec<(&'static str, f64)>,
}

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
    pub rejections: Vec<(&'static str, u32)>,
    /// Top-[`DECISION_TOP_K`] survivors with combined and per-weigher
    /// scores, best first.
    pub top_k: Vec<HostScore>,
}

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

impl ObsEvent {
    /// Append this event as one JSON line (no trailing newline) in the
    /// stable v1 schema.
    pub fn write_json_line(&self, out: &mut String) {
        match self {
            ObsEvent::Span {
                kind,
                ts_us,
                dur_us,
            } => {
                out.push_str("{\"type\":\"span\",\"kind\":");
                json::push_str(out, kind.name());
                out.push_str(",\"ts_us\":");
                json::push_u64(out, *ts_us);
                out.push_str(",\"dur_us\":");
                json::push_u64(out, *dur_us);
                out.push('}');
            }
            ObsEvent::Decision(d) => {
                out.push_str("{\"type\":\"decision\",\"sim_time_ms\":");
                json::push_u64(out, d.sim_time_ms);
                out.push_str(",\"vm_uid\":");
                json::push_u64(out, d.vm_uid);
                out.push_str(",\"candidates\":");
                json::push_u64(out, d.candidates as u64);
                out.push_str(",\"retries\":");
                json::push_u64(out, d.retries as u64);
                out.push_str(",\"outcome\":");
                json::push_str(out, d.outcome.name());
                out.push_str(",\"chosen_host\":");
                match d.chosen_host {
                    Some(h) => json::push_u64(out, h as u64),
                    None => out.push_str("null"),
                }
                out.push_str(",\"rejections\":{");
                for (i, (reason, count)) in d.rejections.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    json::push_str(out, reason);
                    out.push(':');
                    json::push_u64(out, *count as u64);
                }
                out.push_str("},\"top_k\":[");
                for (i, s) in d.top_k.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str("{\"host\":");
                    json::push_u64(out, s.host as u64);
                    out.push_str(",\"score\":");
                    json::push_f64(out, s.score);
                    out.push_str(",\"weights\":{");
                    for (j, (name, w)) in s.weights.iter().enumerate() {
                        if j > 0 {
                            out.push(',');
                        }
                        json::push_str(out, name);
                        out.push(':');
                        json::push_f64(out, *w);
                    }
                    out.push_str("}}");
                }
                out.push_str("]}");
            }
            ObsEvent::Fault {
                kind,
                sim_time_ms,
                node,
                vm_uid,
            } => {
                out.push_str("{\"type\":\"fault\",\"kind\":");
                json::push_str(out, kind.name());
                out.push_str(",\"sim_time_ms\":");
                json::push_u64(out, *sim_time_ms);
                out.push_str(",\"node\":");
                json::push_u64(out, *node as u64);
                out.push_str(",\"vm_uid\":");
                match vm_uid {
                    Some(uid) => json::push_u64(out, *uid),
                    None => out.push_str("null"),
                }
                out.push('}');
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sapsim_json::JsonValue;

    fn line(ev: &ObsEvent) -> JsonValue {
        let mut s = String::new();
        ev.write_json_line(&mut s);
        sapsim_json::parse(&s).expect("event lines are valid JSON")
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
            rejections: vec![("insufficient_cpu", 3), ("wrong_az", 8)],
            top_k: vec![HostScore {
                host: 4,
                score: 1.5,
                weights: vec![("cpu", 0.5), ("ram", 1.0)],
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
        let kinds = [
            FaultEventKind::HostFail,
            FaultEventKind::HostRecover,
            FaultEventKind::EvacReplaced,
            FaultEventKind::EvacPending,
            FaultEventKind::EvacRetry,
            FaultEventKind::EvacLost,
        ];
        let names: std::collections::BTreeSet<_> = kinds.iter().map(|k| k.name()).collect();
        assert_eq!(names.len(), kinds.len());
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
            rejections: vec![("host_disabled", 3)],
            top_k: Vec::new(),
        }));
        assert_eq!(v["chosen_host"], JsonValue::Null);
        assert_eq!(v["outcome"].as_str(), Some("no_candidate"));
        assert_eq!(v["top_k"].as_arr().unwrap().len(), 0);
    }
}
