//! # sapsim-obs — zero-cost structured observability
//!
//! The paper's contribution is *diagnostic*: it explains why vanilla
//! Nova + DRS placements are inefficient (Sections 2.2, 5–6). A simulator
//! that only emits end-of-run aggregates cannot answer "why did VM X land
//! on node Y?" for any single decision. This crate supplies the recording
//! substrate that turns the simulator into a research instrument:
//!
//! * [`Recorder`] — the sink trait. It carries a `const ENABLED` flag so
//!   call sites can be written as `if R::ENABLED { … }` and monomorphize
//!   to **nothing** when the [`NullRecorder`] is in use: the hot path and
//!   the determinism contract (bit-identical `canonical_bytes()` with
//!   observability on, off, or at any thread count) are untouched.
//! * [`JsonlRecorder`] — a bounded, ring-buffered recorder of typed
//!   [`ObsEvent`]s plus unbounded-but-tiny named counters, exportable as
//!   JSON Lines ([`JsonlRecorder::write_jsonl`], one [`LogLine`] each)
//!   and as a Chrome `chrome://tracing` trace
//!   ([`JsonlRecorder::write_chrome_trace`]).
//! * [`DecisionRecord`] — the scheduler decision audit log entry: candidate
//!   set size, per-filter rejection counts, per-weigher scores of the
//!   top-k survivors, the chosen host, and retry depth.
//! * [`MetricsRegistry`] — deterministic engine-health metrics: named
//!   counters, gauges, and log-linear [`Histogram`]s with fixed
//!   power-of-two bucket boundaries, so snapshots from different runs or
//!   sweep cells merge bit-stably. Exported as the versioned
//!   `sapsim.metrics/v1` JSON line; collected by [`MetricsRecorder`] (or
//!   [`JsonlRecorder::with_metrics`]) and folded from engine snapshots
//!   through [`Recorder::metrics_mut`]. The registry also renders itself
//!   as a Prometheus text page ([`MetricsRegistry::to_prometheus`]): the
//!   one renderer behind `serve`'s `/metrics`, `sapsim obs metrics --prom`
//!   and `sapsim obs summary --prom`.
//! * [`ProgressRecorder`] — wraps any recorder and prints the live
//!   `--progress` heartbeat from the [`Recorder::tick`]/`finish` hooks.
//! * [`RunProfile`] — aggregated wall-clock timing per event-loop phase
//!   (scrape with its sample/reduce/record breakdown, DRS rounds, cross-BB
//!   rounds, placements), carried on the driver's `RunResult` but excluded
//!   from canonical serialization.
//!
//! Decision sampling ([`ObsConfig::decision_sample_rate`]) hashes the VM
//! uid through a SplitMix64 finalizer rather than drawing from any
//! simulation RNG stream, so changing the rate can never perturb a run.
//!
//! The crate depends on nothing but the workspace's JSON codec. Every
//! record it writes is declared once with `json_codec!` — the JSONL lines
//! as one [`LogLine`] enum tagged by `type`, the Chrome complete event,
//! the `sapsim.metrics/v1` entries — and `sapsim obs` reads the files
//! back through the same declarations.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::too_many_lines)]

mod event;
mod exposition;
mod metrics;
mod profile;
mod progress;
mod recorder;

pub use event::{
    DecisionOutcome, DecisionRecord, FaultEventKind, FaultRecord, HostScore, LogLine, LogMeta,
    Name, ObsEvent, SpanKind, SpanRecord, DECISION_TOP_K,
};
pub use metrics::{
    bucket_index, bucket_upper_bound, Histogram, MetricKey, MetricsRegistry, Sample, HIST_BUCKETS,
    HIST_SUB_BITS, HIST_SUB_BUCKETS, METRICS_SCHEMA,
};
pub use profile::{PhaseStat, RunProfile};
pub use progress::ProgressRecorder;
pub use recorder::{
    JsonlRecorder, MetricsRecorder, NullRecorder, ObsConfig, ObsError, Recorder, RunProgress,
};
