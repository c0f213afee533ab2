//! # sapsim-telemetry — the observability substrate
//!
//! The paper's dataset was produced by a Prometheus/Thanos monitoring stack
//! fed by two exporters: the vROps exporter (VMware vRealize Operations
//! metrics, prefix `vrops_`) and the MySQL server exporter reading the Nova
//! database (prefix `openstack_compute_`). Sampling intervals range from
//! 30 s to 300 s depending on the collector (paper Section 4).
//!
//! This crate reproduces that substrate in-process:
//!
//! * [`MetricId`] — the exact metric catalog of the paper's Table 4.
//! * [`TsdbStore`] — an append-only in-memory time-series database keyed by
//!   `(metric, entity)`.
//! * [`DailyRollup`] — streaming per-day aggregation (the unit of the
//!   paper's heatmaps, which plot *daily averages* per node), so that
//!   full-region runs don't need to retain every raw sample.
//! * [`summary`] — percentile/mean/max helpers used by the contention and
//!   ready-time analyses (Figures 8 and 9).
//!
//! The store is deliberately simple (sorted `Vec` per series, no
//! compression): runs are bounded (30 days) and the analysis layer consumes
//! everything sequentially. The store speaks no wire format: the
//! Prometheus text pages of the engine's own metrics are rendered by
//! `sapsim-obs`'s `MetricsRegistry::to_prometheus`.

#![warn(clippy::too_many_lines)]

mod metric;
mod registry;
mod rollup;
mod series;
mod store;
pub mod summary;

pub use metric::{EntityRef, MetricId, MetricKind, Subsystem};
pub use registry::metric_catalog;
pub use rollup::{DailyRollup, RunningStat};
pub use series::TimeSeries;
pub use store::TsdbStore;
