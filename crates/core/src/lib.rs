//! # sapsim-core — the cloud infrastructure simulator
//!
//! Ties every substrate together into an executable model of the SAP Cloud
//! Infrastructure's studied region (paper Section 3): the topology provides
//! the hardware inventory, the workload generator provides the VM stream,
//! the scheduler crate provides the two-layer Nova → DRS placement system,
//! and the telemetry crate records the same metrics the paper's monitoring
//! stack exported (Table 4).
//!
//! A run is a deterministic discrete-event simulation over a 30-day (by
//! default) observation window:
//!
//! * **VM lifecycle events** — creations (initial population + churn
//!   arrivals), deletions at lifetime expiry; each creation exercises the
//!   placement pipeline with greedy retries across ranked candidates.
//! * **Telemetry scrapes** — periodic sampling of every VM's demand model,
//!   aggregation into per-node physical load, the CPU contention / ready
//!   time model of [`hypervisor`], and recording into the TSDB.
//! * **Rebalancing rounds** — DRS-style intra-building-block migration
//!   planning, and (optionally) the cross-BB rebalancer the paper calls
//!   for.
//!
//! The entry point is [`SimDriver`]; see `examples/quickstart.rs` for a
//! minimal end-to-end run. Placement itself belongs to
//! [`PlacementEngine`], which a run holds and `sapsim serve` exposes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::too_many_lines)]

mod cloud;
mod config;
mod driver;
mod engine;
mod error;
pub mod hypervisor;
mod result;
pub mod scenario;
mod viewcache;

pub use cloud::{Cloud, CloudState, PlacedVm};
pub use config::{PlacementGranularity, SimConfig, SimConfigBuilder};
pub use driver::SimDriver;
pub use engine::{EvacReport, PlaceOutcome, PlaceSpec, PlacementEngine, ResizeResult};
pub use error::SimError;
pub use result::{DriverStats, FaultStats, RunResult, VmUsageSummary};
pub use scenario::{fnv1a_64, Scenario, SweepSpec};
pub use viewcache::{HostViewCacheStats, LayerCacheStats};

/// Re-export of the simulation duration: the [`SimConfig`] intervals
/// (scrape, DRS, cross-BB) are [`SimDuration`]s, so embedders setting them
/// need the type without naming the `sapsim-sim` crate themselves.
pub use sapsim_sim::SimDuration;

/// Re-export of the fault-injection layer: the spec travels on
/// [`SimConfig::faults`](crate::SimConfig), so embedders configuring faults
/// need the types without naming the `sapsim-faults` crate themselves.
pub use sapsim_faults::{FaultError, FaultPlan, FaultSpec};

/// Re-export of the observability substrate so embedders can drive
/// [`SimDriver::run_with_recorder`](crate::SimDriver) without naming the
/// `sapsim-obs` crate themselves.
pub use sapsim_obs as obs;

/// One-stop imports for embedders.
///
/// `use sapsim_core::prelude::*;` brings in everything needed to
/// configure, run, and sweep simulations without reaching into module
/// paths: the config surface ([`SimConfig`], [`SimConfigBuilder`],
/// [`PlacementGranularity`], [`PolicyKind`](sapsim_scheduler::PolicyKind),
/// [`FaultSpec`]), the session layer ([`Scenario`], [`SweepSpec`],
/// [`SimDriver`]), the outputs ([`RunResult`], [`DriverStats`]), and the
/// error type ([`SimError`]).
pub mod prelude {
    pub use crate::{
        DriverStats, FaultSpec, PlacementGranularity, RunResult, Scenario, SimConfig,
        SimConfigBuilder, SimDriver, SimError, SweepSpec,
    };
    pub use sapsim_scheduler::PolicyKind;
}
