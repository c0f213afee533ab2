//! # sapsim-scheduler — VM placement and rebalancing
//!
//! Reproduces the scheduling architecture of the paper (Section 2.2,
//! Figures 2–3): a two-layer system in which
//!
//! 1. an **OpenStack-Nova-style scheduler** places VMs onto *compute hosts*
//!    (vSphere clusters / building blocks) through a filter-and-weigher
//!    pipeline with greedy retries, and
//! 2. a **VMware-DRS-style rebalancer** migrates VMs between the nodes of a
//!    cluster when their load diverges.
//!
//! The crate also provides the classic bin-packing baselines the paper
//! cites (First-Fit, Best-Fit, Worst-Fit and their Decreasing variants,
//! Section 3.2), and the *extensions* its discussion section calls for
//! (Section 7): contention-aware weighing, lifetime-aware weighing, and a
//! holistic node-level scheduler that collapses the two layers into one.
//!
//! All scheduling operates on [`HostView`] snapshots — plain data
//! describing each candidate's capacity, allocation, and hints — so the
//! pipeline is a pure function and trivially testable, mirroring how Nova's
//! scheduler works against the placement API's inventory records rather
//! than live hypervisors.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod filter;
mod index;
mod packing;
mod pipeline;
mod policies;
mod rebalance;
mod request;
mod weigher;

pub use filter::{
    default_filters, AvailabilityZoneFilter, ComputeFilter, ComputeStatusFilter, DiskFilter,
    Filter, PurposeFilter, RamFilter,
};
pub use index::{Bucket, CandidateIndex};
pub use packing::{pack_all, PackingOutcome, PackingStrategy};
pub use pipeline::{FilterScheduler, IndexStats, PipelineStats, RankOptions, Ranking, ScheduleError};
pub use policies::{PlacementPolicy, PolicyKind};
pub use rebalance::{
    CrossBbRebalancer, DrsConfig, DrsRebalancer, HostLoad, Migration, NodeLoad, RebalanceReport,
    Rebalancer, VmLoad,
};
pub use request::{HostView, PlacementRequest, RejectReason};
pub use weigher::{
    ContentionWeigher, CpuWeigher, DiskWeigher, LifetimeAffinityWeigher, RamWeigher, Weigher,
};
