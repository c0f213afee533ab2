//! # sapsim-topology — the infrastructure hierarchy
//!
//! Models the hierarchical abstractions of the SAP Cloud Infrastructure
//! (paper Section 2.1, Figure 1):
//!
//! ```text
//! Region ──▶ Availability Zone ──▶ Data Center ──▶ Building Block ──▶ Compute Node
//! ```
//!
//! * A **compute node** is a physical machine running a hypervisor (VMware
//!   ESXi in the paper). It has fixed hardware capacity.
//! * A **building block** (BB) — synonymous with *vSphere cluster* and with
//!   the OpenStack-level *compute host* — groups 2–128 homogeneous nodes.
//!   Nova places VMs onto building blocks; the DRS-style rebalancer then
//!   assigns them to individual nodes (paper Section 3.1).
//! * A **data center** (DC) hosts multiple building blocks and is the
//!   placement and scheduling domain of this study (cross-DC migration is
//!   out of scope, paper Section 3.1).
//! * **Availability zones** group independent DCs; **regions** group AZs.
//!
//! The crate is pure data: arena-backed storage with typed ids, capacity
//! arithmetic, hardware profiles, and builders — including presets for the
//! paper's Appendix D (Table 5) regional deployments.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod builder;
mod capacity;
mod hardware;
mod ids;
mod presets;
mod topology;

pub use builder::{BuildingBlockSpec, TopologyBuilder};
pub use capacity::{Resources, ResourceKind};
pub use hardware::{HardwareProfile, OvercommitPolicy};
pub use ids::{AzId, BbId, DcId, NodeId, RegionId};
pub use presets::{
    paper_estate, paper_estate_custom, paper_estate_replicated, paper_region,
    paper_region_custom, paper_table5, scaled_paper_region, DcPreset, PresetScale, RegionDcs,
};
pub use topology::{
    AvailabilityZone, BbPurpose, BuildingBlock, ComputeNode, DataCenter, NodeState, Region,
    Topology, TopologyError,
};
