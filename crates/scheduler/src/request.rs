//! Inputs to the placement pipeline: the request and the candidate views.

use sapsim_topology::{AzId, BbId, BbPurpose, NodeId, Resources};
use std::fmt;

/// A placement request: what a VM asks of the scheduler.
///
/// Mirrors the information Nova's scheduler extracts from a boot request:
/// flavor resources, availability-zone constraint, and the aggregate
/// (purpose) the flavor is pinned to. The lifetime hint is an *extension*
/// used only by the lifetime-aware policy (paper Section 7: "placement
/// strategies that incorporate workload lifetime").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlacementRequest {
    /// Caller-side VM identity, echoed in logs and rebalance plans.
    pub vm_uid: u64,
    /// Requested resources (the flavor template).
    pub resources: Resources,
    /// Which building-block class the VM must land on.
    pub purpose: BbPurpose,
    /// Optional availability-zone constraint (Nova's
    /// `AvailabilityZoneFilter`).
    pub az: Option<AzId>,
    /// Expected lifetime in days, if the operator knows it.
    pub lifetime_hint_days: Option<f64>,
}

impl PlacementRequest {
    /// A general-purpose request with no AZ constraint.
    pub fn new(vm_uid: u64, resources: Resources, purpose: BbPurpose) -> Self {
        PlacementRequest {
            vm_uid,
            resources,
            purpose,
            az: None,
            lifetime_hint_days: None,
        }
    }

    /// Set the AZ constraint.
    pub fn in_az(mut self, az: AzId) -> Self {
        self.az = Some(az);
        self
    }
}

/// A snapshot of one placement candidate.
///
/// At the Nova layer a candidate is a whole building block (`node: None`);
/// the holistic scheduler extension produces one view per node instead.
/// The scheduler never mutates views — committing an allocation is the
/// caller's job after it accepts a candidate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HostView {
    /// The building block this candidate belongs to.
    pub bb: BbId,
    /// The specific node, for node-level scheduling; `None` for
    /// cluster-level candidates.
    pub node: Option<NodeId>,
    /// Reservation class of the block.
    pub purpose: BbPurpose,
    /// Availability zone.
    pub az: AzId,
    /// Schedulable capacity (overcommit already applied).
    pub capacity: Resources,
    /// Sum of requested resources of VMs already placed here.
    pub allocated: Resources,
    /// False when the candidate is disabled or in maintenance
    /// (Nova's `ComputeFilter` host-status check).
    pub enabled: bool,
    /// Recent CPU contention (percent, 0–100) — the historic-utilization
    /// signal the paper proposes feeding back into placement.
    pub contention_pct: f64,
    /// Mean remaining lifetime (days) of the VMs currently placed here —
    /// consumed by the lifetime-affinity extension.
    pub mean_remaining_lifetime_days: f64,
}

impl HostView {
    /// Free (unallocated) schedulable resources.
    pub(crate) fn free(&self) -> Resources {
        self.capacity.saturating_sub(&self.allocated)
    }

    /// Whether `request` fits in the remaining capacity.
    pub fn fits(&self, request: &Resources) -> bool {
        self.free().fits(request)
    }
}

/// Why a filter eliminated a candidate.
///
/// The derived `Ord` follows declaration order and gives every rejection
/// report (stats dumps, error messages, audit logs) one stable ordering.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RejectReason {
    /// Candidate disabled / in maintenance.
    HostDisabled,
    /// Wrong availability zone.
    WrongAz,
    /// Wrong building-block purpose (special-purpose isolation).
    WrongPurpose,
    /// Insufficient vCPU capacity.
    InsufficientCpu,
    /// Insufficient memory capacity.
    InsufficientMemory,
    /// Insufficient disk capacity.
    InsufficientDisk,
}

impl RejectReason {
    /// Every reason, in declaration (= `Ord`) order. Counting into a
    /// fixed `[u32; RejectReason::ALL.len()]` indexed by `reason as usize`
    /// and emitting in this order reproduces the ordering of a
    /// `BTreeMap<RejectReason, _>` without the allocation.
    pub(crate) const ALL: [RejectReason; 6] = [
        RejectReason::HostDisabled,
        RejectReason::WrongAz,
        RejectReason::WrongPurpose,
        RejectReason::InsufficientCpu,
        RejectReason::InsufficientMemory,
        RejectReason::InsufficientDisk,
    ];

    /// Stable snake-case identifier, used as the label in machine-readable
    /// output (observability counters, JSONL decision logs).
    pub const fn label(self) -> &'static str {
        match self {
            RejectReason::HostDisabled => "host_disabled",
            RejectReason::WrongAz => "wrong_az",
            RejectReason::WrongPurpose => "wrong_purpose",
            RejectReason::InsufficientCpu => "insufficient_cpu",
            RejectReason::InsufficientMemory => "insufficient_memory",
            RejectReason::InsufficientDisk => "insufficient_disk",
        }
    }
}

impl fmt::Display for RejectReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            RejectReason::HostDisabled => "host disabled",
            RejectReason::WrongAz => "wrong availability zone",
            RejectReason::WrongPurpose => "wrong building-block purpose",
            RejectReason::InsufficientCpu => "insufficient vCPU capacity",
            RejectReason::InsufficientMemory => "insufficient memory capacity",
            RejectReason::InsufficientDisk => "insufficient disk capacity",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
pub(crate) mod test_support {
    use super::*;
    use sapsim_topology::BbId;

    /// A general-purpose candidate with the given free CPU/memory, indexed
    /// by `i`.
    pub(crate) fn host(i: u32, cap: Resources, allocated: Resources) -> HostView {
        HostView {
            bb: BbId::from_raw(i),
            node: None,
            purpose: BbPurpose::GeneralPurpose,
            az: AzId::from_raw(0),
            capacity: cap,
            allocated,
            enabled: true,
            contention_pct: 0.0,
            mean_remaining_lifetime_days: 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::test_support::host;
    use super::*;

    #[test]
    fn free_and_fits() {
        let h = host(
            0,
            Resources::new(100, 1000, 100),
            Resources::new(60, 400, 10),
        );
        assert_eq!(h.free(), Resources::new(40, 600, 90));
        assert!(h.fits(&Resources::new(40, 600, 90)));
        assert!(!h.fits(&Resources::new(41, 1, 1)));
    }

    #[test]
    fn request_builder() {
        let r = PlacementRequest::new(7, Resources::new(4, 4096, 10), BbPurpose::GeneralPurpose)
            .in_az(AzId::from_raw(1));
        assert_eq!(r.az, Some(AzId::from_raw(1)));
        assert_eq!(r.lifetime_hint_days, None);
        assert_eq!(r.vm_uid, 7);
    }

    #[test]
    fn reject_reasons_render() {
        assert_eq!(RejectReason::WrongAz.to_string(), "wrong availability zone");
        assert_eq!(
            RejectReason::InsufficientMemory.to_string(),
            "insufficient memory capacity"
        );
        assert_eq!(RejectReason::WrongAz.label(), "wrong_az");
        assert_eq!(
            RejectReason::InsufficientMemory.label(),
            "insufficient_memory"
        );
    }

    #[test]
    fn reject_reasons_order_by_declaration() {
        assert!(RejectReason::HostDisabled < RejectReason::WrongAz);
        assert!(RejectReason::InsufficientCpu < RejectReason::InsufficientDisk);
    }

    #[test]
    fn all_reasons_are_sorted_and_index_themselves() {
        assert!(RejectReason::ALL.windows(2).all(|w| w[0] < w[1]));
        for (i, r) in RejectReason::ALL.iter().enumerate() {
            assert_eq!(*r as usize, i, "{r:?} must index slot {i}");
        }
    }
}
