//! Filters: eliminate candidates that cannot host the request.
//!
//! Mirrors Nova's filter stage (paper Figure 3): "the scheduler requests
//! the list of all hypervisors, then applies a set of filters to eliminate
//! hypervisors that do not meet the requirements of the requested VM."

use crate::request::{HostView, PlacementRequest, RejectReason};

/// A placement filter. Filters are pure predicates over a candidate view.
pub trait Filter: Send + Sync {
    /// Short name for logs and stats (e.g. `"ComputeFilter"`).
    fn name(&self) -> &'static str;

    /// `Ok(())` to keep the candidate, `Err(reason)` to eliminate it.
    fn check(&self, request: &PlacementRequest, host: &HostView) -> Result<(), RejectReason>;
}

/// Rejects disabled / in-maintenance candidates (Nova's `ComputeFilter`
/// host-status behaviour).
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct ComputeStatusFilter;

impl Filter for ComputeStatusFilter {
    fn name(&self) -> &'static str {
        "ComputeStatusFilter"
    }

    fn check(&self, _request: &PlacementRequest, host: &HostView) -> Result<(), RejectReason> {
        if host.enabled {
            Ok(())
        } else {
            Err(RejectReason::HostDisabled)
        }
    }
}

/// Ensures the VM is assigned to the requested availability zone
/// (Nova's `AvailabilityZoneFilter`). Requests without an AZ constraint
/// pass everywhere.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct AvailabilityZoneFilter;

impl Filter for AvailabilityZoneFilter {
    fn name(&self) -> &'static str {
        "AvailabilityZoneFilter"
    }

    fn check(&self, request: &PlacementRequest, host: &HostView) -> Result<(), RejectReason> {
        match request.az {
            None => Ok(()),
            Some(az) if az == host.az => Ok(()),
            Some(_) => Err(RejectReason::WrongAz),
        }
    }
}

/// Enforces special-purpose building-block isolation (paper Section 3.1:
/// HANA/GPU blocks "do not accommodate other VMs" and vice versa). The
/// production equivalent is Nova's aggregate/tenant filtering.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct PurposeFilter;

impl Filter for PurposeFilter {
    fn name(&self) -> &'static str {
        "PurposeFilter"
    }

    fn check(&self, request: &PlacementRequest, host: &HostView) -> Result<(), RejectReason> {
        if host.purpose.accepts(request.purpose) {
            Ok(())
        } else {
            Err(RejectReason::WrongPurpose)
        }
    }
}

/// Removes candidates with insufficient free vCPU capacity (the CPU half
/// of Nova's `ComputeFilter` / `CoreFilter`).
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct ComputeFilter;

impl Filter for ComputeFilter {
    fn name(&self) -> &'static str {
        "ComputeFilter"
    }

    fn check(&self, request: &PlacementRequest, host: &HostView) -> Result<(), RejectReason> {
        if host.free().cpu_cores >= request.resources.cpu_cores {
            Ok(())
        } else {
            Err(RejectReason::InsufficientCpu)
        }
    }
}

/// Removes candidates with insufficient free memory (Nova's `RamFilter`).
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct RamFilter;

impl Filter for RamFilter {
    fn name(&self) -> &'static str {
        "RamFilter"
    }

    fn check(&self, request: &PlacementRequest, host: &HostView) -> Result<(), RejectReason> {
        if host.free().memory_mib >= request.resources.memory_mib {
            Ok(())
        } else {
            Err(RejectReason::InsufficientMemory)
        }
    }
}

/// Removes candidates with insufficient free disk (Nova's `DiskFilter`).
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct DiskFilter;

impl Filter for DiskFilter {
    fn name(&self) -> &'static str {
        "DiskFilter"
    }

    fn check(&self, request: &PlacementRequest, host: &HostView) -> Result<(), RejectReason> {
        if host.free().disk_gib >= request.resources.disk_gib {
            Ok(())
        } else {
            Err(RejectReason::InsufficientDisk)
        }
    }
}

/// The default filter chain, in Nova's evaluation order: cheap status and
/// constraint checks first, capacity checks last.
pub fn default_filters() -> Vec<Box<dyn Filter>> {
    vec![
        Box::new(ComputeStatusFilter),
        Box::new(AvailabilityZoneFilter),
        Box::new(PurposeFilter),
        Box::new(ComputeFilter),
        Box::new(RamFilter),
        Box::new(DiskFilter),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::test_support::host;
    use sapsim_topology::{AzId, BbPurpose, Resources};

    fn req(cpu: u32, mem_mib: u64, disk: u64) -> PlacementRequest {
        PlacementRequest::new(
            1,
            Resources::new(cpu, mem_mib, disk),
            BbPurpose::GeneralPurpose,
        )
    }

    #[test]
    fn status_filter() {
        let mut h = host(0, Resources::new(10, 10, 10), Resources::ZERO);
        assert!(ComputeStatusFilter.check(&req(1, 1, 1), &h).is_ok());
        h.enabled = false;
        assert_eq!(
            ComputeStatusFilter.check(&req(1, 1, 1), &h),
            Err(RejectReason::HostDisabled)
        );
    }

    #[test]
    fn az_filter_without_constraint_passes_all() {
        let h = host(0, Resources::new(10, 10, 10), Resources::ZERO);
        assert!(AvailabilityZoneFilter.check(&req(1, 1, 1), &h).is_ok());
    }

    #[test]
    fn az_filter_with_constraint() {
        let h = host(0, Resources::new(10, 10, 10), Resources::ZERO);
        let ok = req(1, 1, 1).in_az(AzId::from_raw(0));
        let bad = req(1, 1, 1).in_az(AzId::from_raw(9));
        assert!(AvailabilityZoneFilter.check(&ok, &h).is_ok());
        assert_eq!(
            AvailabilityZoneFilter.check(&bad, &h),
            Err(RejectReason::WrongAz)
        );
    }

    #[test]
    fn purpose_filter_isolates_special_blocks() {
        let mut h = host(0, Resources::new(10, 10, 10), Resources::ZERO);
        h.purpose = BbPurpose::Hana;
        let gp = req(1, 1, 1);
        assert_eq!(
            PurposeFilter.check(&gp, &h),
            Err(RejectReason::WrongPurpose)
        );
        let hana = PlacementRequest::new(1, Resources::new(1, 1, 1), BbPurpose::Hana);
        assert!(PurposeFilter.check(&hana, &h).is_ok());
        // And the reverse: HANA VMs don't land on the general pool.
        let gp_host = host(1, Resources::new(10, 10, 10), Resources::ZERO);
        assert_eq!(
            PurposeFilter.check(&hana, &gp_host),
            Err(RejectReason::WrongPurpose)
        );
    }

    #[test]
    fn capacity_filters_check_free_not_total() {
        let h = host(0, Resources::new(10, 1000, 100), Resources::new(8, 900, 95));
        assert!(ComputeFilter.check(&req(2, 1, 1), &h).is_ok());
        assert_eq!(
            ComputeFilter.check(&req(3, 1, 1), &h),
            Err(RejectReason::InsufficientCpu)
        );
        assert!(RamFilter.check(&req(1, 100, 1), &h).is_ok());
        assert_eq!(
            RamFilter.check(&req(1, 101, 1), &h),
            Err(RejectReason::InsufficientMemory)
        );
        assert!(DiskFilter.check(&req(1, 1, 5), &h).is_ok());
        assert_eq!(
            DiskFilter.check(&req(1, 1, 6), &h),
            Err(RejectReason::InsufficientDisk)
        );
    }

    #[test]
    fn exact_fit_passes() {
        let h = host(0, Resources::new(4, 4096, 50), Resources::ZERO);
        assert!(ComputeFilter.check(&req(4, 4096, 50), &h).is_ok());
        assert!(RamFilter.check(&req(4, 4096, 50), &h).is_ok());
        assert!(DiskFilter.check(&req(4, 4096, 50), &h).is_ok());
    }

    #[test]
    fn default_chain_order_starts_cheap() {
        let names: Vec<_> = default_filters().iter().map(|f| f.name()).collect();
        assert_eq!(names[0], "ComputeStatusFilter");
        assert!(names.contains(&"RamFilter"));
        assert_eq!(names.len(), 6);
    }
}
