//! Human-readable metric catalog — regenerates the paper's Table 4.

use crate::metric::{MetricId, MetricKind, Subsystem};

/// Catalog entry describing one metric (a row of Table 4).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricInfo {
    /// The metric.
    pub(crate) id: MetricId,
    /// Exporter name.
    pub name: &'static str,
    /// Resource column.
    pub kind: MetricKind,
    /// Subsystem column.
    pub subsystem: Subsystem,
    /// Description column.
    pub description: &'static str,
}

/// The full catalog in Table 4 order.
pub fn metric_catalog() -> Vec<MetricInfo> {
    MetricId::ALL
        .iter()
        .map(|&id| MetricInfo {
            id,
            name: id.name(),
            kind: id.kind(),
            subsystem: id.subsystem(),
            description: description(id),
        })
        .collect()
}

fn description(id: MetricId) -> &'static str {
    match id {
        MetricId::HostCpuUtilPct => "Utilization of CPU per compute host",
        MetricId::HostCpuContentionPct => "Observed CPU contention per compute host",
        MetricId::HostCpuReadyMs => "Duration a VM is ready but waits for scheduling",
        MetricId::HostMemUsagePct => "Utilization of compute host memory",
        MetricId::HostNetTxKbps => "Transmitted network traffic",
        MetricId::HostNetRxKbps => "Received network traffic",
        MetricId::HostDiskUsageGb => "Utilization of local storage",
        MetricId::VmCpuUsageRatio => "Percentage of requested and used CPU",
        MetricId::VmMemConsumedRatio => "Percentage of requested and used memory",
        MetricId::OsVcpus => "Number of vCPUs per compute host",
        MetricId::OsVcpusUsed => "Number of vCPUs used per compute host",
        MetricId::OsMemoryMb => "Amount of memory in MB per compute host",
        MetricId::OsMemoryMbUsed => "Amount of utilized memory in MB per compute host",
        MetricId::OsInstancesTotal => "Total number of VMs within the regional deployment",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_covers_every_metric() {
        let cat = metric_catalog();
        assert_eq!(cat.len(), MetricId::ALL.len());
        for info in &cat {
            assert!(!info.description.is_empty());
            assert_eq!(info.name, info.id.name());
        }
    }

    #[test]
    fn catalog_descriptions_are_unique() {
        let cat = metric_catalog();
        let set: std::collections::HashSet<_> = cat.iter().map(|i| i.description).collect();
        assert_eq!(set.len(), cat.len());
    }
}
