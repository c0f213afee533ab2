//! The metric catalog: every metric of the paper's Table 4, plus the
//! entities they are recorded against.

use sapsim_json::{json_codec, variant, write_variant, DecodeError, FromJson, JsonValue, ToJson};
use sapsim_sim::SimDuration;
use std::fmt;

/// Which resource a metric describes (Table 4 "Resource" column).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MetricKind {
    /// CPU utilization / contention / ready time.
    Cpu,
    /// Memory usage.
    Memory,
    /// Network throughput.
    Network,
    /// Local storage usage.
    Storage,
    /// Inventory counters (instance totals).
    Inventory,
}

/// Which level of the infrastructure a metric is recorded against
/// (Table 4 "Subsystem" column).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Subsystem {
    /// Per compute node (the paper's Table 4 says "compute host"; its
    /// Section 5 terminology maps vROps host metrics to physical nodes).
    ComputeHost,
    /// Per virtual machine.
    Vm,
    /// Region-wide.
    Region,
}

/// The metrics collected in the paper (Table 4), by exporter:
///
/// * `vrops_*` — VMware vRealize Operations exporter, 300 s sampling.
/// * `openstack_compute_*` — Nova database via MySQL exporter, 30 s.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum MetricId {
    /// `vrops_hostsystem_cpu_core_utilization_percentage` — utilization of
    /// CPU per compute host (percent, 0–100).
    HostCpuUtilPct,
    /// `vrops_hostsystem_cpu_contention_percentage` — observed CPU
    /// contention per compute host (percent).
    HostCpuContentionPct,
    /// `vrops_hostsystem_cpu_ready_milliseconds` — duration a VM is ready
    /// but waits for scheduling, summed per host (ms per sampling window).
    HostCpuReadyMs,
    /// `vrops_hostsystem_memory_usage_percentage` — utilization of compute
    /// host memory (percent).
    HostMemUsagePct,
    /// `vrops_hostsystem_network_bytes_tx_kbps` — transmitted traffic (kbps).
    HostNetTxKbps,
    /// `vrops_hostsystem_network_bytes_rx_kbps` — received traffic (kbps).
    HostNetRxKbps,
    /// `vrops_hostsystem_diskspace_usage_gigabytes` — local storage used (GB).
    HostDiskUsageGb,
    /// `vrops_virtualmachine_cpu_usage_ratio` — percentage of requested and
    /// used CPU per VM (ratio 0–1 of the flavor's vCPUs).
    VmCpuUsageRatio,
    /// `vrops_virtualmachine_memory_consumed_ratio` — percentage of
    /// requested and used memory per VM (ratio 0–1).
    VmMemConsumedRatio,
    /// `openstack_compute_nodes_vcpus_gauge` — schedulable vCPUs per
    /// compute host.
    OsVcpus,
    /// `openstack_compute_nodes_vcpus_used_gauge` — allocated vCPUs per
    /// compute host.
    OsVcpusUsed,
    /// `openstack_compute_nodes_memory_mb_gauge` — schedulable memory (MB).
    OsMemoryMb,
    /// `openstack_compute_nodes_memory_mb_used_gauge` — allocated memory (MB).
    OsMemoryMbUsed,
    /// `openstack_compute_instances_total` — total number of VMs within the
    /// regional deployment.
    OsInstancesTotal,
}

json_codec!(enum MetricId {
    HostCpuUtilPct, HostCpuContentionPct, HostCpuReadyMs, HostMemUsagePct, HostNetTxKbps,
    HostNetRxKbps, HostDiskUsageGb, VmCpuUsageRatio, VmMemConsumedRatio, OsVcpus, OsVcpusUsed,
    OsMemoryMb, OsMemoryMbUsed, OsInstancesTotal,
});

impl MetricId {
    /// Number of metrics in the catalog — the row count of Table 4 and the
    /// per-metric stride of dense storage tables.
    pub const COUNT: usize = MetricId::ALL.len();

    /// All metrics in Table 4 order.
    pub const ALL: [MetricId; 14] = [
        MetricId::HostCpuUtilPct,
        MetricId::HostCpuContentionPct,
        MetricId::HostCpuReadyMs,
        MetricId::HostMemUsagePct,
        MetricId::HostNetTxKbps,
        MetricId::HostNetRxKbps,
        MetricId::HostDiskUsageGb,
        MetricId::VmCpuUsageRatio,
        MetricId::VmMemConsumedRatio,
        MetricId::OsVcpus,
        MetricId::OsVcpusUsed,
        MetricId::OsMemoryMb,
        MetricId::OsMemoryMbUsed,
        MetricId::OsInstancesTotal,
    ];

    /// Dense table index of this metric: its position in [`MetricId::ALL`]
    /// (the enum is declared in Table 4 order, so the discriminant *is* the
    /// position — asserted by a unit test).
    pub const fn index(self) -> usize {
        self as usize
    }

    /// The exporter metric name as it appears in the dataset.
    pub const fn name(self) -> &'static str {
        match self {
            MetricId::HostCpuUtilPct => "vrops_hostsystem_cpu_core_utilization_percentage",
            MetricId::HostCpuContentionPct => "vrops_hostsystem_cpu_contention_percentage",
            MetricId::HostCpuReadyMs => "vrops_hostsystem_cpu_ready_milliseconds",
            MetricId::HostMemUsagePct => "vrops_hostsystem_memory_usage_percentage",
            MetricId::HostNetTxKbps => "vrops_hostsystem_network_bytes_tx_kbps",
            MetricId::HostNetRxKbps => "vrops_hostsystem_network_bytes_rx_kbps",
            MetricId::HostDiskUsageGb => "vrops_hostsystem_diskspace_usage_gigabytes",
            MetricId::VmCpuUsageRatio => "vrops_virtualmachine_cpu_usage_ratio",
            MetricId::VmMemConsumedRatio => "vrops_virtualmachine_memory_consumed_ratio",
            MetricId::OsVcpus => "openstack_compute_nodes_vcpus_gauge",
            MetricId::OsVcpusUsed => "openstack_compute_nodes_vcpus_used_gauge",
            MetricId::OsMemoryMb => "openstack_compute_nodes_memory_mb_gauge",
            MetricId::OsMemoryMbUsed => "openstack_compute_nodes_memory_mb_used_gauge",
            MetricId::OsInstancesTotal => "openstack_compute_instances_total",
        }
    }

    /// Parse a metric by its exporter name.
    pub fn from_name(name: &str) -> Option<MetricId> {
        MetricId::ALL.iter().copied().find(|m| m.name() == name)
    }

    /// Which resource the metric describes.
    pub const fn kind(self) -> MetricKind {
        match self {
            MetricId::HostCpuUtilPct
            | MetricId::HostCpuContentionPct
            | MetricId::HostCpuReadyMs
            | MetricId::VmCpuUsageRatio
            | MetricId::OsVcpus
            | MetricId::OsVcpusUsed => MetricKind::Cpu,
            MetricId::HostMemUsagePct
            | MetricId::VmMemConsumedRatio
            | MetricId::OsMemoryMb
            | MetricId::OsMemoryMbUsed => MetricKind::Memory,
            MetricId::HostNetTxKbps | MetricId::HostNetRxKbps => MetricKind::Network,
            MetricId::HostDiskUsageGb => MetricKind::Storage,
            MetricId::OsInstancesTotal => MetricKind::Inventory,
        }
    }

    /// Which infrastructure level the metric is recorded against.
    pub const fn subsystem(self) -> Subsystem {
        match self {
            MetricId::VmCpuUsageRatio | MetricId::VmMemConsumedRatio => Subsystem::Vm,
            MetricId::OsInstancesTotal => Subsystem::Region,
            _ => Subsystem::ComputeHost,
        }
    }

    /// Default sampling interval of the collecting exporter. vROps scrapes
    /// every 300 s; the Nova database exporter every 30 s (the paper's
    /// "granularities ranging from 30 to 300 seconds").
    pub const fn sampling_interval(self) -> SimDuration {
        if self.is_vrops() {
            SimDuration::from_secs(300)
        } else {
            SimDuration::from_secs(30)
        }
    }

    /// True for vROps-exported metrics (`vrops_` prefix).
    pub const fn is_vrops(self) -> bool {
        !matches!(
            self,
            MetricId::OsVcpus
                | MetricId::OsVcpusUsed
                | MetricId::OsMemoryMb
                | MetricId::OsMemoryMbUsed
                | MetricId::OsInstancesTotal
        )
    }
}

impl fmt::Display for MetricId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The entity a sample is recorded against.
///
/// Raw integer ids are used so this crate stays independent of the topology
/// and workload crates; `sapsim-core` converts its typed ids at the
/// recording boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum EntityRef {
    /// A compute node, by topology arena index.
    Node(u32),
    /// A building block, by topology arena index.
    Bb(u32),
    /// A virtual machine, by VM uid.
    Vm(u64),
    /// The whole region.
    Region,
}

impl ToJson for EntityRef {
    fn write_json(&self, out: &mut String) {
        match *self {
            EntityRef::Node(i) => write_variant(out, "Node", &i),
            EntityRef::Bb(i) => write_variant(out, "Bb", &i),
            EntityRef::Vm(uid) => write_variant(out, "Vm", &uid),
            EntityRef::Region => "Region".write_json(out),
        }
    }
}

impl FromJson for EntityRef {
    fn from_json(value: &JsonValue) -> Result<Self, DecodeError> {
        match variant(value)? {
            ("Node", i) => u32::from_json(i).map(EntityRef::Node),
            ("Bb", i) => u32::from_json(i).map(EntityRef::Bb),
            ("Vm", uid) => u64::from_json(uid).map(EntityRef::Vm),
            ("Region", JsonValue::Null) => Ok(EntityRef::Region),
            (other, _) => Err(DecodeError::unknown_name(other, vec!["Node", "Bb", "Vm", "Region"])),
        }
    }
}

impl fmt::Display for EntityRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EntityRef::Node(i) => write!(f, "node-{i}"),
            EntityRef::Bb(i) => write!(f, "bb-{i}"),
            EntityRef::Vm(i) => write!(f, "vm-{i}"),
            EntityRef::Region => write!(f, "region"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_is_complete_and_named_like_table4() {
        assert_eq!(MetricId::ALL.len(), 14);
        // Every vROps metric is prefixed vrops_, every Nova metric
        // openstack_compute_ — the paper's two exporter prefixes.
        for m in MetricId::ALL {
            if m.is_vrops() {
                assert!(m.name().starts_with("vrops_"), "{m}");
            } else {
                assert!(m.name().starts_with("openstack_compute_"), "{m}");
            }
        }
    }

    #[test]
    fn index_matches_position_in_all() {
        assert_eq!(MetricId::COUNT, MetricId::ALL.len());
        for (pos, m) in MetricId::ALL.iter().enumerate() {
            assert_eq!(m.index(), pos, "{m}");
            assert!(m.index() < MetricId::COUNT);
        }
    }

    #[test]
    fn names_are_unique_and_roundtrip() {
        let mut seen = std::collections::HashSet::new();
        for m in MetricId::ALL {
            assert!(seen.insert(m.name()));
            assert_eq!(MetricId::from_name(m.name()), Some(m));
        }
        assert_eq!(MetricId::from_name("nonexistent_metric"), None);
    }

    #[test]
    fn sampling_intervals_span_30_to_300_seconds() {
        assert_eq!(
            MetricId::HostCpuContentionPct.sampling_interval().as_secs(),
            300
        );
        assert_eq!(MetricId::OsInstancesTotal.sampling_interval().as_secs(), 30);
    }

    #[test]
    fn subsystems_match_table4() {
        assert_eq!(MetricId::VmCpuUsageRatio.subsystem(), Subsystem::Vm);
        assert_eq!(MetricId::VmMemConsumedRatio.subsystem(), Subsystem::Vm);
        assert_eq!(MetricId::OsInstancesTotal.subsystem(), Subsystem::Region);
        assert_eq!(MetricId::HostCpuReadyMs.subsystem(), Subsystem::ComputeHost);
    }

    #[test]
    fn kinds_cover_all_resources() {
        use std::collections::HashSet;
        let kinds: HashSet<_> = MetricId::ALL.iter().map(|m| m.kind()).collect();
        assert!(kinds.contains(&MetricKind::Cpu));
        assert!(kinds.contains(&MetricKind::Memory));
        assert!(kinds.contains(&MetricKind::Network));
        assert!(kinds.contains(&MetricKind::Storage));
        assert!(kinds.contains(&MetricKind::Inventory));
    }

    #[test]
    fn entity_display() {
        assert_eq!(EntityRef::Node(3).to_string(), "node-3");
        assert_eq!(EntityRef::Vm(12).to_string(), "vm-12");
        assert_eq!(EntityRef::Region.to_string(), "region");
    }
}
