//! Hardware profiles and overcommit policies.
//!
//! Within a building block, hosts are homogeneous; across building blocks
//! they differ (paper Section 3.2). The profiles below model the hardware
//! generations present in an enterprise VMware fleet: general-purpose
//! two-socket hosts, and large-memory hosts reserved for SAP HANA
//! (paper Section 3.1: special-purpose building blocks for >3 TB flavors).

use crate::capacity::Resources;

/// A compute-node hardware configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct HardwareProfile {
    /// Short machine-readable name, e.g. `"gp-48c-768g"`.
    pub name: String,
    /// Physical capacity of one node.
    pub physical: Resources,
    /// NIC line rate in Gbps. The paper's DC supports 200 Gbps per node.
    pub(crate) network_gbps: f64,
}

impl HardwareProfile {
    /// General-purpose host: 2×24-core sockets, 768 GiB RAM, 4 TiB local
    /// disk, 200 Gbps NIC. The workhorse of the fleet.
    pub fn general_purpose() -> Self {
        HardwareProfile {
            name: "gp-48c-768g".to_string(),
            physical: Resources::with_memory_gib(48, 768, 4096),
            network_gbps: 200.0,
        }
    }

    /// Dense general-purpose host of a newer generation: 2×48 cores,
    /// 1.5 TiB RAM.
    pub fn general_purpose_dense() -> Self {
        HardwareProfile {
            name: "gp-96c-1536g".to_string(),
            physical: Resources::with_memory_gib(96, 1536, 8192),
            network_gbps: 200.0,
        }
    }

    /// HANA host: 4 sockets, 6 TiB RAM, for memory-intensive in-memory
    /// database VMs up to multiple TiB.
    pub fn hana_large() -> Self {
        HardwareProfile {
            name: "hana-224c-6t".to_string(),
            physical: Resources::with_memory_gib(224, 6144, 16384),
            network_gbps: 200.0,
        }
    }

    /// Extra-large HANA host: 8 sockets, 12 TiB RAM — hosts the paper's
    /// up-to-12-TB-per-VM memory allocations (Table 3 caption).
    pub(crate) fn hana_xlarge() -> Self {
        HardwareProfile {
            name: "hana-448c-12t".to_string(),
            physical: Resources::with_memory_gib(448, 12288, 32768),
            network_gbps: 200.0,
        }
    }
}

/// How far requested (virtual) resources may exceed physical ones on a node.
///
/// Infrastructure providers split pCPUs into multiple vCPUs; the paper
/// (Section 7, "Overprovisioning is still common") discusses the vCPU:pCPU
/// overcommit factor as a first-order scheduling knob and motivates the A2
/// overcommit-sweep ablation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OvercommitPolicy {
    /// vCPU : pCPU ratio (≥ 1.0). 4.0 means a 48-core node exposes 192
    /// schedulable vCPUs.
    pub(crate) cpu_ratio: f64,
    /// Virtual : physical memory ratio. Memory is typically *not*
    /// overcommitted for enterprise workloads (1.0); HANA hosts even reserve
    /// headroom (<1.0 is allowed to model reserved capacity).
    pub(crate) memory_ratio: f64,
    /// Virtual : physical disk ratio (thin provisioning).
    pub(crate) disk_ratio: f64,
}

impl OvercommitPolicy {
    /// No overcommitment in any dimension.
    pub const NONE: OvercommitPolicy = OvercommitPolicy {
        cpu_ratio: 1.0,
        memory_ratio: 1.0,
        disk_ratio: 1.0,
    };

    /// Default policy for general-purpose building blocks: 4:1 CPU,
    /// no memory overcommit, mild thin provisioning.
    pub const fn general_purpose() -> Self {
        OvercommitPolicy {
            cpu_ratio: 4.0,
            memory_ratio: 1.0,
            disk_ratio: 1.5,
        }
    }

    /// Policy for HANA building blocks: memory residency is paramount, so
    /// no overcommit at all and a small memory reserve for the hypervisor.
    pub const fn hana() -> Self {
        OvercommitPolicy {
            cpu_ratio: 1.0,
            memory_ratio: 0.97,
            disk_ratio: 1.0,
        }
    }

    /// Schedulable (virtual) capacity of a node under this policy.
    pub fn virtual_capacity(&self, physical: &Resources) -> Resources {
        Resources {
            cpu_cores: (physical.cpu_cores as f64 * self.cpu_ratio).floor() as u32,
            memory_mib: (physical.memory_mib as f64 * self.memory_ratio).floor() as u64,
            disk_gib: (physical.disk_gib as f64 * self.disk_ratio).floor() as u64,
        }
    }

    /// A copy of this policy with a different CPU ratio (for the A2 sweep).
    pub(crate) fn with_cpu_ratio(mut self, ratio: f64) -> Self {
        assert!(ratio > 0.0, "cpu overcommit ratio must be positive");
        self.cpu_ratio = ratio;
        self
    }
}

impl Default for OvercommitPolicy {
    fn default() -> Self {
        Self::general_purpose()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_are_distinct_and_sane() {
        let all = [
            HardwareProfile::general_purpose(),
            HardwareProfile::general_purpose_dense(),
            HardwareProfile::hana_large(),
            HardwareProfile::hana_xlarge(),
        ];
        for p in &all {
            assert!(p.physical.cpu_cores >= 48);
            assert!(p.physical.memory_mib >= 768 * 1024);
            assert_eq!(p.network_gbps, 200.0, "paper: 200 Gbps NICs");
        }
        let names: std::collections::HashSet<_> = all.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(names.len(), all.len());
    }

    #[test]
    fn hana_xlarge_fits_a_12tb_vm() {
        // Table 3: the SAP dataset includes VMs with up to 12 TB of memory.
        let host = HardwareProfile::hana_xlarge();
        let vm = Resources::with_memory_gib(256, 12 * 1024, 1024);
        assert!(host.physical.fits(&vm));
    }

    #[test]
    fn overcommit_scales_cpu_only_by_default_gp() {
        let p = OvercommitPolicy::general_purpose();
        let phys = HardwareProfile::general_purpose().physical;
        let v = p.virtual_capacity(&phys);
        assert_eq!(v.cpu_cores, 192);
        assert_eq!(v.memory_mib, phys.memory_mib);
        assert_eq!(v.disk_gib, phys.disk_gib * 3 / 2);
    }

    #[test]
    fn hana_policy_reserves_memory() {
        let p = OvercommitPolicy::hana();
        let phys = HardwareProfile::hana_large().physical;
        let v = p.virtual_capacity(&phys);
        assert_eq!(v.cpu_cores, phys.cpu_cores);
        assert!(v.memory_mib < phys.memory_mib);
        assert!(v.memory_mib > phys.memory_mib * 9 / 10);
    }

    #[test]
    fn with_cpu_ratio_overrides() {
        let p = OvercommitPolicy::general_purpose().with_cpu_ratio(2.0);
        assert_eq!(p.cpu_ratio, 2.0);
        assert_eq!(p.memory_ratio, 1.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_cpu_ratio_rejected() {
        let _ = OvercommitPolicy::general_purpose().with_cpu_ratio(0.0);
    }
}
