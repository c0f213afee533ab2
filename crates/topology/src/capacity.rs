//! Resource vectors: the unit of capacity and demand accounting.
//!
//! Four resources matter in the paper's analysis (Section 5): CPU, memory,
//! network, and local storage. VM flavors request vCPUs / memory / disk;
//! nodes provide pCPU cores / memory / disk / NIC bandwidth. We keep both in
//! one vector type so that capacity arithmetic (fits? remaining? utilization
//! ratio?) is uniform across the scheduler and the hypervisor model.

use sapsim_json::json_codec;
use std::fmt;
use std::ops::{Add, AddAssign, Sub, SubAssign};

/// The resource dimensions tracked by the simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ResourceKind {
    /// CPU, counted in (virtual or physical) cores.
    Cpu,
    /// Memory, counted in MiB.
    Memory,
    /// Local disk, counted in GiB.
    Storage,
}

impl fmt::Display for ResourceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ResourceKind::Cpu => write!(f, "cpu"),
            ResourceKind::Memory => write!(f, "memory"),
            ResourceKind::Storage => write!(f, "storage"),
        }
    }
}

/// A vector of resource quantities.
///
/// Used both for *capacities* (what a node provides) and *requests* (what a
/// flavor asks for). Units: cores / MiB / GiB.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Resources {
    /// CPU cores (vCPUs for requests, pCPU cores for node capacity).
    pub cpu_cores: u32,
    /// Memory in MiB.
    pub memory_mib: u64,
    /// Local disk in GiB.
    pub disk_gib: u64,
}

json_codec!(struct Resources { cpu_cores, memory_mib, disk_gib });

impl Resources {
    /// The zero vector.
    pub const ZERO: Resources = Resources {
        cpu_cores: 0,
        memory_mib: 0,
        disk_gib: 0,
    };

    /// Construct a resource vector.
    pub const fn new(cpu_cores: u32, memory_mib: u64, disk_gib: u64) -> Self {
        Resources {
            cpu_cores,
            memory_mib,
            disk_gib,
        }
    }

    /// Convenience constructor with memory given in GiB.
    pub const fn with_memory_gib(cpu_cores: u32, memory_gib: u64, disk_gib: u64) -> Self {
        Resources {
            cpu_cores,
            memory_mib: memory_gib * 1024,
            disk_gib,
        }
    }

    /// Memory in GiB (truncating).
    pub const fn memory_gib(&self) -> u64 {
        self.memory_mib / 1024
    }

    /// Quantity of one dimension, as f64 (cores / MiB / GiB).
    pub fn get(&self, kind: ResourceKind) -> f64 {
        match kind {
            ResourceKind::Cpu => self.cpu_cores as f64,
            ResourceKind::Memory => self.memory_mib as f64,
            ResourceKind::Storage => self.disk_gib as f64,
        }
    }

    /// True if every dimension of `request` fits within `self`.
    pub fn fits(&self, request: &Resources) -> bool {
        self.cpu_cores >= request.cpu_cores
            && self.memory_mib >= request.memory_mib
            && self.disk_gib >= request.disk_gib
    }

    /// Per-dimension saturating subtraction.
    pub fn saturating_sub(&self, other: &Resources) -> Resources {
        Resources {
            cpu_cores: self.cpu_cores.saturating_sub(other.cpu_cores),
            memory_mib: self.memory_mib.saturating_sub(other.memory_mib),
            disk_gib: self.disk_gib.saturating_sub(other.disk_gib),
        }
    }

    /// Scale each dimension by a non-negative factor, rounding down.
    /// Used to apply overcommit ratios to physical capacity.
    pub fn scale(&self, factor: f64) -> Resources {
        debug_assert!(factor >= 0.0);
        Resources {
            cpu_cores: (self.cpu_cores as f64 * factor).floor() as u32,
            memory_mib: (self.memory_mib as f64 * factor).floor() as u64,
            disk_gib: (self.disk_gib as f64 * factor).floor() as u64,
        }
    }

    /// True if all dimensions are zero.
    pub fn is_zero(&self) -> bool {
        *self == Resources::ZERO
    }
}

impl Add for Resources {
    type Output = Resources;
    fn add(self, rhs: Resources) -> Resources {
        Resources {
            cpu_cores: self.cpu_cores + rhs.cpu_cores,
            memory_mib: self.memory_mib + rhs.memory_mib,
            disk_gib: self.disk_gib + rhs.disk_gib,
        }
    }
}

impl AddAssign for Resources {
    fn add_assign(&mut self, rhs: Resources) {
        *self = *self + rhs;
    }
}

impl Sub for Resources {
    type Output = Resources;
    /// Saturating per-dimension subtraction (capacity accounting should
    /// never wrap).
    fn sub(self, rhs: Resources) -> Resources {
        self.saturating_sub(&rhs)
    }
}

impl SubAssign for Resources {
    fn sub_assign(&mut self, rhs: Resources) {
        *self = *self - rhs;
    }
}

impl fmt::Display for Resources {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}c/{}GiB/{}GiB-disk",
            self.cpu_cores,
            self.memory_mib / 1024,
            self.disk_gib
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fits_is_per_dimension() {
        let cap = Resources::new(16, 65536, 500);
        assert!(cap.fits(&Resources::new(16, 65536, 500)));
        assert!(cap.fits(&Resources::new(1, 1024, 10)));
        assert!(!cap.fits(&Resources::new(17, 1024, 10)));
        assert!(!cap.fits(&Resources::new(1, 70000, 10)));
        assert!(!cap.fits(&Resources::new(1, 1024, 501)));
        assert!(cap.fits(&Resources::ZERO));
    }

    #[test]
    fn add_sub_roundtrip() {
        let a = Resources::new(4, 8192, 100);
        let b = Resources::new(2, 4096, 50);
        assert_eq!(a + b, Resources::new(6, 12288, 150));
        assert_eq!((a + b) - b, a);
        assert_eq!(b - a, Resources::ZERO);
    }

    #[test]
    fn scale_applies_overcommit() {
        let physical = Resources::new(48, 768 * 1024, 2000);
        let virtual_cap = physical.scale(4.0);
        assert_eq!(virtual_cap.cpu_cores, 192);
        assert_eq!(virtual_cap.memory_mib, 4 * 768 * 1024);
        assert_eq!(physical.scale(0.5).cpu_cores, 24);
    }

    #[test]
    fn memory_gib_helpers() {
        let r = Resources::with_memory_gib(8, 64, 100);
        assert_eq!(r.memory_mib, 65536);
        assert_eq!(r.memory_gib(), 64);
    }

    #[test]
    fn display_is_compact() {
        assert_eq!(Resources::new(8, 65536, 100).to_string(), "8c/64GiB/100GiB-disk");
    }

    #[test]
    fn get_by_kind_is_consistent() {
        let r = Resources::new(3, 2048, 7);
        assert_eq!(r.get(ResourceKind::Cpu), 3.0);
        assert_eq!(r.get(ResourceKind::Memory), 2048.0);
        assert_eq!(r.get(ResourceKind::Storage), 7.0);
    }
}
