//! VM specifications: the unit the generator emits and the simulator
//! consumes.

use crate::archetype::Archetype;
use crate::flavor::WorkloadClass;
use crate::usage::UsageModel;
use sapsim_json::json_codec;
use sapsim_topology::Resources;
use sapsim_sim::{SimDuration, SimTime};
use std::fmt;

/// A planned flavor change during the VM's life (the paper's telemetry
/// records creation, **resize**, migration, and deletion events,
/// Section 4).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResizeSpec {
    /// When the resize happens, measured from the VM's arrival.
    pub after: SimDuration,
    /// The new resource request (the target flavor's template).
    pub resources: Resources,
}

json_codec!(struct ResizeSpec { after, resources });

/// Unique VM identifier (stable across a run, never reused).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VmId(pub u64);

json_codec!(newtype VmId);

impl VmId {
    /// Raw id.
    pub const fn raw(self) -> u64 {
        self.0
    }
}

impl fmt::Display for VmId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "vm-{}", self.0)
    }
}

/// Everything the simulator needs to know about one VM before placement.
#[derive(Debug, Clone, PartialEq)]
pub struct VmSpec {
    /// Unique id.
    pub id: VmId,
    /// Index of the flavor in the generating catalog.
    pub flavor_index: usize,
    /// Flavor name (denormalized for reporting).
    pub flavor_name: String,
    /// Requested resources (the flavor's template).
    pub resources: Resources,
    /// Application archetype.
    pub archetype: Archetype,
    /// Placement class (general pool vs. HANA-reserved blocks).
    pub class: WorkloadClass,
    /// Demand model parameters.
    pub usage: UsageModel,
    /// When the VM arrives, in simulation time. `SimTime::ZERO` for the
    /// initial population that predates the observation window.
    pub arrival: SimTime,
    /// Age of the VM at `arrival` — nonzero only for the initial
    /// population, whose members were created before the window began.
    pub age_at_arrival: SimDuration,
    /// Total lifetime of the VM from its (possibly pre-window) creation.
    pub lifetime: SimDuration,
    /// Optional mid-life resize.
    pub resize: Option<ResizeSpec>,
}

json_codec!(struct VmSpec {
    id, flavor_index, flavor_name, resources, archetype, class, usage, arrival, age_at_arrival,
    lifetime, resize,
});

impl VmSpec {
    /// Absolute instant of the resize, if one is planned *and* happens
    /// before departure.
    pub fn resize_time(&self) -> Option<SimTime> {
        let r = self.resize?;
        let at = self.arrival + r.after;
        (at < self.departure()).then_some(at)
    }

    /// When the VM departs (deletion), in simulation time. Saturates at
    /// `arrival` if the residual lifetime is somehow non-positive.
    pub fn departure(&self) -> SimTime {
        self.arrival + (self.lifetime - self.age_at_arrival)
    }

    /// Whether the VM is still alive at `t` (arrival inclusive, departure
    /// exclusive).
    pub fn alive_at(&self, t: SimTime) -> bool {
        t >= self.arrival && t < self.departure()
    }

    /// The VM's age at absolute simulation time `t`.
    pub fn age_at(&self, t: SimTime) -> SimDuration {
        self.age_at_arrival + (t - self.arrival)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::archetype::Archetype;
    use sapsim_sim::SimRng;

    fn spec(arrival_days: u64, age_days: u64, lifetime_days: u64) -> VmSpec {
        let mut rng = SimRng::seed_from(1);
        VmSpec {
            id: VmId(1),
            flavor_index: 0,
            flavor_name: "gp-c4-m32".into(),
            resources: Resources::with_memory_gib(4, 32, 100),
            archetype: Archetype::GenericService,
            class: WorkloadClass::GeneralPurpose,
            usage: UsageModel::draw(Archetype::GenericService, &mut rng),
            arrival: SimTime::from_days(arrival_days),
            age_at_arrival: SimDuration::from_days(age_days),
            lifetime: SimDuration::from_days(lifetime_days),
            resize: None,
        }
    }

    #[test]
    fn departure_subtracts_prior_age() {
        let s = spec(0, 10, 40);
        assert_eq!(s.departure(), SimTime::from_days(30));
        let fresh = spec(5, 0, 10);
        assert_eq!(fresh.departure(), SimTime::from_days(15));
    }

    #[test]
    fn alive_window_is_half_open() {
        let s = spec(5, 0, 10);
        assert!(!s.alive_at(SimTime::from_days(4)));
        assert!(s.alive_at(SimTime::from_days(5)));
        assert!(s.alive_at(SimTime::from_days(14)));
        assert!(!s.alive_at(SimTime::from_days(15)));
    }

    #[test]
    fn age_accumulates_from_prior_age() {
        let s = spec(0, 100, 400);
        assert_eq!(s.age_at(SimTime::from_days(7)), SimDuration::from_days(107));
    }

    #[test]
    fn resize_changes_resources_at_the_right_instant() {
        let mut s = spec(2, 0, 20);
        s.resize = Some(ResizeSpec {
            after: SimDuration::from_days(5),
            resources: Resources::with_memory_gib(8, 64, 100),
        });
        assert_eq!(s.resize_time(), Some(SimTime::from_days(7)));
    }

    #[test]
    fn resize_after_departure_never_fires() {
        let mut s = spec(0, 0, 3);
        s.resize = Some(ResizeSpec {
            after: SimDuration::from_days(10),
            resources: Resources::with_memory_gib(8, 64, 100),
        });
        assert_eq!(s.resize_time(), None);
    }

    #[test]
    fn vm_id_display() {
        assert_eq!(VmId(42).to_string(), "vm-42");
        assert_eq!(VmId(42).raw(), 42);
    }
}
