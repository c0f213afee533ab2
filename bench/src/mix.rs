//! The placement requests the serve workloads send and the scheduler and
//! engine probes rank, drawn the way the simulator draws its own arrivals.
//!
//! Flavor and class come from `paper_flavor_catalog()` in proportion to
//! each flavor's `population` (the paper's Tables 1 and 2). Every request
//! names an availability zone, drawn by the zone's share of the nodes in
//! the building blocks of the request's class: the rule by which
//! `SimDriver` assigns a zone to every VM it places (its `az-assign`
//! stream, after the per-DC VM counts of the paper's Table 5).

use crate::harness::InputRng;
use sapsim_api::{PlaceRequest, VmClass};
use sapsim_topology::{BbPurpose, Topology};
use sapsim_workload::{paper_flavor_catalog, Flavor, FlavorCatalog, WorkloadClass};

const CLASSES: [WorkloadClass; 3] = [
    WorkloadClass::GeneralPurpose,
    WorkloadClass::Hana,
    WorkloadClass::CiFarm,
];

pub struct RequestMix {
    catalog: FlavorCatalog,
    /// Population up to and including each flavor, in catalog order.
    cumulative_population: Vec<u64>,
    /// Per class, the kind of building block its VMs land on, and the
    /// nodes of those blocks up to and including each zone, in
    /// `Topology::azs()` order.
    zones: [(BbPurpose, Vec<u64>); 3],
}

/// Index of the entry a uniform draw below the last running total falls in.
fn draw_index(cumulative: &[u64], rng: &mut InputRng) -> usize {
    let total = *cumulative.last().expect("weights are not empty");
    let x = rng.below(total);
    cumulative.partition_point(|&c| c <= x)
}

impl RequestMix {
    pub fn new(topology: &Topology) -> RequestMix {
        let catalog = paper_flavor_catalog();
        let zone_nodes = |purpose: BbPurpose| -> Vec<u64> {
            topology
                .azs()
                .iter()
                .map(|az| {
                    topology
                        .bbs_in_az(az.id)
                        .map(|bb| topology.bb(bb))
                        .filter(|bb| bb.purpose == purpose)
                        .map(|bb| bb.nodes.len() as u64)
                        .sum()
                })
                .collect()
        };
        let running = |weights: Vec<u64>| -> Vec<u64> {
            weights
                .iter()
                .scan(0, |sum, w| {
                    *sum += w;
                    Some(*sum)
                })
                .collect()
        };
        let zones = CLASSES.map(|class| {
            let purpose = class.required_bb_purpose();
            let nodes = zone_nodes(purpose);
            if nodes.iter().sum::<u64>() > 0 {
                (purpose, running(nodes))
            } else {
                // An estate too small for CI-farm blocks places CI executors
                // on general-purpose ones (`PlacementEngine::place`).
                let general = BbPurpose::GeneralPurpose;
                (general, running(zone_nodes(general)))
            }
        });
        RequestMix {
            cumulative_population: running(
                catalog
                    .flavors()
                    .iter()
                    .map(|f| u64::from(f.population))
                    .collect(),
            ),
            catalog,
            zones,
        }
    }

    /// A flavor by population, and the index into `Topology::azs()` of the
    /// zone its VM is asked to land in.
    pub fn draw(&self, rng: &mut InputRng) -> (&Flavor, usize) {
        let flavor = &self.catalog.flavors()[draw_index(&self.cumulative_population, rng)];
        (flavor, self.draw_zone(flavor.class, rng))
    }

    pub fn draw_zone(&self, class: WorkloadClass, rng: &mut InputRng) -> usize {
        draw_index(&self.zone(class).1, rng)
    }

    /// The kind of building block VMs of `class` land on in this estate.
    pub fn purpose(&self, class: WorkloadClass) -> BbPurpose {
        self.zone(class).0
    }

    fn zone(&self, class: WorkloadClass) -> &(BbPurpose, Vec<u64>) {
        let at = CLASSES.iter().position(|&c| c == class);
        &self.zones[at.expect("every class is listed")]
    }

    /// `vms` VMs in the catalog's proportions (largest remainder, as the
    /// workload generator scales its population): flavor and count.
    pub fn population(&self, vms: u64) -> Vec<(&Flavor, u64)> {
        let ratio = vms as f64 / f64::from(self.catalog.total_population());
        self.catalog
            .scaled_populations(ratio)
            .into_iter()
            .map(|(i, n)| (&self.catalog.flavors()[i], u64::from(n)))
            .collect()
    }
}

/// The wire request for one VM of `flavor` in zone `az`.
pub fn place_request(flavor: &Flavor, az: &str) -> PlaceRequest {
    let r = &flavor.resources;
    PlaceRequest::new(r.cpu_cores, r.memory_mib)
        .with_disk_gib(r.disk_gib)
        .with_class(match flavor.class {
            WorkloadClass::GeneralPurpose => VmClass::GeneralPurpose,
            WorkloadClass::Hana => VmClass::Hana,
            WorkloadClass::CiFarm => VmClass::CiFarm,
        })
        .in_az(az)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sapsim_topology::{paper_estate_custom, TopologyBuilder};

    #[test]
    fn draws_follow_population_and_zone_capacity() {
        let (topology, _) = paper_estate_custom(1.0, 42, &TopologyBuilder::new());
        let mix = RequestMix::new(&topology);
        let mut rng = InputRng::new(1);
        let draws = 20_000;
        let (mut hana, mut zones) = (0u32, vec![0u32; topology.azs().len()]);
        for _ in 0..draws {
            let (flavor, zone) = mix.draw(&mut rng);
            hana += u32::from(flavor.class == WorkloadClass::Hana);
            zones[zone] += 1;
        }
        // 1,538 of the catalog's 45,355 VMs are HANA: 3.4 %.
        let share = f64::from(hana) / f64::from(draws);
        assert!((share - 1_538.0 / 45_355.0).abs() < 0.005, "{share}");
        assert!(zones.iter().all(|&n| n > 0), "{zones:?}");

        let third = mix.population(16_000);
        assert_eq!(third.iter().map(|(_, n)| n).sum::<u64>(), 16_000);
        assert_eq!(third.len(), paper_flavor_catalog().flavors().len());
    }
}
