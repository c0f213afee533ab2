//! Randomized-but-reproducible topology construction.
//!
//! The public dataset anonymizes building-block composition, so the builder
//! synthesizes a plausible one from the published constraints: building
//! blocks hold 2–128 homogeneous nodes (paper Section 3.1, "Building block
//! sizes range from 2 to 128 active compute nodes"), a subset of blocks is
//! reserved for HANA/GPU flavors, and hardware differs across blocks but
//! not within one.

use crate::hardware::{HardwareProfile, OvercommitPolicy};
use crate::ids::DcId;
use crate::topology::{BbPurpose, Topology};
use sapsim_sim::SimRng;

/// Builds data centers out of building blocks randomized under the
/// paper's constraints.
#[derive(Debug)]
pub struct TopologyBuilder {
    /// Fraction of a DC's nodes that go into HANA-reserved blocks.
    pub(crate) hana_node_fraction: f64,
    /// Fraction of a DC's nodes that go into GPU-reserved blocks.
    pub(crate) gpu_node_fraction: f64,
    /// Fraction of a DC's nodes that go into dedicated CI-farm blocks.
    pub(crate) ci_farm_node_fraction: f64,
    /// CPU overcommit ratio of CI-farm blocks. CI executors are idle
    /// between builds, so farms run much higher ratios than the general
    /// pool.
    pub(crate) ci_cpu_overcommit: f64,
    /// Fraction of general-purpose nodes using the dense profile.
    pub(crate) dense_gp_fraction: f64,
    /// Inclusive bounds on general-purpose block sizes.
    pub(crate) gp_bb_size: (usize, usize),
    /// Inclusive bounds on HANA block sizes (HANA clusters are small:
    /// few large hosts per cluster).
    pub(crate) hana_bb_size: (usize, usize),
    /// CPU overcommit ratio applied to general-purpose blocks.
    pub gp_cpu_overcommit: f64,
}

impl Default for TopologyBuilder {
    fn default() -> Self {
        TopologyBuilder {
            hana_node_fraction: 0.22,
            gpu_node_fraction: 0.02,
            ci_farm_node_fraction: 0.04,
            ci_cpu_overcommit: 6.0,
            dense_gp_fraction: 0.50,
            gp_bb_size: (6, 20),
            hana_bb_size: (2, 16),
            gp_cpu_overcommit: 4.0,
        }
    }
}

impl TopologyBuilder {
    /// A builder with the default mix.
    pub fn new() -> Self {
        Self::default()
    }

    /// Populate `dc` with approximately `node_budget` nodes split into
    /// randomized building blocks following the configured mix. Returns the
    /// exact number of nodes created (the last block of each class is
    /// shrunk to fit so the budget is met exactly whenever it is ≥ 2).
    pub(crate) fn build_dc_randomized(
        &self,
        topo: &mut Topology,
        dc: DcId,
        node_budget: usize,
        rng: &mut SimRng,
    ) -> usize {
        assert!(node_budget >= 2, "a DC needs at least one 2-node block");
        let hana_nodes = (node_budget as f64 * self.hana_node_fraction) as usize;
        let gpu_nodes = (node_budget as f64 * self.gpu_node_fraction) as usize;
        let ci_nodes = (node_budget as f64 * self.ci_farm_node_fraction) as usize;
        let gp_nodes = node_budget - hana_nodes - gpu_nodes - ci_nodes;

        let mut created = 0;
        created += self.fill_class(topo, dc, gp_nodes, BbPurpose::GeneralPurpose, rng);
        created += self.fill_class(topo, dc, hana_nodes, BbPurpose::Hana, rng);
        created += self.fill_class(topo, dc, ci_nodes, BbPurpose::CiFarm, rng);
        created += self.fill_class(topo, dc, gpu_nodes, BbPurpose::Gpu, rng);
        created
    }

    /// Create blocks of one purpose class until `budget` nodes exist.
    fn fill_class(
        &self,
        topo: &mut Topology,
        dc: DcId,
        budget: usize,
        purpose: BbPurpose,
        rng: &mut SimRng,
    ) -> usize {
        let (lo, hi) = match purpose {
            BbPurpose::GeneralPurpose | BbPurpose::CiFarm => self.gp_bb_size,
            BbPurpose::Hana => self.hana_bb_size,
            BbPurpose::Gpu => (2, 8),
        };
        let mut remaining = budget;
        let mut created = 0;
        while remaining >= 2 {
            let want = (rng.range(lo as u64, hi as u64 + 1) as usize).min(remaining);
            let size = if remaining - want == 1 {
                // Never strand a single node: a 1-node remainder can't form
                // a block, so absorb it.
                want + 1
            } else {
                want
            };
            let size = size.min(128).min(remaining).max(2);
            let profile = match purpose {
                BbPurpose::GeneralPurpose | BbPurpose::CiFarm => {
                    if rng.bool(self.dense_gp_fraction) {
                        HardwareProfile::general_purpose_dense()
                    } else {
                        HardwareProfile::general_purpose()
                    }
                }
                BbPurpose::Hana => {
                    if rng.bool(0.25) {
                        HardwareProfile::hana_xlarge()
                    } else {
                        HardwareProfile::hana_large()
                    }
                }
                BbPurpose::Gpu => HardwareProfile::general_purpose_dense(),
            };
            let overcommit = match purpose {
                BbPurpose::GeneralPurpose => {
                    OvercommitPolicy::general_purpose().with_cpu_ratio(self.gp_cpu_overcommit)
                }
                BbPurpose::CiFarm => {
                    OvercommitPolicy::general_purpose().with_cpu_ratio(self.ci_cpu_overcommit)
                }
                BbPurpose::Hana => OvercommitPolicy::hana(),
                BbPurpose::Gpu => OvercommitPolicy::NONE,
            };
            let idx = topo.bbs().len();
            topo.add_bb(
                dc,
                format!("{}-bb{:03}", topo.dc(dc).name.to_lowercase(), idx),
                purpose,
                profile,
                overcommit,
                size,
            );
            created += size;
            remaining -= size;
        }
        created
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capacity::Resources;

    fn dc_fixture(topo: &mut Topology) -> DcId {
        let r = topo.add_region();
        let az = topo.add_az(r, "az-a");
        topo.add_dc(az, "A")
    }

    #[test]
    fn randomized_dc_meets_budget_and_constraints() {
        let mut topo = Topology::new();
        let dc = dc_fixture(&mut topo);
        let mut rng = SimRng::seed_from(1);
        let created = TopologyBuilder::new().build_dc_randomized(&mut topo, dc, 200, &mut rng);
        assert!((196..=200).contains(&created), "created = {created}");
        assert_eq!(topo.dc_node_count(dc), created);
        topo.validate().unwrap();
        for bb in topo.bbs() {
            assert!(
                (2..=128).contains(&bb.nodes.len()),
                "bb size {} out of the paper's 2..=128 range",
                bb.nodes.len()
            );
        }
    }

    #[test]
    fn randomized_dc_is_reproducible() {
        let build = || {
            let mut topo = Topology::new();
            let dc = dc_fixture(&mut topo);
            let mut rng = SimRng::seed_from(7);
            TopologyBuilder::new().build_dc_randomized(&mut topo, dc, 150, &mut rng);
            topo.bbs()
                .iter()
                .map(|b| (b.purpose, b.profile.name.clone(), b.nodes.len()))
                .collect::<Vec<_>>()
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn purpose_mix_is_roughly_as_configured() {
        let mut topo = Topology::new();
        let dc = dc_fixture(&mut topo);
        let mut rng = SimRng::seed_from(3);
        TopologyBuilder::new().build_dc_randomized(&mut topo, dc, 1000, &mut rng);
        let hana: usize = topo
            .bbs()
            .iter()
            .filter(|b| b.purpose == BbPurpose::Hana)
            .map(|b| b.nodes.len())
            .sum();
        // Configured 22% ±5 points.
        assert!((170..=270).contains(&hana), "hana nodes = {hana}");
    }

    #[test]
    fn hana_blocks_never_overcommit_cpu() {
        let mut topo = Topology::new();
        let dc = dc_fixture(&mut topo);
        let mut rng = SimRng::seed_from(5);
        TopologyBuilder::new().build_dc_randomized(&mut topo, dc, 300, &mut rng);
        for bb in topo.bbs().iter().filter(|b| b.purpose == BbPurpose::Hana) {
            assert_eq!(bb.overcommit.cpu_ratio, 1.0);
            let vcap = bb.node_virtual_capacity();
            assert_eq!(vcap.cpu_cores, bb.profile.physical.cpu_cores);
        }
    }

    #[test]
    fn no_stranded_single_node_budgets() {
        // A budget that would naively leave a 1-node remainder.
        let mut topo = Topology::new();
        let dc = dc_fixture(&mut topo);
        let mut rng = SimRng::seed_from(11);
        let mut b = TopologyBuilder::new();
        b.hana_node_fraction = 0.0;
        b.gpu_node_fraction = 0.0;
        b.gp_bb_size = (4, 4);
        let created = b.build_dc_randomized(&mut topo, dc, 9, &mut rng);
        assert_eq!(created, 9);
        let sizes: Vec<_> = topo.bbs().iter().map(|b| b.nodes.len()).collect();
        assert!(sizes.iter().all(|&s| s >= 2), "sizes = {sizes:?}");
    }

    #[test]
    fn total_capacity_grows_with_budget() {
        let cap_for = |budget: usize| -> Resources {
            let mut topo = Topology::new();
            let dc = dc_fixture(&mut topo);
            let mut rng = SimRng::seed_from(2);
            TopologyBuilder::new().build_dc_randomized(&mut topo, dc, budget, &mut rng);
            topo.total_physical_capacity()
        };
        let small = cap_for(50);
        let large = cap_for(500);
        assert!(large.cpu_cores > small.cpu_cores * 5);
        assert!(large.memory_mib > small.memory_mib * 5);
    }
}
