//! Presets reproducing the paper's deployments.
//!
//! [`paper_table5`] embeds Appendix D (Table 5): the number of hypervisors
//! and VMs per data center across all 29 DCs and 16 region ids.
//! `sapsim-analysis` regenerates the table from these presets (`sapsim
//! tables`, and `table5_datacenters.txt` under `sapsim simulate --out`).
//!
//! [`paper_region`] builds the *studied* regional deployment: the paper
//! analyzes a single region with ~1,800 hypervisors and ~48,000 VMs, which
//! matches region 9 in Table 5 (DC A: 751 hypervisors / 19,464 VMs; DC B:
//! 1,072 / 27,652 → 1,823 hypervisors, 47,116 VMs).

use crate::builder::TopologyBuilder;
use crate::ids::{DcId, RegionId};
use crate::topology::Topology;
use sapsim_sim::SimRng;

/// One row of the paper's Table 5 (Appendix D).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DcPreset {
    /// Region id as printed in the table (1–16).
    pub region_id: u8,
    /// Data-center name within the region ("A", "B", or "D").
    pub dc_name: &'static str,
    /// Number of hypervisors.
    pub hypervisors: u32,
    /// Number of virtual machines.
    pub vms: u32,
}

/// The full Table 5: hypervisor and VM counts for every SAP data center.
pub fn paper_table5() -> &'static [DcPreset] {
    const T: &[DcPreset] = &[
        DcPreset { region_id: 1, dc_name: "A", hypervisors: 167, vms: 4985 },
        DcPreset { region_id: 1, dc_name: "B", hypervisors: 65, vms: 375 },
        DcPreset { region_id: 2, dc_name: "A", hypervisors: 244, vms: 7913 },
        DcPreset { region_id: 2, dc_name: "B", hypervisors: 112, vms: 1284 },
        DcPreset { region_id: 3, dc_name: "A", hypervisors: 202, vms: 4475 },
        DcPreset { region_id: 3, dc_name: "B", hypervisors: 89, vms: 1353 },
        DcPreset { region_id: 4, dc_name: "A", hypervisors: 191, vms: 3977 },
        DcPreset { region_id: 5, dc_name: "A", hypervisors: 42, vms: 395 },
        DcPreset { region_id: 6, dc_name: "A", hypervisors: 150, vms: 5016 },
        DcPreset { region_id: 7, dc_name: "A", hypervisors: 63, vms: 1096 },
        DcPreset { region_id: 8, dc_name: "A", hypervisors: 227, vms: 5595 },
        DcPreset { region_id: 8, dc_name: "B", hypervisors: 270, vms: 4206 },
        DcPreset { region_id: 8, dc_name: "D", hypervisors: 966, vms: 34392 },
        DcPreset { region_id: 9, dc_name: "A", hypervisors: 751, vms: 19464 },
        DcPreset { region_id: 9, dc_name: "B", hypervisors: 1072, vms: 27652 },
        DcPreset { region_id: 10, dc_name: "A", hypervisors: 65, vms: 1186 },
        DcPreset { region_id: 10, dc_name: "B", hypervisors: 152, vms: 5713 },
        DcPreset { region_id: 11, dc_name: "A", hypervisors: 60, vms: 2877 },
        DcPreset { region_id: 12, dc_name: "A", hypervisors: 62, vms: 1996 },
        DcPreset { region_id: 12, dc_name: "B", hypervisors: 43, vms: 362 },
        DcPreset { region_id: 13, dc_name: "A", hypervisors: 274, vms: 7432 },
        DcPreset { region_id: 13, dc_name: "B", hypervisors: 99, vms: 1149 },
        DcPreset { region_id: 13, dc_name: "D", hypervisors: 239, vms: 3881 },
        DcPreset { region_id: 14, dc_name: "A", hypervisors: 330, vms: 3809 },
        DcPreset { region_id: 14, dc_name: "B", hypervisors: 307, vms: 5125 },
        DcPreset { region_id: 15, dc_name: "A", hypervisors: 209, vms: 5442 },
        DcPreset { region_id: 16, dc_name: "A", hypervisors: 40, vms: 504 },
        DcPreset { region_id: 16, dc_name: "B", hypervisors: 28, vms: 156 },
        DcPreset { region_id: 16, dc_name: "D", hypervisors: 22, vms: 78 },
    ];
    T
}

/// Scale applied to a preset when building a topology.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PresetScale {
    /// Build the full preset (1,823 hypervisors for the studied region).
    Full,
    /// Build a proportionally shrunk deployment; 0.1 builds ~10% of the
    /// hypervisors, with per-DC minimums so every DC still exists. Useful
    /// for fast tests and laptop-scale experiments.
    Ratio(f64),
}

impl PresetScale {
    fn apply(self, n: u32) -> usize {
        match self {
            PresetScale::Full => n as usize,
            PresetScale::Ratio(r) => {
                assert!(r > 0.0 && r <= 1.0, "scale ratio must be in (0, 1]");
                ((n as f64 * r).round() as usize).max(4)
            }
        }
    }
}

/// Build the studied regional deployment (region 9 of Table 5): one region,
/// two availability zones, DC "A" (751 hypervisors) and DC "B" (1,072
/// hypervisors). Returns the topology and the two DC ids `(a, b)`.
///
/// Per-DC VM counts come from the workload generator, not from here; the
/// topology only fixes the hardware inventory.
pub fn paper_region(scale: PresetScale, seed: u64) -> (Topology, DcId, DcId) {
    paper_region_custom(scale, seed, &TopologyBuilder::new())
}

/// [`paper_region`] with an explicit builder, for runs that tune the
/// hardware mix or the general-purpose CPU overcommit ratio (the A2
/// ablation sweeps the latter).
pub fn paper_region_custom(
    scale: PresetScale,
    seed: u64,
    builder: &TopologyBuilder,
) -> (Topology, DcId, DcId) {
    let mut topo = Topology::new();
    let r = add_studied_region(&mut topo, scale, seed, builder, None);
    topo.validate().expect("preset topology must be internally consistent");
    (topo, r.dc_a, r.dc_b)
}

/// Convenience wrapper: the studied region at a given scale ratio.
pub fn scaled_paper_region(ratio: f64, seed: u64) -> (Topology, DcId, DcId) {
    paper_region(PresetScale::Ratio(ratio), seed)
}

/// Handles of one region replica in a multi-region estate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegionDcs {
    /// The region.
    pub region: RegionId,
    /// Its DC "A" (az-a).
    pub dc_a: DcId,
    /// Its DC "B" (az-b).
    pub dc_b: DcId,
}

/// Build a multi-region estate by replicating the studied region:
/// `floor(scale)` full replicas plus, if `scale` has a fractional part,
/// one remainder region at that ratio. `scale = 10.0` therefore yields a
/// ten-region, ~18,230-node estate; `scale ≤ 1.0` yields exactly the
/// single region that [`paper_region_custom`] builds (same names, same
/// RNG streams, same inventory — bit-for-bit).
///
/// Replicated regions get deterministic per-replica id namespaces
/// ("region-9-r00", "az-a-r00", …) and per-replica RNG streams (the
/// "topology" stream split by replica index), so the estate is a pure
/// function of `(scale, seed)` and every replica's hardware mix differs.
pub fn paper_estate_custom(
    scale: f64,
    seed: u64,
    builder: &TopologyBuilder,
) -> (Topology, Vec<RegionDcs>) {
    assert!(
        scale > 0.0 && scale.is_finite(),
        "estate scale must be positive and finite, got {scale}"
    );
    let mut topo = Topology::new();
    let mut regions = Vec::new();
    if scale <= 1.0 {
        let preset = if scale >= 1.0 {
            PresetScale::Full
        } else {
            PresetScale::Ratio(scale)
        };
        regions.push(add_studied_region(&mut topo, preset, seed, builder, None));
    } else {
        let full = scale.floor() as usize;
        let remainder = scale - full as f64;
        for replica in 0..full {
            regions.push(add_studied_region(
                &mut topo,
                PresetScale::Full,
                seed,
                builder,
                Some(replica),
            ));
        }
        // Guard against float fuzz: a remainder so small it would round to
        // an empty region (< half a node on the smaller DC) is dropped.
        if remainder * 751.0 >= 0.5 {
            regions.push(add_studied_region(
                &mut topo,
                PresetScale::Ratio(remainder),
                seed,
                builder,
                Some(full),
            ));
        }
    }
    topo.validate().expect("preset topology must be internally consistent");
    (topo, regions)
}

/// [`paper_estate_custom`] with the default hardware mix.
pub fn paper_estate(scale: f64, seed: u64) -> (Topology, Vec<RegionDcs>) {
    paper_estate_custom(scale, seed, &TopologyBuilder::new())
}

/// Build a multi-region estate of `replicas` copies of the studied region,
/// each scaled by `scale ∈ (0, 1]` — the orthogonal complement of
/// [`paper_estate_custom`], which replicates only at full size. Three tiny
/// regions (`scale = 0.02, replicas = 3`) cost less than one full region,
/// which is what the multi-region determinism suites run.
///
/// `replicas == 1` delegates to [`paper_estate_custom`] so the historical
/// single-region names and RNG streams are preserved bit-for-bit; with
/// more replicas each region gets the same per-replica namespace and
/// RNG-stream split that full-size replication uses, so replica `k` here
/// has the identical hardware mix to replica `k` of a full-size estate
/// when `scale == 1.0`.
pub fn paper_estate_replicated(
    scale: f64,
    replicas: usize,
    seed: u64,
    builder: &TopologyBuilder,
) -> (Topology, Vec<RegionDcs>) {
    assert!(replicas >= 1, "a replicated estate needs at least one region");
    if replicas == 1 {
        return paper_estate_custom(scale, seed, builder);
    }
    assert!(
        scale > 0.0 && scale <= 1.0,
        "replicated estates take a per-region ratio in (0, 1], got {scale}"
    );
    let preset = if scale >= 1.0 {
        PresetScale::Full
    } else {
        PresetScale::Ratio(scale)
    };
    let mut topo = Topology::new();
    let regions = (0..replicas)
        .map(|k| add_studied_region(&mut topo, preset, seed, builder, Some(k)))
        .collect();
    topo.validate().expect("preset topology must be internally consistent");
    (topo, regions)
}

/// Add one copy of the studied region to `topo`. `replica: None` is the
/// historical single-region layout (names "region-9"/"az-a"/"az-b",
/// RNG streams "topology"/"dc-a"/"dc-b" — unchanged so existing runs stay
/// byte-identical); `Some(k)` namespaces the region/AZ names with `-r{k}`
/// and splits the topology stream by `k`. DC names stay "A"/"B" as in the
/// paper — building-block names are globally unique regardless (they
/// carry a topology-wide index).
fn add_studied_region(
    topo: &mut Topology,
    scale: PresetScale,
    seed: u64,
    builder: &TopologyBuilder,
    replica: Option<usize>,
) -> RegionDcs {
    let suffix = match replica {
        None => String::new(),
        Some(k) => format!("-r{k:02}"),
    };
    let region = topo.add_region(format!("region-9{suffix}"));
    // "Each region consists of up to two data centers" grouped into AZs for
    // high availability (paper Sections 2.1, 3.1); the studied region's two
    // DCs sit in separate AZs.
    let az_a = topo.add_az(region, format!("az-a{suffix}"));
    let az_b = topo.add_az(region, format!("az-b{suffix}"));
    let dc_a = topo.add_dc(az_a, "A");
    let dc_b = topo.add_dc(az_b, "B");

    let mut rng = SimRng::seed_from(seed).split("topology");
    if let Some(k) = replica {
        rng = rng.split_index(k as u64);
    }
    builder.build_dc_randomized(topo, dc_a, scale.apply(751), &mut rng.split("dc-a"));
    builder.build_dc_randomized(topo, dc_b, scale.apply(1072), &mut rng.split("dc-b"));
    RegionDcs { region, dc_a, dc_b }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::BbPurpose;

    #[test]
    fn table5_matches_paper_totals() {
        let t = paper_table5();
        assert_eq!(t.len(), 29, "29 data centers (paper Section 3)");
        let hypervisors: u32 = t.iter().map(|d| d.hypervisors).sum();
        let vms: u32 = t.iter().map(|d| d.vms).sum();
        // Paper Section 3: "more than 6,000 hypervisors" and
        // "more than 200,000 active VMs" platform-wide; Table 5 lists the
        // per-DC breakdown summing to 6,541 and 161,888.
        assert_eq!(hypervisors, 6541);
        assert_eq!(vms, 161_888);
        // Largest DC: region 9 B with 1,072 hypervisors.
        assert_eq!(t.iter().map(|d| d.hypervisors).max(), Some(1072));
        // Smallest DC: region 16 D with 22 hypervisors (paper: "22 to 1072").
        assert_eq!(t.iter().map(|d| d.hypervisors).min(), Some(22));
        // Largest VM deployment: region 8 D with 34,392 (paper: "capacity of
        // up to 34,392 VMs").
        assert_eq!(t.iter().map(|d| d.vms).max(), Some(34_392));
    }

    #[test]
    fn studied_region_is_region_9() {
        let t = paper_table5();
        let r9: Vec<_> = t.iter().filter(|d| d.region_id == 9).collect();
        let hv: u32 = r9.iter().map(|d| d.hypervisors).sum();
        let vms: u32 = r9.iter().map(|d| d.vms).sum();
        // ~1,800 hypervisors and ~48,000 VMs as stated in the abstract.
        assert_eq!(hv, 1823);
        assert_eq!(vms, 47_116);
    }

    #[test]
    fn full_paper_region_builds() {
        let (topo, dc_a, dc_b) = paper_region(PresetScale::Full, 42);
        let a = topo.dc_node_count(dc_a);
        let b = topo.dc_node_count(dc_b);
        assert!((747..=751).contains(&a), "dc A nodes = {a}");
        assert!((1068..=1072).contains(&b), "dc B nodes = {b}");
        assert_eq!(topo.dcs().len(), 2);
        assert_eq!(topo.azs().len(), 2);
        // Both purposes present.
        assert!(topo.bbs().iter().any(|x| x.purpose == BbPurpose::Hana));
        assert!(topo.bbs().iter().any(|x| x.purpose == BbPurpose::GeneralPurpose));
    }

    #[test]
    fn scaled_region_is_smaller_but_complete() {
        let (topo, dc_a, dc_b) = scaled_paper_region(0.05, 42);
        assert!(topo.dc_node_count(dc_a) >= 4);
        assert!(topo.dc_node_count(dc_b) >= 4);
        assert!(topo.nodes().len() < 200);
        topo.validate().unwrap();
    }

    #[test]
    fn preset_is_reproducible() {
        let (t1, ..) = paper_region(PresetScale::Ratio(0.1), 9);
        let (t2, ..) = paper_region(PresetScale::Ratio(0.1), 9);
        let sig = |t: &Topology| {
            t.bbs()
                .iter()
                .map(|b| (b.purpose, b.profile.name.clone(), b.nodes.len()))
                .collect::<Vec<_>>()
        };
        assert_eq!(sig(&t1), sig(&t2));
    }

    #[test]
    fn different_seeds_differ() {
        let (t1, ..) = paper_region(PresetScale::Ratio(0.1), 1);
        let (t2, ..) = paper_region(PresetScale::Ratio(0.1), 2);
        let sig = |t: &Topology| {
            t.bbs()
                .iter()
                .map(|b| (b.profile.name.clone(), b.nodes.len()))
                .collect::<Vec<_>>()
        };
        assert_ne!(sig(&t1), sig(&t2));
    }

    #[test]
    #[should_panic(expected = "scale ratio")]
    fn invalid_ratio_panics() {
        let _ = paper_region(PresetScale::Ratio(0.0), 1);
    }

    #[test]
    fn estate_at_or_below_one_is_the_single_region() {
        let sig = |t: &Topology| {
            t.bbs()
                .iter()
                .map(|b| (b.name.clone(), b.purpose, b.profile.name.clone(), b.nodes.len()))
                .collect::<Vec<_>>()
        };
        let (single, ..) = scaled_paper_region(0.1, 9);
        let (estate, regions) = paper_estate(0.1, 9);
        assert_eq!(regions.len(), 1);
        assert_eq!(sig(&single), sig(&estate), "scale ≤ 1 must stay bit-identical");
        assert_eq!(estate.region(regions[0].region).name, "region-9");

        let (full_single, ..) = paper_region(PresetScale::Full, 9);
        let (full_estate, _) = paper_estate(1.0, 9);
        assert_eq!(sig(&full_single), sig(&full_estate));
    }

    #[test]
    fn multi_region_estate_replicates_with_namespaced_ids() {
        let (topo, regions) = paper_estate(2.5, 42);
        assert_eq!(regions.len(), 3, "2 full replicas + 1 remainder");
        assert_eq!(topo.regions().len(), 3);
        assert_eq!(topo.azs().len(), 6);
        assert_eq!(topo.dcs().len(), 6);
        assert_eq!(topo.region(regions[0].region).name, "region-9-r00");
        assert_eq!(topo.region(regions[2].region).name, "region-9-r02");
        // Full replicas carry the full inventory; the remainder is ~half.
        let nodes = |r: &RegionDcs| topo.dc_node_count(r.dc_a) + topo.dc_node_count(r.dc_b);
        assert!((1815..=1823).contains(&nodes(&regions[0])), "r0 = {}", nodes(&regions[0]));
        assert!((850..=970).contains(&nodes(&regions[2])), "r2 = {}", nodes(&regions[2]));
        // Replicas draw from distinct RNG streams: their block mixes differ.
        let mix = |dc: DcId| {
            topo.bbs()
                .iter()
                .filter(|b| b.dc == dc)
                .map(|b| b.nodes.len())
                .collect::<Vec<_>>()
        };
        assert_ne!(mix(regions[0].dc_a), mix(regions[1].dc_a));
        // BB names stay globally unique across replicas.
        let mut names: Vec<_> = topo.bbs().iter().map(|b| b.name.clone()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), topo.bbs().len());
    }

    #[test]
    fn estate_is_reproducible() {
        let sig = |t: &Topology| {
            t.bbs()
                .iter()
                .map(|b| (b.name.clone(), b.nodes.len()))
                .collect::<Vec<_>>()
        };
        let (t1, _) = paper_estate(3.25, 7);
        let (t2, _) = paper_estate(3.25, 7);
        assert_eq!(sig(&t1), sig(&t2));
    }
}
