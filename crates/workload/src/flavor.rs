//! VM flavors and the calibrated catalog.
//!
//! In OpenStack, a *flavor* is a predefined template of vCPUs, memory, and
//! storage (paper Section 2.1). The catalog below is designed so that the
//! per-class VM counts reproduce the paper's Table 1 and Table 2 exactly at
//! full scale.

use sapsim_topology::{BbPurpose, Resources};
use std::fmt;

use crate::archetype::Archetype;

/// Table 1 vCPU size classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CpuClass {
    /// ≤ 4 vCPUs.
    Small,
    /// 4 < vCPU ≤ 16.
    Medium,
    /// 16 < vCPU ≤ 64.
    Large,
    /// > 64 vCPUs.
    ExtraLarge,
}

impl CpuClass {
    /// Classify a vCPU count per Table 1.
    pub fn of(vcpus: u32) -> CpuClass {
        match vcpus {
            0..=4 => CpuClass::Small,
            5..=16 => CpuClass::Medium,
            17..=64 => CpuClass::Large,
            _ => CpuClass::ExtraLarge,
        }
    }

    /// All classes in table order.
    pub const ALL: [CpuClass; 4] = [
        CpuClass::Small,
        CpuClass::Medium,
        CpuClass::Large,
        CpuClass::ExtraLarge,
    ];

    /// Table label.
    pub const fn label(self) -> &'static str {
        match self {
            CpuClass::Small => "Small",
            CpuClass::Medium => "Medium",
            CpuClass::Large => "Large",
            CpuClass::ExtraLarge => "Extra Large",
        }
    }
}

impl fmt::Display for CpuClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Table 2 RAM size classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum RamClass {
    /// ≤ 2 GiB.
    Small,
    /// 2 < RAM ≤ 64 GiB.
    Medium,
    /// 64 < RAM ≤ 128 GiB.
    Large,
    /// > 128 GiB.
    ExtraLarge,
}

impl RamClass {
    /// Classify a memory size (GiB) per Table 2.
    pub fn of(ram_gib: u64) -> RamClass {
        match ram_gib {
            0..=2 => RamClass::Small,
            3..=64 => RamClass::Medium,
            65..=128 => RamClass::Large,
            _ => RamClass::ExtraLarge,
        }
    }

    /// All classes in table order.
    pub const ALL: [RamClass; 4] = [
        RamClass::Small,
        RamClass::Medium,
        RamClass::Large,
        RamClass::ExtraLarge,
    ];

    /// Table label.
    pub const fn label(self) -> &'static str {
        match self {
            RamClass::Small => "Small",
            RamClass::Medium => "Medium",
            RamClass::Large => "Large",
            RamClass::ExtraLarge => "Extra Large",
        }
    }
}

impl fmt::Display for RamClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Which building-block class a VM must be placed on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WorkloadClass {
    /// General-purpose VM, load-balanced onto the general pool.
    GeneralPurpose,
    /// SAP HANA in-memory database VM, bin-packed onto reserved blocks
    /// (paper Section 3.2: "SAP S/4HANA workloads are explicitly bin-packed
    /// to maximize memory utilization").
    Hana,
    /// CI/CD executor, pinned to the dedicated CI-farm blocks.
    CiFarm,
}

sapsim_json::json_codec!(enum WorkloadClass { GeneralPurpose, Hana, CiFarm });

impl WorkloadClass {
    /// The building-block purpose this class must be placed on.
    pub fn required_bb_purpose(self) -> BbPurpose {
        match self {
            WorkloadClass::GeneralPurpose => BbPurpose::GeneralPurpose,
            WorkloadClass::Hana => BbPurpose::Hana,
            WorkloadClass::CiFarm => BbPurpose::CiFarm,
        }
    }
}

/// A VM flavor: a named resource template plus the workload archetype that
/// instances of it run.
#[derive(Debug, Clone, PartialEq)]
pub struct Flavor {
    /// Flavor name, e.g. `"gp-c4-m32"` or `"hana-c48-m1024"`.
    pub name: String,
    /// Requested resources.
    pub resources: Resources,
    /// The application archetype run by instances of this flavor.
    pub archetype: Archetype,
    /// Placement class.
    pub class: WorkloadClass,
    /// Number of instances of this flavor in the full-scale workload
    /// (the calibration weight).
    pub population: u32,
}

impl Flavor {
    /// vCPU class per Table 1.
    pub fn cpu_class(&self) -> CpuClass {
        CpuClass::of(self.resources.cpu_cores)
    }

    /// RAM class per Table 2.
    pub fn ram_class(&self) -> RamClass {
        RamClass::of(self.resources.memory_gib())
    }
}

/// An ordered collection of flavors with calibration weights.
#[derive(Debug, Clone, PartialEq)]
pub struct FlavorCatalog {
    flavors: Vec<Flavor>,
}

impl FlavorCatalog {
    /// Build from a flavor list.
    pub fn new(flavors: Vec<Flavor>) -> Self {
        FlavorCatalog { flavors }
    }

    /// All flavors.
    pub fn flavors(&self) -> &[Flavor] {
        &self.flavors
    }

    /// Look up a flavor by name.
    pub fn get(&self, name: &str) -> Option<&Flavor> {
        self.flavors.iter().find(|f| f.name == name)
    }

    /// Total full-scale population.
    pub fn total_population(&self) -> u32 {
        self.flavors.iter().map(|f| f.population).sum()
    }

    /// Per-flavor populations scaled by `ratio` using the largest-remainder
    /// method so the scaled total equals `round(total * ratio)` and class
    /// proportions are preserved as closely as integer counts allow.
    /// Ratios above 1 grow the population for multi-region estates (the
    /// largest-remainder construction is scale-direction agnostic).
    pub fn scaled_populations(&self, ratio: f64) -> Vec<(usize, u32)> {
        assert!(
            ratio > 0.0 && ratio.is_finite(),
            "ratio must be positive and finite"
        );
        let target: u64 = (self.total_population() as f64 * ratio).round() as u64;
        let mut floors: Vec<(usize, u32, f64)> = self
            .flavors
            .iter()
            .enumerate()
            .map(|(i, f)| {
                let exact = f.population as f64 * ratio;
                (i, exact.floor() as u32, exact - exact.floor())
            })
            .collect();
        let assigned: u64 = floors.iter().map(|&(_, n, _)| n as u64).sum();
        let mut deficit = target.saturating_sub(assigned) as usize;
        // Hand out the remaining units to the largest fractional parts;
        // ties broken by flavor order for determinism.
        let mut order: Vec<usize> = (0..floors.len()).collect();
        order.sort_by(|&a, &b| {
            floors[b]
                .2
                .partial_cmp(&floors[a].2)
                .expect("fractions are finite")
                .then(a.cmp(&b))
        });
        for &idx in &order {
            if deficit == 0 {
                break;
            }
            floors[idx].1 += 1;
            deficit -= 1;
        }
        floors.into_iter().map(|(i, n, _)| (i, n)).collect()
    }
}

/// The calibrated catalog reproducing Tables 1 and 2.
///
/// The joint (vCPU class × RAM class) population matrix is solved so that
/// row sums match Table 1 exactly (28,446 / 14,340 / 1,831 / 738, total
/// 45,355) and column sums match Table 2 up to a −2 reconciliation on the
/// Medium RAM class (41,393 vs. the paper's 41,395): the paper's two tables
/// total 45,355 and 45,357 VMs respectively — they are 30-day *averages*
/// rounded independently — and a single joint population cannot satisfy
/// both totals simultaneously.
///
/// SAP-workload mapping (paper Section 5.5): application-server components
/// ("ABAP platform") populate the small/medium/large classes; HANA
/// in-memory databases dominate extra-large. General-purpose flavors cover
/// development environments, CI/CD, and Kubernetes infrastructure.
pub fn paper_flavor_catalog() -> FlavorCatalog {
    use Archetype::*;
    use WorkloadClass::*;

    let f = |name: &str,
             cpu: u32,
             ram_gib: u64,
             disk_gib: u64,
             archetype: Archetype,
             class: WorkloadClass,
             population: u32| Flavor {
        name: name.to_string(),
        resources: Resources::with_memory_gib(cpu, ram_gib, disk_gib),
        archetype,
        class,
        population,
    };

    FlavorCatalog::new(vec![
        // --- (CPU Small, RAM Small): 991 ------------------------------
        f("gp-c1-m1", 1, 1, 10, GenericService, GeneralPurpose, 400),
        f("gp-c2-m2", 2, 2, 20, GenericService, GeneralPurpose, 591),
        // --- (CPU Small, RAM Medium): 27,455 --------------------------
        f("gp-c1-m4", 1, 4, 20, DevEnvironment, GeneralPurpose, 3000),
        f("ci-c2-m8", 2, 8, 40, CiCd, CiFarm, 3000),
        f("dev-c2-m8", 2, 8, 40, DevEnvironment, GeneralPurpose, 4000),
        f("gp-c2-m16", 2, 16, 60, GenericService, GeneralPurpose, 3000),
        f("gp-c4-m16", 4, 16, 80, KubernetesNode, GeneralPurpose, 8455),
        f("gp-c4-m32", 4, 32, 100, GenericService, GeneralPurpose, 6000),
        // --- (CPU Medium, RAM Medium): 13,407 -------------------------
        f("ci-c8-m16", 8, 16, 80, CiCd, CiFarm, 2000),
        f("k8s-c8-m16", 8, 16, 80, KubernetesNode, GeneralPurpose, 2000),
        f("gp-c8-m32", 8, 32, 120, KubernetesNode, GeneralPurpose, 4407),
        f("app-c16-m32", 16, 32, 160, AbapAppServer, GeneralPurpose, 3000),
        f("app-c16-m64", 16, 64, 200, AbapAppServer, GeneralPurpose, 2000),
        // --- (CPU Medium, RAM Large): 287 ------------------------------
        f("app-c16-m128", 16, 128, 300, AbapAppServer, GeneralPurpose, 287),
        // --- (CPU Medium, RAM Extra Large): 646 ------------------------
        f("app-c16-m256", 16, 256, 400, AbapAppServer, GeneralPurpose, 646),
        // --- (CPU Large, RAM Medium): 531 ------------------------------
        f("app-c32-m64", 32, 64, 200, AbapAppServer, GeneralPurpose, 531),
        // --- (CPU Large, RAM Large): 500 -------------------------------
        f("app-c32-m128", 32, 128, 300, AbapAppServer, GeneralPurpose, 500),
        // --- (CPU Large, RAM Extra Large): 800 (HANA) -------------------
        f("hana-c24-m512", 24, 512, 1024, HanaDb, Hana, 300),
        f("hana-c48-m1024", 48, 1024, 2048, HanaDb, Hana, 500),
        // --- (CPU Extra Large, RAM Extra Large): 738 (HANA) -------------
        f("hana-c80-m2048", 80, 2048, 4096, HanaDb, Hana, 400),
        f("hana-c96-m4096", 96, 4096, 8192, HanaDb, Hana, 238),
        f("hana-c120-m6144", 120, 6144, 12288, HanaDb, Hana, 80),
        f("hana-c192-m12288", 192, 12288, 16384, HanaDb, Hana, 20),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Full-scale population per class, in `all` order.
    fn population_by<C: Copy + PartialEq>(all: [C; 4], class: fn(&Flavor) -> C) -> [(C, u32); 4] {
        let flavors = paper_flavor_catalog().flavors;
        all.map(|c| {
            let members = flavors.iter().filter(|f| class(f) == c);
            (c, members.map(|f| f.population).sum())
        })
    }

    #[test]
    fn cpu_class_boundaries_match_table1() {
        assert_eq!(CpuClass::of(1), CpuClass::Small);
        assert_eq!(CpuClass::of(4), CpuClass::Small);
        assert_eq!(CpuClass::of(5), CpuClass::Medium);
        assert_eq!(CpuClass::of(16), CpuClass::Medium);
        assert_eq!(CpuClass::of(17), CpuClass::Large);
        assert_eq!(CpuClass::of(64), CpuClass::Large);
        assert_eq!(CpuClass::of(65), CpuClass::ExtraLarge);
    }

    #[test]
    fn ram_class_boundaries_match_table2() {
        assert_eq!(RamClass::of(2), RamClass::Small);
        assert_eq!(RamClass::of(3), RamClass::Medium);
        assert_eq!(RamClass::of(64), RamClass::Medium);
        assert_eq!(RamClass::of(65), RamClass::Large);
        assert_eq!(RamClass::of(128), RamClass::Large);
        assert_eq!(RamClass::of(129), RamClass::ExtraLarge);
        assert_eq!(RamClass::of(12288), RamClass::ExtraLarge);
    }

    #[test]
    fn catalog_reproduces_table1_exactly() {
        let cat = paper_flavor_catalog();
        let by_cpu = population_by(CpuClass::ALL, Flavor::cpu_class);
        assert_eq!(by_cpu[0], (CpuClass::Small, 28_446));
        assert_eq!(by_cpu[1], (CpuClass::Medium, 14_340));
        assert_eq!(by_cpu[2], (CpuClass::Large, 1_831));
        assert_eq!(by_cpu[3], (CpuClass::ExtraLarge, 738));
        assert_eq!(cat.total_population(), 45_355);
    }

    #[test]
    fn catalog_reproduces_table2_up_to_documented_reconciliation() {
        let by_ram = population_by(RamClass::ALL, Flavor::ram_class);
        assert_eq!(by_ram[0], (RamClass::Small, 991));
        // Paper: 41,395. A joint population matching Table 1's total of
        // 45,355 can carry at most 41,393 here (see the doc comment).
        assert_eq!(by_ram[1], (RamClass::Medium, 41_393));
        assert_eq!(by_ram[2], (RamClass::Large, 787));
        assert_eq!(by_ram[3], (RamClass::ExtraLarge, 2_184));
    }

    #[test]
    fn hana_flavors_are_memory_intensive_and_reserved() {
        let cat = paper_flavor_catalog();
        for fl in cat.flavors() {
            if fl.class == WorkloadClass::Hana {
                assert!(fl.resources.memory_gib() >= 512, "{}", fl.name);
                assert_eq!(fl.archetype, Archetype::HanaDb);
                assert_eq!(fl.class.required_bb_purpose(), BbPurpose::Hana);
            } else {
                assert!(fl.resources.memory_gib() <= 256, "{}", fl.name);
            }
        }
        // The largest flavor carries the dataset's headline 12 TB memory.
        let biggest = cat.get("hana-c192-m12288").unwrap();
        assert_eq!(biggest.resources.memory_gib(), 12_288);
    }

    #[test]
    fn flavor_names_are_unique() {
        let cat = paper_flavor_catalog();
        let names: std::collections::HashSet<_> =
            cat.flavors().iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names.len(), cat.flavors().len());
        assert!(cat.get("gp-c4-m32").is_some());
        assert!(cat.get("nope").is_none());
    }

    #[test]
    fn scaled_populations_preserve_total_and_proportions() {
        let cat = paper_flavor_catalog();
        let scaled = cat.scaled_populations(0.1);
        let total: u32 = scaled.iter().map(|&(_, n)| n).sum();
        assert_eq!(total, (45_355f64 * 0.1).round() as u32);
        // Largest flavor keeps roughly its share.
        let k8s_idx = cat
            .flavors()
            .iter()
            .position(|f| f.name == "gp-c4-m16")
            .unwrap();
        let k8s = scaled.iter().find(|&&(i, _)| i == k8s_idx).unwrap().1;
        assert!((840..=850).contains(&k8s), "k8s scaled = {k8s}");
    }

    #[test]
    fn scaled_populations_at_full_scale_are_identity() {
        let cat = paper_flavor_catalog();
        let scaled = cat.scaled_populations(1.0);
        for (i, n) in scaled {
            assert_eq!(n, cat.flavors()[i].population);
        }
    }

    #[test]
    #[should_panic(expected = "ratio")]
    fn zero_ratio_rejected() {
        paper_flavor_catalog().scaled_populations(0.0);
    }

    #[test]
    fn scaled_populations_above_one_grow_proportionally() {
        let cat = paper_flavor_catalog();
        let scaled = cat.scaled_populations(10.0);
        let total: u64 = scaled.iter().map(|&(_, n)| n as u64).sum();
        assert_eq!(total, cat.total_population() as u64 * 10);
        for (i, n) in scaled {
            let base = cat.flavors()[i].population;
            assert!(
                (n as i64 - base as i64 * 10).abs() <= 1,
                "flavor {i}: {n} vs 10×{base}"
            );
        }
    }
}
