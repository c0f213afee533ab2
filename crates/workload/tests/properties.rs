//! Randomized properties of the workload generator: whatever the scale,
//! seed, and churn settings, the generated population obeys its contracts.

use sapsim_sim::{for_each_seed, SimTime};
use sapsim_workload::{
    paper_flavor_catalog, CpuClass, GeneratorConfig, RamClass, WorkloadClass, WorkloadGenerator,
};

fn config(scale: f64, seed: u64, churn: bool, rampup: u64) -> GeneratorConfig {
    GeneratorConfig {
        scale,
        horizon_days: 10,
        churn,
        rampup_days: rampup,
        resize_probability: 0.05,
        seed,
    }
}

/// Structural invariants hold for arbitrary (scale, seed, churn).
#[test]
fn generated_specs_are_well_formed() {
    for_each_seed(16, |rng| {
        let scale = rng.range_f64(0.005, 0.05);
        let seed = rng.range(0, 1000);
        let churn = rng.bool(0.5);
        let rampup = if rng.bool(0.5) { 7 } else { 0 };
        let gen =
            WorkloadGenerator::new(paper_flavor_catalog(), config(scale, seed, churn, rampup));
        let specs = gen.generate();
        assert!(!specs.is_empty());
        let horizon = SimTime::from_days(rampup + 10);
        for (i, s) in specs.iter().enumerate() {
            assert_eq!(s.id.raw(), i as u64, "ids are dense and ordered");
            assert!(s.arrival < horizon);
            assert!(s.age_at_arrival <= s.lifetime);
            assert!(s.departure() >= s.arrival);
            assert!(s.resources.cpu_cores >= 1);
            assert!(s.resources.memory_mib >= 1024);
            if let Some(r) = s.resize {
                assert_eq!(s.class, WorkloadClass::GeneralPurpose, "only GP resizes");
                assert!(r.resources.cpu_cores > s.resources.cpu_cores);
            }
            // HANA flavors stay memory-giants; others stay below.
            match s.class {
                WorkloadClass::Hana => assert!(s.resources.memory_gib() >= 512),
                _ => assert!(s.resources.memory_gib() <= 256),
            }
        }
        // Sorted by arrival.
        for w in specs.windows(2) {
            assert!(w[0].arrival <= w[1].arrival);
        }
    });
}

/// Class shares stay close to Tables 1/2 across scales and seeds
/// (initial population only; churn weights short-lived classes by
/// turnover, which the paper's averaging handles via aliveness).
#[test]
fn class_shares_are_scale_invariant() {
    for_each_seed(16, |rng| {
        let scale = rng.range_f64(0.02, 0.10);
        let seed = rng.range(0, 50);
        let gen = WorkloadGenerator::new(paper_flavor_catalog(), config(scale, seed, false, 0));
        let specs = gen.generate();
        let n = specs.len() as f64;
        let small = specs
            .iter()
            .filter(|s| CpuClass::of(s.resources.cpu_cores) == CpuClass::Small)
            .count() as f64;
        assert!(
            (small / n - 0.627).abs() < 0.02,
            "small share = {:.3}",
            small / n
        );
        let ram_medium = specs
            .iter()
            .filter(|s| RamClass::of(s.resources.memory_gib()) == RamClass::Medium)
            .count() as f64;
        assert!(
            (ram_medium / n - 0.912).abs() < 0.02,
            "medium = {:.3}",
            ram_medium / n
        );
    });
}

/// Same config, same output; different seeds diverge.
#[test]
fn seed_determinism() {
    for_each_seed(16, |rng| {
        let seed = rng.range(0, 500);
        let generate = |seed| {
            WorkloadGenerator::new(paper_flavor_catalog(), config(0.01, seed, true, 0)).generate()
        };
        let a = generate(seed);
        assert_eq!(a, generate(seed));
        assert_ne!(a, generate(seed + 1));
    });
}
