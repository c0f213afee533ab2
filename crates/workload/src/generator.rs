//! The workload generator: turns the calibrated catalog into a concrete,
//! reproducible stream of [`VmSpec`]s for one observation window.
//!
//! Two populations are produced:
//!
//! * **Initial population** — for each flavor, its (scaled) Table 1/2
//!   population exists at window start. Each VM's total lifetime is drawn
//!   from the *length-biased* version of its archetype's distribution
//!   (VMs observed alive at a random instant are biased toward long
//!   lifetimes — the inspection paradox) and its age at window start is
//!   uniform over that lifetime, so the initial cohort's death rate
//!   matches the steady-state churn that replenishes it.
//! * **Churn arrivals** — each flavor replenishes itself with a Poisson
//!   arrival process at its steady-state rate `population / mean_lifetime`,
//!   producing the creation/deletion events the dataset records.

use crate::flavor::FlavorCatalog;
use crate::lifetime::LifetimeModel;
use crate::usage::UsageModel;
use crate::vmspec::{ResizeSpec, VmId, VmSpec};
use sapsim_sim::{SimDuration, SimRng, SimTime};
use sapsim_topology::Resources;

/// Configuration of one workload generation run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GeneratorConfig {
    /// Scale applied to the catalog populations (1.0 = the paper's 45,355
    /// average VMs; values above 1 grow the population proportionally for
    /// multi-region estates).
    pub scale: f64,
    /// Observation window length in days (the paper observed 30).
    pub horizon_days: u64,
    /// Whether to generate churn arrivals in addition to the initial
    /// population.
    pub churn: bool,
    /// Ramp-up span in days: the initial population arrives uniformly over
    /// `[0, rampup_days)` instead of all at instant zero, letting the
    /// simulator warm its telemetry before the observation window starts.
    pub rampup_days: u64,
    /// Probability that a general-purpose VM is resized (doubled in CPU
    /// and memory) once during its life — the resize events the paper's
    /// dataset records (Section 4).
    pub resize_probability: f64,
    /// Root RNG seed.
    pub seed: u64,
}

impl Default for GeneratorConfig {
    fn default() -> Self {
        GeneratorConfig {
            scale: 1.0,
            horizon_days: 30,
            churn: true,
            rampup_days: 0,
            resize_probability: 0.02,
            seed: 0,
        }
    }
}

/// Double CPU and memory of a flavor template (disk is untouched —
/// OpenStack resizes cannot shrink disks and rarely grow them).
fn doubled(r: &Resources) -> Resources {
    Resources {
        cpu_cores: r.cpu_cores * 2,
        memory_mib: r.memory_mib * 2,
        disk_gib: r.disk_gib,
    }
}

/// Generates reproducible VM populations from a catalog.
#[derive(Debug)]
pub struct WorkloadGenerator {
    catalog: FlavorCatalog,
    config: GeneratorConfig,
}

impl WorkloadGenerator {
    /// A generator over `catalog` with `config`.
    pub fn new(catalog: FlavorCatalog, config: GeneratorConfig) -> Self {
        WorkloadGenerator { catalog, config }
    }

    /// The generating catalog.
    pub fn catalog(&self) -> &FlavorCatalog {
        &self.catalog
    }


    /// Draw an optional mid-life resize for a spec under construction.
    /// Only general-purpose VMs resize (HANA systems are re-platformed,
    /// not resized; CI executors are immutable), doubling CPU and memory —
    /// the common "the VM turned out too small" correction.
    fn draw_resize(
        &self,
        class: crate::flavor::WorkloadClass,
        residual: SimDuration,
        rng: &mut SimRng,
    ) -> Option<ResizeSpec> {
        use crate::flavor::WorkloadClass;
        if class != WorkloadClass::GeneralPurpose
            || self.config.resize_probability <= 0.0
            || !rng.bool(self.config.resize_probability.min(1.0))
        {
            return None;
        }
        let frac: f64 = rng.range_f64(0.1, 0.9);
        Some(ResizeSpec {
            after: SimDuration::from_millis((residual.as_millis() as f64 * frac) as u64),
            resources: Resources::ZERO, // patched by the caller, which knows the flavor
        })
    }

    /// Generate all VM specs for the window, sorted by arrival time (the
    /// initial population first, then churn arrivals in time order).
    pub fn generate(&self) -> Vec<VmSpec> {
        let root = SimRng::seed_from(self.config.seed).split("workload");
        let mut specs: Vec<VmSpec> = Vec::new();
        let mut next_id: u64 = 0;
        let horizon = SimTime::from_days(self.config.rampup_days + self.config.horizon_days);

        for (flavor_index, scaled_count) in self.catalog.scaled_populations(self.config.scale) {
            let flavor = &self.catalog.flavors()[flavor_index];
            let lifetime_model = LifetimeModel::for_archetype(flavor.archetype);
            let flavor_rng = root.split(&flavor.name);

            // Initial population: alive by the end of the ramp, with
            // uniform age into their lifetime. With a ramp, arrivals are
            // spread uniformly over it.
            for i in 0..scaled_count {
                let mut rng = flavor_rng.split("initial").split_index(i as u64);
                let lifetime = lifetime_model.draw_length_biased(&mut rng);
                let age_frac: f64 = rng.range_f64(0.0, 1.0);
                let age = SimDuration::from_millis(
                    (lifetime.as_millis() as f64 * age_frac) as u64,
                );
                let arrival = if self.config.rampup_days == 0 {
                    SimTime::ZERO
                } else {
                    let frac: f64 = rng.range_f64(0.0, 1.0);
                    SimTime::from_millis(
                        (self.config.rampup_days as f64
                            * sapsim_sim::MILLIS_PER_DAY as f64
                            * frac) as u64,
                    )
                };
                // Bias survivors toward the observation window: a VM whose
                // residual lifetime would end inside the ramp is rejuvenated
                // (age zero), so only genuinely short-lived VMs churn out
                // before observation starts.
                let ramp_end = SimTime::from_days(self.config.rampup_days);
                let age = if arrival + (lifetime - age) <= ramp_end {
                    SimDuration::ZERO
                } else {
                    age
                };
                let residual = lifetime - age;
                let resize = self.draw_resize(flavor.class, residual, &mut rng).map(|mut r| {
                    r.resources = doubled(&flavor.resources);
                    r
                });
                specs.push(VmSpec {
                    id: VmId(next_id),
                    flavor_index,
                    flavor_name: flavor.name.clone(),
                    resources: flavor.resources,
                    archetype: flavor.archetype,
                    class: flavor.class,
                    usage: UsageModel::draw(flavor.archetype, &mut rng),
                    arrival,
                    age_at_arrival: age,
                    lifetime,
                    resize,
                });
                next_id += 1;
            }

            // Churn: Poisson arrivals at the steady-state replenishment
            // rate. Long-lived flavors produce almost none over 30 days;
            // CI/CD flavors churn heavily.
            if self.config.churn && scaled_count > 0 {
                let mean_days = LifetimeModel::mean_days(flavor.archetype);
                let rate_per_day = scaled_count as f64 / mean_days;
                let mut arr_rng = flavor_rng.split("arrivals");
                let mut t_days = 0.0f64;
                let total_days = (self.config.rampup_days + self.config.horizon_days) as f64;
                let mut k: u64 = 0;
                loop {
                    // Exponential inter-arrival via inverse transform.
                    let u: f64 = arr_rng.range_f64(f64::MIN_POSITIVE, 1.0);
                    t_days += -u.ln() / rate_per_day;
                    if t_days >= total_days {
                        break;
                    }
                    // During the ramp, churn replaces only the deaths of
                    // the already-arrived fraction of the population; thin
                    // the Poisson process proportionally so the alive count
                    // reaches (not overshoots) steady state at ramp end.
                    if self.config.rampup_days > 0 {
                        let ramp = self.config.rampup_days as f64;
                        if t_days < ramp && !arr_rng.bool((t_days / ramp).clamp(0.0, 1.0)) {
                            continue;
                        }
                    }
                    let arrival = SimTime::from_millis(
                        (t_days * sapsim_sim::MILLIS_PER_DAY as f64) as u64,
                    );
                    debug_assert!(arrival < horizon);
                    let mut rng = flavor_rng.split("churn").split_index(k);
                    let lifetime = lifetime_model.draw(&mut rng);
                    let resize = self.draw_resize(flavor.class, lifetime, &mut rng).map(|mut r| {
                        r.resources = doubled(&flavor.resources);
                        r
                    });
                    specs.push(VmSpec {
                        id: VmId(next_id),
                        flavor_index,
                        flavor_name: flavor.name.clone(),
                        resources: flavor.resources,
                        archetype: flavor.archetype,
                        class: flavor.class,
                        usage: UsageModel::draw(flavor.archetype, &mut rng),
                        arrival,
                        age_at_arrival: SimDuration::ZERO,
                        lifetime,
                        resize,
                    });
                    next_id += 1;
                    k += 1;
                }
            }
        }

        specs.sort_by_key(|s| (s.arrival, s.id));
        // Re-number ids in arrival order so ids are monotone in time.
        for (i, s) in specs.iter_mut().enumerate() {
            s.id = VmId(i as u64);
        }
        specs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::archetype::Archetype;
    use crate::flavor::{paper_flavor_catalog, WorkloadClass};

    fn small_config(scale: f64, churn: bool) -> GeneratorConfig {
        GeneratorConfig {
            scale,
            horizon_days: 30,
            churn,
            rampup_days: 0,
            resize_probability: 0.0,
            seed: 7,
        }
    }

    #[test]
    fn initial_population_matches_scaled_catalog() {
        let gen = WorkloadGenerator::new(paper_flavor_catalog(), small_config(0.02, false));
        let specs = gen.generate();
        let expected: u32 = paper_flavor_catalog()
            .scaled_populations(0.02)
            .iter()
            .map(|&(_, n)| n)
            .sum();
        assert_eq!(specs.len() as u32, expected);
        assert!(specs.iter().all(|s| s.arrival == SimTime::ZERO));
    }

    #[test]
    fn generation_is_reproducible() {
        let run = || {
            WorkloadGenerator::new(paper_flavor_catalog(), small_config(0.01, true)).generate()
        };
        let a = run();
        let b = run();
        assert_eq!(a.len(), b.len());
        assert_eq!(a, b);
    }

    #[test]
    fn specs_are_sorted_by_arrival_with_monotone_ids() {
        let gen = WorkloadGenerator::new(paper_flavor_catalog(), small_config(0.01, true));
        let specs = gen.generate();
        for w in specs.windows(2) {
            assert!(w[0].arrival <= w[1].arrival);
            assert!(w[0].id < w[1].id);
        }
    }

    #[test]
    fn churn_comes_mostly_from_short_lived_archetypes() {
        let gen = WorkloadGenerator::new(paper_flavor_catalog(), small_config(0.02, true));
        let specs = gen.generate();
        let churned: Vec<_> = specs
            .iter()
            .filter(|s| s.arrival > SimTime::ZERO)
            .collect();
        assert!(!churned.is_empty(), "30 days of CI churn must exist");
        let ci = churned
            .iter()
            .filter(|s| s.archetype == Archetype::CiCd)
            .count();
        assert!(
            ci as f64 / churned.len() as f64 > 0.5,
            "CI/CD dominates churn: {ci}/{}",
            churned.len()
        );
        // HANA systems essentially never churn within a month.
        let hana = churned
            .iter()
            .filter(|s| s.archetype == Archetype::HanaDb)
            .count();
        assert!(hana < 10, "hana churn = {hana}");
    }

    #[test]
    fn initial_population_departures_spread_over_window() {
        let gen = WorkloadGenerator::new(paper_flavor_catalog(), small_config(0.02, false));
        let specs = gen.generate();
        let horizon = SimTime::from_days(30);
        let departing = specs.iter().filter(|s| s.departure() < horizon).count();
        let persisting = specs.len() - departing;
        // Long-lived enterprise fleet: most VMs outlive the window, but
        // short-lived ones depart inside it.
        assert!(departing > 0);
        assert!(persisting > departing);
    }

    #[test]
    fn steady_state_population_is_roughly_preserved() {
        // With churn on, the alive count at day 30 should be close to the
        // alive count at day 0 (the generator replenishes at the
        // steady-state rate).
        let gen = WorkloadGenerator::new(paper_flavor_catalog(), small_config(0.05, true));
        let specs = gen.generate();
        let alive_at = |t: SimTime| specs.iter().filter(|s| s.alive_at(t)).count() as f64;
        let start = alive_at(SimTime::ZERO);
        let end = alive_at(SimTime::from_days(29));
        assert!(
            (end / start - 1.0).abs() < 0.10,
            "start={start}, end={end}"
        );
    }

    #[test]
    fn rampup_spreads_initial_arrivals_and_keeps_them_alive_past_it() {
        let mut cfg = small_config(0.02, false);
        cfg.rampup_days = 7;
        let specs = WorkloadGenerator::new(paper_flavor_catalog(), cfg).generate();
        let ramp_end = SimTime::from_days(7);
        assert!(specs.iter().all(|s| s.arrival < ramp_end));
        // Arrivals genuinely spread (not all at zero).
        let early = specs
            .iter()
            .filter(|s| s.arrival < SimTime::from_days(1))
            .count();
        assert!(early * 3 < specs.len(), "early = {early}/{}", specs.len());
        // The long-lived bulk of the initial population survives the ramp
        // (short-lived CI/dev VMs may churn out; with churn enabled they
        // are replenished at the steady-state rate).
        let survivors = specs.iter().filter(|s| s.departure() > ramp_end).count();
        assert!(
            survivors * 10 > specs.len() * 8,
            "survivors = {survivors}/{}",
            specs.len()
        );
    }

    #[test]
    fn resizes_are_drawn_for_general_purpose_vms_only() {
        let mut cfg = small_config(0.05, true);
        cfg.resize_probability = 0.5;
        let specs = WorkloadGenerator::new(paper_flavor_catalog(), cfg).generate();
        let resized: Vec<_> = specs.iter().filter(|s| s.resize.is_some()).collect();
        assert!(!resized.is_empty());
        for s in &resized {
            assert_eq!(s.class, WorkloadClass::GeneralPurpose);
            let r = s.resize.unwrap();
            assert_eq!(r.resources.cpu_cores, s.resources.cpu_cores * 2);
            assert_eq!(r.resources.memory_mib, s.resources.memory_mib * 2);
            assert!(r.after > sapsim_sim::SimDuration::ZERO);
        }
        // Roughly half of GP VMs carry one at p = 0.5.
        let gp = specs
            .iter()
            .filter(|s| s.class == WorkloadClass::GeneralPurpose)
            .count();
        let share = resized.len() as f64 / gp as f64;
        assert!((share - 0.5).abs() < 0.08, "share = {share:.2}");
    }

    #[test]
    fn hana_class_is_preserved_through_generation() {
        let gen = WorkloadGenerator::new(paper_flavor_catalog(), small_config(0.05, false));
        let specs = gen.generate();
        let hana = specs
            .iter()
            .filter(|s| s.class == WorkloadClass::Hana)
            .count();
        // HANA share of the catalog is (300+500+400+238+80+20)/45,355 ≈ 3.4%.
        let share = hana as f64 / specs.len() as f64;
        assert!((0.02..=0.05).contains(&share), "hana share = {share:.3}");
        for s in specs.iter().filter(|s| s.class == WorkloadClass::Hana) {
            assert!(s.resources.memory_gib() >= 512);
        }
    }
}
