//! VM lifetime distributions.
//!
//! Figure 15 of the paper shows lifetimes "ranging from few minutes to
//! multiple years" with large variation *within* each flavor and no
//! consistent size→lifetime relationship. We model lifetimes as
//! per-archetype log-normals (heavy right tail, strictly positive) clamped
//! to `[2 minutes, 3 years]`.

use crate::archetype::Archetype;
use sapsim_sim::{SimDuration, SimRng};

/// Shortest representable lifetime: 2 minutes.
pub const MIN_LIFETIME: SimDuration = SimDuration::from_secs(120);
/// Longest representable lifetime: 3 years (the paper's retrospective
/// collection spans "multiple years").
pub const MAX_LIFETIME: SimDuration = SimDuration::from_days(3 * 365);

/// Log-normal lifetime model for one archetype.
#[derive(Debug, Clone, Copy)]
pub struct LifetimeModel {
    /// `ln(median days)`: for a log-normal, median = exp(μ).
    mu: f64,
    /// μ of the length-biased version: density ∝ L·f(L), which for a
    /// log-normal is another log-normal with μ′ = μ + σ².
    biased_mu: f64,
    sigma: f64,
}

impl LifetimeModel {
    /// The model for an archetype, parameterized by
    /// [`ArchetypeParams::lifetime_median_days`](crate::ArchetypeParams)
    /// and `lifetime_sigma`.
    pub fn for_archetype(archetype: Archetype) -> LifetimeModel {
        let p = archetype.params();
        let mu = p.lifetime_median_days.ln();
        LifetimeModel {
            mu,
            biased_mu: mu + p.lifetime_sigma * p.lifetime_sigma,
            sigma: p.lifetime_sigma,
        }
    }

    /// Draw one lifetime (for a freshly created VM).
    pub fn draw(&self, rng: &mut SimRng) -> SimDuration {
        let days = rng.lognormal(self.mu, self.sigma);
        let d = SimDuration::from_secs_f64(days * 86_400.0);
        d.clamp(MIN_LIFETIME, MAX_LIFETIME)
    }

    /// Draw one lifetime for a VM *observed alive at a random instant*
    /// (the initial population of an observation window). Such VMs are
    /// length-biased toward long lifetimes — the inspection paradox — and
    /// drawing them from the plain distribution would make the initial
    /// cohort die out faster than steady-state churn replenishes it.
    pub fn draw_length_biased(&self, rng: &mut SimRng) -> SimDuration {
        let days = rng.lognormal(self.biased_mu, self.sigma);
        let d = SimDuration::from_secs_f64(days * 86_400.0);
        d.clamp(MIN_LIFETIME, MAX_LIFETIME)
    }

    /// Expected (mean) lifetime in days, after clamping is ignored:
    /// `median · exp(σ²/2)`. Used by the generator to derive steady-state
    /// arrival rates.
    pub fn mean_days(archetype: Archetype) -> f64 {
        let p = archetype.params();
        p.lifetime_median_days * (p.lifetime_sigma * p.lifetime_sigma / 2.0).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn draws_are_within_clamp() {
        let mut rng = SimRng::seed_from(1);
        for a in Archetype::ALL {
            let m = LifetimeModel::for_archetype(a);
            for _ in 0..2000 {
                let d = m.draw(&mut rng);
                assert!(d >= MIN_LIFETIME && d <= MAX_LIFETIME, "{a}: {d}");
            }
        }
    }

    #[test]
    fn median_is_approximately_the_configured_median() {
        let mut rng = SimRng::seed_from(2);
        let m = LifetimeModel::for_archetype(Archetype::DevEnvironment);
        let mut draws: Vec<f64> = (0..4000).map(|_| m.draw(&mut rng).as_days_f64()).collect();
        draws.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = draws[draws.len() / 2];
        let expected = Archetype::DevEnvironment.params().lifetime_median_days;
        assert!(
            (median / expected - 1.0).abs() < 0.15,
            "median={median:.1}d expected≈{expected}d"
        );
    }

    #[test]
    fn cicd_draws_reach_minutes_and_hana_reaches_years() {
        let mut rng = SimRng::seed_from(3);
        let ci = LifetimeModel::for_archetype(Archetype::CiCd);
        let short = (0..4000)
            .map(|_| ci.draw(&mut rng))
            .min()
            .unwrap();
        assert!(
            short < SimDuration::from_hours(1),
            "CI lifetimes reach sub-hour: {short}"
        );
        let hana = LifetimeModel::for_archetype(Archetype::HanaDb);
        let long = (0..4000).map(|_| hana.draw(&mut rng)).max().unwrap();
        assert!(
            long > SimDuration::from_days(2 * 365),
            "HANA lifetimes reach multiple years: {long}"
        );
    }

    #[test]
    fn within_flavor_variation_is_large() {
        // Fig. 15: significant variation within each category.
        let mut rng = SimRng::seed_from(4);
        let m = LifetimeModel::for_archetype(Archetype::GenericService);
        let draws: Vec<f64> = (0..4000).map(|_| m.draw(&mut rng).as_days_f64()).collect();
        let min = draws.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = draws.iter().cloned().fold(0.0f64, f64::max);
        assert!(max / min > 100.0, "spread {min:.2}..{max:.0} days");
    }

    #[test]
    fn mean_days_formula() {
        let p = Archetype::HanaDb.params();
        let expect = p.lifetime_median_days * (p.lifetime_sigma.powi(2) / 2.0).exp();
        assert_eq!(LifetimeModel::mean_days(Archetype::HanaDb), expect);
    }

    #[test]
    fn draws_are_reproducible() {
        let draw_seq = || {
            let mut rng = SimRng::seed_from(9);
            let m = LifetimeModel::for_archetype(Archetype::CiCd);
            (0..10).map(|_| m.draw(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(draw_seq(), draw_seq());
    }
}
