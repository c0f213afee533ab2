//! Offline stand-in for `rand_distr` 0.4, patched in by `bench/Cargo.toml`.
//!
//! Only what `sapsim-workload` names: `Distribution`, `StandardNormal`
//! and `LogNormal`. The normal draw is Box–Muller on two uniforms, not
//! `rand_distr`'s ziggurat, so streams differ from the published crate.

use rand::Rng;
use std::fmt;

/// Types that can draw a `T` from a generator.
pub trait Distribution<T> {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> T;
}

/// The normal distribution with mean 0 and standard deviation 1.
#[derive(Debug, Clone, Copy)]
pub struct StandardNormal;

impl Distribution<f64> for StandardNormal {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        // 1 - u is in (0, 1], so the logarithm is finite.
        let u: f64 = rng.gen();
        let v: f64 = rng.gen();
        (-2.0 * (1.0 - u).ln()).sqrt() * (std::f64::consts::TAU * v).cos()
    }
}

/// Why a distribution's parameters were refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NormalError {
    BadVariance,
    MeanTooSmall,
}

impl fmt::Display for NormalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            NormalError::BadVariance => "standard deviation is negative or not finite",
            NormalError::MeanTooSmall => "mean is not finite",
        })
    }
}

impl std::error::Error for NormalError {}

/// `exp(mu + sigma * z)` for a standard normal `z`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogNormal<F> {
    mu: F,
    sigma: F,
}

impl LogNormal<f64> {
    pub fn new(mu: f64, sigma: f64) -> Result<LogNormal<f64>, NormalError> {
        if !(sigma.is_finite() && sigma >= 0.0) {
            return Err(NormalError::BadVariance);
        }
        if !mu.is_finite() {
            return Err(NormalError::MeanTooSmall);
        }
        Ok(LogNormal { mu, sigma })
    }
}

impl Distribution<f64> for LogNormal<f64> {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let z: f64 = StandardNormal.sample(rng);
        (self.mu + self.sigma * z).exp()
    }
}
