//! Per-VM resource demand models.
//!
//! Each VM owns a [`UsageModel`] (fixed parameters drawn once from its
//! archetype) and a [`UsageState`] (the evolving Ornstein–Uhlenbeck noise).
//! Sampling yields the two ratios the dataset reports per VM:
//! `vrops_virtualmachine_cpu_usage_ratio` and
//! `vrops_virtualmachine_memory_consumed_ratio` — fractions of the
//! *requested* flavor resources actually consumed.
//!
//! The model is a sum of four components:
//!
//! * a per-VM constant mean (drawn from the archetype's range — this is
//!   what spreads the Figure 14 CDFs),
//! * a business-hours sinusoid, dampened on weekends (the weekday/weekend
//!   effect visible in Figure 8),
//! * mean-reverting Ornstein–Uhlenbeck noise with a ~2 h correlation time
//!   (short-term fluctuation),
//! * occasional spikes (builds, batch jobs) that drive contention tails.

use crate::archetype::{Archetype, ArchetypeParams};
use sapsim_json::json_codec;
use sapsim_sim::{SimDuration, SimRng, SimTime};
use std::f64::consts::TAU;

/// Correlation time of the OU noise.
const OU_TAU_SECS: f64 = 2.0 * 3600.0;

/// Mean-CPU band for hot outlier VMs (Figure 14(a)'s small
/// optimally-/over-utilized tail).
const CPU_HOT_RANGE: (f64, f64) = (0.60, 0.95);

/// Mean-memory band for the high component of the bimodal consumed-memory
/// mixture (Figure 14(b)'s >85 % majority).
const MEM_HIGH_RANGE: (f64, f64) = (0.86, 0.99);

/// Fixed demand parameters of one VM.
#[derive(Debug, Clone, PartialEq)]
pub struct UsageModel {
    /// Long-run mean CPU utilization (fraction of requested vCPUs).
    pub cpu_mean: f64,
    /// Diurnal amplitude, relative to `cpu_mean` (0.5 = ±50 % swing).
    pub cpu_diurnal_amp: f64,
    /// OU noise stationary standard deviation (CPU).
    pub cpu_noise_sigma: f64,
    /// Per-sample spike probability.
    pub cpu_spike_prob: f64,
    /// Spike magnitude.
    pub cpu_spike_mag: f64,
    /// Weekend dampening factor (0 = none, 1 = fully idle weekends).
    pub weekend_dampening: f64,
    /// Hour of day at which this VM's load peaks.
    pub peak_hour: f64,
    /// Long-run mean memory-consumed ratio.
    pub mem_mean: f64,
    /// OU noise stationary standard deviation (memory).
    pub mem_noise_sigma: f64,
    /// Linear memory growth per day of VM age.
    pub mem_daily_drift: f64,
}

json_codec!(struct UsageModel {
    cpu_mean, cpu_diurnal_amp, cpu_noise_sigma, cpu_spike_prob, cpu_spike_mag, weekend_dampening,
    peak_hour, mem_mean, mem_noise_sigma, mem_daily_drift,
});

impl UsageModel {
    /// Draw a model for one VM of the given archetype. Each VM gets its own
    /// mean levels and peak hour, which is what produces the population
    /// spread of Figure 14 rather than identical curves.
    pub fn draw(archetype: Archetype, rng: &mut SimRng) -> UsageModel {
        let p: ArchetypeParams = archetype.params();
        let cpu_mean = if p.cpu_hot_prob > 0.0 && rng.bool(p.cpu_hot_prob) {
            rng.range_f64(CPU_HOT_RANGE.0, CPU_HOT_RANGE.1)
        } else {
            rng.range_f64(p.cpu_mean_range.0, p.cpu_mean_range.1)
        };
        let mem_mean = if p.mem_high_prob > 0.0 && rng.bool(p.mem_high_prob) {
            rng.range_f64(MEM_HIGH_RANGE.0, MEM_HIGH_RANGE.1)
        } else {
            rng.range_f64(p.mem_mean_range.0, p.mem_mean_range.1)
        };
        // Business-hours peak, mid-morning to late afternoon, with a little
        // per-VM jitter so load is not synchronized fleet-wide.
        let peak_hour = rng.range_f64(8.0, 18.0);
        UsageModel {
            cpu_mean,
            cpu_diurnal_amp: p.cpu_diurnal_amp,
            cpu_noise_sigma: p.cpu_noise_sigma,
            cpu_spike_prob: p.cpu_spike_prob,
            cpu_spike_mag: p.cpu_spike_mag,
            weekend_dampening: p.weekend_dampening,
            peak_hour,
            mem_mean,
            mem_noise_sigma: p.mem_noise_sigma,
            mem_daily_drift: p.mem_daily_drift,
        }
    }

    /// Where this VM's load peaks on the 24-hour circle. Fixed for the
    /// VM's life: a caller sampling many VMs per instant computes it once
    /// per VM and hands it to every [`step`](Self::step).
    pub fn peak_phase(&self) -> DayPhase {
        DayPhase::of_hour(self.peak_hour)
    }

    /// Deterministic expected CPU level at `time` (no noise, no spikes).
    /// Exposed for tests and for cheap contention estimation.
    pub fn cpu_level(&self, time: SimTime) -> f64 {
        self.level(self.peak_phase(), &ScrapeTick::new(time, SimDuration::ZERO))
    }

    /// The deterministic CPU level at the tick's instant.
    fn level(&self, peak: DayPhase, tick: &ScrapeTick) -> f64 {
        let diurnal = tick.hour.cos_of_difference(peak);
        let weekday_scale = if tick.weekend {
            1.0 - self.weekend_dampening
        } else {
            1.0
        };
        // The diurnal swing is *relative* to the VM's own mean: a mostly
        // idle VM swings a little, a busy one a lot. An absolute swing
        // would let small-mean VMs saturate whole nodes at the peak hour.
        (self.cpu_mean * (1.0 + self.cpu_diurnal_amp * diurnal) * weekday_scale).clamp(0.0, 1.0)
    }

    /// Advance the VM's noise state by `dt` and sample the pair of
    /// utilization ratios at `time`, for a VM created `age` ago.
    ///
    /// Returns `(cpu_ratio, mem_ratio)`, both in `[0, 1]`. This is the
    /// single-VM entry: it builds the [`ScrapeTick`] and the peak phase
    /// per call and runs the same [`step`](Self::step) a scrape does.
    pub fn sample(
        &self,
        state: &mut UsageState,
        time: SimTime,
        dt: SimDuration,
        age: SimDuration,
        rng: &mut SimRng,
    ) -> (f64, f64) {
        self.step(
            self.peak_phase(),
            &ScrapeTick::new(time, dt),
            state,
            age,
            rng,
        )
    }

    /// One VM's share of a scrape: advance its noise state over the
    /// tick's step and sample `(cpu_ratio, mem_ratio)` at the tick's
    /// instant. `peak` is this model's [`peak_phase`](Self::peak_phase).
    pub fn step(
        &self,
        peak: DayPhase,
        tick: &ScrapeTick,
        state: &mut UsageState,
        age: SimDuration,
        rng: &mut SimRng,
    ) -> (f64, f64) {
        state.advance(self, tick, rng);
        let mut cpu = self.level(peak, tick) + state.ou_cpu;
        if self.cpu_spike_prob > 0.0 && rng.bool(self.cpu_spike_prob.min(1.0)) {
            cpu += self.cpu_spike_mag * rng.range_f64(0.5, 1.0);
        }
        let mem = self.mem_mean + self.mem_daily_drift * age.as_days_f64() + state.ou_mem;
        (cpu.clamp(0.0, 1.0), mem.clamp(0.02, 1.0))
    }
}

/// An hour of the day as a point on the 24-hour circle, held as cosine
/// and sine of its angle.
#[derive(Debug, Clone, Copy)]
pub struct DayPhase {
    cos: f64,
    sin: f64,
}

impl DayPhase {
    /// The phase of `hour` (in hours, any real; the circle wraps at 24).
    pub fn of_hour(hour: f64) -> DayPhase {
        let (sin, cos) = (TAU * hour / 24.0).sin_cos();
        DayPhase { cos, sin }
    }

    /// The diurnal term `cos(τ(h − p)/24)` between the hours `h` of
    /// `self` and `p` of `other`, by angle addition: two multiplies per
    /// VM and scrape where the direct form costs a cosine.
    fn cos_of_difference(self, other: DayPhase) -> f64 {
        self.cos * other.cos + self.sin * other.sin
    }
}

/// Everything about one scrape that is the same for every VM: the
/// noise transition over the scrape interval and where the instant falls
/// in the day and the week. Built once per scrape, read by every
/// [`UsageModel::step`].
#[derive(Debug, Clone, Copy)]
pub struct ScrapeTick {
    /// OU decay over the step, `α = exp(−dt/τ)`.
    alpha: f64,
    /// `√(1−α²)`: the fresh draw's share of the stationary deviation.
    innovation: f64,
    /// Hour of day of the instant.
    hour: DayPhase,
    /// Whether the instant falls on a weekend.
    weekend: bool,
}

impl ScrapeTick {
    /// The tick for sampling at `time`, `dt` after the previous sample.
    pub fn new(time: SimTime, dt: SimDuration) -> ScrapeTick {
        let alpha = (-dt.as_secs_f64() / OU_TAU_SECS).exp();
        let hour = (time.as_millis() % sapsim_sim::MILLIS_PER_DAY) as f64
            / sapsim_sim::MILLIS_PER_HOUR as f64;
        ScrapeTick {
            alpha,
            innovation: (1.0 - alpha * alpha).sqrt(),
            hour: DayPhase::of_hour(hour),
            weekend: time.is_weekend(),
        }
    }
}

/// Evolving noise state of one VM.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct UsageState {
    /// OU deviation of CPU from its deterministic level.
    pub ou_cpu: f64,
    /// OU deviation of memory from its mean.
    pub ou_mem: f64,
}

json_codec!(struct UsageState { ou_cpu, ou_mem });

impl UsageState {
    /// Fresh state with zero deviation.
    pub fn new() -> Self {
        Self::default()
    }

    /// Exact OU transition over the tick's step:
    /// `x ← αx + σ√(1−α²)·z` with `α = exp(−dt/τ)`, which keeps the
    /// stationary distribution `N(0, σ²)` for any step size — scrape
    /// intervals of 30 s and 300 s therefore see the same marginal noise.
    fn advance(&mut self, model: &UsageModel, tick: &ScrapeTick, rng: &mut SimRng) {
        let z_cpu = rng.normal();
        let z_mem = rng.normal();
        self.ou_cpu = tick.alpha * self.ou_cpu + model.cpu_noise_sigma * tick.innovation * z_cpu;
        self.ou_mem = tick.alpha * self.ou_mem + model.mem_noise_sigma * tick.innovation * z_mem;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sapsim_sim::for_each_seed;

    fn model(archetype: Archetype, seed: u64) -> (UsageModel, SimRng) {
        let mut rng = SimRng::seed_from(seed);
        (UsageModel::draw(archetype, &mut rng), rng)
    }

    #[test]
    fn draw_is_reproducible() {
        let (m1, _) = model(Archetype::AbapAppServer, 5);
        let (m2, _) = model(Archetype::AbapAppServer, 5);
        assert_eq!(m1, m2);
        let (m3, _) = model(Archetype::AbapAppServer, 6);
        assert_ne!(m1, m3);
    }

    #[test]
    fn samples_are_in_range() {
        for a in Archetype::ALL {
            let (m, mut rng) = model(a, 42);
            let mut st = UsageState::new();
            let dt = SimDuration::from_secs(300);
            let mut t = SimTime::ZERO;
            for i in 0..2000 {
                let (cpu, mem) = m.sample(&mut st, t, dt, SimDuration::from_days(i / 288), &mut rng);
                assert!((0.0..=1.0).contains(&cpu), "{a}: cpu={cpu}");
                assert!((0.0..=1.0).contains(&mem), "{a}: mem={mem}");
                t += dt;
            }
        }
    }

    #[test]
    fn long_run_cpu_mean_tracks_model_mean() {
        let (m, mut rng) = model(Archetype::KubernetesNode, 7);
        let mut st = UsageState::new();
        let dt = SimDuration::from_secs(300);
        let mut t = SimTime::ZERO;
        let mut sum = 0.0;
        let n = 288 * 28; // four whole weeks
        for _ in 0..n {
            let (cpu, _) = m.sample(&mut st, t, dt, SimDuration::ZERO, &mut rng);
            sum += cpu;
            t += dt;
        }
        let measured = sum / n as f64;
        // Diurnal averages out over whole days; weekends and spikes shift
        // the mean slightly, so tolerate a modest band.
        assert!(
            (measured - m.cpu_mean).abs() < 0.10,
            "measured={measured:.3} model mean={:.3}",
            m.cpu_mean
        );
    }

    #[test]
    fn weekday_peak_exceeds_weekend_level() {
        let (m, _) = model(Archetype::AbapAppServer, 3);
        // Day 0 (Wednesday) at the peak hour vs day 3 (Saturday) same hour.
        let peak_ms = (m.peak_hour * sapsim_sim::MILLIS_PER_HOUR as f64) as u64;
        let weekday = SimTime::from_millis(peak_ms);
        let weekend = SimTime::from_days(3) + SimDuration::from_millis(peak_ms);
        assert!(m.cpu_level(weekday) > m.cpu_level(weekend));
    }

    #[test]
    fn diurnal_peak_is_at_peak_hour() {
        // Use an explicit mid-range mean so neither extreme clamps.
        let (mut m, _) = model(Archetype::AbapAppServer, 9);
        m.cpu_mean = 0.5;
        let at = |h: f64| {
            m.cpu_level(SimTime::from_millis(
                (h * sapsim_sim::MILLIS_PER_HOUR as f64) as u64,
            ))
        };
        let peak = at(m.peak_hour);
        let trough = at((m.peak_hour + 12.0) % 24.0);
        assert!(peak > trough);
        assert!(
            (peak - trough - 2.0 * m.cpu_diurnal_amp * m.cpu_mean).abs() < 1e-6,
            "peak-trough span equals twice the relative amplitude times the mean"
        );
    }

    #[test]
    fn memory_drift_accumulates_with_age() {
        let (m, mut rng) = model(Archetype::HanaDb, 11);
        let mut st = UsageState::new();
        let dt = SimDuration::from_secs(300);
        // Compare expected memory at age 0 and age 200 days: drift should
        // dominate noise.
        let (_, young) = m.sample(&mut st, SimTime::ZERO, dt, SimDuration::ZERO, &mut rng);
        let mut old_sum = 0.0;
        for _ in 0..50 {
            let (_, v) = m.sample(
                &mut st,
                SimTime::ZERO,
                dt,
                SimDuration::from_days(200),
                &mut rng,
            );
            old_sum += v;
        }
        let old = old_sum / 50.0;
        assert!(
            old >= young || old >= 0.99,
            "200-day-old HANA VM consumes more memory (young={young:.3}, old={old:.3})"
        );
    }

    #[test]
    fn ou_noise_is_stationary_across_step_sizes() {
        // Sampling with 30 s steps and 300 s steps must give the same
        // stationary spread (the exact OU discretization property).
        let spread = |step_secs: u64, seed: u64| {
            let (m, mut rng) = model(Archetype::GenericService, seed);
            let mut st = UsageState::new();
            let tick = ScrapeTick::new(SimTime::ZERO, SimDuration::from_secs(step_secs));
            let mut vals = Vec::new();
            for _ in 0..5000 {
                st.advance(&m, &tick, &mut rng);
                vals.push(st.ou_cpu);
            }
            let mean = vals.iter().sum::<f64>() / vals.len() as f64;
            (vals.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / vals.len() as f64).sqrt()
        };
        let (m, _) = model(Archetype::GenericService, 13);
        let s30 = spread(30, 13);
        let s300 = spread(300, 13);
        assert!((s30 - m.cpu_noise_sigma).abs() < 0.02, "s30={s30}");
        assert!((s300 - m.cpu_noise_sigma).abs() < 0.02, "s300={s300}");
    }

    #[test]
    fn single_vm_sample_is_the_scrape_step() {
        // `sample` and a scrape's tick-then-step are one code path: same
        // bits out, same noise state and RNG position left behind.
        for_each_seed(64, |rng| {
            let archetype = Archetype::ALL[rng.range(0, Archetype::ALL.len() as u64) as usize];
            let m = UsageModel::draw(archetype, rng);
            let peak = m.peak_phase();
            let dt = SimDuration::from_secs(rng.range(30, 21_600));
            let mut time = SimTime::from_millis(rng.range(0, 40 * sapsim_sim::MILLIS_PER_DAY));
            let (mut st_a, mut st_b) = (UsageState::new(), UsageState::new());
            let (mut rng_a, mut rng_b) = (rng.clone(), rng.clone());
            for _ in 0..50 {
                let age = SimDuration::from_days(rng.range(0, 400));
                let a = m.sample(&mut st_a, time, dt, age, &mut rng_a);
                let tick = ScrapeTick::new(time, dt);
                let b = m.step(peak, &tick, &mut st_b, age, &mut rng_b);
                assert_eq!(
                    (a.0.to_bits(), a.1.to_bits()),
                    (b.0.to_bits(), b.1.to_bits())
                );
                assert_eq!((st_a, &rng_a), (st_b, &rng_b));
                time += dt;
            }
        });
    }

    #[test]
    fn angle_addition_matches_the_direct_cosine() {
        // A day of 300 s scrapes against the whole 8–18 h peak range.
        for step in 0..288u64 {
            let time = SimTime::from_secs(300 * step);
            let hour = 300.0 * step as f64 / 3600.0;
            let tick = ScrapeTick::new(time, SimDuration::from_secs(300));
            for quarter in 32..=72 {
                let peak_hour = quarter as f64 / 4.0;
                let direct = (TAU * (hour - peak_hour) / 24.0).cos();
                let added = tick.hour.cos_of_difference(DayPhase::of_hour(peak_hour));
                assert!(
                    (added - direct).abs() < 1e-12,
                    "hour {hour}, peak {peak_hour}: {added} vs {direct}"
                );
            }
        }
    }
}
