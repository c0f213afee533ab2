//! Reproducible random number streams.
//!
//! Everything stochastic in the simulator — workload demand curves, VM
//! arrival times, lifetime draws, scheduler tie-breaking — flows through
//! [`SimRng`]. The type owns a fixed, self-contained algorithm
//! (xoshiro256++ seeded through a SplitMix64 stream) and every draw built
//! on it, so a result never depends on the version of an outside library,
//! and adds *labelled stream splitting*: deriving a child RNG from a
//! parent plus a string label yields a stream that is statistically
//! independent of, and stable with respect to, every other label. Adding
//! a new consumer of randomness in one subsystem therefore never perturbs
//! the draws seen by another — a property the calibration tests rely on.
//!
//! The generator state is four plain `u64` words and has a JSON form, so
//! a placed VM's stream is part of the cloud state the placement engine
//! hashes; a decoded stream continues bit-for-bit where the encoded one
//! stopped.
//!
//! # Draws
//!
//! Every draw is a fixed function of consecutive [`SimRng::next_u64`]
//! outputs, pinned by known-answer tests:
//!
//! | draw | definition |
//! |---|---|
//! | [`next_f64`](SimRng::next_f64) | top 53 bits of one output, scaled to `[0, 1)` |
//! | [`range`](SimRng::range) | `lo + ((output × span) >> 64)` — a widening multiply, bias below `span · 2⁻⁶⁴` |
//! | [`range_f64`](SimRng::range_f64) | `lo + (hi − lo) · next_f64()`, mapped back to `lo` if rounding reaches `hi` |
//! | [`bool`](SimRng::bool) | `next_f64() < p` |
//! | [`normal`](SimRng::normal) | 128-layer ziggurat (Marsaglia & Tsang, 2000) with `R = 3.442619855899`, `V = 9.91256303526217·10⁻³`. One output per candidate: its low 7 bits are the layer `i`, its top 53 bits, read as a signed integer and scaled by `2⁻⁵²`, are `u ∈ [−1, 1)`, and `x = u · xᵢ` is returned when `\|x\| < xᵢ₊₁`. Otherwise layer 0 returns `±(R + a)` from Marsaglia's tail loop (`a = −ln(1 − next_f64())/R`, `b = −ln(1 − next_f64())`, until `2b ≥ a²`), and a layer above it returns `x` when `fᵢ + (fᵢ₊₁ − fᵢ) · next_f64() < exp(−x²/2)` or else starts over with a new candidate |
//! | [`lognormal`](SimRng::lognormal) | `exp(μ + σ · normal())` |

use sapsim_json::json_codec;
use std::sync::OnceLock;

/// A deterministic random number generator with labelled stream splitting.
///
/// ```
/// use sapsim_sim::SimRng;
///
/// let mut root = SimRng::seed_from(42);
/// let mut workload = root.split("workload");
/// let mut scheduler = root.split("scheduler");
/// // Streams are independent and reproducible:
/// let a = workload.next_u64();
/// let b = SimRng::seed_from(42).split("workload").next_u64();
/// assert_eq!(a, b);
/// let c = scheduler.next_u64();
/// assert_ne!(a, c);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimRng {
    /// xoshiro256++ state words. Encoding and decoding a stream resumes
    /// it mid-sequence.
    state: [u64; 4],
    /// The seed material this stream was created from, kept so that `split`
    /// derives children from the stream identity rather than its mutable
    /// state (splitting is insensitive to how many draws happened before).
    lineage: u64,
}

json_codec!(struct SimRng { state, lineage });

impl SimRng {
    /// Create a root stream from a 64-bit seed.
    pub fn seed_from(seed: u64) -> Self {
        let mixed = splitmix64(seed);
        SimRng {
            state: seed_state(mixed),
            lineage: mixed,
        }
    }

    /// Derive an independent child stream identified by `label`.
    ///
    /// Children are a function of the parent's *identity* (its seed lineage)
    /// and the label only — not of how many values the parent has produced.
    pub fn split(&self, label: &str) -> SimRng {
        let child = splitmix64(self.lineage ^ sapsim_json::fnv1a_64(label.as_bytes()));
        SimRng {
            state: seed_state(child),
            lineage: child,
        }
    }

    /// Derive an independent child stream identified by an integer index
    /// (for per-VM or per-node streams where formatting a label string per
    /// entity would be wasteful).
    pub fn split_index(&self, index: u64) -> SimRng {
        // Mix the index through splitmix so that consecutive indices land far
        // apart in seed space.
        let child = splitmix64(self.lineage ^ splitmix64(index ^ 0x9e37_79b9_7f4a_7c15));
        SimRng {
            state: seed_state(child),
            lineage: child,
        }
    }

    /// The next 64 uniformly random bits: one xoshiro256++ step
    /// (Blackman & Vigna, 2019).
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.state;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform in `[0, 1)`.
    pub(crate) fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[lo, hi)`.
    ///
    /// # Panics
    /// Panics if the range is empty.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "cannot sample empty range");
        lo + ((self.next_u64() as u128 * (hi - lo) as u128) >> 64) as u64
    }

    /// Uniform in `[lo, hi)`.
    ///
    /// # Panics
    /// Panics if the range is empty.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo < hi, "cannot sample empty range");
        let v = lo + (hi - lo) * self.next_f64();
        // Rounding can land on the excluded end.
        if v < hi {
            v
        } else {
            lo
        }
    }

    /// `true` with probability `p`.
    ///
    /// # Panics
    /// Panics if `p` is outside `[0, 1]`.
    pub fn bool(&mut self, p: f64) -> bool {
        assert!(
            (0.0..=1.0).contains(&p),
            "probability {p} is outside [0, 1]"
        );
        self.next_f64() < p
    }

    /// A standard normal deviate (mean 0, standard deviation 1).
    ///
    /// 97 % of draws cost one [`next_u64`](Self::next_u64), one multiply
    /// and one compare; only the wedge and tail rejections reach for
    /// `exp`/`ln`.
    pub fn normal(&mut self) -> f64 {
        let zig = Ziggurat::get();
        loop {
            let bits = self.next_u64();
            let layer = (bits & 0x7f) as usize;
            let u = ((bits as i64) >> 11) as f64 * (1.0 / (1u64 << 52) as f64);
            let x = u * zig.x[layer];
            if x.abs() < zig.x[layer + 1] {
                return x;
            }
            if layer == 0 {
                return self.normal_tail().copysign(u);
            }
            let y = zig.f[layer] + (zig.f[layer + 1] - zig.f[layer]) * self.next_f64();
            if y < (-0.5 * x * x).exp() {
                return x;
            }
        }
    }

    /// A draw from the normal tail beyond [`ZIGGURAT_R`] (Marsaglia, 1964).
    #[cold]
    fn normal_tail(&mut self) -> f64 {
        loop {
            // 1 - u is in (0, 1], so the logarithms are finite.
            let x = -(1.0 - self.next_f64()).ln() / ZIGGURAT_R;
            let y = -(1.0 - self.next_f64()).ln();
            if 2.0 * y >= x * x {
                return ZIGGURAT_R + x;
            }
        }
    }

    /// A log-normal deviate: `exp(mu + sigma * z)` for a standard normal `z`.
    pub fn lognormal(&mut self, mu: f64, sigma: f64) -> f64 {
        (mu + sigma * self.normal()).exp()
    }
}

/// Right edge of the ziggurat's base layer, where the tail begins.
const ZIGGURAT_R: f64 = 3.442_619_855_899;
/// Area of each of the 128 layers of the unnormalized density
/// `exp(−x²/2)` on `x ≥ 0` (the base layer's includes the tail).
const ZIGGURAT_V: f64 = 9.912_563_035_262_17e-3;

/// The ziggurat's layer table: `x[0] > x[1] = R > … > x[128] = 0` are the
/// right edges (`x[0] = V / f(R)` stretches the base layer so the share of
/// it beyond `R` equals the tail's share of `V`) and `f[i] = exp(−x[i]²/2)`.
/// Layer `i ≥ 1` is the rectangle `[0, x[i]] × [f[i], f[i+1]]`.
struct Ziggurat {
    x: [f64; 129],
    f: [f64; 129],
}

impl Ziggurat {
    /// The table, built on the first draw of the process (a few
    /// microseconds) and immutable from then on.
    fn get() -> &'static Ziggurat {
        static TABLE: OnceLock<Ziggurat> = OnceLock::new();
        TABLE.get_or_init(Ziggurat::build)
    }

    /// The standard recurrence: each layer's top is where a rectangle of
    /// width `x[i]` has grown by area `V`.
    fn build() -> Ziggurat {
        let density = |x: f64| (-0.5 * x * x).exp();
        let mut x = [0.0; 129];
        let mut f = [1.0; 129];
        x[0] = ZIGGURAT_V / density(ZIGGURAT_R);
        x[1] = ZIGGURAT_R;
        f[0] = density(x[0]);
        f[1] = density(ZIGGURAT_R);
        for i in 2..128 {
            f[i] = f[i - 1] + ZIGGURAT_V / x[i - 1];
            x[i] = (-2.0 * f[i].ln()).sqrt();
        }
        Ziggurat { x, f }
    }
}

/// Run `property` once per seed in `0..cases`, each case on a fresh
/// `SimRng::seed_from(seed)` — how this workspace states randomized
/// properties in tests. If the property panics, the failing seed is
/// printed with the panic, so the case replays alone.
pub fn for_each_seed(cases: u64, mut property: impl FnMut(&mut SimRng)) {
    struct Replay(u64);
    impl Drop for Replay {
        fn drop(&mut self) {
            if std::thread::panicking() {
                eprintln!("property failed for SimRng::seed_from({})", self.0);
            }
        }
    }
    for seed in 0..cases {
        let _replay = Replay(seed);
        property(&mut SimRng::seed_from(seed));
    }
}

/// Expand a 64-bit seed into a full xoshiro state through the canonical
/// SplitMix64 stream (the seeding procedure the xoshiro authors
/// recommend). SplitMix64 is a bijection-based counter generator, so the
/// four words can never all be zero in practice; the guard below makes
/// the all-zero fixed point impossible even in principle.
fn seed_state(seed: u64) -> [u64; 4] {
    let mut counter = seed;
    let mut state = [0u64; 4];
    for word in &mut state {
        counter = counter.wrapping_add(0x9e37_79b9_7f4a_7c15);
        *word = mix64(counter);
    }
    if state == [0; 4] {
        state[0] = 0x9e37_79b9_7f4a_7c15;
    }
    state
}

/// SplitMix64 finalizer; used only for seed derivation, never for the
/// simulation's random draws themselves.
fn splitmix64(z: u64) -> u64 {
    mix64(z.wrapping_add(0x9e37_79b9_7f4a_7c15))
}

/// The SplitMix64 output mixing function (no counter increment).
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sapsim_json::{decode, ToJson};

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seed_from(7);
        let mut b = SimRng::seed_from(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::seed_from(7);
        let mut b = SimRng::seed_from(8);
        let va: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn split_is_insensitive_to_parent_draws() {
        let mut parent1 = SimRng::seed_from(99);
        let parent2 = SimRng::seed_from(99);
        // Burn some draws on parent1 only.
        for _ in 0..10 {
            parent1.next_u64();
        }
        let mut c1 = parent1.split("child");
        let mut c2 = parent2.split("child");
        for _ in 0..20 {
            assert_eq!(c1.next_u64(), c2.next_u64());
        }
    }

    #[test]
    fn split_labels_are_independent() {
        let root = SimRng::seed_from(1);
        let mut a = root.split("alpha");
        let mut b = root.split("beta");
        let va: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn split_index_streams_are_distinct_and_stable() {
        let root = SimRng::seed_from(5);
        let mut seen = std::collections::HashSet::new();
        for i in 0..1000u64 {
            let mut child = root.split_index(i);
            assert!(seen.insert(child.next_u64()), "collision at index {i}");
        }
        // Stability.
        assert_eq!(
            root.split_index(42).next_u64(),
            SimRng::seed_from(5).split_index(42).next_u64()
        );
    }

    #[test]
    fn nested_splits_compose() {
        let root = SimRng::seed_from(3);
        let mut a = root.split("x").split("y");
        let mut b = SimRng::seed_from(3).split("x").split("y");
        assert_eq!(a.next_u64(), b.next_u64());
        let mut c = root.split("y").split("x");
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn ranges_stay_inside_their_bounds() {
        let mut rng = SimRng::seed_from(11);
        for _ in 0..10_000 {
            assert!((0.25..0.75).contains(&rng.range_f64(0.25, 0.75)));
            assert!((3..9).contains(&rng.range(3, 9)));
            assert!((0.0..1.0).contains(&rng.next_f64()));
        }
        assert_eq!(rng.range(7, 8), 7);
    }

    #[test]
    fn bool_matches_its_probability() {
        let mut rng = SimRng::seed_from(2);
        let hits = (0..100_000).filter(|_| rng.bool(0.3)).count();
        assert!((29_000..31_000).contains(&hits), "hits = {hits}");
        assert!(!rng.bool(0.0));
        assert!(rng.bool(1.0));
    }

    #[test]
    fn normal_draws_have_unit_moments() {
        let mut rng = SimRng::seed_from(5);
        let n = 200_000;
        let draws: Vec<f64> = (0..n).map(|_| rng.normal()).collect();
        let mean = draws.iter().sum::<f64>() / n as f64;
        let var = draws.iter().map(|z| (z - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.01, "mean = {mean}");
        assert!((var - 1.0).abs() < 0.02, "variance = {var}");
        // The median of a log-normal is exp(mu).
        let mut logs: Vec<f64> = (0..20_001).map(|_| rng.lognormal(2.0, 0.5)).collect();
        logs.sort_by(f64::total_cmp);
        assert!(
            (logs[10_000].ln() - 2.0).abs() < 0.02,
            "median = {}",
            logs[10_000]
        );
    }

    #[test]
    fn rough_uniformity_of_bits() {
        // Sanity check: bit 0 of next_u64 should be ~50% set.
        let mut rng = SimRng::seed_from(123);
        let ones = (0..10_000).filter(|_| rng.next_u64() & 1 == 1).count();
        assert!((4500..5500).contains(&ones), "ones = {ones}");
    }

    #[test]
    fn xoshiro_reference_vector() {
        // Known-answer test against the reference xoshiro256++
        // implementation with state {1, 2, 3, 4}: pins the generator so a
        // refactor can never silently change every stream in the
        // simulator (which would move every committed result).
        let mut rng = SimRng {
            state: [1, 2, 3, 4],
            lineage: 0,
        };
        let expect: [u64; 5] = [
            0x0000_0000_0280_0001,
            0x0000_0000_0380_0067,
            0x000c_c000_0380_0067,
            0x000c_c201_9944_00b2,
            0x8012_a201_9ac4_33cd,
        ];
        for (i, &want) in expect.iter().enumerate() {
            assert_eq!(rng.next_u64(), want, "draw {i}");
        }
    }

    #[test]
    fn draw_reference_vectors() {
        // Known answers for every derived draw, computed independently
        // from the definitions in the module docs on the reference state
        // {1, 2, 3, 4} advanced four steps (outputs five and six are
        // 0x8012a2019ac433cd and 0x8a69978acdee33ba; the normal draw's
        // first candidate fails a wedge test on them and the seventh
        // output is returned from layer 61). Changing any of them shifts
        // every simulated run.
        let reference = || {
            let mut rng = SimRng {
                state: [1, 2, 3, 4],
                lineage: 0,
            };
            for _ in 0..4 {
                rng.next_u64();
            }
            rng
        };
        let mut rng = reference();
        assert_eq!(rng.next_f64(), 0.500_284_314_529_168_4);
        assert_eq!(rng.next_f64(), 0.540_673_705_470_845);
        let mut rng = reference();
        assert_eq!((rng.range(10, 1000), rng.range(10, 1000)), (505, 545));
        assert_eq!(reference().range_f64(0.25, 0.75), 0.500_142_157_264_584_2);
        let mut rng = reference();
        assert_eq!((rng.bool(0.5), rng.bool(0.6)), (false, true));
        // The ziggurat's table, and `lognormal`'s `exp`, go through the
        // platform's libm; allow it the last bit.
        let close = |got: f64, want: f64| (got - want).abs() <= 4.0 * f64::EPSILON * want.abs();
        let z = reference().normal();
        assert!(close(z, -0.757_021_949_724_565_3), "normal = {z}");
        let l = reference().lognormal(1.0, 0.5);
        assert!(close(l, 1.861_698_094_256_882_8), "lognormal = {l}");
    }

    /// `∫ₓ^∞ exp(−t²/2) dt` for `x > 0` by Laplace's continued fraction
    /// `exp(−x²/2) / (x + 1/(x + 2/(x + 3/(x + …))))`.
    fn upper_tail_area(x: f64) -> f64 {
        let fraction = (1..=400).rev().fold(0.0, |t, k| k as f64 / (x + t));
        (-0.5 * x * x).exp() / (x + fraction)
    }

    #[test]
    fn ziggurat_table_has_equal_area_layers() {
        let zig = Ziggurat::get();
        assert!(zig.x.windows(2).all(|w| w[0] > w[1]), "edges decrease");
        assert_eq!((zig.x[1], zig.x[128], zig.f[128]), (ZIGGURAT_R, 0.0, 1.0));
        let base = ZIGGURAT_R * zig.f[1] + upper_tail_area(ZIGGURAT_R);
        assert!((base - ZIGGURAT_V).abs() < 1e-12, "base layer = {base}");
        // The stretched base edge sends the tail its share of the layer.
        assert!((zig.x[0] * zig.f[1] - ZIGGURAT_V).abs() < 1e-12);
        for i in 1..128 {
            let area = zig.x[i] * (zig.f[i + 1] - zig.f[i]);
            // The top layer closes the recurrence at f = 1 and so carries
            // what the 13 published digits of R leave over: 1.2e-9 of V.
            let tolerance = if i == 127 { 2e-11 } else { 1e-12 };
            assert!((area - ZIGGURAT_V).abs() < tolerance, "layer {i} = {area}");
        }
    }

    #[test]
    fn normal_draws_follow_the_normal_cdf() {
        // Φ at the probe points, to the last digit of an f64.
        const PHI: [(f64, f64); 9] = [
            (-3.0, 0.001_349_898_031_630_094_6),
            (-2.0, 0.022_750_131_948_179_21),
            (-1.0, 0.158_655_253_931_457_05),
            (-0.5, 0.308_537_538_725_986_9),
            (0.0, 0.5),
            (0.5, 0.691_462_461_274_013_1),
            (1.0, 0.841_344_746_068_542_9),
            (2.0, 0.977_249_868_051_820_8),
            (3.0, 0.998_650_101_968_369_9),
        ];
        let n = 2_000_000;
        let mut rng = SimRng::seed_from(17);
        let mut below = [0u64; PHI.len()];
        let (mut left_tail, mut right_tail, mut wedges) = (0u64, 0u64, 0u64);
        for _ in 0..n {
            let mut one_step = rng.clone();
            one_step.next_u64();
            let z = rng.normal();
            for (count, &(x, _)) in below.iter_mut().zip(&PHI) {
                *count += u64::from(z < x);
            }
            // No layer but the base reaches past R, and the base only
            // through its tail branch; any other draw that took more
            // than one output went through a wedge test.
            left_tail += u64::from(z <= -ZIGGURAT_R);
            right_tail += u64::from(z >= ZIGGURAT_R);
            wedges += u64::from(z.abs() < ZIGGURAT_R && rng != one_step);
        }
        let sigmas = |count: u64, p: f64| {
            (count as f64 - n as f64 * p).abs() / (n as f64 * p * (1.0 - p)).sqrt()
        };
        for (&count, &(x, p)) in below.iter().zip(&PHI) {
            assert!(
                sigmas(count, p) < 4.5,
                "P(z < {x}) = {}",
                count as f64 / n as f64
            );
        }
        // The mass beyond R, 5.76e-4 on both sides together, comes from
        // the tail branch alone.
        let beyond = 2.0 * upper_tail_area(ZIGGURAT_R) / std::f64::consts::TAU.sqrt();
        assert!((beyond - 5.76e-4).abs() < 1e-6, "mass beyond R = {beyond}");
        assert!(left_tail > 0 && right_tail > 0, "both tails were drawn");
        assert!(sigmas(left_tail + right_tail, beyond) < 4.5);
        assert!(
            sigmas(left_tail, beyond / 2.0) < 4.5,
            "sign symmetry of the tail"
        );
        // 2.8 % of candidates miss their layer's core and face a wedge.
        assert!(wedges > n / 100, "wedges = {wedges}");
    }

    #[test]
    fn json_round_trip_resumes_mid_stream() {
        // Encode at an arbitrary point, decode, and the restored stream
        // produces exactly the continuation — while the original keeps
        // advancing independently (no shared state).
        let mut rng = SimRng::seed_from(77);
        for _ in 0..13 {
            rng.next_u64();
        }
        let frozen = rng.to_json_string();
        assert!(
            rng.state.iter().any(|&w| w > 1 << 53),
            "the state words use the full 64 bits: {frozen}"
        );
        let mut restored: SimRng = decode(&frozen).expect("parses");
        assert_eq!(restored, rng);
        let expect: Vec<u64> = (0..32).map(|_| rng.next_u64()).collect();
        let got: Vec<u64> = (0..32).map(|_| restored.next_u64()).collect();
        assert_eq!(got, expect);
        // Splitting still derives from lineage after a round trip.
        assert_eq!(
            restored.split("child").next_u64(),
            SimRng::seed_from(77).split("child").next_u64()
        );
    }
}
