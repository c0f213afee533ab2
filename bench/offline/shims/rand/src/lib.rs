//! Offline stand-in for `rand` 0.8, patched in by `bench/Cargo.toml`.
//!
//! `sapsim` owns its generator (`SimRng`, xoshiro256++) and borrows only
//! `rand`'s traits. This crate supplies those traits, functional, over the
//! caller's `next_u64`. It does not reproduce `rand`'s draw streams: a
//! float takes the top 53 bits, an integer range is a widening multiply.

use std::fmt;
use std::ops::{Range, RangeInclusive};

/// Error type of `RngCore::try_fill_bytes`; never constructed here.
#[derive(Debug)]
pub struct Error;

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("random number generator failure")
    }
}

impl std::error::Error for Error {}

/// The core of a random number generator.
pub trait RngCore {
    fn next_u32(&mut self) -> u32;
    fn next_u64(&mut self) -> u64;
    fn fill_bytes(&mut self, dest: &mut [u8]);
    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), Error>;
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u32(&mut self) -> u32 {
        (**self).next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        (**self).fill_bytes(dest)
    }
    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), Error> {
        (**self).try_fill_bytes(dest)
    }
}

/// Uniform in `[0, 1)` from the top 53 bits of one draw.
fn unit_f64<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
    (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Uniform in `[0, span)` by a widening multiply (bias below 2^-64 · span).
fn below<R: RngCore + ?Sized>(rng: &mut R, span: u64) -> u64 {
    ((rng.next_u64() as u128 * span as u128) >> 64) as u64
}

/// A type `Rng::gen` can produce.
pub trait Standard: Sized {
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for u64 {
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> u64 {
        rng.next_u64()
    }
}

impl Standard for u32 {
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> u32 {
        rng.next_u32()
    }
}

impl Standard for f64 {
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
        unit_f64(rng)
    }
}

impl Standard for bool {
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> bool {
        rng.next_u64() >> 63 == 1
    }
}

/// A range `Rng::gen_range` can draw a `T` from.
pub trait SampleRange<T> {
    fn draw<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

impl SampleRange<f64> for Range<f64> {
    fn draw<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "cannot sample empty range");
        let v = self.start + (self.end - self.start) * unit_f64(rng);
        // Rounding can land on the excluded end.
        if v < self.end {
            v
        } else {
            self.start
        }
    }
}

impl SampleRange<f64> for RangeInclusive<f64> {
    fn draw<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        let (lo, hi) = self.into_inner();
        assert!(lo <= hi, "cannot sample empty range");
        lo + (hi - lo) * unit_f64(rng)
    }
}

macro_rules! int_ranges {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn draw<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + below(rng, span) as i128) as $t
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn draw<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = self.into_inner();
                assert!(lo <= hi, "cannot sample empty range");
                match ((hi as i128 - lo as i128) as u64).checked_add(1) {
                    Some(span) => (lo as i128 + below(rng, span) as i128) as $t,
                    None => rng.next_u64() as $t,
                }
            }
        }
    )*};
}

int_ranges!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// Convenience draws on top of [`RngCore`].
pub trait Rng: RngCore {
    fn gen<T: Standard>(&mut self) -> T {
        T::draw(self)
    }

    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.draw(self)
    }

    fn gen_bool(&mut self, p: f64) -> bool {
        assert!(
            (0.0..=1.0).contains(&p),
            "probability {p} is outside [0, 1]"
        );
        unit_f64(self) < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

#[cfg(test)]
mod tests {
    use super::*;

    /// SplitMix64, enough to exercise the traits.
    struct Mix(u64);

    impl RngCore for Mix {
        fn next_u32(&mut self) -> u32 {
            (self.next_u64() >> 32) as u32
        }
        fn next_u64(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }
        fn fill_bytes(&mut self, dest: &mut [u8]) {
            for b in dest {
                *b = self.next_u64() as u8;
            }
        }
        fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), Error> {
            self.fill_bytes(dest);
            Ok(())
        }
    }

    #[test]
    fn ranges_stay_inside_their_bounds() {
        let mut rng = Mix(1);
        for _ in 0..10_000 {
            let f: f64 = rng.gen_range(0.25..0.75);
            assert!((0.25..0.75).contains(&f));
            let u: u64 = rng.gen_range(3..9);
            assert!((3..9).contains(&u));
            let i: i32 = rng.gen_range(-4..=4);
            assert!((-4..=4).contains(&i));
        }
    }

    #[test]
    fn gen_bool_matches_its_probability() {
        let mut rng = Mix(2);
        let hits = (0..100_000).filter(|_| rng.gen_bool(0.3)).count();
        assert!((29_000..31_000).contains(&hits), "hits = {hits}");
        assert!(!rng.gen_bool(0.0));
        assert!(rng.gen_bool(1.0));
    }
}
