//! Simulated time.
//!
//! The SAP dataset samples telemetry at 30–300 s intervals and reports CPU
//! ready time in milliseconds, so the engine uses a millisecond tick as its
//! base unit. A `u64` of milliseconds covers ~584 million years, far beyond
//! any observation window.

use sapsim_json::json_codec;
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// Milliseconds per second.
pub const MILLIS_PER_SECOND: u64 = 1_000;
/// Milliseconds per minute.
pub const MILLIS_PER_MINUTE: u64 = 60 * MILLIS_PER_SECOND;
/// Milliseconds per hour.
pub const MILLIS_PER_HOUR: u64 = 60 * MILLIS_PER_MINUTE;
/// Milliseconds per day.
pub const MILLIS_PER_DAY: u64 = 24 * MILLIS_PER_HOUR;

/// An absolute instant on the simulated clock, measured in milliseconds since
/// the start of the simulation (the paper's epoch is 2024-07-31 00:00 UTC;
/// the simulation clock starts at zero and the analysis layer maps day
/// indices to calendar labels).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time in milliseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

json_codec!(newtype SimTime);
json_codec!(newtype SimDuration);

impl SimTime {
    /// The zero instant — the start of the simulation.
    pub const ZERO: SimTime = SimTime(0);

    /// Construct from raw milliseconds since simulation start.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms)
    }

    /// Construct from whole seconds since simulation start.
    pub const fn from_secs(secs: u64) -> Self {
        SimTime(secs * MILLIS_PER_SECOND)
    }

    /// Construct from whole hours since simulation start.
    pub const fn from_hours(hours: u64) -> Self {
        SimTime(hours * MILLIS_PER_HOUR)
    }

    /// Construct from whole days since simulation start.
    pub const fn from_days(days: u64) -> Self {
        SimTime(days * MILLIS_PER_DAY)
    }

    /// Raw milliseconds since simulation start.
    pub const fn as_millis(self) -> u64 {
        self.0
    }

    /// Whole seconds since simulation start (truncating).
    pub const fn as_secs(self) -> u64 {
        self.0 / MILLIS_PER_SECOND
    }

    /// Fractional hours since simulation start.
    pub fn as_hours_f64(self) -> f64 {
        self.0 as f64 / MILLIS_PER_HOUR as f64
    }

    /// Zero-based index of the simulated day containing this instant.
    pub const fn day_index(self) -> u64 {
        self.0 / MILLIS_PER_DAY
    }

    /// Zero-based hour of day (0..24) of this instant.
    pub const fn hour_of_day(self) -> u64 {
        (self.0 % MILLIS_PER_DAY) / MILLIS_PER_HOUR
    }

    /// Zero-based day of week, treating day 0 as a Wednesday.
    ///
    /// The paper's observation window starts on 2024-07-31, a Wednesday;
    /// weekday/weekend effects in the workload models key off this.
    pub const fn day_of_week(self) -> u64 {
        // Day 0 = Wednesday = weekday index 2 (Monday = 0).
        (self.day_index() + 2) % 7
    }

    /// Whether this instant falls on a Saturday or Sunday (see
    /// [`day_of_week`](Self::day_of_week) for the calendar anchoring).
    pub const fn is_weekend(self) -> bool {
        self.day_of_week() >= 5
    }

    /// Duration elapsed since an earlier instant. Panics in debug builds if
    /// `earlier` is later than `self`; saturates in release builds.
    pub fn since(self, earlier: SimTime) -> SimDuration {
        debug_assert!(earlier.0 <= self.0, "since() called with a later instant");
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Checked addition of a duration.
    pub fn checked_add(self, d: SimDuration) -> Option<SimTime> {
        self.0.checked_add(d.0).map(SimTime)
    }
}

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Construct from raw milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms)
    }

    /// Construct from whole seconds.
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration(secs * MILLIS_PER_SECOND)
    }

    /// Construct from whole minutes.
    pub const fn from_mins(mins: u64) -> Self {
        SimDuration(mins * MILLIS_PER_MINUTE)
    }

    /// Construct from whole hours.
    pub const fn from_hours(hours: u64) -> Self {
        SimDuration(hours * MILLIS_PER_HOUR)
    }

    /// Construct from whole days.
    pub const fn from_days(days: u64) -> Self {
        SimDuration(days * MILLIS_PER_DAY)
    }

    /// Construct from fractional seconds, rounding to the nearest
    /// millisecond. Negative inputs clamp to zero.
    pub fn from_secs_f64(secs: f64) -> Self {
        SimDuration((secs.max(0.0) * MILLIS_PER_SECOND as f64).round() as u64)
    }

    /// Raw milliseconds.
    pub const fn as_millis(self) -> u64 {
        self.0
    }

    /// Whole seconds (truncating).
    pub const fn as_secs(self) -> u64 {
        self.0 / MILLIS_PER_SECOND
    }

    /// Fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / MILLIS_PER_SECOND as f64
    }

    /// Fractional days.
    pub fn as_days_f64(self) -> f64 {
        self.0 as f64 / MILLIS_PER_DAY as f64
    }

    /// True if the duration is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.0 = self.0.saturating_sub(rhs.0);
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let day = self.day_index();
        let rem = self.0 % MILLIS_PER_DAY;
        let h = rem / MILLIS_PER_HOUR;
        let m = (rem % MILLIS_PER_HOUR) / MILLIS_PER_MINUTE;
        let s = (rem % MILLIS_PER_MINUTE) / MILLIS_PER_SECOND;
        write!(f, "d{day:02} {h:02}:{m:02}:{s:02}")
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 < MILLIS_PER_SECOND {
            write!(f, "{}ms", self.0)
        } else if self.0 < MILLIS_PER_MINUTE {
            write!(f, "{:.1}s", self.as_secs_f64())
        } else if self.0 < MILLIS_PER_DAY {
            write!(f, "{:.1}h", self.0 as f64 / MILLIS_PER_HOUR as f64)
        } else {
            write!(f, "{:.1}d", self.as_days_f64())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_roundtrips() {
        assert_eq!(SimTime::from_secs(90).as_millis(), 90_000);
        assert_eq!(SimTime::from_days(2).as_secs(), 172_800);
        assert_eq!(SimDuration::from_mins(5).as_secs(), 300);
        assert_eq!(SimDuration::from_hours(3).as_millis(), 3 * MILLIS_PER_HOUR);
    }

    #[test]
    fn day_and_hour_indexing() {
        let t = SimTime::from_days(3) + SimDuration::from_hours(7);
        assert_eq!(t.day_index(), 3);
        assert_eq!(t.hour_of_day(), 7);
    }

    #[test]
    fn weekend_anchoring_matches_paper_epoch() {
        // Day 0 is Wednesday 2024-07-31.
        assert_eq!(SimTime::from_days(0).day_of_week(), 2);
        // Day 3 is Saturday 2024-08-03.
        assert!(SimTime::from_days(3).is_weekend());
        assert!(SimTime::from_days(4).is_weekend());
        assert!(!SimTime::from_days(5).is_weekend());
        // One week later, Saturday again.
        assert!(SimTime::from_days(10).is_weekend());
    }

    #[test]
    fn arithmetic() {
        let a = SimTime::from_secs(100);
        let b = a + SimDuration::from_secs(50);
        assert_eq!(b.as_secs(), 150);
        assert_eq!((b - a).as_secs(), 50);
        assert_eq!(b.since(a).as_secs(), 50);
        assert_eq!(SimDuration::from_secs(10) * 6, SimDuration::from_mins(1));
        assert_eq!(SimDuration::from_mins(1) / 2, SimDuration::from_secs(30));
    }

    #[test]
    fn saturating_subtraction() {
        let a = SimTime::from_secs(10);
        let b = SimTime::from_secs(20);
        assert_eq!((a - b), SimDuration::ZERO);
        let mut d = SimDuration::from_secs(1);
        d -= SimDuration::from_secs(5);
        assert!(d.is_zero());
    }

    #[test]
    fn from_secs_f64_rounds_and_clamps() {
        assert_eq!(SimDuration::from_secs_f64(1.0015).as_millis(), 1002);
        assert_eq!(SimDuration::from_secs_f64(-3.0), SimDuration::ZERO);
    }

    #[test]
    fn display_formats() {
        assert_eq!(SimTime::from_millis(0).to_string(), "d00 00:00:00");
        let t = SimTime::from_days(12) + SimDuration::from_hours(5) + SimDuration::from_secs(90);
        assert_eq!(t.to_string(), "d12 05:01:30");
        assert_eq!(SimDuration::from_millis(250).to_string(), "250ms");
        assert_eq!(SimDuration::from_secs(42).to_string(), "42.0s");
        assert_eq!(SimDuration::from_hours(2).to_string(), "2.0h");
        assert_eq!(SimDuration::from_days(3).to_string(), "3.0d");
    }
}
