//! Streaming aggregation: running statistics and per-day rollups.
//!
//! The paper's heatmaps (Figures 5–7, 10–13) plot *daily averages* per node
//! over a 30-day window. Retaining every raw sample for a full region
//! (1,823 nodes × 7 host metrics × 8,640 samples/day) is wasteful when only
//! daily aggregates are consumed, so the recording loop can stream samples
//! into a [`DailyRollup`] instead, which keeps O(days) memory per series.

use sapsim_json::json_codec;
use sapsim_sim::SimTime;

/// Count/sum/min/max/sum-of-squares accumulator.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RunningStat {
    /// Number of samples.
    pub count: u64,
    /// Sum of samples.
    pub sum: f64,
    /// Sum of squared samples (for variance).
    pub(crate) sum_sq: f64,
    /// Minimum sample (meaningless when `count == 0`).
    pub min: f64,
    /// Maximum sample (meaningless when `count == 0`).
    pub max: f64,
}

json_codec!(struct RunningStat { count, sum, sum_sq, min, max });

impl RunningStat {
    /// Fresh accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fold one sample in.
    pub fn push(&mut self, v: f64) {
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += 1;
        self.sum += v;
        self.sum_sq += v * v;
    }

    /// Merge another accumulator in.
    pub fn merge(&mut self, other: &RunningStat) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.count += other.count;
        self.sum += other.sum;
        self.sum_sq += other.sum_sq;
    }

    /// Arithmetic mean; `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.sum / self.count as f64)
        }
    }
}

/// Aggregates of one simulated day for one series.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DayCell {
    /// Statistics over the day's samples.
    pub stat: RunningStat,
}

json_codec!(struct DayCell { stat });

impl DayCell {
    /// Daily mean; `None` for days without data (the white cells of the
    /// paper's heatmaps).
    pub fn mean(&self) -> Option<f64> {
        self.stat.mean()
    }
}

/// Per-day aggregation of one series over a fixed observation window.
#[derive(Debug, Clone, PartialEq)]
pub struct DailyRollup {
    days: Vec<DayCell>,
}

json_codec!(struct DailyRollup { days });

impl DailyRollup {
    /// A rollup covering `days` simulated days (day 0 .. day `days-1`).
    pub fn new(days: usize) -> Self {
        DailyRollup {
            days: vec![DayCell::default(); days],
        }
    }

    /// Number of days covered.
    pub fn num_days(&self) -> usize {
        self.days.len()
    }

    /// Fold in a sample taken at `time`. Samples beyond the window are
    /// ignored (the observation ended).
    pub fn push(&mut self, time: SimTime, value: f64) {
        let day = time.day_index() as usize;
        if let Some(cell) = self.days.get_mut(day) {
            cell.stat.push(value);
        }
    }

    /// The aggregate cell for one day.
    pub fn day(&self, day: usize) -> Option<&DayCell> {
        self.days.get(day)
    }

    /// Daily means across the window; `None` entries are days without data.
    pub fn daily_means(&self) -> Vec<Option<f64>> {
        self.days.iter().map(|c| c.mean()).collect()
    }

    /// Mean over the whole window (all samples weighted equally).
    pub fn overall_mean(&self) -> Option<f64> {
        let mut total = RunningStat::new();
        for c in &self.days {
            total.merge(&c.stat);
        }
        total.mean()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sapsim_sim::SimDuration;

    #[test]
    fn running_stat_basics() {
        let mut s = RunningStat::new();
        assert_eq!(s.mean(), None);
        for v in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.push(v);
        }
        assert_eq!(s.count, 8);
        assert_eq!(s.mean(), Some(5.0));
        assert_eq!(s.sum_sq, 232.0);
        assert_eq!(s.min, 2.0);
        assert_eq!(s.max, 9.0);
    }

    #[test]
    fn running_stat_merge_equals_combined_push() {
        let mut a = RunningStat::new();
        let mut b = RunningStat::new();
        let mut all = RunningStat::new();
        for i in 0..10 {
            let v = (i * i) as f64;
            if i % 2 == 0 {
                a.push(v);
            } else {
                b.push(v);
            }
            all.push(v);
        }
        a.merge(&b);
        assert_eq!(a.count, all.count);
        assert!((a.sum - all.sum).abs() < 1e-9);
        assert_eq!(a.min, all.min);
        assert_eq!(a.max, all.max);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = RunningStat::new();
        a.push(3.0);
        let before = a;
        a.merge(&RunningStat::new());
        assert_eq!(a, before);
        let mut e = RunningStat::new();
        e.merge(&before);
        assert_eq!(e, before);
    }

    #[test]
    fn rollup_buckets_by_day() {
        let mut r = DailyRollup::new(3);
        let h = SimDuration::from_hours(1);
        // Day 0: 1.0 and 3.0; day 1: 10.0; day 2: nothing.
        r.push(SimTime::ZERO + h, 1.0);
        r.push(SimTime::ZERO + h * 5, 3.0);
        r.push(SimTime::from_days(1) + h, 10.0);
        assert_eq!(r.daily_means(), vec![Some(2.0), Some(10.0), None]);
        assert_eq!(r.overall_mean(), Some(14.0 / 3.0));
    }

    #[test]
    fn rollup_ignores_out_of_window_samples() {
        let mut r = DailyRollup::new(2);
        r.push(SimTime::from_days(5), 100.0);
        assert_eq!(r.daily_means(), vec![None, None]);
        assert_eq!(r.overall_mean(), None);
    }

    #[test]
    fn boundary_sample_lands_in_new_day() {
        let mut r = DailyRollup::new(2);
        r.push(SimTime::from_days(1), 7.0);
        assert_eq!(r.daily_means(), vec![None, Some(7.0)]);
    }

    #[test]
    fn gap_accounting_counts_empty_days() {
        let mut r = DailyRollup::new(5);
        // Data on days 0 and 3; days 1-2 and 4 are dark.
        r.push(SimTime::ZERO, 1.0);
        r.push(SimTime::from_days(3), 2.0);
        assert_eq!(
            r.daily_means(),
            vec![Some(1.0), None, None, Some(2.0), None]
        );
    }

    #[test]
    fn gap_accounting_edge_cases() {
        // Fully dark window.
        let dark = DailyRollup::new(3);
        assert_eq!(dark.daily_means(), vec![None; 3]);
        assert_eq!(dark.overall_mean(), None);
        // Fully covered window.
        let mut full = DailyRollup::new(2);
        full.push(SimTime::ZERO, 1.0);
        full.push(SimTime::from_days(1), 1.0);
        assert_eq!(full.daily_means(), vec![Some(1.0); 2]);
        // Zero-day window: no days, no mean, no division by zero.
        let empty = DailyRollup::new(0);
        assert!(empty.daily_means().is_empty());
        assert_eq!(empty.overall_mean(), None);
    }
}
