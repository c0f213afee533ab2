//! A single append-only time series.

use sapsim_json::json_codec;
use sapsim_sim::SimTime;

/// An append-only sequence of `(time, value)` samples with non-decreasing
/// timestamps — one exporter series in the dataset.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TimeSeries {
    times: Vec<SimTime>,
    values: Vec<f64>,
}

json_codec!(struct TimeSeries { times, values });

impl TimeSeries {
    /// An empty series.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// True if no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// Append a sample.
    ///
    /// # Panics
    /// Panics if `time` precedes the last recorded timestamp: exporters
    /// scrape forward in time, so out-of-order appends indicate a bug in
    /// the recording loop.
    pub fn push(&mut self, time: SimTime, value: f64) {
        if let Some(&last) = self.times.last() {
            assert!(
                time >= last,
                "out-of-order append: last={last}, new={time}"
            );
        }
        self.times.push(time);
        self.values.push(value);
    }

    /// The most recent sample.
    pub fn last(&self) -> Option<(SimTime, f64)> {
        Some((*self.times.last()?, *self.values.last()?))
    }

    /// Iterate over all samples in time order.
    pub fn iter(&self) -> impl Iterator<Item = (SimTime, f64)> + '_ {
        self.times.iter().copied().zip(self.values.iter().copied())
    }

    /// Iterate over the samples with `start <= t < end`.
    pub fn range(
        &self,
        start: SimTime,
        end: SimTime,
    ) -> impl Iterator<Item = (SimTime, f64)> + '_ {
        let lo = self.times.partition_point(|&t| t < start);
        let hi = self.times.partition_point(|&t| t < end);
        self.times[lo..hi]
            .iter()
            .copied()
            .zip(self.values[lo..hi].iter().copied())
    }

    /// Just the values, in time order.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Mean of all values; `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        if self.values.is_empty() {
            None
        } else {
            Some(self.values.iter().sum::<f64>() / self.values.len() as f64)
        }
    }

    /// Maximum value; `None` when empty.
    pub fn max(&self) -> Option<f64> {
        self.values.iter().copied().fold(None, |acc, v| {
            Some(match acc {
                None => v,
                Some(a) => a.max(v),
            })
        })
    }

    /// Mean of the samples within `[start, end)`; `None` if the window is
    /// empty.
    pub fn mean_in(&self, start: SimTime, end: SimTime) -> Option<f64> {
        let mut sum = 0.0;
        let mut n = 0usize;
        for (_, v) in self.range(start, end) {
            sum += v;
            n += 1;
        }
        if n == 0 {
            None
        } else {
            Some(sum / n as f64)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sapsim_sim::SimDuration;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn push_and_iterate() {
        let mut s = TimeSeries::new();
        s.push(t(0), 1.0);
        s.push(t(30), 2.0);
        s.push(t(60), 3.0);
        assert_eq!(s.len(), 3);
        let v: Vec<_> = s.iter().collect();
        assert_eq!(v, vec![(t(0), 1.0), (t(30), 2.0), (t(60), 3.0)]);
        assert_eq!(s.last(), Some((t(60), 3.0)));
    }

    #[test]
    fn equal_timestamps_are_allowed() {
        // Two exporters may scrape at the same instant.
        let mut s = TimeSeries::new();
        s.push(t(10), 1.0);
        s.push(t(10), 2.0);
        assert_eq!(s.len(), 2);
    }

    #[test]
    #[should_panic(expected = "out-of-order")]
    fn out_of_order_push_panics() {
        let mut s = TimeSeries::new();
        s.push(t(10), 1.0);
        s.push(t(5), 2.0);
    }

    #[test]
    fn range_is_half_open() {
        let mut s = TimeSeries::new();
        for i in 0..10 {
            s.push(t(i * 10), i as f64);
        }
        let v: Vec<_> = s.range(t(20), t(50)).map(|(_, v)| v).collect();
        assert_eq!(v, vec![2.0, 3.0, 4.0]);
        assert_eq!(s.range(t(200), t(300)).count(), 0);
    }

    #[test]
    fn mean_and_max() {
        let mut s = TimeSeries::new();
        assert_eq!(s.mean(), None);
        assert_eq!(s.max(), None);
        s.push(t(0), 2.0);
        s.push(t(1), 4.0);
        s.push(t(2), 0.0);
        assert_eq!(s.mean(), Some(2.0));
        assert_eq!(s.max(), Some(4.0));
    }

    #[test]
    fn mean_in_window() {
        let mut s = TimeSeries::new();
        let day = SimDuration::from_days(1);
        for i in 0..48 {
            s.push(SimTime::ZERO + day * i / 24, (i % 24) as f64);
        }
        // First day: values 0..24.
        let m = s
            .mean_in(SimTime::ZERO, SimTime::ZERO + day)
            .unwrap();
        assert!((m - 11.5).abs() < 1e-9);
        assert_eq!(s.mean_in(t(999_999), t(1_000_000)), None);
    }
}
