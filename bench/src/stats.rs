//! Order statistics for benchmark samples.

/// Sorted copy of `values`; panics on NaN, which no measurement produces.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("measurements are not NaN"));
    v
}

/// Smallest value of a non-empty sample. Where a run repeats the same work,
/// the fastest repetition is the steadiest estimate on a shared host, whose
/// other tenants only ever add time.
pub fn min(values: &[f64]) -> f64 {
    sorted(values)[0]
}

/// Largest value of a non-empty sample: the fastest round, for a rate.
pub fn max(values: &[f64]) -> f64 {
    sorted(values)[values.len() - 1]
}

/// Median of a non-empty sample.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    assert!(!v.is_empty(), "median of an empty sample");
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First quartile, median and third quartile the way Python's
/// `statistics.quantiles(values, n=4)` computes them (its default
/// "exclusive" method), which is what the acceptance driver uses. Needs at
/// least two values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let v = sorted(values);
    assert!(v.len() >= 2, "quartiles need at least two values");
    let m = v.len() + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, v.len() - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Distance between the first and third quartile as a share of the median:
/// the run-to-run spread the benchmark's bounds are judged against.
pub fn spread(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

/// Nearest-rank percentile `p` in `(0, 1]` of a non-empty sample.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let v = sorted(values);
    assert!(!v.is_empty(), "percentile of an empty sample");
    let rank = (p * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The highest percentile not above `wanted` that still has at least ten
/// samples beyond it; with fewer than eleven samples, the maximum.
/// Returns the percentile used and its value.
pub fn tail_percentile(values: &[f64], wanted: f64) -> (f64, f64) {
    let n = values.len();
    let p = if n > 10 {
        wanted.min(1.0 - 10.0 / n as f64)
    } else {
        1.0
    };
    (p, percentile(values, p))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn min_and_max_are_the_extremes() {
        assert_eq!(min(&[3.0, 1.5, 2.0]), 1.5);
        assert_eq!(max(&[3.0, 1.5, 2.0]), 3.0);
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), [1.5, 4.0, 12.0]);
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), [7.5, 15.0, 22.5]);
    }

    #[test]
    fn spread_is_interquartile_range_over_median() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&ten) - 1.0).abs() < 1e-12);
        assert_eq!(spread(&[5.0, 5.0, 5.0, 5.0]), 0.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 0.5), 50.0);
        assert_eq!(percentile(&hundred, 0.99), 99.0);
        assert_eq!(percentile(&hundred, 1.0), 100.0);
        assert_eq!(percentile(&[42.0], 0.5), 42.0);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail_percentile(&thousand, 0.99), (0.99, 990.0));
        // 500 samples: p99 would leave only five beyond, so p98 is used.
        let five_hundred: Vec<f64> = (1..=500).map(f64::from).collect();
        let (p, v) = tail_percentile(&five_hundred, 0.99);
        assert!((p - 0.98).abs() < 1e-12);
        assert_eq!(v, 490.0);
        // Too few samples for any tail: the maximum.
        assert_eq!(tail_percentile(&[1.0, 9.0, 3.0], 0.99), (1.0, 9.0));
    }
}
