//! Summary statistics over sample collections: percentiles, means, CDFs.
//!
//! These are the primitives behind Figure 9 (daily mean / 95th percentile /
//! maximum contention across nodes) and Figure 14 (CDFs of per-VM
//! utilization).

/// Arithmetic mean; `None` for an empty slice.
pub fn mean(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        None
    } else {
        Some(values.iter().sum::<f64>() / values.len() as f64)
    }
}

/// Quantile with linear interpolation between closest ranks
/// (the "linear" / R-7 method used by NumPy's default and by PromQL's
/// `quantile()`), so `q = 0.5` of `[1, 2, 3, 4]` is `2.5`.
///
/// `q` is clamped to `[0, 1]`. Returns `None` for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted: Vec<f64> = values.iter().copied().filter(|v| !v.is_nan()).collect();
    if sorted.is_empty() {
        return None;
    }
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaNs filtered"));
    Some(quantile_of_sorted(&sorted, q))
}

/// Quantile (R-7) of an already ascending-sorted, NaN-free slice.
pub(crate) fn quantile_of_sorted(sorted: &[f64], q: f64) -> f64 {
    debug_assert!(!sorted.is_empty());
    let q = q.clamp(0.0, 1.0);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = pos - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// An empirical CDF: for each sorted sample, the cumulative fraction of
/// samples at or below it. Suitable for plotting Figure 14.
///
/// Returns `(value, fraction)` pairs with fractions in `(0, 1]`.
pub fn empirical_cdf(values: &[f64]) -> Vec<(f64, f64)> {
    let mut sorted: Vec<f64> = values.iter().copied().filter(|v| !v.is_nan()).collect();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaNs filtered"));
    let n = sorted.len();
    sorted
        .into_iter()
        .enumerate()
        .map(|(i, v)| (v, (i + 1) as f64 / n as f64))
        .collect()
}

/// Fraction of samples strictly below `threshold`. Returns 0.0 for an
/// empty slice.
pub fn fraction_below(values: &[f64], threshold: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().filter(|&&v| v < threshold).count() as f64 / values.len() as f64
}

/// Fraction of samples within `[lo, hi)`.
pub fn fraction_in(values: &[f64], lo: f64, hi: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().filter(|&&v| v >= lo && v < hi).count() as f64 / values.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_max_basics() {
        assert_eq!(mean(&[]), None);
        assert_eq!(mean(&[1.0, 2.0, 3.0]), Some(2.0));
    }

    #[test]
    fn quantile_interpolates_linearly() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&v, 0.0), Some(1.0));
        assert_eq!(quantile(&v, 1.0), Some(4.0));
        assert_eq!(quantile(&v, 0.5), Some(2.5));
        // p95 of 1..=100 under R-7: 1 + 0.95*99 = 95.05.
        let big: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert!((quantile(&big, 0.95).unwrap() - 95.05).abs() < 1e-9);
    }

    #[test]
    fn quantile_is_order_insensitive() {
        let a = [5.0, 1.0, 4.0, 2.0, 3.0];
        let b = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(quantile(&a, 0.25), quantile(&b, 0.25));
    }

    #[test]
    fn quantile_handles_singleton_and_empty() {
        assert_eq!(quantile(&[7.0], 0.3), Some(7.0));
        assert_eq!(quantile(&[], 0.5), None);
        assert_eq!(quantile(&[f64::NAN], 0.5), None);
    }

    #[test]
    fn quantile_clamps_q() {
        let v = [1.0, 2.0];
        assert_eq!(quantile(&v, -1.0), Some(1.0));
        assert_eq!(quantile(&v, 2.0), Some(2.0));
    }

    #[test]
    fn cdf_is_monotone_and_ends_at_one() {
        let v = [3.0, 1.0, 2.0, 2.0];
        let cdf = empirical_cdf(&v);
        assert_eq!(cdf.len(), 4);
        for w in cdf.windows(2) {
            assert!(w[0].0 <= w[1].0);
            assert!(w[0].1 < w[1].1);
        }
        assert_eq!(cdf.last().unwrap().1, 1.0);
        assert_eq!(cdf[0], (1.0, 0.25));
    }

    #[test]
    fn fractions() {
        let v = [0.1, 0.5, 0.7, 0.9];
        assert_eq!(fraction_below(&v, 0.7), 0.5);
        assert_eq!(fraction_in(&v, 0.5, 0.9), 0.5);
        assert_eq!(fraction_below(&[], 1.0), 0.0);
        assert_eq!(fraction_in(&[], 0.0, 1.0), 0.0);
    }

    #[test]
    fn paper_classification_thresholds_partition() {
        // The paper classifies VMs as under (<0.70), optimal [0.70, 0.85),
        // over (>= 0.85). The three fractions must sum to 1.
        let v: Vec<f64> = (0..100).map(|i| i as f64 / 100.0).collect();
        let under = fraction_below(&v, 0.70);
        let optimal = fraction_in(&v, 0.70, 0.85);
        let over = 1.0 - under - optimal;
        assert!((under - 0.70).abs() < 1e-9);
        assert!((optimal - 0.15).abs() < 1e-9);
        assert!((over - 0.15).abs() < 1e-9);
    }
}
