//! Randomized properties of the telemetry substrate: streaming rollups
//! agree with whole-series recomputation, and the summary statistics obey
//! their order relations.

use sapsim_sim::{for_each_seed, SimRng, SimTime};
use sapsim_telemetry::{summary, DailyRollup, RunningStat, TimeSeries};

/// `len` in `[min_len, max_len)` draws from `[lo, hi)`.
fn floats(rng: &mut SimRng, min_len: u64, max_len: u64, lo: f64, hi: f64) -> Vec<f64> {
    (0..rng.range(min_len, max_len))
        .map(|_| rng.range_f64(lo, hi))
        .collect()
}

/// A streamed rollup equals a brute-force recomputation over the same
/// samples, day by day.
#[test]
fn rollup_matches_bruteforce() {
    for_each_seed(128, |rng| {
        let samples: Vec<(u64, f64)> = (0..rng.range(0, 500))
            .map(|_| (rng.range(0, 30 * 86_400), rng.range_f64(-100.0, 100.0)))
            .collect();
        let days = 30usize;
        let mut rollup = DailyRollup::new(days);
        for &(secs, v) in &samples {
            rollup.push(SimTime::from_secs(secs), v);
        }
        for day in 0..days {
            let brute: Vec<f64> = samples
                .iter()
                .filter(|&&(secs, _)| (secs / 86_400) as usize == day)
                .map(|&(_, v)| v)
                .collect();
            let expect = if brute.is_empty() {
                None
            } else {
                Some(brute.iter().sum::<f64>() / brute.len() as f64)
            };
            let got = rollup.day(day).and_then(|c| c.mean());
            match (expect, got) {
                (None, None) => {}
                (Some(e), Some(g)) => assert!((e - g).abs() < 1e-9),
                other => panic!("mismatch on day {day}: {other:?}"),
            }
        }
    });
}

/// Merging split accumulators equals accumulating everything at once.
#[test]
fn running_stat_merge_associativity() {
    for_each_seed(256, |rng| {
        let values = floats(rng, 1, 200, -1e6, 1e6);
        let split = (rng.range(0, 200) as usize).min(values.len());
        let mut a = RunningStat::new();
        let mut b = RunningStat::new();
        let mut whole = RunningStat::new();
        for (i, &v) in values.iter().enumerate() {
            if i < split {
                a.push(v)
            } else {
                b.push(v)
            }
            whole.push(v);
        }
        a.merge(&b);
        assert_eq!(a.count, whole.count);
        assert!((a.sum - whole.sum).abs() <= 1e-6 * whole.sum.abs().max(1.0));
        assert_eq!(a.min, whole.min);
        assert_eq!(a.max, whole.max);
    });
}

/// Quantiles are monotone in q and bounded by min/max.
#[test]
fn quantiles_are_monotone_and_bounded() {
    for_each_seed(256, |rng| {
        let values = floats(rng, 1, 300, -1e3, 1e3);
        let mut qs = floats(rng, 2, 10, 0.0, 1.0);
        qs.sort_by(f64::total_cmp);
        let min = values.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let mut last = f64::NEG_INFINITY;
        for &q in &qs {
            let v = summary::quantile(&values, q).unwrap();
            assert!(v >= min - 1e-9 && v <= max + 1e-9);
            assert!(v >= last - 1e-9, "monotone in q");
            last = v;
        }
    });
}

/// The empirical CDF evaluated via fraction_below agrees with the
/// sorted-pairs construction.
#[test]
fn cdf_consistency() {
    for_each_seed(256, |rng| {
        let values = floats(rng, 1, 200, -100.0, 100.0);
        let cdf = summary::empirical_cdf(&values);
        assert_eq!(cdf.len(), values.len());
        for &(v, frac) in &cdf {
            // fraction strictly below plus ties at v must bracket frac.
            let below = summary::fraction_below(&values, v);
            let at_or_below =
                values.iter().filter(|&&x| x <= v).count() as f64 / values.len() as f64;
            assert!(below <= frac + 1e-9);
            assert!(frac <= at_or_below + 1e-9);
        }
    });
}

/// Series range queries agree with linear filtering.
#[test]
fn series_range_matches_filter() {
    for_each_seed(256, |rng| {
        let mut sorted: Vec<u64> = (0..rng.range(1, 100))
            .map(|_| rng.range(0, 10_000))
            .collect();
        sorted.sort_unstable();
        let mut series = TimeSeries::new();
        for (i, &t) in sorted.iter().enumerate() {
            series.push(SimTime::from_secs(t), i as f64);
        }
        let (a, b) = (rng.range(0, 10_000), rng.range(0, 10_000));
        let (start, end) = (a.min(b), a.max(b));
        let got: Vec<f64> = series
            .range(SimTime::from_secs(start), SimTime::from_secs(end))
            .map(|(_, v)| v)
            .collect();
        let expect: Vec<f64> = sorted
            .iter()
            .enumerate()
            .filter(|&(_, &t)| t >= start && t < end)
            .map(|(i, _)| i as f64)
            .collect();
        assert_eq!(got, expect);
    });
}
