//! Integration: the incremental placement hot path (cached host views,
//! indexed candidate pruning, top-k ranking) must be invisible in every
//! result byte.
//!
//! [`SimConfig::naive_host_views`] switches the driver onto the
//! from-scratch oracle — views rebuilt per decision, full exhaustive
//! rank, no index. These tests pin `RunResult::canonical_bytes()`
//! byte-equality between the two paths across seeds, with and without
//! fault injection, and at both granularities.

use sapsim_core::{FaultSpec, PlacementGranularity, SimConfig, SimDriver};

/// Every fault kind switched on, aggressively enough that a 2-day run at
/// 2 % scale sees failures, stragglers, and dropouts on most seeds — the
/// same recipe as the invariant sweep.
fn busy_faults() -> FaultSpec {
    FaultSpec {
        host_fail_rate_per_month: 15.0,
        host_downtime_hours: 12.0,
        straggler_fraction: 0.25,
        straggler_slowdown: 0.6,
        dropout_rate_per_month: 6.0,
        dropout_duration_hours: 6.0,
        ..FaultSpec::none()
    }
}

fn base(seed: u64, faults: FaultSpec) -> SimConfig {
    SimConfig::builder()
        .scale(0.02)
        .days(2)
        .seed(seed)
        .warmup_days(0)
        .faults(faults)
        .build()
        .expect("valid test config")
}

fn run_bytes(mut cfg: SimConfig, naive: bool) -> Vec<u8> {
    cfg.naive_host_views = naive;
    SimDriver::new(cfg)
        .expect("valid config")
        .run()
        .canonical_bytes()
}

#[test]
fn cached_path_matches_naive_oracle_across_seeds_and_faults() {
    for seed in [31u64, 32, 33] {
        for faults in [FaultSpec::none(), busy_faults()] {
            let cfg = base(seed, faults);
            assert_eq!(
                run_bytes(cfg, false),
                run_bytes(cfg, true),
                "seed {seed}, faults {}: cached and naive runs must be \
                 byte-identical",
                if faults.is_none() { "off" } else { "on" },
            );
        }
    }
}

#[test]
fn node_granularity_cached_path_matches_naive_oracle() {
    let mut cfg = base(34, busy_faults());
    cfg.granularity = PlacementGranularity::Node;
    assert_eq!(
        run_bytes(cfg, false),
        run_bytes(cfg, true),
        "node-granularity cached and naive runs must be byte-identical"
    );
}

#[test]
fn cached_path_matches_naive_oracle_under_faults() {
    let cfg = base(35, busy_faults());
    assert_eq!(run_bytes(cfg, false), run_bytes(cfg, true));
}
