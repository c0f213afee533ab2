//! Integration: the snapshot determinism contract, end to end.
//!
//! The differential harness behind `sapsim.snapshot/v1`: over a grid of
//! seeds × placement policies × faults on/off, a cold run to the horizon must be byte-identical (on
//! `RunResult::canonical_bytes`) to running to a snapshot instant T,
//! capturing, restoring into a fresh driver, and running the rest. The
//! instants T are drawn from a seeded RNG so the suite sweeps the
//! timeline without ever hardcoding an event boundary.

use sapsim_core::{FaultSpec, SimConfig, SimDriver, SimSnapshot};
use sapsim_scheduler::PolicyKind;
use sapsim_sim::{SimRng, SimTime, MILLIS_PER_DAY};

/// One cell of the differential grid.
fn cell(seed: u64, policy: PolicyKind, faulted: bool) -> SimConfig {
    let mut cfg = SimConfig::smoke_test();
    cfg.days = 1;
    cfg.seed = seed;
    cfg.policy = policy;
    if faulted {
        cfg.faults = FaultSpec {
            host_fail_rate_per_month: 20.0,
            host_downtime_hours: 4.0,
            dropout_rate_per_month: 6.0,
            dropout_duration_hours: 2.0,
            straggler_fraction: 0.2,
            ..FaultSpec::none()
        };
    }
    cfg
}

#[test]
fn cold_runs_and_snapshot_resumes_are_byte_identical_across_the_grid() {
    // Deterministic instants: the suite replays identically every run,
    // but nothing about the chosen T values is baked into the driver.
    let mut instants = SimRng::seed_from(0x5EED_0F7E);
    for seed in [11u64, 12] {
        for policy in [PolicyKind::PaperDefault, PolicyKind::Spread] {
            for faulted in [false, true] {
                let cfg = cell(seed, policy, faulted);
                let horizon_ms = MILLIS_PER_DAY * (cfg.warmup_days + cfg.days);
                let at = SimTime::from_millis(instants.next_u64() % (horizon_ms + 1));
                let driver = SimDriver::new(cfg).expect("valid cell");
                let cold = driver.run();
                let snap = driver.snapshot_at(at).expect("instant within horizon");
                let resumed = SimDriver::resume(&snap).expect("snapshot restores");
                assert_eq!(
                    resumed.canonical_bytes(),
                    cold.canonical_bytes(),
                    "divergence: seed={seed} policy={policy:?} faulted={faulted} at={at}"
                );
            }
        }
    }
}

#[test]
fn snapshots_survive_the_file_format_round_trip() {
    // The second cell is a three-region estate under faults: per-region
    // tallies, region gauges and the pending-evacuation queue all travel
    // through the file.
    let mut multi_region = cell(23, PolicyKind::PaperDefault, true);
    multi_region.region_replicas = 3;
    for cfg in [cell(13, PolicyKind::PaperDefault, true), multi_region] {
        let driver = SimDriver::new(cfg).expect("valid cell");
        let cold = driver.run();
        assert!(cold.stats.faults.host_failures > 0, "the plan is non-empty");
        let snap = driver
            .snapshot_at(SimTime::from_millis(MILLIS_PER_DAY / 3))
            .expect("instant within horizon");
        let reloaded =
            SimSnapshot::from_file_str(&snap.to_file_string()).expect("own output reloads");
        let resumed = SimDriver::resume(&reloaded).expect("reloaded snapshot restores");
        assert_eq!(
            resumed.canonical_bytes(),
            cold.canonical_bytes(),
            "region_replicas={}",
            cfg.region_replicas
        );
    }
}
