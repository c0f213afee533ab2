//! Integration: the spatial-sharding determinism contract, end to end.
//!
//! The partitioned event loop (`SimConfig::shard_threads`) splits a
//! multi-region estate into per-region sub-simulations and merges them
//! back in fixed estate order. Its contract: `RunResult::canonical_bytes`
//! is identical at any shard worker count — and identical to the
//! sequential loop — regardless of the event queue backend or fault
//! injection. The suite drives the full grid,
//! then pins the snapshot interaction: a snapshot captured under one
//! worker count resumes byte-identically under any other, because
//! capture always serializes the sequential prefix.

use sapsim_core::{FaultSpec, SimConfig, SimDriver, SimSnapshot};
use sapsim_sim::{SimTime, MILLIS_PER_DAY};

/// One cell of the differential grid: three replicated regions at smoke
/// scale, so the partitioned loop genuinely engages (single-region
/// estates decline to shard).
fn cell(faulted: bool, heap_queue: bool) -> SimConfig {
    let mut cfg = SimConfig::smoke_test();
    cfg.days = 1;
    cfg.seed = 23;
    cfg.region_replicas = 3;
    cfg.heap_event_queue = heap_queue;
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
fn sharded_runs_are_byte_identical_across_the_grid() {
    for faulted in [false, true] {
        for heap_queue in [false, true] {
            // The oracle: the retained sequential loop.
            let reference = SimDriver::new(cell(faulted, heap_queue))
                .expect("valid cell")
                .run()
                .canonical_bytes();
            for shard_workers in [1usize, 2, 8] {
                let mut cfg = cell(faulted, heap_queue);
                cfg.shard_threads = shard_workers;
                let sharded = SimDriver::new(cfg)
                    .expect("shard workers are execution-only")
                    .run()
                    .canonical_bytes();
                assert_eq!(
                    sharded, reference,
                    "divergence: faulted={faulted} heap_queue={heap_queue} \
                     shard_workers={shard_workers}"
                );
            }
        }
    }
}

#[test]
fn snapshots_captured_under_shards_restore_under_any_worker_count() {
    // Capture mid-run under a *sharded* config: the capture itself must
    // serialize the sequential prefix, so the file bytes cannot depend
    // on the worker count ...
    let at = SimTime::from_millis(MILLIS_PER_DAY / 2);
    let cfg = cell(true, false);
    let sequential_file = SimDriver::new(cfg)
        .expect("valid cell")
        .snapshot_at(at)
        .expect("instant within horizon")
        .to_file_string();
    let mut sharded_cfg = cfg;
    sharded_cfg.shard_threads = 2;
    let sharded_file = SimDriver::new(sharded_cfg)
        .expect("valid cell")
        .snapshot_at(at)
        .expect("instant within horizon")
        .to_file_string();
    assert_eq!(
        sharded_file, sequential_file,
        "snapshot capture must serialize worker-count-independent state"
    );

    // ... and the captured state must resume to the cold run's bytes
    // under a *different* worker count than it was taken under.
    let cold = SimDriver::new(cfg)
        .expect("valid cell")
        .run()
        .canonical_bytes();
    for resume_workers in [0usize, 2, 8] {
        let mut reloaded =
            SimSnapshot::from_file_str(&sharded_file).expect("own output reloads");
        reloaded.set_shard_threads(resume_workers);
        let resumed = SimDriver::resume(&reloaded).expect("snapshot restores");
        assert_eq!(
            resumed.canonical_bytes(),
            cold,
            "resume under {resume_workers} shard workers diverged from the cold run"
        );
    }
}
