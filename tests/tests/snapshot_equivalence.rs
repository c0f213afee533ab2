//! Integration: the snapshot determinism contract, end to end.
//!
//! The differential harness behind `sapsim.snapshot/v1`: over a grid of
//! seeds × placement policies × faults on/off × both event-queue
//! backends, a cold run to the horizon must be byte-identical (on
//! `RunResult::canonical_bytes`) to running to a snapshot instant T,
//! capturing, restoring into a fresh driver, and running the rest. The
//! instants T are drawn from a seeded RNG so the suite sweeps the
//! timeline without ever hardcoding an event boundary.
//!
//! The second half pins the warm-started sweep: a warmed grid with a
//! faults axis is forked from shared base snapshots by the pool, and its
//! report must be byte-identical at 1, 2, and 8 workers *and* to cold
//! sequential runs of every scenario.

use sapsim_core::{FaultSpec, Scenario, SimConfig, SimDriver, SimSnapshot, SweepSpec};
use sapsim_scheduler::PolicyKind;
use sapsim_sim::{SimRng, SimTime, MILLIS_PER_DAY};
use sapsim_sweep::{run_spec, RunSummary, SweepOptions};

/// One cell of the differential grid.
fn cell(seed: u64, policy: PolicyKind, faulted: bool, heap_queue: bool) -> SimConfig {
    let mut cfg = SimConfig::smoke_test();
    cfg.days = 1;
    cfg.seed = seed;
    cfg.policy = policy;
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
fn cold_runs_and_snapshot_resumes_are_byte_identical_across_the_grid() {
    // Deterministic instants: the suite replays identically every run,
    // but nothing about the chosen T values is baked into the driver.
    let mut instants = SimRng::seed_from(0x5EED_0F7E);
    for seed in [11u64, 12] {
        for policy in [PolicyKind::PaperDefault, PolicyKind::Spread] {
            for faulted in [false, true] {
                for heap_queue in [false, true] {
                    let cfg = cell(seed, policy, faulted, heap_queue);
                    let horizon_ms = MILLIS_PER_DAY * (cfg.warmup_days + cfg.days);
                    let at = SimTime::from_millis(instants.next_u64() % (horizon_ms + 1));
                    let driver = SimDriver::new(cfg).expect("valid cell");
                    let cold = driver.run();
                    let snap = driver.snapshot_at(at).expect("instant within horizon");
                    let resumed = SimDriver::resume(&snap).expect("snapshot restores");
                    assert_eq!(
                        resumed.canonical_bytes(),
                        cold.canonical_bytes(),
                        "divergence: seed={seed} policy={policy:?} faulted={faulted} \
                         heap_queue={heap_queue} at={at}"
                    );
                }
            }
        }
    }
}

#[test]
fn snapshots_survive_the_file_format_round_trip() {
    // The second cell is a three-region estate under faults: per-region
    // tallies, region gauges and the pending-evacuation queue all travel
    // through the file.
    let mut multi_region = cell(23, PolicyKind::PaperDefault, true, false);
    multi_region.region_replicas = 3;
    for cfg in [
        cell(13, PolicyKind::PaperDefault, true, false),
        multi_region,
    ] {
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

/// The warm-started sweep grid: 2 seeds × (no faults | host failures),
/// all sharing a 7-day warm-up — two forkable groups of two.
fn warmed_spec() -> SweepSpec {
    let mut base = SimConfig::smoke_test();
    base.scale = 0.01;
    base.days = 1;
    base.warmup_days = 7;
    let mut spec = SweepSpec::new(base);
    spec.seeds = vec![1, 2];
    spec.faults = vec![
        FaultSpec::none(),
        FaultSpec {
            host_fail_rate_per_month: 20.0,
            host_downtime_hours: 6.0,
            ..FaultSpec::none()
        },
    ];
    spec
}

#[test]
fn forked_sweep_reports_are_byte_identical_at_1_2_and_8_workers_and_to_cold_runs() {
    let spec = warmed_spec();
    let outputs: Vec<_> = [1usize, 2, 8]
        .iter()
        .map(|&workers| {
            let options = SweepOptions {
                workers,
                collect_metrics: true,
                ..SweepOptions::default()
            };
            run_spec(&spec, &options).expect("sweep runs")
        })
        .collect();
    let reference = outputs[0].report.to_json();
    for output in &outputs {
        assert_eq!(
            output.report.to_json(),
            reference,
            "forked sweeps must not depend on the worker count"
        );
        let metrics = output.sweep_metrics.as_ref().expect("pool registry");
        assert_eq!(
            metrics.counter_value("sweep_fork_reuse"),
            Some(4),
            "every cell of both groups rides the shared warm-up"
        );
        assert_eq!(metrics.counter_value("sweep_fork_groups"), Some(2));
    }
    // Every pooled, forked outcome matches a cold sequential run.
    let scenarios = spec.expand().expect("valid grid");
    for (outcome, scenario) in outputs[0].report.scenarios.iter().zip(&scenarios) {
        let solo = RunSummary::from_run(&scenario.run());
        assert_eq!(
            outcome.summary,
            solo,
            "warm-started `{}` diverged from its cold run",
            scenario.name()
        );
    }
}

#[test]
fn manual_forks_match_the_scenarios_they_stand_in_for() {
    // The primitive under the sweep: one warmed base snapshot refaulted
    // into each branch reproduces each branch's cold bytes.
    let spec = warmed_spec();
    let scenarios: Vec<Scenario> = spec
        .expand()
        .expect("valid grid")
        .into_iter()
        .filter(|s| s.config().seed == 1)
        .collect();
    assert_eq!(scenarios.len(), 2);
    let mut base_cfg = *scenarios[0].config();
    base_cfg.faults = FaultSpec::none();
    let base = SimDriver::new(base_cfg)
        .expect("valid base")
        .snapshot_at(SimTime::from_days(base_cfg.warmup_days))
        .expect("warm-up fits the horizon");
    for scenario in &scenarios {
        let forked = base.refault(scenario.config()).expect("forkable branch");
        let resumed = SimDriver::resume(&forked).expect("fork restores");
        let cold = scenario.run();
        assert_eq!(
            resumed.canonical_bytes(),
            cold.canonical_bytes(),
            "fork of `{}` diverged",
            scenario.name()
        );
    }
}
