//! Integration: the hierarchical timing wheel must be indistinguishable
//! from the binary-heap oracle.
//!
//! Two layers of evidence:
//!
//! 1. Randomized differential scripts against [`EventQueue`] directly —
//!    interleaved push/cancel/pop with heavy time ties, far-future times
//!    (exercising upper wheel levels and the overflow list), and
//!    past-boundary inserts at or before the last popped time.
//! 2. Full-driver byte equality: `SimConfig::heap_event_queue` switches
//!    the simulation onto the heap, and `RunResult::canonical_bytes()`
//!    must not change across the PR 5 sweep grid (policies ×
//!    granularities × seeds, faults off and on).

use sapsim_core::{FaultSpec, PlacementGranularity, SimConfig, SimDriver};
use sapsim_scheduler::PolicyKind;
use sapsim_sim::{EventQueue, QueueBackend, SimRng, SimTime};

// --- Layer 1: randomized differential scripts -----------------------

/// Run one op script against both backends and assert the observable
/// streams match exactly: every pop's `(time, handle)`, every cancel's
/// return value, and `len()` after every op.
fn run_script(seed: u64, ops: usize, time_range: u64, tie_modulus: u64) {
    let mut rng = SimRng::seed_from(seed);
    let mut wheel: EventQueue<u64> = EventQueue::with_backend(QueueBackend::TimingWheel);
    let mut heap: EventQueue<u64> = EventQueue::with_backend(QueueBackend::BinaryHeap);
    // Outstanding handles (identical for both queues: handles are facade
    // sequence numbers, assigned push-order).
    let mut handles = Vec::new();
    let mut payload = 0u64;
    // Far enough below any generated time that past-boundary pushes (see
    // below) still target valid SimTimes.
    let mut last_popped = SimTime::ZERO;

    for op in 0..ops {
        match rng.range(0, 10) {
            // 5/10 push at a scattered time; ties are frequent when
            // `tie_modulus` is small.
            0..=4 => {
                let t = SimTime::from_millis(
                    (rng.range(0, time_range) / tie_modulus) * tie_modulus,
                );
                let hw = wheel.push(t, payload);
                let hh = heap.push(t, payload);
                assert_eq!(hw, hh, "handles are facade-assigned, push-order");
                handles.push(hw);
                payload += 1;
            }
            // 1/10 push exactly at (or 1ms before) the frontier the queue
            // has already drained past — the wheel's past-insert path.
            5 => {
                let t = SimTime::from_millis(last_popped.as_millis().saturating_sub(op as u64 % 2));
                handles.push(wheel.push(t, payload));
                heap.push(t, payload);
                payload += 1;
            }
            // 2/10 cancel a (possibly already popped or cancelled) handle.
            6..=7 => {
                if handles.is_empty() {
                    continue;
                }
                let h = handles[rng.range(0, handles.len() as u64) as usize];
                assert_eq!(wheel.cancel(h), heap.cancel(h), "cancel outcome, op {op}");
            }
            // 2/10 pop.
            _ => {
                let a = wheel.pop();
                let b = heap.pop();
                match (&a, &b) {
                    (Some(x), Some(y)) => {
                        assert_eq!((x.time, x.handle), (y.time, y.handle), "pop order, op {op}");
                        assert_eq!(x.payload, y.payload, "payload, op {op}");
                        last_popped = x.time;
                    }
                    (None, None) => {}
                    _ => panic!("one backend drained early at op {op}: {a:?} vs {b:?}"),
                }
            }
        }
        assert_eq!(wheel.len(), heap.len(), "len after op {op}");
    }
    // Drain both to the end: the full residual ordering must agree.
    loop {
        match (wheel.pop(), heap.pop()) {
            (Some(x), Some(y)) => {
                assert_eq!((x.time, x.handle, x.payload), (y.time, y.handle, y.payload))
            }
            (None, None) => break,
            (a, b) => panic!("residual drain diverged: {a:?} vs {b:?}"),
        }
    }
}

#[test]
fn random_scripts_with_scattered_times_agree() {
    for seed in 0..8u64 {
        // A simulated month of millisecond times: levels 0-5 all in play.
        run_script(seed, 4_000, 30 * 86_400_000, 1);
    }
}

#[test]
fn random_scripts_with_heavy_ties_agree() {
    for seed in 100..108u64 {
        // Few distinct times → long FIFO runs within a tick, the order the
        // wheel must preserve across cascades.
        run_script(seed, 4_000, 10_000, 1_000);
    }
}

#[test]
fn random_scripts_with_far_future_times_agree() {
    for seed in 200..204u64 {
        // Times up to ~87 sim-years: beyond the wheel's 2^36 ms span, so
        // most events land in the overflow list and get refiled.
        run_script(seed, 2_000, 1 << 41, 1);
    }
}

#[test]
fn far_future_and_near_times_interleave_correctly() {
    let mut wheel: EventQueue<u32> = EventQueue::with_backend(QueueBackend::TimingWheel);
    let mut heap: EventQueue<u32> = EventQueue::with_backend(QueueBackend::BinaryHeap);
    // One event per wheel level plus two overflow residents, pushed far
    // out of time order.
    let times: [u64; 8] = [
        1 << 40,
        63,
        1,
        (1 << 36) + 5,
        1 << 12,
        1 << 18,
        1 << 24,
        1 << 30,
    ];
    for (i, &t) in times.iter().enumerate() {
        wheel.push(SimTime::from_millis(t), i as u32);
        heap.push(SimTime::from_millis(t), i as u32);
    }
    for _ in 0..times.len() {
        let a = wheel.pop().expect("wheel has events");
        let b = heap.pop().expect("heap has events");
        assert_eq!((a.time, a.handle, a.payload), (b.time, b.handle, b.payload));
    }
    assert!(wheel.pop().is_none() && heap.pop().is_none());
}

// --- Layer 2: full-driver byte equality ------------------------------

/// The invariant-sweep fault recipe: every fault kind active.
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

fn run_bytes(mut cfg: SimConfig, heap: bool) -> Vec<u8> {
    cfg.heap_event_queue = heap;
    SimDriver::new(cfg)
        .expect("valid config")
        .run()
        .canonical_bytes()
}

/// The acceptance grid: 2 policies × 2 granularities × 3 seeds = 12 runs,
/// with fault injection toggled across the seeds so both regimes appear
/// at every (policy, granularity) point. Each scenario runs once per
/// backend and the result bytes must match exactly.
#[test]
fn wheel_and_heap_runs_are_byte_identical_across_the_sweep_grid() {
    for policy in ["paper-default", "spread"] {
        for granularity in [
            PlacementGranularity::BuildingBlock,
            PlacementGranularity::Node,
        ] {
            for seed in [41u64, 42, 43] {
                let faults = if seed % 2 == 0 {
                    busy_faults()
                } else {
                    FaultSpec::none()
                };
                let mut cfg = SimConfig::builder()
                    .scale(0.01)
                    .days(1)
                    .seed(seed)
                    .warmup_days(0)
                    .faults(faults)
                    .build()
                    .expect("valid test config");
                cfg.policy = PolicyKind::from_name(policy).expect("known policy");
                cfg.granularity = granularity;
                assert_eq!(
                    run_bytes(cfg, false),
                    run_bytes(cfg, true),
                    "{policy}/{granularity:?}/seed {seed}: wheel and heap \
                     runs must be byte-identical"
                );
            }
        }
    }
}
