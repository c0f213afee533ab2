//! Integration: the hierarchical timing wheel must be indistinguishable
//! from the binary-heap oracle.
//!
//! Randomized differential scripts against [`EventQueue`] directly —
//! interleaved push/cancel/pop with heavy time ties, far-future times
//! (exercising upper wheel levels and the overflow list), and
//! past-boundary inserts at or before the last popped time. Whole runs
//! on both backends are compared by `sapsim-core`'s driver unit tests
//! (`queue_backends_are_byte_identical*`).

use sapsim_sim::{EventQueue, QueueBackend, SimRng, SimTime};

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
