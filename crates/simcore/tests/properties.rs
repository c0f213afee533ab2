//! Randomized properties of the discrete-event engine: ordering, clock
//! monotonicity, and cancellation invariants under arbitrary schedules.

use sapsim_sim::{for_each_seed, SimRng, SimTime, Simulation};

/// `len` in `[1, max_len)` draws below `bound`.
fn times(rng: &mut SimRng, max_len: u64, bound: u64) -> Vec<u64> {
    (0..rng.range(1, max_len))
        .map(|_| rng.range(0, bound))
        .collect()
}

/// Events always fire in non-decreasing time order, and equal-time
/// events fire in insertion order, for any schedule.
#[test]
fn firing_order_is_stable_sort() {
    for_each_seed(256, |rng| {
        let times = times(rng, 200, 1000);
        let mut sim = Simulation::new();
        for (i, &t) in times.iter().enumerate() {
            sim.schedule_at(SimTime::from_secs(t), i);
        }
        let mut fired: Vec<(u64, usize)> = Vec::new();
        while let Some(e) = sim.next_event() {
            fired.push((e.time.as_secs(), e.payload));
        }
        // Expected: stable sort of (time, insertion index).
        let mut expected: Vec<(u64, usize)> =
            times.iter().enumerate().map(|(i, &t)| (t, i)).collect();
        expected.sort_by_key(|&(t, _)| t); // sort_by_key is stable
        assert_eq!(fired, expected);
    });
}

/// The clock never moves backwards, whatever mix of scheduling and
/// horizon-bounded stepping happens.
#[test]
fn clock_is_monotone() {
    for_each_seed(256, |rng| {
        let times = times(rng, 100, 500);
        let horizon = rng.range(0, 600);
        let mut sim = Simulation::new();
        for &t in &times {
            sim.schedule_at(SimTime::from_secs(t), ());
        }
        let mut last = sim.now();
        while let Some(e) = sim.next_event_until(SimTime::from_secs(horizon)) {
            assert!(e.time >= last);
            last = e.time;
        }
        assert!(sim.now() >= last);
        assert_eq!(sim.now(), SimTime::from_secs(horizon).max(last));
    });
}

/// Cancelling an arbitrary subset removes exactly those events.
#[test]
fn cancellation_removes_exactly_the_cancelled() {
    for_each_seed(256, |rng| {
        let times = times(rng, 100, 100);
        let mut sim = Simulation::new();
        let handles: Vec<_> = times
            .iter()
            .enumerate()
            .map(|(i, &t)| (i, sim.schedule_at(SimTime::from_secs(t), i)))
            .collect();
        let mut expect_alive: Vec<usize> = Vec::new();
        for (i, h) in handles {
            if rng.bool(0.5) {
                assert!(sim.cancel(h));
            } else {
                expect_alive.push(i);
            }
        }
        let mut fired: Vec<usize> = Vec::new();
        while let Some(e) = sim.next_event() {
            fired.push(e.payload);
        }
        fired.sort_unstable();
        expect_alive.sort_unstable();
        assert_eq!(fired, expect_alive);
    });
}

/// Two engines fed the same schedule behave identically (determinism).
#[test]
fn replay_determinism() {
    for_each_seed(256, |rng| {
        let times = times(rng, 150, 1000);
        let run = || {
            let mut sim = Simulation::new();
            for (i, &t) in times.iter().enumerate() {
                sim.schedule_at(SimTime::from_secs(t), i);
            }
            let mut out = Vec::new();
            while let Some(e) = sim.next_event() {
                out.push((e.time, e.payload));
            }
            out
        };
        assert_eq!(run(), run());
    });
}
