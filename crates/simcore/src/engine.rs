//! The simulation executor: owns the clock and the event queue and advances
//! virtual time monotonically.

use crate::queue::{EventHandle, EventQueue, QueueBackend};
use crate::time::{SimDuration, SimTime};
use crate::wheel::WheelStats;

/// An event that has fired, handed back to the caller for processing.
#[derive(Debug)]
pub struct FiredEvent<E> {
    /// The instant at which the event fired (== the clock when it was
    /// returned).
    pub time: SimTime,
    /// The handle the event was scheduled under.
    pub handle: EventHandle,
    /// Caller-defined payload.
    pub payload: E,
}

/// Counters describing an executed simulation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimulationStats {
    /// Events that fired (returned by `next_event`).
    pub fired: u64,
    /// Events scheduled in total.
    pub scheduled: u64,
    /// Events cancelled before firing.
    pub cancelled: u64,
}

/// A discrete-event simulation: a virtual clock plus a pending-event set.
///
/// The engine is intentionally *inside-out*: rather than owning handler
/// callbacks (which would force `dyn` dispatch and fight the borrow checker
/// for access to the world state), [`Simulation::next_event`] hands each
/// event back to the caller, who dispatches on the payload with full mutable
/// access to their own state and schedules follow-up events. This mirrors
/// the poll-based design of event-driven network stacks.
///
/// ```
/// use sapsim_sim::{Simulation, SimDuration, SimTime};
///
/// let mut sim: Simulation<&str> = Simulation::new();
/// sim.schedule_at(SimTime::from_secs(10), "hello");
/// let ev = sim.next_event().unwrap();
/// assert_eq!(ev.payload, "hello");
/// assert_eq!(sim.now(), SimTime::from_secs(10));
/// ```
#[derive(Debug)]
pub struct Simulation<E> {
    now: SimTime,
    queue: EventQueue<E>,
    stats: SimulationStats,
}

impl<E> Default for Simulation<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Simulation<E> {
    /// Create a simulation with the clock at [`SimTime::ZERO`], on the
    /// default (timing-wheel) event queue.
    pub fn new() -> Self {
        Self::with_backend(QueueBackend::default())
    }

    /// Create a simulation with the clock at [`SimTime::ZERO`] on the
    /// given event-queue backend (the binary heap is the test oracle).
    pub fn with_backend(backend: QueueBackend) -> Self {
        Simulation {
            now: SimTime::ZERO,
            queue: EventQueue::with_backend(backend),
            stats: SimulationStats::default(),
        }
    }

    /// The current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Execution counters.
    pub fn stats(&self) -> SimulationStats {
        self.stats
    }

    /// Number of live pending events.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Timing-wheel health statistics, `None` on the heap oracle backend.
    pub fn wheel_stats(&self) -> Option<WheelStats> {
        self.queue.wheel_stats()
    }

    /// Schedule `payload` at an absolute instant.
    ///
    /// # Panics
    /// Panics if `time` is before the current clock — scheduling into the
    /// past would silently corrupt causality, so it is a programming error.
    pub fn schedule_at(&mut self, time: SimTime, payload: E) -> EventHandle {
        assert!(
            time >= self.now,
            "cannot schedule into the past: now={}, requested={}",
            self.now,
            time
        );
        self.stats.scheduled += 1;
        self.queue.push(time, payload)
    }

    /// Schedule `payload` after a relative delay from now.
    pub fn schedule_after(&mut self, delay: SimDuration, payload: E) -> EventHandle {
        let t = self.now + delay;
        self.stats.scheduled += 1;
        self.queue.push(t, payload)
    }

    /// Cancel a pending event. Returns `true` if it was still pending.
    pub fn cancel(&mut self, handle: EventHandle) -> bool {
        let ok = self.queue.cancel(handle);
        if ok {
            self.stats.cancelled += 1;
        }
        ok
    }

    /// Firing time of the next pending event without advancing the clock.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.queue.peek_time()
    }

    /// Advance the clock to the next event and return it, or `None` if the
    /// queue is empty (the simulation has run to completion).
    pub fn next_event(&mut self) -> Option<FiredEvent<E>> {
        let ev = self.queue.pop()?;
        debug_assert!(ev.time >= self.now, "event queue returned a past event");
        self.now = ev.time;
        self.stats.fired += 1;
        Some(FiredEvent {
            time: ev.time,
            handle: ev.handle,
            payload: ev.payload,
        })
    }

    /// Advance the clock to the next event *if* it fires at or before
    /// `horizon`; otherwise leave the event queued, move the clock to
    /// `horizon`, and return `None`.
    ///
    /// This is the primitive for bounded runs ("simulate 30 days"): drive
    /// `next_event_until` in a loop until it returns `None`.
    pub fn next_event_until(&mut self, horizon: SimTime) -> Option<FiredEvent<E>> {
        match self.queue.peek_time() {
            Some(t) if t <= horizon => self.next_event(),
            _ => {
                if horizon > self.now {
                    self.now = horizon;
                }
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_advances_with_events() {
        let mut sim = Simulation::new();
        sim.schedule_at(SimTime::from_secs(5), 1u32);
        sim.schedule_at(SimTime::from_secs(2), 2u32);
        let e = sim.next_event().unwrap();
        assert_eq!(e.payload, 2);
        assert_eq!(sim.now(), SimTime::from_secs(2));
        let e = sim.next_event().unwrap();
        assert_eq!(e.payload, 1);
        assert_eq!(sim.now(), SimTime::from_secs(5));
        assert!(sim.next_event().is_none());
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_the_past_panics() {
        let mut sim = Simulation::new();
        sim.schedule_at(SimTime::from_secs(10), ());
        sim.next_event();
        sim.schedule_at(SimTime::from_secs(5), ());
    }

    #[test]
    fn schedule_after_is_relative() {
        let mut sim = Simulation::new();
        sim.schedule_at(SimTime::from_secs(10), "first");
        sim.next_event();
        sim.schedule_after(SimDuration::from_secs(7), "second");
        let e = sim.next_event().unwrap();
        assert_eq!(e.time, SimTime::from_secs(17));
    }

    #[test]
    fn bounded_run_stops_at_horizon() {
        let mut sim = Simulation::new();
        sim.schedule_at(SimTime::from_secs(10), "in");
        sim.schedule_at(SimTime::from_secs(100), "out");
        let horizon = SimTime::from_secs(50);
        let mut fired = Vec::new();
        while let Some(e) = sim.next_event_until(horizon) {
            fired.push(e.payload);
        }
        assert_eq!(fired, vec!["in"]);
        assert_eq!(sim.now(), horizon);
        assert_eq!(sim.pending(), 1);
        // The out-of-horizon event is still deliverable afterwards.
        assert_eq!(sim.next_event().unwrap().payload, "out");
    }

    #[test]
    fn horizon_event_at_exact_boundary_fires() {
        let mut sim = Simulation::new();
        sim.schedule_at(SimTime::from_secs(50), "edge");
        assert!(sim.next_event_until(SimTime::from_secs(50)).is_some());
    }

    #[test]
    fn cancelled_events_do_not_fire() {
        let mut sim = Simulation::new();
        let h = sim.schedule_at(SimTime::from_secs(1), "dead");
        sim.schedule_at(SimTime::from_secs(2), "live");
        assert!(sim.cancel(h));
        let e = sim.next_event().unwrap();
        assert_eq!(e.payload, "live");
        assert_eq!(sim.stats().cancelled, 1);
    }

    #[test]
    fn stats_track_activity() {
        let mut sim = Simulation::new();
        let h = sim.schedule_after(SimDuration::from_secs(1), ());
        sim.schedule_after(SimDuration::from_secs(2), ());
        sim.cancel(h);
        while sim.next_event().is_some() {}
        let s = sim.stats();
        assert_eq!(s.scheduled, 2);
        assert_eq!(s.cancelled, 1);
        assert_eq!(s.fired, 1);
    }

    #[test]
    fn both_backends_fire_the_same_events_in_the_same_order() {
        let run = |backend| {
            let mut sim: Simulation<u32> = Simulation::with_backend(backend);
            let mut fired = Vec::new();
            for i in 0..30u32 {
                let h = sim.schedule_at(SimTime::from_secs((i % 7) as u64 * 10), i);
                if i % 4 == 0 {
                    sim.cancel(h);
                }
            }
            while let Some(ev) = sim.next_event_until(SimTime::from_secs(30)) {
                fired.push((ev.time, ev.handle, ev.payload));
            }
            sim.schedule_after(SimDuration::from_secs(1), 99);
            while let Some(ev) = sim.next_event() {
                fired.push((ev.time, ev.handle, ev.payload));
            }
            (fired, sim.stats())
        };
        let wheel = run(QueueBackend::TimingWheel);
        assert_eq!(wheel, run(QueueBackend::BinaryHeap));
        assert_eq!(wheel.0.len(), 23, "30 scheduled, 8 cancelled, 1 late");
    }

    #[test]
    fn self_scheduling_loop_terminates_at_horizon() {
        // A periodic event that reschedules itself — the telemetry scraper
        // pattern used by sapsim-core.
        let mut sim: Simulation<u32> = Simulation::new();
        sim.schedule_at(SimTime::ZERO, 0);
        let horizon = SimTime::from_secs(300);
        let mut count = 0;
        while let Some(e) = sim.next_event_until(horizon) {
            count += 1;
            sim.schedule_after(SimDuration::from_secs(30), e.payload + 1);
        }
        // Fires at 0, 30, ..., 300 → 11 events.
        assert_eq!(count, 11);
        assert_eq!(sim.now(), horizon);
    }
}
