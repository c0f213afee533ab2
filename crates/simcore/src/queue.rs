//! The pending-event set: a priority queue ordered by firing time with
//! stable FIFO tie-breaking and O(1) amortized push/pop/cancel.
//!
//! Two interchangeable backends sit behind [`EventQueue`]:
//!
//! - [`QueueBackend::TimingWheel`] (the default): the hierarchical timing
//!   wheel in [`crate::wheel`] — constant-time bucket filing, slab-resident
//!   event records, and cancellation that flips a liveness bit instead of
//!   touching any ordered structure.
//! - [`QueueBackend::BinaryHeap`]: the original tombstoned binary heap,
//!   retained as an equivalence oracle. Its cancellation once scanned the
//!   whole heap (O(n) per cancel — the dominant cost at region scale where
//!   lifetime/retry/maintenance timers are rescheduled constantly); it now
//!   tracks the live-handle set directly so cancel is O(1) and `len()` can
//!   no longer underflow on a double cancel.
//!
//! Both backends implement the same strict `(time, handle)` pop order, so
//! any simulation must produce byte-identical results on either. The
//! op-script differential in `tests/tests/event_queue_equivalence.rs`
//! proves it per operation, and the driver's unit tests prove it per run
//! by moving a freshly built run onto the heap.

use crate::time::SimTime;
use crate::wheel::{BuildSeqHasher, TimingWheel, WheelStats};
use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashSet};

/// Opaque handle identifying a scheduled event; used to cancel it.
///
/// Handles are unique for the lifetime of a queue and are never reused.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EventHandle(u64);

impl EventHandle {
    /// The raw sequence number. Exposed for logging/debugging only.
    pub fn raw(self) -> u64 {
        self.0
    }

    /// Rehydrate a handle from its seq (backend internals only).
    pub(crate) fn from_raw(seq: u64) -> Self {
        EventHandle(seq)
    }
}

/// An event queued for execution.
#[derive(Debug)]
pub struct QueuedEvent<E> {
    /// When the event fires.
    pub time: SimTime,
    /// Cancellation handle; doubles as the FIFO tie-breaker.
    pub handle: EventHandle,
    /// Caller-defined payload.
    pub payload: E,
}

impl<E> PartialEq for QueuedEvent<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.handle == other.handle
    }
}

impl<E> Eq for QueuedEvent<E> {}

impl<E> PartialOrd for QueuedEvent<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for QueuedEvent<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest time (and, within
        // a time, the lowest sequence number) pops first. This gives strict
        // FIFO order among simultaneous events — the determinism guarantee.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.handle.cmp(&self.handle))
    }
}

/// Which data structure backs an [`EventQueue`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QueueBackend {
    /// Hierarchical timing wheel (default): O(1) amortized push/pop/cancel.
    #[default]
    TimingWheel,
    /// Tombstoned binary heap: O(log n) push/pop, kept as the oracle the
    /// wheel is differentially tested against.
    BinaryHeap,
}

/// The retained heap implementation. `live` holds the seqs still pending,
/// so cancellation and `len()` never need to consult the heap itself;
/// `pop`/`peek_time` lazily discard entries whose seq has left the set.
#[derive(Debug)]
struct HeapQueue<E> {
    heap: BinaryHeap<QueuedEvent<E>>,
    live: HashSet<u64, BuildSeqHasher>,
}

impl<E> HeapQueue<E> {
    fn new() -> Self {
        HeapQueue {
            heap: BinaryHeap::new(),
            live: HashSet::default(),
        }
    }

    fn insert(&mut self, time: SimTime, seq: u64, payload: E) {
        self.live.insert(seq);
        self.heap.push(QueuedEvent {
            time,
            handle: EventHandle(seq),
            payload,
        });
    }

    fn cancel(&mut self, handle: EventHandle) -> bool {
        self.live.remove(&handle.0)
    }

    fn peek_time(&mut self) -> Option<SimTime> {
        self.skip_dead();
        self.heap.peek().map(|e| e.time)
    }

    fn pop(&mut self) -> Option<QueuedEvent<E>> {
        self.skip_dead();
        let ev = self.heap.pop()?;
        self.live.remove(&ev.handle.0);
        Some(ev)
    }

    /// Drop cancelled entries sitting at the top of the heap.
    fn skip_dead(&mut self) {
        while let Some(top) = self.heap.peek() {
            if self.live.contains(&top.handle.0) {
                break;
            }
            self.heap.pop();
        }
    }
}

#[derive(Debug)]
enum Inner<E> {
    Wheel(TimingWheel<E>),
    Heap(HeapQueue<E>),
}

/// Priority queue of future events with strict `(time, handle)` pop order.
#[derive(Debug)]
pub struct EventQueue<E> {
    next_seq: u64,
    inner: Inner<E>,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Create an empty queue on the default (timing-wheel) backend.
    pub fn new() -> Self {
        Self::with_backend(QueueBackend::default())
    }

    /// Create an empty queue on an explicit backend.
    pub fn with_backend(backend: QueueBackend) -> Self {
        let inner = match backend {
            QueueBackend::TimingWheel => Inner::Wheel(TimingWheel::new()),
            QueueBackend::BinaryHeap => Inner::Heap(HeapQueue::new()),
        };
        EventQueue { next_seq: 0, inner }
    }

    /// Which backend this queue runs on.
    pub fn backend(&self) -> QueueBackend {
        match self.inner {
            Inner::Wheel(_) => QueueBackend::TimingWheel,
            Inner::Heap(_) => QueueBackend::BinaryHeap,
        }
    }

    /// Number of live (non-cancelled) events still queued.
    pub fn len(&self) -> usize {
        match &self.inner {
            Inner::Wheel(w) => w.len(),
            Inner::Heap(h) => h.live.len(),
        }
    }

    /// True if no live events remain.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Schedule `payload` to fire at `time`. Returns a cancellation handle.
    pub fn push(&mut self, time: SimTime, payload: E) -> EventHandle {
        let seq = self.next_seq;
        self.next_seq += 1;
        match &mut self.inner {
            Inner::Wheel(w) => w.insert(time, seq, payload),
            Inner::Heap(h) => h.insert(time, seq, payload),
        }
        EventHandle(seq)
    }

    /// Cancel a previously scheduled event. Returns `true` if the event was
    /// still pending (and is now dead), `false` if it had already fired or
    /// was already cancelled. O(1) on both backends.
    pub fn cancel(&mut self, handle: EventHandle) -> bool {
        if handle.0 >= self.next_seq {
            return false; // Never issued by this queue.
        }
        match &mut self.inner {
            Inner::Wheel(w) => w.cancel(handle),
            Inner::Heap(h) => h.cancel(handle),
        }
    }

    /// Firing time of the next live event, if any.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        match &mut self.inner {
            Inner::Wheel(w) => w.peek_time(),
            Inner::Heap(h) => h.peek_time(),
        }
    }

    /// Remove and return the next live event.
    pub fn pop(&mut self) -> Option<QueuedEvent<E>> {
        match &mut self.inner {
            Inner::Wheel(w) => w.pop(),
            Inner::Heap(h) => h.pop(),
        }
    }

    /// Health statistics of the timing-wheel backend, `None` on the heap
    /// oracle. Observational only: reading them cannot perturb pop order.
    pub fn wheel_stats(&self) -> Option<WheelStats> {
        match &self.inner {
            Inner::Wheel(w) => Some(w.stats()),
            Inner::Heap(_) => None,
        }
    }

    /// The seq the next [`push`](Self::push) will be assigned. Exposed for
    /// [`restore`](Self::restore), which must resume the counter past every
    /// seq ever issued so later pushes keep FIFO order behind every
    /// restored event.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Insert under a caller-assigned seq without advancing `next_seq` —
    /// the restore path, where seqs come from another queue rather than
    /// the counter.
    fn insert_raw(&mut self, time: SimTime, seq: u64, payload: E) {
        match &mut self.inner {
            Inner::Wheel(w) => w.insert(time, seq, payload),
            Inner::Heap(h) => h.insert(time, seq, payload),
        }
    }

    /// Remove every live event in `(time, handle)` pop order, returning
    /// `(time, seq, payload)` triples. Cancelled husks are discarded, so
    /// the result is exactly the future the queue still holds.
    pub fn drain_sorted(&mut self) -> Vec<(SimTime, u64, E)> {
        let mut out = Vec::with_capacity(self.len());
        while let Some(ev) = self.pop() {
            out.push((ev.time, ev.handle.raw(), ev.payload));
        }
        out
    }

    /// Copy out the pending-event set in `(time, handle)` pop order
    /// *without* losing it: drains the backend, then re-inserts a clone of
    /// every event under its original seq. Both backends order strictly by
    /// `(time, seq)` — the wheel merges at-or-before-cursor inserts into
    /// its sorted staging buffer at exactly that rank — so the subsequent
    /// pop sequence is unchanged. [`restore`](Self::restore) takes the
    /// result onto either backend. Timing-wheel health counters (cascades,
    /// occupancy peaks) may shift from the drain; those are observational
    /// and sit outside the canonical-bytes contract.
    pub fn snapshot_events(&mut self) -> Vec<(SimTime, u64, E)>
    where
        E: Clone,
    {
        let drained = self.drain_sorted();
        for (time, seq, payload) in &drained {
            self.insert_raw(*time, *seq, payload.clone());
        }
        drained
    }

    /// Rebuild a queue from [`snapshot_events`](Self::snapshot_events)
    /// output on `backend`: every `(time, seq, payload)`
    /// re-enters under its original seq, and the seq counter resumes at
    /// `next_seq` (which must exceed every restored seq, so post-restore
    /// pushes tie-break behind every restored event exactly as they would
    /// have in the uninterrupted run). Insertion order is irrelevant: both
    /// backends serve strictly by `(time, seq)`.
    pub fn restore(
        backend: QueueBackend,
        next_seq: u64,
        events: impl IntoIterator<Item = (SimTime, u64, E)>,
    ) -> EventQueue<E> {
        let mut q = Self::with_backend(backend);
        for (time, seq, payload) in events {
            assert!(
                seq < next_seq,
                "restored event seq {seq} is not covered by next_seq {next_seq}"
            );
            q.insert_raw(time, seq, payload);
        }
        q.next_seq = next_seq;
        q
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimTime;

    const BACKENDS: [QueueBackend; 2] = [QueueBackend::TimingWheel, QueueBackend::BinaryHeap];

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    #[test]
    fn default_backend_is_the_wheel() {
        let q: EventQueue<()> = EventQueue::new();
        assert_eq!(q.backend(), QueueBackend::TimingWheel);
    }

    #[test]
    fn pops_in_time_order() {
        for b in BACKENDS {
            let mut q = EventQueue::with_backend(b);
            q.push(t(30), "b");
            q.push(t(10), "a");
            q.push(t(50), "c");
            assert_eq!(q.pop().unwrap().payload, "a");
            assert_eq!(q.pop().unwrap().payload, "b");
            assert_eq!(q.pop().unwrap().payload, "c");
            assert!(q.pop().is_none());
        }
    }

    #[test]
    fn simultaneous_events_are_fifo() {
        for b in BACKENDS {
            let mut q = EventQueue::with_backend(b);
            for i in 0..100 {
                q.push(t(5), i);
            }
            for i in 0..100 {
                assert_eq!(q.pop().unwrap().payload, i);
            }
        }
    }

    #[test]
    fn cancellation_removes_event() {
        for b in BACKENDS {
            let mut q = EventQueue::with_backend(b);
            let h1 = q.push(t(1), "a");
            q.push(t(2), "b");
            assert!(q.cancel(h1));
            assert_eq!(q.len(), 1);
            assert_eq!(q.pop().unwrap().payload, "b");
        }
    }

    #[test]
    fn double_cancel_is_noop() {
        for b in BACKENDS {
            let mut q = EventQueue::with_backend(b);
            let h = q.push(t(1), ());
            assert!(q.cancel(h));
            assert!(!q.cancel(h));
            assert!(q.is_empty());
            // The historical bug: len() underflowed after a double cancel.
            assert_eq!(q.len(), 0);
        }
    }

    #[test]
    fn cancel_after_fire_is_noop() {
        for b in BACKENDS {
            let mut q = EventQueue::with_backend(b);
            let h = q.push(t(1), ());
            q.pop().unwrap();
            assert!(!q.cancel(h));
        }
    }

    #[test]
    fn cancel_unknown_handle_is_noop() {
        for b in BACKENDS {
            let mut q: EventQueue<()> = EventQueue::with_backend(b);
            assert!(!q.cancel(EventHandle(999)));
        }
    }

    #[test]
    fn peek_time_skips_cancelled_head() {
        for b in BACKENDS {
            let mut q = EventQueue::with_backend(b);
            let h = q.push(t(1), "dead");
            q.push(t(2), "live");
            q.cancel(h);
            assert_eq!(q.peek_time(), Some(t(2)));
        }
    }

    #[test]
    fn len_accounts_for_tombstones() {
        for b in BACKENDS {
            let mut q = EventQueue::with_backend(b);
            let h1 = q.push(t(1), 1);
            q.push(t(2), 2);
            q.push(t(3), 3);
            q.cancel(h1);
            assert_eq!(q.len(), 2);
        }
    }

    #[test]
    fn interleaved_push_pop_preserves_order() {
        for b in BACKENDS {
            let mut q = EventQueue::with_backend(b);
            q.push(t(10), 10);
            q.push(t(5), 5);
            assert_eq!(q.pop().unwrap().payload, 5);
            q.push(t(7), 7);
            q.push(t(3), 3);
            assert_eq!(q.pop().unwrap().payload, 3);
            assert_eq!(q.pop().unwrap().payload, 7);
            assert_eq!(q.pop().unwrap().payload, 10);
        }
    }

    #[test]
    fn wheel_stats_are_wheel_only() {
        let mut q = EventQueue::with_backend(QueueBackend::TimingWheel);
        q.push(t(1), ());
        let stats = q.wheel_stats().expect("wheel backend reports stats");
        assert_eq!(stats.live, 1);
        let h: EventQueue<()> = EventQueue::with_backend(QueueBackend::BinaryHeap);
        assert!(h.wheel_stats().is_none(), "heap oracle has no wheel stats");
    }

    #[test]
    fn snapshot_events_preserves_pop_order_and_seq_counter() {
        for b in BACKENDS {
            let mut q = EventQueue::with_backend(b);
            let mut oracle = EventQueue::with_backend(b);
            let mut handles = Vec::new();
            for i in 0..50u64 {
                let time = t(i % 9); // heavy ties
                handles.push(q.push(time, i));
                oracle.push(time, i);
                if i % 7 == 0 {
                    let victim = handles[(i as usize * 3) % handles.len()];
                    q.cancel(victim);
                    oracle.cancel(victim);
                }
            }
            let snap = q.snapshot_events();
            assert_eq!(snap.len(), q.len(), "snapshot covers every live event");
            assert_eq!(q.next_seq(), oracle.next_seq());
            // Pushes after the snapshot must order exactly as they would
            // have without it.
            q.push(t(4), 999);
            oracle.push(t(4), 999);
            loop {
                let (a, b) = (q.pop(), oracle.pop());
                match (a, b) {
                    (None, None) => break,
                    (Some(x), Some(y)) => {
                        assert_eq!((x.time, x.handle, x.payload), (y.time, y.handle, y.payload));
                    }
                    (a, b) => panic!("length mismatch: {a:?} vs {b:?}"),
                }
            }
        }
    }

    #[test]
    fn restore_rebuilds_an_identical_future() {
        for b in BACKENDS {
            let mut q = EventQueue::with_backend(b);
            for i in 0..40u64 {
                let h = q.push(t(i % 5), i);
                if i % 6 == 0 {
                    q.cancel(h);
                }
            }
            let next_seq = q.next_seq();
            let mut snap = q.snapshot_events();
            // Restoration must not depend on input order.
            snap.reverse();
            let mut restored = EventQueue::restore(b, next_seq, snap);
            assert_eq!(restored.len(), q.len());
            assert_eq!(restored.next_seq(), next_seq);
            q.push(t(2), 777);
            restored.push(t(2), 777);
            loop {
                match (q.pop(), restored.pop()) {
                    (None, None) => break,
                    (Some(x), Some(y)) => {
                        assert_eq!((x.time, x.handle, x.payload), (y.time, y.handle, y.payload));
                    }
                    (a, b) => panic!("length mismatch: {a:?} vs {b:?}"),
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "not covered by next_seq")]
    fn restore_rejects_seqs_beyond_the_counter() {
        let _ = EventQueue::restore(
            QueueBackend::TimingWheel,
            3,
            vec![(t(1), 5u64, "late".to_string())],
        );
    }

    #[test]
    fn backends_agree_on_a_mixed_script() {
        // A deterministic mini-differential: the full randomized suite lives
        // in tests/event_queue_equivalence.rs.
        let run = |backend: QueueBackend| -> Vec<(u64, u64)> {
            let mut q = EventQueue::with_backend(backend);
            let mut handles = Vec::new();
            let mut out = Vec::new();
            for i in 0..200u64 {
                // Times collide heavily (mod 7) and include far-future ones.
                let time = if i % 13 == 0 { 1 << 40 } else { i % 7 };
                handles.push(q.push(t(time), i));
                if i % 5 == 0 {
                    q.cancel(handles[(i as usize * 7) % handles.len()]);
                }
                if i % 3 == 0 {
                    if let Some(e) = q.pop() {
                        out.push((e.time.as_millis(), e.handle.raw()));
                    }
                }
            }
            while let Some(e) = q.pop() {
                out.push((e.time.as_millis(), e.handle.raw()));
            }
            out
        };
        assert_eq!(run(QueueBackend::TimingWheel), run(QueueBackend::BinaryHeap));
    }
}
