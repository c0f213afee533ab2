//! Hierarchical timing wheel: the O(1)-amortized backend of [`EventQueue`].
//!
//! The classic Varghese–Lauck design, as used by kernel timers and the
//! calendar queues of large discrete-event simulators: `LEVELS` wheels of
//! `BUCKETS` buckets each, where level `l` covers ticks at a granularity of
//! `BUCKETS^l` milliseconds. An event at absolute time `t` lives at the
//! lowest level whose bucket span still separates it from the current tick
//! (`msb(t ^ cur) / BITS`), so near events sit in fine buckets and far
//! events in coarse ones. Advancing the clock *cascades*: when a coarse
//! bucket comes due, its events are re-filed into strictly finer levels —
//! each event is re-linked at most `LEVELS` times over its whole life.
//! Events beyond the top level's span (~2.2 simulated years from `cur`) go
//! to a flat overflow list that is re-filed wholesale on the rare occasion
//! the wheels run dry.
//!
//! Event records live in a slab (`Vec` + free list). Buckets are intrusive
//! singly-linked lists over slab indices, so push/cancel/pop never allocate
//! in steady state. Cancellation looks up the slab slot via a seq→slot map
//! and flips a liveness bit — O(1), no heap scan; dead slots are reclaimed
//! lazily when their bucket drains.
//!
//! ## Ordering contract
//!
//! [`EventQueue`] promises strict `(time, handle)` pop order. Bucket FIFO
//! alone cannot guarantee that across cascades (a direct level-0 insertion
//! may be linked ahead of a lower-seq event that cascades into the same
//! tick later), so the wheel never pops straight out of a bucket: a due
//! bucket is drained into a staging buffer and sorted by seq first. Each
//! event is sorted exactly once, against its own tie group only, keeping
//! the amortized cost O(log k) for k simultaneous events — and since bucket
//! lists preserve insertion order, the common all-ties case is already
//! sorted and costs O(k).
//!
//! [`EventQueue`]: crate::queue::EventQueue

use crate::queue::{EventHandle, QueuedEvent};
use crate::time::SimTime;
use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};

/// log2 of the bucket count per level.
const BITS: u32 = 6;
/// Buckets per level.
const BUCKETS: usize = 1 << BITS;
/// Index mask within a level.
const MASK: u64 = BUCKETS as u64 - 1;
/// Wheel levels. Level `LEVELS-1` buckets span `64^(LEVELS-1)` ms; the
/// wheels jointly cover `64^LEVELS` ms ≈ 2.2 simulated years past `cur`.
const LEVELS: usize = 6;

/// Number of levels in the hierarchical wheel, as reported by
/// `WheelStats::occupied_buckets`.
pub const WHEEL_LEVELS: usize = LEVELS;

/// Engine-health statistics of one timing wheel: cumulative cascade work
/// plus a point-in-time occupancy snapshot. Purely observational — a
/// wheel maintains these unconditionally (the increments are a rounding
/// error next to the list surgery they count) and nothing reads them back
/// into queue behaviour.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WheelStats {
    /// Coarse-bucket drains that re-filed events into finer levels.
    pub cascades: u64,
    /// Live events re-filed (or staged) by those cascades.
    pub cascade_moves: u64,
    /// Wholesale overflow-list re-files after the wheels ran dry.
    pub overflow_refiles: u64,
    /// Current overflow-list length, husks included.
    pub overflow_depth: usize,
    /// High-water mark of the overflow list.
    pub max_overflow_depth: usize,
    /// Non-empty buckets per level, finest first.
    pub occupied_buckets: [u32; WHEEL_LEVELS],
    /// Live (scheduled, not yet fired or cancelled) events.
    pub live: usize,
}
/// Null link in the intrusive bucket lists.
const NIL: u32 = u32::MAX;

/// Multiplicative hasher for the `u64` seq keys of the cancel map. Seqs are
/// dense and sequential, so SipHash's DoS resistance buys nothing here —
/// a splitmix64-style finalizer gives full avalanche at a fraction of the
/// cost, and this map sits on the push/cancel hot path.
#[derive(Default)]
pub(crate) struct SeqHasher(u64);

impl Hasher for SeqHasher {
    fn finish(&self) -> u64 {
        let mut x = self.0;
        x ^= x >> 30;
        x = x.wrapping_mul(0xbf58476d1ce4e5b9);
        x ^= x >> 27;
        x = x.wrapping_mul(0x94d049bb133111eb);
        x ^ (x >> 31)
    }

    fn write(&mut self, bytes: &[u8]) {
        // Fallback for non-u64 keys (unused on the hot path).
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.0 ^= v;
    }
}

/// `BuildHasher` for [`SeqHasher`]-keyed maps.
pub(crate) type BuildSeqHasher = BuildHasherDefault<SeqHasher>;

/// One slab record. `next` threads the intrusive bucket / overflow-free
/// list; `live` is the O(1) cancellation bit.
#[derive(Debug)]
struct Slot<E> {
    time: SimTime,
    seq: u64,
    next: u32,
    live: bool,
    payload: Option<E>,
}

/// Head/tail of one bucket's intrusive FIFO list.
#[derive(Debug, Clone, Copy)]
struct Bucket {
    head: u32,
    tail: u32,
}

impl Bucket {
    const EMPTY: Bucket = Bucket {
        head: NIL,
        tail: NIL,
    };
}

/// An event staged for delivery: already due, sorted by `(time, seq)`.
#[derive(Debug, Clone, Copy)]
struct DueEntry {
    time: SimTime,
    seq: u64,
    slot: u32,
}

/// The hierarchical timing wheel. See the module docs for the design.
#[derive(Debug)]
pub(crate) struct TimingWheel<E> {
    slots: Vec<Slot<E>>,
    free: Vec<u32>,
    /// seq → slab slot, for O(1) cancellation. Keyed lookups only — never
    /// iterated, so map order cannot leak into results.
    index: HashMap<u64, u32, BuildSeqHasher>,
    levels: Vec<[Bucket; BUCKETS]>,
    /// Bit `j` set ⇔ bucket `j` of that level is non-empty.
    occupancy: [u64; LEVELS],
    /// Events farther than the wheels' joint span from `cur`.
    overflow: Vec<u32>,
    /// Current tick in ms. Invariant: every wheel/overflow-resident event
    /// has `time > cur`; everything at or before `cur` is in `due`.
    cur: u64,
    /// Due events in `(time, seq)` order, consumed from the front.
    due: VecDeque<DueEntry>,
    /// Live (scheduled, not yet fired or cancelled) event count.
    live: usize,
    /// Cumulative cascade counter (see [`WheelStats::cascades`]).
    cascades: u64,
    /// Cumulative cascade re-file counter.
    cascade_moves: u64,
    /// Cumulative overflow re-file counter.
    overflow_refiles: u64,
    /// High-water mark of `overflow.len()`.
    max_overflow: usize,
}

impl<E> TimingWheel<E> {
    pub(crate) fn new() -> Self {
        TimingWheel {
            slots: Vec::new(),
            free: Vec::new(),
            index: HashMap::default(),
            levels: vec![[Bucket::EMPTY; BUCKETS]; LEVELS],
            occupancy: [0; LEVELS],
            overflow: Vec::new(),
            cur: 0,
            due: VecDeque::new(),
            live: 0,
            cascades: 0,
            cascade_moves: 0,
            overflow_refiles: 0,
            max_overflow: 0,
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.live
    }

    /// Snapshot the wheel's health statistics.
    pub(crate) fn stats(&self) -> WheelStats {
        let mut occupied_buckets = [0u32; WHEEL_LEVELS];
        for (out, mask) in occupied_buckets.iter_mut().zip(&self.occupancy) {
            *out = mask.count_ones();
        }
        WheelStats {
            cascades: self.cascades,
            cascade_moves: self.cascade_moves,
            overflow_refiles: self.overflow_refiles,
            overflow_depth: self.overflow.len(),
            max_overflow_depth: self.max_overflow,
            occupied_buckets,
            live: self.live,
        }
    }

    /// Insert an event under a caller-assigned seq (the facade owns the
    /// seq counter so handles stay unique across backend choices).
    pub(crate) fn insert(&mut self, time: SimTime, seq: u64, payload: E) {
        let slot = self.alloc(time, seq, payload);
        self.index.insert(seq, slot);
        self.live += 1;
        if time.as_millis() <= self.cur {
            // At or before the drained frontier (the engine forbids past
            // scheduling, but the raw queue mirrors the heap's semantics):
            // merge into the staging buffer at its (time, seq) rank.
            self.stage_sorted(slot);
        } else {
            self.file(slot);
        }
    }

    /// O(1) cancel: unlink nothing, just kill the record. The husk is
    /// reclaimed when its bucket drains or it reaches the front of `due`.
    pub(crate) fn cancel(&mut self, handle: EventHandle) -> bool {
        match self.index.remove(&handle.raw()) {
            Some(slot) => {
                let rec = &mut self.slots[slot as usize];
                debug_assert!(rec.live, "index entry for a dead slot");
                rec.live = false;
                rec.payload = None;
                self.live -= 1;
                true
            }
            None => false,
        }
    }

    pub(crate) fn peek_time(&mut self) -> Option<SimTime> {
        self.settle_front();
        self.due.front().map(|e| e.time)
    }

    pub(crate) fn pop(&mut self) -> Option<QueuedEvent<E>> {
        self.settle_front();
        let e = self.due.pop_front()?;
        let rec = &mut self.slots[e.slot as usize];
        debug_assert!(rec.live && rec.seq == e.seq);
        let payload = rec.payload.take().expect("live staged event has a payload");
        self.index.remove(&e.seq);
        self.live -= 1;
        self.release(e.slot);
        Some(QueuedEvent {
            time: e.time,
            handle: EventHandle::from_raw(e.seq),
            payload,
        })
    }

    // ---- slab -----------------------------------------------------------

    fn alloc(&mut self, time: SimTime, seq: u64, payload: E) -> u32 {
        let rec = Slot {
            time,
            seq,
            next: NIL,
            live: true,
            payload: Some(payload),
        };
        match self.free.pop() {
            Some(i) => {
                self.slots[i as usize] = rec;
                i
            }
            None => {
                let i = u32::try_from(self.slots.len()).expect("slab capped at u32 slots");
                self.slots.push(rec);
                i
            }
        }
    }

    fn release(&mut self, slot: u32) {
        let rec = &mut self.slots[slot as usize];
        rec.live = false;
        rec.payload = None;
        rec.next = NIL;
        self.free.push(slot);
    }

    // ---- filing ---------------------------------------------------------

    /// Level and bucket index for time `t`, given the current tick — or
    /// `None` when `t` is beyond the wheels' span (→ overflow).
    fn locate(cur: u64, t: u64) -> Option<(usize, usize)> {
        debug_assert!(t > cur);
        let msb = 63 - (t ^ cur).leading_zeros();
        let level = (msb / BITS) as usize;
        if level >= LEVELS {
            return None;
        }
        Some((level, ((t >> (BITS * level as u32)) & MASK) as usize))
    }

    /// File a future-dated slot into its wheel bucket or the overflow list.
    fn file(&mut self, slot: u32) {
        let t = self.slots[slot as usize].time.as_millis();
        match Self::locate(self.cur, t) {
            Some((level, j)) => {
                self.slots[slot as usize].next = NIL;
                let bucket = &mut self.levels[level][j];
                if bucket.head == NIL {
                    bucket.head = slot;
                } else {
                    self.slots[bucket.tail as usize].next = slot;
                }
                bucket.tail = slot;
                self.occupancy[level] |= 1 << j;
            }
            None => {
                self.overflow.push(slot);
                self.max_overflow = self.max_overflow.max(self.overflow.len());
            }
        }
    }

    /// Merge an already-due slot into the staging buffer at `(time, seq)`
    /// rank. Fast path: monotone appends (same-tick pushes during a drain
    /// arrive in seq order) cost O(1).
    fn stage_sorted(&mut self, slot: u32) {
        let rec = &self.slots[slot as usize];
        let e = DueEntry {
            time: rec.time,
            seq: rec.seq,
            slot,
        };
        let fits_back = self
            .due
            .back()
            .map(|b| (b.time, b.seq) < (e.time, e.seq))
            .unwrap_or(true);
        if fits_back {
            self.due.push_back(e);
        } else {
            let at = self
                .due
                .binary_search_by(|p| (p.time, p.seq).cmp(&(e.time, e.seq)))
                .unwrap_err();
            self.due.insert(at, e);
        }
    }

    // ---- advancing ------------------------------------------------------

    /// Drop dead entries off the front of `due`, refilling it from the
    /// wheels as needed, until the front is live or nothing is left.
    fn settle_front(&mut self) {
        loop {
            if self.due.is_empty() && !self.refill_due() {
                return;
            }
            let front = self.due.front().expect("refill_due returned non-empty");
            if self.slots[front.slot as usize].live {
                return;
            }
            let husk = self.due.pop_front().expect("front exists").slot;
            self.release(husk);
        }
    }

    /// Advance `cur` bucket by bucket until at least one event is staged.
    /// Returns false when the wheels and overflow hold nothing at all.
    fn refill_due(&mut self) -> bool {
        loop {
            if !self.due.is_empty() {
                return true;
            }
            let Some((level, j)) = self.next_bucket() else {
                // Wheels dry — jump the clock to the overflow horizon.
                if !self.refile_overflow() {
                    return false;
                }
                continue;
            };
            let head = self.levels[level][j].head;
            self.levels[level][j] = Bucket::EMPTY;
            self.occupancy[level] &= !(1u64 << j);
            let shift = BITS * level as u32;
            if level == 0 {
                // A level-0 bucket is exactly one tick wide.
                self.cur = ((self.cur >> BITS) << BITS) | j as u64;
                self.drain_tick(head);
            } else {
                // Jump to the bucket's start tick, then re-file its events
                // into strictly finer levels (or stage exact hits).
                let above = shift + BITS;
                self.cur = ((self.cur >> above) << above) | ((j as u64) << shift);
                self.cascade(head);
            }
        }
    }

    /// The lowest-level, lowest-index non-empty bucket strictly ahead of
    /// `cur`. Buckets at or behind `cur`'s own index are provably empty at
    /// every level (residents satisfy `t > cur` within the level's window).
    fn next_bucket(&self) -> Option<(usize, usize)> {
        for level in 0..LEVELS {
            let idx_cur = ((self.cur >> (BITS * level as u32)) & MASK) as u32;
            let ahead = match idx_cur {
                63 => 0,
                i => !0u64 << (i + 1),
            };
            let m = self.occupancy[level] & ahead;
            if m != 0 {
                return Some((level, m.trailing_zeros() as usize));
            }
        }
        None
    }

    /// Stage a drained level-0 bucket: all entries share one tick, so the
    /// tie group is sorted by seq and appended (`due` is empty here — the
    /// wheel only advances once staged events are exhausted).
    fn drain_tick(&mut self, head: u32) {
        debug_assert!(self.due.is_empty());
        let mut group: Vec<(u64, u32)> = Vec::new();
        let mut at = head;
        while at != NIL {
            let rec = &self.slots[at as usize];
            let next = rec.next;
            if rec.live {
                debug_assert_eq!(rec.time.as_millis(), self.cur);
                group.push((rec.seq, at));
            } else {
                self.release(at);
            }
            at = next;
        }
        group.sort_unstable();
        for (seq, slot) in group {
            self.due.push_back(DueEntry {
                time: self.slots[slot as usize].time,
                seq,
                slot,
            });
        }
    }

    /// Re-file a drained coarse bucket one or more levels down. Exact hits
    /// on the new `cur` are staged like a level-0 drain.
    fn cascade(&mut self, head: u32) {
        debug_assert!(self.due.is_empty());
        self.cascades += 1;
        let mut hits: Vec<(u64, u32)> = Vec::new();
        let mut at = head;
        while at != NIL {
            let rec = &self.slots[at as usize];
            let next = rec.next;
            if !rec.live {
                self.release(at);
            } else if rec.time.as_millis() == self.cur {
                self.cascade_moves += 1;
                hits.push((rec.seq, at));
            } else {
                self.cascade_moves += 1;
                self.file(at);
            }
            at = next;
        }
        hits.sort_unstable();
        for (seq, slot) in hits {
            self.due.push_back(DueEntry {
                time: self.slots[slot as usize].time,
                seq,
                slot,
            });
        }
    }

    /// The wheels are empty: jump `cur` to the earliest live overflow time
    /// and re-file the whole overflow list against it. Rare (at most once
    /// per `64^LEVELS` ms of clock advance) and O(overflow), so amortized
    /// cost stays constant. Returns false if no live event exists anywhere.
    fn refile_overflow(&mut self) -> bool {
        let mut min_t: Option<u64> = None;
        for &s in &self.overflow {
            let rec = &self.slots[s as usize];
            if rec.live {
                let t = rec.time.as_millis();
                min_t = Some(min_t.map_or(t, |m| m.min(t)));
            }
        }
        let Some(min_t) = min_t else {
            let husks = std::mem::take(&mut self.overflow);
            for s in husks {
                self.release(s);
            }
            return false;
        };
        debug_assert!(
            min_t > self.cur,
            "overflow events are beyond the wheel span"
        );
        self.overflow_refiles += 1;
        self.cur = min_t;
        let items = std::mem::take(&mut self.overflow);
        let mut hits: Vec<(u64, u32)> = Vec::new();
        for s in items {
            let rec = &self.slots[s as usize];
            if !rec.live {
                self.release(s);
            } else if rec.time.as_millis() == self.cur {
                hits.push((rec.seq, s));
            } else {
                self.file(s);
            }
        }
        hits.sort_unstable();
        debug_assert!(!hits.is_empty(), "the min overflow event must stage");
        for (seq, slot) in hits {
            self.due.push_back(DueEntry {
                time: self.slots[slot as usize].time,
                seq,
                slot,
            });
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wheel() -> TimingWheel<u64> {
        TimingWheel::new()
    }

    fn drain(w: &mut TimingWheel<u64>) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        while let Some(e) = w.pop() {
            out.push((e.time.as_millis(), e.handle.raw()));
        }
        out
    }

    #[test]
    fn locate_places_near_events_at_level_zero() {
        assert_eq!(TimingWheel::<()>::locate(0, 1), Some((0, 1)));
        assert_eq!(TimingWheel::<()>::locate(100, 101), Some((0, 37)));
        // Crossing a 64-tick boundary promotes one level.
        assert_eq!(TimingWheel::<()>::locate(63, 64), Some((1, 1)));
        // Beyond 64^6 ms from cur → overflow.
        assert_eq!(TimingWheel::<()>::locate(0, 64u64.pow(6)), None);
    }

    #[test]
    fn pops_across_levels_in_time_order() {
        let mut w = wheel();
        // One event per level, pushed out of order.
        let times = [5u64, 400, 30_000, 2_000_000, 200_000_000, 20_000_000_000];
        for (i, &t) in times.iter().rev().enumerate() {
            w.insert(SimTime::from_millis(t), i as u64, t);
        }
        let popped: Vec<u64> = drain(&mut w).into_iter().map(|(t, _)| t).collect();
        assert_eq!(popped, times.to_vec());
    }

    #[test]
    fn cascade_preserves_seq_order_within_a_tick() {
        let mut w = wheel();
        // Two events at the same far tick (cascades through 2+ levels),
        // plus a later direct insert at that tick after partial advance.
        let t = 1_000_000u64;
        w.insert(SimTime::from_millis(t), 0, 0);
        w.insert(SimTime::from_millis(5), 1, 1);
        w.insert(SimTime::from_millis(t), 2, 2);
        assert_eq!(w.pop().unwrap().handle.raw(), 1);
        w.insert(SimTime::from_millis(t), 3, 3);
        let rest: Vec<u64> = drain(&mut w).into_iter().map(|(_, s)| s).collect();
        assert_eq!(rest, vec![0, 2, 3]);
    }

    #[test]
    fn overflow_round_trip() {
        let mut w = wheel();
        let far = 64u64.pow(6) + 123; // beyond the wheel span from tick 0
        w.insert(SimTime::from_millis(far), 0, 0);
        w.insert(SimTime::from_millis(far + 7), 1, 1);
        w.insert(SimTime::from_millis(10), 2, 2);
        assert_eq!(drain(&mut w), vec![(10, 2), (far, 0), (far + 7, 1)]);
    }

    #[test]
    fn cancelled_slots_are_reclaimed() {
        let mut w = wheel();
        for seq in 0..100 {
            w.insert(SimTime::from_millis(seq * 10), seq, seq);
        }
        for seq in 0..100 {
            if seq % 2 == 0 {
                assert!(w.cancel(EventHandle::from_raw(seq)));
            }
        }
        assert_eq!(w.len(), 50);
        assert_eq!(drain(&mut w).len(), 50);
        assert_eq!(w.len(), 0);
        // Every slot is back on the free list.
        assert_eq!(w.free.len(), w.slots.len());
    }

    #[test]
    fn stats_count_cascades_and_overflow_depth() {
        let mut w = wheel();
        assert_eq!(w.stats(), WheelStats::default());

        // Two far-future events cascade through coarse levels on drain.
        w.insert(SimTime::from_millis(1_000_000), 0, 0);
        w.insert(SimTime::from_millis(1_000_001), 1, 1);
        let s = w.stats();
        assert_eq!(s.live, 2);
        assert!(s.occupied_buckets.iter().sum::<u32>() >= 1);
        drain(&mut w);
        let s = w.stats();
        assert!(s.cascades >= 1, "coarse drains must count as cascades");
        assert!(s.cascade_moves >= 2, "both events were re-filed");
        assert_eq!(s.live, 0);

        // An overflow event raises the depth and the high-water mark, and
        // draining it counts one wholesale re-file.
        let far = 64u64.pow(6) + 5;
        w.insert(SimTime::from_millis(far), 2, 2);
        assert_eq!(w.stats().overflow_depth, 1);
        assert_eq!(w.stats().max_overflow_depth, 1);
        drain(&mut w);
        let s = w.stats();
        assert_eq!(s.overflow_depth, 0);
        assert_eq!(s.max_overflow_depth, 1);
        assert_eq!(s.overflow_refiles, 1);
    }

    #[test]
    fn past_insert_matches_heap_semantics() {
        let mut w = wheel();
        w.insert(SimTime::from_millis(100), 0, 0);
        assert!(w.pop().is_some()); // cur → 100
        w.insert(SimTime::from_millis(40), 1, 1);
        w.insert(SimTime::from_millis(100), 2, 2);
        assert_eq!(drain(&mut w), vec![(40, 1), (100, 2)]);
    }
}
