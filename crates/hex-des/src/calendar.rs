//! A bounded-horizon calendar queue — the O(1)-amortized future event list
//! for workloads whose scheduling increments are bounded.
//!
//! Every event the HEX engine schedules lands inside a known lookahead
//! window of the current simulation time: deliveries within `[d-, d+]`,
//! memory-flag timeouts within `[T-_link, T+_link]`, sleeps within
//! `[T-_sleep, T+_sleep]`. A calendar queue (Brown's classic DES structure)
//! exploits exactly that: events hash into a ring of time buckets of fixed
//! `width`, the queue walks the ring one bucket-window at a time, and a pop
//! only ever scans the handful of events sharing the current window — no
//! log-depth sift of a heap. Pushes are O(1); pops are O(bucket occupancy)
//! amortized.
//!
//! Each bucket keeps its events in push order, and every event of one
//! instant hashes to one bucket, so a time tie is broken by position: a
//! pop takes the first earliest slot of its window, and a batch drain
//! moves a window out in one pass and orders it with a stable sort on
//! time alone. The bucket width and count are powers of two, so hashing
//! an instant to its bucket is a shift and a mask.
//!
//! The deterministic contract is identical to [`crate::EventQueue`], and
//! property-tested against it, batch drains included:
//!
//! * pops are ordered by `(time, push sequence)` — FIFO on ties,
//! * scheduling into the past panics,
//! * `now()` tracks the last popped instant,
//! * [`CalendarQueue::clear`] restores the fresh state while keeping the
//!   bucket allocations (the `SimScratch` reuse idiom).
//!
//! Events *beyond* the ring's horizon (`width × bucket count`) stay correct
//! — they simply wait in their bucket for a later lap of the ring, and a
//! full fruitless lap falls back to a direct minimum scan — so bounded
//! increments are a performance profile, never a safety requirement.
//!
//! ```
//! use hex_des::{CalendarQueue, Duration, Time};
//!
//! // Sized for increments up to 100 ps and ~8 resident events.
//! let mut q = CalendarQueue::for_profile(Duration::from_ps(100), 8);
//! q.push(Time::from_ps(20), "b");
//! q.push(Time::from_ps(10), "a");
//! q.push(Time::from_ps(20), "c"); // same instant as "b", pushed later
//!
//! assert_eq!(q.pop().unwrap().payload, "a");
//! assert_eq!(q.pop().unwrap().payload, "b"); // FIFO on the 20 ps tie
//! assert_eq!(q.pop().unwrap().payload, "c");
//! assert!(q.pop().is_none());
//! assert_eq!(q.now(), Time::from_ps(20));
//! ```

use crate::event::QueuedEvent;
use crate::time::{Duration, Time};

/// An event with its deterministic `(time, seq)` key.
#[derive(Debug, Clone)]
struct Slot<E> {
    at: Time,
    seq: u64,
    payload: E,
}

/// The geometry a ring uses for a requested bucket `width` and count:
/// `(bucket width in ps, bucket count)`, each rounded up to a power of
/// two (the width to at most `2^62` ps, so it stays an `i64`).
/// [`CalendarQueue::with_geometry`] applies it.
///
/// # Panics
///
/// Panics if `width` is non-positive or `buckets` is zero.
pub fn ring_geometry(width: Duration, buckets: usize) -> (i64, usize) {
    assert!(width.ps() > 0, "bucket width must be positive: {width:?}");
    assert!(buckets > 0, "need at least one bucket");
    let width = (width.ps() as u64).next_power_of_two().min(1 << 62);
    (width as i64, buckets.next_power_of_two())
}

/// The ring geometry a [`CalendarQueue`] would pick for a workload with
/// the given maximum scheduling increment and expected resident event
/// count: `(bucket width in ps, bucket count)`, both powers of two.
///
/// The bucket count tracks the resident set (one event per bucket is the
/// O(1) sweet spot) and the width is chosen so one lap of the ring covers
/// the whole lookahead window — a bounded-increment push is then at most
/// one lap ahead of the read pointer.
pub fn profile_geometry(max_increment: Duration, expected_resident: usize) -> (i64, usize) {
    let buckets = expected_resident.clamp(16, 1 << 15).next_power_of_two();
    let inc = max_increment.ps().max(1);
    let width = (inc + buckets as i64 - 1) / buckets as i64;
    ring_geometry(Duration::from_ps(width), buckets)
}

/// A deterministic bounded-horizon calendar/ladder future event list.
///
/// See the [module docs](self) for the contract and an example.
#[derive(Debug, Clone)]
pub struct CalendarQueue<E> {
    /// The ring. Each bucket holds its slots in push order, which is what
    /// breaks time ties (every slot of one instant lives in one bucket).
    buckets: Vec<Vec<Slot<E>>>,
    /// `log2` of the bucket width in picoseconds.
    shift: u32,
    /// Bucket count − 1 (the count is a power of two).
    mask: usize,
    /// Ring index owning the current window.
    cur: usize,
    /// Exclusive upper bound of the current window, in *biased* ps space
    /// (see [`CalendarQueue::biased`]), widened to `u128` so the
    /// `(tick + 1) × width` bound and the lap walk stay exact for
    /// instants all the way out to `i64::MAX`. Valid only once `started`.
    window_end: u128,
    /// Whether the window has been anchored by a push since the last
    /// clear.
    started: bool,
    len: usize,
    next_seq: u64,
    now: Time,
    popped: u64,
}

impl<E> CalendarQueue<E> {
    /// A queue with explicit ring geometry: `buckets` rings of `width`
    /// picoseconds each, both rounded up to powers of two by
    /// [`ring_geometry`] so that hashing an instant to its bucket is a
    /// shift and a mask. Any geometry is *correct*;
    /// [`for_profile`](CalendarQueue::for_profile) picks a fast one.
    ///
    /// # Panics
    ///
    /// Panics if `width` is non-positive or `buckets` is zero.
    pub fn with_geometry(width: Duration, buckets: usize) -> Self {
        let (width, buckets) = ring_geometry(width, buckets);
        CalendarQueue {
            buckets: (0..buckets).map(|_| Vec::new()).collect(),
            shift: width.trailing_zeros(),
            mask: buckets - 1,
            cur: 0,
            window_end: 0,
            started: false,
            len: 0,
            next_seq: 0,
            now: Time::MIN,
            popped: 0,
        }
    }

    /// A queue sized for a workload whose scheduling increments are at
    /// most `max_increment` ahead of `now` with about `expected_resident`
    /// events pending at any instant (see [`profile_geometry`]).
    pub fn for_profile(max_increment: Duration, expected_resident: usize) -> Self {
        let (width, buckets) = profile_geometry(max_increment, expected_resident);
        CalendarQueue::with_geometry(Duration::from_ps(width), buckets)
    }

    /// The ring's bucket width in picoseconds (a power of two).
    pub fn bucket_width(&self) -> i64 {
        1 << self.shift
    }

    /// The ring's bucket count (a power of two).
    pub fn bucket_count(&self) -> usize {
        self.buckets.len()
    }

    /// Reset to the fresh state — no pending events, sequence counter at
    /// 0, clock at `Time::MIN`, pop count at 0 — while keeping every
    /// bucket's allocation, so simulation runs can recycle one queue
    /// without affecting determinism.
    pub fn clear(&mut self) {
        for b in &mut self.buckets {
            b.clear();
        }
        self.cur = 0;
        self.window_end = 0;
        self.started = false;
        self.len = 0;
        self.next_seq = 0;
        self.now = Time::MIN;
        self.popped = 0;
    }

    /// Total number of events the bucket rings can hold without
    /// reallocating.
    pub fn capacity(&self) -> usize {
        self.buckets.iter().map(Vec::capacity).sum()
    }

    /// Map an instant onto the unsigned tick line: an order-preserving
    /// bias (`t ^ i64::MIN`) that puts `i64::MIN` at 0 and `i64::MAX` at
    /// `u64::MAX`. All bucket/window index math runs in this space so
    /// negative instants (pre-time-zero scheduling in adversarial
    /// constructions) and instants near `i64::MAX` both index exactly —
    /// the signed `div_euclid`/`rem_euclid` formulation wrapped once the
    /// `(tick + 1) × width` window bound left the `i64` range.
    #[inline]
    fn biased(t: i64) -> u64 {
        (t as u64) ^ (1u64 << 63)
    }

    /// The tick (bucket-width quotient) of instant `t`, in biased space.
    #[inline]
    fn tick_of(&self, t: i64) -> u64 {
        Self::biased(t) >> self.shift
    }

    /// The current window's last instant on the biased tick line; a
    /// window that a lap walk pushed past the end of time saturates at
    /// `u64::MAX`. Valid only once `started`.
    #[inline]
    fn window_last(&self) -> u64 {
        (self.window_end - 1).min(u64::MAX as u128) as u64
    }

    /// Anchor the window so it covers instant `t`.
    #[inline]
    fn anchor(&mut self, t: i64) {
        let tick = self.tick_of(t);
        self.cur = tick as usize & self.mask;
        self.window_end = (tick as u128 + 1) << self.shift;
    }

    /// Move the window one bucket along the ring.
    #[inline]
    fn step(&mut self) {
        self.cur = (self.cur + 1) & self.mask;
        self.window_end += 1u128 << self.shift;
    }

    /// Schedule `payload` at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` lies before the time of the last popped event: a
    /// discrete-event simulation must never schedule into its own past.
    pub fn push(&mut self, at: Time, payload: E) {
        assert!(
            at >= self.now,
            "event scheduled into the past: {:?} < {:?}",
            at,
            self.now
        );
        let t = at.ps();
        if !self.started {
            self.started = true;
            self.anchor(t);
        } else if (Self::biased(t) as u128) < self.window_end - (1u128 << self.shift) {
            // Before the first pop the window only tracks the earliest
            // push; rewind it. (After a pop, `at >= now >= window start`,
            // so this branch is unreachable.)
            self.anchor(t);
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        let ix = self.tick_of(t) as usize & self.mask;
        self.buckets[ix].push(Slot { at, seq, payload });
        self.len += 1;
    }

    /// Remove and return the earliest event, advancing simulated time.
    ///
    /// Walks the ring from the current window until a bucket holds an
    /// event inside its window; one full fruitless lap (all pending
    /// events more than `width × bucket count` ahead) falls back to a
    /// direct scan for the global minimum.
    pub fn pop(&mut self) -> Option<QueuedEvent<E>> {
        if self.len == 0 {
            return None;
        }
        let (ix, _) = self.seek();
        // `remove`, not `swap_remove`: the bucket's push order is what
        // breaks the time ties of later pops.
        let slot = self.buckets[self.cur].remove(ix);
        self.len -= 1;
        // Pop-time monotonicity: simulated time never runs backwards.
        // For the calendar this also guards the window-walk logic: a
        // backwards pop means a lap/window accounting bug, not just a
        // mis-ordered push.
        debug_assert!(
            slot.at >= self.now,
            "pop-time monotonicity violated: popped {:?} behind now {:?}",
            slot.at,
            self.now
        );
        self.now = slot.at;
        self.popped += 1;
        Some(QueuedEvent {
            at: slot.at,
            seq: slot.seq,
            payload: slot.payload,
        })
    }

    /// Drain a batch of earliest events in one bucket-granular pass.
    ///
    /// Clears `out`, then moves into it — in `(time, seq)` pop order —
    /// the maximal prefix of the pop sequence whose times satisfy
    /// `t <= min(first + span, cap)`, where `first` is the earliest
    /// pending instant. The queue state afterwards (window position,
    /// `now`, `popped`, `len`) is exactly what the same number of
    /// [`pop`](CalendarQueue::pop) calls would leave, but each window is
    /// emptied wholesale, in push order, and put in time order by one
    /// stable sort instead of re-scanned per pop.
    /// Returns the number of events drained; 0 when the queue is empty
    /// or `first > cap` (the beyond-`cap` event stays pending).
    pub fn drain_bucket(&mut self, span: Duration, cap: Time, out: &mut Vec<(Time, E)>) -> usize
    where
        E: Copy,
    {
        out.clear();
        if self.len == 0 {
            return 0;
        }
        let (_, first) = self.seek();
        if first > cap {
            return 0;
        }
        let limit = cap.min(first.saturating_add(span));
        let biased_limit = Self::biased(limit.ps());
        loop {
            // Move everything of the current window at or before
            // `limit` into `out` and compact the rest in place, both in
            // push order. Slots from later ring laps fail the window
            // test and stay put.
            let due_last = self.window_last().min(biased_limit);
            let from = out.len();
            self.buckets[self.cur].retain(|s| {
                let due = Self::biased(s.at.ps()) <= due_last;
                if due {
                    out.push((s.at, s.payload));
                }
                !due
            });
            // Push order already breaks time ties, so a stable sort on
            // time alone gives `(time, seq)` order; windows never
            // overlap in time, so appending them keeps it global.
            out[from..].sort_by_key(|e| e.0);
            // Stop once the window has passed `limit` (every later
            // window holds strictly later events) or nothing is left.
            if self.window_end > biased_limit as u128 || out.len() == self.len {
                break;
            }
            self.step();
        }
        let drained = out.len();
        let last = out.last().expect("first <= limit guarantees progress").0;
        debug_assert!(
            first >= self.now,
            "pop-time monotonicity violated: batch starts {:?} behind now {:?}",
            first,
            self.now
        );
        self.len -= drained;
        self.popped += drained as u64;
        self.now = last;
        // Leave the window exactly where a scalar pop sequence would:
        // covering the last popped instant.
        self.anchor(last.ps());
        drained
    }

    /// Walk the window to the earliest pending event, as every pop does:
    /// at most one lap of the ring, then, if the whole lap came up empty
    /// (a sparse far-future tail), a jump straight to the global minimum
    /// instead of spinning through empty windows. Returns the event's
    /// index in the current bucket and its time. Only called with
    /// `len > 0`.
    fn seek(&mut self) -> (usize, Time) {
        for _ in 0..self.buckets.len() {
            if let Some(found) = self.window_min() {
                return found;
            }
            self.step();
        }
        let at = self.global_min();
        self.anchor(at.ps());
        self.window_min()
            .expect("the global minimum lies in its own window")
    }

    /// Index and time of the earliest slot of the current bucket inside
    /// the current window, if any. Of equal times the first in the
    /// bucket wins: it was pushed first.
    #[inline]
    fn window_min(&self) -> Option<(usize, Time)> {
        let last = self.window_last();
        let mut best: Option<(usize, Time)> = None;
        for (i, s) in self.buckets[self.cur].iter().enumerate() {
            if Self::biased(s.at.ps()) <= last && best.map_or(true, |(_, t)| s.at < t) {
                best = Some((i, s.at));
            }
        }
        best
    }

    /// The earliest pending instant. Only called with `len > 0`.
    fn global_min(&self) -> Time {
        self.buckets
            .iter()
            .flatten()
            .map(|s| s.at)
            .min()
            .expect("global_min on an empty queue")
    }

    /// Current simulated time (time of the last popped event).
    pub fn now(&self) -> Time {
        self.now
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True iff no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total number of events popped so far (simulation work metric).
    pub fn popped(&self) -> u64 {
        self.popped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventQueue;
    use crate::time::Duration;
    use proptest::prelude::*;

    fn small() -> CalendarQueue<i64> {
        CalendarQueue::with_geometry(Duration::from_ps(16), 8)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = small();
        for &t in &[5i64, 1, 9, 300, 7] {
            q.push(Time::from_ps(t), t);
        }
        let order: Vec<i64> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
        assert_eq!(order, vec![1, 5, 7, 9, 300]);
    }

    #[test]
    fn fifo_on_ties() {
        let mut q = small();
        for i in 0..20 {
            q.push(Time::ZERO, i);
        }
        for i in 0..20 {
            assert_eq!(q.pop().unwrap().payload, i);
        }
    }

    #[test]
    #[should_panic(expected = "scheduled into the past")]
    fn rejects_past_events() {
        let mut q = small();
        q.push(Time::from_ps(10), 0);
        q.pop();
        q.push(Time::from_ps(9), 0);
    }

    #[test]
    fn allows_event_at_now() {
        let mut q = small();
        q.push(Time::from_ps(10), 1);
        let e = q.pop().unwrap();
        q.push(e.at, 2);
        assert_eq!(q.pop().unwrap().payload, 2);
    }

    #[test]
    fn window_rewinds_for_earlier_pre_pop_pushes() {
        // First push anchors the window high; later pre-pop pushes below
        // it must still pop first.
        let mut q = small();
        q.push(Time::from_ps(1_000), 1_000);
        q.push(Time::from_ps(3), 3);
        q.push(Time::from_ps(500), 500);
        let order: Vec<i64> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
        assert_eq!(order, vec![3, 500, 1_000]);
    }

    #[test]
    fn sparse_far_future_takes_the_jump_path() {
        // Ring horizon is 16 × 8 = 128 ps; events a million ps apart force
        // the full-lap fallback.
        let mut q = small();
        for k in 0..5i64 {
            q.push(Time::from_ps(k * 1_000_000), k);
        }
        for k in 0..5i64 {
            assert_eq!(q.pop().unwrap().payload, k);
        }
        assert!(q.pop().is_none());
    }

    /// Regression net for the lap-walk fallback: events landing *exactly*
    /// on the ring-horizon boundary (`width × buckets` ahead of the
    /// anchor) and one tick past it must still pop in `(time, seq)` order
    /// with FIFO ties — these are the instants where an off-by-one in the
    /// window arithmetic would either pop a beyond-horizon event a full
    /// lap early or skip it for a lap.
    #[test]
    fn horizon_boundary_events_pop_in_time_seq_order() {
        // small(): width 16 × 8 buckets ⇒ ring horizon 128 ps.
        let horizon = 16 * 8;
        for anchor in [0i64, 5, 16, 127] {
            let mut cal: CalendarQueue<usize> =
                CalendarQueue::with_geometry(Duration::from_ps(16), 8);
            let mut bin = EventQueue::new();
            let mut payload = 0usize;
            let mut push = |cal: &mut CalendarQueue<usize>, bin: &mut EventQueue<usize>, t: i64| {
                cal.push(Time::from_ps(t), payload);
                bin.push(Time::from_ps(t), payload);
                payload += 1;
            };
            // Anchor the window, then lay events on the boundary, one
            // tick before, one past, and duplicates of each (FIFO ties).
            push(&mut cal, &mut bin, anchor);
            for t in [
                anchor + horizon - 1,
                anchor + horizon,     // exactly one lap ahead
                anchor + horizon,     // FIFO tie on the boundary
                anchor + horizon + 1, // one tick past the horizon
                anchor + horizon + 1,
                anchor + 2 * horizon, // two laps ahead
            ] {
                push(&mut cal, &mut bin, t);
            }
            assert_drains_identically(cal, bin);
        }
    }

    /// The same boundary instants when the window has already walked:
    /// pop-then-reschedule exactly `horizon` and `horizon + 1` ahead of
    /// `now` (the engine's far-future sleep shape).
    #[test]
    fn horizon_boundary_reschedules_after_pops() {
        let horizon = 16i64 * 8;
        let mut cal: CalendarQueue<usize> = CalendarQueue::with_geometry(Duration::from_ps(16), 8);
        let mut bin = EventQueue::new();
        for i in 0..4usize {
            cal.push(Time::from_ps(i as i64), i);
            bin.push(Time::from_ps(i as i64), i);
        }
        for step in 0..12 {
            let a = cal.pop().unwrap();
            let b = bin.pop().unwrap();
            assert_eq!(
                (a.at, a.seq, a.payload),
                (b.at, b.seq, b.payload),
                "step {step}"
            );
            // Alternate exactly-on-horizon and one-past-horizon holds.
            let delta = if step % 2 == 0 { horizon } else { horizon + 1 };
            cal.push(a.at + Duration::from_ps(delta), a.payload);
            bin.push(b.at + Duration::from_ps(delta), b.payload);
        }
        assert_drains_identically(cal, bin);
    }

    /// Regression: bucket/window indexing used to run through signed
    /// `i64` math, where the `(tick + 1) × width` window bound wraps for
    /// instants near `i64::MAX` (≈ `u64::MAX / 2` on the biased tick
    /// line) — events silently hashed into wrong buckets and popped out
    /// of order. The biased-`u64`/`u128` formulation must pop extreme
    /// timestamps exactly like the reference heap, FIFO ties included.
    #[test]
    fn extreme_timestamps_pop_like_the_heap() {
        let top = i64::MAX;
        for (width, buckets) in [(1i64, 4usize), (7, 8), (16, 8), (1 << 40, 16)] {
            let mut cal: CalendarQueue<usize> =
                CalendarQueue::with_geometry(Duration::from_ps(width), buckets);
            let mut bin = EventQueue::new();
            let mut payload = 0usize;
            let mut push = |cal: &mut CalendarQueue<usize>, bin: &mut EventQueue<usize>, t: i64| {
                cal.push(Time::from_ps(t), payload);
                bin.push(Time::from_ps(t), payload);
                payload += 1;
            };
            // A spread straddling the last few ring windows before the
            // end of time, with FIFO ties on the extremes.
            for t in [
                top - 3 * width * buckets as i64,
                top - width - 1,
                top - 1,
                top,
                top, // FIFO tie at the end of time
                top - width,
                top - 1,
            ] {
                push(&mut cal, &mut bin, t);
            }
            assert_drains_identically(cal, bin);
        }
    }

    /// The same extremes through the batched drain: window walks starting
    /// near `i64::MAX` must stop exactly at the cap, and the drain must
    /// replay the scalar pop order.
    #[test]
    fn extreme_timestamps_drain_like_scalar_pops() {
        let top = i64::MAX;
        let mut cal: CalendarQueue<usize> = CalendarQueue::with_geometry(Duration::from_ps(16), 8);
        let mut bin: CalendarQueue<usize> = CalendarQueue::with_geometry(Duration::from_ps(16), 8);
        for (i, t) in [top - 400, top - 40, top - 39, top - 1, top, top]
            .into_iter()
            .enumerate()
        {
            cal.push(Time::from_ps(t), i);
            bin.push(Time::from_ps(t), i);
        }
        let mut batch = Vec::new();
        let drained = cal.drain_bucket(Duration::from_ps(500), Time::from_ps(top - 1), &mut batch);
        assert_eq!(drained, 4, "cap at MAX-1 leaves the two end-of-time ties");
        for &(at, p) in &batch {
            let e = bin.pop().expect("scalar twin has the event");
            assert_eq!((e.at, e.payload), (at, p));
        }
        assert_eq!(cal.len(), 2);
        while let Some(e) = cal.pop() {
            let twin = bin.pop().expect("scalar twin has the event");
            assert_eq!((e.at, e.payload), (twin.at, twin.payload));
            assert_eq!(e.at, Time::from_ps(top));
        }
    }

    #[test]
    fn negative_instants_are_legal() {
        let mut q = small();
        q.push(Time::from_ps(-1_000), -1_000);
        q.push(Time::from_ps(50), 50);
        q.push(Time::from_ps(-31), -31);
        let order: Vec<i64> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
        assert_eq!(order, vec![-1_000, -31, 50]);
    }

    #[test]
    fn clear_restores_the_fresh_state() {
        let mut dirty = CalendarQueue::for_profile(Duration::from_ps(200), 32);
        for t in 0..100 {
            dirty.push(Time::from_ps(t), t);
        }
        for _ in 0..40 {
            dirty.pop();
        }
        let cap = dirty.capacity();
        dirty.clear();
        assert!(dirty.is_empty());
        assert_eq!(dirty.now(), Time::MIN);
        assert_eq!(dirty.popped(), 0);
        assert!(dirty.capacity() >= cap.min(100), "clear must keep capacity");

        // A cleared queue replays a schedule exactly like a fresh one,
        // including FIFO tie-breaking (sequence counter reset).
        let mut fresh = CalendarQueue::for_profile(Duration::from_ps(200), 32);
        for q in [&mut dirty, &mut fresh] {
            q.push(Time::from_ps(5), 0);
            q.push(Time::from_ps(5), 1);
            q.push(Time::from_ps(2), 2);
        }
        loop {
            match (dirty.pop(), fresh.pop()) {
                (None, None) => break,
                (a, b) => {
                    let (a, b) = (a.expect("same length"), b.expect("same length"));
                    assert_eq!((a.at, a.seq, a.payload), (b.at, b.seq, b.payload));
                }
            }
        }
    }

    #[test]
    fn profile_geometry_covers_the_horizon() {
        for (inc, resident) in [(1i64, 1usize), (95_000, 4_000), (10_000_000, 100)] {
            let (width, buckets) = profile_geometry(Duration::from_ps(inc), resident);
            assert!(width >= 1);
            assert!((width as u64).is_power_of_two() && buckets.is_power_of_two());
            let q = CalendarQueue::<()>::for_profile(Duration::from_ps(inc), resident);
            assert_eq!((q.bucket_width(), q.bucket_count()), (width, buckets));
            assert!(
                width * buckets as i64 >= inc,
                "ring {width}×{buckets} shorter than increment {inc}"
            );
        }
    }

    #[test]
    fn geometry_rounds_up_to_powers_of_two() {
        for (width, buckets, want) in [
            (1i64, 1usize, (1i64, 1usize)),
            (7, 3, (8, 4)),
            (16, 8, (16, 8)),
            (17, 9, (32, 16)),
            ((1 << 62) + 1, 2, (1 << 62, 2)),
            (i64::MAX, 1, (1 << 62, 1)),
        ] {
            assert_eq!(ring_geometry(Duration::from_ps(width), buckets), want);
            let mut q = CalendarQueue::with_geometry(Duration::from_ps(width), buckets);
            assert_eq!(
                (q.bucket_width(), q.bucket_count()),
                want,
                "{width}×{buckets}"
            );
            // The capped widest ring still orders the whole time line.
            for t in [i64::MAX, 0, i64::MIN, i64::MAX] {
                q.push(Time::from_ps(t), t);
            }
            let order: Vec<i64> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
            assert_eq!(order, vec![i64::MIN, 0, i64::MAX, i64::MAX]);
        }
    }

    /// FIFO ties through a partial window: several events share an
    /// instant inside a window that the batch limit `cap` cuts through,
    /// and `drain_bucket` and `pop` take turns on it. Every event must
    /// leave in the reference heap's `(at, seq, payload)` order, on a
    /// one-bucket ring, on a geometry the ring rounds up, and on a
    /// profile ring whose first window holds every event. A `pop` that
    /// reorders the rest of its bucket (`swap_remove`) fails here.
    #[test]
    fn fifo_ties_through_a_partial_window() {
        let rings = [
            CalendarQueue::with_geometry(Duration::from_ps(1), 1),
            CalendarQueue::with_geometry(Duration::from_ps(7), 3),
            CalendarQueue::for_profile(Duration::from_ps(1_000), 4),
        ];
        for mut cal in rings {
            let geometry = (cal.bucket_width(), cal.bucket_count());
            let mut bin = EventQueue::new();
            let mut next = 0usize;
            let mut push = |cal: &mut CalendarQueue<usize>, bin: &mut EventQueue<usize>, t: i64| {
                cal.push(Time::from_ps(t), next);
                bin.push(Time::from_ps(t), next);
                next += 1;
            };
            let pop = |cal: &mut CalendarQueue<usize>, bin: &mut EventQueue<usize>| {
                let (a, b) = (cal.pop().unwrap(), bin.pop().unwrap());
                assert_eq!(
                    (a.at, a.seq, a.payload),
                    (b.at, b.seq, b.payload),
                    "{geometry:?}"
                );
                a.at.ps()
            };
            let mut batch = Vec::new();
            let mut drain = |cal: &mut CalendarQueue<usize>,
                             bin: &mut EventQueue<usize>,
                             span: i64,
                             cap: i64| {
                cal.drain_bucket(Duration::from_ps(span), Time::from_ps(cap), &mut batch);
                for &(at, p) in &batch {
                    let b = bin.pop().unwrap();
                    assert_eq!((at, p, p as u64), (b.at, b.payload, b.seq), "{geometry:?}");
                }
                assert_eq!((cal.len(), cal.popped()), (bin.len(), bin.popped()));
                batch.iter().map(|&(at, _)| at.ps()).collect::<Vec<_>>()
            };
            // Ties of four at 10 ps and three at 14 ps, pushed out of
            // time order among the rest.
            for t in [12, 10, 10, 9, 10, 14, 14, 15, 14, 10] {
                push(&mut cal, &mut bin, t);
            }
            assert_eq!(pop(&mut cal, &mut bin), 9);
            // `cap` cuts the window after the 10 ps ties.
            assert_eq!(drain(&mut cal, &mut bin, 100, 10), vec![10; 4]);
            assert_eq!(pop(&mut cal, &mut bin), 12);
            assert_eq!(pop(&mut cal, &mut bin), 14);
            // Two more ties at `now`, behind the two left pending.
            push(&mut cal, &mut bin, 14);
            push(&mut cal, &mut bin, 14);
            assert_eq!(pop(&mut cal, &mut bin), 14);
            assert_eq!(drain(&mut cal, &mut bin, 0, i64::MAX), vec![14; 3]);
            assert_eq!(drain(&mut cal, &mut bin, 100, i64::MAX), vec![15]);
            assert!(cal.is_empty() && bin.is_empty());
        }
    }

    /// Drains `cal` and `bin` side by side, asserting identical
    /// `(time, seq, payload)` pops.
    fn assert_drains_identically(mut cal: CalendarQueue<usize>, mut bin: EventQueue<usize>) {
        loop {
            match (cal.pop(), bin.pop()) {
                (None, None) => break,
                (Some(a), Some(b)) => {
                    assert_eq!((a.at, a.seq, a.payload), (b.at, b.seq, b.payload));
                }
                other => panic!("length mismatch: {:?}", other.0.is_some()),
            }
        }
    }

    /// Drive a fresh `cal` through an interleaved push/batch hold
    /// workload, mirroring every push into a binary heap. Each
    /// [`CalendarQueue::drain_bucket`] batch is checked against scalar
    /// pops on a cloned twin (same events in the same order, same
    /// `now`/`len`/`popped`), against the heap's next pops, and for
    /// maximality (the twin's next pop lies beyond the batch limit).
    /// Returns the heap, holding whatever the calendar left pending.
    fn hold_batched(
        cal: &mut CalendarQueue<usize>,
        span: Duration,
        cap: Time,
        deltas: &[i64],
    ) -> EventQueue<usize> {
        let mut heap = EventQueue::new();
        for i in 0..8 {
            cal.push(Time::from_ps(i as i64), i);
            heap.push(Time::from_ps(i as i64), i);
        }
        let mut buf = Vec::new();
        let mut deltas = deltas.iter().copied();
        loop {
            let mut twin = cal.clone();
            let n = cal.drain_bucket(span, cap, &mut buf);
            for &(at, p) in &buf {
                let e = twin.pop().expect("scalar twin has the event");
                assert_eq!((e.at, e.payload), (at, p), "batch vs scalar order");
                let e = heap.pop().expect("heap has the event");
                assert_eq!((e.at, e.payload), (at, p), "batch vs heap order");
            }
            assert_eq!(
                (cal.now(), cal.len(), cal.popped()),
                (twin.now(), twin.len(), twin.popped())
            );
            let next = twin.pop().map(|e| e.at);
            if n == 0 {
                // Empty, or the earliest event lies beyond `cap`.
                assert!(
                    next.map_or(true, |t| t > cap),
                    "zero batch must mean a beyond-cap head"
                );
                break;
            }
            // Maximality: whatever pops next exceeds the batch limit.
            let limit = cap.min(buf[0].0.saturating_add(span));
            if let Some(t) = next {
                assert!(t > limit, "batch stopped early: {t:?} <= {limit:?}");
            }
            for (at, p) in buf.drain(..) {
                // Hold model: reschedule each drained event once until
                // the delta stream runs dry. Increments stay at or above
                // `span` — the batching contract: a batch is only safe
                // when nothing processed inside it can schedule back
                // into it (`at + span >= first + span >= last = now`).
                if let Some(d) = deltas.next() {
                    let t = at + span + Duration::from_ps(d);
                    cal.push(t, p);
                    heap.push(t, p);
                }
            }
        }
        assert!(cal.is_empty() || cal.now() <= cap);
        heap
    }

    #[test]
    fn batch_drain_matches_scalar_pops_across_spans() {
        let deltas: Vec<i64> = (0..200).map(|i| (i * 37) % 90).collect();
        for span in [0i64, 1, 16, 90, 10_000] {
            let mut cal = CalendarQueue::for_profile(Duration::from_ps(90), 8);
            let heap = hold_batched(&mut cal, Duration::from_ps(span), Time::MAX, &deltas);
            // Everything initially pushed or rescheduled was drained.
            assert!(cal.is_empty() && heap.is_empty());
            assert_eq!(cal.popped(), 8 + deltas.len() as u64);
        }
    }

    #[test]
    fn beyond_cap_heads_stay_pending() {
        let mut cal = CalendarQueue::for_profile(Duration::from_ps(50), 8);
        let cap = Time::from_ps(40);
        let heap = hold_batched(&mut cal, Duration::from_ps(25), cap, &[50, 50, 50]);
        // Something was rescheduled past the cap and must still pend,
        // in the heap's order.
        assert!(!cal.is_empty());
        assert_eq!(heap.len(), cal.len());
        assert_drains_identically(cal, heap);
    }

    proptest! {
        // Shared CI case budget: pin 32 cases (= compat/proptest DEFAULT_CASES).
        #![proptest_config(ProptestConfig::with_cases(32))]
        /// Drop-in equivalence under arbitrary ring geometry: any push
        /// sequence pops identically to EventQueue.
        #[test]
        fn prop_equivalent_to_binary_heap(
            times in prop::collection::vec(0i64..2_000, 1..300),
            width in 1i64..64,
            buckets in 1usize..32,
        ) {
            let mut cal = CalendarQueue::with_geometry(Duration::from_ps(width), buckets);
            let mut bin = EventQueue::new();
            for (i, &t) in times.iter().enumerate() {
                cal.push(Time::from_ps(t), i);
                bin.push(Time::from_ps(t), i);
            }
            assert_drains_identically(cal, bin);
        }

        /// Equivalence under engine-shaped bounded-increment hold
        /// interleavings: pop one, reschedule it a bounded delta ahead —
        /// the exact access pattern `simulate` generates.
        #[test]
        fn prop_equivalent_bounded_hold(
            deltas in prop::collection::vec(0i64..100, 1..200),
            resident in 1usize..12,
        ) {
            let mut cal = CalendarQueue::for_profile(Duration::from_ps(100), resident);
            let mut bin = EventQueue::new();
            for i in 0..resident {
                cal.push(Time::from_ps(i as i64), i);
                bin.push(Time::from_ps(i as i64), i);
            }
            for &d in &deltas {
                let a = cal.pop().unwrap();
                let b = bin.pop().unwrap();
                prop_assert_eq!(a.at, b.at);
                prop_assert_eq!(a.payload, b.payload);
                cal.push(a.at + Duration::from_ps(d), a.payload);
                bin.push(b.at + Duration::from_ps(d), b.payload);
            }
            prop_assert_eq!(cal.popped(), deltas.len() as u64);
            prop_assert_eq!(cal.popped(), bin.popped());
            assert_drains_identically(cal, bin);
        }

        /// Equivalence when the increment bound is violated (pushes far
        /// beyond one ring lap): slower, never wrong.
        #[test]
        fn prop_equivalent_beyond_horizon(
            deltas in prop::collection::vec(0i64..50_000, 1..100),
        ) {
            let mut cal = CalendarQueue::with_geometry(Duration::from_ps(8), 4);
            let mut bin = EventQueue::new();
            cal.push(Time::ZERO, 0);
            bin.push(Time::ZERO, 0);
            for (i, &d) in deltas.iter().enumerate() {
                let a = cal.pop().unwrap();
                let b = bin.pop().unwrap();
                prop_assert_eq!((a.at, a.payload), (b.at, b.payload));
                cal.push(a.at + Duration::from_ps(d), i + 1);
                bin.push(b.at + Duration::from_ps(d), i + 1);
            }
        }

        /// Batched draining under random spans and hold interleavings:
        /// `hold_batched` checks each batch against a cloned twin's
        /// scalar pops and against the binary heap.
        #[test]
        fn prop_calendar_batches_like_the_heap(
            deltas in prop::collection::vec(0i64..120, 1..150),
            span in 0i64..200,
        ) {
            let mut cal = CalendarQueue::for_profile(Duration::from_ps(120), 8);
            let heap = hold_batched(&mut cal, Duration::from_ps(span), Time::MAX, &deltas);
            prop_assert!(cal.is_empty() && heap.is_empty());
        }
    }
}
