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
//! The deterministic contract is identical to [`crate::EventQueue`], and
//! property-tested against it (see also [`crate::FutureEventList`]):
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

/// The ring geometry a [`CalendarQueue`] would pick for a workload with
/// the given maximum scheduling increment and expected resident event
/// count: `(bucket width in ps, bucket count)`.
///
/// The bucket count tracks the resident set (one event per bucket is the
/// O(1) sweet spot) and the width is chosen so one lap of the ring covers
/// the whole lookahead window — a bounded-increment push is then at most
/// one lap ahead of the read pointer.
pub fn profile_geometry(max_increment: Duration, expected_resident: usize) -> (i64, usize) {
    let buckets = expected_resident.clamp(16, 1 << 15).next_power_of_two();
    let inc = max_increment.ps().max(1);
    let width = (inc + buckets as i64 - 1) / buckets as i64;
    (width.max(1), buckets)
}

/// A deterministic bounded-horizon calendar/ladder future event list.
///
/// See the [module docs](self) for the contract and an example.
#[derive(Debug, Clone)]
pub struct CalendarQueue<E> {
    buckets: Vec<Vec<Slot<E>>>,
    /// Bucket width in picoseconds (> 0).
    width: i64,
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
    /// Per-window staging area for [`CalendarQueue::drain_bucket`]:
    /// slots pulled out of one window get `(time, seq)`-sorted here
    /// before moving into the caller's batch. Kept on the queue so
    /// batched draining allocates nothing in steady state.
    stage: Vec<Slot<E>>,
}

impl<E> CalendarQueue<E> {
    /// A queue with explicit ring geometry: `buckets` rings of `width`
    /// picoseconds each. Any geometry is *correct*; [`for_profile`]
    /// (`CalendarQueue::for_profile`) picks a fast one.
    ///
    /// # Panics
    ///
    /// Panics if `width` is non-positive or `buckets` is zero.
    pub fn with_geometry(width: Duration, buckets: usize) -> Self {
        assert!(width.ps() > 0, "bucket width must be positive: {width:?}");
        assert!(buckets > 0, "need at least one bucket");
        CalendarQueue {
            buckets: (0..buckets).map(|_| Vec::new()).collect(),
            width: width.ps(),
            cur: 0,
            window_end: 0,
            started: false,
            len: 0,
            next_seq: 0,
            now: Time::MIN,
            popped: 0,
            stage: Vec::new(),
        }
    }

    /// A queue sized for a workload whose scheduling increments are at
    /// most `max_increment` ahead of `now` with about `expected_resident`
    /// events pending at any instant (see [`profile_geometry`]).
    pub fn for_profile(max_increment: Duration, expected_resident: usize) -> Self {
        let (width, buckets) = profile_geometry(max_increment, expected_resident);
        CalendarQueue::with_geometry(Duration::from_ps(width), buckets)
    }

    /// The ring's bucket width in picoseconds.
    pub fn bucket_width(&self) -> i64 {
        self.width
    }

    /// The ring's bucket count.
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
        self.stage.clear();
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

    /// Reserve capacity for at least `additional` more events, spread
    /// across the ring.
    pub fn reserve(&mut self, additional: usize) {
        let per = additional.div_ceil(self.buckets.len());
        for b in &mut self.buckets {
            b.reserve(per);
        }
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
        Self::biased(t) / self.width as u64
    }

    /// The ring index of the bucket owning instant `t`.
    #[inline]
    fn bucket_of(&self, t: i64) -> usize {
        (self.tick_of(t) % self.buckets.len() as u64) as usize
    }

    /// Anchor the window so it covers instant `t`.
    #[inline]
    fn anchor(&mut self, t: i64) {
        self.cur = self.bucket_of(t);
        self.window_end = (self.tick_of(t) as u128 + 1) * self.width as u128;
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
        } else if (Self::biased(t) as u128) < self.window_end - self.width as u128 {
            // Before the first pop the window only tracks the earliest
            // push; rewind it. (After a pop, `at >= now >= window start`,
            // so this branch is unreachable.)
            self.anchor(t);
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        let ix = self.bucket_of(t);
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
        let nb = self.buckets.len();
        for _ in 0..nb {
            if let Some(ix) = self.best_in_window(self.cur) {
                return Some(self.take(self.cur, ix));
            }
            self.cur = (self.cur + 1) % nb;
            self.window_end += self.width as u128;
        }
        // Sparse far-future tail: jump the window straight to the global
        // minimum instead of spinning through empty windows.
        let (bi, ix, at) = self.global_min();
        self.anchor(at.ps());
        debug_assert_eq!(bi, self.cur);
        Some(self.take(bi, ix))
    }

    /// Drain a batch of earliest events in one bucket-granular pass.
    ///
    /// Clears `out`, then moves into it — in `(time, seq)` pop order —
    /// the maximal prefix of the pop sequence whose times satisfy
    /// `t <= min(first + span, cap)`, where `first` is the earliest
    /// pending instant. The queue state afterwards (window position,
    /// `now`, `popped`, `len`) is exactly what the same number of
    /// [`pop`](CalendarQueue::pop) calls would leave, but each window is
    /// emptied wholesale and sorted once instead of re-scanned per pop.
    /// Returns the number of events drained; 0 when the queue is empty
    /// or `first > cap` (the beyond-`cap` event stays pending).
    pub fn drain_bucket(&mut self, span: Duration, cap: Time, out: &mut Vec<(Time, E)>) -> usize {
        out.clear();
        if self.len == 0 {
            return 0;
        }
        // Position the window on the earliest pending event, exactly as
        // `pop` would: walk at most one lap, then jump to the global
        // minimum if the whole lap came up empty.
        let nb = self.buckets.len();
        let mut found = false;
        for _ in 0..nb {
            if self.best_in_window(self.cur).is_some() {
                found = true;
                break;
            }
            self.cur = (self.cur + 1) % nb;
            self.window_end += self.width as u128;
        }
        if !found {
            let (_, _, at) = self.global_min();
            self.anchor(at.ps());
        }
        let first = self.buckets[self.cur]
            .iter()
            .filter(|s| (Self::biased(s.at.ps()) as u128) < self.window_end)
            .map(|s| s.at)
            .min()
            .expect("positioned window holds the minimum");
        if first > cap {
            return 0;
        }
        let limit = cap.min(first.saturating_add(span));
        let mut drained = 0usize;
        let mut last = first;
        loop {
            // Empty the current window of everything at or before
            // `limit`. Slots from later ring laps fail the
            // `at < window_end` test and stay put.
            let window_end = self.window_end;
            let bucket = &mut self.buckets[self.cur];
            let mut i = 0;
            while i < bucket.len() {
                if (Self::biased(bucket[i].at.ps()) as u128) < window_end && bucket[i].at <= limit {
                    self.stage.push(bucket.swap_remove(i));
                } else {
                    i += 1;
                }
            }
            if !self.stage.is_empty() {
                // Windows never overlap in time, so sorting per window
                // and appending yields the global (time, seq) order.
                self.stage.sort_unstable_by_key(|s| (s.at, s.seq));
                drained += self.stage.len();
                last = self.stage.last().expect("non-empty stage").at;
                out.extend(self.stage.drain(..).map(|s| (s.at, s.payload)));
            }
            // Stop once the window has passed `limit` (every later
            // window holds strictly later events) or nothing is left.
            if self.window_end > Self::biased(limit.ps()) as u128 || drained == self.len {
                break;
            }
            self.cur = (self.cur + 1) % nb;
            self.window_end += self.width as u128;
        }
        debug_assert!(drained > 0, "first <= limit guarantees progress");
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

    /// Index of the minimal `(time, seq)` slot of `bucket` that falls
    /// inside the current window, if any.
    #[inline]
    fn best_in_window(&self, bucket: usize) -> Option<usize> {
        let mut best: Option<(Time, u64, usize)> = None;
        for (i, s) in self.buckets[bucket].iter().enumerate() {
            if (Self::biased(s.at.ps()) as u128) < self.window_end {
                let key = (s.at, s.seq, i);
                if best.map_or(true, |b| (key.0, key.1) < (b.0, b.1)) {
                    best = Some(key);
                }
            }
        }
        best.map(|(_, _, i)| i)
    }

    /// Position and time of the globally minimal `(time, seq)` slot.
    /// Only called with `len > 0`.
    fn global_min(&self) -> (usize, usize, Time) {
        let mut best: Option<(Time, u64, usize, usize)> = None;
        for (bi, bucket) in self.buckets.iter().enumerate() {
            for (i, s) in bucket.iter().enumerate() {
                if best.map_or(true, |b| (s.at, s.seq) < (b.0, b.1)) {
                    best = Some((s.at, s.seq, bi, i));
                }
            }
        }
        let (at, _, bi, i) = best.expect("global_min on an empty queue");
        (bi, i, at)
    }

    /// Remove slot `ix` of bucket `bi` and account for the pop.
    #[inline]
    fn take(&mut self, bi: usize, ix: usize) -> QueuedEvent<E> {
        // swap_remove is fine: selection is by full (time, seq) key, so
        // in-bucket storage order never influences pop order.
        let slot = self.buckets[bi].swap_remove(ix);
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
        QueuedEvent {
            at: slot.at,
            seq: slot.seq,
            payload: slot.payload,
        }
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

    /// Drop all pending events strictly later than `horizon`.
    pub fn truncate_after(&mut self, horizon: Time) {
        for b in &mut self.buckets {
            b.retain(|s| s.at <= horizon);
        }
        self.len = self.buckets.iter().map(Vec::len).sum();
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
    fn truncate_after_drops_tail() {
        let mut q = small();
        for t in 0..10 {
            q.push(Time::from_ps(t), t);
        }
        q.truncate_after(Time::from_ps(4));
        assert_eq!(q.len(), 5);
        let order: Vec<i64> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
        assert_eq!(order, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn profile_geometry_covers_the_horizon() {
        for (inc, resident) in [(1i64, 1usize), (95_000, 4_000), (10_000_000, 100)] {
            let (width, buckets) = profile_geometry(Duration::from_ps(inc), resident);
            assert!(width >= 1);
            assert!(buckets.is_power_of_two());
            assert!(
                width * buckets as i64 >= inc,
                "ring {width}×{buckets} shorter than increment {inc}"
            );
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
    }
}
