//! The future-event-list abstraction the simulation engines plug into.
//!
//! Two queue implementations share one deterministic contract — pops
//! ordered by `(time, push sequence)`, FIFO on ties, past-scheduling
//! panics, monotone `now()`, and a [`clear`](FutureEventList::clear) that
//! restores the fresh state while keeping allocations:
//!
//! * [`EventQueue`] — `std::collections::BinaryHeap`, the reference;
//! * [`CalendarQueue`] — a bounded-horizon calendar/bucket ring, the
//!   queue the HEX engine runs on.
//!
//! [`FutureEventList`] is **sealed**: the property tests below pin the
//! calendar's pop order and batch drains against the binary heap, and
//! only these two implementations are covered, so external impls are
//! deliberately impossible. Code generic over the trait runs on either:
//!
//! ```
//! use hex_des::{Duration, EventQueue, CalendarQueue, FutureEventList, Time};
//!
//! fn drain<Q: FutureEventList<u32>>(q: &mut Q) -> Vec<u32> {
//!     std::iter::from_fn(|| q.pop_next().map(|(_, p)| p)).collect()
//! }
//!
//! let mut heap = EventQueue::new();
//! let mut ring = CalendarQueue::for_profile(Duration::from_ps(10), 4);
//! for q in [&mut heap as &mut dyn FutureEventList<u32>, &mut ring] {
//!     q.push(Time::from_ps(7), 1);
//!     q.push(Time::from_ps(3), 2);
//! }
//! assert_eq!(drain(&mut heap), drain(&mut ring));
//! ```

use crate::calendar::CalendarQueue;
use crate::event::EventQueue;
use crate::time::{Duration, Time};

mod sealed {
    /// Only the queues covered by the equivalence properties may
    /// implement [`super::FutureEventList`].
    pub trait Sealed {}
    impl<E> Sealed for super::EventQueue<E> {}
    impl<E> Sealed for super::CalendarQueue<E> {}
}

/// A deterministic future event list (sealed; see the [module
/// docs](self)).
pub trait FutureEventList<E>: sealed::Sealed {
    /// Schedule `payload` at absolute time `at`; panics if `at` lies
    /// before the last popped instant.
    fn push(&mut self, at: Time, payload: E);

    /// Remove and return the earliest `(time, payload)`, advancing
    /// simulated time. Named `pop_next` so the inherent `pop` of each
    /// queue (with its richer return type) stays available.
    fn pop_next(&mut self) -> Option<(Time, E)>;

    /// Current simulated time (time of the last popped event).
    fn now(&self) -> Time;

    /// Number of pending events.
    fn len(&self) -> usize;

    /// True iff no events are pending.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of events popped so far (simulation work metric).
    fn popped(&self) -> u64;

    /// Reset to the fresh state, keeping allocations (scratch reuse).
    fn clear(&mut self);

    /// Reserve room for at least `additional` more events.
    fn reserve(&mut self, additional: usize);

    /// Number of events the queue can hold without reallocating.
    fn capacity(&self) -> usize;

    /// Drain a batch: clear `out`, then move into it the maximal prefix
    /// of the pop sequence whose times satisfy
    /// `t <= min(first + span, cap)`, where `first` is the time of the
    /// earliest pending event. Exactly equivalent to that many
    /// [`pop_next`](Self::pop_next) calls — same `(time, seq)` order,
    /// same `now()`/`popped()` accounting — but implementable as a
    /// bucket drain instead of per-event selection. Returns the number
    /// of events drained; 0 when the queue is empty or the earliest
    /// event lies beyond `cap` (which is then left pending).
    fn pop_batch(&mut self, span: Duration, cap: Time, out: &mut Vec<(Time, E)>) -> usize;
}

impl<E> FutureEventList<E> for EventQueue<E> {
    fn push(&mut self, at: Time, payload: E) {
        EventQueue::push(self, at, payload);
    }
    fn pop_next(&mut self) -> Option<(Time, E)> {
        EventQueue::pop(self).map(|e| (e.at, e.payload))
    }
    fn now(&self) -> Time {
        EventQueue::now(self)
    }
    fn len(&self) -> usize {
        EventQueue::len(self)
    }
    fn popped(&self) -> u64 {
        EventQueue::popped(self)
    }
    fn clear(&mut self) {
        EventQueue::clear(self);
    }
    fn reserve(&mut self, additional: usize) {
        EventQueue::reserve(self, additional);
    }
    fn capacity(&self) -> usize {
        EventQueue::capacity(self)
    }
    fn pop_batch(&mut self, span: Duration, cap: Time, out: &mut Vec<(Time, E)>) -> usize {
        out.clear();
        let first = match EventQueue::peek_time(self) {
            Some(t) if t <= cap => t,
            _ => return 0,
        };
        let limit = cap.min(first.saturating_add(span));
        while EventQueue::peek_time(self).is_some_and(|t| t <= limit) {
            let e = EventQueue::pop(self).expect("peeked event pops");
            out.push((e.at, e.payload));
        }
        out.len()
    }
}

impl<E> FutureEventList<E> for CalendarQueue<E> {
    fn push(&mut self, at: Time, payload: E) {
        CalendarQueue::push(self, at, payload);
    }
    fn pop_next(&mut self) -> Option<(Time, E)> {
        CalendarQueue::pop(self).map(|e| (e.at, e.payload))
    }
    fn now(&self) -> Time {
        CalendarQueue::now(self)
    }
    fn len(&self) -> usize {
        CalendarQueue::len(self)
    }
    fn popped(&self) -> u64 {
        CalendarQueue::popped(self)
    }
    fn clear(&mut self) {
        CalendarQueue::clear(self);
    }
    fn reserve(&mut self, additional: usize) {
        CalendarQueue::reserve(self, additional);
    }
    fn capacity(&self) -> usize {
        CalendarQueue::capacity(self)
    }
    fn pop_batch(&mut self, span: Duration, cap: Time, out: &mut Vec<(Time, E)>) -> usize {
        CalendarQueue::drain_bucket(self, span, cap, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Duration;
    use proptest::prelude::*;

    /// A generic hold-model workload driven through the trait surface:
    /// push a resident set, repeatedly pop-and-reschedule, then drain.
    fn hold<Q: FutureEventList<usize>>(q: &mut Q, deltas: &[i64]) -> Vec<(i64, usize)> {
        q.clear();
        q.reserve(8);
        for i in 0..8 {
            q.push(Time::from_ps(i as i64), i);
        }
        let mut out = Vec::new();
        for &d in deltas {
            let (t, p) = q.pop_next().expect("resident set never empties");
            out.push((t.ps(), p));
            q.push(t + Duration::from_ps(d), p);
        }
        while let Some((t, p)) = q.pop_next() {
            out.push((t.ps(), p));
        }
        assert!(q.is_empty());
        out
    }

    #[test]
    fn trait_surface_consistent_across_impls() {
        let deltas: Vec<i64> = (0..200).map(|i| (i * 37) % 90).collect();
        let mut bin = EventQueue::new();
        let mut cal = CalendarQueue::for_profile(Duration::from_ps(90), 8);
        let expect = hold(&mut bin, &deltas);
        assert_eq!(hold(&mut cal, &deltas), expect);
        assert_eq!(FutureEventList::<usize>::popped(&bin), expect.len() as u64);
        assert_eq!(FutureEventList::<usize>::popped(&cal), expect.len() as u64);
    }

    /// Drive a queue through an interleaved push/batch workload,
    /// checking every `pop_batch` against scalar `pop_next` replay on a
    /// clone: same events in the same order, same `now`/`popped`/`len`
    /// accounting, and batch maximality (the next scalar pop lies
    /// beyond the batch limit). Returns the concatenated drain stream.
    fn hold_batched<Q: FutureEventList<usize> + Clone>(
        q: &mut Q,
        span: Duration,
        cap: Time,
        deltas: &[i64],
    ) -> Vec<(i64, usize)> {
        q.clear();
        for i in 0..8 {
            q.push(Time::from_ps(i as i64), i);
        }
        let mut out = Vec::new();
        let mut buf = Vec::new();
        let mut deltas = deltas.iter().copied();
        loop {
            let mut twin = q.clone();
            let n = q.pop_batch(span, cap, &mut buf);
            // Scalar replay on the twin must match event for event.
            for &(at, p) in &buf {
                assert_eq!(twin.pop_next(), Some((at, p)), "batch vs scalar order");
            }
            assert_eq!((q.now(), q.len()), (twin.now(), twin.len()));
            assert_eq!(
                FutureEventList::<usize>::popped(q),
                FutureEventList::<usize>::popped(&twin)
            );
            if n == 0 {
                // Empty, or the earliest event lies beyond `cap`.
                if let Some((t, _)) = twin.pop_next() {
                    assert!(t > cap, "zero batch must mean beyond-cap head");
                }
                break;
            }
            // Maximality: whatever pops next exceeds the batch limit.
            let limit = cap.min(buf[0].0.saturating_add(span));
            if let Some((t, _)) = twin.pop_next() {
                assert!(t > limit, "batch stopped early: {t:?} <= {limit:?}");
            }
            for (at, p) in buf.drain(..) {
                out.push((at.ps(), p));
                // Hold model: reschedule each drained event once until
                // the delta stream runs dry. Increments stay at or above
                // `span` — the batching contract: a batch is only safe
                // when nothing processed inside it can schedule back
                // into it (`at + span >= first + span >= last = now`).
                if let Some(d) = deltas.next() {
                    q.push(at + span + Duration::from_ps(d), p);
                }
            }
        }
        assert!(q.is_empty() || q.now() <= cap);
        out
    }

    #[test]
    fn batch_drain_matches_scalar_pops_across_impls_and_spans() {
        let deltas: Vec<i64> = (0..200).map(|i| (i * 37) % 90).collect();
        for span in [0i64, 1, 16, 90, 10_000] {
            let span = Duration::from_ps(span);
            let mut bin = EventQueue::new();
            let mut cal = CalendarQueue::for_profile(Duration::from_ps(90), 8);
            let expect = hold_batched(&mut bin, span, Time::MAX, &deltas);
            assert_eq!(hold_batched(&mut cal, span, Time::MAX, &deltas), expect);
            // Everything initially pushed or rescheduled was drained.
            assert_eq!(expect.len(), 8 + deltas.len());
        }
    }

    #[test]
    fn beyond_cap_heads_stay_pending() {
        let mut bin = EventQueue::new();
        let mut cal = CalendarQueue::for_profile(Duration::from_ps(50), 8);
        let cap = Time::from_ps(40);
        let expect = hold_batched(&mut bin, Duration::from_ps(25), cap, &[50, 50, 50]);
        assert_eq!(
            hold_batched(&mut cal, Duration::from_ps(25), cap, &[50, 50, 50]),
            expect
        );
        // Something was rescheduled past the cap and must still pend.
        assert!(!FutureEventList::<usize>::is_empty(&bin));
        assert_eq!(FutureEventList::<usize>::len(&bin), cal.len());
    }

    proptest! {
        // Shared CI case budget: pin 32 cases (= compat/proptest DEFAULT_CASES).
        #![proptest_config(ProptestConfig::with_cases(32))]
        /// The calendar pops like the binary heap under random
        /// bounded-increment interleavings, through the trait surface.
        #[test]
        fn prop_calendar_pops_like_the_heap(
            deltas in prop::collection::vec(0i64..120, 1..150),
        ) {
            let mut bin = EventQueue::new();
            let mut cal = CalendarQueue::for_profile(Duration::from_ps(120), 8);
            let expect = hold(&mut bin, &deltas);
            prop_assert_eq!(hold(&mut cal, &deltas), expect);
        }

        /// Batched draining under random spans and interleavings:
        /// `hold_batched` checks each batch against a scalar `pop_next`
        /// replay on a cloned twin internally, and the calendar's full
        /// drain stream must equal the binary heap's.
        #[test]
        fn prop_calendar_batches_like_the_heap(
            deltas in prop::collection::vec(0i64..120, 1..150),
            span in 0i64..200,
        ) {
            let span = Duration::from_ps(span);
            let mut bin = EventQueue::new();
            let mut cal = CalendarQueue::for_profile(Duration::from_ps(120), 8);
            let expect = hold_batched(&mut bin, span, Time::MAX, &deltas);
            prop_assert_eq!(hold_batched(&mut cal, span, Time::MAX, &deltas), expect);
        }
    }
}
