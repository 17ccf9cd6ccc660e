//! Future event list with deterministic tie-breaking.
//!
//! The queue is a min-heap keyed by `(time, sequence)`. The sequence number
//! is assigned at push time, so events scheduled for the same picosecond pop
//! in FIFO order. This is what makes whole simulations bit-reproducible:
//! given the same configuration and seed, the event interleaving is
//! identical on every platform.
//!
//! Queues are reusable across runs: [`EventQueue::clear`] resets the
//! logical state (sequence counter, clock, pop count) while keeping the
//! heap's capacity, so a batch of simulations can amortize its event-list
//! allocation — a cleared queue is observationally identical to a fresh
//! one:
//!
//! ```
//! use hex_des::{EventQueue, Time};
//!
//! let mut q = EventQueue::with_capacity(64);
//! q.push(Time::from_ps(10), "first run");
//! q.pop();
//!
//! let cap = q.capacity();
//! q.clear(); // back to the fresh state, capacity retained
//! assert!(q.is_empty());
//! assert_eq!(q.now(), Time::MIN);
//! assert_eq!(q.popped(), 0);
//! assert!(q.capacity() >= cap.min(64));
//!
//! // Scheduling "into the past" of the previous run is legal again.
//! q.push(Time::from_ps(1), "second run");
//! assert_eq!(q.pop().unwrap().payload, "second run");
//! ```

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::Time;

/// An event of payload type `E` scheduled for a given instant.
#[derive(Debug, Clone)]
pub struct QueuedEvent<E> {
    /// The instant at which the event fires.
    pub at: Time,
    /// Push-order sequence number; the FIFO tie-breaker.
    pub seq: u64,
    /// The simulator-specific payload.
    pub payload: E,
}

impl<E> PartialEq for QueuedEvent<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
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
        // Reversed: BinaryHeap is a max-heap, we want the earliest event on
        // top. Ties broken by sequence number (earlier push pops first).
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A deterministic future event list.
///
/// ```
/// use hex_des::{EventQueue, Time};
///
/// let mut q = EventQueue::new();
/// q.push(Time::from_ps(20), "b");
/// q.push(Time::from_ps(10), "a");
/// q.push(Time::from_ps(20), "c"); // same instant as "b", pushed later
///
/// assert_eq!(q.pop().unwrap().payload, "a");
/// assert_eq!(q.pop().unwrap().payload, "b");
/// assert_eq!(q.pop().unwrap().payload, "c");
/// assert!(q.pop().is_none());
/// ```
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    heap: BinaryHeap<QueuedEvent<E>>,
    next_seq: u64,
    /// Time of the most recently popped event; enforces monotonicity.
    now: Time,
    popped: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Create an empty queue positioned at `Time::MIN`.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            now: Time::MIN,
            popped: 0,
        }
    }

    /// Create an empty queue with pre-allocated capacity.
    pub fn with_capacity(cap: usize) -> Self {
        EventQueue {
            heap: BinaryHeap::with_capacity(cap),
            next_seq: 0,
            now: Time::MIN,
            popped: 0,
        }
    }

    /// Reset to the fresh state — no pending events, sequence counter at 0,
    /// clock at `Time::MIN`, pop count at 0 — while keeping the heap's
    /// allocated capacity. A cleared queue behaves identically to one from
    /// [`EventQueue::new`], so simulation runs can recycle a single queue
    /// without affecting determinism.
    pub fn clear(&mut self) {
        self.heap.clear();
        self.next_seq = 0;
        self.now = Time::MIN;
        self.popped = 0;
    }

    /// Number of events the queue can hold without reallocating.
    pub fn capacity(&self) -> usize {
        self.heap.capacity()
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
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(QueuedEvent { at, seq, payload });
    }

    /// Remove and return the earliest event, advancing simulated time.
    pub fn pop(&mut self) -> Option<QueuedEvent<E>> {
        let ev = self.heap.pop()?;
        // Pop-time monotonicity: simulated time never runs backwards.
        // `push` already rejects past scheduling, so a violation here
        // means the heap order itself is corrupt.
        debug_assert!(
            ev.at >= self.now,
            "pop-time monotonicity violated: popped {:?} behind now {:?}",
            ev.at,
            self.now
        );
        self.now = ev.at;
        self.popped += 1;
        Some(ev)
    }

    /// Current simulated time (time of the last popped event).
    pub fn now(&self) -> Time {
        self.now
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True iff no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Total number of events popped so far (simulation work metric).
    pub fn popped(&self) -> u64 {
        self.popped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Duration;
    use proptest::prelude::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        for &t in &[5i64, 1, 9, 3, 7] {
            q.push(Time::from_ps(t), t);
        }
        let order: Vec<i64> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
        assert_eq!(order, vec![1, 3, 5, 7, 9]);
    }

    #[test]
    fn fifo_on_ties() {
        let mut q = EventQueue::new();
        q.push(Time::ZERO, 1);
        q.push(Time::ZERO, 2);
        q.push(Time::ZERO, 3);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "scheduled into the past")]
    fn rejects_past_events() {
        let mut q = EventQueue::new();
        q.push(Time::from_ps(10), ());
        q.pop();
        q.push(Time::from_ps(9), ());
    }

    #[test]
    fn allows_event_at_now() {
        // Zero-delay re-scheduling (e.g. stuck-at-1 links re-setting a memory
        // flag at the instant it was cleared) must be legal.
        let mut q = EventQueue::new();
        q.push(Time::from_ps(10), "a");
        let e = q.pop().unwrap();
        q.push(e.at, "b");
        assert_eq!(q.pop().unwrap().payload, "b");
    }

    #[test]
    fn clear_restores_the_fresh_state() {
        let mut dirty = EventQueue::new();
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
        let mut fresh = EventQueue::new();
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
    fn now_tracks_last_pop() {
        let mut q = EventQueue::new();
        q.push(Time::from_ps(3), ());
        q.push(Time::from_ps(8), ());
        q.pop();
        assert_eq!(q.now(), Time::from_ps(3));
        q.pop();
        assert_eq!(q.now(), Time::from_ps(8));
        assert_eq!(q.popped(), 2);
    }

    #[test]
    fn interleaved_push_pop_keeps_order() {
        let mut q = EventQueue::new();
        q.push(Time::from_ps(1), 1);
        q.push(Time::from_ps(4), 4);
        assert_eq!(q.pop().unwrap().payload, 1);
        // Schedule between now and the pending event.
        q.push(Time::from_ps(2), 2);
        q.push(Time::from_ps(3), 3);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
        assert_eq!(order, vec![2, 3, 4]);
    }

    proptest! {
        // Shared CI case budget: pin 32 cases (= compat/proptest DEFAULT_CASES).
        #![proptest_config(ProptestConfig::with_cases(32))]
        /// Popping always yields a (time, seq)-nondecreasing sequence and
        /// returns every pushed payload exactly once.
        #[test]
        fn prop_total_order_and_conservation(times in prop::collection::vec(0i64..1_000, 1..200)) {
            let mut q = EventQueue::new();
            for (i, &t) in times.iter().enumerate() {
                q.push(Time::from_ps(t), i);
            }
            let mut seen = vec![false; times.len()];
            let mut last = (Time::MIN, 0u64);
            while let Some(e) = q.pop() {
                prop_assert!((e.at, e.seq) > last || last == (Time::MIN, 0));
                prop_assert!(e.at >= last.0);
                last = (e.at, e.seq);
                prop_assert!(!seen[e.payload]);
                seen[e.payload] = true;
            }
            prop_assert!(seen.iter().all(|&s| s));
        }

        /// Same-time events pop in push order.
        #[test]
        fn prop_fifo_ties(n in 1usize..100) {
            let mut q = EventQueue::new();
            for i in 0..n {
                q.push(Time::from_ps(7), i);
            }
            for i in 0..n {
                prop_assert_eq!(q.pop().unwrap().payload, i);
            }
        }

        /// now() is monotone under arbitrary interleavings of push/pop where
        /// pushes respect the past-rejection rule.
        #[test]
        fn prop_now_monotone(deltas in prop::collection::vec(0i64..50, 1..100)) {
            let mut q = EventQueue::new();
            q.push(Time::ZERO, ());
            let mut prev = Time::MIN;
            for &d in &deltas {
                if let Some(e) = q.pop() {
                    prop_assert!(e.at >= prev);
                    prev = e.at;
                    q.push(e.at + Duration::from_ps(d), ());
                }
            }
        }
    }
}
