//! The deterministic event queue.
//!
//! Events are ordered by `(time, sequence)`: two events scheduled for
//! the same instant pop in the order they were pushed. This stability
//! is what makes whole-machine simulations bit-for-bit reproducible
//! regardless of how workload generators interleave their scheduling
//! calls.
//!
//! The queue is a `std::collections::BinaryHeap` whose entries order
//! by `(time, seq)` reversed, turning the standard max-heap into the
//! min-heap the clock needs. Sequence numbers are unique per queue,
//! so the order is total and never compares payloads.

use crate::time::Time;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// An event drawn from the queue.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduledEvent<E> {
    /// The instant the event fires.
    pub time: Time,
    /// Monotone insertion sequence number (unique per queue).
    pub seq: u64,
    /// The caller-defined payload.
    pub payload: E,
}

/// A heap entry: greatest means earliest `(time, seq)`.
struct Entry<E>(ScheduledEvent<E>);

impl<E> Entry<E> {
    fn key(&self) -> (Time, u64) {
        (self.0.time, self.0.seq)
    }
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        other.key().cmp(&self.key())
    }
}

/// A deterministic min-priority queue of timestamped events.
///
/// ```
/// use sioscope_sim::{EventQueue, Time};
///
/// let mut q = EventQueue::new();
/// q.schedule(Time::from_secs(2), "later");
/// q.schedule(Time::from_secs(1), "sooner");
/// assert_eq!(q.pop().unwrap().payload, "sooner");
/// assert_eq!(q.now(), Time::from_secs(1));
/// ```
///
/// The queue tracks the simulation clock: [`EventQueue::now`] is the
/// timestamp of the most recently popped event. Scheduling an event in
/// the past is a logic error and panics in debug builds; in release
/// builds the event is clamped to `now` so a slightly-stale cost model
/// cannot corrupt causality.
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
    now: Time,
    popped: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue with the clock at zero.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            now: Time::ZERO,
            popped: 0,
        }
    }

    /// Current simulation clock (time of the last popped event).
    #[inline]
    pub fn now(&self) -> Time {
        self.now
    }

    /// Number of events waiting in the queue.
    #[inline]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// `true` iff no events are pending.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Total number of events ever popped.
    #[inline]
    pub fn popped(&self) -> u64 {
        self.popped
    }

    /// Schedule `payload` to fire at `time`. Returns the sequence
    /// number, usable as a stable event identity.
    pub fn schedule(&mut self, time: Time, payload: E) -> u64 {
        debug_assert!(
            time >= self.now,
            "scheduled event at {time} before current clock {now}",
            now = self.now
        );
        let time = time.max(self.now);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry(ScheduledEvent { time, seq, payload }));
        seq
    }

    /// Schedule `payload` to fire `delay` after the current clock.
    pub fn schedule_after(&mut self, delay: Time, payload: E) -> u64 {
        let at = self.now + delay;
        self.schedule(at, payload)
    }

    /// Pop the earliest event and advance the clock to it.
    pub fn pop(&mut self) -> Option<ScheduledEvent<E>> {
        let Entry(ev) = self.heap.pop()?;
        debug_assert!(ev.time >= self.now, "event queue went backwards");
        self.now = ev.time;
        self.popped += 1;
        Some(ev)
    }

    /// Timestamp of the next pending event without popping it.
    pub fn peek_time(&self) -> Option<Time> {
        self.heap.peek().map(|e| e.0.time)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(Time::from_secs(3), "c");
        q.schedule(Time::from_secs(1), "a");
        q.schedule(Time::from_secs(2), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|e| e.payload).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        let t = Time::from_secs(1);
        for i in 0..100 {
            q.schedule(t, i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|e| e.payload).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_monotonically() {
        let mut q = EventQueue::new();
        q.schedule(Time::from_secs(5), ());
        q.schedule(Time::from_secs(2), ());
        assert_eq!(q.now(), Time::ZERO);
        q.pop();
        assert_eq!(q.now(), Time::from_secs(2));
        q.pop();
        assert_eq!(q.now(), Time::from_secs(5));
        assert_eq!(q.popped(), 2);
    }

    #[test]
    fn schedule_after_uses_clock() {
        let mut q = EventQueue::new();
        q.schedule(Time::from_secs(10), "first");
        q.pop();
        q.schedule_after(Time::from_secs(5), "second");
        let e = q.pop().unwrap();
        assert_eq!(e.time, Time::from_secs(15));
    }

    #[test]
    fn peek_does_not_advance() {
        let mut q = EventQueue::new();
        q.schedule(Time::from_secs(4), ());
        assert_eq!(q.peek_time(), Some(Time::from_secs(4)));
        assert_eq!(q.now(), Time::ZERO);
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    fn interleaved_push_pop_matches_reference_order() {
        // Deterministic pseudorandom interleaving checked against a
        // sort of the same (time, seq) pairs.
        let mut q = EventQueue::new();
        let mut state = 0x9E37_79B9u64;
        let mut step = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        let mut expected: Vec<(u64, u64)> = Vec::new();
        let mut got: Vec<(u64, u64)> = Vec::new();
        for _ in 0..500 {
            let n_push = step() % 4;
            for _ in 0..n_push {
                let t = q.now() + Time::from_nanos(step() % 1000);
                let seq = q.schedule(t, ());
                expected.push((t.as_nanos(), seq));
            }
            if step() % 3 == 0 {
                if let Some(e) = q.pop() {
                    got.push((e.time.as_nanos(), e.seq));
                }
            }
        }
        while let Some(e) = q.pop() {
            got.push((e.time.as_nanos(), e.seq));
        }
        expected.sort_unstable();
        assert_eq!(got, expected);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "before current clock")]
    fn scheduling_in_the_past_panics_in_debug() {
        let mut q = EventQueue::new();
        q.schedule(Time::from_secs(10), ());
        q.pop();
        q.schedule(Time::from_secs(1), ());
    }
}
