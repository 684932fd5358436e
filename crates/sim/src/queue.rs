//! Time-ordered event queue.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::SimTime;

/// A deterministic, time-ordered event queue.
///
/// * Events fire in nondecreasing time order.
/// * Events scheduled for the **same** timestamp fire in the order they were
///   scheduled (stable FIFO) — crucial for reproducibility, since hash-order
///   or heap-order ties would make runs non-deterministic.
///
/// The payload type `E` is chosen by the system crate driving the queue;
/// this kernel imposes no actor or component model.
///
/// ```
/// use mcn_sim::{EventQueue, SimTime};
/// let mut q = EventQueue::new();
/// q.schedule(SimTime::from_ns(2), "b");
/// q.schedule(SimTime::from_ns(1), "a");
/// q.schedule(SimTime::from_ns(2), "c"); // same time as "b": FIFO
/// let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
/// assert_eq!(order, ["a", "b", "c"]);
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Reverse<Entry<E>>>,
    next_seq: u64,
    now: SimTime,
    popped: u64,
}

#[derive(Debug)]
struct Entry<E> {
    time: SimTime,
    seq: u64,
    payload: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.time.cmp(&other.time).then(self.seq.cmp(&other.seq))
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue positioned at time zero.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            now: SimTime::ZERO,
            popped: 0,
        }
    }

    /// The timestamp of the most recently popped event (time zero before the
    /// first pop). The simulation's notion of "now".
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total number of events delivered so far.
    #[inline]
    pub fn delivered(&self) -> u64 {
        self.popped
    }

    /// Schedules `payload` to fire at absolute time `time`.
    ///
    /// # Panics
    ///
    /// Panics if `time` is earlier than [`now`](Self::now): scheduling into
    /// the past is always a model bug and silently reordering it would
    /// corrupt causality.
    pub fn schedule(&mut self, time: SimTime, payload: E) {
        assert!(
            time >= self.now,
            "event scheduled in the past: {} < now {}",
            time,
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Reverse(Entry { time, seq, payload }));
    }

    /// Schedules `payload` to fire `delay` after [`now`](Self::now).
    pub fn schedule_in(&mut self, delay: SimTime, payload: E) {
        self.schedule(self.now + delay, payload);
    }

    /// Removes and returns the next event `(time, payload)`, advancing
    /// [`now`](Self::now) to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let Reverse(entry) = self.heap.pop()?;
        self.now = entry.time;
        self.popped += 1;
        Some((entry.time, entry.payload))
    }

    /// Pops the next event only if it is due at or before `deadline`.
    /// The standard shape of every drain loop
    /// (`while let Some((t, e)) = q.pop_if_due(now) { … }`) without the
    /// separate peek/pop dance.
    pub fn pop_if_due(&mut self, deadline: SimTime) -> Option<(SimTime, E)> {
        if self.peek_time()? <= deadline {
            self.pop()
        } else {
            None
        }
    }

    /// The timestamp of the next event without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|Reverse(entry)| entry.time)
    }

    /// Number of events still queued.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// `true` when no events remain.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_ns(30), 3);
        q.schedule(SimTime::from_ns(10), 1);
        q.schedule(SimTime::from_ns(20), 2);
        assert_eq!(q.pop(), Some((SimTime::from_ns(10), 1)));
        assert_eq!(q.pop(), Some((SimTime::from_ns(20), 2)));
        assert_eq!(q.pop(), Some((SimTime::from_ns(30), 3)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn pop_if_due_respects_the_deadline() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_ns(10), 1);
        q.schedule(SimTime::from_ns(30), 3);
        assert_eq!(q.pop_if_due(SimTime::from_ns(5)), None);
        assert_eq!(q.pop_if_due(SimTime::from_ns(10)), Some((SimTime::from_ns(10), 1)));
        assert_eq!(q.pop_if_due(SimTime::from_ns(20)), None, "future events stay queued");
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop_if_due(SimTime::MAX), Some((SimTime::from_ns(30), 3)));
        assert_eq!(q.pop_if_due(SimTime::MAX), None);
    }

    #[test]
    fn fifo_tiebreak_at_equal_times() {
        let mut q = EventQueue::new();
        let t = SimTime::from_ns(5);
        for i in 0..100 {
            q.schedule(t, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop().unwrap().1, i);
        }
    }

    #[test]
    fn now_advances_and_schedule_in() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_ns(10), "a");
        q.pop();
        assert_eq!(q.now(), SimTime::from_ns(10));
        q.schedule_in(SimTime::from_ns(5), "b");
        assert_eq!(q.pop(), Some((SimTime::from_ns(15), "b")));
        assert_eq!(q.delivered(), 2);
    }

    #[test]
    #[should_panic(expected = "scheduled in the past")]
    fn scheduling_in_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_ns(10), ());
        q.pop();
        q.schedule(SimTime::from_ns(5), ());
    }
}
