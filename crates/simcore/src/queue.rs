//! Deterministic event queue.
//!
//! A binary heap keyed by `(time, sequence)` — the sequence number
//! breaks ties in insertion order so that two events scheduled for the
//! same instant always fire in the order they were scheduled,
//! independent of heap internals. This is what makes a run with a
//! fixed seed bit-reproducible.

use crate::time::Nanos;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// An event of user-defined type `E` scheduled for a point in time.
#[derive(Debug)]
pub struct Scheduled<E> {
    pub at: Nanos,
    seq: u64,
    pub event: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Scheduled<E> {}
impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest
        // (and, within a tie, the first-scheduled) event on top.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Priority queue of simulation events.
pub struct EventQueue<E> {
    heap: BinaryHeap<Scheduled<E>>,
    next_seq: u64,
    now: Nanos,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    #[must_use]
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            now: Nanos::ZERO,
        }
    }

    /// Current virtual time: the timestamp of the most recently popped
    /// event (monotonically non-decreasing).
    #[must_use]
    pub fn now(&self) -> Nanos {
        self.now
    }

    /// Schedule `event` at absolute time `at`. Scheduling in the past
    /// is clamped to `now` (the event fires "immediately"), which keeps
    /// causality: time never runs backwards.
    pub fn schedule(&mut self, at: Nanos, event: E) {
        let at = at.max(self.now);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Scheduled { at, seq, event });
    }

    /// Pop the next event, advancing `now` to its timestamp.
    pub fn pop(&mut self) -> Option<Scheduled<E>> {
        let ev = self.heap.pop()?;
        debug_assert!(ev.at >= self.now, "event queue time went backwards");
        self.now = ev.at;
        Some(ev)
    }

    #[must_use]
    pub fn len(&self) -> usize {
        self.heap.len()
    }
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(Nanos::from_micros(5), "c");
        q.schedule(Nanos::from_micros(1), "a");
        q.schedule(Nanos::from_micros(3), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|e| e.event)).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(Nanos::from_micros(7), i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|e| e.event)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn now_advances_monotonically() {
        let mut q = EventQueue::new();
        q.schedule(Nanos::from_micros(10), ());
        q.pop();
        assert_eq!(q.now(), Nanos::from_micros(10));
        // Scheduling in the past clamps to now.
        q.schedule(Nanos::from_micros(2), ());
        let e = q.pop().unwrap();
        assert_eq!(e.at, Nanos::from_micros(10));
    }
}
