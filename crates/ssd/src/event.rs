//! The discrete event queue.
//!
//! A binary heap of `(time, sequence, payload)` — the sequence number makes
//! ordering total and deterministic for simultaneous events — plus one
//! slot beside the heap for an event kind of which at most one is pending
//! at a time (the simulator's next arrival). Slot and heap draw their
//! sequence numbers from one counter, so pops follow `(time, sequence)`
//! across both, and a slot event costs no heap push or pop.

use ida_flash::timing::SimTime;
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

/// A timestamped event carrying payload `E`.
#[derive(Debug, Clone)]
struct Timed<E> {
    at: SimTime,
    seq: u64,
    payload: E,
}

impl<E> PartialEq for Timed<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Timed<E> {}
impl<E> PartialOrd for Timed<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Timed<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// Deterministic discrete-event queue.
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Reverse<Timed<E>>>,
    /// The pending [`EventQueue::push_slot`] event, if any.
    slot: Option<Timed<E>>,
    next_seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            slot: None,
            next_seq: 0,
        }
    }
}

impl<E> EventQueue<E> {
    /// An empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    fn timed(&mut self, at: SimTime, payload: E) -> Timed<E> {
        let seq = self.next_seq;
        self.next_seq += 1;
        Timed { at, seq, payload }
    }

    /// Schedule `payload` at absolute time `at`.
    pub fn push(&mut self, at: SimTime, payload: E) {
        let timed = self.timed(at, payload);
        self.heap.push(Reverse(timed));
    }

    /// Schedule `payload` at absolute time `at` in the slot beside the
    /// heap. It pops exactly where [`EventQueue::push`] would have put it.
    ///
    /// # Panics
    ///
    /// Panics if the slot already holds an event.
    pub(crate) fn push_slot(&mut self, at: SimTime, payload: E) {
        assert!(self.slot.is_none(), "the event slot is already taken");
        self.slot = Some(self.timed(at, payload));
    }

    /// Pop the earliest event.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let slot_first = match (&self.slot, self.heap.peek()) {
            (Some(s), Some(Reverse(h))) => s < h,
            (slot, _) => slot.is_some(),
        };
        let t = if slot_first {
            self.slot.take()
        } else {
            self.heap.pop().map(|Reverse(t)| t)
        };
        t.map(|t| (t.at, t.payload))
    }

    /// Time of the earliest pending event.
    pub fn next_time(&self) -> Option<SimTime> {
        let heap = self.heap.peek().map(|Reverse(t)| t.at);
        match (self.slot.as_ref().map(|t| t.at), heap) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len() + usize::from(self.slot.is_some())
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty() && self.slot.is_none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(30, "c");
        q.push(10, "a");
        q.push(20, "b");
        assert_eq!(q.pop(), Some((10, "a")));
        assert_eq!(q.pop(), Some((20, "b")));
        assert_eq!(q.pop(), Some((30, "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        q.push(5, 1);
        q.push(5, 2);
        q.push(5, 3);
        assert_eq!(q.pop(), Some((5, 1)));
        assert_eq!(q.pop(), Some((5, 2)));
        assert_eq!(q.pop(), Some((5, 3)));
    }

    #[test]
    fn next_time_peeks_without_popping() {
        let mut q = EventQueue::new();
        assert_eq!(q.next_time(), None);
        q.push(42, ());
        assert_eq!(q.next_time(), Some(42));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
        q.push_slot(7, ());
        assert_eq!(q.next_time(), Some(7));
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn slot_and_heap_events_at_one_instant_pop_in_push_order() {
        let mut q = EventQueue::new();
        q.push(5, "heap 1");
        q.push_slot(5, "slot 1");
        q.push(5, "heap 2");
        q.push(4, "earlier");
        assert_eq!(q.pop(), Some((4, "earlier")));
        assert_eq!(q.pop(), Some((5, "heap 1")));
        assert_eq!(q.pop(), Some((5, "slot 1")));
        // The slot is free again once its event pops.
        q.push_slot(5, "slot 2");
        q.push(6, "later");
        assert_eq!(q.pop(), Some((5, "heap 2")));
        assert_eq!(q.pop(), Some((5, "slot 2")));
        assert_eq!(q.pop(), Some((6, "later")));
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
    }

    #[test]
    #[should_panic(expected = "slot is already taken")]
    fn a_second_slot_event_is_rejected() {
        let mut q = EventQueue::new();
        q.push_slot(1, ());
        q.push_slot(2, ());
    }
}
