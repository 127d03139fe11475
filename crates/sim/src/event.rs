//! A deterministic, generic event queue.
//!
//! [`EventQueue`] is a min-heap keyed on `(SimTime, sequence)`. The sequence
//! counter breaks ties between events scheduled for the same instant in
//! insertion order, which makes simulation runs bit-for-bit reproducible —
//! `BinaryHeap` alone gives no stable order for equal keys.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A pending event: its due time, a tie-breaking sequence number, and the
/// caller's payload.
#[derive(Debug, Clone, Copy)]
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
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse: BinaryHeap is a max-heap, we want the earliest event first.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A deterministic future-event list.
///
/// Events pop in nondecreasing time order; events scheduled for the same
/// instant pop in the order they were scheduled.
///
/// Cloning the queue (payloads permitting) clones the heap *and* the
/// sequence/flow counters, so a clone pops the identical event stream —
/// the property the snapshot/rollback machinery in `gfaas-snap` relies
/// on.
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
    scheduled: u64,
    delivered: u64,
}

impl<E: Clone> Clone for EventQueue<E> {
    fn clone(&self) -> Self {
        EventQueue {
            heap: self.heap.clone(),
            next_seq: self.next_seq,
            scheduled: self.scheduled,
            delivered: self.delivered,
        }
    }

    /// Copies `src` into this queue's existing heap buffer — how a
    /// snapshot pin saves the pending events without allocating.
    fn clone_from(&mut self, src: &Self) {
        self.heap.clone_from(&src.heap);
        self.next_seq = src.next_seq;
        self.scheduled = src.scheduled;
        self.delivered = src.delivered;
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            scheduled: 0,
            delivered: 0,
        }
    }

    /// Creates an empty queue with room for `cap` pending events.
    pub fn with_capacity(cap: usize) -> Self {
        EventQueue {
            heap: BinaryHeap::with_capacity(cap),
            next_seq: 0,
            scheduled: 0,
            delivered: 0,
        }
    }

    /// Schedules `payload` to fire at `time`.
    pub fn schedule(&mut self, time: SimTime, payload: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.scheduled += 1;
        self.heap.push(Entry { time, seq, payload });
    }

    /// Removes and returns the earliest pending event, if any.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.heap.pop().map(|e| {
            self.delivered += 1;
            (e.time, e.payload)
        })
    }

    /// The due time of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.time)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True iff no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Total events ever scheduled.
    pub fn total_scheduled(&self) -> u64 {
        self.scheduled
    }

    /// Total events ever delivered by [`EventQueue::pop`].
    pub fn total_delivered(&self) -> u64 {
        self.delivered
    }

    /// Drops all pending events.
    pub fn clear(&mut self) {
        self.heap.clear();
    }

    /// The next sequence number a [`EventQueue::schedule`] would assign —
    /// part of the queue's raw state for checkpointing.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// The pending events in pop order (`(time, seq, payload)`), without
    /// disturbing the queue. This is the canonical serial form for
    /// checkpoints: rebuilding via [`EventQueue::from_parts`] pops the
    /// identical stream because the heap order is total on `(time, seq)`.
    pub fn entries(&self) -> Vec<(SimTime, u64, &E)> {
        let mut out: Vec<_> = self
            .heap
            .iter()
            .map(|e| (e.time, e.seq, &e.payload))
            .collect();
        out.sort_by_key(|&(time, seq, _)| (time, seq));
        out
    }

    /// Rebuilds a queue from its serial form: pending entries with their
    /// original sequence numbers, plus the raw counters. The inverse of
    /// [`EventQueue::entries`] + the counter accessors.
    pub fn from_parts(
        entries: Vec<(SimTime, u64, E)>,
        next_seq: u64,
        scheduled: u64,
        delivered: u64,
    ) -> Self {
        let heap = entries
            .into_iter()
            .map(|(time, seq, payload)| Entry { time, seq, payload })
            .collect();
        EventQueue {
            heap,
            next_seq,
            scheduled,
            delivered,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(t(3), 'c');
        q.schedule(t(1), 'a');
        q.schedule(t(2), 'b');
        let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!['a', 'b', 'c']);
    }

    #[test]
    fn fifo_within_same_instant() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(t(7), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn interleaved_schedule_and_pop_is_stable() {
        let mut q = EventQueue::new();
        q.schedule(t(5), "late");
        q.schedule(t(1), "early");
        assert_eq!(q.pop().unwrap().1, "early");
        q.schedule(t(2), "mid");
        assert_eq!(q.pop().unwrap().1, "mid");
        assert_eq!(q.pop().unwrap().1, "late");
        assert!(q.pop().is_none());
    }

    #[test]
    fn counters_track_flow() {
        let mut q = EventQueue::new();
        q.schedule(t(1), ());
        q.schedule(t(2), ());
        q.pop();
        assert_eq!(q.total_scheduled(), 2);
        assert_eq!(q.total_delivered(), 1);
        assert_eq!(q.len(), 1);
        q.clear();
        assert!(q.is_empty());
    }

    #[test]
    fn clone_and_from_parts_pop_the_identical_stream() {
        let mut q = EventQueue::new();
        q.schedule(t(3), 'c');
        q.schedule(t(1), 'a');
        q.schedule(t(1), 'b');
        q.pop();

        let cloned = q.clone();
        let rebuilt = EventQueue::from_parts(
            q.entries()
                .into_iter()
                .map(|(time, seq, p)| (time, seq, *p))
                .collect(),
            q.next_seq(),
            q.total_scheduled(),
            q.total_delivered(),
        );
        for mut alt in [cloned, rebuilt] {
            assert_eq!(alt.next_seq(), q.next_seq());
            assert_eq!(alt.total_scheduled(), 3);
            assert_eq!(alt.total_delivered(), 1);
            // Further scheduling interleaves identically with what's left.
            alt.schedule(t(1), 'z');
            let order: Vec<char> = std::iter::from_fn(|| alt.pop().map(|(_, e)| e)).collect();
            assert_eq!(order, vec!['b', 'z', 'c']);
        }
    }

    #[test]
    fn peek_time_matches_next_pop() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        q.schedule(SimTime::ZERO + SimDuration::from_millis(1500), 1);
        q.schedule(SimTime::ZERO + SimDuration::from_millis(500), 2);
        assert_eq!(
            q.peek_time(),
            Some(SimTime::ZERO + SimDuration::from_millis(500))
        );
        let (pt, _) = q.pop().unwrap();
        assert_eq!(pt, SimTime::ZERO + SimDuration::from_millis(500));
    }
}
