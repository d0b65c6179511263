//! A time-ordered event calendar shared by the simulation layers.
//!
//! The event-driven engine's fault plan and the management plane's
//! in-flight messages need the same primitive: schedule a value to fire at
//! an absolute slot number, then drain everything due at or before `now` in
//! deterministic order. [`EventCalendar`] wraps a binary heap keyed on
//! `(fire_at, insertion_seq)`, so simultaneous events pop in the order they
//! were scheduled — the FIFO-within-a-slot contract the management plane's
//! `same_slot_messages_fifo_by_seq` test pins.
//!
//! Cancellation is deliberately absent: every scheduled event fires, or the
//! whole calendar is cleared (a rolled-back exchange drops its in-flight
//! messages). That keeps `schedule` and `pop_due` at O(log n) with no
//! auxiliary index. The transport's retransmission timers, which an ACK
//! cancels, are not events here: each waiting exchange holds its own due
//! time, and a poll walks those exchanges in token order.

use crate::time::Asn;
use std::collections::BinaryHeap;

/// One scheduled wakeup: fires at `at`, ties broken by insertion order.
#[derive(Debug)]
struct Entry<T> {
    at: Asn,
    seq: u64,
    value: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<T> Eq for Entry<T> {}
impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reverse order: BinaryHeap is a max-heap, we want earliest first.
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// A min-heap of future wakeups ordered by `(fire_time, insertion_seq)`.
///
/// # Examples
///
/// ```
/// use tsch_sim::{Asn, EventCalendar};
///
/// let mut cal: EventCalendar<&str> = EventCalendar::new();
/// cal.schedule(Asn(5), "b");
/// cal.schedule(Asn(2), "a");
/// cal.schedule(Asn(5), "c");
/// assert_eq!(cal.pop_due(Asn(5)), Some((Asn(2), "a")));
/// assert_eq!(cal.pop_due(Asn(5)), Some((Asn(5), "b")));
/// assert_eq!(cal.pop_due(Asn(4)), None, "nothing else is due yet");
/// ```
#[derive(Debug)]
pub struct EventCalendar<T> {
    heap: BinaryHeap<Entry<T>>,
    seq: u64,
}

impl<T> Default for EventCalendar<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> EventCalendar<T> {
    /// An empty calendar.
    #[must_use]
    pub fn new() -> Self {
        Self {
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }

    /// An empty calendar with room for `capacity` events before it grows.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            heap: BinaryHeap::with_capacity(capacity),
            seq: 0,
        }
    }

    /// Registers `value` to fire at `at`. Events scheduled for the same
    /// instant fire in registration order.
    pub fn schedule(&mut self, at: Asn, value: T) {
        self.heap.push(Entry {
            at,
            seq: self.seq,
            value,
        });
        self.seq += 1;
    }

    /// Removes and returns the earliest event due at or before `now`, or
    /// `None` when the head (if any) is still in the future.
    pub fn pop_due(&mut self, now: Asn) -> Option<(Asn, T)> {
        if self.heap.peek()?.at > now {
            return None;
        }
        let entry = self.heap.pop().expect("peeked element exists");
        Some((entry.at, entry.value))
    }

    /// The earliest scheduled fire time, if any.
    #[must_use]
    pub(crate) fn next_fire(&self) -> Option<Asn> {
        self.heap.peek().map(|e| e.at)
    }

    /// Every scheduled event, in no particular order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (Asn, &T)> {
        self.heap.iter().map(|e| (e.at, &e.value))
    }

    /// Number of scheduled events (including stale, lazily deleted ones).
    #[must_use]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// `true` when no events are scheduled.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Drops every scheduled event. The insertion counter keeps running,
    /// so events scheduled after the clear still order after anything
    /// popped before it.
    pub fn clear(&mut self) {
        self.heap.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_then_insertion_order() {
        let mut cal = EventCalendar::new();
        cal.schedule(Asn(10), 'c');
        cal.schedule(Asn(3), 'a');
        cal.schedule(Asn(10), 'd');
        cal.schedule(Asn(3), 'b');
        let mut out = Vec::new();
        while let Some((at, v)) = cal.pop_due(Asn(100)) {
            out.push((at.0, v));
        }
        assert_eq!(out, vec![(3, 'a'), (3, 'b'), (10, 'c'), (10, 'd')]);
        assert!(cal.is_empty());
    }

    #[test]
    fn future_events_stay_put() {
        let mut cal = EventCalendar::new();
        cal.schedule(Asn(7), ());
        assert_eq!(cal.next_fire(), Some(Asn(7)));
        assert_eq!(cal.pop_due(Asn(6)), None);
        assert_eq!(cal.len(), 1);
        assert_eq!(cal.pop_due(Asn(7)), Some((Asn(7), ())));
    }

    #[test]
    fn clear_preserves_ordering_across_generations() {
        let mut cal = EventCalendar::new();
        cal.schedule(Asn(5), 1u32);
        cal.clear();
        assert!(cal.is_empty());
        cal.schedule(Asn(5), 2u32);
        cal.schedule(Asn(5), 3u32);
        assert_eq!(cal.pop_due(Asn(5)), Some((Asn(5), 2)));
        assert_eq!(cal.pop_due(Asn(5)), Some((Asn(5), 3)));
    }
}
