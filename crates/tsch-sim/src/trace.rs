//! Structured event tracing for simulation runs.
//!
//! A [`TraceBuffer`] records the interesting events of a run — transmission
//! outcomes, deliveries, drops — in a bounded ring buffer, cheap enough to
//! leave enabled. Experiments use it to explain *why* a latency spike
//! happened (which link collided, where a packet was dropped) rather than
//! just observing that it did.

use crate::time::{Asn, Cell};
use crate::topology::Link;
use core::fmt;
use std::collections::VecDeque;

/// One traced event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// A transmission succeeded on `link` in `cell`.
    TxOk {
        /// When it happened.
        at: Asn,
        /// The transmitting link.
        link: Link,
        /// The cell used.
        cell: Cell,
    },
    /// A transmission failed due to interference.
    TxCollision {
        /// When it happened.
        at: Asn,
        /// The transmitting link.
        link: Link,
        /// The cell used.
        cell: Cell,
    },
    /// A transmission failed due to the radio loss process.
    TxLoss {
        /// When it happened.
        at: Asn,
        /// The transmitting link.
        link: Link,
        /// The cell used.
        cell: Cell,
    },
    /// A packet was dropped (queue overflow or retry exhaustion).
    Drop {
        /// When it happened.
        at: Asn,
        /// The link whose queue dropped the packet.
        link: Link,
    },
}

impl TraceEvent {
    /// When the event happened.
    #[must_use]
    pub fn at(&self) -> Asn {
        match self {
            TraceEvent::TxOk { at, .. }
            | TraceEvent::TxCollision { at, .. }
            | TraceEvent::TxLoss { at, .. }
            | TraceEvent::Drop { at, .. } => *at,
        }
    }

    /// The link involved.
    #[must_use]
    pub fn link(&self) -> Link {
        match self {
            TraceEvent::TxOk { link, .. }
            | TraceEvent::TxCollision { link, .. }
            | TraceEvent::TxLoss { link, .. }
            | TraceEvent::Drop { link, .. } => *link,
        }
    }

    /// Returns `true` for failure events (collision, loss, drop).
    #[must_use]
    pub(crate) fn is_failure(&self) -> bool {
        !matches!(self, TraceEvent::TxOk { .. })
    }
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceEvent::TxOk { at, link, cell } => write!(f, "{at} {link} TX ok {cell}"),
            TraceEvent::TxCollision { at, link, cell } => {
                write!(f, "{at} {link} TX collision {cell}")
            }
            TraceEvent::TxLoss { at, link, cell } => write!(f, "{at} {link} TX loss {cell}"),
            TraceEvent::Drop { at, link } => write!(f, "{at} {link} packet dropped"),
        }
    }
}

/// A bounded ring buffer of trace events.
///
/// # Examples
///
/// ```
/// use tsch_sim::{Asn, Cell, Link, NodeId, TraceBuffer, TraceEvent};
///
/// let mut trace = TraceBuffer::new(4);
/// trace.record(TraceEvent::TxOk {
///     at: Asn(3),
///     link: Link::up(NodeId(1)),
///     cell: Cell::new(3, 0),
/// });
/// assert_eq!(trace.len(), 1);
/// assert_eq!(trace.failures().count(), 0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct TraceBuffer {
    events: VecDeque<TraceEvent>,
    capacity: usize,
    total_recorded: u64,
}

impl TraceBuffer {
    /// Creates a buffer keeping the most recent `capacity` events. A zero
    /// capacity disables recording entirely.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Self {
            events: VecDeque::with_capacity(capacity.min(4096)),
            capacity,
            total_recorded: 0,
        }
    }

    /// Records one event, evicting the oldest if full.
    pub fn record(&mut self, event: TraceEvent) {
        if self.capacity == 0 {
            return;
        }
        if self.events.len() == self.capacity {
            self.events.pop_front();
        }
        self.events.push_back(event);
        self.total_recorded += 1;
    }

    /// The retained events, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter()
    }

    /// Only the failure events (collisions, losses, drops).
    pub fn failures(&self) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter().filter(|e| e.is_failure())
    }

    /// Number of retained events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Returns `true` if nothing is retained.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Total events ever recorded (including evicted ones).
    #[must_use]
    pub fn total_recorded(&self) -> u64 {
        self.total_recorded
    }

    /// Clears the retained events (the total counter keeps counting).
    pub fn clear(&mut self) {
        self.events.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::NodeId;

    fn ok(at: u64, node: u32) -> TraceEvent {
        TraceEvent::TxOk {
            at: Asn(at),
            link: Link::up(NodeId(node)),
            cell: Cell::new(0, 0),
        }
    }

    #[test]
    fn ring_buffer_evicts_oldest() {
        let mut t = TraceBuffer::new(3);
        for i in 0..5 {
            t.record(ok(i, 1));
        }
        assert_eq!(t.len(), 3);
        assert_eq!(t.total_recorded(), 5);
        let ats: Vec<u64> = t.iter().map(|e| e.at().0).collect();
        assert_eq!(ats, vec![2, 3, 4]);
    }

    #[test]
    fn zero_capacity_disables() {
        let mut t = TraceBuffer::new(0);
        t.record(ok(0, 1));
        assert!(t.is_empty());
        assert_eq!(t.total_recorded(), 0);
    }

    #[test]
    fn failure_filter() {
        let mut t = TraceBuffer::new(10);
        t.record(ok(0, 1));
        t.record(TraceEvent::TxCollision {
            at: Asn(1),
            link: Link::up(NodeId(2)),
            cell: Cell::new(1, 0),
        });
        t.record(TraceEvent::Drop {
            at: Asn(2),
            link: Link::up(NodeId(2)),
        });
        assert_eq!(t.failures().count(), 2);
        assert!(t.failures().all(TraceEvent::is_failure));
    }

    #[test]
    fn clear_keeps_total() {
        let mut t = TraceBuffer::new(4);
        t.record(ok(0, 1));
        t.clear();
        assert!(t.is_empty());
        assert_eq!(t.total_recorded(), 1);
    }

    #[test]
    fn display_formats() {
        let e = TraceEvent::TxLoss {
            at: Asn(9),
            link: Link::down(NodeId(3)),
            cell: Cell::new(2, 1),
        };
        assert_eq!(e.to_string(), "ASN 9 N3:down TX loss (s2, ch1)");
    }
}
