//! Structured event tracing for simulation runs.
//!
//! A [`TraceBuffer`] records the interesting events of a run — transmission
//! outcomes, deliveries, drops — in a bounded [`Ring`], cheap enough to
//! leave enabled. Experiments use it to explain *why* a latency spike
//! happened (which link collided, where a packet was dropped) rather than
//! just observing that it did.

use crate::time::{Asn, Cell};
use crate::topology::Link;
use core::fmt;
use harp_obs::Ring;

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
    pub fn is_failure(&self) -> bool {
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

/// A bounded ring of trace events (capacity 0 records nothing).
///
/// # Examples
///
/// ```
/// use tsch_sim::{Asn, Cell, Link, NodeId, TraceBuffer, TraceEvent};
///
/// let mut trace = TraceBuffer::new(4);
/// trace.push(TraceEvent::TxOk {
///     at: Asn(3),
///     link: Link::up(NodeId(1)),
///     cell: Cell::new(3, 0),
/// });
/// assert_eq!(trace.len(), 1);
/// assert_eq!(trace.iter().filter(|e| e.is_failure()).count(), 0);
/// ```
pub type TraceBuffer = Ring<TraceEvent>;

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
    fn failure_filter() {
        let mut t = TraceBuffer::new(10);
        t.push(ok(0, 1));
        t.push(TraceEvent::TxCollision {
            at: Asn(1),
            link: Link::up(NodeId(2)),
            cell: Cell::new(1, 0),
        });
        t.push(TraceEvent::Drop {
            at: Asn(2),
            link: Link::up(NodeId(2)),
        });
        let failures: Vec<u64> = t
            .iter()
            .filter(|e| e.is_failure())
            .map(|e| e.at().0)
            .collect();
        assert_eq!(failures, [1, 2]);
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
