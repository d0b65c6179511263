//! Management plane: one-hop delivery of network-management messages over
//! dedicated management cells.
//!
//! In the paper's testbed (§VI-A) every node joining the network is given
//! two collision-free cells in the Management sub-frame — one uplink, one
//! downlink — and all HARP messages (Table I) travel in those cells. The
//! consequence is the latency model reproduced here: a message from a node
//! to a one-hop neighbour departs at the sender's next management cell for
//! that direction, i.e. each hop costs up to one slotframe.
//!
//! The plane is generic over the payload type so `harp-core` can carry its
//! protocol messages and the APaS baseline its own, while sharing the same
//! timing semantics. The transport on top counts the transmissions
//! (`TransportStats::attempts`, which feeds Table II and Fig. 12).

use crate::calendar::EventCalendar;
use crate::time::{Asn, SlotframeConfig};
use crate::topology::{Link, NodeId, Tree};
use core::fmt;

/// A message delivered by
/// [`ControlPlane::poll_into`](crate::ControlPlane::poll_into), as
/// [`Inbox::drain`](crate::Inbox::drain) hands it out.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Delivered<M> {
    /// The sending neighbour.
    pub from: NodeId,
    /// The receiving node.
    pub to: NodeId,
    /// The ASN at which the message arrived.
    pub at: Asn,
    /// The message payload.
    pub payload: M,
}

/// Errors raised by the management plane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum MgmtError {
    /// Messages may only travel between tree neighbours (one hop).
    NotNeighbors {
        /// The sender.
        from: NodeId,
        /// The non-adjacent intended receiver.
        to: NodeId,
    },
    /// A confirmable message exhausted its retransmission budget without
    /// being acknowledged (the link is effectively down).
    RetriesExhausted {
        /// The sender that gave up.
        from: NodeId,
        /// The unreachable neighbour.
        to: NodeId,
    },
}

impl fmt::Display for MgmtError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MgmtError::NotNeighbors { from, to } => {
                write!(f, "{from} and {to} are not tree neighbours")
            }
            MgmtError::RetriesExhausted { from, to } => {
                write!(f, "{from} gave up retransmitting to {to}")
            }
        }
    }
}

impl std::error::Error for MgmtError {}

/// An in-flight message's routing envelope; its delivery time and FIFO
/// tiebreak live in the [`EventCalendar`] that carries it.
#[derive(Debug)]
struct InFlight<M> {
    from: NodeId,
    to: NodeId,
    payload: M,
}

/// Most in-flight slots a plane reserves at construction (small networks
/// reserve one per management cell). A plane's first traffic can come long
/// after it was built — the static phase of a lossless network is settled
/// without queueing a message — and an adjustment's escalation should not
/// regrow the calendar message by message when it does.
const IN_FLIGHT_RESERVE: usize = 64;

/// The management plane of a network: carries one-hop messages with
/// management-cell timing.
///
/// A management cell is a link: node *i*'s uplink cell and the downlink
/// cell toward *i* are the hops [`Link::up`] and [`Link::down`] of *i*, so
/// the plane keeps one table indexed by the hop's dense link id (`2i` and
/// `2i + 1`), and a cell's slot is a function of that id.
///
/// [`ControlPlane`](crate::ControlPlane) is its only user: it decides what
/// each occupied cell actually carries.
#[derive(Debug)]
pub(crate) struct MgmtPlane<M> {
    config: SlotframeConfig,
    /// Future deliveries registered as calendar wakeups; simultaneous
    /// deliveries fire in registration (seq) order.
    in_flight: EventCalendar<InFlight<M>>,
    /// Last used occurrence of each management cell, by the dense id of
    /// its hop, to serialise messages: one message per cell per slotframe.
    /// Sized for the tree the plane was built for; a joined node's cells
    /// are appended when first used.
    busy_until: Vec<Asn>,
}

/// The directed management hop a `from → to` transmission crosses: the
/// cell it occupies and the link its channel model draws a fate for.
pub(crate) fn hop(tree: &Tree, from: NodeId, to: NodeId) -> Result<Link, MgmtError> {
    if tree.parent(from) == Some(to) {
        Ok(Link::up(from))
    } else if tree.parent(to) == Some(from) {
        Ok(Link::down(to))
    } else {
        Err(MgmtError::NotNeighbors { from, to })
    }
}

impl<M> MgmtPlane<M> {
    /// Creates a management plane: each node has an uplink and a downlink
    /// management cell, packed across channels and cycling through the
    /// slotframe deterministically (mirroring the Management sub-frame of
    /// the testbed).
    #[must_use]
    pub(crate) fn new(tree: &Tree, config: SlotframeConfig) -> Self {
        let cells = 2 * tree.len();
        Self {
            config,
            in_flight: EventCalendar::with_capacity(cells.min(IN_FLIGHT_RESERVE)),
            busy_until: vec![Asn::ZERO; cells],
        }
    }

    /// The slot offset of `hop`'s management cell.
    fn slot(&self, hop: Link) -> u32 {
        let channels = usize::from(self.config.channels).max(1);
        let slots = usize::try_from(self.config.slots).expect("a u32 fits usize");
        u32::try_from(hop.dense_id() / channels % slots).expect("an offset below `slots`")
    }

    /// Number of messages still in flight.
    #[must_use]
    pub(crate) fn in_flight(&self) -> usize {
        self.in_flight.len()
    }

    /// Sends `payload` from `from` to its tree neighbour `to`, delivered at
    /// the sender's next management cell for that direction, strictly after
    /// `now`; returns the delivery ASN. Without a transport on top, only the
    /// plane's own tests send this way.
    #[cfg(test)]
    pub(crate) fn send(
        &mut self,
        tree: &Tree,
        now: Asn,
        from: NodeId,
        to: NodeId,
        payload: M,
    ) -> Result<Asn, MgmtError> {
        let deliver_at = self.occupy(now, hop(tree, from, to)?, 1);
        self.enqueue_raw(deliver_at, from, to, payload);
        Ok(deliver_at)
    }

    /// Occupies the next `count` occurrences of `hop`'s management cell —
    /// strictly after `now` and the cell's previous use — without
    /// enqueuing anything: the transport
    /// layer decides what (if anything) actually arrives. Returns when the
    /// first occurrence fires; a cell carries one message per slotframe, so
    /// the `k`-th fires `k` slotframes later.
    pub(crate) fn occupy(&mut self, now: Asn, hop: Link, count: u64) -> Asn {
        debug_assert!(count > 0, "occupying a cell zero times has no first use");
        let slot = self.slot(hop);
        let id = hop.dense_id();
        if id >= self.busy_until.len() {
            self.busy_until.resize(id + 1, Asn::ZERO);
        }
        // One message per cell occurrence: the departure must be strictly
        // after both `now` and the cell's previous use.
        let earliest = now.plus(1).max(self.busy_until[id].plus(1));
        let first = self.config.next_occurrence(earliest, slot);
        self.busy_until[id] = first.plus((count - 1) * u64::from(self.config.slots));
        first
    }

    /// When `hop`'s management cell next fires, strictly after `now`,
    /// *without* occupying it. ACKs piggyback on
    /// this occurrence: they share the cell with regular traffic instead of
    /// serialising behind it.
    pub(crate) fn peek_transmit_time(&self, now: Asn, hop: Link) -> Asn {
        self.config.next_occurrence(now.plus(1), self.slot(hop))
    }

    /// Enqueues a payload for delivery at `deliver_at`, bypassing cell
    /// accounting (the transport layer has already paid for the airtime via
    /// [`MgmtPlane::occupy`], or deliberately avoids paying for it,
    /// as piggybacked ACKs do).
    pub(crate) fn enqueue_raw(&mut self, deliver_at: Asn, from: NodeId, to: NodeId, payload: M) {
        self.in_flight
            .schedule(deliver_at, InFlight { from, to, payload });
    }

    /// Delivers every message whose time has come (deliver_at ≤ `now`), in
    /// delivery-time order, appending them to `out` straight off the
    /// calendar.
    pub(crate) fn poll_into(&mut self, now: Asn, out: &mut Vec<Delivered<M>>) {
        while let Some((at, m)) = self.in_flight.pop_due(now) {
            out.push(Delivered {
                from: m.from,
                to: m.to,
                at,
                payload: m.payload,
            });
        }
    }

    /// [`MgmtPlane::poll_into`] a fresh vector.
    #[cfg(test)]
    pub(crate) fn poll(&mut self, now: Asn) -> Vec<Delivered<M>> {
        let mut out = Vec::new();
        self.poll_into(now, &mut out);
        out
    }

    /// Drops every in-flight message (used when a caller rolls back a
    /// failed protocol exchange). Counters are unaffected.
    pub(crate) fn clear_in_flight(&mut self) {
        self.in_flight.clear();
    }

    /// The earliest pending delivery time, if any — useful for fast-forward
    /// loops that skip idle slots.
    #[must_use]
    pub(crate) fn next_delivery(&self) -> Option<Asn> {
        self.in_flight.next_fire()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ControlPlane, Inbox};

    fn tree() -> Tree {
        Tree::paper_fig1_example()
    }

    fn cfg() -> SlotframeConfig {
        SlotframeConfig::new(20, 4, 10_000).unwrap()
    }

    #[test]
    fn one_hop_send_and_poll() {
        let t = tree();
        let mut plane: MgmtPlane<u32> = MgmtPlane::new(&t, cfg());
        let at = plane.send(&t, Asn(0), NodeId(4), NodeId(1), 42).unwrap();
        assert!(at > Asn(0), "delivery strictly in the future");
        assert!(plane.poll(Asn(at.0 - 1)).is_empty());
        let delivered = plane.poll(at);
        assert_eq!(delivered.len(), 1);
        assert_eq!(delivered[0].payload, 42);
        assert_eq!(delivered[0].from, NodeId(4));
        assert_eq!(delivered[0].to, NodeId(1));
        assert_eq!(plane.in_flight(), 0);
    }

    #[test]
    fn downlink_send_uses_child_slot() {
        let t = tree();
        let mut plane: MgmtPlane<&str> = MgmtPlane::new(&t, cfg());
        let at = plane
            .send(&t, Asn(5), NodeId(1), NodeId(4), "part")
            .unwrap();
        assert!(at > Asn(5));
        assert!(
            at.0 - 5 <= u64::from(cfg().slots),
            "at most one slotframe per hop"
        );
    }

    #[test]
    fn non_neighbours_rejected() {
        let t = tree();
        let mut plane: MgmtPlane<&str> = MgmtPlane::new(&t, cfg());
        assert_eq!(
            plane
                .send(&t, Asn(0), NodeId(4), NodeId(0), "x")
                .unwrap_err(),
            MgmtError::NotNeighbors {
                from: NodeId(4),
                to: NodeId(0)
            }
        );
        assert!(
            plane.send(&t, Asn(0), NodeId(4), NodeId(5), "x").is_err(),
            "siblings are not neighbours"
        );
    }

    #[test]
    fn message_count_accumulates() {
        let t = tree();
        let mut plane: ControlPlane<u8> = ControlPlane::reliable(&t, cfg());
        plane.send(&t, Asn(0), NodeId(4), NodeId(1), 1).unwrap();
        plane.send(&t, Asn(0), NodeId(1), NodeId(0), 2).unwrap();
        plane.send(&t, Asn(0), NodeId(0), NodeId(1), 3).unwrap();
        assert_eq!(plane.stats().attempts, 3);
        let mut inbox = Inbox::new();
        plane.poll_into(&t, Asn(1000), &mut inbox).unwrap();
        assert_eq!(inbox.drain().count(), 3);
        assert_eq!(
            plane.stats().attempts,
            3,
            "polling does not change the count"
        );
    }

    #[test]
    fn deliveries_are_time_ordered() {
        let t = tree();
        let mut plane: MgmtPlane<u32> = MgmtPlane::new(&t, cfg());
        // Different senders have different management slots.
        plane.send(&t, Asn(0), NodeId(9), NodeId(7), 9).unwrap();
        plane.send(&t, Asn(0), NodeId(4), NodeId(1), 4).unwrap();
        plane.send(&t, Asn(0), NodeId(11), NodeId(8), 11).unwrap();
        let delivered = plane.poll(Asn(1000));
        assert_eq!(delivered.len(), 3);
        for pair in delivered.windows(2) {
            assert!(pair[0].at <= pair[1].at);
        }
    }

    #[test]
    fn same_slot_messages_fifo_by_seq() {
        let t = tree();
        let mut plane: MgmtPlane<u32> = MgmtPlane::new(&t, cfg());
        // Two messages from the same sender to the same receiver: both use
        // the same slot; the first occupies the next frame, the second the
        // one after (they still deliver in send order).
        let a = plane.send(&t, Asn(0), NodeId(4), NodeId(1), 1).unwrap();
        let b = plane.send(&t, Asn(0), NodeId(4), NodeId(1), 2).unwrap();
        assert_eq!(b.0 - a.0, u64::from(cfg().slots), "one frame apart");
        let delivered = plane.poll(Asn(1000));
        assert_eq!(
            delivered.iter().map(|d| d.payload).collect::<Vec<_>>(),
            vec![1, 2]
        );
    }

    #[test]
    fn next_delivery_exposes_earliest() {
        let t = tree();
        let mut plane: MgmtPlane<u32> = MgmtPlane::new(&t, cfg());
        assert!(plane.next_delivery().is_none());
        let at = plane.send(&t, Asn(0), NodeId(4), NodeId(1), 0).unwrap();
        assert_eq!(plane.next_delivery(), Some(at));
    }

    #[test]
    fn a_joined_node_gets_the_cells_of_a_plane_built_for_the_grown_tree() {
        let t = tree();
        let (grown, id) = t.with_new_leaf(NodeId(9)).unwrap();
        let mut small: MgmtPlane<u8> = MgmtPlane::new(&t, cfg());
        let mut built: MgmtPlane<u8> = MgmtPlane::new(&grown, cfg());
        let mut wrapped: ControlPlane<u8> = ControlPlane::reliable(&t, cfg());
        // Both of the joined node's cells, twice each: the second use
        // queues behind the first on every plane alike.
        for (from, to) in [(id, NodeId(9)), (NodeId(9), id)].repeat(2) {
            let at = small.send(&grown, Asn(3), from, to, 7).unwrap();
            assert_eq!(at, built.send(&grown, Asn(3), from, to, 7).unwrap());
            assert_eq!(at, wrapped.send(&grown, Asn(3), from, to, 7).unwrap());
        }
        assert_eq!(small.poll(Asn(1000)), built.poll(Asn(1000)));
        assert_eq!(wrapped.stats().attempts, 4);
    }

    #[test]
    fn hop_latency_bounded_by_slotframe() {
        let t = tree();
        let cfg = cfg();
        for now in [0u64, 3, 7, 19, 20, 23] {
            // Fresh plane per sample: an idle management cell is at most one
            // slotframe away.
            let mut plane: MgmtPlane<u32> = MgmtPlane::new(&t, cfg);
            let at = plane.send(&t, Asn(now), NodeId(9), NodeId(7), 0).unwrap();
            assert!(at.0 > now);
            assert!(at.0 - now <= u64::from(cfg.slots));
        }
    }
}
