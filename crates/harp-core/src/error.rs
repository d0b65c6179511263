//! The error type shared by the HARP algorithms.

use core::fmt;
use tsch_sim::NodeId;

/// Errors raised by HARP's composition, allocation, scheduling and
/// adjustment algorithms.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum HarpError {
    /// A resource component needs more channels than the network has.
    ChannelBudgetExceeded {
        /// The layer being composed.
        layer: u32,
        /// Channels required by the widest component.
        needed: u32,
        /// The network's channel budget.
        budget: u16,
    },
    /// The slotframe is too short for the gateway's resource interface.
    SlotframeOverflow {
        /// Slots the allocation needs.
        needed_slots: u64,
        /// Slots available in the slotframe.
        available: u32,
    },
    /// A count a node's tables keep in 16 bits is past 65,535: the
    /// slotframe's slots (an IEEE 802.15.4 Slotframe IE carries them in two
    /// octets), the tree's layers, or how far a rectangle or a row of cells
    /// reaches.
    TableLimit {
        /// What was counted.
        what: &'static str,
        /// The count.
        count: u64,
    },
    /// A node has no allocated partition at the given layer.
    MissingPartition {
        /// The node whose partition is missing.
        node: NodeId,
        /// The layer looked up.
        layer: u32,
    },
    /// A node's scheduling partition cannot hold its links' cells.
    PartitionTooSmall {
        /// The parent node that owns the partition.
        node: NodeId,
        /// Cells required by the links.
        required: u32,
        /// Cells available in the partition row.
        available: u32,
    },
    /// The adjustment requester is not among the current partitions.
    UnknownAdjustmentTarget,
    /// The node has left the network and cannot take part in topology
    /// operations.
    NodeDeparted(NodeId),
    /// The node has children, and only a leaf can leave or switch parents.
    NotALeaf(NodeId),
    /// A topology edit named an unknown node, the gateway's parent link or
    /// a move that would close a cycle.
    Topology(tsch_sim::TopologyError),
    /// An underlying packing call rejected its input.
    Pack(packing::PackError),
    /// An underlying schedule mutation failed.
    Schedule(tsch_sim::ScheduleError),
    /// The management plane rejected or gave up on a protocol message
    /// (a routing bug, or a neighbour unreachable after retransmissions).
    Mgmt(tsch_sim::MgmtError),
}

impl fmt::Display for HarpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HarpError::ChannelBudgetExceeded {
                layer,
                needed,
                budget,
            } => write!(
                f,
                "layer {layer} component needs {needed} channels, budget is {budget}"
            ),
            HarpError::SlotframeOverflow {
                needed_slots,
                available,
            } => write!(
                f,
                "allocation needs {needed_slots} slots, slotframe has {available}"
            ),
            HarpError::TableLimit { what, count } => write!(
                f,
                "{count} {what} exceed the {} a node's tables hold",
                u16::MAX
            ),
            HarpError::MissingPartition { node, layer } => {
                write!(f, "no partition for {node} at layer {layer}")
            }
            HarpError::PartitionTooSmall {
                node,
                required,
                available,
            } => write!(
                f,
                "{node} needs {required} cells but its partition holds {available}"
            ),
            HarpError::UnknownAdjustmentTarget => {
                write!(f, "adjustment requester has no current partition")
            }
            HarpError::NodeDeparted(n) => write!(f, "{n} has left the network"),
            HarpError::NotALeaf(n) => write!(f, "{n} has children; only a leaf can move"),
            HarpError::Topology(e) => write!(f, "topology edit refused: {e}"),
            HarpError::Pack(e) => write!(f, "packing failed: {e}"),
            HarpError::Schedule(e) => write!(f, "schedule update failed: {e}"),
            HarpError::Mgmt(e) => write!(f, "management plane failed: {e}"),
        }
    }
}

impl std::error::Error for HarpError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            HarpError::Pack(e) => Some(e),
            HarpError::Schedule(e) => Some(e),
            HarpError::Mgmt(e) => Some(e),
            HarpError::Topology(e) => Some(e),
            _ => None,
        }
    }
}

impl From<packing::PackError> for HarpError {
    fn from(e: packing::PackError) -> Self {
        HarpError::Pack(e)
    }
}

impl From<tsch_sim::ScheduleError> for HarpError {
    fn from(e: tsch_sim::ScheduleError) -> Self {
        HarpError::Schedule(e)
    }
}

impl From<tsch_sim::TopologyError> for HarpError {
    fn from(e: tsch_sim::TopologyError) -> Self {
        HarpError::Topology(e)
    }
}

impl From<tsch_sim::MgmtError> for HarpError {
    fn from(e: tsch_sim::MgmtError) -> Self {
        HarpError::Mgmt(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_key_numbers() {
        let e = HarpError::SlotframeOverflow {
            needed_slots: 250,
            available: 199,
        };
        assert!(e.to_string().contains("250"));
        assert!(e.to_string().contains("199"));
    }

    #[test]
    fn source_chains_for_wrapped_errors() {
        use std::error::Error;
        let e = HarpError::Pack(packing::PackError::ZeroWidthStrip);
        assert!(e.source().is_some());
        let e = HarpError::MissingPartition {
            node: NodeId(1),
            layer: 2,
        };
        assert!(e.source().is_none());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_err<E: std::error::Error + Send + Sync + 'static>() {}
        assert_err::<HarpError>();
    }
}
