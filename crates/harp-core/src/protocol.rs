//! HARP's network-management protocol messages.
//!
//! The testbed implements HARP on top of CoAP; Table I of the paper defines
//! four handlers, mirrored here as message variants (plus the cell-assignment
//! notification a parent sends its children after local scheduling):
//!
//! | URI  | Method | Variant              |
//! |------|--------|----------------------|
//! | intf | POST   | [`HarpMessage::PostInterface`]  — child reports its interface |
//! | intf | PUT    | [`HarpMessage::PutInterface`]   — child reports an updated component |
//! | part | POST   | [`HarpMessage::PostPartitions`] — parent allocates partitions at all layers |
//! | part | PUT    | [`HarpMessage::PutPartition`]   — parent updates one layer's partition |
//!
//! `POST` messages carry both traffic directions at once (one report per
//! node, as on the testbed); `PUT` messages are direction- and
//! layer-specific because dynamic adjustments are.

use crate::component::{ResourceComponent, ResourceInterface};
use crate::schedule_gen::CellRun;
use core::fmt;
use packing::Rect;
use tsch_sim::Direction;

/// A HARP protocol message exchanged between tree neighbours over the
/// management plane.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HarpMessage {
    /// `POST intf`: a child reports its subtree's resource interfaces
    /// (bottom-up, static phase).
    PostInterface {
        /// Uplink interface of the child's subtree.
        up: ResourceInterface,
        /// Downlink interface of the child's subtree.
        down: ResourceInterface,
    },
    /// `POST part`: a parent hands a child the partitions allocated to the
    /// child's subtree, at every layer and for both directions (top-down,
    /// static phase).
    PostPartitions {
        /// `(direction, layer, placement)` triples for the child's subtree.
        partitions: Vec<(Direction, u32, Rect)>,
    },
    /// `PUT intf`: a child requests an updated (usually larger) component at
    /// one layer (dynamic phase, flows upward).
    PutInterface {
        /// Traffic direction of the change.
        direction: Direction,
        /// The affected layer.
        layer: u32,
        /// The new component the child needs.
        component: ResourceComponent,
    },
    /// `PUT part`: a parent grants/updates a child's partition at one layer
    /// (dynamic phase, flows downward).
    PutPartition {
        /// Traffic direction of the change.
        direction: Direction,
        /// The affected layer.
        layer: u32,
        /// The child subtree's new placement at that layer.
        rect: Rect,
    },
    /// A parent informs a child of the cells assigned to the link between
    /// them (the local scheduling decision, §IV-D). The child starts using
    /// the cells when this message arrives.
    CellAssignment {
        /// Direction of the link the cells serve.
        direction: Direction,
        /// The cells granted, in transmission order: a run of the parent's
        /// row (§IV-D), which is what keeps this variant no bigger than the
        /// others and a cell assignment off the heap.
        cells: CellRun,
    },
}

/// Coarse classification of messages for overhead accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MessageKind {
    /// Interface reports (`POST intf` / `PUT intf`).
    Interface,
    /// Partition allocations (`POST part` / `PUT part`).
    Partition,
    /// Cell-assignment notifications.
    CellAssignment,
}

impl HarpMessage {
    /// The message's accounting class.
    #[must_use]
    pub fn kind(&self) -> MessageKind {
        match self {
            HarpMessage::PostInterface { .. } | HarpMessage::PutInterface { .. } => {
                MessageKind::Interface
            }
            HarpMessage::PostPartitions { .. } | HarpMessage::PutPartition { .. } => {
                MessageKind::Partition
            }
            HarpMessage::CellAssignment { .. } => MessageKind::CellAssignment,
        }
    }

    /// Returns `true` for the management messages counted as HARP overhead
    /// in the paper (interface and partition messages; cell assignments are
    /// local schedule distribution).
    #[must_use]
    pub(crate) fn is_management(&self) -> bool {
        !matches!(self, HarpMessage::CellAssignment { .. })
    }
}

impl fmt::Display for HarpMessage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HarpMessage::PostInterface { up, down } => {
                write!(f, "POST intf up={up} down={down}")
            }
            HarpMessage::PostPartitions { partitions } => {
                write!(f, "POST part ({} entries)", partitions.len())
            }
            HarpMessage::PutInterface {
                direction,
                layer,
                component,
            } => {
                write!(f, "PUT intf {direction} l{layer} {component}")
            }
            HarpMessage::PutPartition {
                direction,
                layer,
                rect,
            } => {
                write!(f, "PUT part {direction} l{layer} {rect}")
            }
            HarpMessage::CellAssignment { direction, cells } => {
                write!(f, "CELLS {direction} ({} cells)", cells.len())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_match_table_one() {
        let post_intf = HarpMessage::PostInterface {
            up: ResourceInterface::new(),
            down: ResourceInterface::new(),
        };
        let put_intf = HarpMessage::PutInterface {
            direction: Direction::Up,
            layer: 2,
            component: ResourceComponent::row(3),
        };
        let post_part = HarpMessage::PostPartitions { partitions: vec![] };
        let put_part = HarpMessage::PutPartition {
            direction: Direction::Down,
            layer: 1,
            rect: Rect::default(),
        };
        let cells = HarpMessage::CellAssignment {
            direction: Direction::Up,
            cells: CellRun::default(),
        };
        assert_eq!(post_intf.kind(), MessageKind::Interface);
        assert_eq!(put_intf.kind(), MessageKind::Interface);
        assert_eq!(post_part.kind(), MessageKind::Partition);
        assert_eq!(put_part.kind(), MessageKind::Partition);
        assert_eq!(cells.kind(), MessageKind::CellAssignment);
    }

    #[test]
    fn management_classification() {
        let cells = HarpMessage::CellAssignment {
            direction: Direction::Up,
            cells: CellRun::default(),
        };
        assert!(!cells.is_management());
        let put = HarpMessage::PutPartition {
            direction: Direction::Up,
            layer: 3,
            rect: Rect::default(),
        };
        assert!(put.is_management());
        let post = HarpMessage::PostPartitions { partitions: vec![] };
        assert!(post.is_management());
    }

    #[test]
    fn display_names_the_method() {
        let m = HarpMessage::PutInterface {
            direction: Direction::Up,
            layer: 2,
            component: ResourceComponent::row(3),
        };
        assert!(m.to_string().starts_with("PUT intf"));
    }
}
