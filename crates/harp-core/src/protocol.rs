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
use core::{fmt, mem};
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

impl HarpMessage {
    /// Returns `true` for the management messages counted as HARP overhead
    /// in the paper (interface and partition messages; cell assignments are
    /// local schedule distribution).
    #[must_use]
    pub(crate) fn is_management(&self) -> bool {
        !matches!(self, HarpMessage::CellAssignment { .. })
    }

    /// Returns `true` if `self`, sent to the neighbour `older` went to,
    /// replaces the state `older` set there: a cell assignment in the same
    /// direction, or a `PUT intf` or `PUT part` for the same direction and
    /// layer. The sender retires such an older message before it sends
    /// this one, so a retransmission of it cannot arrive after this one.
    pub(crate) fn supersedes(&self, older: &HarpMessage) -> bool {
        use HarpMessage::{
            CellAssignment, PostInterface, PostPartitions, PutInterface, PutPartition,
        };
        // The state a message replaces at its receiver: its variant,
        // direction and layer. The static phase's posts replace none: a
        // node sends each of them once per settle.
        let replaced = |m: &HarpMessage| {
            let (direction, layer) = match *m {
                CellAssignment { direction, .. } => (direction, 0),
                PutInterface {
                    direction, layer, ..
                }
                | PutPartition {
                    direction, layer, ..
                } => (direction, layer),
                PostInterface { .. } | PostPartitions { .. } => return None,
            };
            Some((mem::discriminant(m), direction, layer))
        };
        replaced(self).is_some_and(|state| replaced(older) == Some(state))
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
    fn a_message_supersedes_its_own_kind_for_the_same_state() {
        use Direction::{Down, Up};
        let cells = |direction| HarpMessage::CellAssignment {
            direction,
            cells: CellRun::default(),
        };
        let put_intf = |direction, layer, cells| HarpMessage::PutInterface {
            direction,
            layer,
            component: ResourceComponent::row(cells),
        };
        let put_part = |direction, layer, slots| HarpMessage::PutPartition {
            direction,
            layer,
            rect: Rect::from_xywh(0, 0, slots, 1),
        };
        let post_intf = || HarpMessage::PostInterface {
            up: ResourceInterface::new(),
            down: ResourceInterface::new(),
        };
        let post_part = || HarpMessage::PostPartitions { partitions: vec![] };
        let table = [
            // A cell assignment matches by direction.
            (cells(Up), cells(Up), true),
            (cells(Down), cells(Up), false),
            // `PUT intf` and `PUT part` match by direction and layer,
            // whatever they carry.
            (put_intf(Up, 2, 5), put_intf(Up, 2, 3), true),
            (put_intf(Up, 2, 3), put_intf(Up, 3, 3), false),
            (put_intf(Down, 2, 3), put_intf(Up, 2, 3), false),
            (put_part(Down, 1, 4), put_part(Down, 1, 2), true),
            (put_part(Down, 1, 2), put_part(Down, 2, 2), false),
            (put_part(Up, 1, 2), put_part(Down, 1, 2), false),
            // The static phase's posts never match, not even themselves.
            (post_intf(), post_intf(), false),
            (post_part(), post_part(), false),
            // Nor does another variant for the same direction and layer.
            (put_part(Up, 2, 3), put_intf(Up, 2, 3), false),
            (put_intf(Up, 2, 3), put_part(Up, 2, 3), false),
            (cells(Up), put_part(Up, 1, 1), false),
            (put_part(Up, 1, 1), cells(Up), false),
            (post_part(), put_part(Up, 1, 1), false),
            (post_intf(), put_intf(Up, 1, 1), false),
        ];
        for (newer, older, expected) in table {
            assert_eq!(newer.supersedes(&older), expected, "{newer} after {older}");
        }
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
