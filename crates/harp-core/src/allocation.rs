//! Top-down partition allocation (§IV-C of the paper).
//!
//! After the gateway has assembled its resource interface `I_g`, it places
//! each per-layer component in the slotframe and pushes the resulting
//! *partitions* down the tree. The placement follows the routing-path
//! compliant order of APaS: the slotframe is split into an uplink
//! super-partition (left) and a downlink super-partition (right); inside the
//! uplink region deeper layers come first (a packet climbing the tree meets
//! its cells in order within one slotframe), inside the downlink region
//! shallower layers come first.
//!
//! Every interior node then carves its children's partitions out of its own
//! using the composition layout recorded during interface generation, so no
//! further optimisation happens on the way down — exactly the cheap,
//! collision-free distribution step the paper describes.

use crate::compose::InterfaceSet;
use crate::error::HarpError;
use packing::{Point, Rect};
use std::collections::BTreeMap;
use tsch_sim::{Direction, NodeId, SlotframeConfig, Tree};

/// A partition `P_{i,l} = [C_{i,l}, t_{i,l}, c_{i,l}]`: the placement of a
/// subtree's layer-`l` component in the slotframe.
///
/// The rectangle uses slotframe orientation: `x` = starting slot `t`,
/// `y` = lowest channel index `c`, width = slots, height = channels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Partition {
    /// The subtree root this partition belongs to.
    pub node: NodeId,
    /// Traffic direction served by this partition.
    pub direction: Direction,
    /// The layer whose links use these cells.
    pub layer: u32,
    /// The placement in the slotframe.
    pub rect: Rect,
}

/// The complete partition allocation of a network: one rectangle per
/// (node, direction, layer) triple, hierarchically nested.
///
/// # Examples
///
/// ```
/// use harp_core::{allocate_partitions, build_interfaces, Requirements};
/// use tsch_sim::{Direction, Link, NodeId, SlotframeConfig, Tree};
///
/// # fn main() -> Result<(), harp_core::HarpError> {
/// let tree = Tree::from_parents(&[(1, 0), (2, 1)]);
/// let mut reqs = Requirements::new();
/// reqs.set(Link::up(NodeId(1)), 2);
/// reqs.set(Link::up(NodeId(2)), 1);
/// let up = build_interfaces(&tree, &reqs, Direction::Up, 16)?;
/// let down = build_interfaces(&tree, &reqs, Direction::Down, 16)?;
/// let table =
///     allocate_partitions(&tree, &up, &down, SlotframeConfig::paper_default())?;
/// // Uplink: layer 2 (1 slot) before layer 1 (2 slots).
/// let p2 = table.get(NodeId(1), Direction::Up, 2).unwrap();
/// let p1 = table.get(NodeId(0), Direction::Up, 1).unwrap();
/// assert!(p2.right() <= p1.left());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionTable {
    config: SlotframeConfig,
    map: BTreeMap<(NodeId, Direction, u32), Rect>,
    up_slots: u32,
    total_slots: u32,
}

impl PartitionTable {
    /// The slotframe this table was allocated for.
    #[must_use]
    pub fn config(&self) -> SlotframeConfig {
        self.config
    }

    /// The partition of `node` at `layer` in `direction`, if allocated.
    #[must_use]
    pub fn get(&self, node: NodeId, direction: Direction, layer: u32) -> Option<Rect> {
        self.map.get(&(node, direction, layer)).copied()
    }

    /// The area where `node` schedules its *own* child links — its partition
    /// at its own link layer.
    #[must_use]
    pub fn scheduling_area(&self, tree: &Tree, node: NodeId, direction: Direction) -> Option<Rect> {
        self.get(node, direction, tree.link_layer(node))
    }

    /// Iterates over every allocated partition.
    pub fn iter(&self) -> impl Iterator<Item = Partition> + '_ {
        self.map
            .iter()
            .map(|(&(node, direction, layer), &rect)| Partition {
                node,
                direction,
                layer,
                rect,
            })
    }

    /// Number of allocated partitions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Returns `true` if nothing was allocated.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Slots consumed by the uplink super-partition.
    #[must_use]
    pub fn uplink_slots(&self) -> u32 {
        self.up_slots
    }

    /// Total slots consumed by both super-partitions. May exceed the
    /// slotframe when built by [`allocate_partitions_unbounded`].
    #[must_use]
    pub fn total_slots(&self) -> u32 {
        self.total_slots
    }

    /// Replaces one partition. Only tests call it: the helpers
    /// `undo_log.rs::current_partitions` and
    /// `topology_dynamics.rs::held_partitions` lay the nodes' held
    /// partitions over a static table, and `verify.rs`'s unit tests break a
    /// table to see the verifiers catch it.
    pub fn set(&mut self, node: NodeId, direction: Direction, layer: u32, rect: Rect) {
        self.map.insert((node, direction, layer), rect);
    }
}

/// Allocates partitions for the whole network, failing if the slotframe is
/// too short.
///
/// # Errors
///
/// [`HarpError::SlotframeOverflow`] when the gateway interface needs more
/// slots than the slotframe has.
pub fn allocate_partitions(
    tree: &Tree,
    up: &InterfaceSet,
    down: &InterfaceSet,
    config: SlotframeConfig,
) -> Result<PartitionTable, HarpError> {
    let table = allocate_partitions_unbounded(tree, up, down, config);
    if u64::from(table.total_slots) > u64::from(config.slots) {
        return Err(HarpError::SlotframeOverflow {
            needed_slots: u64::from(table.total_slots),
            available: config.slots,
        });
    }
    Ok(table)
}

/// Allocates partitions without checking the slotframe length.
///
/// Partitions beyond the slotframe bound will wrap modulo the slotframe when
/// a schedule is generated, producing collisions — this is how the paper's
/// channel-starvation experiment (Fig. 11(b), below 4 channels) degrades
/// HARP gracefully instead of failing outright.
#[must_use]
pub fn allocate_partitions_unbounded(
    tree: &Tree,
    up: &InterfaceSet,
    down: &InterfaceSet,
    config: SlotframeConfig,
) -> PartitionTable {
    debug_assert_eq!(up.direction(), Direction::Up);
    debug_assert_eq!(down.direction(), Direction::Down);
    let mut map = BTreeMap::new();
    let mut cursor: u32 = 0;

    // Uplink super-partition: deeper layers first.
    let gw_up = &up.gateway().interface;
    let mut up_layers: Vec<u32> = gw_up.layers().collect();
    up_layers.sort_unstable_by(|a, b| b.cmp(a));
    for layer in up_layers {
        let c = gw_up
            .component(layer)
            .expect("layer listed by the interface");
        map.insert(
            (tree.root(), Direction::Up, layer),
            Rect::new(Point::new(cursor, 0), c.as_size()),
        );
        cursor += c.slots;
    }
    let up_slots = cursor;

    // Downlink super-partition: shallower layers first.
    let gw_down = &down.gateway().interface;
    for layer in gw_down.layers() {
        let c = gw_down
            .component(layer)
            .expect("layer listed by the interface");
        map.insert(
            (tree.root(), Direction::Down, layer),
            Rect::new(Point::new(cursor, 0), c.as_size()),
        );
        cursor += c.slots;
    }
    let total_slots = cursor;

    // Push partitions down: each node's composition layouts position its
    // children inside the node's own partitions.
    for (set, direction) in [(up, Direction::Up), (down, Direction::Down)] {
        // Preorder: parents are placed before their children are derived.
        for v in tree.subtree_nodes(tree.root()) {
            for (&layer, layout) in &set.node(v).layouts {
                let Some(own) = map.get(&(v, direction, layer)).copied() else {
                    continue;
                };
                for &(child, rel) in layout.placements() {
                    let abs = rel.translated(own.origin.x, own.origin.y);
                    map.insert((child, direction, layer), abs);
                }
            }
        }
    }

    PartitionTable {
        config,
        map,
        up_slots,
        total_slots,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compose::build_interfaces;
    use crate::requirement::Requirements;
    use tsch_sim::Link;

    /// The paper's Fig. 1 network with r(e) = subtree size both ways (the
    /// testbed's one-echo-task-per-node workload).
    fn fig1_setup() -> (Tree, Requirements) {
        let tree = Tree::paper_fig1_example();
        let mut reqs = Requirements::new();
        for v in tree.nodes().skip(1) {
            reqs.set(Link::up(v), tree.subtree_size(v));
            reqs.set(Link::down(v), tree.subtree_size(v));
        }
        (tree, reqs)
    }

    fn table_for(tree: &Tree, reqs: &Requirements, config: SlotframeConfig) -> PartitionTable {
        let up = build_interfaces(tree, reqs, Direction::Up, config.channels).unwrap();
        let down = build_interfaces(tree, reqs, Direction::Down, config.channels).unwrap();
        allocate_partitions(tree, &up, &down, config).unwrap()
    }

    #[test]
    fn uplink_layers_descend_downlink_ascend() {
        let (tree, reqs) = fig1_setup();
        let table = table_for(&tree, &reqs, SlotframeConfig::paper_default());
        let gw = tree.root();
        let u3 = table.get(gw, Direction::Up, 3).unwrap();
        let u2 = table.get(gw, Direction::Up, 2).unwrap();
        let u1 = table.get(gw, Direction::Up, 1).unwrap();
        assert!(u3.right() <= u2.left() && u2.right() <= u1.left());
        let d1 = table.get(gw, Direction::Down, 1).unwrap();
        let d2 = table.get(gw, Direction::Down, 2).unwrap();
        let d3 = table.get(gw, Direction::Down, 3).unwrap();
        assert!(u1.right() <= d1.left(), "downlink after uplink");
        assert!(d1.right() <= d2.left() && d2.right() <= d3.left());
        assert_eq!(table.uplink_slots(), u1.right());
        assert_eq!(table.total_slots(), d3.right());
    }

    #[test]
    fn children_partitions_nest_inside_parents() {
        let (tree, reqs) = fig1_setup();
        let table = table_for(&tree, &reqs, SlotframeConfig::paper_default());
        for dir in Direction::BOTH {
            for p in table.iter().filter(|p| p.direction == dir) {
                if p.node == tree.root() {
                    continue;
                }
                let parent = tree.parent(p.node).unwrap();
                let outer = table
                    .get(parent, dir, p.layer)
                    .expect("parent has a partition at the same layer");
                assert!(
                    p.rect.is_empty() || outer.contains_rect(&p.rect),
                    "{:?} not inside parent {:?}",
                    p,
                    outer
                );
            }
        }
    }

    #[test]
    fn sibling_partitions_are_disjoint() {
        let (tree, reqs) = fig1_setup();
        let table = table_for(&tree, &reqs, SlotframeConfig::paper_default());
        for dir in Direction::BOTH {
            for v in tree.nodes() {
                let kids = tree.children(v);
                for (i, &a) in kids.iter().enumerate() {
                    for &b in &kids[i + 1..] {
                        for layer in 1..=tree.layers() {
                            let (Some(ra), Some(rb)) =
                                (table.get(a, dir, layer), table.get(b, dir, layer))
                            else {
                                continue;
                            };
                            assert!(!ra.overlaps(&rb), "{a}/{b} overlap at layer {layer}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn scheduling_areas_are_single_channel_rows_with_right_width() {
        let (tree, reqs) = fig1_setup();
        let table = table_for(&tree, &reqs, SlotframeConfig::paper_default());
        for dir in Direction::BOTH {
            for v in tree.nodes() {
                if tree.is_leaf(v) {
                    continue;
                }
                let area = table.scheduling_area(&tree, v, dir).unwrap();
                let need = reqs.direct_total(&tree, v, dir);
                assert_eq!(area.height(), 1, "direct components are rows");
                assert_eq!(area.width(), need, "row width equals Σ r(e) at {v}");
            }
        }
    }

    #[test]
    fn all_scheduling_areas_pairwise_disjoint() {
        // The core isolation property: where cells are actually assigned,
        // no two nodes share any cell, across directions too.
        let (tree, reqs) = fig1_setup();
        let table = table_for(&tree, &reqs, SlotframeConfig::paper_default());
        let mut areas = Vec::new();
        for dir in Direction::BOTH {
            for v in tree.nodes() {
                if !tree.is_leaf(v) {
                    areas.push(table.scheduling_area(&tree, v, dir).unwrap());
                }
            }
        }
        assert!(packing::all_disjoint(&areas));
    }

    #[test]
    fn overflow_is_detected() {
        let (tree, reqs) = fig1_setup();
        // Fig. 1 needs 22 slots per direction at the gateway layer 1 alone.
        let tiny = SlotframeConfig::new(10, 16, 10_000).unwrap();
        let up = build_interfaces(&tree, &reqs, Direction::Up, 16).unwrap();
        let down = build_interfaces(&tree, &reqs, Direction::Down, 16).unwrap();
        let err = allocate_partitions(&tree, &up, &down, tiny).unwrap_err();
        assert!(matches!(err, HarpError::SlotframeOverflow { .. }));
        // The unbounded variant still produces a table.
        let table = allocate_partitions_unbounded(&tree, &up, &down, tiny);
        assert!(table.total_slots() > 10);
        assert!(!table.is_empty());
    }

    #[test]
    fn empty_network_allocates_nothing() {
        let tree = tsch_sim::TreeBuilder::new().build();
        let reqs = Requirements::new();
        let up = build_interfaces(&tree, &reqs, Direction::Up, 16).unwrap();
        let down = build_interfaces(&tree, &reqs, Direction::Down, 16).unwrap();
        let table =
            allocate_partitions(&tree, &up, &down, SlotframeConfig::paper_default()).unwrap();
        assert!(table.is_empty());
        assert_eq!(table.total_slots(), 0);
    }

    #[test]
    fn partition_set_overrides() {
        let (tree, reqs) = fig1_setup();
        let mut table = table_for(&tree, &reqs, SlotframeConfig::paper_default());
        let rect = Rect::from_xywh(100, 3, 4, 1);
        table.set(NodeId(7), Direction::Up, 3, rect);
        assert_eq!(table.get(NodeId(7), Direction::Up, 3), Some(rect));
    }

    #[test]
    fn uplink_deeper_layer_cells_precede_shallower_for_any_node() {
        // Compliance property (within the uplink super-partition): cells a
        // packet uses at layer l+1 come before the cells it uses at layer l.
        let (tree, reqs) = fig1_setup();
        let table = table_for(&tree, &reqs, SlotframeConfig::paper_default());
        for v in tree.nodes().skip(1) {
            let parent = tree.parent(v).unwrap();
            if tree.is_leaf(v) {
                continue;
            }
            let child_area = table.scheduling_area(&tree, v, Direction::Up).unwrap();
            let parent_area = table.scheduling_area(&tree, parent, Direction::Up).unwrap();
            assert!(
                child_area.right() <= parent_area.left(),
                "uplink cells of {v} must precede its parent's"
            );
        }
    }
}
