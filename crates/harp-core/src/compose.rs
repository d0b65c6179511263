//! Resource component composition (Problem 1 / Alg. 1 of the paper) and
//! bottom-up resource-interface generation.
//!
//! A non-leaf node `V_i` receives the resource interfaces of its direct
//! subtrees and must merge, for each layer `l`, the children's components
//! `C_{i1,l} … C_{ik,l}` into a single composite `C_{i,l}` that (i) contains
//! them all, (ii) minimises the number of slots and (iii) among those,
//! minimises the number of channels. The paper maps this to 2-D strip
//! packing and solves it with the best-fit skyline heuristic *twice*:
//!
//! 1. strip width = the channel budget `M`, minimise the slot extent;
//! 2. strip width = the minimal slot extent from pass 1, minimise the
//!    channel extent.
//!
//! The winning pass's placement of each child component inside the composite
//! is kept as the [`CompositionLayout`]; the partition-allocation phase uses
//! it to carve children's partitions out of the parent's.

use crate::component::{LayerComponents, ResourceComponent, ResourceInterface};
use crate::error::HarpError;
use crate::requirement::Requirements;
use crate::workspace::Workspace;
use packing::Rect;
use std::collections::BTreeMap;
use tsch_sim::{Direction, NodeId, Tree};

/// The result of composing child components into one composite component:
/// the composite's size and where each child landed inside it.
///
/// Placements use slotframe orientation: `x` = slot offset, `y` = channel
/// offset (both relative to the composite's origin). Children whose
/// component is empty receive a zero-sized rectangle at the origin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompositionLayout {
    composite: ResourceComponent,
    placements: Vec<(NodeId, Rect)>,
}

impl CompositionLayout {
    pub(crate) fn new(composite: ResourceComponent, placements: Vec<(NodeId, Rect)>) -> Self {
        Self {
            composite,
            placements,
        }
    }

    /// The composite component `C_{i,l}`.
    #[must_use]
    pub fn composite(&self) -> ResourceComponent {
        self.composite
    }

    /// Each child's placement inside the composite, in input order.
    #[must_use]
    pub fn placements(&self) -> &[(NodeId, Rect)] {
        &self.placements
    }
}

/// Composes child components at one layer into a composite (Alg. 1):
/// [`Workspace::compose`] on a fresh workspace.
///
/// `children` pairs each direct-subtree root with its component at the layer
/// being composed. The `max_channels` budget is the network's channel count
/// `M`.
///
/// # Errors
///
/// [`HarpError::ChannelBudgetExceeded`] if any child component is taller (in
/// channels) than the budget.
///
/// # Examples
///
/// ```
/// use harp_core::{compose_components, ResourceComponent};
/// use tsch_sim::NodeId;
///
/// # fn main() -> Result<(), harp_core::HarpError> {
/// let children = [
///     (NodeId(1), ResourceComponent::row(3)),
///     (NodeId(2), ResourceComponent::row(2)),
/// ];
/// let layout = compose_components(&children, 16, 0)?;
/// // Two rows side by side in the channel dimension: 3 slots, 2 channels
/// // would waste slots; the composer prefers fewer slots first, so it
/// // stacks them across channels: 3 slots × 2 channels.
/// assert_eq!(layout.composite().slots, 3);
/// assert_eq!(layout.composite().channels, 2);
/// # Ok(())
/// # }
/// ```
pub fn compose_components(
    children: &[(NodeId, ResourceComponent)],
    max_channels: u16,
    layer: u32,
) -> Result<CompositionLayout, HarpError> {
    Workspace::new().compose(children.iter().copied(), max_channels, layer)
}

impl Workspace {
    /// Composes child components at one layer into a composite (Alg. 1),
    /// allocating nothing but the returned layout's placements once the
    /// workspace is warm.
    ///
    /// `children` pairs each direct-subtree root with its component at the
    /// layer being composed. The `max_channels` budget is the network's
    /// channel count `M`.
    ///
    /// # Errors
    ///
    /// [`HarpError::ChannelBudgetExceeded`] if any child component is taller
    /// (in channels) than the budget.
    pub fn compose(
        &mut self,
        children: impl IntoIterator<Item = (NodeId, ResourceComponent)>,
        max_channels: u16,
        layer: u32,
    ) -> Result<CompositionLayout, HarpError> {
        let mut placements = Vec::new();
        let composite = self.compose_into(children, max_channels, layer, &mut placements)?;
        Ok(CompositionLayout {
            composite,
            placements,
        })
    }

    /// [`Workspace::compose`], appending the placements to `out` (one per
    /// child, in input order) and returning the composite.
    fn compose_into(
        &mut self,
        children: impl IntoIterator<Item = (NodeId, ResourceComponent)>,
        max_channels: u16,
        layer: u32,
        out: &mut Vec<(NodeId, Rect)>,
    ) -> Result<ResourceComponent, HarpError> {
        let Self {
            strip,
            components,
            sizes,
            pass1,
            pass2,
            ..
        } = self;
        components.clear();
        components.extend(children);
        // Only non-empty components are packed.
        let packable = || components.iter().map(|(_, c)| c).filter(|c| !c.is_empty());
        if let Some(c) = packable().find(|c| c.channels > u32::from(max_channels)) {
            return Err(HarpError::ChannelBudgetExceeded {
                layer,
                needed: c.channels,
                budget: max_channels,
            });
        }
        out.reserve(components.len());

        // Pass 1: width = channel budget, minimise the slot extent.
        sizes.clear();
        sizes.extend(packable().map(ResourceComponent::as_size_channel_major));
        if sizes.is_empty() {
            out.extend(components.iter().map(|&(n, _)| (n, Rect::default())));
            return Ok(ResourceComponent::default());
        }
        let min_slots = strip.pack(sizes, u32::from(max_channels), pass1)?;
        let pass1_channels = pass1
            .iter()
            .map(Rect::right)
            .max()
            .expect("non-empty packing");

        // Pass 2: width = the minimal slot extent, minimise the channel
        // extent.
        sizes.clear();
        sizes.extend(packable().map(ResourceComponent::as_size));
        let pass2_channels = strip.pack(sizes, min_slots, pass2)?;

        // Keep whichever pass used fewer channels (pass 2 can regress when
        // the narrow strip forces stacking; the paper assumes it improves).
        let use_pass2 = pass2_channels <= pass1_channels;
        let channels = pass2_channels.min(pass1_channels);

        // The packed items are `components` minus the empty ones, in order,
        // and the packer answers in input order: walk both in step.
        let mut packed = if use_pass2 { pass2 } else { pass1 }.iter();
        out.extend(components.iter().map(|&(n, c)| {
            if c.is_empty() {
                return (n, Rect::default());
            }
            let rect = *packed.next().expect("one placement per packable child");
            if use_pass2 {
                (n, rect)
            } else {
                // Pass 1 coordinates are (x = channel, y = slot):
                // transpose back to slotframe orientation.
                let (o, s) = (rect.origin, rect.size);
                (n, Rect::from_xywh(o.y, o.x, s.h, s.w))
            }
        }));
        Ok(ResourceComponent::new(min_slots, channels))
    }

    /// Case 2 of §IV-B at one node: for each of `layers` at which a child
    /// reports a component, composes the children's components. What it
    /// composed stays in the workspace, read through
    /// [`Workspace::composed`]: a caller copies each layer to where it
    /// keeps it, and no container is built to carry them there.
    pub(crate) fn compose_layers<C: LayerComponents>(
        &mut self,
        children: impl Iterator<Item = (NodeId, C)> + Clone,
        layers: std::ops::RangeInclusive<u32>,
        max_channels: u16,
    ) -> Result<(), HarpError> {
        self.composed.clear();
        let mut placed = std::mem::take(&mut self.placed);
        placed.clear();
        for layer in layers {
            let reported = children
                .clone()
                .filter_map(|(c, i)| i.component(layer).map(|comp| (c, comp)));
            let from = placed.len();
            let composite = match self.compose_into(reported, max_channels, layer, &mut placed) {
                Ok(composite) => composite,
                Err(e) => {
                    self.placed = placed;
                    return Err(e);
                }
            };
            if placed.len() > from {
                self.composed.push((layer, composite, placed.len()));
            }
        }
        self.placed = placed;
        Ok(())
    }

    /// What the last [`Workspace::compose_layers`] composed, in layer
    /// order: each layer, its composite and the children's placements.
    pub(crate) fn composed(
        &self,
    ) -> impl Iterator<Item = (u32, ResourceComponent, &[(NodeId, Rect)])> + '_ {
        let mut from = 0;
        self.composed.iter().map(move |&(layer, composite, to)| {
            let placed = &self.placed[from..to];
            from = to;
            (layer, composite, placed)
        })
    }
}

/// The per-node outcome of interface generation: the interface itself plus
/// the composition layout of every composed layer.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct NodeInterface {
    /// The node's resource interface `I_i`.
    pub interface: ResourceInterface,
    /// For each layer deeper than the node's own link layer, how the
    /// children's components were placed inside the composite.
    pub layouts: BTreeMap<u32, CompositionLayout>,
}

/// The interfaces of every node in the network for one traffic direction,
/// as produced by the bottom-up generation phase.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InterfaceSet {
    direction: Direction,
    nodes: Vec<NodeInterface>,
}

impl InterfaceSet {
    /// The direction these interfaces describe.
    #[must_use]
    pub fn direction(&self) -> Direction {
        self.direction
    }

    /// The interface data of one node.
    ///
    /// # Panics
    ///
    /// Panics if `node` is outside the tree this set was built for.
    #[must_use]
    pub fn node(&self, node: NodeId) -> &NodeInterface {
        &self.nodes[node.index()]
    }

    /// The gateway's interface — the full network demand per layer.
    #[must_use]
    pub fn gateway(&self) -> &NodeInterface {
        &self.nodes[0]
    }
}

/// Generates every node's resource interface bottom-up (§IV-B).
///
/// For each non-leaf node the direct component is `[Σ r(e), 1]` over its
/// child links (Case 1); deeper layers are composed from the children's
/// interfaces with [`compose_components`] (Case 2). Leaves have empty
/// interfaces.
///
/// # Errors
///
/// Propagates [`HarpError::ChannelBudgetExceeded`] from composition.
///
/// # Examples
///
/// ```
/// use harp_core::{build_interfaces, Requirements};
/// use tsch_sim::{Direction, Link, NodeId, Tree};
///
/// # fn main() -> Result<(), harp_core::HarpError> {
/// let tree = Tree::from_parents(&[(1, 0), (2, 1), (3, 1)]);
/// let mut reqs = Requirements::new();
/// reqs.set(Link::up(NodeId(1)), 3);
/// reqs.set(Link::up(NodeId(2)), 1);
/// reqs.set(Link::up(NodeId(3)), 2);
/// let set = build_interfaces(&tree, &reqs, Direction::Up, 16)?;
/// let gw = &set.gateway().interface;
/// assert_eq!(gw.component(1).unwrap().slots, 3); // node 1's uplink
/// assert_eq!(gw.component(2).unwrap().slots, 3); // links 2→1 and 3→1
/// # Ok(())
/// # }
/// ```
pub fn build_interfaces(
    tree: &Tree,
    requirements: &Requirements,
    direction: Direction,
    max_channels: u16,
) -> Result<InterfaceSet, HarpError> {
    let mut nodes: Vec<NodeInterface> = vec![NodeInterface::default(); tree.len()];
    let mut ws = Workspace::new();
    for v in tree.postorder() {
        if tree.is_leaf(v) {
            continue;
        }
        let own_layer = tree.link_layer(v);
        let mut interface = ResourceInterface::new();
        // Case 1: the direct component.
        let direct = requirements.direct_total(tree, v, direction);
        interface.set(own_layer, ResourceComponent::row(direct));

        // Case 2: compose children's components per deeper layer.
        let children = tree
            .children(v)
            .iter()
            .map(|&c| (c, &nodes[c.index()].interface));
        let layers = own_layer + 1..=tree.subtree_layer(v);
        ws.compose_layers(children, layers, max_channels)?;
        // One by one: collecting a map sorts its input in a vector first.
        let mut layouts = BTreeMap::new();
        for (layer, composite, placed) in ws.composed() {
            interface.set(layer, composite);
            layouts.insert(layer, CompositionLayout::new(composite, placed.to_vec()));
        }
        nodes[v.index()] = NodeInterface { interface, layouts };
    }
    Ok(InterfaceSet { direction, nodes })
}

#[cfg(test)]
mod tests {
    use super::*;
    use packing::Size;
    use tsch_sim::Link;

    fn rc(s: u32, c: u32) -> ResourceComponent {
        ResourceComponent::new(s, c)
    }

    #[test]
    fn compose_empty_children_list() {
        let layout = compose_components(&[], 16, 1).unwrap();
        assert!(layout.composite().is_empty());
        assert!(layout.placements().is_empty());
    }

    #[test]
    fn compose_all_empty_components() {
        let children = [(NodeId(1), rc(0, 1)), (NodeId(2), rc(0, 1))];
        let layout = compose_components(&children, 16, 1).unwrap();
        assert!(layout.composite().is_empty());
        assert_eq!(layout.placements().len(), 2);
        assert!(layout.placements().iter().all(|(_, r)| r.is_empty()));
    }

    #[test]
    fn compose_single_component_is_identity() {
        let children = [(NodeId(1), rc(4, 2))];
        let layout = compose_components(&children, 16, 2).unwrap();
        assert_eq!(layout.composite(), rc(4, 2));
        assert_eq!(
            layout.placements(),
            [(NodeId(1), Rect::from_xywh(0, 0, 4, 2))]
        );
    }

    #[test]
    fn compose_rows_stack_across_channels() {
        // With a generous channel budget, rows of equal width stack into the
        // channel dimension, keeping the slot extent minimal.
        let children = [
            (NodeId(1), rc(3, 1)),
            (NodeId(2), rc(3, 1)),
            (NodeId(3), rc(3, 1)),
        ];
        let layout = compose_components(&children, 16, 2).unwrap();
        assert_eq!(layout.composite().slots, 3, "slots are minimised first");
        assert_eq!(layout.composite().channels, 3);
    }

    #[test]
    fn compose_unequal_rows_minimise_slots_then_channels() {
        let children = [
            (NodeId(1), rc(5, 1)),
            (NodeId(2), rc(2, 1)),
            (NodeId(3), rc(3, 1)),
        ];
        let layout = compose_components(&children, 16, 2).unwrap();
        // Minimum slot extent is 5 (the widest row). 2 and 3 fit beside each
        // other in one extra channel row: [5, 2].
        assert_eq!(layout.composite(), rc(5, 2));
    }

    #[test]
    fn compose_placements_are_disjoint_and_inside() {
        let children = [
            (NodeId(1), rc(4, 2)),
            (NodeId(2), rc(3, 1)),
            (NodeId(3), rc(2, 2)),
            (NodeId(4), rc(5, 1)),
        ];
        let layout = compose_components(&children, 8, 3).unwrap();
        let bounds = Rect::from_xywh(0, 0, layout.composite().slots, layout.composite().channels);
        let rects: Vec<Rect> = layout.placements().iter().map(|&(_, r)| r).collect();
        assert!(packing::all_disjoint(&rects));
        for ((_, child), rect) in children.iter().zip(layout.placements()) {
            assert!(
                bounds.contains_rect(&rect.1),
                "{:?} outside {bounds}",
                rect.1
            );
            let _ = child;
        }
        // Sizes preserved.
        for (i, &(_, c)) in children.iter().enumerate() {
            assert_eq!(
                layout.placements()[i].1.size,
                Size::new(c.slots, c.channels)
            );
        }
    }

    #[test]
    fn compose_respects_channel_budget() {
        let children = [(NodeId(1), rc(2, 5))];
        let err = compose_components(&children, 4, 3).unwrap_err();
        assert_eq!(
            err,
            HarpError::ChannelBudgetExceeded {
                layer: 3,
                needed: 5,
                budget: 4
            }
        );
    }

    #[test]
    fn compose_channel_budget_forces_slot_growth() {
        // Three 1-channel rows with a budget of 2 channels: at most two rows
        // side by side → 2 channels, 2·slots... the packer decides, but the
        // composite must never exceed the budget.
        let children = [
            (NodeId(1), rc(4, 1)),
            (NodeId(2), rc(4, 1)),
            (NodeId(3), rc(4, 1)),
        ];
        let layout = compose_components(&children, 2, 2).unwrap();
        assert!(layout.composite().channels <= 2);
        assert_eq!(layout.composite().slots, 8, "two rows stacked in time");
    }

    #[test]
    fn compose_keeps_empty_children_in_placements() {
        let children = [(NodeId(1), rc(3, 1)), (NodeId(2), rc(0, 1))];
        let layout = compose_components(&children, 16, 2).unwrap();
        assert_eq!(layout.placements().len(), 2);
        assert_eq!(layout.placements()[1], (NodeId(2), Rect::default()));
        assert_eq!(layout.composite(), rc(3, 1));
    }

    #[test]
    fn compose_mixed_heights_paper_fig4_style() {
        // Fig. 4 style: several multi-channel components merged into a
        // compact composite.
        let children = [
            (NodeId(1), rc(3, 2)),
            (NodeId(2), rc(2, 1)),
            (NodeId(3), rc(2, 2)),
            (NodeId(4), rc(1, 1)),
        ];
        let layout = compose_components(&children, 16, 2).unwrap();
        // Area lower bound: 6+2+4+1 = 13 cells. Slot extent must be minimal
        // (3, the widest), so channels ≥ ceil(13/3) = 5.
        assert_eq!(layout.composite().slots, 3);
        assert!(layout.composite().channels >= 5);
        let rects: Vec<Rect> = layout
            .placements()
            .iter()
            .map(|&(_, r)| r)
            .filter(|r| !r.is_empty())
            .collect();
        assert!(packing::all_disjoint(&rects));
    }

    #[test]
    fn compose_through_a_reused_workspace_equals_fresh_ones() {
        // One workspace through a seeded sequence: a 128-child layer, then
        // the 1-, 2- and 4-child layers a tenant composes, budgets of every
        // width, empty components and an over-budget child in between. A
        // buffer read before it is reset would carry the big layer over.
        let mut rng = tsch_sim::SplitMix64::new(0x00C0_FFEE);
        let mut ws = Workspace::new();
        let mut over_budget = 0;
        for round in 0..24u32 {
            for n in [128, 1, 2, 4, 3, 4] {
                let budget = 1 + rng.next_below(16) as u16;
                let mut children: Vec<(NodeId, ResourceComponent)> = (0..n)
                    .map(|i| {
                        let slots = rng.next_below(9) as u32; // 0: an empty one
                        let channels = 1 + rng.next_below(u64::from(budget)) as u32;
                        (NodeId(i + 1), rc(slots, channels))
                    })
                    .collect();
                if n == 3 {
                    children[1].1 = rc(2, u32::from(budget) + 1 + round % 2);
                }
                let reused = ws.compose(children.iter().copied(), budget, round);
                assert_eq!(reused, compose_components(&children, budget, round));
                over_budget += u32::from(reused.is_err());
            }
        }
        assert_eq!(over_budget, 24, "an error in the middle of every round");
    }

    // ---- build_interfaces ----

    fn star_reqs(tree: &Tree, per_link: u32) -> Requirements {
        let mut reqs = Requirements::new();
        for v in tree.nodes().skip(1) {
            reqs.set(Link::up(v), per_link);
        }
        reqs
    }

    #[test]
    fn interfaces_of_fig1_topology() {
        // Fig. 1(a) uplink requirements: r = subtree size of the child.
        let tree = Tree::paper_fig1_example();
        let mut reqs = Requirements::new();
        for v in tree.nodes().skip(1) {
            reqs.set(Link::up(v), tree.subtree_size(v));
        }
        let set = build_interfaces(&tree, &reqs, Direction::Up, 16).unwrap();

        // Leaves have empty interfaces.
        assert!(set.node(NodeId(4)).interface.is_empty());

        // Node 7 (children 9, 10, each r=1): direct component [2, 1] at
        // layer 3, nothing deeper.
        let n7 = &set.node(NodeId(7)).interface;
        assert_eq!(n7.component(3), Some(rc(2, 1)));
        assert_eq!(n7.max_layer(), Some(3));

        // Node 3 (children 7 with r=3, 8 with r=2): direct [5, 1] at layer
        // 2; layer 3 composes C_{7,3}=[2,1] and C_{8,3}=[1,1] → [2, 2].
        let n3 = &set.node(NodeId(3)).interface;
        assert_eq!(n3.component(2), Some(rc(5, 1)));
        assert_eq!(n3.component(3), Some(rc(2, 2)));

        // Gateway: layer 1 = 6+1+... direct links 1 (r=3), 2 (r=2), 3 (r=6)
        // → [11, 1]; layer 2 composes [2,1] (node 1's direct), [1,1]
        // (node 2's), [5,1] (node 3's) → min slots 5.
        let gw = &set.gateway().interface;
        assert_eq!(gw.component(1), Some(rc(11, 1)));
        assert_eq!(gw.component(2).unwrap().slots, 5);
        assert_eq!(gw.component(3).unwrap().slots, 2);
        assert_eq!(gw.max_layer(), Some(3));
    }

    #[test]
    fn interfaces_downlink_mirror_uplink_for_symmetric_reqs() {
        let tree = Tree::paper_fig1_example();
        let mut reqs = Requirements::new();
        for v in tree.nodes().skip(1) {
            reqs.set(Link::up(v), tree.subtree_size(v));
            reqs.set(Link::down(v), tree.subtree_size(v));
        }
        let up = build_interfaces(&tree, &reqs, Direction::Up, 16).unwrap();
        let down = build_interfaces(&tree, &reqs, Direction::Down, 16).unwrap();
        for v in tree.nodes() {
            assert_eq!(up.node(v).interface, down.node(v).interface);
        }
    }

    #[test]
    fn interfaces_zero_requirements_are_empty_rows() {
        let tree = Tree::from_parents(&[(1, 0), (2, 1)]);
        let reqs = Requirements::new();
        let set = build_interfaces(&tree, &reqs, Direction::Up, 16).unwrap();
        assert_eq!(set.gateway().interface.component(1), Some(rc(0, 1)));
        assert_eq!(set.node(NodeId(1)).interface.component(2), Some(rc(0, 1)));
        // Composition of an all-empty layer yields an empty composite.
        assert_eq!(set.gateway().interface.component(2), Some(rc(0, 0)));
    }

    #[test]
    fn interfaces_layouts_present_for_composed_layers_only() {
        let tree = Tree::paper_fig1_example();
        let set = build_interfaces(&tree, &star_reqs(&tree, 1), Direction::Up, 16).unwrap();
        let gw = set.gateway();
        assert!(!gw.layouts.contains_key(&1), "direct layer has no layout");
        assert!(gw.layouts.contains_key(&2));
        assert!(gw.layouts.contains_key(&3));
        // Layout of layer 2 places nodes 1, 2, 3 (the non-leaf children).
        let l2 = &gw.layouts[&2];
        assert_eq!(l2.placements().len(), 3);
    }

    #[test]
    fn interfaces_deep_chain() {
        // Chain 0←1←2←3←4: every interface is a stack of rows.
        let tree = Tree::from_parents(&[(1, 0), (2, 1), (3, 2), (4, 3)]);
        let set = build_interfaces(&tree, &star_reqs(&tree, 2), Direction::Up, 16).unwrap();
        let gw = &set.gateway().interface;
        for layer in 1..=4 {
            assert_eq!(gw.component(layer), Some(rc(2, 1)), "layer {layer}");
        }
        assert_eq!(set.node(NodeId(3)).interface.max_layer(), Some(4));
    }

    #[test]
    fn interface_channel_budget_error_propagates() {
        // 17 children of node 1, each with its own child → layer-2
        // composition needs 17 channels with equal rows of width 1... the
        // packer can use slots instead; force the error with a wide
        // multi-channel child: impossible since direct comps are rows.
        // Instead check budget=0 is rejected via composition of any row.
        let tree = Tree::from_parents(&[(1, 0), (2, 1)]);
        let err = build_interfaces(&tree, &star_reqs(&tree, 1), Direction::Up, 0).unwrap_err();
        assert!(matches!(err, HarpError::ChannelBudgetExceeded { .. }));
    }
}
