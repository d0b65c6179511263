//! A node's per-direction protocol state, and the undo log its writes feed.
//!
//! [`DirState`]'s fields are private to this module. Code outside it reads
//! them through getters and writes them only through a [`DirWriter`], whose
//! every setter hands the value it displaced — what `BTreeMap::insert` or
//! `mem::replace` returns, moved, never cloned — to an [`UndoLog`]. A
//! handler in `node.rs` therefore cannot change protocol state without the
//! log seeing it: the write would not compile. Replaying the log in reverse
//! puts every displaced value back, which is all a rollback of node state
//! is.

use crate::component::{ResourceComponent, ResourceInterface};
use crate::compose::CompositionLayout;
use crate::node::{HarpNode, NodeObsCounters};
use packing::Rect;
use std::collections::BTreeMap;
use std::mem;
use std::ops::Deref;
use tsch_sim::{Cell, Direction, NodeId};

/// Per-direction protocol state of a node.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct DirState {
    /// Cell requirements `r(e)` of the links to this node's children.
    reqs: BTreeMap<NodeId, u32>,
    /// Interfaces reported by non-leaf children.
    child_interfaces: BTreeMap<NodeId, ResourceInterface>,
    /// This node's own interface, once generated.
    interface: Option<ResourceInterface>,
    /// Composition layouts per composed layer (from the static phase).
    layouts: BTreeMap<u32, CompositionLayout>,
    /// Partitions granted to this node, per layer.
    partitions: BTreeMap<u32, Rect>,
    /// Partitions this node allocated to its children, per layer.
    child_partitions: BTreeMap<u32, Vec<(NodeId, Rect)>>,
    /// Cells this node assigned to each child link.
    assignments: BTreeMap<NodeId, Vec<Cell>>,
    /// Cells granted to this node's own link by its parent (`None` until
    /// the first `CellAssignment` arrives). Tracked so a re-delivered
    /// assignment is recognisable as a duplicate.
    own_cells: Option<Vec<Cell>>,
    /// Escalated layers awaiting a bigger partition from the parent:
    /// layer → the child whose component grew.
    pending: BTreeMap<u32, NodeId>,
}

impl DirState {
    pub(crate) fn reqs(&self) -> &BTreeMap<NodeId, u32> {
        &self.reqs
    }

    pub(crate) fn child_interfaces(&self) -> &BTreeMap<NodeId, ResourceInterface> {
        &self.child_interfaces
    }

    pub(crate) fn interface(&self) -> Option<&ResourceInterface> {
        self.interface.as_ref()
    }

    pub(crate) fn layouts(&self) -> &BTreeMap<u32, CompositionLayout> {
        &self.layouts
    }

    pub(crate) fn partitions(&self) -> &BTreeMap<u32, Rect> {
        &self.partitions
    }

    pub(crate) fn child_partitions(&self) -> &BTreeMap<u32, Vec<(NodeId, Rect)>> {
        &self.child_partitions
    }

    pub(crate) fn assignments(&self) -> &BTreeMap<NodeId, Vec<Cell>> {
        &self.assignments
    }

    pub(crate) fn own_cells(&self) -> Option<&Vec<Cell>> {
        self.own_cells.as_ref()
    }

    pub(crate) fn pending(&self) -> &BTreeMap<u32, NodeId> {
        &self.pending
    }

    /// Puts one displaced value back where its setter took it from.
    fn revert(&mut self, undo: DirUndo) {
        fn back<K: Ord, V>(map: &mut BTreeMap<K, V>, key: K, old: Option<V>) {
            put(map, key, old);
        }
        const SET: &str = "the interface was there when its component was set";
        match undo {
            DirUndo::Req(child, old) => back(&mut self.reqs, child, old),
            DirUndo::ChildInterface(child, old) => back(&mut self.child_interfaces, child, old),
            DirUndo::ChildComponent(child, layer, old) => self
                .child_interfaces
                .get_mut(&child)
                .expect(SET)
                .restore(layer, old),
            DirUndo::Interface(old) => self.interface = old,
            DirUndo::Component(layer, old) => {
                self.interface.as_mut().expect(SET).restore(layer, old);
            }
            DirUndo::Layouts(old) => self.layouts = old,
            DirUndo::Layout(layer, old) => back(&mut self.layouts, layer, old),
            DirUndo::Partition(layer, old) => back(&mut self.partitions, layer, old),
            DirUndo::ChildPartitions(layer, old) => back(&mut self.child_partitions, layer, old),
            DirUndo::Assignment(child, old) => back(&mut self.assignments, child, old),
            DirUndo::OwnCells(old) => self.own_cells = old,
            DirUndo::Pending(layer, old) => back(&mut self.pending, layer, old),
        }
    }
}

/// Stores `value` under `key`, or removes the key for `None`; returns what
/// was there. Its own inverse: `put(map, key, put(map, key, v))` changes
/// nothing.
fn put<K: Ord, V>(map: &mut BTreeMap<K, V>, key: K, value: Option<V>) -> Option<V> {
    match value {
        Some(v) => map.insert(key, v),
        None => map.remove(&key),
    }
}

/// The value one [`DirWriter`] setter displaced, keyed by where it sat.
#[derive(Debug)]
enum DirUndo {
    Req(NodeId, Option<u32>),
    ChildInterface(NodeId, Option<ResourceInterface>),
    ChildComponent(NodeId, u32, Option<ResourceComponent>),
    Interface(Option<ResourceInterface>),
    Component(u32, Option<ResourceComponent>),
    Layouts(BTreeMap<u32, CompositionLayout>),
    Layout(u32, Option<CompositionLayout>),
    Partition(u32, Option<Rect>),
    ChildPartitions(u32, Option<Vec<(NodeId, Rect)>>),
    Assignment(NodeId, Option<Vec<Cell>>),
    OwnCells(Option<Vec<Cell>>),
    Pending(u32, Option<NodeId>),
}

/// One log entry's payload: what to put back at a node.
#[derive(Debug)]
enum Undo {
    /// A displaced value of one direction's state.
    Dir(Direction, DirUndo),
    /// The node's counters before a bump.
    Counters(NodeObsCounters),
}

/// The displaced values of one transactional run, in write order.
///
/// Off, it drops what it is given, so writes outside a transaction cost
/// what they did without a log; recording, it keeps each displaced value
/// until the run commits (drop the log) or aborts ([`UndoLog::rollback`]).
#[derive(Debug)]
pub(crate) struct UndoLog {
    entries: Option<Vec<(NodeId, Undo)>>,
}

impl UndoLog {
    /// A log that records nothing.
    pub(crate) const fn off() -> Self {
        Self { entries: None }
    }

    /// An empty recording log, with room for what a local adjustment
    /// writes (its requirement, its counters, a row of cell assignments).
    pub(crate) fn recording() -> Self {
        Self {
            entries: Some(Vec::with_capacity(16)),
        }
    }

    pub(crate) fn is_recording(&self) -> bool {
        self.entries.is_some()
    }

    fn push(&mut self, node: NodeId, undo: Undo) {
        if let Some(entries) = &mut self.entries {
            entries.push((node, undo));
        }
    }

    /// Records `node`'s counters as they are, ahead of a change to them.
    pub(crate) fn save_counters(&mut self, node: NodeId, counters: NodeObsCounters) {
        self.push(node, Undo::Counters(counters));
    }

    /// Puts every recorded value back, newest first: the nodes are as they
    /// were when recording started.
    pub(crate) fn rollback(self, nodes: &mut [HarpNode]) {
        for (node, undo) in self.entries.into_iter().flatten().rev() {
            let node = &mut nodes[node.index()];
            match undo {
                Undo::Dir(direction, displaced) => node.dir_state_mut(direction).revert(displaced),
                Undo::Counters(counters) => node.restore_counters(counters),
            }
        }
    }
}

/// Write access to one direction of one node: every setter logs what it
/// displaces. Reads go through [`Deref`] to the [`DirState`] getters.
pub(crate) struct DirWriter<'a> {
    state: &'a mut DirState,
    log: &'a mut UndoLog,
    node: NodeId,
    direction: Direction,
}

impl Deref for DirWriter<'_> {
    type Target = DirState;

    fn deref(&self) -> &DirState {
        self.state
    }
}

impl<'a> DirWriter<'a> {
    pub(crate) fn new(
        state: &'a mut DirState,
        log: &'a mut UndoLog,
        node: NodeId,
        direction: Direction,
    ) -> Self {
        Self {
            state,
            log,
            node,
            direction,
        }
    }

    fn displaced(&mut self, undo: DirUndo) {
        self.log.push(self.node, Undo::Dir(self.direction, undo));
    }

    /// Sets (`Some`) or drops (`None`) the requirement of the link to
    /// `child`.
    pub(crate) fn put_req(&mut self, child: NodeId, cells: Option<u32>) {
        let old = put(&mut self.state.reqs, child, cells);
        self.displaced(DirUndo::Req(child, old));
    }

    /// Stores (`Some`) or forgets (`None`) the whole interface `child`
    /// reported.
    pub(crate) fn put_child_interface(&mut self, child: NodeId, iface: Option<ResourceInterface>) {
        let old = put(&mut self.state.child_interfaces, child, iface);
        self.displaced(DirUndo::ChildInterface(child, old));
    }

    /// Sets one component of `child`'s interface, starting an empty
    /// interface if the child had reported none.
    pub(crate) fn set_child_component(
        &mut self,
        child: NodeId,
        layer: u32,
        component: ResourceComponent,
    ) {
        if !self.state.child_interfaces.contains_key(&child) {
            self.put_child_interface(child, Some(ResourceInterface::new()));
        }
        let iface = self
            .state
            .child_interfaces
            .get_mut(&child)
            .expect("present or just inserted");
        let old = iface.set(layer, component);
        self.displaced(DirUndo::ChildComponent(child, layer, old));
    }

    /// Replaces this node's whole interface.
    pub(crate) fn set_interface(&mut self, iface: ResourceInterface) {
        let old = self.state.interface.replace(iface);
        self.displaced(DirUndo::Interface(old));
    }

    /// Sets one component of this node's interface; no-op before the
    /// interface was generated.
    pub(crate) fn set_component(&mut self, layer: u32, component: ResourceComponent) {
        if let Some(iface) = self.state.interface.as_mut() {
            let old = iface.set(layer, component);
            self.displaced(DirUndo::Component(layer, old));
        }
    }

    /// Replaces every composition layout.
    pub(crate) fn set_layouts(&mut self, layouts: BTreeMap<u32, CompositionLayout>) {
        let old = mem::replace(&mut self.state.layouts, layouts);
        self.displaced(DirUndo::Layouts(old));
    }

    pub(crate) fn set_layout(&mut self, layer: u32, layout: CompositionLayout) {
        let old = self.state.layouts.insert(layer, layout);
        self.displaced(DirUndo::Layout(layer, old));
    }

    pub(crate) fn set_partition(&mut self, layer: u32, rect: Rect) {
        let old = self.state.partitions.insert(layer, rect);
        self.displaced(DirUndo::Partition(layer, old));
    }

    pub(crate) fn set_child_partitions(&mut self, layer: u32, placed: Vec<(NodeId, Rect)>) {
        let old = self.state.child_partitions.insert(layer, placed);
        self.displaced(DirUndo::ChildPartitions(layer, old));
    }

    /// [`DirWriter::set_child_partitions`] for every composed layer, in one
    /// pass: stores what `place` makes of the layer's layout and this
    /// node's partitions (a caller cannot read those while it writes).
    pub(crate) fn place_child_partitions<E>(
        &mut self,
        mut place: impl FnMut(
            u32,
            &CompositionLayout,
            &BTreeMap<u32, Rect>,
        ) -> Result<Vec<(NodeId, Rect)>, E>,
    ) -> Result<(), E> {
        let DirState {
            layouts,
            partitions,
            child_partitions,
            ..
        } = &mut *self.state;
        for (&layer, layout) in layouts.iter() {
            let old = child_partitions.insert(layer, place(layer, layout, partitions)?);
            let undo = DirUndo::ChildPartitions(layer, old);
            self.log.push(self.node, Undo::Dir(self.direction, undo));
        }
        Ok(())
    }

    /// Stores (`Some`) or drops (`None`) the cells assigned to the link to
    /// `child`.
    pub(crate) fn put_assignment(&mut self, child: NodeId, cells: Option<Vec<Cell>>) {
        let old = put(&mut self.state.assignments, child, cells);
        self.displaced(DirUndo::Assignment(child, old));
    }

    pub(crate) fn set_own_cells(&mut self, cells: Vec<Cell>) {
        let old = self.state.own_cells.replace(cells);
        self.displaced(DirUndo::OwnCells(old));
    }

    /// Marks (`Some(requester)`) or clears (`None`) the escalation pending
    /// at `layer`.
    pub(crate) fn put_pending(&mut self, layer: u32, requester: Option<NodeId>) {
        let old = put(&mut self.state.pending, layer, requester);
        self.displaced(DirUndo::Pending(layer, old));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule_gen::SchedulingPolicy;
    use tsch_sim::{SlotframeConfig, Tree};

    /// Every setter once, each on a key that is there and on one that is
    /// not (or, for the whole-value setters, on `Some` and on `None`).
    fn write_everything(w: &mut DirWriter<'_>, round: u32) {
        let (kid, layer) = (NodeId(1 + round), 2 + round);
        let comp = ResourceComponent::new(3 + round, 2);
        let rect = Rect::from_xywh(round, 0, 4, 2);
        let layout =
            crate::compose::compose_components(&[(kid, comp)], 16, layer).expect("composes");
        w.put_req(kid, Some(7 + round));
        w.put_child_interface(kid, Some([(layer, comp)].into_iter().collect()));
        w.set_child_component(kid, layer + 1, comp);
        w.set_child_component(NodeId(90 + round), layer, comp);
        w.set_component(layer, comp);
        w.set_interface([(layer, comp)].into_iter().collect());
        w.set_component(layer, ResourceComponent::row(9));
        w.set_component(layer + 1, comp);
        w.set_layouts([(layer, layout.clone())].into_iter().collect());
        w.set_layout(layer, layout.clone());
        w.set_layout(layer + 1, layout);
        w.set_partition(layer, rect);
        w.set_child_partitions(layer, vec![(kid, rect)]);
        w.put_assignment(kid, Some(vec![Cell::new(round, 0)]));
        w.set_own_cells(vec![Cell::new(round, 1)]);
        w.put_pending(layer, Some(kid));
    }

    fn remove_everything(w: &mut DirWriter<'_>) {
        let kid = NodeId(1);
        w.put_req(kid, None);
        w.put_child_interface(kid, None);
        w.put_assignment(kid, None);
        w.put_pending(2, None);
        w.put_pending(77, None);
    }

    #[test]
    fn rollback_puts_every_displaced_value_back() {
        let tree = Tree::paper_fig1_example();
        let config = SlotframeConfig::paper_default();
        let mut nodes = [HarpNode::new(
            &tree,
            tree.root(),
            config,
            SchedulingPolicy::RateMonotonic,
        )];
        let d = Direction::Down;
        let empty = nodes[0].clone();

        // From nothing: every setter creates, a rollback leaves nothing.
        let mut log = UndoLog::recording();
        let mut w = DirWriter::new(nodes[0].dir_state_mut(d), &mut log, tree.root(), d);
        write_everything(&mut w, 0);
        assert_ne!(nodes[0], empty);
        log.rollback(&mut nodes);
        assert_eq!(nodes[0], empty);

        // From a populated state, written without a log: every setter
        // overwrites, adds or removes, a rollback restores the lot.
        let mut off = UndoLog::off();
        let mut w = DirWriter::new(nodes[0].dir_state_mut(d), &mut off, tree.root(), d);
        write_everything(&mut w, 0);
        let populated = nodes[0].clone();
        let mut log = UndoLog::recording();
        log.save_counters(tree.root(), *nodes[0].obs_counters());
        nodes[0].restore_counters(NodeObsCounters {
            escalations: 3,
            ..NodeObsCounters::default()
        });
        let mut w = DirWriter::new(nodes[0].dir_state_mut(d), &mut log, tree.root(), d);
        write_everything(&mut w, 0);
        write_everything(&mut w, 1);
        remove_everything(&mut w);
        assert_ne!(nodes[0], populated);
        log.rollback(&mut nodes);
        assert_eq!(nodes[0], populated);
    }
}
