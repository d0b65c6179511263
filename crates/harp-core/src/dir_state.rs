//! A node's per-direction protocol state, and the undo log its writes feed.
//!
//! [`DirState`]'s fields are private to this module. Code outside it reads
//! them through getters and writes them only through a [`DirWriter`], whose
//! every setter hands the value it displaced — what the table write or
//! `Option::replace` returns, moved, never cloned — to an [`UndoLog`]. A
//! handler in `node.rs` therefore cannot change protocol state without the
//! log seeing it: the write would not compile. Replaying the log in reverse
//! puts every displaced value back, which is all a rollback of node state
//! is — and, as a link's schedule row projects its child's own cells, of
//! the rows too.
//!
//! What a node keeps per child and per layer sits in two small sorted
//! tables, one row per child link and one per layer. A node has a handful
//! of children and its subtree a handful of layers, so a row is found by
//! walking the table, and a node-direction owns two heap blocks where a map
//! per field owned seven.

use crate::component::{ResourceComponent, ResourceInterface};
use crate::compose::CompositionLayout;
use crate::error::HarpError;
use crate::node::{HarpNode, NodeObsCounters};
use crate::schedule_gen::CellRun;
use packing::{Point, Rect};
use std::mem;
use std::ops::Deref;
use tsch_sim::{Direction, Link, NetworkSchedule, NodeId};

/// A row of one of [`DirState`]'s tables: a key and fields that may each
/// hold a value or not.
trait Row {
    type Key: Ord + Copy;

    /// The row of `key` with no field set.
    fn vacant(key: Self::Key) -> Self;

    fn key(&self) -> Self::Key;

    /// No field holds a value. Such a row says nothing, and a table never
    /// keeps one: states that read the same are then equal field by field,
    /// which is the equality the rollback referees compare nodes with.
    fn is_vacant(&self) -> bool;
}

/// What this node keeps about the link to one child.
#[derive(Debug, Clone, PartialEq, Eq)]
struct ChildLink {
    child: NodeId,
    /// The link's cell requirement `r(e)`.
    req: Option<u32>,
    /// The interface the child (a non-leaf) reported.
    interface: Option<ResourceInterface>,
    /// The cells this node assigned to the link.
    assignment: Option<CellRun>,
}

impl Row for ChildLink {
    type Key = NodeId;

    fn vacant(child: NodeId) -> Self {
        Self {
            child,
            req: None,
            interface: None,
            assignment: None,
        }
    }

    fn key(&self) -> NodeId {
        self.child
    }

    fn is_vacant(&self) -> bool {
        self.req.is_none() && self.interface.is_none() && self.assignment.is_none()
    }
}

/// What this node keeps about one layer of its subtree.
#[derive(Debug, Clone, PartialEq, Eq)]
struct LayerState {
    layer: u32,
    /// How the children's components were composed (layers below the own).
    layout: Option<CompositionLayout>,
    /// The partition granted to this node.
    partition: Option<Rect>,
    /// The partitions this node allocated to its children.
    child_partitions: Option<Vec<(NodeId, Rect)>>,
    /// An escalation awaiting a bigger partition from the parent: the child
    /// whose component grew.
    pending: Option<NodeId>,
}

impl Row for LayerState {
    type Key = u32;

    fn vacant(layer: u32) -> Self {
        Self {
            layer,
            layout: None,
            partition: None,
            child_partitions: None,
            pending: None,
        }
    }

    fn key(&self) -> u32 {
        self.layer
    }

    fn is_vacant(&self) -> bool {
        self.layout.is_none()
            && self.partition.is_none()
            && self.child_partitions.is_none()
            && self.pending.is_none()
    }
}

/// Stores `value` in one field of `key`'s row, or empties the field for
/// `None`; returns what the field held. The row is made when a value needs
/// one and removed when the write leaves it vacant, so the write is its own
/// inverse: `put(t, k, f, put(t, k, f, v))` changes nothing.
fn put<R: Row, V>(
    table: &mut Vec<R>,
    key: R::Key,
    field: impl Fn(&mut R) -> &mut Option<V>,
    value: Option<V>,
) -> Option<V> {
    let at = table.partition_point(|row| row.key() < key);
    match table.get_mut(at).filter(|row| row.key() == key) {
        Some(row) => {
            let old = mem::replace(field(row), value);
            if row.is_vacant() {
                table.remove(at);
            }
            old
        }
        None => {
            if value.is_some() {
                let mut row = R::vacant(key);
                *field(&mut row) = value;
                table.insert(at, row);
            }
            None
        }
    }
}

fn row<R: Row>(table: &[R], key: R::Key) -> Option<&R> {
    table.iter().find(|row| row.key() == key)
}

/// `slots`, or the overflow of `available` slots it is past `u32::MAX`.
fn slot_count(slots: u64, available: u32) -> Result<u32, HarpError> {
    u32::try_from(slots).map_err(|_| HarpError::SlotframeOverflow {
        needed_slots: slots,
        available,
    })
}

/// Per-direction protocol state of a node.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct DirState {
    /// One row per child link this node keeps anything about, by child.
    links: Vec<ChildLink>,
    /// This node's own interface, once generated.
    interface: Option<ResourceInterface>,
    /// One row per layer this node keeps anything about, by layer.
    layers: Vec<LayerState>,
    /// Cells granted to this node's own link by its parent (`None` until
    /// the first `CellAssignment` arrives): what the link has installed,
    /// which its schedule row projects, and how a re-delivery is seen.
    own_cells: Option<CellRun>,
}

impl DirState {
    /// Cell requirements `r(e)` of the links to this node's children, in
    /// child order.
    pub(crate) fn reqs(&self) -> impl Iterator<Item = (NodeId, u32)> + '_ {
        self.links.iter().filter_map(|l| Some((l.child, l.req?)))
    }

    /// The cells the links to this node's children need in all (its own
    /// row's slots); an overflow of `available` slots past `u32::MAX`.
    pub(crate) fn direct_demand(&self, available: u32) -> Result<u32, HarpError> {
        slot_count(self.reqs().map(|(_, r)| u64::from(r)).sum(), available)
    }

    pub(crate) fn req(&self, child: NodeId) -> Option<u32> {
        row(&self.links, child)?.req
    }

    /// Interfaces reported by non-leaf children, in child order.
    pub(crate) fn child_interfaces(
        &self,
    ) -> impl Iterator<Item = (NodeId, &ResourceInterface)> + Clone {
        self.links
            .iter()
            .filter_map(|l| Some((l.child, l.interface.as_ref()?)))
    }

    pub(crate) fn child_interface(&self, child: NodeId) -> Option<&ResourceInterface> {
        row(&self.links, child)?.interface.as_ref()
    }

    fn child_interface_mut(&mut self, child: NodeId) -> Option<&mut ResourceInterface> {
        let link = self.links.iter_mut().find(|l| l.child == child)?;
        link.interface.as_mut()
    }

    /// Cells this node assigned to the link to `child`.
    pub(crate) fn assignment(&self, child: NodeId) -> Option<&CellRun> {
        row(&self.links, child)?.assignment.as_ref()
    }

    pub(crate) fn interface(&self) -> Option<&ResourceInterface> {
        self.interface.as_ref()
    }

    pub(crate) fn own_cells(&self) -> Option<&CellRun> {
        self.own_cells.as_ref()
    }

    /// Composition layouts of the composed layers, in layer order.
    pub(crate) fn layouts(&self) -> impl Iterator<Item = (u32, &CompositionLayout)> {
        self.layers
            .iter()
            .filter_map(|l| Some((l.layer, l.layout.as_ref()?)))
    }

    pub(crate) fn layout(&self, layer: u32) -> Option<&CompositionLayout> {
        row(&self.layers, layer)?.layout.as_ref()
    }

    /// Partitions granted to this node, in layer order.
    pub(crate) fn partitions(&self) -> impl Iterator<Item = (u32, Rect)> + '_ {
        self.layers
            .iter()
            .filter_map(|l| Some((l.layer, l.partition?)))
    }

    pub(crate) fn partition(&self, layer: u32) -> Option<Rect> {
        row(&self.layers, layer)?.partition
    }

    /// Partitions this node allocated to its children, in layer order.
    pub(crate) fn child_partitions(&self) -> impl Iterator<Item = (u32, &[(NodeId, Rect)])> {
        self.layers
            .iter()
            .filter_map(|l| Some((l.layer, l.child_partitions.as_deref()?)))
    }

    pub(crate) fn child_partitions_at(&self, layer: u32) -> Option<&[(NodeId, Rect)]> {
        row(&self.layers, layer)?.child_partitions.as_deref()
    }

    /// The child whose grown component awaits a bigger partition at `layer`.
    pub(crate) fn pending(&self, layer: u32) -> Option<NodeId> {
        row(&self.layers, layer)?.pending
    }

    /// Puts one displaced value back where its setter took it from.
    fn revert(&mut self, undo: DirUndo) {
        const SET: &str = "the interface was there when its component was set";
        match undo {
            DirUndo::Req(child, old) => {
                put(&mut self.links, child, |l| &mut l.req, old);
            }
            DirUndo::ChildInterface(child, old) => {
                put(&mut self.links, child, |l| &mut l.interface, old);
            }
            DirUndo::ChildComponent(child, layer, old) => self
                .child_interface_mut(child)
                .expect(SET)
                .restore(layer, old),
            DirUndo::Interface(old) => self.interface = old,
            DirUndo::Component(layer, old) => {
                self.interface.as_mut().expect(SET).restore(layer, old);
            }
            DirUndo::Layout(layer, old) => {
                put(&mut self.layers, layer, |l| &mut l.layout, old);
            }
            DirUndo::Partition(layer, old) => {
                put(&mut self.layers, layer, |l| &mut l.partition, old);
            }
            DirUndo::ChildPartitions(layer, old) => {
                put(&mut self.layers, layer, |l| &mut l.child_partitions, old);
            }
            DirUndo::Assignment(child, old) => {
                put(&mut self.links, child, |l| &mut l.assignment, old);
            }
            DirUndo::OwnCells(old) => self.own_cells = old,
            DirUndo::Pending(layer, old) => {
                put(&mut self.layers, layer, |l| &mut l.pending, old);
            }
        }
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
    Layout(u32, Option<CompositionLayout>),
    Partition(u32, Option<Rect>),
    ChildPartitions(u32, Option<Vec<(NodeId, Rect)>>),
    Assignment(NodeId, Option<CellRun>),
    OwnCells(Option<CellRun>),
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

// A recording run allocates its log, so an adjustment's bytes follow the
// size of an entry, and a displaced run of cells is part of one. Measured
// on the benchmark's `adjust_storm`: with a 36-byte run (the row's height
// and the slot duration kept too, i.e. a `Rect` and a `SlotframeConfig`)
// an entry is 64 bytes and `alloc_kb_per_op` reads 32.34, more than the
// 31.65 it read with a vector of cells per link; with the 28-byte run an
// entry stays 56 bytes and it reads 31.33.
const _: () = assert!(mem::size_of::<CellRun>() <= 28);
const _: () = assert!(mem::size_of::<(NodeId, Undo)>() <= 56);

/// The displaced values of one transactional run, in write order.
///
/// Off, it drops what it is given, so writes outside a transaction cost
/// what they did without a log; recording, it keeps each displaced value
/// until the run commits (drop the log) or aborts ([`UndoLog::rollback`]).
/// The default is off.
#[derive(Debug, Default)]
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

    /// Puts every recorded value back, newest first, writing each own-cells
    /// run put back into its link's row of `schedule`: the nodes and rows
    /// are as they were when recording started, and so is the `version`.
    pub(crate) fn rollback(
        self,
        nodes: &mut [HarpNode],
        schedule: &mut NetworkSchedule,
        version: u64,
    ) {
        // `restore_rows` drives the replay, taking each restored run as the
        // replay reaches it.
        let rows = self.entries.into_iter().flatten().rev();
        let rows = rows.filter_map(|(child, undo)| {
            let node = &mut nodes[child.index()];
            match undo {
                Undo::Dir(direction, displaced) => {
                    let own = matches!(displaced, DirUndo::OwnCells(_));
                    let state = node.dir_state_mut(direction);
                    state.revert(displaced);
                    let link = Link { child, direction };
                    own.then(|| (link, state.own_cells.clone().unwrap_or_default()))
                }
                Undo::Counters(counters) => {
                    node.restore_counters(counters);
                    None
                }
            }
        });
        schedule.restore_rows(rows, version);
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
        let old = put(&mut self.state.links, child, |l| &mut l.req, cells);
        self.displaced(DirUndo::Req(child, old));
    }

    /// Stores (`Some`) or forgets (`None`) the whole interface `child`
    /// reported.
    pub(crate) fn put_child_interface(&mut self, child: NodeId, iface: Option<ResourceInterface>) {
        let old = put(&mut self.state.links, child, |l| &mut l.interface, iface);
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
        if self.state.child_interface(child).is_none() {
            self.put_child_interface(child, Some(ResourceInterface::new()));
        }
        let iface = self
            .state
            .child_interface_mut(child)
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

    pub(crate) fn set_layout(&mut self, layer: u32, layout: CompositionLayout) {
        let old = put(
            &mut self.state.layers,
            layer,
            |l| &mut l.layout,
            Some(layout),
        );
        self.displaced(DirUndo::Layout(layer, old));
    }

    pub(crate) fn set_partition(&mut self, layer: u32, rect: Rect) {
        let old = put(
            &mut self.state.layers,
            layer,
            |l| &mut l.partition,
            Some(rect),
        );
        self.displaced(DirUndo::Partition(layer, old));
    }

    /// [`DirWriter::set_partition`] for every layer of this node's
    /// interface, in one pass (a caller cannot read the interface while it
    /// writes): the layers' components side by side along the slot axis
    /// from `cursor` on, deepest layer first if `descending`. Returns the
    /// slot after the last one, or, placing nothing, the overflow of
    /// `available` slots when that slot is past `u32::MAX`.
    pub(crate) fn place_partitions_in_a_row(
        &mut self,
        mut cursor: u32,
        descending: bool,
        available: u32,
    ) -> Result<u32, HarpError> {
        let DirState {
            interface, layers, ..
        } = &mut *self.state;
        let iface = interface.as_ref().expect("generated before allocation");
        let slots: u64 = iface.iter().map(|(_, c)| u64::from(c.slots)).sum();
        slot_count(u64::from(cursor) + slots, available)?;
        let mut place = |(layer, c): (u32, ResourceComponent)| {
            let rect = Rect::new(Point::new(cursor, 0), c.as_size());
            let old = put(layers, layer, |l| &mut l.partition, Some(rect));
            let undo = DirUndo::Partition(layer, old);
            self.log.push(self.node, Undo::Dir(self.direction, undo));
            cursor += c.slots;
        };
        if descending {
            iface.iter().rev().for_each(&mut place);
        } else {
            iface.iter().for_each(&mut place);
        }
        Ok(cursor)
    }

    pub(crate) fn set_child_partitions(&mut self, layer: u32, placed: Vec<(NodeId, Rect)>) {
        let old = put(
            &mut self.state.layers,
            layer,
            |l| &mut l.child_partitions,
            Some(placed),
        );
        self.displaced(DirUndo::ChildPartitions(layer, old));
    }

    /// [`DirWriter::set_child_partitions`] for every composed layer, in one
    /// pass: stores what `place` makes of the layer's layout and this
    /// node's partition there (a caller cannot read those while it writes).
    pub(crate) fn place_child_partitions<E>(
        &mut self,
        mut place: impl FnMut(u32, &CompositionLayout, Option<Rect>) -> Result<Vec<(NodeId, Rect)>, E>,
    ) -> Result<(), E> {
        for row in &mut self.state.layers {
            let Some(layout) = &row.layout else {
                continue;
            };
            let placed = place(row.layer, layout, row.partition)?;
            let old = row.child_partitions.replace(placed);
            let undo = DirUndo::ChildPartitions(row.layer, old);
            self.log.push(self.node, Undo::Dir(self.direction, undo));
        }
        Ok(())
    }

    /// Stores (`Some`) or drops (`None`) the cells assigned to the link to
    /// `child`.
    pub(crate) fn put_assignment(&mut self, child: NodeId, cells: Option<CellRun>) {
        let old = put(&mut self.state.links, child, |l| &mut l.assignment, cells);
        self.displaced(DirUndo::Assignment(child, old));
    }

    pub(crate) fn set_own_cells(&mut self, cells: CellRun) {
        let old = self.state.own_cells.replace(cells);
        self.displaced(DirUndo::OwnCells(old));
    }

    /// Marks (`Some(requester)`) or clears (`None`) the escalation pending
    /// at `layer`.
    pub(crate) fn put_pending(&mut self, layer: u32, requester: Option<NodeId>) {
        let old = put(&mut self.state.layers, layer, |l| &mut l.pending, requester);
        self.displaced(DirUndo::Pending(layer, old));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule_gen::SchedulingPolicy;
    use tsch_sim::SlotframeConfig;

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
        w.set_layout(layer, layout.clone());
        w.set_layout(layer + 1, layout);
        w.set_partition(layer, rect);
        w.place_partitions_in_a_row(round, round == 0, 199)
            .expect("fits a u32");
        w.set_child_partitions(layer, vec![(kid, rect)]);
        w.place_child_partitions(|_, layout, own| match own {
            Some(own) => Ok(vec![(kid, own), (kid, layout.placements()[0].1)]),
            None => Err(()),
        })
        .expect("both layers with a layout have a partition");
        let config = SlotframeConfig::paper_default();
        w.put_assignment(kid, Some(CellRun::new(rect, config, 0..1)));
        w.set_own_cells(CellRun::new(rect, config, 4..5));
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
    fn a_table_write_is_its_own_inverse_at_every_position() {
        let rect = |l: u32| Rect::from_xywh(l, 0, 3, 1);
        // Rows 2, 4 and 6 hold a partition, row 4 a pending requester too.
        let mut table: Vec<LayerState> = Vec::new();
        for layer in [4, 2, 6] {
            put(&mut table, layer, |l| &mut l.partition, Some(rect(layer)));
        }
        put(&mut table, 4, |l| &mut l.pending, Some(NodeId(9)));
        let before = table.clone();

        // Keys before, between and after the rows, and the first, middle
        // and last row; a value, and the `None` that empties rows 2 and 6
        // but not row 4.
        for layer in 1..=7 {
            for value in [Some(rect(99)), None] {
                let old = put(&mut table, layer, |l| &mut l.partition, value);
                assert_eq!(
                    old,
                    before
                        .iter()
                        .find(|l| l.layer == layer)
                        .map(|_| rect(layer))
                );
                assert_eq!(row(&table, layer).and_then(|l| l.partition), value);
                assert_eq!(row(&table, layer).is_some(), value.is_some() || layer == 4);
                assert!(table.windows(2).all(|w| w[0].layer < w[1].layer));
                assert!(!table.iter().any(Row::is_vacant));

                let written = put(&mut table, layer, |l| &mut l.partition, old);
                assert_eq!(written, value);
                assert_eq!(table, before, "layer {layer}, {value:?}");
            }
        }
    }

    #[test]
    fn rollback_puts_every_displaced_value_back() {
        let config = SlotframeConfig::paper_default();
        let root = NodeId(0);
        let mut nodes = [HarpNode::new(root, config, SchedulingPolicy::RateMonotonic)];
        let d = Direction::Down;
        let empty = nodes[0].clone();
        let mut schedule = NetworkSchedule::new(config);

        // From nothing: every setter creates, a rollback leaves nothing.
        let mut log = UndoLog::recording();
        let mut w = DirWriter::new(nodes[0].dir_state_mut(d), &mut log, root, d);
        write_everything(&mut w, 0);
        assert_ne!(nodes[0], empty);
        log.rollback(&mut nodes, &mut schedule, 7);
        assert_eq!(nodes[0], empty);
        assert_eq!(schedule.cells_of(Link::down(root)), []);
        assert_eq!(schedule.version(), 7, "restored verbatim");

        // From a populated state, written without a log: every setter
        // overwrites, adds or removes, a rollback restores the lot.
        let mut off = UndoLog::off();
        let mut w = DirWriter::new(nodes[0].dir_state_mut(d), &mut off, root, d);
        write_everything(&mut w, 0);
        let populated = nodes[0].clone();
        let mut log = UndoLog::recording();
        log.save_counters(root, *nodes[0].obs_counters());
        nodes[0].restore_counters(NodeObsCounters {
            escalations: 3,
            ..NodeObsCounters::default()
        });
        let mut w = DirWriter::new(nodes[0].dir_state_mut(d), &mut log, root, d);
        write_everything(&mut w, 0);
        write_everything(&mut w, 1);
        remove_everything(&mut w);
        assert_ne!(nodes[0], populated);
        log.rollback(&mut nodes, &mut schedule, 0);
        assert_eq!(nodes[0], populated);
        // The link's row projects the own cells the replay put back.
        let installed = nodes[0].installed(d).to_vec();
        assert_eq!(installed.len(), 1);
        assert_eq!(schedule.cells_of(Link::down(root)), installed);
    }
}
