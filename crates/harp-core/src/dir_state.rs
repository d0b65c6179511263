//! The protocol state of every node of a network, in network-wide tables,
//! and the undo log their writes feed.
//!
//! [`NodeTables`] keeps what the paper's nodes keep — per child link and
//! per layer of their subtree — in a few tables the network owns:
//!
//! - **the link table**, one row per directed link, dense by link id, for
//!   what the link's parent keeps: its requirement, the interface the child
//!   reported and the cells it assigned. A link has one parent, so a
//!   node's rows are its children's links, in the tree's child order;
//! - **the node table**, one fixed-size record per node: each direction's
//!   own interface, its run of layer rows and its own cells, and the
//!   counters;
//! - **three pools** of runs ([`RunPool`]): layer rows (layer, layout,
//!   partition, children's partitions, pending escalation), kept sorted
//!   by layer; interface components `(layer, component)`, both the node's
//!   own interfaces and the parent's copies; and `(child, rectangle)`
//!   placements, both the layouts' and the children's partitions.
//!
//! A create sizes the pools from the tree, so the static phase writes
//! every run once, at the pools' tails, and allocates no more.
//!
//! Code outside this module reads the tables through a [`DirView`] and
//! writes them only through a [`DirWriter`], whose every setter hands what
//! it displaced to an [`UndoLog`]. A handler in `node.rs` therefore cannot
//! change protocol state without the log seeing it: the write would not
//! compile. A write of a field overwrites it in place and logs the value
//! it displaced. A write that changes a run's length — a row or component
//! added, a whole run replaced — is copy-on-write while the log records:
//! the new run goes to the pool's tail, the old items stay where they were,
//! and the log keeps the old descriptor, so an entry never holds more than
//! a descriptor, a field or a run of cells. Replaying the log newest-first
//! puts every field and descriptor back, which is all a rollback of node
//! state is — and, as a link's schedule row projects its child's own
//! cells, of the rows too. A pool compacts only while no log records, as
//! a compaction moves the items a logged descriptor points at.
//!
//! Rows are never removed: a layer row whose fields are all empty reads as
//! no row at all, through every getter.

use crate::component::{ResourceComponent, ResourceInterface};
use crate::error::HarpError;
use crate::node::NodeObsCounters;
use crate::requirement::Requirements;
use crate::schedule_gen::CellRun;
use packing::{Point, Rect};
use std::ops::RangeInclusive;
use std::{fmt, mem};
use tsch_sim::{Direction, Link, NetworkSchedule, NodeId, Run, RunPool, Tree};

/// An interface as the tables keep it: `(layer, component)` in layer order.
pub(crate) type Components = [(u32, ResourceComponent)];

/// How the children's components at one layer were composed: the composite
/// and, in the placement pool, where each child landed.
#[derive(Debug, Clone, Copy)]
struct Layout {
    composite: ResourceComponent,
    placements: Run,
}

/// What a node keeps about one layer of its subtree, in one direction.
#[derive(Debug, Clone, Copy)]
struct LayerRow {
    layer: u32,
    /// How the children's components were composed (layers below the own).
    layout: Option<Layout>,
    /// The partition granted to this node.
    partition: Option<Rect>,
    /// The partitions this node allocated to its children.
    child_partitions: Option<Run>,
    /// An escalation awaiting a bigger partition from the parent: the child
    /// whose component grew.
    pending: Option<NodeId>,
}

impl LayerRow {
    fn vacant(layer: u32) -> Self {
        Self {
            layer,
            layout: None,
            partition: None,
            child_partitions: None,
            pending: None,
        }
    }
}

/// What a link's parent keeps about it.
#[derive(Debug, Clone, Default)]
struct LinkRow {
    /// The link's cell requirement `r(e)`.
    req: Option<u32>,
    /// The interface the child (a non-leaf) reported.
    interface: Option<Run>,
    /// The cells the parent assigned to the link.
    assignment: Option<CellRun>,
}

/// One direction of one node's fixed-size state.
#[derive(Debug, Clone, Default)]
struct DirRecord {
    /// This node's own interface, once generated.
    interface: Option<Run>,
    /// The node's layer rows, sorted by layer.
    layers: Run,
    /// Cells granted to this node's own link by its parent (`None` until
    /// the first `CellAssignment` arrives): what the link has installed,
    /// which its schedule row projects, and how a re-delivery is seen.
    own_cells: Option<CellRun>,
}

#[derive(Debug, Clone, Default)]
struct NodeRecord {
    dirs: [DirRecord; 2],
    counters: NodeObsCounters,
}

fn side(direction: Direction) -> usize {
    usize::from(direction == Direction::Down)
}

/// `slots`, or the overflow of `available` slots it is past `u32::MAX`.
fn slot_count(slots: u64, available: u32) -> Result<u32, HarpError> {
    u32::try_from(slots).map_err(|_| HarpError::SlotframeOverflow {
        needed_slots: slots,
        available,
    })
}

/// Writes a run into `slot` through `write`, making the run if the slot
/// held none; returns what the slot held.
fn write_slot<T: Copy>(
    pool: &mut RunPool<T>,
    slot: &mut Option<Run>,
    write: impl FnOnce(&mut RunPool<T>, &mut Run) -> Run,
) -> Option<Run> {
    let old = *slot;
    let mut run = old.unwrap_or_default();
    write(pool, &mut run);
    *slot = Some(run);
    old
}

/// Puts `old` back into `slot`, a run descriptor a logged write displaced.
fn restore_slot<T: Copy>(pool: &mut RunPool<T>, slot: &mut Option<Run>, old: Option<Run>) {
    pool.restore(*slot, old);
    *slot = old;
}

/// The entry of `layer` in a run of components.
fn component_mut(
    pool: &mut RunPool<(u32, ResourceComponent)>,
    run: Run,
    layer: u32,
) -> Option<&mut ResourceComponent> {
    let entry = pool.get_mut(run).iter_mut().find(|(l, _)| *l == layer)?;
    Some(&mut entry.1)
}

/// The protocol state of every node of one network: see the module docs.
#[derive(Debug, Clone, Default)]
pub(crate) struct NodeTables {
    nodes: Vec<NodeRecord>,
    /// Dense by `Link::dense_id`, two rows per node.
    links: Vec<LinkRow>,
    layers: RunPool<LayerRow>,
    components: RunPool<(u32, ResourceComponent)>,
    placements: RunPool<(NodeId, Rect)>,
}

impl NodeTables {
    /// The tables of a network on `tree` that holds nothing but
    /// `requirements`, each link's at its row, sized for what the static
    /// phase writes: every non-leaf node-direction holds a row and a
    /// component per layer from its own to its subtree's deepest, its
    /// parent a copy of those components, its parent's layout and
    /// children's partitions a placement per layer.
    pub(crate) fn new(tree: &Tree, requirements: &Requirements) -> Self {
        let (mut rows, mut reported) = (0, 0);
        for v in tree.nodes().filter(|&v| !tree.is_leaf(v)) {
            let layers = (tree.subtree_layer(v) - tree.depth(v)) as usize;
            rows += layers;
            if v != tree.root() {
                reported += layers;
            }
        }
        let mut links = vec![LinkRow::default(); 2 * tree.len()];
        // The gateway's two ids name no link.
        let set = links.iter_mut().zip(requirements.dense()).skip(2);
        for (row, &cells) in set.filter(|(_, &cells)| cells > 0) {
            row.req = Some(cells);
        }
        // Room to spare, so the runs a transaction moves fit beside the
        // garbage it leaves until the pool compacts after it.
        let room = |live: usize| live + live / 8 + 32;
        Self {
            nodes: vec![NodeRecord::default(); tree.len()],
            links,
            layers: RunPool::with_capacity(room(2 * rows)),
            components: RunPool::with_capacity(room(2 * (rows + reported))),
            placements: RunPool::with_capacity(room(4 * reported)),
        }
    }

    /// Adds the record and link rows of a node that joined.
    pub(crate) fn add_node(&mut self) {
        self.nodes.push(NodeRecord::default());
        self.links.resize(2 * self.nodes.len(), LinkRow::default());
    }

    /// Drops the nodes from `len` on (joined ones a rollback cut off).
    pub(crate) fn truncate(&mut self, len: usize) {
        self.nodes.truncate(len);
        self.links.truncate(2 * len);
    }

    pub(crate) fn len(&self) -> usize {
        self.nodes.len()
    }

    /// One direction of `node`'s state, to read.
    pub(crate) fn dir<'a>(&'a self, tree: &'a Tree, node: NodeId, d: Direction) -> DirView<'a> {
        DirView {
            tables: self,
            tree,
            node,
            direction: d,
        }
    }

    pub(crate) fn counters(&self, node: NodeId) -> &NodeObsCounters {
        &self.nodes[node.index()].counters
    }

    /// Changes `node`'s counters, saving them to `log` first.
    pub(crate) fn count(
        &mut self,
        log: &mut UndoLog,
        node: NodeId,
        change: impl FnOnce(&mut NodeObsCounters),
    ) {
        let counters = &mut self.nodes[node.index()].counters;
        log.push(node, Undo::Counters(*counters));
        change(counters);
    }

    /// Packs each pool whose garbage outgrew its room or half of it, unless
    /// `log` records: a recording log holds descriptors of items a
    /// compaction would move. Returns whether it was free to compact.
    pub(crate) fn compact(&mut self, log: &UndoLog) -> bool {
        fn wanted<T: Copy>(pool: &RunPool<T>) -> bool {
            pool.wants_compaction() || pool.garbage() > pool.room()
        }
        if log.is_recording() {
            return false;
        }
        let Self {
            nodes,
            links,
            layers,
            components,
            placements,
        } = self;
        if wanted(components) {
            components.compact(|each| {
                let owned = nodes.iter_mut().flat_map(|n| &mut n.dirs);
                owned
                    .filter_map(|dir| dir.interface.as_mut())
                    .for_each(&mut *each);
                let reported = links.iter_mut().filter_map(|l| l.interface.as_mut());
                reported.for_each(each);
            });
        }
        if wanted(placements) {
            placements.compact(|each| {
                for dir in nodes.iter().flat_map(|n| &n.dirs) {
                    for row in layers.get_mut(dir.layers) {
                        if let Some(layout) = &mut row.layout {
                            each(&mut layout.placements);
                        }
                        if let Some(run) = &mut row.child_partitions {
                            each(run);
                        }
                    }
                }
            });
        }
        if wanted(layers) {
            layers.compact(|each| {
                for dir in nodes.iter_mut().flat_map(|n| &mut n.dirs) {
                    each(&mut dir.layers);
                }
            });
        }
        true
    }

    /// Puts one displaced value of `node`'s `d` state back where its setter
    /// took it from; returns the link whose own cells it put back.
    fn revert(&mut self, node: NodeId, d: Direction, undo: DirUndo) -> Option<Link> {
        const HELD: &str = "a logged write's run or row is there until it is reverted";
        let Self {
            nodes,
            links,
            layers,
            components,
            placements,
        } = self;
        let dir = &mut nodes[node.index()].dirs[side(d)];
        let link = |child| {
            Link {
                child,
                direction: d,
            }
            .dense_id()
        };
        fn row(rows: &mut [LayerRow], layer: u32) -> &mut LayerRow {
            rows.iter_mut().find(|r| r.layer == layer).expect(HELD)
        }
        match undo {
            DirUndo::Req(child, old) => links[link(child)].req = old,
            DirUndo::ChildInterface(child, old) => {
                restore_slot(components, &mut links[link(child)].interface, old);
            }
            DirUndo::ChildComponent(child, layer, old) => {
                let run = links[link(child)].interface.expect(HELD);
                *component_mut(components, run, layer).expect(HELD) = old;
            }
            DirUndo::Interface(old) => restore_slot(components, &mut dir.interface, old),
            DirUndo::Component(layer, old) => {
                let run = dir.interface.expect(HELD);
                *component_mut(components, run, layer).expect(HELD) = old;
            }
            DirUndo::Layers(old) => {
                layers.restore(Some(dir.layers), Some(old));
                dir.layers = old;
            }
            DirUndo::Layout(layer, old) => {
                let row = row(layers.get_mut(dir.layers), layer);
                let placed = |l: Option<Layout>| l.map(|l| l.placements);
                placements.restore(placed(row.layout), placed(old));
                row.layout = old;
            }
            DirUndo::Partition(layer, old) => {
                row(layers.get_mut(dir.layers), layer).partition = old
            }
            DirUndo::ChildPartitions(layer, old) => {
                let row = row(layers.get_mut(dir.layers), layer);
                restore_slot(placements, &mut row.child_partitions, old);
            }
            DirUndo::Assignment(child, old) => links[link(child)].assignment = old,
            DirUndo::OwnCells(old) => {
                dir.own_cells = old;
                return Some(Link {
                    child: node,
                    direction: d,
                });
            }
            DirUndo::Pending(layer, old) => row(layers.get_mut(dir.layers), layer).pending = old,
            DirUndo::Placement(layer, which, i, old) => {
                let row = row(layers.get_mut(dir.layers), layer);
                let run = match which {
                    Placed::Layout => row.layout.map(|l| l.placements),
                    Placed::Children => row.child_partitions,
                };
                placements.get_mut(run.expect(HELD))[i as usize] = old;
            }
        }
        None
    }
}

/// Read access to one direction of one node's state. A link row belongs to
/// the node only while the tree makes it the link's parent.
#[derive(Clone, Copy)]
pub(crate) struct DirView<'a> {
    tables: &'a NodeTables,
    tree: &'a Tree,
    node: NodeId,
    direction: Direction,
}

impl<'a> DirView<'a> {
    fn record(self) -> &'a DirRecord {
        &self.tables.nodes[self.node.index()].dirs[side(self.direction)]
    }

    fn link_row(self, child: NodeId) -> &'a LinkRow {
        let direction = self.direction;
        &self.tables.links[Link { child, direction }.dense_id()]
    }

    fn link(self, child: NodeId) -> Option<&'a LinkRow> {
        let ours = child.index() < self.tree.len() && self.tree.parent(child) == Some(self.node);
        ours.then(|| self.link_row(child))
    }

    /// This node's children with their link rows, in child order.
    fn children(self) -> impl Iterator<Item = (NodeId, &'a LinkRow)> + Clone + 'a {
        let children = self.tree.children(self.node).iter();
        children.map(move |&c| (c, self.link_row(c)))
    }

    fn rows(self) -> &'a [LayerRow] {
        self.tables.layers.get(self.record().layers)
    }

    fn row(self, layer: u32) -> Option<&'a LayerRow> {
        self.rows().iter().find(|r| r.layer == layer)
    }

    /// Cell requirements `r(e)` of the links to this node's children, in
    /// child order.
    pub(crate) fn reqs(self) -> impl Iterator<Item = (NodeId, u32)> + 'a {
        self.children().filter_map(|(c, l)| Some((c, l.req?)))
    }

    /// The cells the links to this node's children need in all (its own
    /// row's slots); an overflow of `available` slots past `u32::MAX`.
    pub(crate) fn direct_demand(self, available: u32) -> Result<u32, HarpError> {
        slot_count(self.reqs().map(|(_, r)| u64::from(r)).sum(), available)
    }

    pub(crate) fn req(self, child: NodeId) -> Option<u32> {
        self.link(child)?.req
    }

    /// Interfaces reported by non-leaf children, in child order.
    pub(crate) fn child_interfaces(
        self,
    ) -> impl Iterator<Item = (NodeId, &'a Components)> + Clone + 'a {
        let pool = &self.tables.components;
        self.children()
            .filter_map(move |(c, l)| Some((c, pool.get(l.interface?))))
    }

    pub(crate) fn child_interface(self, child: NodeId) -> Option<&'a Components> {
        Some(self.tables.components.get(self.link(child)?.interface?))
    }

    /// Cells this node assigned to the link to `child`.
    pub(crate) fn assignment(self, child: NodeId) -> Option<&'a CellRun> {
        self.link(child)?.assignment.as_ref()
    }

    /// Cells this node assigned to its children's links, in child order.
    pub(crate) fn assignments(self) -> impl Iterator<Item = (NodeId, &'a CellRun)> + 'a {
        self.children()
            .filter_map(|(c, l)| Some((c, l.assignment.as_ref()?)))
    }

    pub(crate) fn interface(self) -> Option<&'a Components> {
        Some(self.tables.components.get(self.record().interface?))
    }

    pub(crate) fn own_cells(self) -> Option<&'a CellRun> {
        self.record().own_cells.as_ref()
    }

    /// Composition layouts of the composed layers, in layer order: each
    /// layer's composite and the children's placements inside it.
    pub(crate) fn layouts(
        self,
    ) -> impl Iterator<Item = (u32, ResourceComponent, &'a [(NodeId, Rect)])> + 'a {
        let pool = &self.tables.placements;
        self.rows().iter().filter_map(move |r| {
            let l = r.layout?;
            Some((r.layer, l.composite, pool.get(l.placements)))
        })
    }

    pub(crate) fn layout(self, layer: u32) -> Option<&'a [(NodeId, Rect)]> {
        Some(
            self.tables
                .placements
                .get(self.row(layer)?.layout?.placements),
        )
    }

    /// Partitions granted to this node, in layer order.
    pub(crate) fn partitions(self) -> impl Iterator<Item = (u32, Rect)> + 'a {
        self.rows()
            .iter()
            .filter_map(|r| Some((r.layer, r.partition?)))
    }

    pub(crate) fn partition(self, layer: u32) -> Option<Rect> {
        self.row(layer)?.partition
    }

    /// Partitions this node allocated to its children, in layer order.
    pub(crate) fn child_partitions(self) -> impl Iterator<Item = (u32, &'a [(NodeId, Rect)])> + 'a {
        let pool = &self.tables.placements;
        self.rows()
            .iter()
            .filter_map(move |r| Some((r.layer, pool.get(r.child_partitions?))))
    }

    pub(crate) fn child_partitions_at(self, layer: u32) -> Option<&'a [(NodeId, Rect)]> {
        Some(
            self.tables
                .placements
                .get(self.row(layer)?.child_partitions?),
        )
    }

    /// The child whose grown component awaits a bigger partition at `layer`.
    pub(crate) fn pending(self, layer: u32) -> Option<NodeId> {
        self.row(layer)?.pending
    }

    /// Every pending escalation, in layer order.
    pub(crate) fn pendings(self) -> impl Iterator<Item = (u32, NodeId)> + 'a {
        self.rows()
            .iter()
            .filter_map(|r| Some((r.layer, r.pending?)))
    }
}

/// What every getter reads, never where it sits.
impl fmt::Debug for DirView<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let v = *self;
        f.debug_struct("DirView")
            .field("reqs", &v.reqs().collect::<Vec<_>>())
            .field(
                "child_interfaces",
                &v.child_interfaces().collect::<Vec<_>>(),
            )
            .field("interface", &v.interface())
            .field("layouts", &v.layouts().collect::<Vec<_>>())
            .field("partitions", &v.partitions().collect::<Vec<_>>())
            .field(
                "child_partitions",
                &v.child_partitions().collect::<Vec<_>>(),
            )
            .field("pending", &v.pendings().collect::<Vec<_>>())
            .field("assignments", &v.assignments().collect::<Vec<_>>())
            .field("own_cells", &v.own_cells())
            .finish()
    }
}

/// The value one [`DirWriter`] setter displaced, keyed by where it sat: a
/// field, or the descriptor of a run the write moved.
#[derive(Debug)]
enum DirUndo {
    Req(NodeId, Option<u32>),
    ChildInterface(NodeId, Option<Run>),
    ChildComponent(NodeId, u32, ResourceComponent),
    Interface(Option<Run>),
    Component(u32, ResourceComponent),
    Layers(Run),
    Layout(u32, Option<Layout>),
    Partition(u32, Option<Rect>),
    ChildPartitions(u32, Option<Run>),
    Assignment(NodeId, Option<CellRun>),
    OwnCells(Option<CellRun>),
    Pending(u32, Option<NodeId>),
    Placement(u32, Placed, u32, (NodeId, Rect)),
}

/// One of a layer row's two runs of placements.
#[derive(Debug, Clone, Copy)]
enum Placed {
    /// Where the layout placed each child inside the composite.
    Layout,
    /// The partitions allocated to the children.
    Children,
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

    /// Puts every recorded value back, newest first, writing each own-cells
    /// run put back into its link's row of `schedule`: the tables and rows
    /// are as they were when recording started, and so is the `version`.
    pub(crate) fn rollback(
        self,
        tables: &mut NodeTables,
        schedule: &mut NetworkSchedule,
        version: u64,
    ) {
        // `restore_rows` drives the replay, taking each restored run as the
        // replay reaches it.
        let rows = self.entries.into_iter().flatten().rev();
        let rows = rows.filter_map(|(node, undo)| match undo {
            Undo::Dir(direction, displaced) => {
                let link = tables.revert(node, direction, displaced)?;
                let dir = &tables.nodes[node.index()].dirs[side(direction)];
                Some((link, dir.own_cells.clone().unwrap_or_default()))
            }
            Undo::Counters(counters) => {
                tables.nodes[node.index()].counters = counters;
                None
            }
        });
        schedule.restore_rows(rows, version);
    }
}

/// Write access to one direction of one node: every setter logs what it
/// displaces. Reads go through [`DirWriter::read`].
pub(crate) struct DirWriter<'a> {
    tables: &'a mut NodeTables,
    log: &'a mut UndoLog,
    tree: &'a Tree,
    node: NodeId,
    direction: Direction,
}

impl<'a> DirWriter<'a> {
    pub(crate) fn new(
        tables: &'a mut NodeTables,
        log: &'a mut UndoLog,
        tree: &'a Tree,
        node: NodeId,
        direction: Direction,
    ) -> Self {
        Self {
            tables,
            log,
            tree,
            node,
            direction,
        }
    }

    /// The state as written so far.
    pub(crate) fn read(&self) -> DirView<'_> {
        self.tables.dir(self.tree, self.node, self.direction)
    }

    /// Whether a write may go over what it replaces: only while no log
    /// records, as a recording log may need the old items back.
    fn in_place(&self) -> bool {
        !self.log.is_recording()
    }

    fn displaced(&mut self, undo: DirUndo) {
        self.log.push(self.node, Undo::Dir(self.direction, undo));
    }

    fn record_mut(&mut self) -> &mut DirRecord {
        &mut self.tables.nodes[self.node.index()].dirs[side(self.direction)]
    }

    fn link_id(&self, child: NodeId) -> usize {
        debug_assert_eq!(self.tree.parent(child), Some(self.node), "{child}'s parent");
        let direction = self.direction;
        Link { child, direction }.dense_id()
    }

    /// Sets (`Some`) or drops (`None`) the requirement of the link to
    /// `child`.
    pub(crate) fn put_req(&mut self, child: NodeId, cells: Option<u32>) {
        let id = self.link_id(child);
        let old = mem::replace(&mut self.tables.links[id].req, cells);
        self.displaced(DirUndo::Req(child, old));
    }

    /// Writes the interface `child` reported through `write`.
    fn write_child_interface(
        &mut self,
        child: NodeId,
        write: impl FnOnce(&mut RunPool<(u32, ResourceComponent)>, &mut Run) -> Run,
    ) {
        let id = self.link_id(child);
        let NodeTables {
            links, components, ..
        } = &mut *self.tables;
        let old = write_slot(components, &mut links[id].interface, write);
        self.displaced(DirUndo::ChildInterface(child, old));
    }

    /// Stores (`Some`) or forgets (`None`) the whole interface `child`
    /// reported.
    pub(crate) fn put_child_interface(&mut self, child: NodeId, iface: Option<&ResourceInterface>) {
        let in_place = self.in_place();
        match iface {
            Some(iface) => self.write_child_interface(child, |pool, run| {
                pool.rewrite(run, in_place, |items| items.extend(iface.iter()))
            }),
            None => {
                let id = self.link_id(child);
                let old = self.tables.links[id].interface.take();
                if let Some(run) = old {
                    self.tables.components.discard(run);
                }
                self.displaced(DirUndo::ChildInterface(child, old));
            }
        }
    }

    /// Stores the interface `child` generated, as its `POST intf` would
    /// have delivered it.
    pub(crate) fn store_child_interface(&mut self, child: NodeId) {
        let in_place = self.in_place();
        let side = side(self.direction);
        let generated = self.tables.nodes[child.index()].dirs[side].interface;
        let src = generated.expect("children generate before their parent");
        self.write_child_interface(child, |pool, run| {
            pool.rewrite_from(run, in_place, src, Some)
        });
    }

    /// Sets one component of `child`'s interface, starting an interface
    /// if the child had reported none.
    pub(crate) fn set_child_component(
        &mut self,
        child: NodeId,
        layer: u32,
        component: ResourceComponent,
    ) {
        let in_place = self.in_place();
        let id = self.link_id(child);
        let Some(run) = self.tables.links[id].interface else {
            return self.write_child_interface(child, |pool, run| {
                pool.rewrite(run, in_place, |items| items.push((layer, component)))
            });
        };
        let components = &mut self.tables.components;
        if let Some(c) = component_mut(components, run, layer) {
            let old = mem::replace(c, component);
            return self.displaced(DirUndo::ChildComponent(child, layer, old));
        }
        let at = components.get(run).partition_point(|&(l, _)| l < layer);
        self.write_child_interface(child, |pool, run| {
            pool.insert(run, in_place, at, (layer, component))
        });
    }

    /// Replaces this node's whole interface: `own` at `own_layer`, then
    /// the `composed` layers in order.
    pub(crate) fn set_interface(
        &mut self,
        own_layer: u32,
        own: ResourceComponent,
        composed: impl Iterator<Item = (u32, ResourceComponent)>,
    ) {
        let in_place = self.in_place();
        let side = side(self.direction);
        let NodeTables {
            nodes, components, ..
        } = &mut *self.tables;
        let slot = &mut nodes[self.node.index()].dirs[side].interface;
        let old = write_slot(components, slot, |pool, run| {
            pool.rewrite(run, in_place, |items| {
                items.push((own_layer, own));
                items.extend(composed);
            })
        });
        self.displaced(DirUndo::Interface(old));
    }

    /// Sets one component of this node's interface; no-op before the
    /// interface was generated.
    pub(crate) fn set_component(&mut self, layer: u32, component: ResourceComponent) {
        let in_place = self.in_place();
        let side = side(self.direction);
        let NodeTables {
            nodes, components, ..
        } = &mut *self.tables;
        let slot = &mut nodes[self.node.index()].dirs[side].interface;
        let Some(run) = *slot else {
            return;
        };
        if let Some(c) = component_mut(components, run, layer) {
            let old = mem::replace(c, component);
            return self.displaced(DirUndo::Component(layer, old));
        }
        let at = components.get(run).partition_point(|&(l, _)| l < layer);
        let old = write_slot(components, slot, |pool, run| {
            pool.insert(run, in_place, at, (layer, component))
        });
        self.displaced(DirUndo::Interface(old));
    }

    /// The position of `layer`'s row, made first (vacant) if `make` and
    /// there is none.
    fn row_at(&mut self, layer: u32, make: bool) -> Option<usize> {
        let rows = self.read().rows();
        let at = rows.partition_point(|r| r.layer < layer);
        if rows.get(at).is_some_and(|r| r.layer == layer) {
            return Some(at);
        }
        if !make {
            return None;
        }
        let in_place = self.in_place();
        let side = side(self.direction);
        let NodeTables { nodes, layers, .. } = &mut *self.tables;
        let run = &mut nodes[self.node.index()].dirs[side].layers;
        let old = layers.insert(run, in_place, at, LayerRow::vacant(layer));
        self.displaced(DirUndo::Layers(old));
        Some(at)
    }

    fn row_mut(&mut self, at: usize) -> &mut LayerRow {
        let run = self.record_mut().layers;
        &mut self.tables.layers.get_mut(run)[at]
    }

    /// Makes a row for every one of `layers` this node holds none for: in
    /// one write when it holds none at all, as a node that generates its
    /// interface does.
    pub(crate) fn hold_layers(&mut self, layers: RangeInclusive<u32>) {
        if !self.record_mut().layers.is_empty() {
            layers.for_each(|layer| {
                self.row_at(layer, true);
            });
            return;
        }
        let in_place = self.in_place();
        let side = side(self.direction);
        let NodeTables {
            nodes,
            layers: pool,
            ..
        } = &mut *self.tables;
        let run = &mut nodes[self.node.index()].dirs[side].layers;
        let old = pool.rewrite(run, in_place, |rows| {
            rows.extend(layers.map(LayerRow::vacant));
        });
        self.displaced(DirUndo::Layers(old));
    }

    /// Writes one field of `layer`'s row, making the row when a value needs
    /// one, and logs what the field held.
    fn put_field<V: Copy>(
        &mut self,
        layer: u32,
        field: fn(&mut LayerRow) -> &mut Option<V>,
        value: Option<V>,
        undo: fn(u32, Option<V>) -> DirUndo,
    ) {
        let Some(at) = self.row_at(layer, value.is_some()) else {
            return;
        };
        let old = mem::replace(field(self.row_mut(at)), value);
        self.displaced(undo(layer, old));
    }

    /// Writes the children's partitions at `layer` through `write`.
    fn write_child_partitions(
        &mut self,
        layer: u32,
        write: impl FnOnce(&mut RunPool<(NodeId, Rect)>, &mut Run) -> Run,
    ) {
        let at = self.row_at(layer, true).expect("made");
        let run = self.record_mut().layers;
        let NodeTables {
            layers, placements, ..
        } = &mut *self.tables;
        let slot = &mut layers.get_mut(run)[at].child_partitions;
        let old = write_slot(placements, slot, write);
        self.displaced(DirUndo::ChildPartitions(layer, old));
    }

    /// Stores how the children's components at `layer` were composed: the
    /// `composite`, and each child's `placed` rectangle inside it.
    pub(crate) fn set_layout(
        &mut self,
        layer: u32,
        composite: ResourceComponent,
        placed: &[(NodeId, Rect)],
    ) {
        let in_place = self.in_place();
        let at = self.row_at(layer, true).expect("made");
        let old = self.row_mut(at).layout;
        let mut placements = old.map_or_else(Run::default, |l| l.placements);
        if !self.overwrite_placed(layer, Placed::Layout, placed) {
            let write = |items: &mut Vec<_>| items.extend_from_slice(placed);
            self.tables
                .placements
                .rewrite(&mut placements, in_place, write);
        }
        self.row_mut(at).layout = Some(Layout {
            composite,
            placements,
        });
        self.displaced(DirUndo::Layout(layer, old));
    }

    /// Writes `placed` over the `which` placements of `layer`'s row when
    /// the row holds as many and at most one of them changes: that one is
    /// logged, and the run stays where it is. A write that changes more
    /// moves the run instead, for the one log entry of its descriptor.
    /// Returns whether it wrote.
    fn overwrite_placed(&mut self, layer: u32, which: Placed, placed: &[(NodeId, Rect)]) -> bool {
        let Some(at) = self.row_at(layer, false) else {
            return false;
        };
        let row = *self.row_mut(at);
        let run = match which {
            Placed::Layout => row.layout.map(|l| l.placements),
            Placed::Children => row.child_partitions,
        };
        let Some(run) = run.filter(|run| run.len() == placed.len()) else {
            return false;
        };
        let held = self.tables.placements.get_mut(run);
        let mut changed = (0..placed.len()).filter(|&i| held[i] != placed[i]);
        let (first, more) = (changed.next(), changed.next());
        if more.is_some() {
            return false;
        }
        if let Some(i) = first {
            let old = mem::replace(&mut held[i], placed[i]);
            self.displaced(DirUndo::Placement(layer, which, i as u32, old));
        }
        true
    }

    pub(crate) fn set_partition(&mut self, layer: u32, rect: Rect) {
        self.put_field(layer, |r| &mut r.partition, Some(rect), DirUndo::Partition);
    }

    /// [`DirWriter::set_partition`] for every layer of this node's
    /// interface: the layers' components side by side along the slot axis
    /// from `cursor` on, deepest layer first if `descending`. Returns the
    /// slot after the last one, or, placing nothing, the overflow of
    /// `available` slots when that slot is past `u32::MAX`.
    pub(crate) fn place_partitions_in_a_row(
        &mut self,
        mut cursor: u32,
        descending: bool,
        available: u32,
    ) -> Result<u32, HarpError> {
        let iface = self.record_mut().interface;
        let iface = iface.expect("generated before allocation");
        let components = self.tables.components.get(iface);
        let slots: u64 = components.iter().map(|(_, c)| u64::from(c.slots)).sum();
        slot_count(u64::from(cursor) + slots, available)?;
        let n = iface.len();
        for k in 0..n {
            let at = if descending { n - 1 - k } else { k };
            let (layer, c) = self.tables.components.get(iface)[at];
            self.set_partition(layer, Rect::new(Point::new(cursor, 0), c.as_size()));
            cursor += c.slots;
        }
        Ok(cursor)
    }

    /// Stores the partitions this node allocated to its children at
    /// `layer`.
    pub(crate) fn set_child_partitions(&mut self, layer: u32, placed: &[(NodeId, Rect)]) {
        if self.overwrite_placed(layer, Placed::Children, placed) {
            return;
        }
        let in_place = self.in_place();
        self.write_child_partitions(layer, |pool, run| {
            pool.rewrite(run, in_place, |items| items.extend_from_slice(placed))
        });
    }

    /// Drops `child`'s partition from every layer that holds one.
    pub(crate) fn drop_child_partitions(&mut self, child: NodeId) {
        let in_place = self.in_place();
        let mut from = 0;
        loop {
            let next = self.read().child_partitions().find(|&(l, _)| l >= from);
            let Some((layer, placed)) = next else {
                return;
            };
            if placed.iter().any(|&(c, _)| c == child) {
                let keep = |(c, rect): (NodeId, Rect)| (c != child).then_some((c, rect));
                self.write_child_partitions(layer, |pool, run| {
                    let placed = *run;
                    pool.rewrite_from(run, in_place, placed, keep)
                });
            }
            from = layer + 1;
        }
    }

    /// Carves the children's partitions out of this node's own at every
    /// composed layer: each layout's placements, translated to the node's
    /// partition there.
    ///
    /// # Errors
    ///
    /// [`HarpError::MissingPartition`] at a composed layer the node holds
    /// no partition for (the layers before it are carved).
    pub(crate) fn place_child_partitions(&mut self) -> Result<(), HarpError> {
        let in_place = self.in_place();
        for at in 0..self.read().rows().len() {
            let row = self.read().rows()[at];
            let Some(layout) = row.layout else {
                continue;
            };
            let layer = row.layer;
            let own = row.partition.ok_or(HarpError::MissingPartition {
                node: self.node,
                layer,
            })?;
            let (dx, dy) = (own.origin.x, own.origin.y);
            let translate = move |(c, rel): (NodeId, Rect)| Some((c, rel.translated(dx, dy)));
            self.write_child_partitions(layer, |pool, run| {
                pool.rewrite_from(run, in_place, layout.placements, translate)
            });
        }
        Ok(())
    }

    /// Stores (`Some`) or drops (`None`) the cells assigned to the link to
    /// `child`.
    pub(crate) fn put_assignment(&mut self, child: NodeId, cells: Option<CellRun>) {
        let id = self.link_id(child);
        let old = mem::replace(&mut self.tables.links[id].assignment, cells);
        self.displaced(DirUndo::Assignment(child, old));
    }

    pub(crate) fn set_own_cells(&mut self, cells: CellRun) {
        let old = self.record_mut().own_cells.replace(cells);
        self.displaced(DirUndo::OwnCells(old));
    }

    /// Marks (`Some(requester)`) or clears (`None`) the escalation pending
    /// at `layer`.
    pub(crate) fn put_pending(&mut self, layer: u32, requester: Option<NodeId>) {
        self.put_field(layer, |r| &mut r.pending, requester, DirUndo::Pending);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsch_sim::SlotframeConfig;

    /// A gateway with five children, and tables holding nothing.
    fn star() -> (Tree, NodeTables) {
        let tree = Tree::from_parents(&[(1, 0), (2, 0), (3, 0), (4, 0), (5, 0)]);
        let tables = NodeTables::new(&tree, &Requirements::new());
        (tree, tables)
    }

    /// Everything the getters read of the gateway, both directions.
    fn contents(tables: &NodeTables, tree: &Tree) -> String {
        let root = tree.root();
        let dirs = Direction::BOTH.map(|d| tables.dir(tree, root, d));
        format!("{dirs:?} {:?}", tables.counters(root))
    }

    /// Every setter once, each on a key that is there and on one that is
    /// not (or, for the whole-value setters, on `Some` and on `None`).
    fn write_everything(w: &mut DirWriter<'_>, round: u32) {
        let (kid, layer) = (NodeId(1 + round), 2 + round);
        let comp = ResourceComponent::new(3 + round, 2);
        let rect = Rect::from_xywh(round, 0, 4, 2);
        let iface: ResourceInterface = [(layer, comp)].into_iter().collect();
        w.put_req(kid, Some(7 + round));
        w.put_child_interface(kid, Some(&iface));
        w.set_child_component(kid, layer + 1, comp);
        w.set_child_component(kid, layer, ResourceComponent::row(1));
        w.set_child_component(NodeId(3 + round), layer, comp);
        w.set_component(layer, comp);
        w.set_interface(layer, comp, std::iter::empty());
        w.set_component(layer, ResourceComponent::row(9));
        w.set_component(layer + 1, comp);
        w.set_component(layer - 1, comp);
        w.hold_layers(layer..=layer + 2);
        w.set_layout(layer, comp, &[(kid, rect)]);
        w.set_layout(layer + 1, comp, &[(kid, rect), (NodeId(5), rect)]);
        w.set_partition(layer, rect);
        w.place_partitions_in_a_row(round, round == 0, 199)
            .expect("fits a u32");
        w.set_child_partitions(layer, &[(kid, rect)]);
        w.place_child_partitions()
            .expect("both layers with a layout have a partition");
        let config = SlotframeConfig::paper_default();
        w.put_assignment(kid, Some(CellRun::new(rect, config, 0..1)));
        w.set_own_cells(CellRun::new(rect, config, 4..5));
        w.put_pending(layer, Some(kid));
        w.put_pending(layer + 7, Some(kid));
    }

    fn remove_everything(w: &mut DirWriter<'_>) {
        let kid = NodeId(1);
        w.put_req(kid, None);
        w.put_child_interface(kid, None);
        w.put_assignment(kid, None);
        w.drop_child_partitions(kid);
        w.put_pending(2, None);
        w.put_pending(77, None);
    }

    #[test]
    fn rollback_puts_every_displaced_value_back() {
        let config = SlotframeConfig::paper_default();
        let (tree, mut tables) = star();
        let (root, d) = (tree.root(), Direction::Down);
        let empty = contents(&tables, &tree);
        let mut schedule = NetworkSchedule::new(config);

        // From nothing: every setter creates, a rollback leaves nothing.
        let mut log = UndoLog::recording();
        write_everything(
            &mut DirWriter::new(&mut tables, &mut log, &tree, root, d),
            0,
        );
        assert_ne!(contents(&tables, &tree), empty);
        log.rollback(&mut tables, &mut schedule, 7);
        assert_eq!(contents(&tables, &tree), empty);
        assert_eq!(schedule.cells_of(Link::down(root)), []);
        assert_eq!(schedule.version(), 7, "restored verbatim");

        // From a populated state, written without a log: every setter
        // overwrites, adds or removes, a rollback restores the lot.
        let mut off = UndoLog::default();
        write_everything(
            &mut DirWriter::new(&mut tables, &mut off, &tree, root, d),
            0,
        );
        let populated = contents(&tables, &tree);
        let mut log = UndoLog::recording();
        tables.count(&mut log, root, |c| c.escalations = 3);
        let mut w = DirWriter::new(&mut tables, &mut log, &tree, root, d);
        write_everything(&mut w, 0);
        write_everything(&mut w, 1);
        remove_everything(&mut w);
        assert_ne!(contents(&tables, &tree), populated);
        log.rollback(&mut tables, &mut schedule, 0);
        assert_eq!(contents(&tables, &tree), populated);
        // The link's row projects the own cells the replay put back.
        let installed = tables.dir(&tree, root, d).own_cells().cloned();
        let installed = installed.expect("written").to_vec();
        assert_eq!(installed.len(), 1);
        assert_eq!(schedule.cells_of(Link::down(root)), installed);
    }

    #[test]
    fn a_rollback_reads_a_run_back_from_before_it_moved() {
        let (tree, mut tables) = star();
        let (root, d) = (tree.root(), Direction::Up);
        let mut off = UndoLog::default();
        let mut w = DirWriter::new(&mut tables, &mut off, &tree, root, d);
        w.set_interface(
            1,
            ResourceComponent::row(4),
            [(2, ResourceComponent::new(2, 2))].into_iter(),
        );
        w.hold_layers(1..=2);
        w.set_partition(2, Rect::from_xywh(0, 0, 2, 2));
        let before = contents(&tables, &tree);
        let (layers, components) = (tables.layers.garbage(), tables.components.garbage());

        // A deeper layer joins both runs: recording, each moves to its
        // pool's tail; later writes go to the moved runs.
        let mut log = UndoLog::recording();
        let mut w = DirWriter::new(&mut tables, &mut log, &tree, root, d);
        w.set_component(3, ResourceComponent::row(1));
        w.set_component(1, ResourceComponent::row(6));
        w.put_pending(3, Some(NodeId(2)));
        w.set_partition(2, Rect::from_xywh(5, 0, 2, 2));
        assert!(tables.layers.garbage() > layers, "the layer rows moved");
        assert!(
            tables.components.garbage() > components,
            "the interface moved"
        );
        let view = tables.dir(&tree, root, d);
        assert_eq!(view.pending(3), Some(NodeId(2)));
        assert_eq!(view.interface().map(<[_]>::len), Some(3));

        log.rollback(&mut tables, &mut NetworkSchedule::default(), 0);
        assert_eq!(contents(&tables, &tree), before);
        // The moved-to runs are what is garbage now.
        assert_eq!(tables.layers.garbage(), layers + 3);
        assert_eq!(tables.components.garbage(), components + 3);
    }

    #[test]
    fn a_write_that_keeps_a_runs_length_leaves_it_in_place() {
        let (tree, mut tables) = star();
        let (root, d) = (tree.root(), Direction::Down);
        let rect = |x| Rect::from_xywh(x, 0, 2, 1);
        let mut off = UndoLog::default();
        let w = &mut DirWriter::new(&mut tables, &mut off, &tree, root, d);
        w.set_child_partitions(3, &[(NodeId(1), rect(0)), (NodeId(2), rect(2))]);
        let before = contents(&tables, &tree);

        let mut log = UndoLog::recording();
        let w = &mut DirWriter::new(&mut tables, &mut log, &tree, root, d);
        w.set_child_partitions(3, &[(NodeId(1), rect(0)), (NodeId(2), rect(5))]);
        assert_eq!(tables.placements.garbage(), 0, "nothing moved");
        let view = tables.dir(&tree, root, d);
        assert_eq!(view.child_partitions_at(3).map(|p| p[1].1), Some(rect(5)));
        log.rollback(&mut tables, &mut NetworkSchedule::default(), 0);
        assert_eq!(contents(&tables, &tree), before);
    }

    #[test]
    fn compaction_waits_for_the_log_to_close() {
        let (tree, mut tables) = star();
        let root = tree.root();
        let mut log = UndoLog::recording();
        // Each write changes the run's length, so it moves the run.
        for round in 0..40 {
            let w = &mut DirWriter::new(&mut tables, &mut log, &tree, root, Direction::Up);
            let placed: Vec<_> = (1..=1 + round % 5)
                .map(|c| (NodeId(c), Rect::from_xywh(round, 0, 1, 1)))
                .collect();
            w.set_child_partitions(2, &placed);
        }
        assert!(tables.placements.wants_compaction());
        let written = contents(&tables, &tree);
        let garbage = tables.placements.garbage();
        assert!(!tables.compact(&log), "a recording log holds moved runs");
        assert_eq!(tables.placements.garbage(), garbage);

        drop(log);
        assert!(tables.compact(&UndoLog::default()));
        assert_eq!(tables.placements.garbage(), 0);
        assert_eq!(contents(&tables, &tree), written);
    }
}
