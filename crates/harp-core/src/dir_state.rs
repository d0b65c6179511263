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
//!   own interface, its run of layer rows and its own cells;
//! - **three pools** of runs ([`RunPool`]): layer rows (layer, layout,
//!   partition, children's partitions, pending escalation), kept sorted
//!   by layer; interface components `(layer, component)`, both the node's
//!   own interfaces and the parent's copies; and `(child, rectangle)`
//!   placements, both the layouts' and the children's partitions.
//!
//! A create sizes the pools from the tree, so the static phase writes
//! every run once, at the pools' tails, and allocates no more.
//!
//! Everything the tables keep lies inside one slotframe, and a slotframe
//! has at most [`TABLE_LIMIT`] slots (an IEEE 802.15.4 Slotframe IE
//! carries its size in two octets), so they keep it in the slotframe's
//! widths: a rectangle in four `u16`s, a layer in one, a run of cells
//! without the slotframe's two moduli, which are the network's, and "none"
//! as a value no write makes instead of an `Option`'s tag. A component's
//! slots stay 32 bits, as a reported component may outgrow the slotframe
//! before the gateway refuses it. The setters pack and the getters unpack,
//! so code outside this module sees [`Rect`]s, [`CellRun`]s and
//! [`ResourceComponent`]s only; a value that does not fit is a
//! [`HarpError`], never a wrapped coordinate.
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

use crate::component::{LayerComponents, ResourceComponent, ResourceInterface};
use crate::error::HarpError;
use crate::requirement::Requirements;
use crate::schedule_gen::CellRun;
use packing::{Point, Rect};
use std::ops::RangeInclusive;
use std::{fmt, mem};
use tsch_sim::{Direction, Link, NetworkSchedule, NodeId, Run, RunPool, SlotframeConfig, Tree};

/// The most slots, channels or layers the tables keep: what 16 bits hold.
pub(crate) const TABLE_LIMIT: u32 = u16::MAX as u32;

/// A layer as the tables keep it.
fn layer16(layer: u32) -> Result<u16, HarpError> {
    u16::try_from(layer).map_err(|_| HarpError::TableLimit {
        what: "layers",
        count: u64::from(layer),
    })
}

/// A rectangle that ends inside a plane of [`TABLE_LIMIT`] slots and
/// channels, in 8 bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Area {
    x: u16,
    y: u16,
    w: u16,
    h: u16,
}

impl Area {
    /// No rectangle: one that ends past the plane.
    const NONE: Area = Area {
        x: u16::MAX,
        y: u16::MAX,
        w: u16::MAX,
        h: u16::MAX,
    };

    /// `rect`, or why it does not fit.
    fn of(rect: Rect) -> Result<Area, HarpError> {
        let end = |at: u32, len: u32| u64::from(at) + u64::from(len);
        let (right, top) = (
            end(rect.left(), rect.width()),
            end(rect.bottom(), rect.height()),
        );
        if right > u64::from(TABLE_LIMIT) {
            return Err(HarpError::TableLimit {
                what: "slots to a rectangle's end",
                count: right,
            });
        }
        if top > u64::from(TABLE_LIMIT) {
            return Err(HarpError::TableLimit {
                what: "channels to a rectangle's top",
                count: top,
            });
        }
        // Both ends fit, so every coordinate does.
        Ok(Area {
            x: rect.left() as u16,
            y: rect.bottom() as u16,
            w: rect.width() as u16,
            h: rect.height() as u16,
        })
    }

    fn rect(self) -> Rect {
        let (x, y, w, h) = (self.x, self.y, self.w, self.h);
        Rect::from_xywh(x.into(), y.into(), w.into(), h.into())
    }

    fn get(self) -> Option<Rect> {
        (self != Self::NONE).then(|| self.rect())
    }
}

/// Where one child's rectangle lies.
type Placement = (NodeId, Area);

/// `placed`, each rectangle packed.
fn placement((child, rect): (NodeId, Rect)) -> Result<Placement, HarpError> {
    Ok((child, Area::of(rect)?))
}

/// Why a setter's second pass over what it checked cannot fail.
const CHECKED: &str = "checked before the write";

/// The first of `placed` that does not fit the tables, refused.
fn check_placed(placed: &[(NodeId, Rect)]) -> Result<(), HarpError> {
    placed.iter().try_for_each(|&p| placement(p).map(drop))
}

/// One component of an interface at its layer, in 8 bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Component {
    slots: u32,
    channels: u16,
    layer: u16,
}

impl Component {
    fn of(layer: u32, c: ResourceComponent) -> Result<Component, HarpError> {
        let channels = u16::try_from(c.channels).map_err(|_| HarpError::TableLimit {
            what: "channels of a component",
            count: u64::from(c.channels),
        })?;
        Ok(Component {
            slots: c.slots,
            channels,
            layer: layer16(layer)?,
        })
    }

    fn get(self) -> (u32, ResourceComponent) {
        let c = ResourceComponent::new(self.slots, self.channels.into());
        (self.layer.into(), c)
    }
}

/// A layout's composite, which fits the slotframe like the placements
/// inside it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct Composite {
    slots: u16,
    channels: u16,
}

impl Composite {
    fn of(c: ResourceComponent) -> Result<Composite, HarpError> {
        let size = Rect::new(Point::new(0, 0), c.as_size());
        let area = Area::of(size)?;
        Ok(Composite {
            slots: area.w,
            channels: area.h,
        })
    }

    fn get(self) -> ResourceComponent {
        ResourceComponent::new(self.slots.into(), self.channels.into())
    }
}

/// A run of cells as the tables keep it, in 12 bytes: the slotframe's two
/// moduli are the network's, and the row starts on the line of the run's
/// first cell, `skip` cells in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Cells {
    len: u32,
    left: u16,
    bottom: u16,
    width: u16,
    skip: u16,
}

impl Cells {
    /// No run: a first cell past the row's width.
    const NONE: Cells = Cells {
        len: 0,
        left: 0,
        bottom: 0,
        width: 0,
        skip: u16::MAX,
    };

    /// Any run without a cell.
    const EMPTY: Cells = Cells {
        len: 0,
        left: 0,
        bottom: 0,
        width: 0,
        skip: 0,
    };

    /// `run`, cut in `config`'s slotframe, or why it does not fit.
    fn of(run: &CellRun, config: SlotframeConfig) -> Result<Cells, HarpError> {
        let (left, bottom, width, range) = run.parts();
        if range.is_empty() {
            return Ok(Self::EMPTY);
        }
        debug_assert!(run.is_in(config), "a run of another slotframe");
        // A run with a cell comes from a row with a slot.
        let (lines, skip) = (range.start / width, range.start % width);
        // Taken modulo the slotframe's slots and channels (never zero), as
        // the run walks.
        let fold = |at: u64, modulus: u64, what| {
            u16::try_from(at % modulus).map_err(|_| HarpError::TableLimit {
                what,
                count: modulus,
            })
        };
        let line = u64::from(bottom) + u64::from(lines);
        let width16 = u16::try_from(width);
        Ok(Cells {
            len: range.end - range.start,
            left: fold(left.into(), config.slots.into(), "slotframe slots")?,
            bottom: fold(line, config.channels.into(), "slotframe channels")?,
            width: width16.map_err(|_| HarpError::TableLimit {
                what: "slots in a row of cells",
                count: width.into(),
            })?,
            // Below the width, so never the sentinel's.
            skip: skip as u16,
        })
    }

    fn get(self, config: SlotframeConfig) -> Option<CellRun> {
        if self == Self::NONE {
            return None;
        }
        let (left, bottom, width) = (self.left, self.bottom, self.width);
        let range = u32::from(self.skip)..u32::from(self.skip) + self.len;
        let parts = (left.into(), bottom.into(), width.into(), range);
        Some(CellRun::from_parts(parts, config))
    }
}

/// The interface a slot of the tables holds, in layer order: a view that
/// reads each component out of its packed form.
#[derive(Clone, Copy, Default)]
pub(crate) struct Components<'a>(&'a [Component]);

impl<'a> Components<'a> {
    pub(crate) fn iter(
        self,
    ) -> impl DoubleEndedIterator<Item = (u32, ResourceComponent)> + Clone + 'a {
        self.0.iter().map(|c| c.get())
    }

    /// The deepest layer's component.
    pub(crate) fn last(self) -> Option<(u32, ResourceComponent)> {
        self.iter().next_back()
    }
}

impl LayerComponents for Components<'_> {
    fn component(&self, layer: u32) -> Option<ResourceComponent> {
        let layer = u16::try_from(layer).ok()?;
        let found = self.0.iter().find(|c| c.layer == layer)?;
        Some(found.get().1)
    }
}

impl fmt::Debug for Components<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// A run of `(child, rectangle)` placements, read out of their packed
/// form.
#[derive(Clone, Copy, Default)]
pub(crate) struct Placements<'a>(&'a [Placement]);

impl<'a> Placements<'a> {
    pub(crate) fn iter(self) -> impl ExactSizeIterator<Item = (NodeId, Rect)> + Clone + 'a {
        self.0.iter().map(|&(c, area)| (c, area.rect()))
    }
}

impl fmt::Debug for Placements<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// What a node keeps about one layer of its subtree, in one direction.
#[derive(Debug, Clone, Copy)]
struct LayerRow {
    /// Where the layout of the children's components (layers below the
    /// own) placed each child inside `composite` (`Run::NONE`: composed
    /// no layout).
    placements: Run,
    /// The partitions this node allocated to its children.
    child_partitions: Run,
    /// The partition granted to this node.
    partition: Area,
    /// An escalation awaiting a bigger partition from the parent: the child
    /// whose component grew ([`NO_NODE`]: none).
    pending: NodeId,
    composite: Composite,
    layer: u16,
}

/// No node: an id no tree of `u32` ids hands out.
const NO_NODE: NodeId = NodeId(u32::MAX);

/// A run slot as an `Option`.
fn some(run: Run) -> Option<Run> {
    (run != Run::NONE).then_some(run)
}

impl LayerRow {
    fn vacant(layer: u16) -> Self {
        Self {
            placements: Run::NONE,
            child_partitions: Run::NONE,
            partition: Area::NONE,
            pending: NO_NODE,
            composite: Composite::default(),
            layer,
        }
    }

    fn layout(&self) -> Option<Run> {
        some(self.placements)
    }

    fn layer(&self) -> u32 {
        self.layer.into()
    }

    fn pending(&self) -> Option<NodeId> {
        (self.pending != NO_NODE).then_some(self.pending)
    }
}

/// What a link's parent keeps about it.
#[derive(Debug, Clone)]
struct LinkRow {
    /// The link's cell requirement `r(e)`.
    req: Option<u32>,
    /// The interface the child (a non-leaf) reported.
    interface: Run,
    /// The cells the parent assigned to the link.
    assignment: Cells,
}

impl Default for LinkRow {
    fn default() -> Self {
        Self {
            req: None,
            interface: Run::NONE,
            assignment: Cells::NONE,
        }
    }
}

/// One direction of one node's fixed-size state.
#[derive(Debug, Clone)]
struct DirRecord {
    /// This node's own interface, once generated.
    interface: Run,
    /// The node's layer rows, sorted by layer.
    layers: Run,
    /// Cells granted to this node's own link by its parent (none until
    /// the first `CellAssignment` arrives): what the link has installed,
    /// which its schedule row projects, and how a re-delivery is seen.
    own_cells: Cells,
}

impl Default for DirRecord {
    fn default() -> Self {
        Self {
            interface: Run::NONE,
            layers: Run::default(),
            own_cells: Cells::NONE,
        }
    }
}

#[derive(Debug, Clone, Default)]
struct NodeRecord {
    dirs: [DirRecord; 2],
}

// Every row in the slotframe's widths. A 256-node tenant of the benchmark
// keeps about 135 KB of tables in 32-bit words (node records of 120 bytes,
// link rows of 56, layer rows of 72, components of 12 and placements of
// 20) and about 80 KB in these.
const _: () = assert!(mem::size_of::<NodeRecord>() <= 72);
const _: () = assert!(mem::size_of::<LinkRow>() <= 32);
const _: () = assert!(mem::size_of::<LayerRow>() <= 44);
const _: () = assert!(mem::size_of::<Component>() <= 8);
const _: () = assert!(mem::size_of::<Placement>() <= 12);

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
    slot: &mut Run,
    write: impl FnOnce(&mut RunPool<T>, &mut Run) -> Run,
) -> Run {
    let old = *slot;
    let mut run = some(old).unwrap_or_default();
    write(pool, &mut run);
    *slot = run;
    old
}

/// Puts `old` back into `slot`, a run descriptor a logged write displaced.
fn restore_slot<T: Copy>(pool: &mut RunPool<T>, slot: &mut Run, old: Run) {
    pool.restore(some(*slot), some(old));
    *slot = old;
}

/// The entry of `layer` in a run of components.
fn component_mut(pool: &mut RunPool<Component>, run: Run, layer: u16) -> Option<&mut Component> {
    pool.get_mut(run).iter_mut().find(|c| c.layer == layer)
}

/// The protocol state of every node of one network: see the module docs.
#[derive(Debug, Clone)]
pub(crate) struct NodeTables {
    nodes: Vec<NodeRecord>,
    /// Dense by `Link::dense_id`, two rows per node.
    links: Vec<LinkRow>,
    layers: RunPool<LayerRow>,
    components: RunPool<Component>,
    placements: RunPool<Placement>,
    /// The slotframe every run of cells is cut in.
    config: SlotframeConfig,
}

impl NodeTables {
    /// The tables of a network on `tree` in `config`'s slotframe that holds
    /// nothing but `requirements`, each link's at its row, sized for what
    /// the static phase writes: every non-leaf node-direction holds a row
    /// and a component per layer from its own to its subtree's deepest, its
    /// parent a copy of those components, its parent's layout and
    /// children's partitions a placement per layer.
    pub(crate) fn new(tree: &Tree, requirements: &Requirements, config: SlotframeConfig) -> Self {
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
            config,
        }
    }

    /// The slotframe of the network the tables belong to.
    pub(crate) fn config(&self) -> SlotframeConfig {
        self.config
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

    /// Packs each pool whose garbage outgrew its room or half of it, unless
    /// `log` records: a recording log holds descriptors of items a
    /// compaction would move. Returns whether it was free to compact.
    pub(crate) fn compact(&mut self, log: &UndoLog) -> bool {
        fn wanted<T: Copy>(pool: &RunPool<T>) -> bool {
            pool.wants_compaction() || pool.garbage() > pool.room()
        }
        fn live(run: &&mut Run) -> bool {
            **run != Run::NONE
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
            ..
        } = self;
        if wanted(components) {
            components.compact(|each| {
                let owned = nodes.iter_mut().flat_map(|n| &mut n.dirs);
                owned
                    .map(|dir| &mut dir.interface)
                    .filter(live)
                    .for_each(&mut *each);
                let reported = links.iter_mut().map(|l| &mut l.interface);
                reported.filter(live).for_each(each);
            });
        }
        if wanted(placements) {
            placements.compact(|each| {
                for dir in nodes.iter().flat_map(|n| &n.dirs) {
                    for row in layers.get_mut(dir.layers) {
                        [&mut row.placements, &mut row.child_partitions]
                            .into_iter()
                            .filter(live)
                            .for_each(&mut *each);
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
            ..
        } = self;
        let dir = &mut nodes[node.index()].dirs[side(d)];
        let link = |child| {
            Link {
                child,
                direction: d,
            }
            .dense_id()
        };
        fn row(rows: &mut [LayerRow], layer: u16) -> &mut LayerRow {
            rows.iter_mut().find(|r| r.layer == layer).expect(HELD)
        }
        match undo {
            DirUndo::Req(child, old) => links[link(child)].req = old,
            DirUndo::ChildInterface(child, old) => {
                restore_slot(components, &mut links[link(child)].interface, old);
            }
            DirUndo::ChildComponent(child, old) => {
                let run = some(links[link(child)].interface).expect(HELD);
                *component_mut(components, run, old.layer).expect(HELD) = old;
            }
            DirUndo::Interface(old) => restore_slot(components, &mut dir.interface, old),
            DirUndo::Component(old) => {
                let run = some(dir.interface).expect(HELD);
                *component_mut(components, run, old.layer).expect(HELD) = old;
            }
            DirUndo::Layers(old) => {
                layers.restore(Some(dir.layers), Some(old));
                dir.layers = old;
            }
            DirUndo::Layout(layer, old, composite) => {
                let row = row(layers.get_mut(dir.layers), layer);
                restore_slot(placements, &mut row.placements, old);
                row.composite = composite;
            }
            DirUndo::Partition(layer, old) => {
                row(layers.get_mut(dir.layers), layer).partition = old;
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
                    Placed::Layout => row.placements,
                    Placed::Children => row.child_partitions,
                };
                placements.get_mut(some(run).expect(HELD))[i as usize] = old;
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
        let layer = u16::try_from(layer).ok()?;
        self.rows().iter().find(|r| r.layer == layer)
    }

    fn components(self, slot: Run) -> Option<Components<'a>> {
        Some(Components(self.tables.components.get(some(slot)?)))
    }

    fn placements(self, slot: Run) -> Option<Placements<'a>> {
        Some(Placements(self.tables.placements.get(some(slot)?)))
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
    ) -> impl Iterator<Item = (NodeId, Components<'a>)> + Clone + 'a {
        self.children()
            .filter_map(move |(c, l)| Some((c, self.components(l.interface)?)))
    }

    pub(crate) fn child_interface(self, child: NodeId) -> Option<Components<'a>> {
        self.components(self.link(child)?.interface)
    }

    /// Cells this node assigned to the link to `child`.
    pub(crate) fn assignment(self, child: NodeId) -> Option<CellRun> {
        self.link(child)?.assignment.get(self.tables.config)
    }

    /// Cells this node assigned to its children's links, in child order.
    pub(crate) fn assignments(self) -> impl Iterator<Item = (NodeId, CellRun)> + 'a {
        let config = self.tables.config;
        self.children()
            .filter_map(move |(c, l)| Some((c, l.assignment.get(config)?)))
    }

    pub(crate) fn interface(self) -> Option<Components<'a>> {
        self.components(self.record().interface)
    }

    pub(crate) fn own_cells(self) -> Option<CellRun> {
        self.record().own_cells.get(self.tables.config)
    }

    /// Composition layouts of the composed layers, in layer order: each
    /// layer's composite and the children's placements inside it.
    pub(crate) fn layouts(
        self,
    ) -> impl Iterator<Item = (u32, ResourceComponent, Placements<'a>)> + 'a {
        self.rows().iter().filter_map(move |r| {
            let placed = self.placements(r.placements)?;
            Some((r.layer(), r.composite.get(), placed))
        })
    }

    pub(crate) fn layout(self, layer: u32) -> Option<Placements<'a>> {
        self.placements(self.row(layer)?.placements)
    }

    /// Partitions granted to this node, in layer order.
    pub(crate) fn partitions(self) -> impl Iterator<Item = (u32, Rect)> + 'a {
        self.rows()
            .iter()
            .filter_map(|r| Some((r.layer(), r.partition.get()?)))
    }

    pub(crate) fn partition(self, layer: u32) -> Option<Rect> {
        self.row(layer)?.partition.get()
    }

    /// Partitions this node allocated to its children, in layer order.
    pub(crate) fn child_partitions(self) -> impl Iterator<Item = (u32, Placements<'a>)> + 'a {
        self.rows()
            .iter()
            .filter_map(move |r| Some((r.layer(), self.placements(r.child_partitions)?)))
    }

    pub(crate) fn child_partitions_at(self, layer: u32) -> Option<Placements<'a>> {
        self.placements(self.row(layer)?.child_partitions)
    }

    /// The child whose grown component awaits a bigger partition at `layer`.
    pub(crate) fn pending(self, layer: u32) -> Option<NodeId> {
        self.row(layer)?.pending()
    }

    /// Every pending escalation, in layer order.
    pub(crate) fn pendings(self) -> impl Iterator<Item = (u32, NodeId)> + 'a {
        self.rows()
            .iter()
            .filter_map(|r| Some((r.layer(), r.pending()?)))
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
/// field, or the descriptor of a run the write moved. Each holds what the
/// tables held, packed; a run slot's `Run::NONE` is "none".
#[derive(Debug)]
enum DirUndo {
    Req(NodeId, Option<u32>),
    ChildInterface(NodeId, Run),
    ChildComponent(NodeId, Component),
    Interface(Run),
    Component(Component),
    Layers(Run),
    Layout(u16, Run, Composite),
    Partition(u16, Area),
    ChildPartitions(u16, Run),
    Assignment(NodeId, Cells),
    OwnCells(Cells),
    Pending(u16, NodeId),
    Placement(u16, Placed, u32, Placement),
}

/// One of a layer row's two runs of placements.
#[derive(Debug, Clone, Copy)]
enum Placed {
    /// Where the layout placed each child inside the composite.
    Layout,
    /// The partitions allocated to the children.
    Children,
}

// A recording run allocates its log, so an adjustment's bytes follow the
// size of an entry, and a displaced run of cells is part of one. Measured
// on the benchmark's `adjust_storm`: with a 36-byte run (the row's height
// and the slot duration kept too, i.e. a `Rect` and a `SlotframeConfig`)
// an entry is 64 bytes and `alloc_kb_per_op` reads 32.34, more than the
// 31.65 it read with a vector of cells per link; with the 28-byte run an
// entry stays 56 bytes and it reads 31.33. An entry was 44 bytes while the
// tables kept 32-bit words (56 while an entry could also hold a node's 40
// bytes of counters); it holds the packed values, so it is 28.
const _: () = assert!(mem::size_of::<CellRun>() <= 28);
const _: () = assert!(mem::size_of::<Cells>() <= 12);
const _: () = assert!(mem::size_of::<(NodeId, Direction, DirUndo)>() <= 28);

/// The displaced values of one transactional run, in write order, each
/// with the node and direction whose state it was taken from.
///
/// Closed, it drops what it is given, so writes outside a transaction cost
/// what they did without a log; open, it keeps each displaced value until
/// the run commits ([`UndoLog::commit`]) or aborts ([`UndoLog::rollback`]),
/// either of which closes it. The default is closed, with no buffer.
///
/// A closed log keeps its buffer, emptied, for the next run when the buffer
/// holds at most [`UndoLog::KEPT`] entries, and frees it otherwise.
#[derive(Debug, Default)]
pub(crate) struct UndoLog {
    entries: Vec<(NodeId, Direction, DirUndo)>,
    recording: bool,
}

impl UndoLog {
    /// The most entries a closed log keeps room for: 1.75 KiB. Three runs
    /// in four of the benchmark's `adjust_storm` log no more, and a log
    /// kept whole (its longest run logs 372) costs about 10 KiB per tenant,
    /// which across 48 tenants shows in the peak heap.
    pub(crate) const KEPT: usize = 64;

    /// A log opened on a fresh buffer.
    #[cfg(test)]
    pub(crate) fn recording() -> Self {
        let mut log = Self::default();
        log.open();
        log
    }

    /// Opens the closed log. A log without a buffer gets room for what a
    /// local adjustment writes (its requirement and a row of cell
    /// assignments); one that kept its buffer uses that.
    pub(crate) fn open(&mut self) {
        debug_assert!(!self.recording && self.entries.is_empty());
        if self.entries.capacity() == 0 {
            self.entries.reserve_exact(16);
        }
        self.recording = true;
    }

    pub(crate) fn is_recording(&self) -> bool {
        self.recording
    }

    fn push(&mut self, node: NodeId, direction: Direction, undo: DirUndo) {
        if self.recording {
            self.entries.push((node, direction, undo));
        }
    }

    /// Closes the log, keeping what the run wrote: drops every entry.
    pub(crate) fn commit(&mut self) {
        self.entries.clear();
        self.close();
    }

    /// Closes an empty log, freeing a buffer larger than [`UndoLog::KEPT`].
    fn close(&mut self) {
        if self.entries.capacity() > Self::KEPT {
            self.entries = Vec::new();
        }
        self.recording = false;
    }

    /// Puts every recorded value back, newest first, writing each own-cells
    /// run put back into its link's row of `schedule`: the tables and rows
    /// are as they were when the log opened, and so is the `version`.
    /// Closes the log.
    pub(crate) fn rollback(
        &mut self,
        tables: &mut NodeTables,
        schedule: &mut NetworkSchedule,
        version: u64,
    ) {
        // `restore_rows` drives the replay, taking each restored run as the
        // replay reaches it.
        let rows = self.entries.drain(..).rev();
        let rows = rows.filter_map(|(node, direction, displaced)| {
            let link = tables.revert(node, direction, displaced)?;
            let dir = &tables.nodes[node.index()].dirs[side(direction)];
            Some((link, dir.own_cells.get(tables.config).unwrap_or_default()))
        });
        schedule.restore_rows(rows, version);
        self.close();
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
        self.log.push(self.node, self.direction, undo);
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
        write: impl FnOnce(&mut RunPool<Component>, &mut Run) -> Run,
    ) {
        let id = self.link_id(child);
        let NodeTables {
            links, components, ..
        } = &mut *self.tables;
        let old = write_slot(components, &mut links[id].interface, write);
        self.displaced(DirUndo::ChildInterface(child, old));
    }

    /// Stores the whole interface `child` reported.
    pub(crate) fn put_child_interface(
        &mut self,
        child: NodeId,
        iface: &ResourceInterface,
    ) -> Result<(), HarpError> {
        iface
            .iter()
            .try_for_each(|(l, c)| Component::of(l, c).map(drop))?;
        let in_place = self.in_place();
        let packed = iface
            .iter()
            .map(|(l, c)| Component::of(l, c).expect(CHECKED));
        self.write_child_interface(child, |pool, run| {
            pool.rewrite(run, in_place, |items| items.extend(packed))
        });
        Ok(())
    }

    /// Forgets the interface `child` reported.
    pub(crate) fn forget_child_interface(&mut self, child: NodeId) {
        let id = self.link_id(child);
        let old = mem::replace(&mut self.tables.links[id].interface, Run::NONE);
        if let Some(run) = some(old) {
            self.tables.components.discard(run);
        }
        self.displaced(DirUndo::ChildInterface(child, old));
    }

    /// Stores the interface `child` generated, as its `POST intf` would
    /// have delivered it.
    pub(crate) fn store_child_interface(&mut self, child: NodeId) {
        let in_place = self.in_place();
        let side = side(self.direction);
        let generated = some(self.tables.nodes[child.index()].dirs[side].interface);
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
    ) -> Result<(), HarpError> {
        let component = Component::of(layer, component)?;
        let in_place = self.in_place();
        let id = self.link_id(child);
        let Some(run) = some(self.tables.links[id].interface) else {
            self.write_child_interface(child, |pool, run| {
                pool.rewrite(run, in_place, |items| items.push(component))
            });
            return Ok(());
        };
        let components = &mut self.tables.components;
        if let Some(c) = component_mut(components, run, component.layer) {
            let old = mem::replace(c, component);
            self.displaced(DirUndo::ChildComponent(child, old));
            return Ok(());
        }
        let at = components
            .get(run)
            .partition_point(|c| c.layer < component.layer);
        self.write_child_interface(child, |pool, run| pool.insert(run, in_place, at, component));
        Ok(())
    }

    /// Replaces this node's whole interface: `own` at `own_layer`, then
    /// the `composed` layers in order.
    pub(crate) fn set_interface(
        &mut self,
        own_layer: u32,
        own: ResourceComponent,
        composed: impl Iterator<Item = (u32, ResourceComponent)> + Clone,
    ) -> Result<(), HarpError> {
        let own = Component::of(own_layer, own)?;
        let mut packed = composed.map(|(l, c)| Component::of(l, c));
        packed.clone().try_for_each(|c| c.map(drop))?;
        let in_place = self.in_place();
        let side = side(self.direction);
        let NodeTables {
            nodes, components, ..
        } = &mut *self.tables;
        let slot = &mut nodes[self.node.index()].dirs[side].interface;
        let old = write_slot(components, slot, |pool, run| {
            pool.rewrite(run, in_place, |items| {
                items.push(own);
                items.extend(packed.by_ref().map(|c| c.expect(CHECKED)));
            })
        });
        self.displaced(DirUndo::Interface(old));
        Ok(())
    }

    /// Sets one component of this node's interface; no-op before the
    /// interface was generated.
    pub(crate) fn set_component(
        &mut self,
        layer: u32,
        component: ResourceComponent,
    ) -> Result<(), HarpError> {
        let component = Component::of(layer, component)?;
        let in_place = self.in_place();
        let side = side(self.direction);
        let NodeTables {
            nodes, components, ..
        } = &mut *self.tables;
        let slot = &mut nodes[self.node.index()].dirs[side].interface;
        let Some(run) = some(*slot) else {
            return Ok(());
        };
        if let Some(c) = component_mut(components, run, component.layer) {
            let old = mem::replace(c, component);
            self.displaced(DirUndo::Component(old));
            return Ok(());
        }
        let at = components
            .get(run)
            .partition_point(|c| c.layer < component.layer);
        let old = write_slot(components, slot, |pool, run| {
            pool.insert(run, in_place, at, component)
        });
        self.displaced(DirUndo::Interface(old));
        Ok(())
    }

    /// The position of `layer`'s row, made first (vacant) if `make` and
    /// there is none.
    fn row_at(&mut self, layer: u16, make: bool) -> Option<usize> {
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
    pub(crate) fn hold_layers(&mut self, layers: RangeInclusive<u32>) -> Result<(), HarpError> {
        let (first, last) = (layer16(*layers.start())?, layer16(*layers.end())?);
        if !self.record_mut().layers.is_empty() {
            for layer in first..=last {
                self.row_at(layer, true);
            }
            return Ok(());
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
            rows.extend((first..=last).map(LayerRow::vacant));
        });
        self.displaced(DirUndo::Layers(old));
        Ok(())
    }

    /// Writes one field of `layer`'s row, making the row when `value` is
    /// not `none`, and logs what the field held.
    fn put_field<V: Copy + PartialEq>(
        &mut self,
        layer: u16,
        field: fn(&mut LayerRow) -> &mut V,
        (value, none): (V, V),
        undo: fn(u16, V) -> DirUndo,
    ) {
        let Some(at) = self.row_at(layer, value != none) else {
            return;
        };
        let old = mem::replace(field(self.row_mut(at)), value);
        self.displaced(undo(layer, old));
    }

    /// Writes the children's partitions at `layer` through `write`.
    fn write_child_partitions(
        &mut self,
        layer: u16,
        write: impl FnOnce(&mut RunPool<Placement>, &mut Run) -> Run,
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
    ) -> Result<(), HarpError> {
        let composite = Composite::of(composite)?;
        check_placed(placed)?;
        let layer = layer16(layer)?;
        let in_place = self.in_place();
        let at = self.row_at(layer, true).expect("made");
        let old = *self.row_mut(at);
        let mut placements = old.layout().unwrap_or_default();
        if !self.overwrite_placed(layer, Placed::Layout, placed) {
            let packed = placed.iter().map(|&p| placement(p).expect(CHECKED));
            let write = |items: &mut Vec<_>| items.extend(packed);
            self.tables
                .placements
                .rewrite(&mut placements, in_place, write);
        }
        let row = self.row_mut(at);
        row.placements = placements;
        row.composite = composite;
        self.displaced(DirUndo::Layout(layer, old.placements, old.composite));
        Ok(())
    }

    /// Writes `placed` over the `which` placements of `layer`'s row when
    /// the row holds as many and at most one of them changes: that one is
    /// logged, and the run stays where it is. A write that changes more
    /// moves the run instead, for the one log entry of its descriptor.
    /// Returns whether it wrote. Every rectangle of `placed` fits.
    fn overwrite_placed(&mut self, layer: u16, which: Placed, placed: &[(NodeId, Rect)]) -> bool {
        let Some(at) = self.row_at(layer, false) else {
            return false;
        };
        let row = *self.row_mut(at);
        let run = match which {
            Placed::Layout => row.placements,
            Placed::Children => row.child_partitions,
        };
        let Some(run) = some(run).filter(|run| run.len() == placed.len()) else {
            return false;
        };
        let packed = |i: usize| placement(placed[i]).expect(CHECKED);
        let held = self.tables.placements.get_mut(run);
        let mut changed = (0..placed.len()).filter(|&i| held[i] != packed(i));
        let (first, more) = (changed.next(), changed.next());
        if more.is_some() {
            return false;
        }
        if let Some(i) = first {
            let old = mem::replace(&mut held[i], packed(i));
            self.displaced(DirUndo::Placement(layer, which, i as u32, old));
        }
        true
    }

    /// # Errors
    ///
    /// [`HarpError::TableLimit`] for a rectangle that ends past the
    /// tables' plane.
    pub(crate) fn set_partition(&mut self, layer: u32, rect: Rect) -> Result<(), HarpError> {
        let area = Area::of(rect)?;
        let field = (area, Area::NONE);
        self.put_field(
            layer16(layer)?,
            |r| &mut r.partition,
            field,
            DirUndo::Partition,
        );
        Ok(())
    }

    /// Drops every partition granted to this node.
    pub(crate) fn drop_partitions(&mut self) {
        let mut from = 0;
        loop {
            let rows = self.read().rows().iter();
            let next = rows
                .filter(|r| r.layer >= from)
                .find(|r| r.partition != Area::NONE);
            let Some(&LayerRow { layer, .. }) = next else {
                return;
            };
            let field = (Area::NONE, Area::NONE);
            self.put_field(layer, |r| &mut r.partition, field, DirUndo::Partition);
            let Some(after) = layer.checked_add(1) else {
                return;
            };
            from = after;
        }
    }

    /// [`DirWriter::set_partition`] for every layer of this node's
    /// interface: the layers' components side by side along the slot axis
    /// from `cursor` on, deepest layer first if `descending`. Returns the
    /// slot after the last one; the caller checked that it fits.
    pub(crate) fn place_partitions_in_a_row(
        &mut self,
        mut cursor: u32,
        descending: bool,
    ) -> Result<u32, HarpError> {
        let iface = some(self.record_mut().interface);
        let iface = iface.expect("generated before allocation");
        let n = iface.len();
        for k in 0..n {
            let at = if descending { n - 1 - k } else { k };
            let (layer, c) = self.tables.components.get(iface)[at].get();
            self.set_partition(layer, Rect::new(Point::new(cursor, 0), c.as_size()))?;
            cursor += c.slots;
        }
        Ok(cursor)
    }

    /// Stores the partitions this node allocated to its children at
    /// `layer`.
    pub(crate) fn set_child_partitions(
        &mut self,
        layer: u32,
        placed: &[(NodeId, Rect)],
    ) -> Result<(), HarpError> {
        check_placed(placed)?;
        let layer = layer16(layer)?;
        if self.overwrite_placed(layer, Placed::Children, placed) {
            return Ok(());
        }
        let in_place = self.in_place();
        let packed = placed.iter().map(|&p| placement(p).expect(CHECKED));
        self.write_child_partitions(layer, |pool, run| {
            pool.rewrite(run, in_place, |items| items.extend(packed))
        });
        Ok(())
    }

    /// Drops `child`'s partition from every layer that holds one.
    pub(crate) fn drop_child_partitions(&mut self, child: NodeId) {
        let in_place = self.in_place();
        let mut at = 0;
        while let Some(&row) = self.read().rows().get(at) {
            at += 1;
            let Some(run) = some(row.child_partitions) else {
                continue;
            };
            if self
                .tables
                .placements
                .get(run)
                .iter()
                .any(|&(c, _)| c == child)
            {
                let keep = |(c, area): Placement| (c != child).then_some((c, area));
                self.write_child_partitions(row.layer, |pool, run| {
                    let placed = *run;
                    pool.rewrite_from(run, in_place, placed, keep)
                });
            }
        }
    }

    /// Carves the children's partitions out of this node's own at every
    /// composed layer: each layout's placements, translated to the node's
    /// partition there.
    ///
    /// # Errors
    ///
    /// [`HarpError::MissingPartition`] at a composed layer the node holds
    /// no partition for, and [`HarpError::TableLimit`] at one where a
    /// translated placement ends past the tables' plane (the layers before
    /// it are carved).
    pub(crate) fn place_child_partitions(&mut self) -> Result<(), HarpError> {
        let in_place = self.in_place();
        for at in 0..self.read().rows().len() {
            let row = self.read().rows()[at];
            let Some(layout) = row.layout() else {
                continue;
            };
            let layer = row.layer;
            let own = row.partition.get().ok_or(HarpError::MissingPartition {
                node: self.node,
                layer: layer.into(),
            })?;
            let (dx, dy) = (own.origin.x, own.origin.y);
            let moved = |(c, rel): Placement| placement((c, rel.rect().translated(dx, dy)));
            let placed = self.tables.placements.get(layout);
            placed.iter().try_for_each(|&p| moved(p).map(drop))?;
            self.write_child_partitions(layer, |pool, run| {
                pool.rewrite_from(run, in_place, layout, |p| Some(moved(p).expect(CHECKED)))
            });
        }
        Ok(())
    }

    /// Stores the cells assigned to the link to `child`.
    pub(crate) fn put_assignment(
        &mut self,
        child: NodeId,
        cells: &CellRun,
    ) -> Result<(), HarpError> {
        let cells = Cells::of(cells, self.tables.config)?;
        self.replace_assignment(child, cells);
        Ok(())
    }

    /// Drops the cells assigned to the link to `child`.
    pub(crate) fn drop_assignment(&mut self, child: NodeId) {
        self.replace_assignment(child, Cells::NONE);
    }

    fn replace_assignment(&mut self, child: NodeId, cells: Cells) {
        let id = self.link_id(child);
        let old = mem::replace(&mut self.tables.links[id].assignment, cells);
        self.displaced(DirUndo::Assignment(child, old));
    }

    pub(crate) fn set_own_cells(&mut self, cells: &CellRun) -> Result<(), HarpError> {
        let cells = Cells::of(cells, self.tables.config)?;
        let old = mem::replace(&mut self.record_mut().own_cells, cells);
        self.displaced(DirUndo::OwnCells(old));
        Ok(())
    }

    /// Marks (`Some(requester)`) or clears (`None`) the escalation pending
    /// at `layer`.
    pub(crate) fn put_pending(
        &mut self,
        layer: u32,
        requester: Option<NodeId>,
    ) -> Result<(), HarpError> {
        let field = (requester.unwrap_or(NO_NODE), NO_NODE);
        self.put_field(layer16(layer)?, |r| &mut r.pending, field, DirUndo::Pending);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsch_sim::Cell;

    /// A gateway with five children, and tables holding nothing.
    fn star() -> (Tree, NodeTables) {
        let tree = Tree::from_parents(&[(1, 0), (2, 0), (3, 0), (4, 0), (5, 0)]);
        let config = SlotframeConfig::paper_default();
        let tables = NodeTables::new(&tree, &Requirements::new(), config);
        (tree, tables)
    }

    /// Everything the getters read of the gateway, both directions.
    fn contents(tables: &NodeTables, tree: &Tree) -> String {
        let root = tree.root();
        let dirs = Direction::BOTH.map(|d| tables.dir(tree, root, d));
        format!("{dirs:?}")
    }

    /// Every setter once, each on a key that is there and on one that is
    /// not (or, for the whole-value setters, on `Some` and on `None`).
    fn write_everything(w: &mut DirWriter<'_>, round: u32) -> Result<(), HarpError> {
        let (kid, layer) = (NodeId(1 + round), 2 + round);
        let comp = ResourceComponent::new(3 + round, 2);
        let rect = Rect::from_xywh(round, 0, 4, 2);
        let iface: ResourceInterface = [(layer, comp)].into_iter().collect();
        w.put_req(kid, Some(7 + round));
        w.put_child_interface(kid, &iface)?;
        w.set_child_component(kid, layer + 1, comp)?;
        w.set_child_component(kid, layer, ResourceComponent::row(1))?;
        w.set_child_component(NodeId(3 + round), layer, comp)?;
        w.set_component(layer, comp)?;
        w.set_interface(layer, comp, std::iter::empty())?;
        w.set_component(layer, ResourceComponent::row(9))?;
        w.set_component(layer + 1, comp)?;
        w.set_component(layer - 1, comp)?;
        w.hold_layers(layer..=layer + 2)?;
        w.set_layout(layer, comp, &[(kid, rect)])?;
        w.set_layout(layer + 1, comp, &[(kid, rect), (NodeId(5), rect)])?;
        w.set_partition(layer, rect)?;
        w.place_partitions_in_a_row(round, round == 0)?;
        w.set_child_partitions(layer, &[(kid, rect)])?;
        w.place_child_partitions()?;
        let config = SlotframeConfig::paper_default();
        w.put_assignment(kid, &CellRun::new(rect, config, 0..1))?;
        w.set_own_cells(&CellRun::new(rect, config, 4..5))?;
        w.put_pending(layer, Some(kid))?;
        w.put_pending(layer + 7, Some(kid))
    }

    fn remove_everything(w: &mut DirWriter<'_>) -> Result<(), HarpError> {
        let kid = NodeId(1);
        w.put_req(kid, None);
        w.forget_child_interface(kid);
        w.drop_assignment(kid);
        w.drop_child_partitions(kid);
        w.put_pending(2, None)?;
        w.put_pending(77, None)
    }

    #[test]
    fn rollback_puts_every_displaced_value_back() -> Result<(), HarpError> {
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
        )?;
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
        )?;
        let populated = contents(&tables, &tree);
        let mut log = UndoLog::recording();
        let mut w = DirWriter::new(&mut tables, &mut log, &tree, root, d);
        write_everything(&mut w, 0)?;
        write_everything(&mut w, 1)?;
        remove_everything(&mut w)?;
        assert_ne!(contents(&tables, &tree), populated);
        log.rollback(&mut tables, &mut schedule, 0);
        assert_eq!(contents(&tables, &tree), populated);
        // The link's row projects the own cells the replay put back.
        let installed = tables.dir(&tree, root, d).own_cells();
        let installed = installed.expect("written").to_vec();
        assert_eq!(installed.len(), 1);
        assert_eq!(schedule.cells_of(Link::down(root)), installed);
        Ok(())
    }

    /// A closed log keeps a buffer of at most `UndoLog::KEPT` entries for
    /// the next run, emptied, and frees a larger one; a rollback on a kept
    /// buffer restores exactly.
    #[test]
    fn a_closed_log_keeps_a_small_buffer_and_frees_a_large_one() -> Result<(), HarpError> {
        let (tree, mut tables) = star();
        let (root, d) = (tree.root(), Direction::Down);
        let mut log = UndoLog::default();
        assert_eq!(log.entries.capacity(), 0, "nothing before the first run");
        log.open();
        assert_eq!(log.entries.capacity(), 16, "what a local adjustment writes");
        DirWriter::new(&mut tables, &mut log, &tree, root, d).put_req(NodeId(1), Some(1));
        log.commit();
        assert!(!log.is_recording() && log.entries.is_empty());
        assert_eq!(
            log.entries.capacity(),
            16,
            "a small commit keeps its buffer"
        );

        log.open();
        let mut w = DirWriter::new(&mut tables, &mut log, &tree, root, d);
        for cells in 0..=UndoLog::KEPT as u32 {
            w.put_req(NodeId(1), Some(cells));
        }
        assert!(log.entries.len() > UndoLog::KEPT);
        log.commit();
        assert_eq!(log.entries.capacity(), 0, "a large commit frees its buffer");

        let before = contents(&tables, &tree);
        let mut schedule = NetworkSchedule::default();
        log.open();
        let mut w = DirWriter::new(&mut tables, &mut log, &tree, root, d);
        write_everything(&mut w, 0)?;
        assert_ne!(contents(&tables, &tree), before);
        log.rollback(&mut tables, &mut schedule, 0);
        assert_eq!(contents(&tables, &tree), before);
        assert!(!log.is_recording() && log.entries.is_empty());
        let kept = log.entries.capacity();
        assert!((1..=UndoLog::KEPT).contains(&kept), "kept {kept}");

        // The next run writes into the kept buffer and rolls back as exactly.
        log.open();
        let mut w = DirWriter::new(&mut tables, &mut log, &tree, root, d);
        write_everything(&mut w, 1)?;
        remove_everything(&mut w)?;
        assert_eq!(log.entries.capacity(), kept, "no new buffer");
        log.rollback(&mut tables, &mut schedule, 0);
        assert_eq!(contents(&tables, &tree), before);
        assert_eq!(schedule.cells_of(Link::down(root)), []);
        Ok(())
    }

    #[test]
    fn a_rollback_reads_a_run_back_from_before_it_moved() -> Result<(), HarpError> {
        let (tree, mut tables) = star();
        let (root, d) = (tree.root(), Direction::Up);
        let mut off = UndoLog::default();
        let mut w = DirWriter::new(&mut tables, &mut off, &tree, root, d);
        w.set_interface(
            1,
            ResourceComponent::row(4),
            [(2, ResourceComponent::new(2, 2))].into_iter(),
        )?;
        w.hold_layers(1..=2)?;
        w.set_partition(2, Rect::from_xywh(0, 0, 2, 2))?;
        let before = contents(&tables, &tree);
        let (layers, components) = (tables.layers.garbage(), tables.components.garbage());

        // A deeper layer joins both runs: recording, each moves to its
        // pool's tail; later writes go to the moved runs.
        let mut log = UndoLog::recording();
        let mut w = DirWriter::new(&mut tables, &mut log, &tree, root, d);
        w.set_component(3, ResourceComponent::row(1))?;
        w.set_component(1, ResourceComponent::row(6))?;
        w.put_pending(3, Some(NodeId(2)))?;
        w.set_partition(2, Rect::from_xywh(5, 0, 2, 2))?;
        assert!(tables.layers.garbage() > layers, "the layer rows moved");
        assert!(
            tables.components.garbage() > components,
            "the interface moved"
        );
        let view = tables.dir(&tree, root, d);
        assert_eq!(view.pending(3), Some(NodeId(2)));
        assert_eq!(view.interface().map(|i| i.iter().count()), Some(3));

        log.rollback(&mut tables, &mut NetworkSchedule::default(), 0);
        assert_eq!(contents(&tables, &tree), before);
        // The moved-to runs are what is garbage now.
        assert_eq!(tables.layers.garbage(), layers + 3);
        assert_eq!(tables.components.garbage(), components + 3);
        Ok(())
    }

    #[test]
    fn a_write_that_keeps_a_runs_length_leaves_it_in_place() -> Result<(), HarpError> {
        let (tree, mut tables) = star();
        let (root, d) = (tree.root(), Direction::Down);
        let rect = |x| Rect::from_xywh(x, 0, 2, 1);
        let mut off = UndoLog::default();
        let w = &mut DirWriter::new(&mut tables, &mut off, &tree, root, d);
        w.set_child_partitions(3, &[(NodeId(1), rect(0)), (NodeId(2), rect(2))])?;
        let before = contents(&tables, &tree);

        let mut log = UndoLog::recording();
        let w = &mut DirWriter::new(&mut tables, &mut log, &tree, root, d);
        w.set_child_partitions(3, &[(NodeId(1), rect(0)), (NodeId(2), rect(5))])?;
        assert_eq!(tables.placements.garbage(), 0, "nothing moved");
        let view = tables.dir(&tree, root, d);
        let placed = view.child_partitions_at(3).map(|p| p.iter().nth(1));
        assert_eq!(placed, Some(Some((NodeId(2), rect(5)))));
        log.rollback(&mut tables, &mut NetworkSchedule::default(), 0);
        assert_eq!(contents(&tables, &tree), before);
        Ok(())
    }

    #[test]
    fn compaction_waits_for_the_log_to_close() -> Result<(), HarpError> {
        let (tree, mut tables) = star();
        let root = tree.root();
        let mut log = UndoLog::recording();
        // Each write changes the run's length, so it moves the run.
        for round in 0..40 {
            let w = &mut DirWriter::new(&mut tables, &mut log, &tree, root, Direction::Up);
            let placed: Vec<_> = (1..=1 + round % 5)
                .map(|c| (NodeId(c), Rect::from_xywh(round, 0, 1, 1)))
                .collect();
            w.set_child_partitions(2, &placed)?;
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
        Ok(())
    }

    /// Partitions, placements and runs of cells past slot 255 and channel
    /// 15 read back as they were written, and a stored run walks the cells
    /// the run it was given walks: the tables keep all 16 bits of a
    /// coordinate, and each extent on its own axis.
    #[test]
    fn values_past_a_byte_read_back_as_written() -> Result<(), HarpError> {
        let tree = Tree::from_parents(&[(1, 0), (2, 0), (3, 0)]);
        let config = SlotframeConfig::new(65_535, 40, 10_000).expect("a valid slotframe");
        let mut tables = NodeTables::new(&tree, &Requirements::new(), config);
        let (root, d) = (tree.root(), Direction::Up);
        let wide = Rect::from_xywh(300, 17, 1_000, 3);
        let tall = Rect::from_xywh(65_000, 20, 535, 20);
        let placed = [(NodeId(1), wide), (NodeId(2), tall)];
        let composite = ResourceComponent::new(65_535, 37);
        // Components keep 32-bit slots, past what a rectangle holds.
        let own = ResourceComponent::new(70_000, 1);
        // A row that wraps both moduli: slots 65,533 and 65,534, then 0, 1
        // and 2; channels 38 and 39, then 0. One run starts on its first
        // line, the other on its second.
        let row = Rect::from_xywh(65_533, 38, 5, 3);
        let (run, later) = (
            CellRun::new(row, config, 2..14),
            CellRun::new(row, config, 7..14),
        );
        let mut off = UndoLog::default();
        let mut w = DirWriter::new(&mut tables, &mut off, &tree, root, d);
        w.set_interface(300, own, [(301, composite)].into_iter())?;
        w.set_layout(301, composite, &placed)?;
        w.set_partition(300, wide)?;
        w.set_partition(301, tall)?;
        w.set_child_partitions(301, &placed)?;
        w.put_assignment(NodeId(3), &later)?;
        w.set_own_cells(&run)?;

        let view = tables.dir(&tree, root, d);
        let placements = |p: Option<Placements<'_>>| p.map(|p| p.iter().collect::<Vec<_>>());
        let interface = view.interface().map(|i| i.iter().collect::<Vec<_>>());
        assert_eq!(interface, Some(vec![(300, own), (301, composite)]));
        assert_eq!(
            view.partitions().collect::<Vec<_>>(),
            [(300, wide), (301, tall)]
        );
        assert_eq!(placements(view.layout(301)), Some(placed.to_vec()));
        assert_eq!(
            placements(view.child_partitions_at(301)),
            Some(placed.to_vec())
        );
        let layouts = view.layouts().map(|(l, c, p)| (l, c, placements(Some(p))));
        assert_eq!(
            layouts.collect::<Vec<_>>(),
            [(301, composite, Some(placed.to_vec()))]
        );
        let cells = |run: &CellRun| run.to_vec();
        let walked = [Cell::new(0, 38), Cell::new(0, 39), Cell::new(1, 0)];
        assert!(walked.iter().all(|c| cells(&run).contains(c)));
        assert_eq!(cells(&later).first(), Some(&Cell::new(0, 39)));
        assert_eq!(view.own_cells().as_ref().map(cells), Some(cells(&run)));
        assert_eq!(
            view.assignment(NodeId(3)).as_ref().map(cells),
            Some(cells(&later))
        );
        Ok(())
    }

    /// A rectangle or a row of cells that reaches past the tables' 16 bits
    /// is refused, and the write leaves nothing behind.
    #[test]
    fn a_value_past_the_tables_is_refused() {
        let (tree, mut tables) = star();
        let (root, d) = (tree.root(), Direction::Down);
        let before = contents(&tables, &tree);
        let mut off = UndoLog::default();
        let mut w = DirWriter::new(&mut tables, &mut off, &tree, root, d);
        let past = |what, count| Err(HarpError::TableLimit { what, count });
        let slot_end = "slots to a rectangle's end";
        assert_eq!(
            w.set_partition(1, Rect::from_xywh(65_535, 0, 1, 1)),
            past(slot_end, 65_536)
        );
        assert_eq!(
            w.set_partition(1, Rect::from_xywh(0, 65_000, 1, 600)),
            past("channels to a rectangle's top", 65_600)
        );
        let placed = [
            (NodeId(1), Rect::from_xywh(0, 0, 2, 1)),
            (NodeId(2), Rect::from_xywh(70_000, 0, 2, 1)),
        ];
        assert_eq!(w.set_child_partitions(1, &placed), past(slot_end, 70_002));
        let wide = ResourceComponent::new(70_000, 1);
        assert_eq!(w.set_layout(2, wide, &placed[..1]), past(slot_end, 70_000));
        assert_eq!(
            w.set_partition(70_000, Rect::from_xywh(0, 0, 1, 1)),
            past("layers", 70_000)
        );
        let config = SlotframeConfig::paper_default();
        let run = CellRun::new(Rect::from_xywh(0, 0, 70_000, 1), config, 0..2);
        assert_eq!(
            w.set_own_cells(&run),
            past("slots in a row of cells", 70_000)
        );
        assert_eq!(contents(&tables, &tree), before);
    }
}
