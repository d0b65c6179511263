//! The network communication schedule: which link may transmit in which cell.
//!
//! A [`NetworkSchedule`] is the global view of all cell assignments in one
//! slotframe. HARP guarantees at most one link per cell; the baseline
//! schedulers (random, MSF, LDSF) do not, so the table supports multiple
//! links per cell and exposes collision analysis over an
//! [`InterferenceModel`]. The two-map model of the same API is the oracle
//! in `tests/schedule_model.rs`.

use crate::interference::InterferenceModel;
use crate::run_pool::{Run, RunPool};
use crate::time::{Cell, SlotframeConfig};
use crate::topology::{Link, Tree};
use core::fmt;
use core::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};

/// Process-wide monotone counter backing [`NetworkSchedule::version`].
///
/// Starts at 1 so version 0 is reserved for freshly created (empty)
/// schedules: two schedules share a version only when they have identical
/// contents (both empty, or clones of the same mutation point), which is
/// exactly the property the simulator's cache keying relies on.
static NEXT_VERSION: AtomicU64 = AtomicU64::new(1);

/// Errors raised by schedule mutation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum ScheduleError {
    /// The cell lies outside the slotframe bounds.
    CellOutOfBounds {
        /// The offending cell.
        cell: Cell,
        /// Slotframe slot count.
        slots: u32,
        /// Slotframe channel count.
        channels: u16,
    },
    /// The link is already assigned to this cell.
    DuplicateAssignment {
        /// The cell in question.
        cell: Cell,
        /// The link already present.
        link: Link,
    },
}

impl fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleError::CellOutOfBounds {
                cell,
                slots,
                channels,
            } => write!(
                f,
                "cell {cell} outside slotframe of {slots} slots x {channels} channels"
            ),
            ScheduleError::DuplicateAssignment { cell, link } => {
                write!(f, "link {link} already assigned to cell {cell}")
            }
        }
    }
}

impl std::error::Error for ScheduleError {}

/// Summary of the collision analysis of a schedule.
///
/// The *collision probability* reproduced in Fig. 11 of the paper is
/// `colliding_assignments / total_assignments`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CollisionReport {
    /// Total number of (cell, link) assignments in the schedule.
    pub total_assignments: usize,
    /// Assignments that conflict with at least one other assignment on the
    /// same cell under the chosen interference model.
    pub colliding_assignments: usize,
    /// Number of distinct cells where at least one conflict occurs.
    pub colliding_cells: usize,
}

impl CollisionReport {
    /// Fraction of assignments that collide, in `[0, 1]`; `0` for an empty
    /// schedule.
    #[must_use]
    pub fn collision_probability(&self) -> f64 {
        if self.total_assignments == 0 {
            0.0
        } else {
            self.colliding_assignments as f64 / self.total_assignments as f64
        }
    }
}

/// Cell-index entry of a cell that hosts more than one link: its whole
/// list, first link included, lives in `NetworkSchedule::stacked`.
const STACKED: u32 = u32::MAX;

/// Every cell that hosts two or more links, in one table: `links[k]` is
/// assigned to `cells[k]`, sorted by cell and, within a cell, in
/// assignment order, so a cell's links are one slice of `links`.
#[derive(Debug, Clone, Default)]
struct Stacked {
    cells: Vec<Cell>,
    links: Vec<Link>,
}

impl Stacked {
    /// Where `cell`'s entries are; empty, at the place they would go, when
    /// it has none.
    fn range(&self, cell: Cell) -> Range<usize> {
        let start = self.cells.partition_point(|&c| c < cell);
        start..start + self.cells[start..].partition_point(|&c| c == cell)
    }
}

/// One row of the link table: the link itself, so an exclusive cell can
/// lend it as a one-element slice, and its run of the cell pool. A row
/// keeps its run's room after an unassign, for the re-assignment that
/// follows.
#[derive(Debug, Clone, Copy)]
struct LinkRow {
    link: Link,
    cells: Run,
}

/// A slotframe-wide table of cell assignments.
///
/// Stored flat: a dense `slots × channels` cell index naming each cell's
/// link, and a link table dense by link id whose rows are runs of one cell
/// pool. Cells that host several links (the baseline schedulers'
/// collisions, and HARP's for the moment an escalated install overlaps a
/// sibling's row that has yet to move) share one sorted side table. The
/// tables hold `20 B` per link id up to the largest id assigned, so node
/// ids are expected to be dense.
///
/// # Examples
///
/// ```
/// use tsch_sim::{Cell, Link, NetworkSchedule, NodeId, SlotframeConfig};
///
/// # fn main() -> Result<(), tsch_sim::ScheduleError> {
/// let cfg = SlotframeConfig::paper_default();
/// let mut schedule = NetworkSchedule::new(cfg);
/// schedule.assign(Cell::new(0, 0), Link::up(NodeId(1)))?;
/// assert_eq!(schedule.cells_of(Link::up(NodeId(1))), &[Cell::new(0, 0)]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct NetworkSchedule {
    config: SlotframeConfig,
    /// One entry per cell, slot-major (`Cell`'s order), allocated by the
    /// first assignment: 0 = empty, [`STACKED`], else the link's id + 1.
    /// Four bytes a cell: the paper's 199 × 16 slotframe costs 12.7 KB.
    index: Vec<u32>,
    /// The link table, dense by `Link::dense_id` and grown on demand.
    rows: Vec<LinkRow>,
    /// Every link's cells, in assignment order within a row's run.
    pool: RunPool<Cell>,
    /// Cells hosting two or more links, created by the first such cell and
    /// kept once it empties. A HARP schedule stacks only inside an
    /// escalated adjustment, while a sibling still holds the cells a new
    /// row takes, and is exclusive again when the adjustment settles.
    stacked: Option<Box<Stacked>>,
    assignments: usize,
    active_cells: usize,
    version: u64,
}

impl NetworkSchedule {
    /// Creates an empty schedule for the given slotframe.
    #[must_use]
    pub fn new(config: SlotframeConfig) -> Self {
        Self {
            config,
            ..Self::default()
        }
    }

    /// An empty schedule with room for `links` link ids and `cells`
    /// assignments, so filling it up to that allocates nothing more than
    /// its cell index.
    #[must_use]
    pub fn with_capacity(config: SlotframeConfig, links: usize, cells: usize) -> Self {
        Self {
            config,
            rows: Vec::with_capacity(links),
            pool: RunPool::with_capacity(cells),
            ..Self::default()
        }
    }

    /// The slotframe configuration this schedule belongs to.
    #[must_use]
    pub fn config(&self) -> SlotframeConfig {
        self.config
    }

    /// An opaque mutation counter.
    ///
    /// Every successful [`assign`](Self::assign),
    /// [`unassign_link`](Self::unassign_link) or [`clear`](Self::clear)
    /// stamps the schedule with a fresh process-unique version, so a cached
    /// derivation (such as the simulator's per-slot table) is valid exactly
    /// while the version it was built from still matches. Clones share
    /// their origin's version; fresh empty schedules are version 0.
    #[must_use]
    pub fn version(&self) -> u64 {
        self.version
    }

    fn bump_version(&mut self) {
        self.version = NEXT_VERSION.fetch_add(1, Ordering::Relaxed);
    }

    /// Position of an in-bounds `cell` in the cell index.
    fn cell_pos(&self, cell: Cell) -> usize {
        cell.slot as usize * usize::from(self.config.channels) + usize::from(cell.channel)
    }

    /// The links an index entry stands for.
    fn links_at(&self, cell: Cell, entry: u32) -> &[Link] {
        match entry {
            0 => &[],
            STACKED => {
                let stacked = self
                    .stacked
                    .as_deref()
                    .expect("a stacked cell has its table");
                &stacked.links[stacked.range(cell)]
            }
            id_plus_one => core::slice::from_ref(&self.rows[id_plus_one as usize - 1].link),
        }
    }

    /// Extends the link table to hold `id`.
    fn grow_rows(&mut self, id: usize) {
        assert!(
            id < STACKED as usize - 1,
            "link id {id} does not fit the cell index"
        );
        let from = self.rows.len();
        self.rows.extend((from..=id).map(|id| LinkRow {
            link: Link::from_dense_id(id),
            cells: Run::default(),
        }));
    }

    /// Writes `link` into the cell index at `cell`.
    fn occupy(&mut self, cell: Cell, link: Link) {
        if self.index.is_empty() {
            self.index = vec![0; self.config.cells_per_slotframe() as usize];
        }
        let pos = self.cell_pos(cell);
        match self.index[pos] {
            0 => {
                self.index[pos] = link.dense_id() as u32 + 1;
                self.active_cells += 1;
            }
            STACKED => {
                let stacked = self.stacked.as_mut().expect("a stacked cell has its table");
                let end = stacked.range(cell).end;
                stacked.cells.insert(end, cell);
                stacked.links.insert(end, link);
            }
            first => {
                let first = self.rows[first as usize - 1].link;
                let stacked = self.stacked.get_or_insert_with(Box::default);
                let at = stacked.range(cell).start;
                stacked.cells.splice(at..at, [cell, cell]);
                stacked.links.splice(at..at, [first, link]);
                self.index[pos] = STACKED;
            }
        }
    }

    /// Removes `link` from the cell index at `cell`.
    fn vacate(&mut self, cell: Cell, link: Link) {
        let pos = self.cell_pos(cell);
        if self.index[pos] == STACKED {
            let stacked = self.stacked.as_mut().expect("a stacked cell has its table");
            let range = stacked.range(cell);
            let at = range.start
                + stacked.links[range.clone()]
                    .iter()
                    .position(|&l| l == link)
                    .expect("the link is on its cell");
            stacked.cells.remove(at);
            stacked.links.remove(at);
            if range.len() == 2 {
                // The other link holds the cell alone again.
                let last = stacked.links.remove(range.start);
                stacked.cells.remove(range.start);
                self.index[pos] = last.dense_id() as u32 + 1;
            }
        } else {
            debug_assert_eq!(self.index[pos], link.dense_id() as u32 + 1);
            self.index[pos] = 0;
            self.active_cells -= 1;
        }
    }

    /// Appends `cell` to the run of link `id`, compacting the pool when
    /// the run moved and left too much garbage behind.
    fn push_cell(&mut self, id: usize, cell: Cell) {
        self.assignments += 1;
        if self.pool.push(&mut self.rows[id].cells, cell) && self.pool.wants_compaction() {
            let rows = &mut self.rows;
            self.pool
                .compact(|each| rows.iter_mut().for_each(|row| each(&mut row.cells)));
        }
    }

    /// Empties the row of link `id`; returns how many cells it held.
    fn release(&mut self, id: usize) -> usize {
        let Some(&row) = self.rows.get(id) else {
            return 0;
        };
        for k in 0..row.cells.len() {
            self.vacate(self.pool.get(row.cells)[k], row.link);
        }
        let released = row.cells.len();
        self.assignments -= released;
        self.pool.clear(&mut self.rows[id].cells);
        released
    }

    /// Assigns `link` to `cell`. Multiple links may share a cell (that is
    /// exactly what the baseline schedulers do); the same link may not be
    /// assigned to the same cell twice.
    ///
    /// # Errors
    ///
    /// [`ScheduleError::CellOutOfBounds`] if the cell exceeds the slotframe;
    /// [`ScheduleError::DuplicateAssignment`] on a repeated (cell, link) pair.
    pub fn assign(&mut self, cell: Cell, link: Link) -> Result<(), ScheduleError> {
        if !self.config.contains_cell(cell) {
            return Err(ScheduleError::CellOutOfBounds {
                cell,
                slots: self.config.slots,
                channels: self.config.channels,
            });
        }
        if self.links_on(cell).contains(&link) {
            return Err(ScheduleError::DuplicateAssignment { cell, link });
        }
        let id = link.dense_id();
        if id >= self.rows.len() {
            self.grow_rows(id);
        }
        self.occupy(cell, link);
        self.push_cell(id, cell);
        self.bump_version();
        Ok(())
    }

    /// Removes every cell assigned to `link`; returns how many were removed.
    pub fn unassign_link(&mut self, link: Link) -> usize {
        let released = self.release(link.dense_id());
        if released > 0 {
            self.bump_version();
        }
        released
    }

    /// The cells currently assigned to `link`, in assignment order.
    #[must_use]
    pub fn cells_of(&self, link: Link) -> &[Cell] {
        match self.rows.get(link.dense_id()) {
            Some(row) => self.pool.get(row.cells),
            None => &[],
        }
    }

    /// The links assigned to `cell`.
    #[must_use]
    pub fn links_on(&self, cell: Cell) -> &[Link] {
        if !self.config.contains_cell(cell) {
            return &[];
        }
        match self.index.get(self.cell_pos(cell)) {
            Some(&entry) => self.links_at(cell, entry),
            None => &[],
        }
    }

    /// Iterates over all (cell, links) entries in cell order.
    pub fn iter_cells(&self) -> impl Iterator<Item = (Cell, &[Link])> + '_ {
        let channels = usize::from(self.config.channels);
        self.index
            .iter()
            .enumerate()
            .filter(|&(_, &entry)| entry != 0)
            .map(move |(pos, &entry)| {
                let cell = Cell::new((pos / channels) as u32, (pos % channels) as u16);
                (cell, self.links_at(cell, entry))
            })
    }

    /// Iterates over all (link, cells) entries in link order.
    pub fn iter_links(&self) -> impl Iterator<Item = (Link, &[Cell])> + '_ {
        self.rows
            .iter()
            .filter(|row| !row.cells.is_empty())
            .map(|row| (row.link, self.pool.get(row.cells)))
    }

    /// Total number of (cell, link) assignments — per-slotframe
    /// transmission opportunities. The event-driven engine's work per
    /// slotframe tracks this count (plus queued retransmissions), not the
    /// node count, so the scale study reports throughput per assignment
    /// ("active cell"). Distinct cells would undercount: non-conflicting
    /// links may share a cell, and the sharing density grows with size.
    #[must_use]
    pub fn assignment_count(&self) -> usize {
        self.assignments
    }

    /// Number of distinct cells with at least one assigned link — the
    /// schedule's cell footprint in the slotframe matrix.
    #[must_use]
    pub fn active_cells(&self) -> usize {
        self.active_cells
    }

    /// Returns `true` if no cell hosts more than one link — HARP's invariant.
    #[must_use]
    pub fn is_exclusive(&self) -> bool {
        self.stacked.iter().all(|s| s.cells.is_empty())
    }

    /// Cells assigned to more than one link, in cell order.
    #[must_use]
    pub fn shared_cells(&self) -> Vec<Cell> {
        let mut cells: Vec<Cell> = self
            .stacked
            .iter()
            .flat_map(|s| s.cells.iter().copied())
            .collect();
        cells.dedup();
        cells
    }

    /// The links of every cell that hosts two or more, in cell order.
    fn stacked_lists(&self) -> impl Iterator<Item = &[Link]> + '_ {
        let stacked = self.stacked.as_deref();
        let mut start = 0;
        core::iter::from_fn(move || {
            let s = stacked?;
            let cell = *s.cells.get(start)?;
            let end = start + s.cells[start..].partition_point(|&c| c == cell);
            let links = &s.links[start..end];
            start = end;
            Some(links)
        })
    }

    /// Analyses collisions under an interference model.
    ///
    /// An assignment collides when at least one other link on the same cell
    /// conflicts with it; every member of a conflicting pair is counted.
    pub fn collision_report<M: InterferenceModel + ?Sized>(
        &self,
        tree: &Tree,
        model: &M,
    ) -> CollisionReport {
        let mut report = CollisionReport {
            total_assignments: self.assignment_count(),
            ..CollisionReport::default()
        };
        let mut colliding = Vec::new();
        for links in self.stacked_lists() {
            colliding.clear();
            colliding.resize(links.len(), false);
            for i in 0..links.len() {
                for j in i + 1..links.len() {
                    if model.conflicts(tree, links[i], links[j]) {
                        colliding[i] = true;
                        colliding[j] = true;
                    }
                }
            }
            let n = colliding.iter().filter(|&&c| c).count();
            if n > 0 {
                report.colliding_cells += 1;
                report.colliding_assignments += n;
            }
        }
        report
    }

    /// Clears every assignment, keeping the configuration.
    pub fn clear(&mut self) {
        *self = Self::new(self.config);
        self.bump_version();
    }

    /// Restores earlier link rows — the rollback primitive behind
    /// `HarpNetwork`'s transactional events, whose undo log feeds it every
    /// cell run it puts back.
    ///
    /// Pair by pair, whatever `link` holds is removed and `cells` are
    /// reinstated in their order. `version` is restored verbatim (no fresh
    /// version is minted), so a rollback is indistinguishable — version
    /// included — from swapping in a clone taken at the point restored to,
    /// as long as no restored link shared a cell with one that is not
    /// restored: always, for exclusive schedules (HARP's invariant).
    ///
    /// # Panics
    ///
    /// Panics if a restored cell lies outside the slotframe.
    pub fn restore_rows<R: IntoIterator<Item = Cell>>(
        &mut self,
        rows: impl IntoIterator<Item = (Link, R)>,
        version: u64,
    ) {
        for (link, cells) in rows {
            let id = link.dense_id();
            // Drop whatever the aborted transaction left on this link.
            self.release(id);
            for cell in cells {
                assert!(self.config.contains_cell(cell), "restored {cell} in bounds");
                if id >= self.rows.len() {
                    self.grow_rows(id);
                }
                self.occupy(cell, link);
                self.push_cell(id, cell);
            }
        }
        self.version = version;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interference::{GlobalInterference, TwoHopInterference};
    use crate::topology::NodeId;

    fn cfg() -> SlotframeConfig {
        SlotframeConfig::new(10, 4, 10_000).unwrap()
    }

    #[test]
    fn assign_and_lookup() {
        let mut s = NetworkSchedule::new(cfg());
        let link = Link::up(NodeId(1));
        s.assign(Cell::new(3, 2), link).unwrap();
        s.assign(Cell::new(5, 0), link).unwrap();
        assert_eq!(s.cells_of(link), &[Cell::new(3, 2), Cell::new(5, 0)]);
        assert_eq!(s.links_on(Cell::new(3, 2)), &[link]);
        assert_eq!(s.assignment_count(), 2);
    }

    #[test]
    fn out_of_bounds_rejected() {
        let mut s = NetworkSchedule::new(cfg());
        let e = s.assign(Cell::new(10, 0), Link::up(NodeId(1))).unwrap_err();
        assert!(matches!(e, ScheduleError::CellOutOfBounds { .. }));
        let e = s.assign(Cell::new(0, 4), Link::up(NodeId(1))).unwrap_err();
        assert!(matches!(e, ScheduleError::CellOutOfBounds { .. }));
    }

    #[test]
    fn duplicate_pair_rejected_but_sharing_allowed() {
        let mut s = NetworkSchedule::new(cfg());
        let c = Cell::new(1, 1);
        s.assign(c, Link::up(NodeId(1))).unwrap();
        assert!(matches!(
            s.assign(c, Link::up(NodeId(1))).unwrap_err(),
            ScheduleError::DuplicateAssignment { .. }
        ));
        // A different link may share the cell.
        s.assign(c, Link::up(NodeId(2))).unwrap();
        assert_eq!(s.links_on(c).len(), 2);
        assert!(!s.is_exclusive());
        assert_eq!(s.shared_cells(), vec![c]);
    }

    #[test]
    fn unassign_removes_everywhere() {
        let mut s = NetworkSchedule::new(cfg());
        let link = Link::down(NodeId(3));
        s.assign(Cell::new(0, 0), link).unwrap();
        s.assign(Cell::new(1, 0), link).unwrap();
        assert_eq!(s.unassign_link(link), 2);
        assert!(s.cells_of(link).is_empty());
        assert!(s.links_on(Cell::new(0, 0)).is_empty());
        assert_eq!(s.assignment_count(), 0);
        assert_eq!(s.unassign_link(link), 0, "second removal is a no-op");
    }

    #[test]
    fn collision_report_global_model() {
        let tree = Tree::paper_fig1_example();
        let mut s = NetworkSchedule::new(cfg());
        let c = Cell::new(2, 2);
        s.assign(c, Link::up(NodeId(4))).unwrap();
        s.assign(c, Link::up(NodeId(9))).unwrap();
        s.assign(Cell::new(3, 3), Link::up(NodeId(5))).unwrap();
        let r = s.collision_report(&tree, &GlobalInterference);
        assert_eq!(r.total_assignments, 3);
        assert_eq!(r.colliding_assignments, 2);
        assert_eq!(r.colliding_cells, 1);
        assert!((r.collision_probability() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn collision_report_two_hop_model_spares_distant_links() {
        let tree = Tree::paper_fig1_example();
        let mut s = NetworkSchedule::new(cfg());
        let c = Cell::new(2, 2);
        // 4→1 and 9→7 are far apart: same cell but no interference.
        s.assign(c, Link::up(NodeId(4))).unwrap();
        s.assign(c, Link::up(NodeId(9))).unwrap();
        let model = TwoHopInterference::default();
        let r = s.collision_report(&tree, &model);
        assert_eq!(r.colliding_assignments, 0);
        assert_eq!(r.collision_probability(), 0.0);
        // Same-parent links on one cell do collide.
        s.assign(c, Link::up(NodeId(5))).unwrap();
        s.assign(c, Link::up(NodeId(10))).unwrap();
        let r = s.collision_report(&tree, &model);
        // 4/5 share receiver 1; 9/10 share receiver 7. All four collide.
        assert_eq!(r.colliding_assignments, 4);
        assert_eq!(r.colliding_cells, 1);
    }

    #[test]
    fn empty_schedule_has_zero_probability() {
        let s = NetworkSchedule::new(cfg());
        let tree = Tree::paper_fig1_example();
        let r = s.collision_report(&tree, &GlobalInterference);
        assert_eq!(r.collision_probability(), 0.0);
        assert!(s.is_exclusive());
    }

    #[test]
    fn clear_resets() {
        let mut s = NetworkSchedule::new(cfg());
        s.assign(Cell::new(0, 0), Link::up(NodeId(1))).unwrap();
        s.clear();
        assert_eq!(s.assignment_count(), 0);
        assert!(s.iter_cells().next().is_none());
        assert!(s.iter_links().next().is_none());
    }

    #[test]
    fn version_changes_on_every_mutation() {
        let mut s = NetworkSchedule::new(cfg());
        assert_eq!(s.version(), 0, "fresh schedules are version 0");
        let v0 = s.version();
        s.assign(Cell::new(0, 0), Link::up(NodeId(1))).unwrap();
        let v1 = s.version();
        assert_ne!(v0, v1);
        // Failed mutations leave the version untouched.
        assert!(s.assign(Cell::new(0, 0), Link::up(NodeId(1))).is_err());
        assert_eq!(s.version(), v1);
        assert_eq!(s.unassign_link(Link::up(NodeId(9))), 0);
        assert_eq!(s.version(), v1);
        // Clones keep their origin's version until mutated themselves.
        let mut clone = s.clone();
        assert_eq!(clone.version(), v1);
        clone.clear();
        assert_ne!(clone.version(), v1);
        assert_eq!(s.version(), v1);
        s.unassign_link(Link::up(NodeId(1)));
        assert_ne!(s.version(), v1);
        assert_ne!(s.version(), clone.version(), "versions are process-unique");
    }

    #[test]
    fn restore_rows_reinstates_contents_and_version() {
        let mut s = NetworkSchedule::new(cfg());
        let a = Link::up(NodeId(1));
        let b = Link::up(NodeId(2));
        s.assign(Cell::new(0, 0), a).unwrap();
        s.assign(Cell::new(1, 0), a).unwrap();
        s.assign(Cell::new(2, 0), b).unwrap();
        let saved_version = s.version();
        let saved_a = s.cells_of(a).to_vec();
        let saved_b = s.cells_of(b).to_vec();
        let reference = s.clone();

        // Mutate both rows the way an aborted transaction would: move a,
        // wipe b, touch a third link that was never captured.
        s.unassign_link(a);
        s.assign(Cell::new(5, 1), a).unwrap();
        s.unassign_link(b);
        s.assign(Cell::new(6, 2), Link::down(NodeId(3))).unwrap();
        assert_ne!(s.version(), saved_version);

        s.restore_rows([(a, saved_a), (b, saved_b)], saved_version);
        assert_eq!(s.cells_of(a), reference.cells_of(a));
        assert_eq!(s.cells_of(b), reference.cells_of(b));
        assert!(s.links_on(Cell::new(5, 1)).is_empty());
        // The uncaptured link survives untouched.
        assert_eq!(s.cells_of(Link::down(NodeId(3))), &[Cell::new(6, 2)]);
        assert_eq!(
            s.version(),
            saved_version,
            "restore reinstates the captured version instead of minting one"
        );
        // A row captured empty restores to empty.
        let mut t = NetworkSchedule::new(cfg());
        let v0 = t.version();
        t.assign(Cell::new(0, 0), a).unwrap();
        t.restore_rows([(a, [])], v0);
        assert!(t.cells_of(a).is_empty());
        assert_eq!(t.assignment_count(), 0);
        assert_eq!(t.version(), v0);
    }

    #[test]
    fn error_display() {
        let e = ScheduleError::CellOutOfBounds {
            cell: Cell::new(9, 9),
            slots: 5,
            channels: 2,
        };
        assert!(e.to_string().contains("outside"));
    }
}
