//! Distributed schedule generation (§IV-D of the paper).
//!
//! Once every node holds its partition at its own link layer — a
//! single-channel row of `Σ r(e)` cells — it assigns those cells to its
//! child links locally, with no coordination: the partitions are disjoint,
//! so whatever each parent decides is collision-free network-wide.
//!
//! The paper deploys Rate-Monotonic ordering (links carrying
//! shorter-period, i.e. higher-rate, traffic first); any policy works
//! inside the row, so the policy is a parameter.

use crate::allocation::PartitionTable;
use crate::error::HarpError;
use crate::requirement::Requirements;
use crate::workspace::Workspace;
use core::fmt;
use packing::Rect;
use std::ops::Range;
use tsch_sim::{Cell, Direction, Link, NetworkSchedule, NodeId, SlotframeConfig, Tree};

/// How a parent orders its child links inside its partition row.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SchedulingPolicy {
    /// Rate-Monotonic: links with larger cell requirements (shorter periods
    /// / higher rates) are scheduled earliest in the row.
    #[default]
    RateMonotonic,
    /// Children in id order — a deterministic baseline.
    ChildOrder,
}

/// `parent`'s children with the requirement of each one's `direction` link.
fn child_links<'a>(
    tree: &'a Tree,
    parent: NodeId,
    direction: Direction,
    requirements: &'a Requirements,
) -> impl Iterator<Item = (NodeId, u32)> + 'a {
    tree.children(parent).iter().map(move |&child| {
        let link = Link { child, direction };
        (child, requirements.get(link))
    })
}

impl Workspace {
    /// Assigns the cells of one partition row to `parent`'s child links,
    /// given as `(child, requirement)` pairs, according to `policy`. This
    /// is the form each distributed [`HarpNode`](crate::HarpNode) uses — a
    /// node knows its own children and their demands without holding the
    /// global tree. The links come back in row order, each with its run of
    /// cells still uncollected, so a caller allocates only for the links it
    /// keeps.
    ///
    /// # Errors
    ///
    /// [`HarpError::PartitionTooSmall`] if the row has fewer cells than the
    /// links require.
    pub fn assign_row(
        &mut self,
        parent: NodeId,
        child_requirements: impl IntoIterator<Item = (NodeId, u32)>,
        row: Rect,
        policy: SchedulingPolicy,
        config: SlotframeConfig,
    ) -> Result<RowAssignments<'_>, HarpError> {
        let links = &mut self.row;
        links.clear();
        links.extend(child_requirements);
        let required: u32 = links.iter().map(|&(_, r)| r).sum();
        let available = row.width() * row.height();
        if required > available {
            return Err(HarpError::PartitionTooSmall {
                node: parent,
                required,
                available,
            });
        }
        match policy {
            SchedulingPolicy::RateMonotonic => {
                links.sort_by_key(|&(c, r)| (std::cmp::Reverse(r), c));
            }
            SchedulingPolicy::ChildOrder => links.sort_by_key(|&(c, _)| c),
        }
        Ok(RowAssignments {
            links: links.iter(),
            cells: CellRun::new(row, config, 0..0),
        })
    }
}

/// The links of one scheduled row in row order, each with the cells it was
/// granted; what [`Workspace::assign_row`] returns.
#[derive(Debug)]
pub struct RowAssignments<'a> {
    links: std::slice::Iter<'a, (NodeId, u32)>,
    /// The run granted to the previous link (empty at the row's start).
    cells: CellRun,
}

impl Iterator for RowAssignments<'_> {
    type Item = (NodeId, CellRun);

    fn next(&mut self) -> Option<Self::Item> {
        let &(child, r) = self.links.next()?;
        // `assign_row` checked that the links' total fits the row.
        let start = self.cells.range.end;
        self.cells.range = start..start + r;
        Some((child, self.cells.clone()))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.links.size_hint()
    }
}

/// The cells granted to one link: consecutive cells of a partition row,
/// walked left to right (then the next channel for multi-row partitions,
/// which only arise after dynamic adjustment), in transmission order.
///
/// A run is how a link's cells are kept wherever they are kept — in the
/// parent's assignment, in the child's own record of it, in the
/// [`CellAssignment`](crate::HarpMessage::CellAssignment) between them and in
/// the undo log — so it owns no heap and is small: the row's corner and
/// width, the slotframe's two moduli and the range, 28 bytes (the row's
/// height and the slot duration are not needed to walk it). Like a
/// [`Range`], it is its own iterator; clone it to walk it again.
///
/// Two runs are equal when they yield the same cells in the same order,
/// whatever rows they were cut from: a row that grew in place leaves the
/// leading links' cells where they were, and neither the parent (which
/// tells a child only when its cells changed) nor the child (which ignores
/// a re-delivered assignment) may take that for a change.
#[derive(Clone, Default)]
pub struct CellRun {
    left: u32,
    bottom: u32,
    width: u32,
    slots: u32,
    channels: u16,
    /// Indices into the row's walk.
    range: Range<u32>,
}

impl CellRun {
    /// The cells at positions `range` of `row`'s walk, with slot and channel
    /// offsets taken modulo `config`'s slotframe.
    ///
    /// # Panics
    ///
    /// Panics if `range` is not empty and ends beyond the row's last cell.
    #[must_use]
    pub fn new(row: Rect, config: SlotframeConfig, range: Range<u32>) -> Self {
        assert!(
            range.is_empty() || u64::from(range.end) <= row.area(),
            "cells {range:?} of a row of {} cells",
            row.area()
        );
        Self {
            left: row.left(),
            bottom: row.bottom(),
            width: row.width(),
            slots: config.slots,
            channels: config.channels,
            range,
        }
    }

    /// Returns `true` if the run holds no cell.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.range.is_empty()
    }

    /// The cells as a vector of exactly their number (none: no heap).
    #[must_use]
    pub fn to_vec(&self) -> Vec<Cell> {
        let mut cells = Vec::with_capacity(self.len());
        cells.extend(self.clone());
        cells
    }
}

impl Iterator for CellRun {
    type Item = Cell;

    fn next(&mut self) -> Option<Cell> {
        let index = self.range.next()?;
        let (dx, dy) = (index % self.width, index / self.width);
        Some(Cell::new(
            (self.left + dx) % self.slots,
            ((u64::from(self.bottom + dy) % u64::from(self.channels)) as u16)
                .min(self.channels - 1),
        ))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.range.size_hint()
    }
}

impl ExactSizeIterator for CellRun {}

impl PartialEq for CellRun {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.clone().eq(other.clone())
    }
}

impl Eq for CellRun {}

/// Prints the cells, as the vector of them would.
impl fmt::Debug for CellRun {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.clone()).finish()
    }
}

/// Generates the complete network schedule from an allocated partition
/// table: every non-leaf node assigns its row locally; the union is the
/// global schedule.
///
/// # Errors
///
/// * [`HarpError::MissingPartition`] if a non-leaf node with demand has no
///   scheduling area.
/// * [`HarpError::PartitionTooSmall`] if a row cannot hold its links' cells.
/// * [`HarpError::Schedule`] if a wrapped (overflowing) allocation assigns
///   the same cell to one link twice.
///
/// # Examples
///
/// ```
/// use harp_core::{
///     allocate_partitions, build_interfaces, generate_schedule, Requirements,
///     SchedulingPolicy,
/// };
/// use tsch_sim::{Direction, Link, NodeId, SlotframeConfig, Tree};
///
/// # fn main() -> Result<(), harp_core::HarpError> {
/// let tree = Tree::paper_fig1_example();
/// let mut reqs = Requirements::new();
/// for v in tree.nodes().skip(1) {
///     reqs.set(Link::up(v), tree.subtree_size(v));
///     reqs.set(Link::down(v), tree.subtree_size(v));
/// }
/// let cfg = SlotframeConfig::paper_default();
/// let up = build_interfaces(&tree, &reqs, Direction::Up, cfg.channels)?;
/// let down = build_interfaces(&tree, &reqs, Direction::Down, cfg.channels)?;
/// let table = allocate_partitions(&tree, &up, &down, cfg)?;
/// let schedule =
///     generate_schedule(&tree, &reqs, &table, SchedulingPolicy::RateMonotonic)?;
/// assert!(schedule.is_exclusive()); // HARP's headline property
/// # Ok(())
/// # }
/// ```
pub fn generate_schedule(
    tree: &Tree,
    requirements: &Requirements,
    table: &PartitionTable,
    policy: SchedulingPolicy,
) -> Result<NetworkSchedule, HarpError> {
    let config = table.config();
    let mut schedule = NetworkSchedule::new(config);
    let mut ws = Workspace::new();
    for direction in Direction::BOTH {
        for v in tree.nodes() {
            if tree.is_leaf(v) {
                continue;
            }
            let need = requirements.direct_total(tree, v, direction);
            let Some(row) = table.scheduling_area(tree, v, direction) else {
                if need == 0 {
                    continue;
                }
                return Err(HarpError::MissingPartition {
                    node: v,
                    layer: tree.link_layer(v),
                });
            };
            let links = child_links(tree, v, direction, requirements);
            for (child, cells) in ws.assign_row(v, links, row, policy, config)? {
                for cell in cells {
                    schedule.assign(cell, Link { child, direction })?;
                }
            }
        }
    }
    Ok(schedule)
}

/// Verifies that a schedule satisfies every link's requirement.
///
/// Returns the links that received fewer cells than required.
#[must_use]
pub fn unsatisfied_links(
    tree: &Tree,
    requirements: &Requirements,
    schedule: &NetworkSchedule,
) -> Vec<(Link, u32, usize)> {
    let mut out = Vec::new();
    for direction in Direction::BOTH {
        for v in tree.nodes().skip(1) {
            let link = Link {
                child: v,
                direction,
            };
            let need = requirements.get(link);
            let got = schedule.cells_of(link).len();
            if (got as u64) < u64::from(need) {
                out.push((link, need, got));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allocation::allocate_partitions;
    use crate::compose::build_interfaces;

    fn fig1_reqs(tree: &Tree) -> Requirements {
        let mut reqs = Requirements::new();
        for v in tree.nodes().skip(1) {
            reqs.set(Link::up(v), tree.subtree_size(v));
            reqs.set(Link::down(v), tree.subtree_size(v));
        }
        reqs
    }

    fn full_schedule(
        cfg: SlotframeConfig,
        policy: SchedulingPolicy,
    ) -> (Tree, Requirements, NetworkSchedule) {
        let tree = Tree::paper_fig1_example();
        let reqs = fig1_reqs(&tree);
        let up = build_interfaces(&tree, &reqs, Direction::Up, cfg.channels).unwrap();
        let down = build_interfaces(&tree, &reqs, Direction::Down, cfg.channels).unwrap();
        let table = allocate_partitions(&tree, &up, &down, cfg).unwrap();
        let schedule = generate_schedule(&tree, &reqs, &table, policy).unwrap();
        (tree, reqs, schedule)
    }

    /// One row through a fresh workspace, every link's cells collected.
    fn assign_row(
        links: impl IntoIterator<Item = (NodeId, u32)>,
        row: Rect,
        policy: SchedulingPolicy,
    ) -> Result<Vec<(NodeId, Vec<Cell>)>, HarpError> {
        let cfg = SlotframeConfig::paper_default();
        let mut ws = Workspace::new();
        let assigned = ws.assign_row(NodeId(0), links, row, policy, cfg)?;
        Ok(assigned.map(|(child, run)| (child, run.to_vec())).collect())
    }

    /// The gateway's uplinks in Fig. 1: children 1 (r=3), 2 (r=2), 3 (r=6).
    fn gateway_uplinks() -> Vec<(NodeId, u32)> {
        let tree = Tree::paper_fig1_example();
        let reqs = fig1_reqs(&tree);
        child_links(&tree, NodeId(0), Direction::Up, &reqs).collect()
    }

    #[test]
    fn schedule_is_exclusive_and_satisfies_requirements() {
        let (tree, reqs, schedule) = full_schedule(
            SlotframeConfig::paper_default(),
            SchedulingPolicy::RateMonotonic,
        );
        assert!(schedule.is_exclusive());
        assert!(unsatisfied_links(&tree, &reqs, &schedule).is_empty());
    }

    #[test]
    fn schedule_has_zero_collisions_under_global_interference() {
        let (tree, _, schedule) = full_schedule(
            SlotframeConfig::paper_default(),
            SchedulingPolicy::RateMonotonic,
        );
        let report = schedule.collision_report(&tree, &tsch_sim::GlobalInterference);
        assert_eq!(report.colliding_assignments, 0);
        assert_eq!(report.collision_probability(), 0.0);
    }

    #[test]
    fn exact_cell_counts_match_requirements() {
        let (tree, reqs, schedule) = full_schedule(
            SlotframeConfig::paper_default(),
            SchedulingPolicy::ChildOrder,
        );
        for (link, need) in reqs.iter() {
            assert_eq!(schedule.cells_of(link).len(), need as usize, "{link}");
        }
        let _ = tree;
    }

    #[test]
    fn rm_policy_orders_heaviest_link_first() {
        let row = Rect::from_xywh(10, 0, 11, 1);
        let assignments =
            assign_row(gateway_uplinks(), row, SchedulingPolicy::RateMonotonic).unwrap();
        // Gateway children: 1 (r=3), 2 (r=2), 3 (r=6). RM → 3, 1, 2.
        assert_eq!(assignments[0].0, NodeId(3));
        assert_eq!(assignments[0].1.len(), 6);
        assert_eq!(assignments[0].1[0], Cell::new(10, 0));
        assert_eq!(assignments[1].0, NodeId(1));
        assert_eq!(assignments[2].0, NodeId(2));
        assert_eq!(assignments[2].1.last(), Some(&Cell::new(20, 0)));
    }

    #[test]
    fn child_order_policy_is_id_order() {
        let row = Rect::from_xywh(0, 2, 11, 1);
        let assignments = assign_row(gateway_uplinks(), row, SchedulingPolicy::ChildOrder).unwrap();
        let order: Vec<NodeId> = assignments.iter().map(|a| a.0).collect();
        assert_eq!(order, vec![NodeId(1), NodeId(2), NodeId(3)]);
    }

    #[test]
    fn too_small_row_is_an_error() {
        let row = Rect::from_xywh(0, 0, 5, 1); // gateway needs 11
        let err = assign_row(gateway_uplinks(), row, SchedulingPolicy::RateMonotonic).unwrap_err();
        assert_eq!(
            err,
            HarpError::PartitionTooSmall {
                node: NodeId(0),
                required: 11,
                available: 5
            }
        );
    }

    #[test]
    fn zero_requirement_children_get_empty_assignments() {
        // Node 2 requires nothing.
        let links = [(NodeId(1), 2), (NodeId(2), 0)];
        let row = Rect::from_xywh(0, 0, 2, 1);
        let assignments = assign_row(links, row, SchedulingPolicy::RateMonotonic).unwrap();
        assert_eq!(assignments.len(), 2);
        let empty = assignments.iter().find(|a| a.0 == NodeId(2)).unwrap();
        assert!(empty.1.is_empty());
    }

    #[test]
    fn rows_through_a_reused_workspace_equal_fresh_ones() {
        // A long row, a too-small one and short ones through one workspace:
        // a link list read before it is reset would carry the long row over.
        let cfg = SlotframeConfig::paper_default();
        let links = |n: u32| -> Vec<(NodeId, u32)> {
            (0..n).map(|i| (NodeId(40 - i), 1 + (i * 7) % 4)).collect()
        };
        let mut ws = Workspace::new();
        for policy in [
            SchedulingPolicy::RateMonotonic,
            SchedulingPolicy::ChildOrder,
        ] {
            for (n, row) in [
                (24, Rect::from_xywh(3, 1, 30, 2)),
                (5, Rect::from_xywh(0, 0, 4, 1)),
                (2, Rect::from_xywh(190, 15, 9, 1)),
                (1, Rect::from_xywh(7, 2, 1, 1)),
            ] {
                let links = links(n);
                let reused = ws
                    .assign_row(NodeId(0), links.iter().copied(), row, policy, cfg)
                    .map(|assigned| {
                        assigned
                            .map(|(child, run)| (child, run.to_vec()))
                            .collect::<Vec<_>>()
                    });
                let fresh = assign_row(links, row, policy);
                assert_eq!(reused.is_err(), n == 5, "the 4-cell row is too small");
                assert_eq!(reused, fresh);
                // The links share out the row's walk: left to right, then
                // the next channel.
                let granted = fresh.iter().flatten().flat_map(|a| a.1.iter().copied());
                let walk = (0..row.height()).flat_map(|dy| {
                    (0..row.width())
                        .map(move |dx| Cell::new(row.left() + dx, (row.bottom() + dy) as u16))
                });
                assert!(granted.zip(walk).all(|(got, cell)| got == cell));
            }
        }
    }

    #[test]
    fn runs_compare_and_count_by_their_cells() {
        let cfg = SlotframeConfig::paper_default();
        let cells = |run: &CellRun| run.clone().collect::<Vec<Cell>>();

        // The same three cells cut from a row, from the row grown in place
        // (wider, then a second channel) and from a row that starts later.
        let row = Rect::from_xywh(10, 3, 5, 1);
        let run = CellRun::new(row, cfg, 1..4);
        assert_eq!(
            cells(&run),
            [Cell::new(11, 3), Cell::new(12, 3), Cell::new(13, 3)]
        );
        let wider = CellRun::new(Rect::from_xywh(10, 3, 9, 1), cfg, 1..4);
        let taller = CellRun::new(Rect::from_xywh(10, 3, 5, 2), cfg, 1..4);
        let later = CellRun::new(Rect::from_xywh(11, 3, 4, 1), cfg, 0..3);
        for same in [&wider, &taller, &later] {
            assert_eq!(&run, same);
            assert_eq!(format!("{run:?}"), format!("{same:?}"));
        }
        assert_eq!(format!("{run:?}"), format!("{:?}", cells(&run)));
        // One cell more, one cell less, the same number one slot on.
        for other in [1..5, 1..3, 2..5] {
            assert_ne!(run, CellRun::new(row, cfg, other));
        }

        // Across the two channels of a grown partition, and around the end
        // of the slotframe (an unbounded allocation wraps).
        let grown = CellRun::new(Rect::from_xywh(10, 3, 5, 2), cfg, 3..7);
        assert_eq!(
            cells(&grown),
            [
                Cell::new(13, 3),
                Cell::new(14, 3),
                Cell::new(10, 4),
                Cell::new(11, 4)
            ]
        );
        let wrapped = CellRun::new(Rect::from_xywh(197, 15, 4, 2), cfg, 1..6);
        assert_eq!(
            cells(&wrapped),
            [
                Cell::new(198, 15),
                Cell::new(0, 15),
                Cell::new(1, 15),
                Cell::new(197, 0),
                Cell::new(198, 0)
            ]
        );
        assert_ne!(grown, wrapped);
        let head = CellRun::new(Rect::from_xywh(198, 15, 3, 1), cfg, 0..3);
        assert_eq!(
            CellRun::new(Rect::from_xywh(197, 15, 4, 2), cfg, 1..4),
            head
        );

        // However cut, a run counts its cells; empty runs are all equal.
        for run in [&run, &wider, &grown, &wrapped, &CellRun::default()] {
            assert_eq!(run.len(), run.to_vec().len());
            assert_eq!(run.len(), cells(run).len());
            assert_eq!(run.is_empty(), cells(run).is_empty());
            let mut walked = run.clone();
            walked.next();
            assert_eq!(walked.len(), run.len().saturating_sub(1));
        }
        assert_eq!(CellRun::new(row, cfg, 2..2), CellRun::default());
        assert_eq!(CellRun::new(row, cfg, 9..9).to_vec(), []);
    }

    #[test]
    fn wrapped_allocation_generates_but_collides() {
        // A slotframe too short for the demand: unbounded allocation +
        // schedule generation must succeed, and the wrap produces shared
        // cells (HARP's graceful degradation).
        let tree = Tree::paper_fig1_example();
        let reqs = fig1_reqs(&tree);
        let cfg = SlotframeConfig::new(20, 2, 10_000).unwrap();
        let up = build_interfaces(&tree, &reqs, Direction::Up, cfg.channels).unwrap();
        let down = build_interfaces(&tree, &reqs, Direction::Down, cfg.channels).unwrap();
        let table = crate::allocation::allocate_partitions_unbounded(&tree, &up, &down, cfg);
        assert!(table.total_slots() > cfg.slots);
        let schedule =
            generate_schedule(&tree, &reqs, &table, SchedulingPolicy::RateMonotonic).unwrap();
        assert!(!schedule.is_exclusive(), "wrap-around must overlap");
    }

    #[test]
    fn schedule_covers_fig1_total_cells() {
        let (_, reqs, schedule) = full_schedule(
            SlotframeConfig::paper_default(),
            SchedulingPolicy::RateMonotonic,
        );
        let expected: u64 = reqs.total(Direction::Up) + reqs.total(Direction::Down);
        assert_eq!(schedule.assignment_count() as u64, expected);
    }
}
