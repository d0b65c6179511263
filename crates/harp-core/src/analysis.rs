//! Static end-to-end latency analysis of a schedule.
//!
//! The paper's future work names "real-time tasks with diverse end-to-end
//! deadlines"; this module provides the analysis side of that extension:
//! given the installed schedule, compute a *worst-case* end-to-end latency
//! bound for each task by walking its route through the slotframe, and
//! check task deadlines against the bound.
//!
//! The bound models an uncongested traversal (each link's cells per
//! slotframe cover its demand — which HARP guarantees — and the analysed
//! packet finds every queue empty): the packet is released at the worst
//! possible slot offset, and at each hop it waits for the link's next
//! scheduled cell, wrapping into the following slotframe when needed.
//! For HARP's routing-path-compliant static schedules the resulting bound
//! is at most one slotframe plus the first-hop wait; dynamically adjusted
//! schedules lose compliance and the bound shows exactly how much latency
//! that costs (the effect visible in Fig. 10's settled tail).

use crate::error::HarpError;
use tsch_sim::{Link, NetworkSchedule, NodeId, Task, Tree};

/// The analysis result for one task.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyBound {
    /// The analysed task's source node.
    pub source: NodeId,
    /// Worst-case end-to-end latency in slots, over all release offsets.
    pub worst_case_slots: u64,
    /// Best-case end-to-end latency in slots.
    pub best_case_slots: u64,
    /// The release offset (slot in frame) attaining the worst case.
    pub worst_release_offset: u32,
}

/// Walks one packet released at slot offset `release` through `route`,
/// returning its arrival time in slots relative to the release instant.
///
/// Returns `None` if some hop has no cells at all.
fn traverse(
    schedule: &NetworkSchedule,
    tree: &Tree,
    route: &[NodeId],
    release: u32,
) -> Option<u64> {
    let slots = u64::from(schedule.config().slots);
    // Absolute time, in slots, since the start of the release frame.
    let mut now = u64::from(release);
    for hop in route.windows(2) {
        let link = link_for_hop(tree, hop[0], hop[1]);
        let cells = schedule.cells_of(link);
        if cells.is_empty() {
            return None;
        }
        // The earliest cell at or after `now` (the packet can use a cell in
        // the slot it arrives in only if it arrived in an earlier slot, so
        // we need cell slot ≥ now within the current frame, else wrap).
        let frame = now / slots;
        let offset = now % slots;
        let next = cells
            .iter()
            .map(|c| u64::from(c.slot))
            .filter(|&s| s >= offset)
            .min();
        let tx = match next {
            Some(s) => frame * slots + s,
            None => {
                let first = cells
                    .iter()
                    .map(|c| u64::from(c.slot))
                    .min()
                    .expect("non-empty");
                (frame + 1) * slots + first
            }
        };
        // The hop completes at the end of the transmission slot.
        now = tx + 1;
    }
    Some(now - u64::from(release))
}

fn link_for_hop(tree: &Tree, from: NodeId, to: NodeId) -> Link {
    if tree.parent(from) == Some(to) {
        Link::up(from)
    } else {
        debug_assert_eq!(tree.parent(to), Some(from), "route follows tree edges");
        Link::down(to)
    }
}

/// Computes the best/worst-case end-to-end latency of `task` under
/// `schedule`, over every possible release offset in the slotframe.
///
/// # Errors
///
/// Returns [`HarpError::MissingPartition`] (with the starved hop's child
/// node) if some hop of the route has no cells assigned.
///
/// # Examples
///
/// ```
/// use harp_core::latency_bound;
/// use tsch_sim::{Cell, Link, NetworkSchedule, NodeId, Rate, SlotframeConfig, Task, TaskId, Tree};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let tree = Tree::from_parents(&[(1, 0), (2, 1)]);
/// let cfg = SlotframeConfig::new(10, 2, 10_000)?;
/// let mut schedule = NetworkSchedule::new(cfg);
/// schedule.assign(Cell::new(2, 0), Link::up(NodeId(2)))?;
/// schedule.assign(Cell::new(5, 0), Link::up(NodeId(1)))?;
/// let task = Task::uplink(TaskId(0), NodeId(2), Rate::per_slotframe(1));
/// let bound = latency_bound(&schedule, &tree, &task)?;
/// // Best case: release at slot ≤ 2, ride cells 2 and 5 → done at slot 6.
/// assert_eq!(bound.best_case_slots, 4);
/// // Worst case: release just after slot 5 → wait into the next frame.
/// assert!(bound.worst_case_slots <= 2 * 10);
/// # Ok(())
/// # }
/// ```
pub fn latency_bound(
    schedule: &NetworkSchedule,
    tree: &Tree,
    task: &Task,
) -> Result<LatencyBound, HarpError> {
    let route = task.route(tree);
    if route.len() < 2 {
        return Ok(LatencyBound {
            source: task.source,
            worst_case_slots: 0,
            best_case_slots: 0,
            worst_release_offset: 0,
        });
    }
    // Identify a starved hop up front for a precise error.
    for hop in route.windows(2) {
        let link = link_for_hop(tree, hop[0], hop[1]);
        if schedule.cells_of(link).is_empty() {
            return Err(HarpError::MissingPartition {
                node: link.child,
                layer: tree.layer_of_link(link),
            });
        }
    }
    let slots = schedule.config().slots;
    let mut worst = 0u64;
    let mut best = u64::MAX;
    let mut worst_release = 0u32;
    for release in 0..slots {
        let latency = traverse(schedule, tree, &route, release).expect("all hops have cells");
        if latency > worst {
            worst = latency;
            worst_release = release;
        }
        best = best.min(latency);
    }
    Ok(LatencyBound {
        source: task.source,
        worst_case_slots: worst,
        best_case_slots: best,
        worst_release_offset: worst_release,
    })
}

/// A task paired with its end-to-end deadline, in slots.
#[derive(Debug, Clone, PartialEq)]
pub struct DeadlineTask {
    /// The task.
    pub task: Task,
    /// Relative end-to-end deadline in slots.
    pub deadline_slots: u64,
}

/// The verdict for one deadline task.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeadlineReport {
    /// The analysed task's source.
    pub source: NodeId,
    /// The computed worst-case latency.
    pub worst_case_slots: u64,
    /// Its deadline.
    pub deadline_slots: u64,
}

impl DeadlineReport {
    /// Whether the worst case meets the deadline.
    #[must_use]
    pub fn is_schedulable(&self) -> bool {
        self.worst_case_slots <= self.deadline_slots
    }
}

/// Checks a whole task set against its deadlines under `schedule`.
///
/// Returns one report per task, in input order.
///
/// # Errors
///
/// Propagates [`latency_bound`]'s error for starved routes.
pub fn check_deadlines(
    schedule: &NetworkSchedule,
    tree: &Tree,
    tasks: &[DeadlineTask],
) -> Result<Vec<DeadlineReport>, HarpError> {
    tasks
        .iter()
        .map(|dt| {
            let bound = latency_bound(schedule, tree, &dt.task)?;
            Ok(DeadlineReport {
                source: dt.task.source,
                worst_case_slots: bound.worst_case_slots,
                deadline_slots: dt.deadline_slots,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsch_sim::{Cell, Rate, SlotframeConfig, TaskId};

    fn chain() -> (Tree, NetworkSchedule) {
        let tree = Tree::from_parents(&[(1, 0), (2, 1)]);
        let cfg = SlotframeConfig::new(10, 2, 10_000).unwrap();
        let mut s = NetworkSchedule::new(cfg);
        s.assign(Cell::new(2, 0), Link::up(NodeId(2))).unwrap();
        s.assign(Cell::new(5, 0), Link::up(NodeId(1))).unwrap();
        s.assign(Cell::new(6, 0), Link::down(NodeId(1))).unwrap();
        s.assign(Cell::new(8, 0), Link::down(NodeId(2))).unwrap();
        (tree, s)
    }

    #[test]
    fn compliant_uplink_bound() {
        let (tree, s) = chain();
        let task = Task::uplink(TaskId(0), NodeId(2), Rate::per_slotframe(1));
        let b = latency_bound(&s, &tree, &task).unwrap();
        // Release at slot 0..=2 rides cells 2 then 5 → latency 6-release.
        assert_eq!(b.best_case_slots, 4);
        // Worst release is slot 6 (just missed slot-5 cell... the wait wraps
        // through slot 2 next frame then slot 5): 10+5+1-6 = 10.
        assert!(b.worst_case_slots >= 10);
        assert!(b.worst_case_slots < 20);
    }

    #[test]
    fn echo_bound_spans_at_most_two_frames_when_compliant() {
        let (tree, s) = chain();
        let cfg = s.config();
        let task = Task::echo(TaskId(0), NodeId(2), Rate::per_slotframe(1));
        let b = latency_bound(&s, &tree, &task).unwrap();
        assert!(b.worst_case_slots.div_ceil(u64::from(cfg.slots)) <= 2);
        // Best case: release exactly at slot 2, ride cells 2, 5, 6, 8 and
        // deliver at the end of slot 8: latency 7.
        assert_eq!(b.best_case_slots, 7);
    }

    #[test]
    fn starved_route_is_an_error() {
        let tree = Tree::from_parents(&[(1, 0), (2, 1)]);
        let cfg = SlotframeConfig::new(10, 2, 10_000).unwrap();
        let mut s = NetworkSchedule::new(cfg);
        s.assign(Cell::new(2, 0), Link::up(NodeId(2))).unwrap();
        // up(1) has no cells.
        let task = Task::uplink(TaskId(0), NodeId(2), Rate::per_slotframe(1));
        let err = latency_bound(&s, &tree, &task).unwrap_err();
        assert!(matches!(
            err,
            HarpError::MissingPartition {
                node: NodeId(1),
                ..
            }
        ));
    }

    #[test]
    fn gateway_task_has_zero_bound() {
        let (tree, s) = chain();
        let task = Task::echo(TaskId(0), NodeId(0), Rate::per_slotframe(1));
        let b = latency_bound(&s, &tree, &task).unwrap();
        assert_eq!(b.worst_case_slots, 0);
        assert_eq!(b.best_case_slots, 0);
    }

    #[test]
    fn non_compliant_order_costs_a_frame() {
        // Reverse the uplink cell order: parent's cell before child's.
        let tree = Tree::from_parents(&[(1, 0), (2, 1)]);
        let cfg = SlotframeConfig::new(10, 2, 10_000).unwrap();
        let mut s = NetworkSchedule::new(cfg);
        s.assign(Cell::new(5, 0), Link::up(NodeId(2))).unwrap();
        s.assign(Cell::new(2, 0), Link::up(NodeId(1))).unwrap();
        let task = Task::uplink(TaskId(0), NodeId(2), Rate::per_slotframe(1));
        let bad = latency_bound(&s, &tree, &task).unwrap();

        let mut s2 = NetworkSchedule::new(cfg);
        s2.assign(Cell::new(2, 0), Link::up(NodeId(2))).unwrap();
        s2.assign(Cell::new(5, 0), Link::up(NodeId(1))).unwrap();
        let good = latency_bound(&s2, &tree, &task).unwrap();
        assert!(
            bad.worst_case_slots > good.worst_case_slots,
            "non-compliant {} vs compliant {}",
            bad.worst_case_slots,
            good.worst_case_slots
        );
    }

    #[test]
    fn deadline_check_splits_pass_fail() {
        let (tree, s) = chain();
        let mk = |deadline| DeadlineTask {
            task: Task::uplink(TaskId(0), NodeId(2), Rate::per_slotframe(1)),
            deadline_slots: deadline,
        };
        let reports = check_deadlines(&s, &tree, &[mk(50), mk(5)]).unwrap();
        assert!(reports[0].is_schedulable());
        assert!(
            !reports[1].is_schedulable(),
            "5 slots is below the worst case"
        );
    }
}
