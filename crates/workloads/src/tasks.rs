//! Task-set construction for the paper's workloads.
//!
//! The testbed deploys one end-to-end echo task per device node at equal
//! rates (§VI-B); the simulation studies sweep the per-node data rate from
//! 1 to 8 packets/slotframe (§VII-A). These helpers build those task sets.

use tsch_sim::{NodeId, Rate, Task, TaskId, Tree};

/// One echo task per non-gateway node at a uniform rate — the testbed
/// workload (§VI-B).
///
/// # Examples
///
/// ```
/// use tsch_sim::{Rate, Tree};
/// use workloads::echo_task_per_node;
///
/// let tree = Tree::paper_fig1_example();
/// let tasks = echo_task_per_node(&tree, Rate::per_slotframe(1));
/// assert_eq!(tasks.len(), 11);
/// ```
#[must_use]
pub fn echo_task_per_node(tree: &Tree, rate: Rate) -> Vec<Task> {
    let tasks: Vec<Task> = tree
        .nodes()
        .skip(1)
        .enumerate()
        .map(|(i, n)| Task::echo(TaskId(i as u32), n, rate))
        .collect();
    crate::obs::TASKS_GENERATED.add(tasks.len() as u64);
    tasks
}

/// One uplink-only task per non-gateway node at a uniform rate — the
/// simulation workload of Fig. 11.
#[must_use]
pub fn uplink_task_per_node(tree: &Tree, rate: Rate) -> Vec<Task> {
    let tasks: Vec<Task> = tree
        .nodes()
        .skip(1)
        .enumerate()
        .map(|(i, n)| Task::uplink(TaskId(i as u32), n, rate))
        .collect();
    crate::obs::TASKS_GENERATED.add(tasks.len() as u64);
    tasks
}

/// The task of `node` within a per-node task set (tasks are indexed by
/// enumeration order, which skips the gateway).
#[must_use]
pub fn task_id_of(tree: &Tree, node: NodeId) -> Option<TaskId> {
    tree.nodes()
        .skip(1)
        .position(|n| n == node)
        .map(|i| TaskId(i as u32))
}

/// Uniform per-link cell demand: every link (both directions) requires
/// `cells_per_link` cells, as in the paper's schedule-collision experiment
/// (§VII-A), where each node's data rate directly sets its links' cell
/// count without forwarding aggregation.
#[must_use]
pub fn uniform_link_requirements(tree: &Tree, cells_per_link: u32) -> harp_core::Requirements {
    let mut reqs = harp_core::Requirements::for_tree(tree);
    for v in tree.nodes().skip(1) {
        reqs.set(tsch_sim::Link::up(v), cells_per_link);
        reqs.set(tsch_sim::Link::down(v), cells_per_link);
    }
    reqs
}

/// Uniform uplink-only demand: every uplink requires `cells_per_link`
/// cells, downlinks none — the Fig. 11 sweep's demand model (sensor data
/// flows toward the gateway; at rate 8 this fills the 199-slot frame almost
/// exactly, the regime the paper sweeps).
#[must_use]
pub fn uniform_uplink_requirements(tree: &Tree, cells_per_link: u32) -> harp_core::Requirements {
    let mut reqs = harp_core::Requirements::for_tree(tree);
    for v in tree.nodes().skip(1) {
        reqs.set(tsch_sim::Link::up(v), cells_per_link);
    }
    reqs
}

/// Aggregated (forwarding-aware) requirements for one echo task per node at
/// a uniform rate — the testbed workload's demand model, where a parent
/// forwards its whole subtree's packets (`r(e) = rate × subtree size`).
#[must_use]
pub fn aggregated_echo_requirements(tree: &Tree, rate: Rate) -> harp_core::Requirements {
    harp_core::Requirements::from_tasks(tree, &echo_task_per_node(tree, rate))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsch_sim::TaskKind;

    #[test]
    fn echo_tasks_cover_all_non_gateway_nodes() {
        let tree = Tree::paper_fig1_example();
        let tasks = echo_task_per_node(&tree, Rate::per_slotframe(2));
        assert_eq!(tasks.len(), tree.len() - 1);
        for t in &tasks {
            assert_eq!(t.kind, TaskKind::Echo);
            assert_eq!(t.rate, Rate::per_slotframe(2));
            assert_ne!(t.source, tree.root());
        }
        // Unique ids.
        let mut ids: Vec<u32> = tasks.iter().map(|t| t.id.0).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), tasks.len());
    }

    #[test]
    fn uplink_tasks_are_uplink_only() {
        let tree = Tree::paper_fig1_example();
        let tasks = uplink_task_per_node(&tree, Rate::per_slotframe(3));
        assert!(tasks.iter().all(|t| t.kind == TaskKind::UplinkOnly));
    }

    #[test]
    fn task_id_lookup_matches_enumeration() {
        let tree = Tree::paper_fig1_example();
        let tasks = echo_task_per_node(&tree, Rate::per_slotframe(1));
        for t in &tasks {
            assert_eq!(task_id_of(&tree, t.source), Some(t.id));
        }
        assert_eq!(task_id_of(&tree, tree.root()), None);
    }
}
