//! The scale-study scenario: one tree of 16 grafted subtrees sized to a
//! requested node count, each subtree scheduled in its own slot range.
//!
//! The scenario mirrors HARP's partitioning — depth-1 subtrees hold
//! disjoint resources — at sizes the allocator is not run at: the
//! slotframe's slots are divided into one contiguous range per subtree,
//! every link is scheduled inside its own subtree's range, and no task is
//! sourced at the gateway, so no cell ever mixes links from two subtrees.
//! Within a range, cells are assigned demand-aware and first-fit: each
//! uplink route link receives as many cells per slotframe as tasks route
//! through it (so queues are stable), and non-conflicting links share
//! cells where the two-hop model allows, exercising the engine's conflict
//! probing without manufacturing collisions.

use crate::topo_gen::TopologyConfig;
use std::collections::HashMap;
use tsch_sim::{
    Cell, InterferenceModel, Link, NetworkSchedule, NodeId, Rate, SlotframeConfig, Task, TaskId,
    Tree, TwoHopInterference,
};

/// Depth-1 subtrees in every scale scenario.
pub(crate) const SCALE_SUBTREES: usize = 16;

/// Node counts of the scale-study rows (1k → 1M). The bench harness and
/// its gate both iterate this list, so adding a row here grows both.
pub const SCALE_SIZES: [u32; 4] = [1_000, 10_000, 100_000, 1_000_000];

/// Traffic sources per subtree (the deepest nodes, so routes are long).
pub(crate) const SCALE_SOURCES_PER_SUBTREE: usize = 8;

/// A complete simulator input for the scale study.
#[derive(Debug, Clone)]
pub struct ScaleScenario {
    /// The grafted topology: 16 depth-1 subtrees under the gateway.
    pub tree: Tree,
    /// The paper-shaped slotframe: 199 slots × 16 channels.
    pub config: SlotframeConfig,
    /// Conflict-free schedule, one private slot range per subtree.
    pub schedule: NetworkSchedule,
    /// Uplink tasks from the deepest nodes of each subtree.
    pub tasks: Vec<Task>,
}

/// Smallest depth whose fanout-4 tree capacity `(4^(d+1) - 1) / 3` holds
/// `nodes`.
fn fanout4_layers(nodes: u32) -> u32 {
    let mut layers = 1u32;
    let mut capacity = 5u64; // 1 + 4
    while capacity < u64::from(nodes) {
        layers += 1;
        capacity = capacity * 4 + 1;
    }
    layers
}

/// Builds the scale scenario for a total node count (gateway included).
///
/// The same `(nodes, seed)` pair always produces the same scenario.
///
/// # Panics
///
/// Panics if `nodes` is too small to give every subtree at least two
/// nodes (a root and a leaf), i.e. below 33.
#[must_use]
pub fn scale_scenario(nodes: u32, seed: u64) -> ScaleScenario {
    let subtrees = u32::try_from(SCALE_SUBTREES).expect("small constant");
    assert!(
        nodes > 2 * subtrees,
        "need more than {} nodes for {subtrees} two-node subtrees",
        2 * subtrees
    );
    let per = (nodes - 1) / subtrees;
    let extra = (nodes - 1) % subtrees;

    // Graft each generated subtree under the gateway with a contiguous
    // global id block; `from_parents` sees strictly increasing child ids.
    let mut pairs: Vec<(u32, u32)> = Vec::with_capacity(nodes as usize - 1);
    let mut subtree_roots = Vec::with_capacity(SCALE_SUBTREES);
    let mut base = 1u32;
    for i in 0..subtrees {
        let m = per + u32::from(i < extra);
        let layers = fanout4_layers(m).min(m - 1);
        let sub = TopologyConfig {
            nodes: m,
            layers,
            max_children: 4,
        }
        .generate(seed.wrapping_add(u64::from(i)));
        subtree_roots.push(NodeId(base));
        pairs.push((base, 0));
        for v in sub.nodes().skip(1) {
            let parent = sub.parent(v).expect("non-root");
            pairs.push((base + v.0, base + parent.0));
        }
        base += m;
    }
    let tree = Tree::from_parents(&pairs);

    let config = SlotframeConfig::new(199, 16, 10_000).expect("valid slotframe");
    let tasks = scale_tasks(&tree, &subtree_roots);
    let schedule = scale_schedule(&tree, config, &subtree_roots, &tasks);
    ScaleScenario {
        tree,
        config,
        schedule,
        tasks,
    }
}

/// Uplink tasks from each subtree's deepest nodes (rate 1 per slotframe).
fn scale_tasks(tree: &Tree, subtree_roots: &[NodeId]) -> Vec<Task> {
    let depth = node_depths(tree);
    let mut tasks = Vec::with_capacity(subtree_roots.len() * SCALE_SOURCES_PER_SUBTREE);
    for (i, &root) in subtree_roots.iter().enumerate() {
        let end = subtree_roots
            .get(i + 1)
            .map_or(tree.len() as u32, |next| next.0);
        let mut members: Vec<NodeId> = (root.0..end).map(NodeId).collect();
        // Deepest first; ties resolve to the smallest id for determinism.
        members.sort_by_key(|v| (std::cmp::Reverse(depth[v.index()]), v.0));
        for &source in members.iter().take(SCALE_SOURCES_PER_SUBTREE) {
            tasks.push(Task::uplink(
                TaskId(source.0),
                source,
                Rate::per_slotframe(1),
            ));
        }
    }
    tasks
}

fn node_depths(tree: &Tree) -> Vec<u32> {
    let mut depth = vec![0u32; tree.len()];
    for v in tree.nodes().skip(1) {
        let parent = tree.parent(v).expect("non-root");
        depth[v.index()] = depth[parent.index()] + 1;
    }
    depth
}

/// Demand-aware first-fit coloring inside per-subtree slot ranges.
///
/// Each route link gets as many cells as tasks route through it. Links
/// are placed highest-demand first into the earliest cell of their
/// subtree's range whose occupants they do not conflict with (two-hop
/// model), so cells are reused across distant links without creating
/// collisions.
fn scale_schedule(
    tree: &Tree,
    config: SlotframeConfig,
    subtree_roots: &[NodeId],
    tasks: &[Task],
) -> NetworkSchedule {
    let count = u32::try_from(subtree_roots.len()).expect("small constant");
    let width = config.slots / count;
    assert!(width >= 1, "slotframe too short for {count} subtree ranges");
    let interference = TwoHopInterference::default();
    let depth = node_depths(tree);

    // Per-subtree uplink demand per link child (uplinks only: tasks walk
    // child -> gateway).
    let mut demand: HashMap<NodeId, u64> = HashMap::new();
    for task in tasks {
        let mut v = task.source;
        while v != NodeId(0) {
            *demand.entry(v).or_insert(0) += 1;
            v = tree.parent(v).expect("non-root");
        }
    }

    let subtree_index = |v: NodeId| -> usize {
        match subtree_roots.binary_search_by(|root| root.0.cmp(&v.0)) {
            Ok(i) => i,
            Err(i) => i - 1,
        }
    };

    let mut schedule = NetworkSchedule::new(config);
    for (k, _) in subtree_roots.iter().enumerate() {
        let slot_base = u32::try_from(k).expect("small constant") * width;
        let mut links: Vec<(Link, u64)> = demand
            .iter()
            .filter(|(&v, _)| subtree_index(v) == k)
            .map(|(&v, &d)| (Link::up(v), d))
            .collect();
        links.sort_by_key(|&(link, d)| {
            (
                std::cmp::Reverse(d),
                depth[link.child.index()],
                link.child.0,
            )
        });

        let cells: Vec<Cell> = (slot_base..slot_base + width)
            .flat_map(|slot| (0..config.channels).map(move |ch| Cell::new(slot, ch)))
            .collect();
        let mut occupants: Vec<Vec<Link>> = vec![Vec::new(); cells.len()];
        for &(link, d) in &links {
            let mut placed = 0u64;
            for (cell, held) in cells.iter().zip(occupants.iter_mut()) {
                if placed == d {
                    break;
                }
                if held.contains(&link)
                    || held.iter().any(|&o| interference.conflicts(tree, o, link))
                {
                    continue;
                }
                schedule
                    .assign(*cell, link)
                    .expect("first placement of this link in this cell");
                held.push(link);
                placed += 1;
            }
            assert!(
                placed == d,
                "subtree {k} out of cells: link {link:?} needs {d}, placed {placed}"
            );
        }
    }
    schedule
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsch_sim::StatsMode;

    #[test]
    fn scenario_has_requested_size_and_shape() {
        let s = scale_scenario(1_000, 7);
        assert_eq!(s.tree.len(), 1_000);
        assert_eq!(s.tree.children(NodeId(0)).len(), SCALE_SUBTREES);
        assert_eq!(s.tasks.len(), SCALE_SUBTREES * SCALE_SOURCES_PER_SUBTREE);
        let cells = |sched: &NetworkSchedule| -> Vec<(Cell, Vec<Link>)> {
            sched
                .iter_cells()
                .map(|(c, links)| (c, links.to_vec()))
                .collect()
        };
        assert_eq!(
            cells(&scale_scenario(1_000, 7).schedule),
            cells(&s.schedule),
            "scenario generation must be deterministic"
        );
    }

    #[test]
    fn schedule_fits_the_slotframe_and_keeps_subtrees_apart() {
        let s = scale_scenario(1_000, 3);
        let total: usize = s.schedule.iter_cells().map(|(_, links)| links.len()).sum();
        assert!(total <= (s.config.slots * u32::from(s.config.channels)) as usize);

        assert_eq!(s.tree.children(NodeId(0)).len(), SCALE_SUBTREES);
        // Depth-1 ancestor: the path ends `[.., top, gateway]`.
        let top_of = |v: NodeId| {
            let path = s.tree.path_to_root(v);
            path[path.len() - 2]
        };
        for (cell, links) in s.schedule.iter_cells() {
            let top = top_of(links[0].child);
            assert!(
                links.iter().all(|l| top_of(l.child) == top),
                "cell {cell} mixes links from two subtrees"
            );
        }
        assert!(s.tasks.iter().all(|t| t.source != NodeId(0)));
    }

    #[test]
    fn scenario_delivers_traffic_without_collisions() {
        let s = scale_scenario(500, 11);
        let mut builder = tsch_sim::SimulatorBuilder::new(s.tree, s.config).schedule(s.schedule);
        for task in s.tasks {
            builder = builder.task(task).unwrap();
        }
        builder = builder.stats_mode(StatsMode::Streaming);
        let mut sim = builder.build();
        sim.run_slotframes(4);
        let stats = sim.stats();
        assert_eq!(stats.collisions, 0, "coloring must be conflict-free");
        assert!(stats.delivered() > 0, "uplink traffic must arrive");
        assert_eq!(
            stats.queue_drops, 0,
            "demand-matched cells keep queues stable"
        );
    }

    #[test]
    fn fanout4_layer_bound_is_tight() {
        assert_eq!(fanout4_layers(2), 1);
        assert_eq!(fanout4_layers(5), 1);
        assert_eq!(fanout4_layers(6), 2);
        assert_eq!(fanout4_layers(21), 2);
        assert_eq!(fanout4_layers(22), 3);
        assert_eq!(fanout4_layers(6_250), 7);
        // Per-subtree size at the 1M-node row: 999_999 / 16 ≈ 62_500.
        assert_eq!(fanout4_layers(62_500), 8);
    }
}
