//! Tests of the topology-change operations: node join, node departure, and
//! interference-driven parent switches — the network dynamics that motivate
//! HARP (§I of the paper).

use harp_core::{
    allocate_partitions, build_interfaces, unsatisfied_links, verify_partitions, verify_schedule,
    HarpError, HarpNetwork, PartitionTable, Requirements, SchedulingPolicy,
};
use tsch_sim::{
    Cell, Direction, Link, NetworkSchedule, NodeId, SlotframeConfig, TopologyError, Tree,
};

/// One cell per link of `tree`, both directions.
fn one_cell_per_link(tree: &Tree) -> Requirements {
    let mut reqs = Requirements::new();
    for v in tree.nodes().skip(1) {
        reqs.set(Link::up(v), 1);
        reqs.set(Link::down(v), 1);
    }
    reqs
}

/// The paper's tree with one cell per link, before the static phase.
fn fig1_deployment() -> HarpNetwork {
    let tree = Tree::paper_fig1_example();
    let reqs = one_cell_per_link(&tree);
    HarpNetwork::new(
        tree,
        SlotframeConfig::paper_default(),
        &reqs,
        SchedulingPolicy::RateMonotonic,
    )
}

fn fig1_network() -> HarpNetwork {
    let mut net = fig1_deployment();
    net.run_static().unwrap();
    net
}

#[test]
fn an_embedder_that_follows_the_schedule_version_stays_in_step() {
    // What a data plane running in lockstep does: keep its own schedule
    // and copy the network's whenever the versions differ.
    let mut net = fig1_deployment();
    let mut embedded = NetworkSchedule::new(net.config());
    let mut follow = |net: &HarpNetwork, event: &str| {
        let copied = embedded.version() != net.schedule().version();
        if copied {
            embedded.clone_from(net.schedule());
        }
        assert!(
            embedded.iter_links().eq(net.schedule().iter_links()),
            "the copy differs after {event}"
        );
        copied
    };

    net.run_static().unwrap();
    assert!(follow(&net, "the static phase"));
    let report = net
        .adjust_and_settle(net.now(), Link::up(NodeId(9)), 4)
        .unwrap();
    assert!(report.mgmt_messages > 0, "the adjustment escalates");
    assert!(follow(&net, "an escalating adjustment"));

    // A rejected event advances the network's version but restores the
    // schedule's, so an embedder that was in step copies nothing.
    let (network_version, schedule_version) = (net.version(), net.schedule().version());
    let rejected = net.adjust_and_settle(net.now(), Link::up(NodeId(9)), 10_000);
    assert!(rejected.is_err());
    assert_ne!(net.version(), network_version);
    assert_eq!(net.schedule().version(), schedule_version);
    assert!(!follow(&net, "a rejected adjustment"));

    let (joined, _) = net.join_leaf(net.now(), NodeId(7), 2, 1).unwrap();
    assert!(follow(&net, "a join"));
    net.reparent_leaf(net.now(), joined, NodeId(8)).unwrap();
    assert!(follow(&net, "a reparent"));
    net.leave_leaf(net.now(), joined).unwrap();
    assert!(follow(&net, "a leave"));
    net.refresh().unwrap();
    assert!(follow(&net, "a refresh"));
}

#[test]
fn each_topology_event_advances_the_version_once() {
    let mut net = fig1_network();
    let v0 = net.version();
    let (joined, _) = net.join_leaf(net.now(), NodeId(7), 2, 1).unwrap();
    assert_eq!(net.version(), v0 + 1, "join");
    net.leave_leaf(net.now(), joined).unwrap();
    assert_eq!(net.version(), v0 + 2, "leave");
    net.reparent_leaf(net.now(), NodeId(10), NodeId(8)).unwrap();
    assert_eq!(net.version(), v0 + 3, "reparent");
}

#[test]
fn leaf_join_under_interior_node() {
    let mut net = fig1_network();
    let before = net.schedule().assignment_count();
    let (id, report) = net.join_leaf(net.now(), NodeId(1), 2, 1).unwrap();
    assert_eq!(id, NodeId(12));
    assert!(net.tree().is_leaf(id));
    assert_eq!(net.tree().parent(id), Some(NodeId(1)));
    assert!(net.schedule().is_exclusive());
    assert_eq!(net.schedule().cells_of(Link::up(id)).len(), 2);
    assert_eq!(net.schedule().cells_of(Link::down(id)).len(), 1);
    assert!(net.schedule().assignment_count() > before);
    assert!(report.mgmt_messages >= 1 || report.cell_messages >= 1);
}

#[test]
fn leaf_join_extends_network_depth() {
    // Joining under node 9 (depth 3) creates layer 4, which did not exist:
    // the gateway must create a brand-new layer partition.
    let mut net = fig1_network();
    assert_eq!(net.tree().layers(), 3);
    let (id, _) = net.join_leaf(net.now(), NodeId(9), 1, 1).unwrap();
    assert_eq!(net.tree().layers(), 4);
    assert!(net.schedule().is_exclusive());
    assert_eq!(net.schedule().cells_of(Link::up(id)).len(), 1);
    assert_eq!(net.schedule().cells_of(Link::down(id)).len(), 1);
}

#[test]
fn join_under_former_leaf_promotes_it() {
    // Node 4 is a leaf; giving it a child forces it to obtain a scheduling
    // partition it never had.
    let mut net = fig1_network();
    assert!(net.tree().is_leaf(NodeId(4)));
    let (id, _) = net.join_leaf(net.now(), NodeId(4), 2, 2).unwrap();
    assert!(!net.tree().is_leaf(NodeId(4)));
    assert!(net.schedule().is_exclusive());
    assert_eq!(net.schedule().cells_of(Link::up(id)).len(), 2);
    assert_eq!(net.schedule().cells_of(Link::down(id)).len(), 2);
}

#[test]
fn leaf_departure_releases_cells_locally() {
    let mut net = fig1_network();
    assert!(!net.schedule().cells_of(Link::up(NodeId(4))).is_empty());
    let report = net.leave_leaf(net.now(), NodeId(4)).unwrap();
    assert!(net.schedule().cells_of(Link::up(NodeId(4))).is_empty());
    assert!(net.schedule().cells_of(Link::down(NodeId(4))).is_empty());
    assert!(net.schedule().is_exclusive());
    // §V: departures are handled by the parent alone — zero management
    // messages, only cell releases.
    assert_eq!(report.mgmt_messages, 0);
    assert!(report.cell_messages >= 1);
}

#[test]
fn parent_switch_moves_cells_between_subtrees() {
    let mut net = fig1_network();
    // Node 6 (child of 2) switches to node 1.
    let report = net.reparent_leaf(net.now(), NodeId(6), NodeId(1)).unwrap();
    assert_eq!(net.tree().parent(NodeId(6)), Some(NodeId(1)));
    assert!(net.schedule().is_exclusive());
    assert_eq!(net.schedule().cells_of(Link::up(NodeId(6))).len(), 1);
    assert_eq!(net.schedule().cells_of(Link::down(NodeId(6))).len(), 1);
    // The new cells live inside node 1's partition row.
    let row = net
        .node(NodeId(1))
        .partition(Direction::Up, 2)
        .expect("node 1 schedules layer 2");
    let cell = net.schedule().cells_of(Link::up(NodeId(6)))[0];
    assert!(
        cell.slot >= row.left() && cell.slot < row.right(),
        "cell {cell} outside row {row:?}"
    );
    assert!(report.elapsed_slots() > 0);
}

#[test]
fn parent_switch_across_layers() {
    let mut net = fig1_network();
    // Node 6 (depth 2) moves under node 7 (depth 2) → becomes depth 3.
    net.reparent_leaf(net.now(), NodeId(6), NodeId(7)).unwrap();
    assert_eq!(net.tree().depth(NodeId(6)), 3);
    assert!(net.schedule().is_exclusive());
    assert_eq!(net.schedule().cells_of(Link::up(NodeId(6))).len(), 1);
    // Old parent (node 2) now has an empty row in use.
    assert_eq!(net.node(NodeId(2)).requirement(Direction::Up, NodeId(6)), 0);
}

/// Everything a refused topology event must leave as it was: the tree,
/// every node, every schedule row, and the version stamps and the clock.
/// A node is what its `Debug` form lists: every getter's reading.
type Observable = (Tree, Vec<String>, Vec<(Link, Vec<Cell>)>, [u64; 3]);

fn observable(net: &HarpNetwork) -> Observable {
    let nodes = net
        .tree()
        .nodes()
        .map(|v| format!("{:?}", net.node(v)))
        .collect();
    let rows = net.schedule().iter_links();
    let rows = rows.map(|(l, c)| (l, c.to_vec())).collect();
    let stamps = [net.version(), net.schedule().version(), net.now().0];
    (net.tree().clone(), nodes, rows, stamps)
}

#[test]
fn a_move_the_tree_refuses_changes_nothing() {
    // A leaf cannot become its own parent. The move is refused before
    // anything is written; it used to be found only after the leaf's cells
    // had been released.
    let mut net = fig1_network();
    net.adjust_and_settle(net.now(), Link::up(NodeId(9)), 2)
        .unwrap();
    let leaf = NodeId(10);
    let before = observable(&net);
    let refused = net.reparent_leaf(net.now(), leaf, leaf);
    let cycle = TopologyError::Cycle {
        child: leaf,
        new_parent: leaf,
    };
    assert_eq!(refused.unwrap_err(), HarpError::Topology(cycle));
    assert_eq!(observable(&net), before);
    assert!(!net.schedule().cells_of(Link::up(leaf)).is_empty());
}

#[test]
fn only_a_leaf_that_is_one_now_can_move() {
    // Node 4 was a leaf when the network was built; after node 6 moves
    // under it, it is not, and moving or removing it is refused with the
    // reason — before anything changes, where it used to panic.
    let mut net = fig1_network();
    net.reparent_leaf(net.now(), NodeId(6), NodeId(4)).unwrap();
    let before = observable(&net);
    let unknown = HarpError::Topology(TopologyError::UnknownNode(NodeId(99)));
    let gateway = HarpError::Topology(TopologyError::RootHasNoParent);
    let refusals = [
        (
            net.reparent_leaf(net.now(), NodeId(4), NodeId(3)),
            HarpError::NotALeaf(NodeId(4)),
        ),
        (
            net.leave_leaf(net.now(), NodeId(4)),
            HarpError::NotALeaf(NodeId(4)),
        ),
        (
            net.reparent_leaf(net.now(), NodeId(0), NodeId(3)),
            gateway.clone(),
        ),
        (net.leave_leaf(net.now(), NodeId(0)), gateway),
        (net.leave_leaf(net.now(), NodeId(99)), unknown.clone()),
        (net.reparent_leaf(net.now(), NodeId(5), NodeId(99)), unknown),
    ];
    for (refused, reason) in refusals {
        assert_eq!(refused.unwrap_err(), reason);
    }
    assert_eq!(observable(&net), before);
    assert_eq!(net.tree().parent(NodeId(6)), Some(NodeId(4)));
}

#[test]
fn churn_storm_keeps_invariants() {
    let mut net = fig1_network();
    let mut rng = tsch_sim::SplitMix64::new(99);
    let mut joined: Vec<NodeId> = Vec::new();
    for round in 0..12 {
        match rng.next_below(3) {
            0 => {
                // Join under a random active node.
                let mut parent = NodeId(rng.next_below(net.tree().len() as u64) as u32);
                while !net.is_active(parent) {
                    parent = NodeId(rng.next_below(net.tree().len() as u64) as u32);
                }
                let (id, _) = net
                    .join_leaf(net.now(), parent, 1 + rng.next_below(2) as u32, 1)
                    .unwrap_or_else(|e| panic!("round {round} join: {e}"));
                joined.push(id);
            }
            1 if !joined.is_empty() => {
                // One of the joined leaves departs (if still a leaf).
                let idx = rng.next_below(joined.len() as u64) as usize;
                let leaf = joined[idx];
                if net.tree().is_leaf(leaf) {
                    net.leave_leaf(net.now(), leaf)
                        .unwrap_or_else(|e| panic!("round {round} leave: {e}"));
                    joined.swap_remove(idx);
                }
            }
            _ => {
                // A random original leaf switches parents.
                let candidates: Vec<NodeId> = net
                    .tree()
                    .nodes()
                    .filter(|&v| {
                        net.tree().is_leaf(v) && v != net.tree().root() && net.is_active(v)
                    })
                    .collect();
                let leaf = candidates[rng.next_below(candidates.len() as u64) as usize];
                let mut target = NodeId(rng.next_below(net.tree().len() as u64) as u32);
                while target == leaf || !net.is_active(target) {
                    target = NodeId(rng.next_below(net.tree().len() as u64) as u32);
                }
                net.reparent_leaf(net.now(), leaf, target)
                    .unwrap_or_else(|e| panic!("round {round} reparent: {e}"));
            }
        }
        assert!(net.schedule().is_exclusive(), "round {round}");
    }
    // Whatever the final topology, every tracked requirement is satisfied.
    let tree = net.tree().clone();
    let mut expected = Requirements::new();
    for v in tree.nodes().skip(1) {
        let parent = tree.parent(v).unwrap();
        for d in Direction::BOTH {
            expected.set(
                Link {
                    child: v,
                    direction: d,
                },
                net.node(parent).requirement(d, v),
            );
        }
    }
    let missing = unsatisfied_links(&tree, &expected, net.schedule());
    assert!(missing.is_empty(), "unsatisfied: {missing:?}");
}

/// `table` with every entry overwritten by the partition its node holds
/// now: the partitions `verify_partitions` must find clean.
fn held_partitions(net: &HarpNetwork, mut table: PartitionTable) -> PartitionTable {
    let tree = net.tree();
    for v in tree.nodes() {
        for d in Direction::BOTH {
            for layer in 1..=tree.layers() {
                if let Some(rect) = net.node(v).partition(d, layer) {
                    table.set(v, d, layer, rect);
                }
            }
        }
    }
    table
}

#[test]
fn a_child_that_became_a_leaf_follows_its_partition() {
    // N8's only child moves away, so the tree calls N8 a leaf, yet N8 still
    // holds a layer-3 rectangle inside N3's partition. When an escalation
    // makes N3 re-place layer 3, N3 must tell N8 where that rectangle went:
    // the leaf that joins N8 next is scheduled inside it.
    let mut net = fig1_network();
    let (tree, config) = (net.tree().clone(), net.config());
    let mut demand = one_cell_per_link(&tree);
    let up = build_interfaces(&tree, &demand, Direction::Up, config.channels).unwrap();
    let down = build_interfaces(&tree, &demand, Direction::Down, config.channels).unwrap();
    let table = allocate_partitions(&tree, &up, &down, config).unwrap();

    net.reparent_leaf(net.now(), NodeId(11), NodeId(1)).unwrap();
    assert!(net.tree().is_leaf(NodeId(8)));
    let held = net.node(NodeId(8)).partition(Direction::Up, 3);
    let report = net
        .adjust_and_settle(net.now(), Link::up(NodeId(9)), 8)
        .unwrap();
    demand.set(Link::up(NodeId(9)), 8);
    assert!(report.involved_nodes.contains(&NodeId(8)), "N8 was told");
    assert_ne!(net.node(NodeId(8)).partition(Direction::Up, 3), held);

    let (joined, _) = net.join_leaf(net.now(), NodeId(8), 1, 1).unwrap();
    demand.set(Link::up(joined), 1);
    demand.set(Link::down(joined), 1);
    let broken = verify_partitions(net.tree(), &held_partitions(&net, table));
    assert!(broken.is_empty(), "{broken:?}");
    let broken = verify_schedule(net.tree(), &demand, net.schedule());
    assert!(broken.is_empty(), "{broken:?}");
}
