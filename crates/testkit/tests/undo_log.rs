//! Generated-input referees and allocation budget for the undo log behind
//! every protocol event: [`HarpNetwork::adjust_and_settle`], `join_leaf`,
//! `leave_leaf` and `reparent_leaf`.
//!
//! The first referee runs mixed adjustments — local, escalating, and
//! demands no slotframe holds — over `testkit::seeded`'s trees, on the
//! reliable transport and under Lossy/Chaos
//! channels (where a re-delivery can reach any handler arm mid-transaction
//! and a dead hop aborts a run half-way). A rejection must leave every node
//! `==` its pre-image, the schedule rows and version untouched and nothing
//! in flight; a commit must pass the collision and disjointness checks of
//! `verify.rs`. The second runs joins, leaves and
//! parent switches over the same trees and channels and holds a rejection
//! to the same pre-image, the tree and the node count included.
//!
//! The budget tests count what a create and one adjustment allocate, and
//! what a create frees before it returns: the log keeps the values a run
//! displaces, composition and row scheduling work in the network's
//! `Workspace`, node state sits in the network's tables and pools, sized
//! from the tree when it is built, and a link's cells are a run of its
//! parent's row, so both cost what they write, and a change that goes back
//! to copying node state, to per-call buffers or to a container per node
//! shows up here first — the create, at three tree sizes. In debug builds
//! the adjustments' bill is also printed per layer (packing, Alg. 2, the
//! control plane, ...), each allocation filed by its backtrace, so a
//! change to the bill names the layer it came from.

use harp_core::{
    allocate_partitions, build_interfaces, verify_partitions, verify_schedule,
    verify_uplink_compliance, AllocatorHandle, HarpNetwork, PartitionTable, Requirements,
    ResourceComponent, SchedulingPolicy, Workspace,
};
use testkit::alloc::{allocated, counted, freed};
use testkit::seeded::{seeded_config, seeded_network, seeded_reqs, seeded_tree};
use testkit::{assert_rows_installed, PreImage};
use tsch_sim::{Direction, Link, NodeId, SlotframeConfig, SplitMix64, Tree};

const CASES: u64 = 240;
const ADJUSTMENTS: usize = 32;

/// The static allocation of `reqs`: the table the adjustments then edit.
fn static_table(tree: &Tree, reqs: &Requirements, config: SlotframeConfig) -> PartitionTable {
    let up = build_interfaces(tree, reqs, Direction::Up, config.channels).expect("composes");
    let down = build_interfaces(tree, reqs, Direction::Down, config.channels).expect("composes");
    allocate_partitions(tree, &up, &down, config).expect("the static phase fit")
}

/// The network's partitions as a table `verify_partitions` reads: every
/// entry of `table` overwritten with what the nodes hold now (adjustments
/// move and grow partitions, and add layers).
fn current_partitions(net: &HarpNetwork, mut table: PartitionTable) -> PartitionTable {
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

/// A demand as both referees draw one: none, light, heavy, or more cells
/// than the slotframe has slots.
fn drawn_cells(rng: &mut SplitMix64, config: SlotframeConfig) -> u32 {
    match rng.next_below(8) {
        0 => 0,
        1..=3 => 1 + rng.next_below(3) as u32,
        4..=5 => 4 + rng.next_below(12) as u32,
        6 => config.slots + 1 + rng.next_below(100) as u32,
        _ => 4 * config.slots,
    }
}

/// An active node other than `not`, drawn uniformly (the gateway always
/// qualifies).
fn active_node(net: &HarpNetwork, rng: &mut SplitMix64, not: Option<NodeId>) -> NodeId {
    loop {
        let v = NodeId(rng.next_below(net.tree().len() as u64) as u32);
        if net.is_active(v) && Some(v) != not {
            return v;
        }
    }
}

/// A topology event of the referee below.
#[derive(Debug, Clone, Copy)]
enum Topology {
    Join { parent: NodeId, up: u32, down: u32 },
    Leave(NodeId),
    Reparent { leaf: NodeId, to: NodeId },
}

impl Topology {
    fn kind(self) -> usize {
        match self {
            Topology::Join { .. } => 0,
            Topology::Leave(_) => 1,
            Topology::Reparent { .. } => 2,
        }
    }
}

#[test]
fn rejected_topology_events_restore_the_pre_image_and_commits_stay_collision_free() {
    const EVENTS: usize = 24;
    // Per kind (join, leave, reparent): commits, and rejections per channel.
    let mut commits = [0u32; 3];
    let mut rejections = [[0u32; 3]; 3];
    for case in 0..CASES {
        let mut rng = SplitMix64::new(0x70_9010 ^ (case << 20));
        let tree = seeded_tree(&mut rng, case);
        let reqs = seeded_reqs(&mut rng, case, &tree);
        let config = seeded_config(&mut rng);
        let channel = (case / 4 % 3) as usize;
        let mut net = seeded_network(&tree, &reqs, config, channel, case);
        let ctx = format!("case {case} ({} nodes, channel {channel})", tree.len());
        if net.run_static().is_err() {
            continue;
        }
        let mut demand = reqs;
        let mut joined: Vec<NodeId> = Vec::new();

        for step in 0..EVENTS {
            let event = match rng.next_below(3) {
                0 => Topology::Join {
                    parent: active_node(&net, &mut rng, None),
                    up: drawn_cells(&mut rng, config),
                    down: drawn_cells(&mut rng, config),
                },
                1 => {
                    let (t, net) = (net.tree(), &net);
                    joined.retain(|&v| t.is_leaf(v) && net.is_active(v));
                    if joined.is_empty() {
                        continue;
                    }
                    Topology::Leave(joined[rng.next_below(joined.len() as u64) as usize])
                }
                _ => {
                    let t = net.tree();
                    let leaves: Vec<NodeId> = t
                        .nodes()
                        .filter(|&v| v != t.root() && t.is_leaf(v) && net.is_active(v))
                        .collect();
                    if leaves.is_empty() {
                        continue;
                    }
                    let leaf = leaves[rng.next_below(leaves.len() as u64) as usize];
                    // Half the movers first grow past half the slotframe,
                    // which their old path may hold and the new one not.
                    if rng.chance(0.5) {
                        let heavy = config.slots / 2 + 1 + rng.next_below(64) as u32;
                        if net
                            .adjust_and_settle(net.now(), Link::up(leaf), heavy)
                            .is_ok()
                        {
                            demand.set(Link::up(leaf), heavy);
                        }
                    }
                    let to = active_node(&net, &mut rng, Some(leaf));
                    Topology::Reparent { leaf, to }
                }
            };
            let ctx = format!("{ctx}, event {step} ({event:?})");
            let would_be = NodeId(net.tree().len() as u32);
            let pre = PreImage::of(&net);
            let now = net.now();
            let result = match event {
                Topology::Join { parent, up, down } => {
                    net.join_leaf(now, parent, up, down).map(|(id, _)| {
                        demand.set(Link::up(id), up);
                        demand.set(Link::down(id), down);
                        joined.push(id);
                    })
                }
                Topology::Leave(leaf) => net.leave_leaf(now, leaf).map(|_| {
                    demand.set(Link::up(leaf), 0);
                    demand.set(Link::down(leaf), 0);
                }),
                Topology::Reparent { leaf, to } => net.reparent_leaf(now, leaf, to).map(drop),
            };
            assert_rows_installed(&net, &ctx);
            match result {
                Err(_) => {
                    rejections[event.kind()][channel] += 1;
                    pre.assert_restored(&net, &ctx);
                    assert!(!net.is_active(would_be), "{ctx}: {would_be} joined");
                }
                Ok(()) => {
                    commits[event.kind()] += 1;
                    let broken = verify_schedule(net.tree(), &demand, net.schedule());
                    assert!(broken.is_empty(), "{ctx}: {broken:?}");
                }
            }
        }
    }
    println!("commits (join, leave, reparent) {commits:?}, rejections per channel {rejections:?}");
    // The counts are a fingerprint of every handler's decisions on these
    // inputs: a change to a handler or to the runner's outbox that moves
    // one has to say which and why. A departure only releases cells, so
    // only a dead hop rejects one. Case 128 (Chaos) ran to its last event
    // once senders retired superseded messages: at event 21 its join had
    // left N148:up on an overtaken cell assignment, and its two events
    // after that add a leave commit and a join rejection.
    assert_eq!(commits, [1074, 794, 1673]);
    assert_eq!(rejections, [[292, 289, 260], [0, 0, 0], [47, 53, 66]]);
}

#[test]
fn rejections_restore_the_pre_image_and_commits_stay_collision_free() {
    let (mut commits, mut rejections, mut escalated) = (0u32, 0u32, 0u32);
    let mut rejected_on = [0u32; 3];
    // Uplink order (§IV-C): static tables checked and compliant; checks
    // after an escalated commit, those that found a violation, and the
    // violations they found.
    let (mut static_tables, mut compliant) = (0u32, 0u32);
    let (mut checks, mut drifted, mut out_of_order) = (0u32, 0u32, 0usize);
    for case in 0..CASES {
        let mut rng = SplitMix64::new(0x0D0_106 ^ (case << 20));
        let tree = seeded_tree(&mut rng, case);
        let reqs = seeded_reqs(&mut rng, case, &tree);
        let config = seeded_config(&mut rng);
        let channel = (case / 4 % 3) as usize;
        let mut net = seeded_network(&tree, &reqs, config, channel, case);
        let ctx = format!("case {case} ({} nodes, channel {channel})", tree.len());
        if net.run_static().is_err() {
            continue;
        }
        let table = static_table(&tree, &reqs, config);
        static_tables += 1;
        compliant += u32::from(verify_uplink_compliance(&tree, &table).is_empty());
        let mut demand = reqs;

        let n = tree.len() as u64;
        for step in 0..ADJUSTMENTS {
            let link = Link {
                child: NodeId(1 + rng.next_below(n - 1) as u32),
                direction: if rng.chance(0.5) {
                    Direction::Up
                } else {
                    Direction::Down
                },
            };
            let cells = drawn_cells(&mut rng, config);
            let ctx = format!("{ctx}, adjustment {step} ({link} -> {cells})");

            let pre = PreImage::of(&net);
            let result = net.adjust_and_settle(net.now(), link, cells);
            assert_rows_installed(&net, &ctx);
            // An escalated install may stack a cell a sibling still holds
            // until its own row moves; committed or rolled back, the
            // adjustment ends with every cell held by one link.
            assert!(net.schedule().is_exclusive(), "{ctx}: a cell stays stacked");
            match result {
                Err(_) => {
                    rejections += 1;
                    rejected_on[channel] += 1;
                    pre.assert_restored(&net, &ctx);
                }
                Ok(report) => {
                    commits += 1;
                    demand.set(link, cells);
                    let broken = verify_schedule(&tree, &demand, net.schedule());
                    assert!(broken.is_empty(), "{ctx}: {broken:?}");
                    // No management message, no partition moved. The
                    // sibling check is quadratic in a node's children, so
                    // big trees get it once, after their last adjustment.
                    escalated += u32::from(report.mgmt_messages > 0);
                    if report.mgmt_messages > 0 && tree.len() <= 64 {
                        let table = current_partitions(&net, table.clone());
                        let broken = verify_partitions(&tree, &table);
                        assert!(broken.is_empty(), "{ctx}: {broken:?}");
                        // Escalations may break the order until a refresh.
                        let late = verify_uplink_compliance(&tree, &table).len();
                        checks += 1;
                        drifted += u32::from(late > 0);
                        out_of_order += late;
                    }
                }
            }
        }
        let broken = verify_partitions(&tree, &current_partitions(&net, table));
        assert!(broken.is_empty(), "{ctx}: {broken:?}");
    }
    println!("{commits} commits ({escalated} escalated), {rejections} rejections {rejected_on:?}");
    println!(
        "uplink order: {compliant} of {static_tables} static tables compliant; after escalated \
         commits on trees of <= 64 nodes {drifted} of {checks} checks with a violation, \
         {out_of_order} violations in all"
    );
    // A fingerprint of the handlers' decisions, as in the topology referee.
    assert_eq!((commits, escalated), (5676, 1973));
    assert_eq!((rejections, rejected_on), (1844, [585, 640, 619]));
    // The drift escalations leave in the latency-compliant order (ROADMAP
    // item 13): a change to Alg. 2 or the gateway's reallocation that moves
    // it has to say which way and why.
    assert_eq!((compliant, static_tables), (235, 235));
    assert_eq!((drifted, checks, out_of_order), (804, 1154, 1937));
}

/// A tree of `NODES` nodes and 8 layers with at most 4 children per node
/// (the shape of `harpd`'s benchmark tenants): a backbone reaches every
/// depth, the rest attach at random.
fn tenant_tree(rng: &mut SplitMix64, nodes: usize) -> Tree {
    const LAYERS: u32 = 8;
    const MAX_CHILDREN: u32 = 4;
    let mut depth = vec![0u32];
    let mut children = vec![0u32; nodes];
    let mut pairs: Vec<(u32, u32)> = Vec::with_capacity(nodes - 1);
    for i in 1..nodes {
        let parent = if i <= LAYERS as usize {
            i - 1
        } else {
            loop {
                let p = rng.next_below(i as u64) as usize;
                if depth[p] < LAYERS && children[p] < MAX_CHILDREN {
                    break p;
                }
            }
        };
        depth.push(depth[parent] + 1);
        children[parent] += 1;
        pairs.push((i as u32, parent as u32));
    }
    Tree::from_parents(&pairs)
}

/// 64 changes over 16 hot links, one uplink and one downlink per depth:
/// demands cycle through 1..=4, so the first raise of a link escalates and
/// later ones fit the slack it left; three surges ask for more cells than
/// the slotframe has slots and roll back.
fn hot_link_sequence(tree: &Tree, rng: &mut SplitMix64) -> Vec<(Link, u32)> {
    let mut hot = Vec::with_capacity(16);
    for depth in 1..=8 {
        let at_depth = tree.nodes_at_depth(depth);
        let up = at_depth[rng.next_below(at_depth.len() as u64) as usize];
        let down = at_depth[rng.next_below(at_depth.len() as u64) as usize];
        hot.extend([Link::up(up), Link::down(down)]);
    }
    let mut moves: Vec<(Link, u32)> = (0..64usize)
        .map(|slot| (hot[slot % 16], 1 + ((slot + slot / 16 + 1) % 4) as u32))
        .collect();
    for (k, slot) in [5, 14, 23].into_iter().enumerate() {
        moves[slot].1 = 200 + 40 * k as u32;
    }
    for i in (1..moves.len()).rev() {
        moves.swap(i, rng.next_below(i as u64 + 1) as usize);
    }
    moves
}

/// The 256-node tenant the allocation bills are measured on: its tree, one
/// cell per link, and the 64 changes of [`hot_link_sequence`].
fn hot_tenant() -> (Tree, Requirements, Vec<(Link, u32)>) {
    let mut rng = SplitMix64::new(0xB0D6E7);
    let tree = tenant_tree(&mut rng, 256);
    assert_eq!((tree.len(), tree.layers()), (256, 8));
    let reqs = one_cell_per_link(&tree);
    let moves = hot_link_sequence(&tree, &mut rng);
    (tree, reqs, moves)
}

/// One cell on every link of `tree`, both directions.
fn one_cell_per_link(tree: &Tree) -> Requirements {
    let mut reqs = Requirements::for_tree(tree);
    for v in tree.nodes().skip(1) {
        reqs.set(Link::up(v), 1);
        reqs.set(Link::down(v), 1);
    }
    reqs
}

#[test]
fn a_create_allocates_the_same_whatever_the_tree_size() {
    let mut total = [0u64; 3];
    for (k, nodes) in [64, 128, 256].into_iter().enumerate() {
        let tree = tenant_tree(&mut SplitMix64::new(0xB0D6E7), nodes);
        let reqs = one_cell_per_link(&tree);
        let config = SlotframeConfig::paper_default();
        let policy = SchedulingPolicy::RateMonotonic;
        let ((before, _), freed_before) = (allocated(), freed());
        let handle = AllocatorHandle::converge(tree, config, &reqs, policy).expect("fits");
        total[k] = allocated().0 - before;
        assert_eq!(
            freed() - freed_before,
            0,
            "{nodes} nodes: the create frees nothing"
        );
        drop(handle);
    }
    println!(
        "allocations of the create 64/128/256 nodes: {}/{}/{}",
        total[0], total[1], total[2]
    );
    // Node state, schedule, control plane, workspace and the report's mark
    // arrays are sized when the network is built, and the report is a
    // plain value: a create allocates the same whatever the tree's size.
    assert_eq!(total, [total[0]; 3], "allocations of the create");
}

#[test]
fn an_adjustment_allocates_what_it_writes() {
    /// Allocations of the 256-node create, measured with node state in the
    /// network's tables and pools and those, the schedule, the workspace
    /// and the report's mark arrays sized from the tree when the network is
    /// built (28; 100 with the report's B-tree sets of involved nodes and
    /// layers, 1,499 with a table per node-direction and a B-tree per
    /// interface too, 1,676 with two neighbour lists per node, 2,829 with
    /// the schedule as two maps of vectors, 4,427 with a map per field of a
    /// node-direction and a cell vector per link and end, 7,631 with
    /// composition and row scheduling in per-call buffers too), + 10 %.
    const CREATE_ALLOCS_BUDGET: u64 = 31;
    /// Blocks the create frees before it returns: none (3 while the direct
    /// settle's walk order, the stack that produced it and the per-node
    /// instants were transients, 7 while the gateway's placement cloned both
    /// its interfaces and collected their layers too).
    const CREATE_FREES_BUDGET: u64 = 0;
    /// Mean allocations per adjustment, measured likewise (1.8; 4.1 while
    /// a full repack packed in fresh vectors and the undo log took a fresh
    /// buffer per event, 6.1 while
    /// the schedule kept a vector per stacked cell, and an escalated
    /// install stacked a cell for a moment about twice per adjustment; 120.1 with
    /// Alg. 2's idle area, lists and layouts and the control plane's
    /// deliveries in fresh vectors, 128.8 with the report's B-tree sets
    /// too, 143.2 with node state in per-node containers too, 159.9 with a
    /// first-touch row map beside the log too, 174.3 with a cell vector per
    /// schedule op and an op sink too, 202.9 with a fresh outbox per
    /// handler too, 231.0 with the schedule as maps, 261.5 with maps and
    /// cell vectors in the nodes too, 301.3 with per-call buffers, 878.7
    /// with the first-touch node clones the undo log replaced), + 10 %.
    const MEAN_ALLOCS_BUDGET: f64 = 1.98;
    /// A local adjustment rewrites one row: the cell messages, and its undo
    /// log's buffer when the last event freed it, 333 bytes on average here
    /// (896 with a fresh 16-entry buffer per event, 910 with a vector per
    /// stacked cell too, 3,392 with Alg. 2 and the deliveries in fresh
    /// vectors, 21.3 KiB with node clones), + 10 %. A log that reopened at
    /// 64 entries would read 1,331.
    const LOCAL_BYTES_BUDGET: f64 = 366.0;

    let (tree, reqs, moves) = hot_tenant();
    let config = SlotframeConfig::paper_default();
    let ((before, _), freed_before) = (allocated(), freed());
    let mut handle =
        AllocatorHandle::converge(tree, config, &reqs, SchedulingPolicy::RateMonotonic)
            .expect("one cell per link fits the paper's slotframe");
    let (create_allocs, create_frees) = (allocated().0 - before, freed() - freed_before);
    println!("allocations of the create {create_allocs}, blocks it freed {create_frees}");
    assert!(
        create_allocs <= CREATE_ALLOCS_BUDGET,
        "the create allocates {create_allocs} times, budget {CREATE_ALLOCS_BUDGET}"
    );
    assert_eq!(
        create_frees, CREATE_FREES_BUDGET,
        "the create frees {create_frees} blocks before it returns"
    );

    let (mut allocs, mut local_bytes) = (0u64, 0u64);
    let (mut local, mut escalated, mut rejected) = (0u32, 0u32, 0u32);
    for &(link, cells) in &moves {
        let (a0, b0) = allocated();
        let result = handle.adjust(link, cells);
        let (a1, b1) = allocated();
        allocs += a1 - a0;
        assert!(
            handle.network().schedule().is_exclusive(),
            "{link} -> {cells}"
        );
        match result {
            Ok(bill) if bill.mgmt_messages == 0 => {
                local += 1;
                local_bytes += b1 - b0;
            }
            Ok(_) => escalated += 1,
            Err(_) => rejected += 1,
        }
    }
    assert!(
        local >= 16 && escalated >= 16 && rejected == 3,
        "{local} local / {escalated} escalated / {rejected} rejected"
    );
    let mean_allocs = allocs as f64 / moves.len() as f64;
    let mean_local_bytes = local_bytes as f64 / f64::from(local);
    println!("mean allocations per adjustment {mean_allocs:.1}, local bytes {mean_local_bytes:.0}");
    assert!(
        mean_allocs <= MEAN_ALLOCS_BUDGET,
        "{mean_allocs:.1} allocations per adjustment, budget {MEAN_ALLOCS_BUDGET}"
    );
    assert!(
        mean_local_bytes < LOCAL_BYTES_BUDGET,
        "a local adjustment allocates {mean_local_bytes:.0} bytes on average"
    );
}

#[test]
fn a_warm_workspace_composes_for_the_price_of_the_layout() {
    let children = [
        (NodeId(1), ResourceComponent::new(4, 2)),
        (NodeId(2), ResourceComponent::new(3, 1)),
        (NodeId(3), ResourceComponent::new(0, 1)),
        (NodeId(4), ResourceComponent::new(5, 1)),
    ];
    let mut ws = Workspace::new();
    let first = ws.compose(children, 8, 3).expect("composes");
    let (second, allocs) = counted(|| ws.compose(children, 8, 3).expect("composes"));
    assert_eq!(allocs, 1, "the returned placements and nothing else");
    assert_eq!(first, second);
}

#[test]
fn a_local_change_of_one_link_allocates_for_that_link_only() {
    // A gateway with `siblings` leaves wanting 3 cells each and one wanting
    // 2: rate-monotonic order puts the light link last, so taking a cell
    // from it leaves every sibling's cells where they were.
    let allocs_with = |siblings: u32| {
        let pairs: Vec<(u32, u32)> = (1..=siblings + 1).map(|c| (c, 0)).collect();
        let tree = Tree::from_parents(&pairs);
        let light = NodeId(siblings + 1);
        let mut reqs = Requirements::new();
        for &c in tree.children(tree.root()) {
            reqs.set(Link::up(c), if c == light { 2 } else { 3 });
        }
        let config = SlotframeConfig::paper_default();
        let policy = SchedulingPolicy::RateMonotonic;
        let mut net = HarpNetwork::new(tree, config, &reqs, policy);
        net.run_static().expect("the row fits the slotframe");
        let (fx, allocs) = counted(|| {
            net.request_change_now(Link::up(light), 1)
                .expect("a decrease is local")
        });
        assert_eq!(fx.messages.len(), 1, "only the changed link is told");
        let gateway = net.node(net.tree().root());
        assert_eq!(gateway.assignment(Direction::Up, light).len(), 1);
        allocs
    };
    // The message list; the link's new cells are a run, in the link table
    // and in the message. Nothing per sibling.
    let (one, three) = (allocs_with(1), allocs_with(3));
    assert_eq!(one, three);
    assert!(three <= 1, "{three} allocations");
}

/// The layers an adjustment's allocations are filed under, in the order
/// the bill prints them, each with the frames that belong to it.
#[cfg(debug_assertions)]
const LAYERS: [(&str, &[&str]); 7] = [
    ("packing", &["packing::"]),
    ("Alg. 2", &["harp_core::adjust::", "Cx::gateway_reallocate"]),
    (
        "control plane",
        &[
            "tsch_sim::transport::",
            "tsch_sim::mgmt::",
            "tsch_sim::calendar::",
        ],
    ),
    ("report", &["harp_core::runner::stamp", "ProtocolReport"]),
    ("undo log", &["harp_core::dir_state::UndoLog"]),
    ("schedule", &["tsch_sim::schedule::"]),
    ("other", &["harp_core::", "tsch_sim::"]),
];

/// Files one allocation under its layer in [`LAYERS`]: the innermost frame
/// of this workspace decides. Frames outside it (std, the allocator) are
/// skipped, a std frame generic over one of its types
/// (`core::ptr::drop_in_place<alloc::vec::splice::Splice<..Cell..>>`)
/// included, and so are a run pool's: a pool is a container, not a layer,
/// so its user decides for it.
#[cfg(debug_assertions)]
fn layer_of(backtrace: &str) -> usize {
    let outside = |frame: &str| {
        let path = frame.trim_start_matches('<');
        ["core::", "alloc::", "std::", "tsch_sim::run_pool::"]
            .iter()
            .any(|p| path.starts_with(p))
    };
    backtrace
        .lines()
        .filter_map(|line| line.trim_start().split_once(": ").map(|(_, f)| f))
        .filter(|f| !outside(f))
        .find_map(|frame| {
            LAYERS
                .iter()
                .position(|(_, frames)| frames.iter().any(|m| frame.contains(m)))
        })
        .unwrap_or(LAYERS.len() - 1)
}

/// Who allocates in an adjustment: the 256-node tenant's 64 changes, each
/// allocation filed by the frames it was made in. Debug only, where every
/// function keeps its frame.
#[cfg(debug_assertions)]
#[test]
fn an_adjustments_bill_per_layer_sums_to_its_total() {
    let (tree, reqs, moves) = hot_tenant();
    let config = SlotframeConfig::paper_default();
    let mut handle =
        AllocatorHandle::converge(tree, config, &reqs, SchedulingPolicy::RateMonotonic)
            .expect("one cell per link fits the paper's slotframe");
    let before = allocated().0;
    let ((), bill) = testkit::alloc::sites::attributed(layer_of, || {
        for &(link, cells) in &moves {
            let _ = handle.adjust(link, cells);
        }
    });
    let total = allocated().0 - before;
    let per_adjustment = |n: u64| n as f64 / moves.len() as f64;
    let layers: Vec<String> = LAYERS
        .iter()
        .zip(bill)
        .map(|((name, _), n)| format!("{name} {:.1}", per_adjustment(n)))
        .collect();
    println!(
        "adjustment bill per layer (allocations per adjustment): {}; total {:.1}",
        layers.join(", "),
        per_adjustment(total)
    );
    assert_eq!(
        bill.iter().sum::<u64>(),
        total,
        "the layers sum to the total"
    );
}
