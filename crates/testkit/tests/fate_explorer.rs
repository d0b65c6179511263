//! A bounded exhaustive explorer of management-frame fates (stateless model
//! checking): the static phase and one protocol event on small trees, under
//! every pattern of at most *k* frames that are not delivered cleanly.
//!
//! A run builds a network whose transport reads each attempt's fate from a
//! choice prefix: fate *i* is clean unless the prefix makes it lost,
//! duplicated, or delayed by `slots − 1`, the longest delay a
//! `ControlPlane` accepts. The run settles the static phase by messages,
//! then makes one adjustment, join, leave or parent switch. The search
//! re-runs every prefix from the start and clones no state: a run reports
//! how many fates it drew, and a prefix with fewer than *k* faults extends
//! to each later fate with each fault.
//!
//! The static phase must end with every link's row, its child's installed
//! run and its parent's assignment equal (`testkit::misinstalled`) and
//! `verify_schedule` clean. The event must then either commit with the same
//! checks clean or be rejected and leave the network as it found it
//! (`testkit::PreImage`). A violation names its tree, event and prefix; the
//! two a join hit while older cell assignments were still retransmitted
//! after newer ones are pinned below.

use harp_core::{verify_schedule, HarpNetwork, Requirements, SchedulingPolicy};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;
use testkit::{misinstalled, PreImage};
use tsch_sim::{Direction, Link, NodeId, SlotframeConfig, Transport, Tree, TxFate};

/// What the channel does to one attempt that it does not deliver cleanly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fault {
    Lost,
    Duplicated,
    /// Delayed by one slot less than the slotframe.
    Delayed,
}

const FAULTS: [Fault; 3] = [Fault::Lost, Fault::Duplicated, Fault::Delayed];

/// The faults of a run by the index of the fate they replace, ascending;
/// every other fate is clean.
type Prefix = Vec<(usize, Fault)>;

/// The uplink and downlink demand of a joining leaf, and what an
/// adjustment raises a link to.
const RAISED: [u32; 2] = [3, 2];

/// The tree both faults were found on: nodes 1..=5 hang off these parents.
const REPRODUCER: [u32; 5] = [0, 0, 0, 1, 0];

fn config() -> SlotframeConfig {
    SlotframeConfig::new(17, 2, 10_000).expect("non-zero slotframe")
}

/// A transport that plays a [`Prefix`] and counts the fates it drew.
#[derive(Debug)]
struct Scripted {
    prefix: Prefix,
    delay_slots: u64,
    drawn: Arc<AtomicUsize>,
}

impl Transport for Scripted {
    fn fate(&mut self, _link: Link) -> TxFate {
        let i = self.drawn.fetch_add(1, Ordering::Relaxed);
        let clean = TxFate {
            delivered: true,
            duplicated: false,
            delay_slots: 0,
        };
        match self.prefix.iter().find(|&&(j, _)| j == i) {
            None => clean,
            Some((_, Fault::Lost)) => TxFate {
                delivered: false,
                ..clean
            },
            Some((_, Fault::Duplicated)) => TxFate {
                duplicated: true,
                ..clean
            },
            Some((_, Fault::Delayed)) => TxFate {
                delay_slots: self.delay_slots,
                ..clean
            },
        }
    }
}

/// A protocol event of the search.
#[derive(Debug, Clone, Copy)]
enum Event {
    Adjust(Link),
    Join(NodeId),
    Leave(NodeId),
    Reparent(NodeId, NodeId),
}

/// Every tree of `n` nodes in which node `i` hangs off one of nodes `0..i`,
/// as the parents of nodes `1..n`.
fn trees(n: u32) -> Vec<Vec<u32>> {
    (1..n).fold(vec![Vec::new()], |trees, i| {
        let grown = trees
            .iter()
            .flat_map(|parents| (0..i).map(move |p| [parents.as_slice(), &[p]].concat()));
        grown.collect()
    })
}

fn tree_of(parents: &[u32]) -> Tree {
    let pairs: Vec<(u32, u32)> = (1..).zip(parents.iter().copied()).collect();
    Tree::from_parents(&pairs)
}

/// Uplink demand `1 + v % 2` and downlink demand 1 on every link.
fn demand(tree: &Tree) -> Requirements {
    let mut reqs = Requirements::for_tree(tree);
    for v in tree.nodes().skip(1) {
        reqs.set(Link::up(v), 1 + v.0 % 2);
        reqs.set(Link::down(v), 1);
    }
    reqs
}

/// Every event the search tries on `tree`: each link raised to [`RAISED`],
/// a join under each node, and each leaf leaving or moving under each node
/// but itself and its parent.
fn events(tree: &Tree) -> Vec<Event> {
    let leaves: Vec<NodeId> = tree.nodes().skip(1).filter(|&v| tree.is_leaf(v)).collect();
    let links = tree
        .nodes()
        .skip(1)
        .flat_map(|v| [Link::up(v), Link::down(v)]);
    let moves = leaves.iter().flat_map(|&leaf| {
        let parent = tree.parent(leaf);
        let targets = tree
            .nodes()
            .filter(move |&to| to != leaf && Some(to) != parent);
        targets.map(move |to| Event::Reparent(leaf, to))
    });
    links
        .map(Event::Adjust)
        .chain(tree.nodes().map(Event::Join))
        .chain(leaves.iter().map(|&leaf| Event::Leave(leaf)))
        .chain(moves)
        .collect()
}

/// A committed state's faults: a link off its assignment, or a schedule
/// that misses `demand` or collides.
fn check(net: &HarpNetwork, demand: &Requirements) -> Option<String> {
    misinstalled(net).or_else(|| {
        let broken = verify_schedule(net.tree(), demand, net.schedule());
        (!broken.is_empty()).then(|| format!("{broken:?}"))
    })
}

/// Runs the static phase and `event` on `tree` under `prefix`: how many
/// fates the run drew, and its violation if it had one.
fn run(tree: &Tree, event: Event, prefix: &[(usize, Fault)]) -> (usize, Option<String>) {
    let drawn = Arc::new(AtomicUsize::new(0));
    let transport = Scripted {
        prefix: prefix.to_vec(),
        delay_slots: u64::from(config().slots) - 1,
        drawn: Arc::clone(&drawn),
    };
    let mut demand = demand(tree);
    let policy = SchedulingPolicy::RateMonotonic;
    let mut net =
        HarpNetwork::with_transport(tree.clone(), config(), &demand, policy, Box::new(transport));
    let violation = match net.run_static() {
        Err(e) => Some(format!("static phase failed: {e}")),
        Ok(_) => match check(&net, &demand) {
            Some(fault) => Some(format!("static phase: {fault}")),
            None => run_event(&mut net, &mut demand, event, prefix),
        },
    };
    (drawn.load(Ordering::Relaxed), violation)
}

/// Runs `event` on a settled `net`; a rejection must restore it.
fn run_event(
    net: &mut HarpNetwork,
    demand: &mut Requirements,
    event: Event,
    prefix: &[(usize, Fault)],
) -> Option<String> {
    let pre = PreImage::of(net);
    let now = net.now();
    let mut set = |v: NodeId, [up, down]: [u32; 2]| {
        demand.set(Link::up(v), up);
        demand.set(Link::down(v), down);
    };
    let result = match event {
        Event::Adjust(link) => {
            let cells = RAISED[usize::from(link.direction == Direction::Down)];
            net.adjust_and_settle(now, link, cells)
                .map(|_| demand.set(link, cells))
        }
        Event::Join(parent) => {
            let [up, down] = RAISED;
            net.join_leaf(now, parent, up, down)
                .map(|(id, _)| set(id, RAISED))
        }
        Event::Leave(leaf) => net.leave_leaf(now, leaf).map(|_| set(leaf, [0, 0])),
        Event::Reparent(leaf, to) => net.reparent_leaf(now, leaf, to).map(drop),
    };
    match result {
        Ok(()) => check(net, demand),
        Err(_) => {
            pre.assert_restored(net, &format!("{event:?} under {prefix:?}"));
            None
        }
    }
}

/// Tries every prefix of at most `k` faults for `event` on the tree with
/// `parents`, filing each violation in `violations`; returns the runs made.
fn explore(parents: &[u32], event: Event, k: usize, violations: &mut Vec<String>) -> u64 {
    let tree = tree_of(parents);
    let mut runs = 0;
    let mut stack: Vec<Prefix> = vec![Vec::new()];
    while let Some(prefix) = stack.pop() {
        let (drawn, violation) = run(&tree, event, &prefix);
        runs += 1;
        if let Some(v) = violation {
            violations.push(format!("parents {parents:?}, {event:?}, {prefix:?}: {v}"));
        }
        if prefix.len() < k {
            let first = prefix.last().map_or(0, |&(i, _)| i + 1);
            for i in first..drawn {
                for fault in FAULTS {
                    stack.push([prefix.as_slice(), &[(i, fault)]].concat());
                }
            }
        }
    }
    runs
}

#[test]
fn no_few_faults_leave_a_link_off_its_assignment() {
    let started = Instant::now();
    let mut violations = Vec::new();
    let mut runs = 0;
    for parents in (2..=3).flat_map(trees) {
        for event in events(&tree_of(&parents)) {
            runs += explore(&parents, event, 2, &mut violations);
        }
    }
    for event in events(&tree_of(&REPRODUCER)) {
        runs += explore(&REPRODUCER, event, 1, &mut violations);
    }
    println!(
        "fate explorer: k = 2 on every tree of 2-3 nodes, k = 1 on the 6-node reproducer: \
         {runs} runs, {} violations, {:.2} s",
        violations.len(),
        started.elapsed().as_secs_f64()
    );
    assert!(violations.is_empty(), "{violations:#?}");
}

/// The reproducer's join under N2: its static phase draws 24 clean fates,
/// and the join's fate `lost` is lost.
fn join_under_n2_losing(lost: usize) -> Option<String> {
    let tree = tree_of(&REPRODUCER);
    let (drawn, violation) = run(&tree, Event::Join(NodeId(2)), &[(lost, Fault::Lost)]);
    assert!(drawn > lost, "the run drew {drawn} fates");
    violation
}

// While a retransmission of an older cell assignment could overtake a
// newer one, losing fate 30 left N4:up on its older cells.
#[test]
fn losing_fate_30_of_a_join_leaves_n4_up_as_assigned() {
    assert_eq!(join_under_n2_losing(30), None);
}

// Likewise fate 37 and the joined leaf's own uplink, N6:up.
#[test]
fn losing_fate_37_of_a_join_leaves_n6_up_as_assigned() {
    assert_eq!(join_under_n2_losing(37), None);
}
