//! The referees' seeded inputs: trees, demands, slotframes, data-plane
//! scenarios and networks as a function of a random stream and a case
//! number. Each function draws from the caller's stream in a fixed order,
//! so a seed names the same input for as long as that order holds.

use harp_core::{HarpNetwork, Requirements, SchedulingPolicy};
use tsch_sim::{
    Cell, Chaos, Link, LinkQuality, Lossy, NetworkSchedule, Rate, SlotframeConfig, SplitMix64,
    Task, TaskId, Transport, Tree,
};

/// Arbitrary tree with 2..=`max_nodes` nodes: node `i + 1`'s parent is
/// drawn from `0..=i`.
pub fn random_tree(rng: &mut SplitMix64, max_nodes: usize) -> Tree {
    let edges = 1 + rng.next_below(max_nodes as u64 - 1) as usize;
    let mut pairs = Vec::with_capacity(edges);
    for i in 0..edges {
        pairs.push(((i + 1) as u32, rng.next_below(i as u64 + 1) as u32));
    }
    Tree::from_parents(&pairs)
}

/// Arbitrary demands: every link gets 0..=`max_cells` cells in each
/// direction.
pub fn random_reqs(rng: &mut SplitMix64, tree: &Tree, max_cells: u32) -> Requirements {
    let choices = u64::from(max_cells) + 1;
    let mut reqs = Requirements::new();
    for v in tree.nodes().skip(1) {
        reqs.set(Link::up(v), rng.next_below(choices) as u32);
        reqs.set(Link::down(v), rng.next_below(choices) as u32);
    }
    reqs
}

/// A data-plane scenario for the engine referees: a schedule with shared
/// cells, to exercise collisions, and a task per node; `lossy` adds
/// imperfect links, so the engines' random stream is actually consumed.
pub fn random_scenario(
    rng: &mut SplitMix64,
    tree: &Tree,
    config: SlotframeConfig,
    lossy: bool,
) -> (NetworkSchedule, LinkQuality, Vec<Task>) {
    let mut schedule = NetworkSchedule::new(config);
    let mut quality = LinkQuality::perfect();
    for v in tree.nodes().skip(1) {
        for link in [Link::up(v), Link::down(v)] {
            let cells = 1 + rng.next_below(3);
            for _ in 0..cells {
                let cell = Cell::new(
                    rng.next_below(u64::from(config.slots)) as u32,
                    rng.next_below(u64::from(config.channels)) as u16,
                );
                // Duplicate (cell, link) draws are legal to skip: the
                // engines consume the schedule, not the draw sequence.
                let _ = schedule.assign(cell, link);
            }
            if lossy && rng.chance(0.4) {
                quality.set_pdr(link, 0.3 + 0.7 * rng.next_f64()).unwrap();
            }
        }
    }
    let tasks: Vec<Task> = tree
        .nodes()
        .skip(1)
        .map(|v| {
            let rate = Rate::per_slotframe(1 + rng.next_below(2) as u32);
            if rng.chance(0.5) {
                Task::echo(TaskId(v.0), v, rate)
            } else {
                Task::uplink(TaskId(v.0), v, rate)
            }
        })
        .collect();
    (schedule, quality, tasks)
}

/// A seeded tree of 2–300 nodes whose links span at most 8 layers. The
/// shape rotates with the seed: a star (all-leaf gateway), a deep tree
/// (parents drawn from the newest nodes), a bushy one (parents drawn from
/// the oldest) and a uniform random one.
pub fn seeded_tree(rng: &mut SplitMix64, case: u64) -> Tree {
    let n = match case % 3 {
        0 => 2 + rng.next_below(12),
        1 => 2 + rng.next_below(80),
        _ => 2 + rng.next_below(299),
    } as usize;
    let mut depth = vec![0u32];
    let mut pairs: Vec<(u32, u32)> = Vec::with_capacity(n - 1);
    for i in 1..n {
        let mut parent = match case % 4 {
            0 => 0,
            1 => i - 1 - rng.next_below(i.min(3) as u64) as usize,
            2 => rng.next_below(i.min(6) as u64) as usize,
            _ => rng.next_below(i as u64) as usize,
        };
        // Cap the depth: a node that would sit too deep hangs off one of
        // its would-be parent's ancestors instead.
        while depth[parent] >= 8 {
            parent = pairs[parent - 1].1 as usize;
        }
        depth.push(depth[parent] + 1);
        pairs.push((i as u32, parent as u32));
    }
    Tree::from_parents(&pairs)
}

/// Uniform demand (0..=2 cells per link and direction) on even cases;
/// skewed on odd ones: most links idle or single-cell, a few heavy.
pub fn seeded_reqs(rng: &mut SplitMix64, case: u64, tree: &Tree) -> Requirements {
    let mut reqs = Requirements::new();
    for v in tree.nodes().skip(1) {
        for link in [Link::up(v), Link::down(v)] {
            let skewed = case % 2 == 1;
            let cells = match rng.next_below(20) {
                _ if !skewed => rng.next_below(3),
                0 => 5 + rng.next_below(16),
                1..=8 => 1,
                _ => 0,
            };
            reqs.set(link, cells as u32);
        }
    }
    reqs
}

/// A slotframe of 101–1600 slots and 2–16 channels.
pub fn seeded_config(rng: &mut SplitMix64) -> SlotframeConfig {
    let channels = 2 + rng.next_below(15) as u16;
    let slots = 101 + rng.next_below(1500) as u32;
    SlotframeConfig::new(slots, channels, 10_000).expect("non-zero slotframe")
}

/// The network a seeded case runs on, by `channel`: 0 is the reliable
/// transport, 1 a Lossy and 2 a Chaos channel seeded from `case`.
pub fn seeded_network(
    tree: &Tree,
    reqs: &Requirements,
    config: SlotframeConfig,
    channel: usize,
    case: u64,
) -> HarpNetwork {
    let policy = SchedulingPolicy::RateMonotonic;
    let transport: Box<dyn Transport> = match channel {
        0 => return HarpNetwork::new(tree.clone(), config, reqs, policy),
        1 => Box::new(Lossy::uniform(0.8, 42 + case).expect("valid pdr")),
        _ => Box::new(Chaos::new(9 + case, 0.15, 0.10, 0.30, 7)),
    };
    HarpNetwork::with_transport(tree.clone(), config, reqs, policy, transport)
}
