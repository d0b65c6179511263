//! Seeded inputs shared by the generated-input referees (`direct_static.rs`,
//! `undo_log.rs`): trees, demands and slotframes as a function of a case
//! number and a random stream.

use harp_core::Requirements;
use tsch_sim::{Link, SlotframeConfig, SplitMix64, Tree};

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

pub fn seeded_config(rng: &mut SplitMix64) -> SlotframeConfig {
    let channels = 2 + rng.next_below(15) as u16;
    let slots = 101 + rng.next_below(1500) as u32;
    SlotframeConfig::new(slots, channels, 10_000).expect("non-zero slotframe")
}
