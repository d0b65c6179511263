//! ALICE-style autonomous link-based cell scheduling (Kim et al., IPSN'19),
//! the fourth distributed scheduler discussed by the paper's related work.
//!
//! Like MSF, ALICE derives cells from a hash both endpoints can compute
//! without signalling; unlike MSF it hashes the *directed link* (not the
//! node) and re-derives the whole schedule **every slotframe** (the ASFN —
//! absolute slotframe number — is part of the hash), so a pair of links
//! that collide in one slotframe probably will not collide in the next.
//! The long-run collision *probability* is similar to MSF's; what changes
//! is which packets lose.

use crate::traits::Scheduler;
use harp_core::Requirements;
use tsch_sim::{Cell, Direction, Link, NetworkSchedule, SlotframeConfig, Tree};

/// The ALICE scheduler. The [`Scheduler`] impl materialises slotframe 0;
/// time-varying behaviour is exposed via [`AliceScheduler::cells_for`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AliceScheduler;

fn mix(mut x: u64) -> u64 {
    x = (x ^ (x >> 33)).wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    x = (x ^ (x >> 33)).wrapping_mul(0xC4CE_B9FE_1A85_EC53);
    x ^ (x >> 33)
}

impl AliceScheduler {
    /// The cells the directed `link` uses during slotframe `asfn`, for a
    /// demand of `count` cells. Both endpoints can compute this without
    /// exchanging a single message.
    #[must_use]
    pub fn cells_for(link: Link, count: u32, asfn: u64, config: SlotframeConfig) -> Vec<Cell> {
        let dir_tag = match link.direction {
            Direction::Up => 0u64,
            Direction::Down => 1u64,
        };
        let cells_per_frame = config.cells_per_slotframe();
        let mut out = Vec::with_capacity(count as usize);
        let mut i = 0u64;
        while out.len() < count as usize {
            let h = mix((u64::from(link.child.0) << 40) ^ (dir_tag << 32) ^ (asfn << 8) ^ i)
                % cells_per_frame;
            let cell = Cell::new(
                (h / u64::from(config.channels)) as u32,
                (h % u64::from(config.channels)) as u16,
            );
            if !out.contains(&cell) {
                out.push(cell);
            }
            i += 1;
        }
        out
    }
}

impl Scheduler for AliceScheduler {
    fn name(&self) -> &'static str {
        "alice"
    }

    fn build_schedule(
        &self,
        tree: &Tree,
        requirements: &Requirements,
        config: SlotframeConfig,
        _seed: u64,
    ) -> NetworkSchedule {
        crate::obs::SCHEDULES_BUILT.add(1);
        let mut schedule = NetworkSchedule::new(config);
        for direction in Direction::BOTH {
            for link in tree.links(direction) {
                let need = requirements.get(link);
                for cell in Self::cells_for(link, need, 0, config) {
                    schedule.assign(cell, link).expect("cells_for deduplicates");
                }
            }
        }
        schedule
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsch_sim::NodeId;

    fn cfg() -> SlotframeConfig {
        SlotframeConfig::paper_default()
    }

    #[test]
    fn deterministic_and_endpoint_agreeable() {
        let a = AliceScheduler::cells_for(Link::up(NodeId(7)), 3, 5, cfg());
        let b = AliceScheduler::cells_for(Link::up(NodeId(7)), 3, 5, cfg());
        assert_eq!(a, b, "both endpoints derive the same cells");
        assert_eq!(a.len(), 3);
    }

    #[test]
    fn reshuffles_every_slotframe() {
        let f0 = AliceScheduler::cells_for(Link::up(NodeId(7)), 2, 0, cfg());
        let f1 = AliceScheduler::cells_for(Link::up(NodeId(7)), 2, 1, cfg());
        assert_ne!(f0, f1, "ALICE re-derives cells per slotframe");
    }

    #[test]
    fn directions_get_distinct_cells() {
        let up = AliceScheduler::cells_for(Link::up(NodeId(7)), 2, 0, cfg());
        let down = AliceScheduler::cells_for(Link::down(NodeId(7)), 2, 0, cfg());
        assert_ne!(up, down);
    }

    #[test]
    fn no_duplicate_cells_within_a_link() {
        let cells = AliceScheduler::cells_for(Link::up(NodeId(3)), 20, 2, cfg());
        let mut dedup = cells.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), cells.len());
    }

    #[test]
    fn scheduler_satisfies_requirements() {
        let tree = workloads::TopologyConfig::paper_50_node().generate(4);
        let reqs = workloads::uniform_uplink_requirements(&tree, 2);
        let s = AliceScheduler.build_schedule(&tree, &reqs, cfg(), 0);
        assert!(crate::traits::satisfies_requirements(&tree, &reqs, &s));
    }
}
