//! Resource management across co-existing networks (the paper's last
//! future-work item: "dynamic resource management among co-existing
//! heterogeneous IWNs").
//!
//! Multiple independent IWNs sharing one radio space cannot share cells —
//! but they can share the *channel dimension*: each network receives a
//! contiguous band of channels and runs HARP internally as if the band were
//! its whole spectrum. Band allocation and adjustment are the 1-D instance
//! of HARP's own partition problems, so this module reuses
//! [`adjust_partition`] with bands modelled as height-1 rectangles: a
//! network asking for more channels triggers the same cost-aware,
//! fewest-neighbours-moved adjustment that subtree partitions use.

use crate::adjust::adjust_partition;
use crate::component::ResourceComponent;
use crate::error::HarpError;
use packing::Rect;
use tsch_sim::{Cell, NetworkSchedule, SlotframeConfig};

/// A contiguous range of channels granted to one network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ChannelBand {
    /// First channel of the band.
    pub first: u16,
    /// Number of channels.
    pub width: u16,
}

impl ChannelBand {
    /// One past the last channel.
    #[must_use]
    pub fn end(&self) -> u16 {
        self.first + self.width
    }

    /// Returns `true` if `channel` lies inside this band.
    #[must_use]
    pub fn contains(&self, channel: u16) -> bool {
        channel >= self.first && channel < self.end()
    }

    /// Returns `true` if the two bands share a channel.
    #[must_use]
    pub fn overlaps(&self, other: &ChannelBand) -> bool {
        self.first < other.end() && other.first < self.end()
    }
}

/// The channel-band assignment of several co-existing networks.
///
/// # Examples
///
/// ```
/// use harp_core::BandPlan;
///
/// # fn main() -> Result<(), harp_core::HarpError> {
/// let mut plan = BandPlan::allocate(&[4, 8, 2], 16)?;
/// assert_eq!(plan.band(1).width, 8);
/// // Network 2 needs more channels; the idle 2 channels absorb it.
/// let moved = plan.adjust(2, 4)?;
/// assert!(moved.contains(&2));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BandPlan {
    total_channels: u16,
    bands: Vec<ChannelBand>,
}

impl BandPlan {
    /// Allocates contiguous bands of the requested widths, first-come
    /// first-placed from channel 0.
    ///
    /// # Errors
    ///
    /// [`HarpError::ChannelBudgetExceeded`] if the widths exceed the total.
    pub fn allocate(widths: &[u16], total_channels: u16) -> Result<Self, HarpError> {
        let needed: u32 = widths.iter().map(|&w| u32::from(w)).sum();
        if needed > u32::from(total_channels) {
            return Err(HarpError::ChannelBudgetExceeded {
                layer: 0,
                needed,
                budget: total_channels,
            });
        }
        let mut bands = Vec::with_capacity(widths.len());
        let mut first = 0u16;
        for &width in widths {
            bands.push(ChannelBand { first, width });
            first += width;
        }
        Ok(Self {
            total_channels,
            bands,
        })
    }

    /// Number of co-existing networks.
    #[must_use]
    pub fn len(&self) -> usize {
        self.bands.len()
    }

    /// Returns `true` if no network is registered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.bands.is_empty()
    }

    /// The band of network `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    #[must_use]
    pub fn band(&self, index: usize) -> ChannelBand {
        self.bands[index]
    }

    /// Channels not granted to any network.
    #[must_use]
    pub fn idle_channels(&self) -> u16 {
        let used: u32 = self.bands.iter().map(|b| u32::from(b.width)).sum();
        self.total_channels - used as u16
    }

    /// Resizes network `index`'s band to `new_width` channels, moving as
    /// few other bands as possible (the 1-D partition adjustment). Returns
    /// the indices of the networks whose bands changed — each of those must
    /// re-run its internal HARP allocation for the new band.
    ///
    /// # Errors
    ///
    /// [`HarpError::ChannelBudgetExceeded`] if the request cannot fit even
    /// with every other band moved.
    pub fn adjust(&mut self, index: usize, new_width: u16) -> Result<Vec<usize>, HarpError> {
        let container = Rect::from_xywh(0, 0, u32::from(self.total_channels), 1);
        let children: Vec<(usize, Rect)> = self
            .bands
            .iter()
            .enumerate()
            .map(|(i, b)| {
                (
                    i,
                    Rect::from_xywh(u32::from(b.first), 0, u32::from(b.width), 1),
                )
            })
            .collect();
        let outcome = adjust_partition(
            container,
            &children,
            index,
            ResourceComponent::row(u32::from(new_width)),
        )?
        .ok_or(HarpError::ChannelBudgetExceeded {
            layer: 0,
            needed: u32::from(new_width),
            budget: self.total_channels,
        })?;
        for &(i, rect) in &outcome.layout {
            self.bands[i] = ChannelBand {
                first: u16::try_from(rect.left()).expect("bands fit in u16 channels"),
                width: u16::try_from(rect.width()).expect("bands fit in u16 channels"),
            };
        }
        Ok(outcome.moved)
    }

    /// The slotframe configuration a network should run HARP with: the same
    /// slot count, its band width as the channel count.
    ///
    /// # Errors
    ///
    /// Returns [`HarpError::ChannelBudgetExceeded`] for a zero-width band.
    pub fn network_config(
        &self,
        index: usize,
        base: SlotframeConfig,
    ) -> Result<SlotframeConfig, HarpError> {
        let band = self.band(index);
        base.with_channels(band.width)
            .map_err(|_| HarpError::ChannelBudgetExceeded {
                layer: 0,
                needed: 1,
                budget: 0,
            })
    }

    /// Lifts a schedule built inside network `index`'s band into global
    /// channel coordinates (shifting every cell up by the band's first
    /// channel).
    ///
    /// # Errors
    ///
    /// Propagates schedule errors if a cell falls outside the global
    /// slotframe (cannot happen for schedules built with
    /// [`BandPlan::network_config`]).
    pub fn lift_schedule(
        &self,
        index: usize,
        local: &NetworkSchedule,
        base: SlotframeConfig,
    ) -> Result<NetworkSchedule, HarpError> {
        let band = self.band(index);
        let mut global = NetworkSchedule::new(base);
        for (link, cells) in local.iter_links() {
            for cell in cells {
                global.assign(Cell::new(cell.slot, cell.channel + band.first), link)?;
            }
        }
        Ok(global)
    }

    /// Verifies that no two bands overlap (the inter-network isolation
    /// invariant).
    #[must_use]
    pub fn is_isolated(&self) -> bool {
        for (i, a) in self.bands.iter().enumerate() {
            for b in &self.bands[i + 1..] {
                if a.overlaps(b) {
                    return false;
                }
            }
        }
        self.bands.iter().all(|b| b.end() <= self.total_channels)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocation_packs_left() {
        let plan = BandPlan::allocate(&[4, 8, 2], 16).unwrap();
        assert_eq!(plan.band(0), ChannelBand { first: 0, width: 4 });
        assert_eq!(plan.band(1), ChannelBand { first: 4, width: 8 });
        assert_eq!(
            plan.band(2),
            ChannelBand {
                first: 12,
                width: 2
            }
        );
        assert_eq!(plan.idle_channels(), 2);
        assert!(plan.is_isolated());
    }

    #[test]
    fn over_allocation_rejected() {
        let err = BandPlan::allocate(&[10, 10], 16).unwrap_err();
        assert!(matches!(err, HarpError::ChannelBudgetExceeded { .. }));
    }

    #[test]
    fn grow_into_idle_moves_only_requester() {
        let mut plan = BandPlan::allocate(&[4, 8, 2], 16).unwrap();
        let moved = plan.adjust(2, 4).unwrap();
        assert_eq!(moved, vec![2]);
        assert!(plan.is_isolated());
        assert_eq!(plan.band(2).width, 4);
        assert_eq!(
            plan.band(0),
            ChannelBand { first: 0, width: 4 },
            "untouched"
        );
    }

    #[test]
    fn grow_requiring_neighbour_move() {
        let mut plan = BandPlan::allocate(&[6, 6, 2], 16).unwrap();
        // Network 0 wants 8: idle is 2 at the top; band 1 or 2 must move.
        let moved = plan.adjust(0, 8).unwrap();
        assert!(moved.contains(&0));
        assert!(moved.len() >= 2, "someone had to make room");
        assert!(plan.is_isolated());
        assert_eq!(plan.band(0).width, 8);
        assert_eq!(plan.band(1).width, 6, "widths of others preserved");
    }

    #[test]
    fn shrink_is_local() {
        let mut plan = BandPlan::allocate(&[8, 8], 16).unwrap();
        let moved = plan.adjust(1, 4).unwrap();
        assert_eq!(moved, vec![1]);
        assert_eq!(plan.idle_channels(), 4);
    }

    #[test]
    fn infeasible_growth_errors() {
        let mut plan = BandPlan::allocate(&[8, 8], 16).unwrap();
        let before = plan.clone();
        let err = plan.adjust(0, 12).unwrap_err();
        assert!(matches!(err, HarpError::ChannelBudgetExceeded { .. }));
        assert_eq!(plan, before, "failed adjustment leaves the plan intact");
    }

    #[test]
    fn network_config_and_lift() {
        use tsch_sim::{Link, NodeId};
        let plan = BandPlan::allocate(&[4, 8], 16).unwrap();
        let base = SlotframeConfig::paper_default();
        let cfg1 = plan.network_config(1, base).unwrap();
        assert_eq!(cfg1.channels, 8);
        let mut local = NetworkSchedule::new(cfg1);
        local.assign(Cell::new(0, 0), Link::up(NodeId(1))).unwrap();
        local.assign(Cell::new(5, 7), Link::up(NodeId(2))).unwrap();
        let global = plan.lift_schedule(1, &local, base).unwrap();
        assert_eq!(global.cells_of(Link::up(NodeId(1))), &[Cell::new(0, 4)]);
        assert_eq!(global.cells_of(Link::up(NodeId(2))), &[Cell::new(5, 11)]);
    }

    #[test]
    fn lifted_schedules_of_different_networks_never_collide() {
        use crate::{Requirements, SchedulingPolicy};
        use schedulers_free_pipeline::build;
        use tsch_sim::{GlobalInterference, Link, Tree};

        // Two independent HARP networks in adjacent bands.
        mod schedulers_free_pipeline {
            use super::super::*;
            use crate::{
                allocate_partitions, build_interfaces, generate_schedule, Requirements,
                SchedulingPolicy,
            };
            use tsch_sim::{Direction, Tree};
            pub fn build(
                tree: &Tree,
                reqs: &Requirements,
                cfg: SlotframeConfig,
            ) -> NetworkSchedule {
                let up = build_interfaces(tree, reqs, Direction::Up, cfg.channels).unwrap();
                let down = build_interfaces(tree, reqs, Direction::Down, cfg.channels).unwrap();
                let table = allocate_partitions(tree, &up, &down, cfg).unwrap();
                generate_schedule(tree, reqs, &table, SchedulingPolicy::RateMonotonic).unwrap()
            }
        }

        let base = SlotframeConfig::paper_default();
        let plan = BandPlan::allocate(&[8, 8], 16).unwrap();
        let tree_a = Tree::paper_fig1_example();
        let tree_b = Tree::from_parents(&[(1, 0), (2, 1), (3, 1), (4, 2)]);
        let mut reqs_a = Requirements::new();
        for v in tree_a.nodes().skip(1) {
            reqs_a.set(Link::up(v), 1);
        }
        let mut reqs_b = Requirements::new();
        for v in tree_b.nodes().skip(1) {
            reqs_b.set(Link::up(v), 2);
        }
        let local_a = build(&tree_a, &reqs_a, plan.network_config(0, base).unwrap());
        let local_b = build(&tree_b, &reqs_b, plan.network_config(1, base).unwrap());
        let global_a = plan.lift_schedule(0, &local_a, base).unwrap();
        let global_b = plan.lift_schedule(1, &local_b, base).unwrap();

        // No cell is used by both networks.
        for (_, cells) in global_a.iter_links() {
            for c in cells {
                assert!(
                    global_b.links_on(*c).is_empty(),
                    "cell {c} shared across networks"
                );
            }
        }
        // Each network is internally collision-free too.
        assert!(global_a.is_exclusive());
        assert!(global_b.is_exclusive());
        let _ = (SchedulingPolicy::RateMonotonic, GlobalInterference);
    }
}
