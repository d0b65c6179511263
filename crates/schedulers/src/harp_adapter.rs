//! HARP as a [`Scheduler`]: the centralized pipeline packaged behind the
//! common interface, so the collision experiments can sweep all four
//! schedulers uniformly.

use crate::traits::Scheduler;
use harp_core::{
    allocate_partitions_unbounded, build_interfaces, generate_schedule, Requirements,
    SchedulingPolicy,
};
use tsch_sim::{Direction, NetworkSchedule, SlotframeConfig, Tree};

/// The HARP scheduler (hierarchical partitioning + local RM assignment).
///
/// Uses the *unbounded* allocation so that overload — a demand the
/// slotframe cannot hold, e.g. the ≤4-channel points of Fig. 11(b) — wraps
/// around and degrades into measurable collisions instead of failing, which
/// is how the paper reports those points.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HarpScheduler {
    /// Link-ordering policy inside each partition row.
    pub policy: SchedulingPolicy,
}

impl Scheduler for HarpScheduler {
    fn name(&self) -> &'static str {
        "harp"
    }

    fn build_schedule(
        &self,
        tree: &Tree,
        requirements: &Requirements,
        config: SlotframeConfig,
        _seed: u64,
    ) -> NetworkSchedule {
        crate::obs::SCHEDULES_BUILT.add(1);
        let up = build_interfaces(tree, requirements, Direction::Up, config.channels)
            .expect("per-link demands fit the channel budget");
        let down = build_interfaces(tree, requirements, Direction::Down, config.channels)
            .expect("per-link demands fit the channel budget");
        let table = allocate_partitions_unbounded(tree, &up, &down, config);
        generate_schedule(tree, requirements, &table, self.policy)
            .expect("unbounded allocation always yields enough cells per row")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsch_sim::GlobalInterference;
    use workloads::TopologyConfig;

    #[test]
    fn harp_is_collision_free_within_capacity() {
        let tree = TopologyConfig::paper_50_node().generate(1);
        // Fig. 11's demand model: every link needs `rate` cells.
        let reqs = workloads::uniform_link_requirements(&tree, 2);
        let schedule = HarpScheduler::default().build_schedule(
            &tree,
            &reqs,
            SlotframeConfig::paper_default(),
            0,
        );
        assert!(schedule.is_exclusive());
        assert!(crate::traits::satisfies_requirements(
            &tree, &reqs, &schedule
        ));
        let report = schedule.collision_report(&tree, &GlobalInterference);
        assert_eq!(report.collision_probability(), 0.0);
    }

    #[test]
    fn harp_degrades_gracefully_when_channels_starved() {
        // Rate 3 over a single channel cannot fit the slotframe: HARP wraps
        // and collides a little instead of refusing (the starved tail of
        // Fig. 11(b); the exact crossover channel count depends on the
        // demand model, the graceful-degradation behaviour is what matters).
        let tree = TopologyConfig::paper_50_node().generate(1);
        let reqs = workloads::uniform_link_requirements(&tree, 3);
        let cfg = SlotframeConfig::paper_default().with_channels(1).unwrap();
        let schedule = HarpScheduler::default().build_schedule(&tree, &reqs, cfg, 0);
        assert!(!schedule.is_exclusive(), "overload must wrap");
        let report = schedule.collision_report(&tree, &GlobalInterference);
        assert!(report.collision_probability() > 0.0);
        assert!(crate::traits::satisfies_requirements(
            &tree, &reqs, &schedule
        ));
    }
}
