//! The common interface of the compared schedulers.

use harp_core::Requirements;
use tsch_sim::{NetworkSchedule, SlotframeConfig, Tree};

/// A 6TiSCH cell scheduler: given the tree and per-link demands, decide
/// which cells each link may use.
///
/// Implementations must assign *at least* `r(e)` cells to every link (all
/// the compared schedulers are work-conserving in this sense); whether the
/// resulting schedule collides is exactly what Fig. 11 measures.
///
/// Schedulers are `Send + Sync` so the experiment harness can share one
/// instance across its sweep worker threads; `build_schedule` takes `&self`,
/// so implementations keep any randomness in the per-call `seed`.
pub trait Scheduler: Send + Sync {
    /// Human-readable name used in experiment output.
    fn name(&self) -> &'static str;

    /// Builds a schedule for `tree` under `requirements`.
    ///
    /// `seed` feeds any randomised choices so experiments are reproducible;
    /// deterministic schedulers may ignore it.
    fn build_schedule(
        &self,
        tree: &Tree,
        requirements: &Requirements,
        config: SlotframeConfig,
        seed: u64,
    ) -> NetworkSchedule;
}

/// Checks the scheduler contract: every link got at least its requirement.
#[cfg(test)]
pub(crate) fn satisfies_requirements(
    tree: &Tree,
    requirements: &Requirements,
    schedule: &NetworkSchedule,
) -> bool {
    harp_core::unsatisfied_links(tree, requirements, schedule).is_empty()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsch_sim::{Cell, Link, NodeId};

    #[test]
    fn satisfies_requirements_detects_shortfall() {
        let tree = Tree::from_parents(&[(1, 0)]);
        let mut reqs = Requirements::new();
        reqs.set(Link::up(NodeId(1)), 2);
        let mut schedule = NetworkSchedule::new(SlotframeConfig::paper_default());
        assert!(!satisfies_requirements(&tree, &reqs, &schedule));
        schedule
            .assign(Cell::new(0, 0), Link::up(NodeId(1)))
            .unwrap();
        assert!(!satisfies_requirements(&tree, &reqs, &schedule));
        schedule
            .assign(Cell::new(1, 0), Link::up(NodeId(1)))
            .unwrap();
        assert!(satisfies_requirements(&tree, &reqs, &schedule));
    }
}
