//! Workload generation for the HARP reproduction: seeded random topologies,
//! task sets, traffic-change event streams and the canned scenarios used by
//! the paper's experiments.
//!
//! # Examples
//!
//! ```
//! use tsch_sim::Rate;
//! use workloads::{echo_task_per_node, TopologyConfig};
//!
//! let tree = TopologyConfig::paper_50_node().generate(7);
//! let tasks = echo_task_per_node(&tree, Rate::per_slotframe(1));
//! assert_eq!(tasks.len(), 49);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dynamics;
mod mesh;
mod scale;
pub mod scenario_dsl;
mod scenarios;
mod tasks;
mod topo_gen;

pub use dynamics::uplink_demand_after_change;
pub use mesh::{ForestTree, Mesh};
pub use scale::{scale_scenario, ScaleScenario, SCALE_SIZES};
pub use scenarios::{fig11_topologies, fig12_topologies, testbed_50_node_tree};
pub use tasks::{
    aggregated_echo_requirements, echo_task_per_node, task_id_of, uniform_link_requirements,
    uniform_uplink_requirements, uplink_task_per_node,
};
pub use topo_gen::TopologyConfig;

/// Process-wide activity counters of the workload generators.
///
/// Always-on relaxed atomics ([`harp_obs::StaticCounter`]) — generators are
/// free functions with no state to hang an [`harp_obs::Obs`] handle on. One
/// fetch-add per generated artefact; fold into a snapshot with
/// [`harp_obs::MetricsSnapshot::add_counters`] via [`totals`](obs::totals).
pub mod obs {
    use harp_obs::StaticCounter;

    /// Random trees generated ([`TopologyConfig::generate`](crate::TopologyConfig::generate)).
    pub(crate) static TOPOLOGIES_GENERATED: StaticCounter = StaticCounter::new();
    /// Periodic tasks generated (the `*_task_per_node` helpers).
    pub(crate) static TASKS_GENERATED: StaticCounter = StaticCounter::new();

    /// Current totals, in the shape
    /// [`MetricsSnapshot::add_counters`](harp_obs::MetricsSnapshot::add_counters)
    /// accepts. Process-wide and monotonic.
    #[must_use]
    pub fn totals() -> [(&'static str, u64); 2] {
        [
            ("workloads.topologies_generated", TOPOLOGIES_GENERATED.get()),
            ("workloads.tasks_generated", TASKS_GENERATED.get()),
        ]
    }
}
