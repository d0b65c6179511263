//! HARP: hierarchical resource partitioning for dynamic industrial wireless
//! networks (Wang et al., ICDCS 2022).
//!
//! HARP manages the cells of a multi-channel TDMA slotframe by partitioning
//! it hierarchically along the routing tree, giving every parent node a
//! dedicated, isolated region to schedule its own links in. The result is
//! *distributed, collision-free* scheduling: no two nodes can ever pick the
//! same cell, and traffic changes are absorbed as locally as possible.
//!
//! The crate offers the machinery at three altitudes:
//!
//! 1. **Algorithms** — resource-component composition
//!    ([`compose_components`], Alg. 1), top-down partition allocation
//!    ([`allocate_partitions`]), distributed schedule generation
//!    ([`generate_schedule`]), the feasibility test ([`is_feasible`]) and
//!    the cost-aware adjustment heuristic ([`adjust_partition`], Alg. 2).
//! 2. **Centralized oracle** — run the whole pipeline in one call sequence
//!    to obtain the network schedule a converged HARP deployment produces
//!    (used by the paper's simulation studies, Fig. 11).
//! 3. **Distributed deployment** — one HARP state machine per device
//!    ([`HarpNode`] reads one) exchanging [`HarpMessage`]s (Table I) over a
//!    simulated management plane via [`HarpNetwork`], with realistic per-hop
//!    latency (used by the testbed experiments, Figs. 9–10 and Table II).
//!
//! # Examples
//!
//! The centralized pipeline on the paper's Fig. 1 example network:
//!
//! ```
//! use harp_core::{
//!     allocate_partitions, build_interfaces, generate_schedule, Requirements,
//!     SchedulingPolicy,
//! };
//! use tsch_sim::{Direction, Link, SlotframeConfig, Tree};
//!
//! # fn main() -> Result<(), harp_core::HarpError> {
//! let tree = Tree::paper_fig1_example();
//! let mut reqs = Requirements::new();
//! for v in tree.nodes().skip(1) {
//!     reqs.set(Link::up(v), tree.subtree_size(v));
//!     reqs.set(Link::down(v), tree.subtree_size(v));
//! }
//! let cfg = SlotframeConfig::paper_default();
//! let up = build_interfaces(&tree, &reqs, Direction::Up, cfg.channels)?;
//! let down = build_interfaces(&tree, &reqs, Direction::Down, cfg.channels)?;
//! let table = allocate_partitions(&tree, &up, &down, cfg)?;
//! let schedule = generate_schedule(&tree, &reqs, &table, SchedulingPolicy::RateMonotonic)?;
//! assert!(schedule.is_exclusive()); // collision-free by construction
//! # Ok(())
//! # }
//! ```
//!
//! The distributed deployment with protocol timing:
//!
//! ```
//! use harp_core::{HarpNetwork, Requirements, SchedulingPolicy};
//! use tsch_sim::{Asn, Link, NodeId, SlotframeConfig, Tree};
//!
//! # fn main() -> Result<(), harp_core::HarpError> {
//! let tree = Tree::paper_fig1_example();
//! let mut reqs = Requirements::new();
//! for v in tree.nodes().skip(1) {
//!     reqs.set(Link::up(v), 1);
//! }
//! let mut net = HarpNetwork::new(
//!     tree,
//!     SlotframeConfig::paper_default(),
//!     &reqs,
//!     SchedulingPolicy::RateMonotonic,
//! );
//! let static_report = net.run_static()?;
//! assert!(net.schedule().is_exclusive());
//!
//! // A traffic change: link 9→7 now needs 3 cells.
//! let report = net.adjust_and_settle(net.now(), Link::up(NodeId(9)), 3)?;
//! assert!(report.mgmt_messages >= 2); // PUT intf up, PUT part down
//! # let _ = static_report;
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod adjust;
mod allocation;
mod analysis;
mod coexist;
mod component;
mod compose;
mod dir_state;
mod error;
mod handle;
mod node;
mod protocol;
mod render;
mod requirement;
mod runner;
mod schedule_gen;
mod verify;
mod workspace;

pub use adjust::{adjust_partition, is_feasible, AdjustmentOutcome};
pub use allocation::{
    allocate_partitions, allocate_partitions_unbounded, Partition, PartitionTable,
};
pub use analysis::{check_deadlines, latency_bound, DeadlineReport, DeadlineTask, LatencyBound};
pub use coexist::{BandPlan, ChannelBand};
pub use component::{ResourceComponent, ResourceInterface};
pub use compose::{
    build_interfaces, compose_components, CompositionLayout, InterfaceSet, NodeInterface,
};
pub use error::HarpError;
pub use handle::{AdjustmentBill, AllocatorHandle, ScheduleSummary};
pub use node::{Effects, HarpNode, NodeObsCounters};
pub use protocol::{HarpMessage, MessageKind};
pub use render::{render_cell_map, render_super_partitions, render_utilization};
pub use requirement::Requirements;
pub use runner::{HarpNetwork, ProtocolReport};
pub use schedule_gen::{
    generate_schedule, unsatisfied_links, CellRun, RowAssignments, SchedulingPolicy,
};
pub use verify::{verify_partitions, verify_schedule, verify_uplink_compliance, Violation};
pub use workspace::Workspace;

#[cfg(test)]
mod lib_tests {
    use super::*;

    #[test]
    fn public_types_are_debug_and_clone() {
        fn assert_traits<T: std::fmt::Debug + Clone>() {}
        assert_traits::<ResourceComponent>();
        assert_traits::<ResourceInterface>();
        assert_traits::<Requirements>();
        assert_traits::<CompositionLayout>();
        assert_traits::<PartitionTable>();
        assert_traits::<HarpMessage>();
        assert_traits::<HarpNode<'static>>();
        assert_traits::<ProtocolReport>();
        assert_traits::<HarpError>();
    }

    #[test]
    fn core_types_are_send_sync() {
        fn assert_ss<T: Send + Sync>() {}
        assert_ss::<HarpNode<'static>>();
        assert_ss::<HarpNetwork>();
        assert_ss::<PartitionTable>();
    }
}
