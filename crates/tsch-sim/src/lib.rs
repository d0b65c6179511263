//! Discrete-event simulator of a multi-channel, multi-hop TSCH (6TiSCH-style)
//! industrial wireless network.
//!
//! This crate is the substrate the HARP reproduction runs on, replacing the
//! paper's 50-node CC2650 testbed. It models:
//!
//! * the TSCH time base — slots, slotframes, cells ([`Asn`], [`Cell`],
//!   [`SlotframeConfig`]);
//! * the tree routing topology with per-link layers ([`Tree`], [`Link`]);
//! * the global communication schedule and its collision analysis
//!   ([`NetworkSchedule`], [`InterferenceModel`]);
//! * periodic tasks, packets, queues and the slot-by-slot data-plane
//!   execution ([`Task`], [`Simulator`]);
//! * the management plane carrying network-management messages with
//!   management-cell timing and a CoAP-style transport layer with
//!   pluggable loss models and reliability ([`ControlPlane`],
//!   [`Transport`]).
//!
//! Everything is deterministic given a `u64` seed.
//!
//! # Examples
//!
//! Run one echo task over a two-hop chain with a hand-made schedule:
//!
//! ```
//! use tsch_sim::{
//!     Cell, Link, NetworkSchedule, NodeId, Rate, SimulatorBuilder,
//!     SlotframeConfig, Task, TaskId, Tree,
//! };
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let tree = Tree::from_parents(&[(1, 0), (2, 1)]);
//! let cfg = SlotframeConfig::new(10, 2, 10_000)?;
//! let mut schedule = NetworkSchedule::new(cfg);
//! schedule.assign(Cell::new(0, 0), Link::up(NodeId(2)))?;
//! schedule.assign(Cell::new(1, 0), Link::up(NodeId(1)))?;
//! schedule.assign(Cell::new(2, 0), Link::down(NodeId(1)))?;
//! schedule.assign(Cell::new(3, 0), Link::down(NodeId(2)))?;
//!
//! let mut sim = SimulatorBuilder::new(tree, cfg)
//!     .schedule(schedule)
//!     .task(Task::echo(TaskId(0), NodeId(2), Rate::per_slotframe(1)))?
//!     .build();
//! sim.run_slotframes(10);
//! assert_eq!(sim.stats().deliveries.len(), 10);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod calendar;
mod engine;
mod faults;
mod interference;
mod mgmt;
mod packet;
mod par;
mod radio;
pub mod reference;
mod rng;
mod run_pool;
mod schedule;
mod stats;
mod time;
mod topology;
mod trace;
mod transport;

pub use calendar::EventCalendar;
pub use engine::{SimError, Simulator, SimulatorBuilder};
pub use faults::{FaultAction, FaultPlan};
pub use harp_obs::{MetricsSnapshot, Obs, SpanEvent, SpanRing, NO_NODE};
pub use interference::{GlobalInterference, InterferenceModel, TwoHopInterference};
pub use mgmt::{Delivered, MgmtError};
pub use packet::{Packet, Rate, RateError, Task, TaskId, TaskKind};
pub use par::{bench_threads, par_map, par_map_with_threads};
pub use radio::{LinkQuality, PdrError};
pub use rng::SplitMix64;
pub use run_pool::{Run, RunPool};
pub use schedule::{CollisionReport, NetworkSchedule, ScheduleError};
pub use stats::{mean, DeliveryRecord, LatencySummary, SimStats, StatsMode};
pub use time::{Asn, Cell, ConfigError, SlotframeConfig};
pub use topology::{Direction, Link, NodeId, TopologyError, Tree, TreeBuilder};
pub use trace::{TraceBuffer, TraceEvent};
pub use transport::{
    Chaos, ControlPlane, Inbox, Lossy, ReliabilityConfig, Reliable, Transport, TransportStats,
    TxFate,
};

#[cfg(test)]
mod lib_tests {
    use super::*;

    #[test]
    fn public_types_are_debug() {
        fn assert_debug<T: std::fmt::Debug>() {}
        assert_debug::<Asn>();
        assert_debug::<Cell>();
        assert_debug::<SlotframeConfig>();
        assert_debug::<Tree>();
        assert_debug::<Link>();
        assert_debug::<NetworkSchedule>();
        assert_debug::<Simulator>();
        assert_debug::<ControlPlane<u8>>();
        assert_debug::<SimStats>();
    }

    #[test]
    fn simulator_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<Simulator>();
        assert_send::<ControlPlane<u64>>();
    }
}
