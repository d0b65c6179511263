//! The schedulers compared in the HARP paper's evaluation: the Random, MSF
//! and LDSF distributed baselines (Fig. 11) and HARP itself behind the same
//! interface, plus the adjustment costs Fig. 12 plots beside HARP's: the
//! centralized APaS baseline's `3l − 1` packets and one 6P transaction's 2.
//!
//! # Examples
//!
//! ```
//! use harp_core::Requirements;
//! use schedulers::{HarpScheduler, RandomScheduler, Scheduler};
//! use tsch_sim::{GlobalInterference, Link, NodeId, SlotframeConfig, Tree};
//!
//! let tree = Tree::paper_fig1_example();
//! let mut reqs = Requirements::new();
//! for v in tree.nodes().skip(1) {
//!     reqs.set(Link::up(v), 1);
//! }
//! let cfg = SlotframeConfig::paper_default();
//! let harp = HarpScheduler::default().build_schedule(&tree, &reqs, cfg, 0);
//! assert!(harp.is_exclusive());
//! let random = RandomScheduler.build_schedule(&tree, &reqs, cfg, 0);
//! let _ = random.collision_report(&tree, &GlobalInterference);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod alice;
mod apas;
mod baselines;
mod harp_adapter;
mod sixtop;
mod traits;

pub use alice::AliceScheduler;
pub use apas::apas_adjustment_packets;
pub use baselines::{LdsfScheduler, MsfScheduler, RandomScheduler};
pub use harp_adapter::HarpScheduler;
pub use sixtop::sixtop_transaction_packets;
pub use traits::Scheduler;

/// Process-wide activity counters of the scheduler comparison suite.
///
/// Always-on relaxed atomics ([`harp_obs::StaticCounter`]); one fetch-add
/// per built schedule. Fold into a snapshot with
/// [`harp_obs::MetricsSnapshot::add_counters`] via [`totals`](obs::totals).
pub mod obs {
    use harp_obs::StaticCounter;

    /// Full network schedules built via [`Scheduler::build_schedule`](crate::Scheduler::build_schedule),
    /// summed over every scheduler implementation.
    pub(crate) static SCHEDULES_BUILT: StaticCounter = StaticCounter::new();

    /// Current totals, in the shape
    /// [`MetricsSnapshot::add_counters`](harp_obs::MetricsSnapshot::add_counters)
    /// accepts. Process-wide and monotonic.
    #[must_use]
    pub fn totals() -> [(&'static str, u64); 1] {
        [("schedulers.schedules_built", SCHEDULES_BUILT.get())]
    }
}
