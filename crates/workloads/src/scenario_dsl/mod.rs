//! Declarative scenario DSL: experiments as data files.
//!
//! A scenario file is a zero-dependency, line-oriented description of one
//! experiment — topology, slotframe, workload, fault schedule and report
//! shape — hand-parsed like the in-tree JSON writer (no serde). The
//! checked-in files under `scenarios/` replace what used to be bespoke
//! experiment binaries; `harp_sim --scenario <file>` replays any of them
//! byte-identically for a given seed (`DESIGN.md`'s "Reports and
//! benchmarks" section has the determinism rules; the grammar is below).
//!
//! ```text
//! # Comments run to end of line; blank lines are ignored.
//! scenario fig10_dynamic        # preamble: name, seed, frames
//! seed 0xF10
//! frames 100
//!
//! [topology]                    # generator testbed50 | fig1 |
//! generator testbed50           #   random count=10 quick_count=2 seed=0x10EF
//!                               # or explicit `link <child> <parent>` lines
//! [scheduler]
//! slots 199
//! channels 16
//! control_pdr 1.0 0.99 0.9      # sweep list for pdr_sweep reports
//!
//! [workloads]
//! demand echo rate=1            # or: demand uniform cells=1
//! headroom node=15 cells=1
//! rate_step node=15 at_frame=30 rate=3/2
//! demand_step link=up:5 delta=3 # or link=deepest
//!
//! [faults]
//! crash node=7 at_frame=10 restart_frame=20
//! gateway_failover at_frame=15 frames=5
//! pdr_window link=up:9 from_frame=10 frames=10 pdr=0.5
//! partition subtree=3 at_frame=12 frames=6
//! burst node=21 at_frame=8 packets=20
//! reparent node=45 to=2 at_frame=25
//!
//! [report]
//! file BENCH_fig10.json
//! mode timeline node=15         # | pdr_sweep | adjustments |
//! ```                           #   replicates repeats=4 | churn
//!
//! [`parse_scenario`] turns the text into a [`Scenario`] or a
//! [`ScenarioError`] carrying the offending line and column; the compile
//! helpers on [`Scenario`] lower it onto the simulator's types
//! ([`tsch_sim::FaultPlan`], [`tsch_sim::Tree`], task ids).

mod ast;
mod compile;
mod parse;

pub use ast::{
    DemandModel, DemandStep, FaultSpec, Headroom, LinkSel, RateStep, ReportMode, ReportSpec,
    Scenario, SchedulerSpec, TopologySpec, WorkloadSpec,
};
pub use compile::DemandStepEvent;
pub use parse::{parse_scenario, ScenarioError};
