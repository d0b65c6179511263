//! The timing benchmark for `harpd` and the TSCH simulator: four seeded,
//! deterministic workloads replayed pass after pass inside one process,
//! per-op-minimum estimators that survive a noisy shared host, a counting
//! allocator for the memory metrics, and a traced run that attributes time
//! to the repository's crates. `README.md` beside this crate explains every
//! metric and workload; `BENCHMARK.json` at the repository root declares
//! them.

#![warn(missing_docs)]
#![warn(unsafe_op_in_unsafe_fn)]

pub mod alloc;
pub mod dataplane;
pub mod gen;
pub mod layers;
pub mod pass;
pub mod pin;
pub mod run;
pub mod service;
pub mod stats;
pub mod trace;
