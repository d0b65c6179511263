//! Shared experiment machinery for the HARP reproduction harness.
//!
//! Each table and figure of the paper's evaluation is either a binary in
//! `src/bin/` or a scenario file replayed by `harp_sim`, and prints the
//! same rows/series the paper reports; the common sweep logic lives here
//! so the binaries stay declarative and the logic itself is unit-tested.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod harness;
pub mod scenario_run;

use harp_core::HarpNetwork;
use schedulers::Scheduler;
use tsch_sim::{Asn, GlobalInterference, SlotframeConfig, Tree};

pub use tsch_sim::mean;

pub use tsch_sim::{bench_threads, par_map, par_map_with_threads};

/// Average schedule-collision probability of one scheduler over a batch of
/// topologies, with every *uplink* demanding `cells_per_link` cells — the
/// inner loop of Fig. 11. (Uplink-only sensor traffic: at rate 8 the demand
/// almost exactly fills the paper's 199-slot slotframe, which is the regime
/// the paper sweeps; adding downlinks would make rate ≥ 5 physically
/// unschedulable for any collision-free scheduler.)
///
/// Collisions are counted under the *global* model (any two links sharing a
/// cell collide), which is the paper's notion of a schedule collision.
#[must_use]
pub(crate) fn average_collision_probability(
    scheduler: &dyn Scheduler,
    topologies: &[Tree],
    cells_per_link: u32,
    config: SlotframeConfig,
) -> f64 {
    let probabilities: Vec<f64> = par_map(topologies, |i, tree| {
        let reqs = workloads::uniform_uplink_requirements(tree, cells_per_link);
        let schedule = scheduler.build_schedule(tree, &reqs, config, i as u64);
        schedule
            .collision_report(tree, &GlobalInterference)
            .collision_probability()
    });
    mean(&probabilities)
}

/// The sweep both Fig. 11 panels run: the five compared schedulers over the
/// 100 Fig. 11 topologies. Each [`point`](Self::point) adds one report row.
pub struct Fig11Sweep {
    topologies: Vec<Tree>,
    schedulers: [Box<dyn Scheduler>; 5],
    rows: Vec<(String, Vec<(&'static str, f64)>)>,
}

impl Fig11Sweep {
    /// Generates the topologies and starts an empty sweep.
    #[must_use]
    #[allow(clippy::new_without_default)]
    pub fn new() -> Self {
        Self {
            topologies: workloads::fig11_topologies(),
            schedulers: [
                Box::new(schedulers::RandomScheduler),
                Box::new(schedulers::MsfScheduler),
                Box::new(schedulers::AliceScheduler),
                Box::new(schedulers::LdsfScheduler),
                Box::new(schedulers::HarpScheduler::default()),
            ],
            rows: Vec::new(),
        }
    }

    /// Number of topologies each point averages over.
    #[must_use]
    pub fn topology_count(&self) -> usize {
        self.topologies.len()
    }

    /// Prints the scheduler-name column headers (no newline).
    pub fn print_scheduler_columns(&self) {
        for s in &self.schedulers {
            print!(" {:>8}", s.name());
        }
    }

    /// Measures every scheduler at one sweep point, prints the collision
    /// probabilities as columns (no newline) and records the row `name`.
    /// Returns the row's fields so a panel can append its own.
    pub fn point(
        &mut self,
        name: String,
        cells_per_link: u32,
        config: SlotframeConfig,
    ) -> &mut Vec<(&'static str, f64)> {
        let mut fields = Vec::new();
        for s in &self.schedulers {
            let p =
                average_collision_probability(s.as_ref(), &self.topologies, cells_per_link, config);
            print!(" {:>8}", pct(p));
            fields.push((s.name(), p));
        }
        self.rows.push((name, fields));
        &mut self.rows.last_mut().expect("row just pushed").1
    }

    /// Prints the library-counter footer and writes the report: rows and
    /// the workloads and schedulers counters.
    pub fn write_report(self, file_name: &str) {
        println!("{}", obs_footer());
        harness::print_bench_threads(bench_threads());
        let mut snap = tsch_sim::MetricsSnapshot::default();
        snap.add_counters(workloads::obs::totals());
        snap.add_counters(schedulers::obs::totals());
        let json = harness::to_json_with_sections(
            &[],
            &[
                ("rows", harness::rows_json(&self.rows)),
                ("obs", snap.to_json()),
            ],
        );
        harness::write_report(file_name, &json);
    }
}

/// Folds the process-wide packing and workloads counters into a snapshot —
/// the `obs` section boilerplate every experiment report shares.
pub(crate) fn add_library_counters(snap: &mut tsch_sim::MetricsSnapshot) {
    snap.add_counters(packing::obs::totals());
    snap.add_counters(workloads::obs::totals());
}

/// `add_library_counters` plus the scheduler counters — for experiments
/// that exercise the pluggable schedulers (Fig. 9, Fig. 12).
pub fn add_all_library_counters(snap: &mut tsch_sim::MetricsSnapshot) {
    add_library_counters(snap);
    snap.add_counters(schedulers::obs::totals());
}

/// Formats a probability as a percentage with two decimals.
#[must_use]
pub fn pct(p: f64) -> String {
    format!("{:6.2}%", p * 100.0)
}

/// One-line stdout footer summarising the process-wide library counters
/// (packing, workloads, schedulers) — appended by the experiment binaries
/// so a CI log shows how much algorithmic work each figure cost.
#[must_use]
pub fn obs_footer() -> String {
    let mut parts = Vec::new();
    for (name, v) in packing::obs::totals()
        .into_iter()
        .chain(workloads::obs::totals())
        .chain(schedulers::obs::totals())
    {
        if v > 0 {
            parts.push(format!("{name}={v}"));
        }
    }
    if parts.is_empty() {
        "# metrics: (none)".to_owned()
    } else {
        format!("# metrics: {}", parts.join(" "))
    }
}

/// Advances a HARP control plane and a data-plane simulator in lockstep for
/// `slots` slots: after each slot the simulator takes up the cells the
/// nodes installed during it (see [`follow_schedule`]).
///
/// `net_offset` maps simulator time to the control plane's clock (the
/// static phase consumed control-plane time before the data plane started).
///
/// # Panics
///
/// Panics if the control plane rejects a message (infeasible adjustment)
/// mid-run — experiments construct feasible scenarios.
pub(crate) fn run_lockstep(
    sim: &mut tsch_sim::Simulator,
    net: &mut HarpNetwork,
    net_offset: u64,
    slots: u64,
) {
    for _ in 0..slots {
        sim.step_slot();
        net.step(Asn(sim.now().0 + net_offset))
            .expect("feasible scenario");
        follow_schedule(sim, net);
    }
}

/// Copies the control plane's installed schedule into the simulator if its
/// version moved: a clone keeps the version and a rollback restores it.
pub(crate) fn follow_schedule(sim: &mut tsch_sim::Simulator, net: &HarpNetwork) {
    if sim.schedule().version() != net.schedule().version() {
        sim.schedule_mut().clone_from(net.schedule());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use schedulers::{HarpScheduler, RandomScheduler};
    use workloads::TopologyConfig;

    #[test]
    fn mean_edge_cases() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2.0, 4.0]), 3.0);
    }

    #[test]
    fn bench_threads_is_positive() {
        assert!(bench_threads() >= 1);
    }

    #[test]
    fn parallel_collision_sweep_is_identical_to_serial() {
        // The acceptance bar for the parallel layer: fanning a sweep out
        // across threads must not change a single bit of the result.
        let topologies = TopologyConfig::paper_50_node().generate_batch(3, 4);
        let cfg = SlotframeConfig::paper_default();
        let scheduler = RandomScheduler;
        let serial: Vec<f64> = topologies
            .iter()
            .enumerate()
            .map(|(i, tree)| {
                let reqs = workloads::uniform_uplink_requirements(tree, 3);
                scheduler
                    .build_schedule(tree, &reqs, cfg, i as u64)
                    .collision_report(tree, &GlobalInterference)
                    .collision_probability()
            })
            .collect();
        let expected = mean(&serial);
        let got = average_collision_probability(&scheduler, &topologies, 3, cfg);
        assert_eq!(
            got.to_bits(),
            expected.to_bits(),
            "bit-exact across thread counts"
        );
    }

    #[test]
    fn collision_sweep_orders_harp_below_random() {
        let topologies = TopologyConfig::paper_50_node().generate_batch(7, 5);
        let cfg = SlotframeConfig::paper_default();
        let harp = average_collision_probability(&HarpScheduler::default(), &topologies, 3, cfg);
        let random = average_collision_probability(&RandomScheduler, &topologies, 3, cfg);
        assert_eq!(harp, 0.0);
        assert!(random > 0.0);
    }

    #[test]
    fn pct_formats() {
        assert_eq!(pct(0.5), " 50.00%");
    }
}
