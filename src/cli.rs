//! The `harp-cli` command-line interface: run the HARP pipeline, simulate
//! traffic, measure adjustments, check deadlines and lint scenario files
//! from a shell.
//!
//! The parser and command runners live in the library so they are unit
//! tested; the binary (`src/bin/harp-cli.rs`) is a thin wrapper. The
//! `scenarios` commands run both the grammar parse (positioned
//! diagnostics) and the compile checks against each scenario's own
//! topology — an out-of-tree node or an unresolvable link selector fails
//! validation, not the run.

use harp_core::{
    check_deadlines, render_super_partitions, render_utilization, DeadlineTask, HarpNetwork,
    Requirements, SchedulingPolicy,
};
use schedulers::{
    AliceScheduler, HarpScheduler, LdsfScheduler, MsfScheduler, RandomScheduler, Scheduler,
};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use tsch_sim::{
    Direction, GlobalInterference, Link, LinkQuality, NodeId, Rate, SimulatorBuilder,
    SlotframeConfig,
};
use workloads::scenario_dsl::{parse_scenario, ReportMode, Scenario};
use workloads::TopologyConfig;

/// A parsed CLI invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum CliCommand {
    /// `partition`: run the static pipeline and print the layout.
    Partition(NetArgs),
    /// `simulate`: run the data plane and print per-layer latencies.
    Simulate {
        /// Network parameters.
        net: NetArgs,
        /// Slotframes to simulate.
        frames: u64,
        /// Per-link packet delivery ratio.
        pdr: f64,
    },
    /// `adjust`: measure one traffic-change adjustment.
    Adjust {
        /// Network parameters.
        net: NetArgs,
        /// The node whose uplink demand changes.
        node: u32,
        /// The new cell count.
        cells: u32,
    },
    /// `deadlines`: analytic admission check.
    Deadlines {
        /// Network parameters.
        net: NetArgs,
        /// Relative deadline in slotframes.
        frames: u64,
    },
    /// `collisions`: average collision probability of one scheduler.
    Collisions {
        /// Scheduler name (random|msf|alice|ldsf|harp).
        scheduler: String,
        /// Cells per uplink.
        rate: u32,
        /// Topologies to average over.
        count: usize,
    },
    /// `scenarios list`: list + validate the checked-in scenario files.
    ScenariosList,
    /// `scenarios validate <file>..`: parse + compile-check scenario files.
    ScenariosValidate(Vec<String>),
    /// `help`: usage text.
    Help,
}

/// Shared network parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetArgs {
    /// Node count.
    pub nodes: u32,
    /// Layer count.
    pub layers: u32,
    /// Topology seed.
    pub seed: u64,
    /// Cells per uplink/downlink.
    pub rate: u32,
    /// Channel count.
    pub channels: u16,
}

impl Default for NetArgs {
    fn default() -> Self {
        Self {
            nodes: 50,
            layers: 5,
            seed: 0,
            rate: 1,
            channels: 16,
        }
    }
}

/// The usage text printed by `help` and on parse errors.
pub const USAGE: &str = "\
harp-cli — hierarchical resource partitioning for industrial wireless networks

USAGE:
  harp-cli partition  [--nodes N] [--layers L] [--seed S] [--rate R] [--channels C]
  harp-cli simulate   [net args] [--frames F] [--pdr P]
  harp-cli adjust     [net args] --node X --cells C
  harp-cli deadlines  [net args] [--frames F]
  harp-cli collisions --scheduler random|msf|alice|ldsf|harp [--rate R] [--count N]
  harp-cli scenarios  list
  harp-cli scenarios  validate <file.scn>..
  harp-cli help
";

type Flags = std::collections::BTreeMap<String, String>;

fn parse_kv(args: &[String]) -> Result<Flags, String> {
    let mut map = Flags::new();
    let mut i = 0;
    while i < args.len() {
        let key = args[i]
            .strip_prefix("--")
            .ok_or_else(|| format!("expected --flag, got '{}'", args[i]))?;
        let value = args
            .get(i + 1)
            .ok_or_else(|| format!("--{key} needs a value"))?;
        map.insert(key.to_string(), value.clone());
        i += 2;
    }
    Ok(map)
}

/// Takes `--key`'s value out of `map`, so that what is left once a
/// command has taken its own flags is what it does not define.
fn take<T: std::str::FromStr>(map: &mut Flags, key: &str) -> Result<Option<T>, String> {
    map.remove(key)
        .map(|v| {
            v.parse()
                .map_err(|_| format!("invalid value for --{key}: '{v}'"))
        })
        .transpose()
}

fn take_required<T: std::str::FromStr>(map: &mut Flags, key: &str) -> Result<T, String> {
    take(map, key)?.ok_or_else(|| format!("--{key} is required"))
}

fn parse_net(map: &mut Flags) -> Result<NetArgs, String> {
    let d = NetArgs::default();
    Ok(NetArgs {
        nodes: take(map, "nodes")?.unwrap_or(d.nodes),
        layers: take(map, "layers")?.unwrap_or(d.layers),
        seed: take(map, "seed")?.unwrap_or(d.seed),
        rate: take(map, "rate")?.unwrap_or(d.rate),
        channels: take(map, "channels")?.unwrap_or(d.channels),
    })
}

impl CliCommand {
    /// Parses a command line (without the program name).
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for unknown commands, flags or
    /// malformed values.
    pub fn parse(args: &[String]) -> Result<CliCommand, String> {
        let Some(command) = args.first() else {
            return Ok(CliCommand::Help);
        };
        // `scenarios` takes positional operands, not --flag pairs.
        if command == "scenarios" {
            return match args.get(1).map(String::as_str) {
                Some("list") => Ok(CliCommand::ScenariosList),
                Some("validate") if args.len() > 2 => {
                    Ok(CliCommand::ScenariosValidate(args[2..].to_vec()))
                }
                Some("validate") => Err("`scenarios validate` needs at least one file".into()),
                Some(other) => Err(format!("unknown scenarios subcommand '{other}'\n{USAGE}")),
                None => Err(format!("`scenarios` needs a subcommand\n{USAGE}")),
            };
        }
        let map = &mut parse_kv(&args[1..])?;
        let parsed = match command.as_str() {
            "partition" => CliCommand::Partition(parse_net(map)?),
            "simulate" => CliCommand::Simulate {
                net: parse_net(map)?,
                frames: take(map, "frames")?.unwrap_or(50),
                pdr: take(map, "pdr")?.unwrap_or(1.0),
            },
            "adjust" => CliCommand::Adjust {
                net: parse_net(map)?,
                node: take_required(map, "node")?,
                cells: take_required(map, "cells")?,
            },
            "deadlines" => CliCommand::Deadlines {
                net: parse_net(map)?,
                frames: take(map, "frames")?.unwrap_or(2),
            },
            "collisions" => CliCommand::Collisions {
                scheduler: take_required(map, "scheduler")?,
                rate: take(map, "rate")?.unwrap_or(3),
                count: take(map, "count")?.unwrap_or(20),
            },
            "help" | "--help" | "-h" => CliCommand::Help,
            other => return Err(format!("unknown command '{other}'\n{USAGE}")),
        };
        match map.keys().next() {
            Some(key) => Err(format!("unknown flag --{key} for `{command}`\n{USAGE}")),
            None => Ok(parsed),
        }
    }
}

fn build_network(net: NetArgs) -> Result<(tsch_sim::Tree, Requirements, SlotframeConfig), String> {
    if net.layers == 0 {
        return Err("--layers must be at least 1".to_owned());
    }
    if net.nodes <= net.layers {
        return Err(format!(
            "need more than {} nodes for {} layers",
            net.layers, net.layers
        ));
    }
    let tree = TopologyConfig {
        nodes: net.nodes,
        layers: net.layers,
        max_children: 8,
    }
    .generate(net.seed);
    let config = SlotframeConfig::paper_default()
        .with_channels(net.channels)
        .map_err(|e| e.to_string())?;
    let reqs = workloads::uniform_link_requirements(&tree, net.rate);
    Ok((tree, reqs, config))
}

/// Executes a parsed command and returns its output text.
///
/// # Errors
///
/// Returns a human-readable message for infeasible configurations.
pub fn run(command: CliCommand) -> Result<String, String> {
    match command {
        CliCommand::Help => Ok(USAGE.to_string()),
        CliCommand::ScenariosList => list_scenarios(),
        CliCommand::ScenariosValidate(files) => {
            let mut out = String::new();
            for file in &files {
                let scenario = validate_scenario_file(Path::new(file))?;
                let _ = writeln!(out, "{file}: ok ({})", describe_scenario(&scenario));
            }
            Ok(out)
        }
        CliCommand::Partition(net) => {
            let (tree, reqs, config) = build_network(net)?;
            let mut hn =
                HarpNetwork::new(tree.clone(), config, &reqs, SchedulingPolicy::RateMonotonic);
            let report = hn.run_static().map_err(|e| e.to_string())?;
            let mut out = String::new();
            let _ = writeln!(
                out,
                "{} nodes, {} layers (seed {}): converged in {:.2} s with {} mgmt messages",
                net.nodes,
                net.layers,
                net.seed,
                report.elapsed_seconds(config),
                report.mgmt_messages
            );
            out.push_str(&render_super_partitions(
                &tree,
                &partition_table(&tree, &reqs, config)?,
            ));
            let _ = writeln!(out, "{}", render_utilization(hn.schedule()));
            let _ = writeln!(out, "exclusive: {}", hn.schedule().is_exclusive());
            Ok(out)
        }
        CliCommand::Simulate { net, frames, pdr } => {
            let (tree, reqs, config) = build_network(net)?;
            let mut hn =
                HarpNetwork::new(tree.clone(), config, &reqs, SchedulingPolicy::RateMonotonic);
            hn.run_static().map_err(|e| e.to_string())?;
            let mut builder = SimulatorBuilder::new(tree.clone(), config)
                .schedule(hn.schedule().clone())
                .quality(LinkQuality::uniform(pdr).map_err(|e| e.to_string())?)
                .max_retries(0)
                .seed(net.seed);
            for task in workloads::echo_task_per_node(&tree, Rate::per_slotframe(net.rate)) {
                builder = builder.task(task).map_err(|e| e.to_string())?;
            }
            let mut sim = builder.build();
            sim.run_slotframes(frames);
            let stats = sim.stats();
            let mut out = String::new();
            let _ = writeln!(
                out,
                "{} frames: {} generated, {} delivered, {} collisions, {} losses",
                frames,
                stats.generated,
                stats.deliveries.len(),
                stats.collisions,
                stats.losses
            );
            let slot_s = f64::from(config.slot_duration_us) / 1e6;
            for layer in 1..=tree.layers() {
                let nodes = tree.nodes_at_depth(layer);
                let mut sum = 0.0;
                let mut n = 0;
                for node in nodes {
                    let s = stats.latency_summary(node);
                    if s.count > 0 {
                        sum += s.mean * slot_s;
                        n += 1;
                    }
                }
                let _ = writeln!(
                    out,
                    "layer {layer}: mean e2e latency {:.3} s over {n} nodes",
                    if n > 0 { sum / f64::from(n) } else { 0.0 }
                );
            }
            Ok(out)
        }
        CliCommand::Adjust { net, node, cells } => {
            let (tree, reqs, config) = build_network(net)?;
            if node as usize >= tree.len() || node == 0 {
                return Err(format!(
                    "--node must name a non-gateway node < {}",
                    tree.len()
                ));
            }
            let mut hn =
                HarpNetwork::new(tree.clone(), config, &reqs, SchedulingPolicy::RateMonotonic);
            hn.run_static().map_err(|e| e.to_string())?;
            let link = Link::up(NodeId(node));
            let report = hn
                .adjust_and_settle(hn.now(), link, cells)
                .map_err(|e| e.to_string())?;
            Ok(format!(
                "adjusted {link} to {cells} cells: {} mgmt msgs, {} nodes, {:.2} s ({} slotframes); exclusive: {}\n",
                report.mgmt_messages,
                report.involved_nodes.len(),
                report.elapsed_seconds(config),
                report.slotframes(config),
                hn.schedule().is_exclusive()
            ))
        }
        CliCommand::Deadlines { net, frames } => {
            let (tree, reqs, config) = build_network(net)?;
            let mut hn =
                HarpNetwork::new(tree.clone(), config, &reqs, SchedulingPolicy::RateMonotonic);
            hn.run_static().map_err(|e| e.to_string())?;
            let deadline = frames * u64::from(config.slots);
            let tasks: Vec<DeadlineTask> =
                workloads::echo_task_per_node(&tree, Rate::per_slotframe(net.rate))
                    .into_iter()
                    .map(|task| DeadlineTask {
                        task,
                        deadline_slots: deadline,
                    })
                    .collect();
            let verdicts =
                check_deadlines(hn.schedule(), &tree, &tasks).map_err(|e| e.to_string())?;
            let ok = verdicts.iter().filter(|v| v.is_schedulable()).count();
            Ok(format!(
                "{ok}/{} tasks provably meet a {frames}-slotframe deadline\n",
                verdicts.len()
            ))
        }
        CliCommand::Collisions {
            scheduler,
            rate,
            count,
        } => {
            let s: &dyn Scheduler = match scheduler.as_str() {
                "random" => &RandomScheduler,
                "msf" => &MsfScheduler,
                "alice" => &AliceScheduler,
                "ldsf" => &LdsfScheduler,
                "harp" => &HarpScheduler {
                    policy: SchedulingPolicy::RateMonotonic,
                },
                other => return Err(format!("unknown scheduler '{other}'")),
            };
            if count == 0 {
                return Err("--count must be at least 1".to_owned());
            }
            let config = SlotframeConfig::paper_default();
            let topologies = TopologyConfig::paper_50_node().generate_batch(0xF1_611, count);
            let mut sum = 0.0;
            for (i, tree) in topologies.iter().enumerate() {
                let reqs = workloads::uniform_uplink_requirements(tree, rate);
                let schedule = s.build_schedule(tree, &reqs, config, i as u64);
                sum += schedule
                    .collision_report(tree, &GlobalInterference)
                    .collision_probability();
            }
            Ok(format!(
                "{}: average collision probability {:.2}% over {count} topologies at rate {rate}\n",
                s.name(),
                sum / count as f64 * 100.0
            ))
        }
    }
}

/// The checked-in scenario directory at the workspace root (this crate's
/// manifest directory under cargo, the working directory otherwise).
fn scenario_dir() -> PathBuf {
    match std::env::var("CARGO_MANIFEST_DIR") {
        Ok(dir) => Path::new(&dir).join("scenarios"),
        Err(_) => PathBuf::from("scenarios"),
    }
}

/// Parses and compile-checks one scenario file.
///
/// # Errors
///
/// `"<path>: line L, column C: ..."` for grammar errors, or
/// `"<path>: ..."` for compile failures against the scenario's topology.
pub fn validate_scenario_file(path: &Path) -> Result<Scenario, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let scenario = parse_scenario(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let prefix = |e: String| format!("{}: {e}", path.display());
    scenario.slotframe_config().map_err(prefix)?;
    // The quick batch is enough: every tree in a batch shares node count
    // and depth, which is all the compile checks consult.
    for tree in scenario.trees(true) {
        scenario.data_fault_plan(&tree).map_err(prefix)?;
        scenario.demand_step_events(&tree).map_err(prefix)?;
    }
    Ok(scenario)
}

fn describe_scenario(s: &Scenario) -> String {
    let mode = match s.report.mode {
        ReportMode::Timeline { node } => format!("timeline node={node}"),
        ReportMode::PdrSweep => "pdr_sweep".into(),
        ReportMode::Adjustments => "adjustments".into(),
        ReportMode::Replicates { repeats } => format!("replicates repeats={repeats}"),
        ReportMode::Churn => "churn".into(),
    };
    format!(
        "{}, {} frames, {} faults, mode {mode}",
        s.name,
        s.frames,
        s.faults.len()
    )
}

fn list_scenarios() -> Result<String, String> {
    let dir = scenario_dir();
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "scn"))
        .collect();
    files.sort();
    let mut out = String::new();
    for path in files {
        let name = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        match validate_scenario_file(&path) {
            Ok(s) => {
                let _ = writeln!(out, "{name:<24} {}", describe_scenario(&s));
            }
            Err(e) => {
                let _ = writeln!(out, "{name:<24} INVALID: {e}");
            }
        }
    }
    if out.is_empty() {
        out.push_str("(no scenario files found)\n");
    }
    Ok(out)
}

/// Rebuilds the centralized partition table for rendering (the distributed
/// run and the oracle agree; proven by the test suite).
fn partition_table(
    tree: &tsch_sim::Tree,
    reqs: &Requirements,
    config: SlotframeConfig,
) -> Result<harp_core::PartitionTable, String> {
    let up = harp_core::build_interfaces(tree, reqs, Direction::Up, config.channels)
        .map_err(|e| e.to_string())?;
    let down = harp_core::build_interfaces(tree, reqs, Direction::Down, config.channels)
        .map_err(|e| e.to_string())?;
    harp_core::allocate_partitions(tree, &up, &down, config).map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parse_defaults() {
        let cmd = CliCommand::parse(&args("partition")).unwrap();
        assert_eq!(cmd, CliCommand::Partition(NetArgs::default()));
    }

    #[test]
    fn parse_overrides() {
        let cmd =
            CliCommand::parse(&args("partition --nodes 20 --layers 3 --seed 7 --rate 2")).unwrap();
        let CliCommand::Partition(net) = cmd else {
            panic!()
        };
        assert_eq!((net.nodes, net.layers, net.seed, net.rate), (20, 3, 7, 2));
    }

    #[test]
    fn parse_errors_are_helpful() {
        assert!(CliCommand::parse(&args("partition --nodes"))
            .unwrap_err()
            .contains("value"));
        assert!(CliCommand::parse(&args("partition nodes 3"))
            .unwrap_err()
            .contains("--flag"));
        assert!(CliCommand::parse(&args("frobnicate"))
            .unwrap_err()
            .contains("unknown command"));
        assert!(CliCommand::parse(&args("adjust"))
            .unwrap_err()
            .contains("--node"));
        assert!(CliCommand::parse(&args("collisions"))
            .unwrap_err()
            .contains("--scheduler"));
        assert!(CliCommand::parse(&args("partition --nodes abc"))
            .unwrap_err()
            .contains("invalid value"));
        assert!(CliCommand::parse(&args("partition --nodez 9"))
            .unwrap_err()
            .contains("unknown flag --nodez"));
        // 0 is the release a leaving leaf requests, not a missing flag.
        assert!(CliCommand::parse(&args("adjust --node 5 --cells 0")).is_ok());
    }

    #[test]
    fn empty_args_show_help() {
        assert_eq!(CliCommand::parse(&[]).unwrap(), CliCommand::Help);
        assert!(run(CliCommand::Help).unwrap().contains("USAGE"));
    }

    #[test]
    fn parse_scenarios_commands() {
        assert_eq!(
            CliCommand::parse(&args("scenarios list")).unwrap(),
            CliCommand::ScenariosList
        );
        assert_eq!(
            CliCommand::parse(&args("scenarios validate a.scn b.scn")).unwrap(),
            CliCommand::ScenariosValidate(vec!["a.scn".into(), "b.scn".into()])
        );
        assert!(CliCommand::parse(&args("scenarios validate"))
            .unwrap_err()
            .contains("at least one file"));
        assert!(CliCommand::parse(&args("scenarios frobnicate"))
            .unwrap_err()
            .contains("unknown scenarios subcommand"));
    }

    #[test]
    fn scenario_validation_reports_line_and_column() {
        let dir = std::env::temp_dir().join("harp_cli_validate_test");
        std::fs::create_dir_all(&dir).unwrap();
        let bad = dir.join("bad.scn");
        std::fs::write(&bad, "scenario x\n[faults]\nmeteor node=1\n").unwrap();
        let err = validate_scenario_file(&bad).unwrap_err();
        assert!(err.contains("bad.scn: line 3, column 1"), "got: {err}");
        assert!(err.contains("unknown fault kind"));

        // Grammar-valid but compile-invalid: node outside the topology.
        let oob = dir.join("oob.scn");
        std::fs::write(
            &oob,
            "scenario x\n[topology]\nlink 1 0\n[faults]\ncrash node=9 at_frame=1\n",
        )
        .unwrap();
        let err = validate_scenario_file(&oob).unwrap_err();
        assert!(err.contains("outside the tree"), "got: {err}");
    }

    #[test]
    fn checked_in_scenarios_all_validate() {
        let out = run(CliCommand::ScenariosList).unwrap();
        assert!(out.contains("fig10_dynamic.scn"), "got: {out}");
        assert!(out.contains("mgmt_loss.scn"));
        assert!(out.contains("table2_adjustment.scn"));
        assert!(out.contains("fault_storm.scn"));
        assert!(out.contains("gateway_failover.scn"));
        assert!(out.contains("reparent_churn.scn"));
        assert!(!out.contains("INVALID"), "got: {out}");
    }

    #[test]
    fn partition_runs_end_to_end() {
        let out = run(CliCommand::Partition(NetArgs {
            nodes: 15,
            layers: 3,
            seed: 1,
            rate: 1,
            channels: 16,
        }))
        .unwrap();
        assert!(out.contains("exclusive: true"));
        assert!(out.contains("cells assigned"));
    }

    #[test]
    fn simulate_runs_end_to_end() {
        let out = run(CliCommand::Simulate {
            net: NetArgs {
                nodes: 12,
                layers: 3,
                seed: 2,
                rate: 1,
                channels: 16,
            },
            frames: 5,
            pdr: 1.0,
        })
        .unwrap();
        assert!(out.contains("0 collisions"));
        assert!(out.contains("layer 1"));
    }

    #[test]
    fn adjust_runs_end_to_end() {
        let out = run(CliCommand::Adjust {
            net: NetArgs {
                nodes: 12,
                layers: 3,
                seed: 2,
                rate: 1,
                channels: 16,
            },
            node: 5,
            cells: 3,
        })
        .unwrap();
        assert!(out.contains("exclusive: true"));
    }

    #[test]
    fn deadlines_runs_end_to_end() {
        let out = run(CliCommand::Deadlines {
            net: NetArgs {
                nodes: 12,
                layers: 3,
                seed: 2,
                rate: 1,
                channels: 16,
            },
            frames: 2,
        })
        .unwrap();
        assert!(out.contains("provably meet"));
    }

    #[test]
    fn collisions_runs_end_to_end() {
        let out = run(CliCommand::Collisions {
            scheduler: "harp".into(),
            rate: 2,
            count: 3,
        })
        .unwrap();
        assert!(out.contains("harp"));
        assert!(
            out.contains("0.00%"),
            "harp never collides at rate 2: {out}"
        );
        assert!(run(CliCommand::Collisions {
            scheduler: "nope".into(),
            rate: 1,
            count: 1
        })
        .is_err());
        // No topology to average over: an error, not NaN.
        let err = run(CliCommand::Collisions {
            scheduler: "harp".into(),
            rate: 1,
            count: 0,
        })
        .unwrap_err();
        assert!(err.contains("--count"), "{err}");
    }

    #[test]
    fn invalid_network_rejected() {
        let err = run(CliCommand::Partition(NetArgs {
            nodes: 3,
            layers: 5,
            seed: 0,
            rate: 1,
            channels: 16,
        }))
        .unwrap_err();
        assert!(err.contains("need more"));
        // Zero layers is refused before the generator could panic on it.
        let err = run(CliCommand::Partition(NetArgs {
            nodes: 5,
            layers: 0,
            seed: 0,
            rate: 1,
            channels: 16,
        }))
        .unwrap_err();
        assert!(err.contains("--layers"), "{err}");
    }
}
