//! The hand-rolled line parser: text → [`Scenario`] or a positioned
//! [`ScenarioError`].
//!
//! The grammar is strictly line-oriented (see the [module docs](super)):
//! `#` comments run to end of line, a `[section]` header switches context,
//! and every directive is a head word followed by bare values or
//! `key=value` pairs. All diagnostics carry the 1-based line and column of
//! the offending token, which is what `harp-cli scenarios validate`
//! surfaces.

use super::ast::{
    DemandModel, DemandStep, FaultSpec, Headroom, LinkSel, RateStep, ReportMode, ReportSpec,
    Scenario, SchedulerSpec, TopologySpec, WorkloadSpec,
};
use core::fmt;
use tsch_sim::Rate;

/// A parse or validation failure, positioned at its offending token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioError {
    /// 1-based line number.
    pub line: usize,
    /// 1-based column of the offending token.
    pub col: usize,
    /// Human-readable description.
    pub msg: String,
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}, column {}: {}", self.line, self.col, self.msg)
    }
}

impl std::error::Error for ScenarioError {}

fn err<T>(line: usize, col: usize, msg: impl Into<String>) -> Result<T, ScenarioError> {
    Err(ScenarioError {
        line,
        col,
        msg: msg.into(),
    })
}

/// One whitespace-delimited token with its 1-based column.
struct Tok<'a> {
    col: usize,
    text: &'a str,
}

/// Tokenizes one line: strips the `#` comment, splits on whitespace.
fn tokenize(raw: &str) -> Vec<Tok<'_>> {
    let code = match raw.find('#') {
        Some(i) => &raw[..i],
        None => raw,
    };
    let mut toks = Vec::new();
    let mut rest = code;
    let mut offset = 0;
    while let Some(start) = rest.find(|c: char| !c.is_whitespace()) {
        let after = &rest[start..];
        let len = after.find(char::is_whitespace).unwrap_or(after.len());
        toks.push(Tok {
            col: offset + start + 1,
            text: &after[..len],
        });
        offset += start + len;
        rest = &rest[start + len..];
    }
    toks
}

fn parse_u64(s: &str) -> Option<u64> {
    let s = s.replace('_', "");
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        s.parse().ok()
    }
}

fn parse_rate(s: &str) -> Option<Rate> {
    let (p, q) = match s.split_once('/') {
        Some((p, q)) => (p.parse().ok()?, q.parse().ok()?),
        None => (s.parse().ok()?, 1),
    };
    Rate::new(p, q).ok()
}

fn parse_link(s: &str) -> Option<LinkSel> {
    if s == "deepest" {
        return Some(LinkSel::Deepest);
    }
    let (dir, node) = s.split_once(':')?;
    let node = node.parse().ok()?;
    match dir {
        "up" => Some(LinkSel::Up(node)),
        "down" => Some(LinkSel::Down(node)),
        _ => None,
    }
}

/// A directive's `key=value` arguments, consumed by name; leftover keys
/// are a positioned error.
struct Args<'a> {
    line: usize,
    head: &'a str,
    pairs: Vec<(&'a str, &'a str, usize)>,
}

impl<'a> Args<'a> {
    fn new(line: usize, head: &'a str, toks: &[Tok<'a>]) -> Result<Self, ScenarioError> {
        let mut pairs = Vec::new();
        for t in toks {
            match t.text.split_once('=') {
                Some((k, v)) if !k.is_empty() && !v.is_empty() => {
                    pairs.push((k, v, t.col));
                }
                _ => {
                    return err(
                        line,
                        t.col,
                        format!("`{head}` expects key=value arguments, got `{}`", t.text),
                    )
                }
            }
        }
        Ok(Self { line, head, pairs })
    }

    /// Takes a required argument, parsing it with `parse`.
    fn req<T>(&mut self, key: &str, parse: impl Fn(&str) -> Option<T>) -> Result<T, ScenarioError> {
        match self.opt(key, parse)? {
            Some(v) => Ok(v),
            None => err(
                self.line,
                1,
                format!("`{}` is missing its `{key}=` argument", self.head),
            ),
        }
    }

    /// Takes an optional argument, parsing it with `parse`.
    fn opt<T>(
        &mut self,
        key: &str,
        parse: impl Fn(&str) -> Option<T>,
    ) -> Result<Option<T>, ScenarioError> {
        let Some(i) = self.pairs.iter().position(|&(k, _, _)| k == key) else {
            return Ok(None);
        };
        let (_, v, col) = self.pairs.remove(i);
        match parse(v) {
            Some(parsed) => Ok(Some(parsed)),
            None => err(
                self.line,
                col,
                format!("invalid value `{v}` for `{key}` in `{}`", self.head),
            ),
        }
    }

    /// Errors on any argument not consumed.
    fn finish(self) -> Result<(), ScenarioError> {
        match self.pairs.first() {
            None => Ok(()),
            Some(&(k, _, col)) => err(
                self.line,
                col,
                format!("unknown argument `{k}` for `{}`", self.head),
            ),
        }
    }
}

const SECTIONS: [&str; 5] = ["topology", "scheduler", "workloads", "faults", "report"];

/// Parses a scenario file.
///
/// # Errors
///
/// [`ScenarioError`] with the line and column of the first malformed or
/// semantically invalid directive.
pub fn parse_scenario(text: &str) -> Result<Scenario, ScenarioError> {
    let mut name: Option<String> = None;
    let mut seed = 0u64;
    let mut frames = 100u64;
    let mut generator: Option<TopologySpec> = None;
    let mut explicit_links: Vec<(u32, u32)> = Vec::new();
    let mut scheduler = SchedulerSpec::default();
    let mut workload = WorkloadSpec::default();
    let mut faults: Vec<FaultSpec> = Vec::new();
    let mut report = ReportSpec::default();
    let mut mode_line = 0usize;
    let mut section: Option<&str> = None;
    let mut seen: Vec<&str> = Vec::new();

    for (i, raw) in text.lines().enumerate() {
        let line = i + 1;
        let toks = tokenize(raw);
        let Some(head) = toks.first() else { continue };

        // Section headers.
        if let Some(inner) = head.text.strip_prefix('[') {
            let Some(sec) = inner.strip_suffix(']') else {
                return err(line, head.col, "unterminated section header");
            };
            let Some(&known) = SECTIONS.iter().find(|&&s| s == sec) else {
                return err(line, head.col, format!("unknown section `[{sec}]`"));
            };
            if seen.contains(&known) {
                return err(line, head.col, format!("duplicate section `[{sec}]`"));
            }
            if let Some(t) = toks.get(1) {
                return err(line, t.col, "trailing tokens after section header");
            }
            seen.push(known);
            section = Some(known);
            continue;
        }

        let rest = &toks[1..];
        match section {
            // Preamble: scenario / seed / frames.
            None => match head.text {
                "scenario" => {
                    let Some(n) = rest.first() else {
                        return err(line, head.col, "`scenario` needs a name");
                    };
                    if name.is_some() {
                        return err(line, head.col, "duplicate `scenario` line");
                    }
                    name = Some(n.text.to_owned());
                }
                "seed" => {
                    let Some(v) = rest.first().and_then(|t| parse_u64(t.text)) else {
                        return err(line, head.col, "`seed` needs an integer value");
                    };
                    seed = v;
                }
                "frames" => {
                    let v = rest.first().and_then(|t| parse_u64(t.text));
                    match v {
                        Some(v) if v > 0 => frames = v,
                        _ => return err(line, head.col, "`frames` needs a positive integer"),
                    }
                }
                other => {
                    return err(
                        line,
                        head.col,
                        format!("unknown preamble directive `{other}` (expected a `[section]`)"),
                    )
                }
            },
            Some("topology") => match head.text {
                "generator" => {
                    if generator.is_some() || !explicit_links.is_empty() {
                        return err(line, head.col, "topology is already specified");
                    }
                    let Some(kind) = rest.first() else {
                        return err(line, head.col, "`generator` needs a kind");
                    };
                    generator = Some(match kind.text {
                        "testbed50" => {
                            Args::new(line, "generator testbed50", &rest[1..])?.finish()?;
                            TopologySpec::Testbed50
                        }
                        "fig1" => {
                            Args::new(line, "generator fig1", &rest[1..])?.finish()?;
                            TopologySpec::Fig1
                        }
                        "random" => {
                            let mut a = Args::new(line, "generator random", &rest[1..])?;
                            let nodes = a.opt("nodes", |s| s.parse().ok())?.unwrap_or(50u32);
                            let layers = a.opt("layers", |s| s.parse().ok())?.unwrap_or(5u32);
                            let max_children =
                                a.opt("max_children", |s| s.parse().ok())?.unwrap_or(8usize);
                            let gseed = a.opt("seed", parse_u64)?.unwrap_or(seed);
                            let count = a.opt("count", |s| s.parse().ok())?.unwrap_or(1usize);
                            let quick_count =
                                a.opt("quick_count", |s| s.parse().ok())?.unwrap_or(count);
                            a.finish()?;
                            if nodes < 2 || count == 0 || quick_count == 0 {
                                return err(
                                    line,
                                    head.col,
                                    "`generator random` needs nodes >= 2 and counts >= 1",
                                );
                            }
                            TopologySpec::Random {
                                nodes,
                                layers,
                                max_children,
                                seed: gseed,
                                count,
                                quick_count,
                            }
                        }
                        other => {
                            return err(
                                line,
                                kind.col,
                                format!("unknown generator `{other}` (testbed50 | fig1 | random)"),
                            )
                        }
                    });
                }
                "link" => {
                    if generator.is_some() {
                        return err(line, head.col, "topology is already specified");
                    }
                    let (Some(c), Some(p)) = (
                        rest.first().and_then(|t| t.text.parse::<u32>().ok()),
                        rest.get(1).and_then(|t| t.text.parse::<u32>().ok()),
                    ) else {
                        return err(line, head.col, "`link` needs `<child> <parent>` node ids");
                    };
                    explicit_links.push((c, p));
                }
                other => {
                    return err(
                        line,
                        head.col,
                        format!("unknown topology directive `{other}`"),
                    )
                }
            },
            Some("scheduler") => match head.text {
                "slots" => match rest.first().and_then(|t| t.text.parse::<u32>().ok()) {
                    Some(v) if v > 0 => scheduler.slots = v,
                    _ => return err(line, head.col, "`slots` needs a positive integer"),
                },
                "channels" => match rest.first().and_then(|t| t.text.parse::<u16>().ok()) {
                    Some(v) if v > 0 => scheduler.channels = v,
                    _ => return err(line, head.col, "`channels` needs a positive integer"),
                },
                "control_pdr" => {
                    let mut pdrs = Vec::new();
                    for t in rest {
                        match t.text.parse::<f64>() {
                            Ok(p) if (0.0..=1.0).contains(&p) => pdrs.push(p),
                            _ => {
                                return err(
                                    line,
                                    t.col,
                                    format!(
                                        "`control_pdr` values must be in [0, 1], got `{}`",
                                        t.text
                                    ),
                                )
                            }
                        }
                    }
                    if pdrs.is_empty() {
                        return err(line, head.col, "`control_pdr` needs at least one value");
                    }
                    scheduler.control_pdrs = pdrs;
                }
                other => {
                    return err(
                        line,
                        head.col,
                        format!("unknown scheduler directive `{other}`"),
                    )
                }
            },
            Some("workloads") => match head.text {
                "demand" => {
                    let Some(kind) = rest.first() else {
                        return err(line, head.col, "`demand` needs a model (echo | uniform)");
                    };
                    workload.demand = match kind.text {
                        "echo" => {
                            let mut a = Args::new(line, "demand echo", &rest[1..])?;
                            let rate = a.opt("rate", parse_rate)?.unwrap_or(Rate::per_slotframe(1));
                            a.finish()?;
                            DemandModel::Echo(rate)
                        }
                        "uniform" => {
                            let mut a = Args::new(line, "demand uniform", &rest[1..])?;
                            let cells = a.opt("cells", |s| s.parse().ok())?.unwrap_or(1u32);
                            a.finish()?;
                            if cells == 0 {
                                return err(line, head.col, "`demand uniform` needs cells >= 1");
                            }
                            DemandModel::Uniform(cells)
                        }
                        other => {
                            return err(
                                line,
                                kind.col,
                                format!("unknown demand model `{other}` (echo | uniform)"),
                            )
                        }
                    };
                }
                "headroom" => {
                    let mut a = Args::new(line, "headroom", rest)?;
                    let node = a.req("node", |s| s.parse().ok())?;
                    let cells = a.req("cells", |s| s.parse().ok())?;
                    a.finish()?;
                    workload.headroom = Some(Headroom { node, cells });
                }
                "rate_step" => {
                    let mut a = Args::new(line, "rate_step", rest)?;
                    let node = a.req("node", |s| s.parse().ok())?;
                    let at_frame = a.req("at_frame", parse_u64)?;
                    let rate = a.req("rate", parse_rate)?;
                    a.finish()?;
                    workload.rate_steps.push(RateStep {
                        node,
                        at_frame,
                        rate,
                    });
                }
                "demand_step" => {
                    let mut a = Args::new(line, "demand_step", rest)?;
                    let link = a.req("link", parse_link)?;
                    let delta = a.req("delta", |s| s.parse().ok())?;
                    a.finish()?;
                    workload.demand_steps.push(DemandStep { link, delta });
                }
                other => {
                    return err(
                        line,
                        head.col,
                        format!("unknown workloads directive `{other}`"),
                    )
                }
            },
            Some("faults") => {
                let spec = match head.text {
                    "crash" => {
                        let mut a = Args::new(line, "crash", rest)?;
                        let node = a.req("node", |s| s.parse().ok())?;
                        let at_frame = a.req("at_frame", parse_u64)?;
                        let restart_frame = a.opt("restart_frame", parse_u64)?;
                        a.finish()?;
                        if let Some(r) = restart_frame {
                            if r <= at_frame {
                                return err(
                                    line,
                                    head.col,
                                    "`restart_frame` must be after `at_frame`",
                                );
                            }
                        }
                        FaultSpec::Crash {
                            node,
                            at_frame,
                            restart_frame,
                        }
                    }
                    "gateway_failover" => {
                        let mut a = Args::new(line, "gateway_failover", rest)?;
                        let at_frame = a.req("at_frame", parse_u64)?;
                        let outage = a.req("frames", parse_u64)?;
                        a.finish()?;
                        if outage == 0 {
                            return err(line, head.col, "`frames` must be positive");
                        }
                        FaultSpec::GatewayFailover {
                            at_frame,
                            frames: outage,
                        }
                    }
                    "pdr_window" => {
                        let mut a = Args::new(line, "pdr_window", rest)?;
                        let link = a.req("link", parse_link)?;
                        let from_frame = a.req("from_frame", parse_u64)?;
                        let window = a.req("frames", parse_u64)?;
                        let pdr = a.req("pdr", |s| {
                            s.parse::<f64>().ok().filter(|p| (0.0..=1.0).contains(p))
                        })?;
                        a.finish()?;
                        if window == 0 {
                            return err(line, head.col, "`frames` must be positive");
                        }
                        FaultSpec::PdrWindow {
                            link,
                            from_frame,
                            frames: window,
                            pdr,
                        }
                    }
                    "partition" => {
                        let mut a = Args::new(line, "partition", rest)?;
                        let subtree = a.req("subtree", |s| s.parse().ok())?;
                        let at_frame = a.req("at_frame", parse_u64)?;
                        let window = a.req("frames", parse_u64)?;
                        a.finish()?;
                        if window == 0 {
                            return err(line, head.col, "`frames` must be positive");
                        }
                        FaultSpec::Partition {
                            subtree,
                            at_frame,
                            frames: window,
                        }
                    }
                    "burst" => {
                        let mut a = Args::new(line, "burst", rest)?;
                        let node = a.req("node", |s| s.parse().ok())?;
                        let at_frame = a.req("at_frame", parse_u64)?;
                        let packets = a.req("packets", |s| s.parse().ok())?;
                        a.finish()?;
                        if packets == 0 {
                            return err(line, head.col, "`packets` must be positive");
                        }
                        FaultSpec::Burst {
                            node,
                            at_frame,
                            packets,
                        }
                    }
                    "reparent" => {
                        let mut a = Args::new(line, "reparent", rest)?;
                        let node = a.req("node", |s| s.parse().ok())?;
                        let to = a.req("to", |s| s.parse().ok())?;
                        let at_frame = a.req("at_frame", parse_u64)?;
                        a.finish()?;
                        FaultSpec::Reparent { node, to, at_frame }
                    }
                    other => return err(line, head.col, format!("unknown fault kind `{other}`")),
                };
                faults.push(spec);
            }
            Some("report") => match head.text {
                "file" => {
                    let Some(f) = rest.first() else {
                        return err(line, head.col, "`file` needs a file name");
                    };
                    // The runner joins the name onto the workspace root: an
                    // absolute path would replace the root, `..` climb out.
                    let stays_inside = std::path::Path::new(f.text).components().all(|c| {
                        matches!(
                            c,
                            std::path::Component::Normal(_) | std::path::Component::CurDir
                        )
                    });
                    if !stays_inside {
                        return err(
                            line,
                            f.col,
                            format!("`file {}` must be a relative path without `..`", f.text),
                        );
                    }
                    report.file = Some(f.text.to_owned());
                }
                "mode" => {
                    let Some(kind) = rest.first() else {
                        return err(line, head.col, "`mode` needs a kind");
                    };
                    mode_line = line;
                    report.mode = match kind.text {
                        "timeline" => {
                            let mut a = Args::new(line, "mode timeline", &rest[1..])?;
                            let node = a.req("node", |s| s.parse().ok())?;
                            a.finish()?;
                            ReportMode::Timeline { node }
                        }
                        "pdr_sweep" => {
                            Args::new(line, "mode pdr_sweep", &rest[1..])?.finish()?;
                            ReportMode::PdrSweep
                        }
                        "adjustments" => {
                            Args::new(line, "mode adjustments", &rest[1..])?.finish()?;
                            ReportMode::Adjustments
                        }
                        "replicates" => {
                            let mut a = Args::new(line, "mode replicates", &rest[1..])?;
                            let repeats = a.opt("repeats", |s| s.parse().ok())?.unwrap_or(1u32);
                            a.finish()?;
                            if repeats == 0 {
                                return err(line, head.col, "`repeats` must be positive");
                            }
                            ReportMode::Replicates { repeats }
                        }
                        "churn" => {
                            Args::new(line, "mode churn", &rest[1..])?.finish()?;
                            ReportMode::Churn
                        }
                        other => {
                            return err(line, kind.col, format!("unknown report mode `{other}`"))
                        }
                    };
                }
                other => {
                    return err(
                        line,
                        head.col,
                        format!("unknown report directive `{other}`"),
                    )
                }
            },
            Some(_) => unreachable!("sections are validated on entry"),
        }
    }

    let Some(name) = name else {
        return err(1, 1, "missing `scenario <name>` preamble line");
    };
    let topology = match generator {
        Some(g) => g,
        None if !explicit_links.is_empty() => TopologySpec::Explicit(explicit_links),
        None => TopologySpec::Testbed50,
    };
    // Cross-directive checks, reported at the `mode` line.
    let mode_err = |msg: &str| ScenarioError {
        line: mode_line.max(1),
        col: 1,
        msg: msg.to_owned(),
    };
    match report.mode {
        ReportMode::Adjustments | ReportMode::PdrSweep => {
            if workload.demand_steps.is_empty() {
                return Err(mode_err(
                    "this report mode needs at least one `demand_step`",
                ));
            }
        }
        ReportMode::Churn => {
            if faults.is_empty() {
                return Err(mode_err("`mode churn` needs at least one fault event"));
            }
        }
        ReportMode::Timeline { .. } | ReportMode::Replicates { .. } => {}
    }

    Ok(Scenario {
        name,
        seed,
        frames,
        topology,
        scheduler,
        workload,
        faults,
        report,
    })
}
