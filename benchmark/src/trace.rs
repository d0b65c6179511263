//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own files, around calls into
//! the repository's public functions; nothing inside the repository is
//! instrumented. A span is {name, start, end, parent, op}: spans of one op
//! share its op number, and a stage span names the op span that caused it
//! as its parent. Spans stay in memory until the run ends and are then
//! written as one JSON file (see `README.md`, "Reading a trace file").

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Index of a span in its recorder.
pub type SpanId = u32;

/// "No parent" / "no op".
pub const NONE: u32 = u32::MAX;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Stage name, `<crate>.<module>.<function>` where it wraps one call.
    pub name: &'static str,
    /// Start, ns since the recorder was created.
    pub start_ns: u64,
    /// End, ns since the recorder was created.
    pub end_ns: u64,
    /// The span that caused this one, or [`NONE`].
    pub parent: SpanId,
    /// The workload op this span belongs to, or [`NONE`] (set-up).
    pub op: u32,
}

impl Span {
    /// `end − start`.
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Collects spans; a disabled recorder drops them, so untraced and traced
/// passes run the same code.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Recorder {
    /// A recorder that keeps what it is given.
    #[must_use]
    pub fn enabled() -> Self {
        Self {
            epoch: Instant::now(),
            enabled: true,
            spans: Vec::new(),
        }
    }

    /// A recorder that keeps nothing.
    #[must_use]
    pub fn disabled() -> Self {
        Self {
            enabled: false,
            ..Self::enabled()
        }
    }

    /// `t` on the recorder's timebase.
    #[must_use]
    pub fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records one span and returns its id ([`NONE`] when disabled).
    pub fn span(
        &mut self,
        name: &'static str,
        op: u32,
        parent: SpanId,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        if !self.enabled {
            return NONE;
        }
        let id = self.spans.len() as SpanId;
        self.spans.push(Span {
            name,
            start_ns: self.at(start),
            end_ns: self.at(end),
            parent,
            op,
        });
        id
    }

    /// Runs `f`, records it as a span, and returns its result together
    /// with the elapsed nanoseconds (measured whether or not recording is
    /// on, so metrics do not depend on the recorder).
    pub fn time<T>(
        &mut self,
        name: &'static str,
        op: u32,
        parent: SpanId,
        f: impl FnOnce() -> T,
    ) -> (T, u64) {
        let start = Instant::now();
        let value = f();
        let end = Instant::now();
        self.span(name, op, parent, start, end);
        (value, end.duration_since(start).as_nanos() as u64)
    }

    /// Extends a span's end (used to close an op span after its stages).
    pub fn close(&mut self, id: SpanId, end: Instant) {
        if id != NONE {
            let end_ns = self.at(end);
            self.spans[id as usize].end_ns = end_ns;
        }
    }

    /// Everything recorded so far.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// A span's self time: its duration minus the part of it that its direct
/// children cover. Children are clipped to the parent and merged where
/// they overlap, so a covered instant is subtracted once.
#[must_use]
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != NONE {
            let p = &spans[s.parent as usize];
            let (start, end) = (s.start_ns.max(p.start_ns), s.end_ns.min(p.end_ns));
            if start < end {
                children[s.parent as usize].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start_ns);
            for &(start, end) in kids.iter() {
                let from = start.max(reach);
                if end > from {
                    covered += end - from;
                    reach = end;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Per-name totals: (count, total ns, self ns), ordered by name.
#[must_use]
pub fn by_name(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for (s, own) in spans.iter().zip(selfs) {
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.duration_ns();
        e.2 += own;
    }
    out
}

/// The trace file: one JSON object, spans in recording order.
#[must_use]
pub fn to_json(workload: &str, seed: u64, spans: &[Span]) -> String {
    let mut out = String::with_capacity(64 + spans.len() * 96);
    let _ = write!(
        out,
        "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"unit\": \"ns\", \"spans\": ["
    );
    for (id, s) in spans.iter().enumerate() {
        if id > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n{{\"id\": {id}, \"name\": \"{}\", \"start\": {}, \"end\": {}, \"parent\": ",
            s.name, s.start_ns, s.end_ns
        );
        let _ = match s.parent {
            NONE => write!(out, "null"),
            p => write!(out, "{p}"),
        };
        let _ = match s.op {
            NONE => write!(out, ", \"op\": null}}"),
            op => write!(out, ", \"op\": {op}}}"),
        };
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: SpanId) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        // op [0,100): create [10,70) with converge [20,60) inside it, then
        // encode [70,90). Two overlapping children under `converge`.
        let spans = vec![
            span("op", 0, 100, NONE),
            span("create", 10, 70, 0),
            span("converge", 20, 60, 1),
            span("encode", 70, 90, 0),
            span("intf", 25, 40, 2),
            span("part", 35, 50, 2),
        ];
        let own = self_times(&spans);
        assert_eq!(own[0], 100 - 60 - 20); // op: minus create and encode
        assert_eq!(own[1], 60 - 40); // create: minus converge
        assert_eq!(own[2], 40 - 25); // converge: children cover [25,50) once
        assert_eq!(own[3], 20);
        assert_eq!(own[4], 15);
        assert_eq!(own[5], 15);
        let names = by_name(&spans);
        assert_eq!(names["converge"], (1, 40, 15));
    }

    #[test]
    fn children_are_clipped_to_their_parent() {
        let spans = vec![span("op", 10, 20, NONE), span("late", 15, 40, 0)];
        assert_eq!(self_times(&spans), vec![5, 25]);
    }

    #[test]
    fn disabled_recorder_keeps_nothing_but_still_times() {
        let mut rec = Recorder::disabled();
        let (v, ns) = rec.time("x", 0, NONE, || (0..1000u64).sum::<u64>());
        assert_eq!(v, 499_500);
        assert!(ns < 1_000_000_000);
        assert!(rec.spans().is_empty());
        let mut rec = Recorder::enabled();
        rec.time("y", 3, NONE, || ());
        assert_eq!(rec.spans().len(), 1);
        assert_eq!(rec.spans()[0].op, 3);
    }

    #[test]
    fn json_has_one_object_per_span() {
        let spans = vec![span("a.b", 1, 2, NONE), span("c", 1, 2, 0)];
        let json = to_json("w", 9, &spans);
        assert!(json.starts_with("{\"workload\": \"w\", \"seed\": 9"));
        assert!(json.contains(
            "{\"id\": 0, \"name\": \"a.b\", \"start\": 1, \"end\": 2, \"parent\": null, \"op\": 0}"
        ));
        assert!(json.contains(
            "{\"id\": 1, \"name\": \"c\", \"start\": 1, \"end\": 2, \"parent\": 0, \"op\": 0}"
        ));
        assert!(harp_obs::json::parse(&json).is_ok());
    }
}
