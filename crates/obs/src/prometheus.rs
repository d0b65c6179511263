//! Prometheus text-format encoding of [`MetricsSnapshot`]s.
//!
//! The `harpd` daemon serves its `/metrics` endpoint from its own
//! snapshot and its tenants'; this module renders one or more snapshots —
//! each tagged with a label set such as `tenant="plant7"` — in the
//! [Prometheus text exposition format] (version 0.0.4), the same
//! hand-rolled-writer philosophy as the JSON modules.
//!
//! Mapping:
//!
//! * counters → `# TYPE <name> counter` samples;
//! * gauges → `# TYPE <name> gauge` samples;
//! * histograms → `# TYPE <name> histogram` with cumulative
//!   `<name>_bucket{le="..."}` samples, `<name>_sum` and `<name>_count`,
//!   plus derived `<name>_p50` / `<name>_p95` / `<name>_p99` gauges so the
//!   percentiles the repo's reports quote are scrapeable without PromQL
//!   `histogram_quantile`.
//!
//! Metric names are sanitised to the Prometheus charset (`[a-zA-Z0-9_:]`,
//! non-digit first char): the snapshot's `harp.adjustments` becomes
//! `harp_adjustments`. A `TYPE` line is emitted once per metric name even
//! when many label groups carry it. A caller that renders again and again
//! (the daemon's scrape) keeps the [`Exposition`] that folds the groups
//! into families, so a render of the names it has seen allocates nothing.
//!
//! [`validate_exposition`] is the consumer-side check used by the HTTP
//! loopback tests and the `harpd_smoke` CI client: it rejects
//! malformed sample lines, label syntax, duplicate series and samples of
//! undeclared histogram types.

use crate::metrics::MetricsSnapshot;
use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

/// One label set attached to every series of a snapshot: `(key, value)`
/// pairs, rendered in the given order.
pub type Labels = Vec<(String, String)>;

/// One group of series as [`Exposition::write`] reads it: a label set and
/// the snapshot it applies to, both borrowed for the render.
pub type Group<'g> = (&'g [(String, String)], &'g MetricsSnapshot);

/// Writes an in-tree metric name in the Prometheus charset: every
/// character outside `[a-zA-Z0-9_:]` becomes `_`, and a leading digit is
/// prefixed with `_`.
fn write_name(out: &mut String, name: &str) {
    if name.starts_with(|c: char| c.is_ascii_digit()) {
        out.push('_');
    }
    out.extend(name.chars().map(|c| {
        if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
            c
        } else {
            '_'
        }
    }));
}

/// Writes a label value escaped (`\` → `\\`, `"` → `\"`, newline → `\n`).
fn write_label_value(out: &mut String, value: &str) {
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
}

/// Writes one sample line: `series{labels[,le="…"]} value`, with no braces
/// for an empty label set.
fn write_sample(
    out: &mut String,
    series: fmt::Arguments<'_>,
    labels: &[(String, String)],
    le: Option<&dyn fmt::Display>,
    value: impl fmt::Display,
) {
    let _ = out.write_fmt(series);
    if !labels.is_empty() || le.is_some() {
        out.push('{');
        for (i, (k, v)) in labels.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_name(out, k);
            out.push_str("=\"");
            write_label_value(out, v);
            out.push('"');
        }
        if let Some(le) = le {
            if !labels.is_empty() {
                out.push(',');
            }
            let _ = write!(out, "le=\"{le}\"");
        }
        out.push('}');
    }
    let _ = writeln!(out, " {value}");
}

/// One metric family of the render under way. A series names its group
/// by index into the render's groups, so the family borrows nothing and
/// outlives the render with its vectors' capacity.
#[derive(Default)]
struct Family {
    /// The first in-tree name that sanitised to this family in this render
    /// (shown as the HELP text so a scrape maps back to the in-tree metric).
    source: String,
    /// `(group, value)`.
    counters: Vec<(usize, u64)>,
    /// `(group, value)`.
    gauges: Vec<(usize, f64)>,
    /// `(group, index into names)`: a histogram is read in place, under
    /// its in-tree name.
    histograms: Vec<(usize, usize)>,
    /// The in-tree names of the histograms that sanitised to this family.
    names: Vec<String>,
}

impl Family {
    fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }
}

/// The family index of a Prometheus document, kept between renders.
///
/// [`Exposition::write`] folds every group's series into per-name families,
/// so each `# TYPE` header is emitted once even when many tenants share a
/// metric name. The index outlives the render: a family's series lists are
/// cleared, not freed, and a name is inserted the first time it is seen.
/// So a render of the same names as the last allocates nothing. A family
/// that no group feeds in a render prints nothing.
#[derive(Default)]
pub struct Exposition {
    /// Families by sanitised name: the document's order.
    families: BTreeMap<String, Family>,
    /// Scratch for a name's sanitised form.
    key: String,
}

impl Exposition {
    /// Appends snapshots to `out` as one Prometheus text document.
    ///
    /// `groups` pairs a label set with the snapshot it applies to; the
    /// daemon passes its own snapshot with no labels plus one group per
    /// tenant with `tenant="<id>"`. Series are ordered by sanitised metric
    /// name and, within a name, by group order, so the output is stable for
    /// a given input, whatever the index held before. Labels and values are
    /// written straight into `out`: no sample line allocates.
    pub fn write(&mut self, out: &mut String, groups: &[Group<'_>]) {
        for family in self.families.values_mut() {
            family.counters.clear();
            family.gauges.clear();
            family.histograms.clear();
        }
        for (g, &(_, snap)) in groups.iter().enumerate() {
            for (name, &v) in &snap.counters {
                self.family(name).counters.push((g, v));
            }
            for (name, &v) in &snap.gauges {
                self.family(name).gauges.push((g, v));
            }
            for name in snap.histograms.keys() {
                let family = self.family(name);
                let at = match family.names.iter().position(|n| n == name) {
                    Some(at) => at,
                    None => {
                        family.names.push(name.clone());
                        family.names.len() - 1
                    }
                };
                family.histograms.push((g, at));
            }
        }

        for (name, family) in &self.families {
            if family.is_empty() {
                continue;
            }
            let _ = writeln!(out, "# HELP {name} registry metric {}", family.source);
            if !family.counters.is_empty() {
                let _ = writeln!(out, "# TYPE {name} counter");
                for &(g, v) in &family.counters {
                    write_sample(out, format_args!("{name}"), groups[g].0, None, v);
                }
            }
            if !family.gauges.is_empty() {
                let _ = writeln!(out, "# TYPE {name} gauge");
                for &(g, v) in &family.gauges {
                    let v = if v.is_finite() { v } else { 0.0 };
                    write_sample(out, format_args!("{name}"), groups[g].0, None, v);
                }
            }
            if family.histograms.is_empty() {
                continue;
            }
            let histogram = |g: usize, at: usize| {
                let (labels, snap) = groups[g];
                let h = &snap.histograms[&family.names[at]];
                (labels, h)
            };
            let _ = writeln!(out, "# TYPE {name} histogram");
            for &(g, at) in &family.histograms {
                let (labels, h) = histogram(g, at);
                let mut cumulative = 0u64;
                for (i, &n) in h.counts.iter().enumerate() {
                    cumulative += n;
                    let le: &dyn fmt::Display = match h.bounds.get(i) {
                        Some(bound) => bound,
                        None => &"+Inf",
                    };
                    let series = format_args!("{name}_bucket");
                    write_sample(out, series, labels, Some(le), cumulative);
                }
                write_sample(out, format_args!("{name}_sum"), labels, None, h.sum);
                write_sample(out, format_args!("{name}_count"), labels, None, h.count);
            }
            // Derived percentile gauges, one family per quantile.
            for (suffix, q) in [("p50", 0.50), ("p95", 0.95), ("p99", 0.99)] {
                let _ = writeln!(out, "# HELP {name}_{suffix} {suffix} of {}", family.source);
                let _ = writeln!(out, "# TYPE {name}_{suffix} gauge");
                for &(g, at) in &family.histograms {
                    let (labels, h) = histogram(g, at);
                    let series = format_args!("{name}_{suffix}");
                    write_sample(out, series, labels, None, h.percentile(q));
                }
            }
        }
    }

    /// The family `name` sanitises to, inserted the first time: only a
    /// family's first name allocates its key. The first name to reach a
    /// family in a render becomes its HELP text.
    fn family(&mut self, name: &str) -> &mut Family {
        self.key.clear();
        write_name(&mut self.key, name);
        if !self.families.contains_key(self.key.as_str()) {
            self.families.insert(self.key.clone(), Family::default());
        }
        let family = self
            .families
            .get_mut(self.key.as_str())
            .expect("inserted above");
        if family.is_empty() {
            family.source.clear();
            family.source.push_str(name);
        }
        family
    }
}

/// Appends snapshots to `out` as one Prometheus text document, through a
/// fresh [`Exposition`]: a caller that renders again keeps one instead.
pub fn write_exposition(out: &mut String, groups: &[Group<'_>]) {
    Exposition::default().write(out, groups);
}

/// Renders snapshots as one Prometheus text document: [`write_exposition`]
/// into a fresh string.
#[must_use]
pub fn render_exposition(groups: &[(Labels, MetricsSnapshot)]) -> String {
    let mut out = String::new();
    write_exposition(
        &mut out,
        &groups.iter().map(|(l, s)| (&l[..], s)).collect::<Vec<_>>(),
    );
    out
}

/// Checks a Prometheus text document for structural validity: every
/// non-comment line must be `name[{labels}] value`, names must fit the
/// Prometheus charset, label values must be well-quoted, histogram
/// `_bucket`/`_sum`/`_count` samples must follow a `histogram` TYPE
/// declaration, and no series (name + label set) may repeat.
///
/// # Errors
///
/// A message naming the first offending line (1-based).
pub fn validate_exposition(text: &str) -> Result<(), String> {
    let mut types: BTreeMap<String, String> = BTreeMap::new();
    let mut helps: std::collections::BTreeSet<String> = std::collections::BTreeSet::new();
    let mut seen: std::collections::BTreeSet<String> = std::collections::BTreeSet::new();
    // Families whose sample block has started, and the family the previous
    // sample belonged to — used to reject declarations arriving after their
    // samples and families split across the document.
    let mut sampled: std::collections::BTreeSet<String> = std::collections::BTreeSet::new();
    let mut current_family: Option<String> = None;
    for (i, line) in text.lines().enumerate() {
        let lineno = i + 1;
        let err = |msg: &str| Err(format!("line {lineno}: {msg}: {line}"));
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# ") {
            // Only HELP/TYPE comments carry structure.
            if let Some(decl) = rest.strip_prefix("TYPE ") {
                let mut parts = decl.split_whitespace();
                let (Some(name), Some(kind), None) = (parts.next(), parts.next(), parts.next())
                else {
                    return err("malformed TYPE line");
                };
                if !["counter", "gauge", "histogram", "summary", "untyped"].contains(&kind) {
                    return err("unknown metric type");
                }
                if sampled.contains(name) {
                    return err("TYPE declared after samples of its family");
                }
                if types.insert(name.to_owned(), kind.to_owned()).is_some() {
                    return err("duplicate TYPE declaration");
                }
            } else if let Some(decl) = rest.strip_prefix("HELP ") {
                let Some(name) = decl.split_whitespace().next() else {
                    return err("malformed HELP line");
                };
                if sampled.contains(name) {
                    return err("HELP declared after samples of its family");
                }
                if !helps.insert(name.to_owned()) {
                    return err("duplicate HELP declaration");
                }
            }
            continue;
        }
        if line.starts_with('#') {
            continue; // free-form comment
        }
        let (series, value) = match line.rfind(' ') {
            Some(pos) => (&line[..pos], &line[pos + 1..]),
            None => return err("sample line without value"),
        };
        if value != "+Inf" && value != "-Inf" && value != "NaN" && value.parse::<f64>().is_err() {
            return err("unparseable sample value");
        }
        let name = match series.find('{') {
            Some(brace) => {
                if !series.ends_with('}') {
                    return err("unterminated label set");
                }
                validate_labels(&series[brace + 1..series.len() - 1])
                    .map_err(|m| format!("line {lineno}: {m}: {line}"))?;
                &series[..brace]
            }
            None => series,
        };
        if name.is_empty() || !name.chars().enumerate().all(|(j, c)| is_name_char(c, j)) {
            return err("invalid metric name");
        }
        // A histogram sample must belong to a declared histogram family;
        // the `_bucket`/`_sum`/`_count` samples fold into that family for
        // the contiguity check below.
        let mut family = name;
        for suffix in ["_bucket", "_sum", "_count"] {
            if let Some(base) = name.strip_suffix(suffix) {
                if types.get(base).is_some_and(|k| k == "histogram") {
                    if suffix == "_bucket" && !series.contains("le=\"") {
                        return err("histogram bucket without le label");
                    }
                    family = base;
                    break;
                }
            }
        }
        // All samples of one family must form a single contiguous block:
        // re-entering a family whose block already ended means HELP/TYPE no
        // longer precede every one of its samples.
        if current_family.as_deref() != Some(family) {
            if sampled.contains(family) {
                return err("metric family samples are not contiguous");
            }
            sampled.insert(family.to_owned());
            current_family = Some(family.to_owned());
        }
        if !seen.insert(series.to_owned()) {
            return err("duplicate series");
        }
    }
    Ok(())
}

fn is_name_char(c: char, index: usize) -> bool {
    c.is_ascii_alphabetic() || c == '_' || c == ':' || (index > 0 && c.is_ascii_digit())
}

fn validate_labels(body: &str) -> Result<(), String> {
    // Labels render as k="v" pairs joined by commas; values may contain
    // escaped quotes/backslashes, so split on quote state, not commas.
    let mut rest = body;
    loop {
        let Some(eq) = rest.find('=') else {
            return Err("label pair without '='".into());
        };
        let key = &rest[..eq];
        if key.is_empty() || !key.chars().enumerate().all(|(j, c)| is_name_char(c, j)) {
            return Err(format!("invalid label name '{key}'"));
        }
        let after = &rest[eq + 1..];
        if !after.starts_with('"') {
            return Err("label value must be quoted".into());
        }
        let mut escaped = false;
        let mut close = None;
        for (j, c) in after.char_indices().skip(1) {
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                close = Some(j);
                break;
            }
        }
        let Some(close) = close else {
            return Err("unterminated label value".into());
        };
        rest = &after[close + 1..];
        if rest.is_empty() {
            return Ok(());
        }
        rest = rest
            .strip_prefix(',')
            .ok_or_else(|| "expected ',' between labels".to_owned())?;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::HistogramSnapshot;

    fn histogram(bounds: &[u64], values: &[u64]) -> HistogramSnapshot {
        let mut h = HistogramSnapshot::with_bounds(bounds);
        for &v in values {
            h.observe(v);
        }
        h
    }

    fn sample_snapshot() -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::default();
        snap.add_counters([("harp.adjustments", 7)]);
        snap.histograms.insert(
            "harpd.request_us".to_owned(),
            histogram(&[10, 100], &[5, 50, 5000]),
        );
        snap.gauges.insert("harpd.networks".to_owned(), 3.0);
        snap
    }

    /// The input of the golden document: a daemon snapshot shaped like
    /// `harpd`'s (request counters, latency histograms, gauges read at
    /// scrape time) and two tenants, the second labelled with a value that
    /// needs every escape. Two names sanitise to one family, one gauge is
    /// not finite and one name starts with a digit.
    fn golden_groups() -> Vec<(Labels, MetricsSnapshot)> {
        const BOUNDS: &[u64] = &[1, 4, 16, 64, 256];
        let mut daemon = MetricsSnapshot::default();
        daemon.add_counters([("harpd.requests_total", 41), ("harpd.http_errors", 2)]);
        for (name, values) in [
            ("harpd.request_us", &[0, 1, 3, 9, 70, 300, 5000][..]),
            ("harpd.route.schedule_us", &[2, 2, 5]),
            ("harpd.route.metrics_us", &[]),
        ] {
            daemon
                .histograms
                .insert(name.to_owned(), histogram(BOUNDS, values));
        }
        for (name, v) in [
            ("harpd.networks", 2.0),
            ("harpd.load-factor", 0.25),
            ("harpd.load_factor", 1.5e-7),
            ("harpd.broken", f64::NAN),
            ("9lives", 9.0),
        ] {
            daemon.gauges.insert(name.to_owned(), v);
        }
        let tenant = |adjustments: u64, nodes: f64| {
            let mut snap = MetricsSnapshot::default();
            for (name, v) in [
                ("harpd.tenant.adjustments", adjustments),
                ("harpd.tenant.mgmt_messages", 3 * adjustments),
                ("harpd.tenant.cell_messages", 0),
                ("harpd.tenant.schedule_queries", 17),
            ] {
                snap.counters.insert(name.to_owned(), v);
            }
            for (name, v) in [
                ("harpd.tenant.nodes", nodes),
                ("harpd.tenant.assignments", nodes - 1.0),
                ("harpd.tenant.active_cells", 2.0 * nodes),
                ("harpd.tenant.spans_dropped", 0.0),
            ] {
                snap.gauges.insert(name.to_owned(), v);
            }
            snap
        };
        let label = |v: &str| vec![("tenant".to_owned(), v.to_owned())];
        vec![
            (Vec::new(), daemon),
            (label("plant-7"), tenant(5, 256.0)),
            (label("a\"b\\c\nd"), tenant(0, 64.0)),
        ]
    }

    #[test]
    fn renders_counters_gauges_histograms() {
        let text = render_exposition(&[(Vec::new(), sample_snapshot())]);
        assert!(text.contains("# TYPE harp_adjustments counter\nharp_adjustments 7\n"));
        assert!(text.contains("# TYPE harpd_networks gauge\nharpd_networks 3\n"));
        assert!(text.contains("harpd_request_us_bucket{le=\"10\"} 1"));
        assert!(text.contains("harpd_request_us_bucket{le=\"100\"} 2"));
        assert!(text.contains("harpd_request_us_bucket{le=\"+Inf\"} 3"));
        assert!(text.contains("harpd_request_us_sum 5055"));
        assert!(text.contains("harpd_request_us_count 3"));
        assert!(text.contains("# TYPE harpd_request_us_p99 gauge"));
        validate_exposition(&text).unwrap();
    }

    #[test]
    fn tenant_labels_share_one_type_header() {
        let groups = vec![
            (
                vec![("tenant".to_owned(), "a".to_owned())],
                sample_snapshot(),
            ),
            (
                vec![("tenant".to_owned(), "b\"x".to_owned())],
                sample_snapshot(),
            ),
        ];
        let text = render_exposition(&groups);
        assert_eq!(text.matches("# TYPE harp_adjustments counter").count(), 1);
        assert!(text.contains("harp_adjustments{tenant=\"a\"} 7"));
        assert!(text.contains("harp_adjustments{tenant=\"b\\\"x\"} 7"));
        validate_exposition(&text).unwrap();
    }

    #[test]
    fn empty_groups_render_empty() {
        let text = render_exposition(&[]);
        assert!(text.is_empty());
        validate_exposition(&text).unwrap();
    }

    #[test]
    fn sanitizes_names() {
        let sanitized = |name| {
            let mut out = String::new();
            write_name(&mut out, name);
            out
        };
        assert_eq!(sanitized("harp.mgmt-messages"), "harp_mgmt_messages");
        assert_eq!(sanitized("9lives"), "_9lives");
        assert_eq!(sanitized("ok_name:x"), "ok_name:x");
    }

    /// The document the renderer wrote before it wrote into the caller's
    /// buffer, byte for byte.
    #[test]
    fn reproduces_the_golden_document() {
        let golden = include_str!("../tests/golden/exposition.prom");
        assert_eq!(render_exposition(&golden_groups()), golden);
        // Appending leaves what the buffer held.
        let groups = golden_groups();
        let borrowed: Vec<Group<'_>> = groups.iter().map(|(l, s)| (&l[..], s)).collect();
        let mut out = String::from("kept\n");
        write_exposition(&mut out, &borrowed);
        assert_eq!(out.strip_prefix("kept\n"), Some(golden));
    }

    /// One index kept across renders: the second render of the golden
    /// groups is the golden document again, and a render that feeds fewer
    /// families equals a cold render of the same groups, HELP text
    /// included.
    #[test]
    fn a_kept_index_renders_what_a_cold_one_does() {
        let golden = include_str!("../tests/golden/exposition.prom");
        let groups = golden_groups();
        let borrowed: Vec<Group<'_>> = groups.iter().map(|(l, s)| (&l[..], s)).collect();
        let mut index = Exposition::default();
        for render in ["first", "second"] {
            let mut out = String::new();
            index.write(&mut out, &borrowed);
            assert_eq!(out, golden, "the {render} render");
        }
        // The daemon alone, with one of the two names that share a family:
        // the tenants' families print nothing, and the family's HELP names
        // the one name left.
        let mut daemon = groups[0].1.clone();
        daemon.gauges.remove("harpd.load-factor");
        let alone: [Group<'_>; 1] = [(&[], &daemon)];
        let mut out = String::new();
        index.write(&mut out, &alone);
        assert_eq!(out, render_exposition(&[(Vec::new(), daemon.clone())]));
        assert!(!out.contains("harpd_tenant"), "{out}");
        assert!(out.contains("# HELP harpd_load_factor registry metric harpd.load_factor\n"));
        let mut out = String::new();
        index.write(&mut out, &borrowed);
        assert_eq!(out, golden, "after a smaller render");
    }

    #[test]
    fn validator_rejects_malformed_documents() {
        assert!(validate_exposition("no_value_here\n").is_err());
        assert!(validate_exposition("bad name 1\n").is_err());
        assert!(validate_exposition("x{unterminated 1\n").is_err());
        assert!(validate_exposition("x{k=unquoted} 1\n").is_err());
        assert!(validate_exposition("x{k=\"open} 1\n").is_err());
        assert!(
            validate_exposition("x 1\nx 1\n").is_err(),
            "duplicate series"
        );
        assert!(validate_exposition("# TYPE h histogram\nh_bucket 1\n").is_err());
        assert!(validate_exposition("# TYPE x widget\n").is_err());
        assert!(validate_exposition("# TYPE x gauge\n# TYPE x gauge\n").is_err());
    }

    #[test]
    fn validator_rejects_declarations_after_samples() {
        let late_type = "x 1\n# TYPE x gauge\nx{t=\"a\"} 2\n";
        assert!(
            validate_exposition(late_type)
                .unwrap_err()
                .contains("TYPE declared after samples"),
            "a TYPE line must precede every sample of its family"
        );
        let late_help = "x 1\n# HELP x about x\n";
        assert!(validate_exposition(late_help)
            .unwrap_err()
            .contains("HELP declared after samples"));
        assert!(validate_exposition("# HELP x a\n# HELP x b\n")
            .unwrap_err()
            .contains("duplicate HELP"));
    }

    #[test]
    fn validator_rejects_split_families() {
        // `a`'s samples are interrupted by `b`: the second `a` block no
        // longer sits under `a`'s declarations.
        let split = "a{t=\"1\"} 1\nb 2\na{t=\"2\"} 3\n";
        assert!(
            validate_exposition(split)
                .unwrap_err()
                .contains("not contiguous"),
            "family blocks must be contiguous"
        );
        // Histogram `_bucket`/`_sum`/`_count` samples are one family and
        // may follow each other freely within the block.
        let histogram = "# TYPE h histogram\n\
                         h_bucket{le=\"1\",tenant=\"a\"} 1\n\
                         h_sum{tenant=\"a\"} 1\n\
                         h_count{tenant=\"a\"} 1\n\
                         h_bucket{le=\"1\",tenant=\"b\"} 2\n\
                         h_sum{tenant=\"b\"} 2\n\
                         h_count{tenant=\"b\"} 2\n";
        validate_exposition(histogram).unwrap();
    }

    #[test]
    fn help_lines_precede_every_family() {
        let text = render_exposition(&[(Vec::new(), sample_snapshot())]);
        assert!(
            text.contains("# HELP harp_adjustments registry metric harp.adjustments\n# TYPE harp_adjustments counter\n"),
            "{text}"
        );
        assert!(
            text.contains("# HELP harpd_request_us_p99 p99 of harpd.request_us\n"),
            "{text}"
        );
        validate_exposition(&text).unwrap();
    }

    #[test]
    fn validator_accepts_escaped_labels_and_inf() {
        let doc = "# TYPE h histogram\n\
                   h_bucket{le=\"10\",tenant=\"a\\\"b\"} 1\n\
                   h_bucket{le=\"+Inf\",tenant=\"a\\\"b\"} 2\n\
                   h_sum{tenant=\"a\\\"b\"} 12\n\
                   h_count{tenant=\"a\\\"b\"} 2\n\
                   free_form 1.5\n";
        validate_exposition(doc).unwrap();
    }
}
