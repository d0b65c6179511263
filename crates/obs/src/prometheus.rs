//! Prometheus text-format encoding of [`MetricsSnapshot`]s.
//!
//! The `harpd` daemon serves its `/metrics` endpoint from its own
//! registry and its tenants' snapshots; this module renders one or more
//! snapshots —
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
//! when many label groups carry it.
//!
//! [`validate_exposition`] is the consumer-side check used by the HTTP
//! loopback tests and the `harpd_smoke` CI client: it rejects
//! malformed sample lines, label syntax, duplicate series and samples of
//! undeclared histogram types.

use crate::metrics::{HistogramSnapshot, MetricsSnapshot};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One label set attached to every series of a snapshot: `(key, value)`
/// pairs, rendered in the given order.
pub type Labels = Vec<(String, String)>;

/// Sanitises a registry metric name into the Prometheus charset: every
/// character outside `[a-zA-Z0-9_:]` becomes `_`, and a leading digit is
/// prefixed with `_`.
#[must_use]
pub(crate) fn sanitize_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for (i, c) in name.chars().enumerate() {
        let ok = c.is_ascii_alphanumeric() || c == '_' || c == ':';
        if i == 0 && c.is_ascii_digit() {
            out.push('_');
        }
        out.push(if ok { c } else { '_' });
    }
    out
}

/// Escapes a label value (`\` → `\\`, `"` → `\"`, newline → `\n`).
#[must_use]
pub(crate) fn escape_label_value(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

fn render_labels(labels: &[(String, String)], extra: Option<(&str, String)>) -> String {
    let mut parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{}=\"{}\"", sanitize_name(k), escape_label_value(v)))
        .collect();
    if let Some((k, v)) = extra {
        parts.push(format!("{k}=\"{}\"", escape_label_value(&v)));
    }
    if parts.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", parts.join(","))
    }
}

fn fmt_value(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

#[derive(Default)]
struct Family<'a> {
    /// The first registry name that sanitised to this family (shown as the
    /// HELP text so a scrape maps back to the in-tree metric).
    source: Option<&'a str>,
    counters: Vec<(&'a Labels, u64)>,
    gauges: Vec<(&'a Labels, f64)>,
    histograms: Vec<(&'a Labels, &'a HistogramSnapshot)>,
}

impl<'a> Family<'a> {
    fn of<'m>(families: &'m mut BTreeMap<String, Family<'a>>, name: &'a str) -> &'m mut Family<'a> {
        let family = families.entry(sanitize_name(name)).or_default();
        family.source.get_or_insert(name);
        family
    }
}

/// Renders snapshots as one Prometheus text document.
///
/// `groups` pairs a label set with the snapshot it applies to; the daemon
/// passes its own registry with no labels plus one group per tenant with
/// `tenant="<id>"`. Series are ordered by sanitised metric name and, within
/// a name, by group order, so the output is stable for a given input.
#[must_use]
pub fn render_exposition(groups: &[(Labels, MetricsSnapshot)]) -> String {
    // Fold every group into per-name families so each TYPE header is
    // emitted exactly once even when many tenants share a metric name.
    let mut families: BTreeMap<String, Family<'_>> = BTreeMap::new();
    for (labels, snap) in groups {
        for (name, &v) in &snap.counters {
            Family::of(&mut families, name).counters.push((labels, v));
        }
        for (name, &v) in &snap.gauges {
            Family::of(&mut families, name).gauges.push((labels, v));
        }
        for (name, h) in &snap.histograms {
            Family::of(&mut families, name).histograms.push((labels, h));
        }
    }

    let mut out = String::new();
    for (name, family) in &families {
        let source = family.source.unwrap_or("");
        let _ = writeln!(out, "# HELP {name} registry metric {source}");
        if !family.counters.is_empty() {
            let _ = writeln!(out, "# TYPE {name} counter");
            for (labels, v) in &family.counters {
                let _ = writeln!(out, "{name}{} {v}", render_labels(labels, None));
            }
        }
        if !family.gauges.is_empty() {
            let _ = writeln!(out, "# TYPE {name} gauge");
            for (labels, v) in &family.gauges {
                let _ = writeln!(
                    out,
                    "{name}{} {}",
                    render_labels(labels, None),
                    fmt_value(*v)
                );
            }
        }
        if !family.histograms.is_empty() {
            let _ = writeln!(out, "# TYPE {name} histogram");
            for (labels, h) in &family.histograms {
                let mut cumulative = 0u64;
                for (i, &n) in h.counts.iter().enumerate() {
                    cumulative += n;
                    let le = match h.bounds.get(i) {
                        Some(&b) => format!("{b}"),
                        None => "+Inf".to_owned(),
                    };
                    let _ = writeln!(
                        out,
                        "{name}_bucket{} {cumulative}",
                        render_labels(labels, Some(("le", le)))
                    );
                }
                let _ = writeln!(out, "{name}_sum{} {}", render_labels(labels, None), h.sum);
                let _ = writeln!(
                    out,
                    "{name}_count{} {}",
                    render_labels(labels, None),
                    h.count
                );
            }
            // Derived percentile gauges, one family per quantile.
            for (suffix, q) in [("p50", 0.50), ("p95", 0.95), ("p99", 0.99)] {
                let _ = writeln!(out, "# HELP {name}_{suffix} {suffix} of {source}");
                let _ = writeln!(out, "# TYPE {name}_{suffix} gauge");
                for (labels, h) in &family.histograms {
                    let _ = writeln!(
                        out,
                        "{name}_{suffix}{} {}",
                        render_labels(labels, None),
                        h.percentile(q)
                    );
                }
            }
        }
    }
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
    use crate::metrics::MetricsRegistry;

    fn sample_snapshot() -> MetricsSnapshot {
        let mut r = MetricsRegistry::new();
        let c = r.counter("harp.adjustments");
        let h = r.histogram("harpd.request_us", &[10, 100]);
        r.inc(c, 7);
        r.observe(h, 5);
        r.observe(h, 50);
        r.observe(h, 5000);
        let mut snap = r.snapshot();
        snap.gauges.insert("harpd.networks".to_owned(), 3.0);
        snap
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
        assert_eq!(sanitize_name("harp.mgmt-messages"), "harp_mgmt_messages");
        assert_eq!(sanitize_name("9lives"), "_9lives");
        assert_eq!(sanitize_name("ok_name:x"), "ok_name:x");
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
