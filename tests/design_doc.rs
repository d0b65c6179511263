//! Keeps `DESIGN.md` true to the tree it describes.
//!
//! Four checks, standard library only:
//!
//! - its numbered sections (`## N.` headings) run from 1 without a gap;
//! - every section reference to it — in `README.md`, `EXPERIMENTS.md`,
//!   `ROADMAP.md`, the verify skill and every `.rs` file under `crates/`,
//!   `src/`, `tests/` and `examples/` — names a section that exists,
//!   ranges (`§12–13`) and lists (`§15/§17`) included. `CHANGES.md` is
//!   history and is not checked;
//! - it holds no history: no pull-request number and no "Measured"
//!   heading, since `CHANGES.md` keeps both;
//! - every name it cites in backticks exists in the source tree. A name is
//!   a code span that reads as a Rust path (`Tree::children`, `node.rs`,
//!   `take_partition()`, `HarpNetwork::{join_leaf, leave_leaf}`) and has a
//!   `_`, a `::` or an inner capital (`HarpNetwork`) in it; its last
//!   segment must be a word of some file under `crates/ src/ tests/
//!   examples/ benchmark/ scenarios/ .github/`, or a file's name. A
//!   referee cited as `file.rs::fn_name` must be a word of that very file.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::{Path, PathBuf};

/// Directories whose files the cited names are looked up in.
const SOURCE_DIRS: [&str; 7] = [
    "crates",
    "src",
    "tests",
    "examples",
    "benchmark",
    "scenarios",
    ".github",
];

/// Directories whose `.rs` files may refer to a section.
const CODE_DIRS: [&str; 4] = ["crates", "src", "tests", "examples"];

/// Documents that may refer to a section.
const DOCS: [&str; 4] = [
    "README.md",
    "EXPERIMENTS.md",
    "ROADMAP.md",
    ".claude/skills/verify/SKILL.md",
];

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn read(path: &Path) -> String {
    String::from_utf8_lossy(&fs::read(path).unwrap_or_else(|e| panic!("{}: {e}", path.display())))
        .into_owned()
}

fn design() -> String {
    read(&root().join("DESIGN.md"))
}

/// Every file under `dir`, build outputs left out.
fn files_under(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            let name = entry.file_name();
            if name != "target" && name != "traces" {
                files_under(&path, out);
            }
        } else {
            out.push(path);
        }
    }
}

fn source_files(dirs: &[&str]) -> Vec<PathBuf> {
    let mut files = Vec::new();
    for dir in dirs {
        files_under(&root().join(dir), &mut files);
    }
    files.sort();
    files
}

/// The number `s` starts with, and what follows it.
fn leading_number(s: &str) -> Option<(u32, &str)> {
    let digits = s.len() - s.trim_start_matches(|c: char| c.is_ascii_digit()).len();
    Some((s[..digits].parse().ok()?, &s[digits..]))
}

/// The numbers of the `## N.` headings, in document order.
fn section_numbers(doc: &str) -> Vec<u32> {
    doc.lines()
        .filter_map(|line| leading_number(line.strip_prefix("## ")?))
        .filter(|(_, rest)| rest.starts_with('.'))
        .map(|(n, _)| n)
        .collect()
}

/// The section numbers `text` refers to, with the line each is on: every
/// `DESIGN §N`, `DESIGN.md §N` or `` `DESIGN.md` §N `` (a comment marker or
/// a line break may sit before the `§`), followed by any `–N`, `-N`, `/§N`
/// or `, §N` it lists.
fn section_references(text: &str) -> Vec<(usize, u32)> {
    let mut refs = Vec::new();
    for (at, name) in text.match_indices("DESIGN") {
        let tail = &text[at + name.len()..];
        let tail = tail.strip_prefix(".md").unwrap_or(tail);
        let tail = tail.strip_prefix('`').unwrap_or(tail);
        let tail = tail.trim_start_matches([' ', '\t', '\r', '\n', '/', '!']);
        let line = text[..at].matches('\n').count() + 1;
        let mut list = tail.strip_prefix('§');
        while let Some((section, rest)) = list.and_then(leading_number) {
            refs.push((line, section));
            list = rest
                .strip_prefix(['–', '-', '/', ','])
                .map(|l| l.trim_start_matches(' '))
                .map(|l| l.strip_prefix('§').unwrap_or(l));
        }
    }
    refs
}

/// The contents of the document's code spans, fenced blocks left out; a
/// span may run over a line break.
fn code_spans(doc: &str) -> Vec<String> {
    let mut prose = String::new();
    let mut fenced = false;
    for line in doc.lines() {
        if line.trim_start().starts_with("```") {
            fenced = !fenced;
        } else if !fenced {
            prose.push_str(line);
            prose.push('\n');
        }
    }
    prose
        .split('`')
        .skip(1)
        .step_by(2)
        .map(|span| span.split_whitespace().collect::<Vec<_>>().join(" "))
        .collect()
}

/// `a::{b, c}` and `record_{x, y}` stand for each alternative in turn.
fn expand_braces(span: &str) -> Vec<String> {
    let (Some(open), Some(close)) = (span.find('{'), span.find('}')) else {
        return vec![span.to_owned()];
    };
    if close < open {
        return vec![span.to_owned()];
    }
    span[open + 1..close]
        .split(',')
        .flat_map(|alt| {
            expand_braces(&format!(
                "{}{}{}",
                &span[..open],
                alt.trim(),
                &span[close + 1..]
            ))
        })
        .collect()
}

fn is_ident(segment: &str) -> bool {
    segment.starts_with(|c: char| c.is_ascii_alphabetic() || c == '_')
        && segment
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// The path segments of a cited name, or `None` when the span is not one.
/// A leading `file.rs` segment is kept with its extension.
fn cited_name(span: &str) -> Option<Vec<&str>> {
    let span = span.strip_suffix("()").unwrap_or(span);
    let segments: Vec<&str> = span.split("::").collect();
    let first_ok = |s: &str| is_ident(s.strip_suffix(".rs").unwrap_or(s));
    let shaped = first_ok(segments[0]) && segments[1..].iter().all(|s| is_ident(s));
    let camel = span
        .as_bytes()
        .windows(2)
        .any(|w| w[0].is_ascii_lowercase() && w[1].is_ascii_uppercase());
    (shaped && (span.contains('_') || span.contains("::") || camel)).then_some(segments)
}

fn words(text: &str) -> impl Iterator<Item = &str> {
    text.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .filter(|w| !w.is_empty())
}

#[test]
fn sections_are_numbered_from_one_without_a_gap() {
    let numbers = section_numbers(&design());
    let expected: Vec<u32> = (1..=numbers.len() as u32).collect();
    assert!(!numbers.is_empty(), "DESIGN.md has no `## N.` heading");
    assert_eq!(numbers, expected, "DESIGN.md's `## N.` headings");
}

#[test]
fn every_section_reference_resolves() {
    let sections: BTreeSet<u32> = section_numbers(&design()).into_iter().collect();
    let mut files: Vec<PathBuf> = DOCS.iter().map(|d| root().join(d)).collect();
    files.extend(
        source_files(&CODE_DIRS)
            .into_iter()
            .filter(|p| p.extension().is_some_and(|e| e == "rs")),
    );
    let mut broken = Vec::new();
    for file in &files {
        for (line, section) in section_references(&read(file)) {
            if !sections.contains(&section) {
                let shown = file.strip_prefix(root()).unwrap_or(file).display();
                broken.push(format!("{shown}:{line}: §{section}"));
            }
        }
    }
    assert!(
        broken.is_empty(),
        "references to sections DESIGN.md does not have (it has {sections:?}):\n{}",
        broken.join("\n")
    );
}

#[test]
fn design_holds_no_history() {
    let doc = design();
    let mut found = Vec::new();
    for (n, line) in doc.lines().enumerate() {
        let bytes = line.as_bytes();
        let numbered_pr = line.match_indices("PR").any(|(at, _)| {
            let word_start = at == 0 || !bytes[at - 1].is_ascii_alphanumeric();
            let after = line[at + 2..].strip_prefix('s').unwrap_or(&line[at + 2..]);
            word_start
                && after
                    .strip_prefix(' ')
                    .is_some_and(|a| a.starts_with(|c: char| c.is_ascii_digit()))
        });
        if numbered_pr || (line.starts_with('#') && line.contains("Measured")) {
            found.push(format!("line {}: {line}", n + 1));
        }
    }
    assert!(
        found.is_empty(),
        "DESIGN.md describes the system, CHANGES.md its history; move these:\n{}",
        found.join("\n")
    );
}

#[test]
fn every_name_it_cites_exists() {
    // This file's docs name examples of cited names; its words must not
    // vouch for them, though its own tests may be cited as referees.
    let this_file = root().join(file!());
    let mut known = BTreeSet::new();
    let mut by_file: BTreeMap<String, Vec<String>> = BTreeMap::new();
    for file in &source_files(&SOURCE_DIRS) {
        let text = read(file);
        if *file != this_file {
            known.extend(words(&text).map(str::to_owned));
        }
        let rel = file.strip_prefix(root()).unwrap_or(file);
        known.extend(words(&rel.to_string_lossy()).map(str::to_owned));
        if let Some(name) = file.file_name() {
            let name = name.to_string_lossy().into_owned();
            known.insert(name.clone());
            by_file.entry(name).or_default().push(text);
        }
    }
    let mut missing = BTreeSet::new();
    for span in code_spans(&design()) {
        for candidate in expand_braces(&span) {
            let Some(segments) = cited_name(&candidate) else {
                continue;
            };
            let found = match segments.as_slice() {
                [file, .., name] if file.ends_with(".rs") => by_file
                    .get(*file)
                    .is_some_and(|texts| texts.iter().any(|t| words(t).any(|w| w == *name))),
                [file] if file.ends_with(".rs") => by_file.contains_key(*file),
                [.., name] => known.contains(*name),
                [] => true,
            };
            if !found {
                missing.insert(candidate);
            }
        }
    }
    assert!(
        missing.is_empty(),
        "DESIGN.md cites names the tree does not have:\n{}",
        missing.into_iter().collect::<Vec<_>>().join("\n")
    );
}

#[test]
fn references_parse_ranges_and_lists() {
    let design = concat!("DESI", "GN");
    let text = format!(
        "see {design}.md §12–13, `{design}.md` §15/§17 and\n//! {design} §3, D8; not {design}.md's §4 nor RFC 9112 §6.3"
    );
    let numbers: Vec<u32> = section_references(&text)
        .into_iter()
        .map(|(_, n)| n)
        .collect();
    assert_eq!(numbers, [12, 13, 15, 17, 3]);
}
