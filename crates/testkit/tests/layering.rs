//! The crate graph's layering, read from every `crates/*/Cargo.toml` with
//! a line parser: no crate depends on `testkit`, and no crate has a
//! dev-dependency that itself depends on that crate through normal
//! dependencies (a dev-only cycle, which lets a low crate's tests reach
//! the crates above it).

use std::fs;
use std::path::Path;

/// `(crate, dependency, dev)` for every `name` or `name.workspace` key of a
/// `[dependencies]` or `[dev-dependencies]` table.
fn edges() -> Vec<(String, String, bool)> {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let mut edges = Vec::new();
    for entry in fs::read_dir(crates).expect("crates/ lists") {
        let Ok(text) = fs::read_to_string(entry.expect("an entry").path().join("Cargo.toml"))
        else {
            continue;
        };
        let (mut name, mut table) = (String::new(), "");
        for line in text.lines().map(str::trim) {
            if line.starts_with('[') {
                table = line;
            } else if let Some((key, value)) = line.split_once('=') {
                let key = key.trim().trim_end_matches(".workspace").to_string();
                match table {
                    "[package]" if key == "name" => name = value.trim().trim_matches('"').into(),
                    "[dependencies]" => edges.push((name.clone(), key, false)),
                    "[dev-dependencies]" => edges.push((name.clone(), key, true)),
                    _ => {}
                }
            }
        }
    }
    edges
}

/// Whether `from` reaches `to` through normal dependencies.
fn reaches(edges: &[(String, String, bool)], from: &str, to: &str) -> bool {
    from == to
        || edges
            .iter()
            .any(|(a, b, dev)| !dev && a == from && reaches(edges, b, to))
}

#[test]
fn nothing_depends_on_testkit_and_no_dev_dependency_closes_a_cycle() {
    let edges = edges();
    assert!(edges
        .iter()
        .any(|(a, b, _)| a == "testkit" && b == "tsch-sim"));
    let broken: Vec<String> = edges
        .iter()
        .filter(|(krate, dep, dev)| dep == "testkit" || (*dev && reaches(&edges, dep, krate)))
        .map(|(krate, dep, dev)| format!("{krate} -> {dep}{}", if *dev { " (dev)" } else { "" }))
        .collect();
    assert!(broken.is_empty(), "{broken:#?}");
}
