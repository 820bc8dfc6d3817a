//! The experiment registry: well-formed names, in step with EXPERIMENTS.md,
//! and runnable through the same `Run` path as the `experiments` binary.

use bench::{registry, Run, Scale, REGISTRY};
use mpisim::telemetry::Json;
use std::collections::HashSet;

const EXPERIMENTS_MD: &str = include_str!("../../../EXPERIMENTS.md");

/// The `name` of every "## … (`name`)" heading in EXPERIMENTS.md.
fn documented_names() -> Vec<&'static str> {
    EXPERIMENTS_MD
        .lines()
        .filter(|l| l.starts_with("## "))
        .filter_map(|l| l.strip_suffix("`)")?.rsplit_once("(`"))
        .map(|(_, name)| name)
        .collect()
}

#[test]
fn names_are_unique_and_kebab_case() {
    let mut seen = HashSet::new();
    for e in REGISTRY {
        assert!(seen.insert(e.name), "duplicate registry name {}", e.name);
        let kebab = e.name.split('-').all(|w| {
            !w.is_empty()
                && w.chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit())
        });
        assert!(kebab, "{} is not lowercase kebab-case", e.name);
        assert!(registry::find(e.name).is_some());
    }
    assert!(registry::find("fig99").is_none());
}

#[test]
fn registry_and_experiments_md_name_the_same_experiments() {
    let documented = documented_names();
    for e in REGISTRY {
        assert!(
            documented.contains(&e.name),
            "EXPERIMENTS.md has no heading ending in (`{}`)",
            e.name
        );
    }
    for name in documented {
        assert!(
            registry::find(name).is_some(),
            "EXPERIMENTS.md heading (`{name}`) names no registry entry"
        );
    }
}

/// The sub-second entries, end to end: header, body, verdict, document.
#[test]
fn fast_experiments_reproduce_and_emit_a_parsable_document() {
    let out = std::env::temp_dir().join(format!("bench-registry-test-{}", std::process::id()));
    let mut run = Run::new(Scale::Small, Some(out.clone()));
    for name in ["table2", "fig6b", "trace-comm-matrix"] {
        let exp = registry::find(name).expect("registered");
        assert!(
            run.execute(exp).expect("metrics written"),
            "{name} DIVERGED"
        );
        let path = out.join(format!("BENCH_{name}.json"));
        let text = std::fs::read_to_string(&path).expect("document exists");
        let doc = Json::parse(&text).expect("document parses");
        assert_eq!(doc.get("experiment").and_then(Json::as_str), Some(name));
        let rev = doc.get("meta").and_then(|m| m.get("git_rev"));
        assert!(rev.and_then(Json::as_str).is_some_and(|r| !r.is_empty()));
        let series = doc.get("series").and_then(Json::as_arr).expect("series");
        assert!(!series.is_empty(), "{name} recorded no series");
        for s in series {
            let points = s.get("points").and_then(Json::as_arr).expect("points");
            assert!(!points.is_empty(), "{name} has an empty series");
        }
    }
    std::fs::remove_dir_all(&out).expect("clean up the test's output directory");
}
