//! Proves the linter fails on seeded violations (one paired fail/pass
//! fixture per semantic rule), accepts the sanctioned spellings, pins
//! exact `path:line:col [rule]` spans, round-trips the JSON report
//! schema, detects stale allowlist entries, and — the real gate — that
//! the workspace tree itself scans clean.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};
use telemetry::Json;

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(name);
    fs::read_to_string(&path).expect("fixture file is committed next to this test")
}

/// Scan a fixture under a fake scoped path and return `(line, col)` spans
/// of the diagnostics for one rule.
fn spans_of(fixture_name: &str, scoped_path: &str, rule: &str) -> Vec<(u32, u32)> {
    xlint::scan_source(scoped_path, &fixture(fixture_name))
        .into_iter()
        .filter(|d| d.rule == rule)
        .map(|d| (d.line, d.col))
        .collect()
}

fn rules_hit(fixture_name: &str, scoped_path: &str) -> BTreeSet<&'static str> {
    xlint::scan_source(scoped_path, &fixture(fixture_name))
        .into_iter()
        .map(|d| d.rule)
        .collect()
}

// ---- every rule is exercised by some fixture ------------------------------

#[test]
fn every_rule_fires_on_some_fixture() {
    let sweep = [
        ("banned_patterns.rs", "crates/mpisim/src/fixture.rs"),
        ("banned_patterns.rs", "crates/workloads/src/fixture.rs"),
        ("wallclock_alias.rs", "crates/sdssort/src/fixture.rs"),
        ("divergent_collective.rs", "crates/sdssort/src/fixture.rs"),
        ("unchecked_arith.rs", "crates/algos/src/fixture.rs"),
        ("tag_range.rs", "crates/sdssort/src/fixture.rs"),
        ("blocking_service.rs", "crates/service/src/fixture.rs"),
        ("prelude.rs", "crates/algos/src/fixture.rs"),
        ("own_buffers.rs", "crates/sdssort/src/merge.rs"),
    ];
    let mut hit = BTreeSet::new();
    for (fixture_name, path) in sweep {
        hit.extend(rules_hit(fixture_name, path));
    }
    for rule in xlint::rules::RULES {
        assert!(
            hit.contains(rule),
            "rule `{rule}` did not fire on any seeded fixture"
        );
    }
}

#[test]
fn clean_fixture_passes_every_scope() {
    for path in [
        "crates/mpisim/src/fixture.rs",
        "crates/workloads/src/fixture.rs",
    ] {
        let diags = xlint::scan_source(path, &fixture("clean.rs"));
        assert!(
            diags.is_empty(),
            "clean fixture flagged under {path}: {diags:?}"
        );
    }
}

// ---- wallclock: the alias false-negative regression anchor ----------------

#[test]
fn wallclock_rule_is_alias_proof() {
    // The pre-AST token rule matched surface names, so `use
    // std::time::Instant as Stopwatch` produced ZERO findings on this
    // fixture. The AST pass resolves through the `use` tree: the two
    // bindings and both renamed uses must all be flagged, at exact spans.
    let spans = spans_of(
        "wallclock_alias.rs",
        "crates/sdssort/src/fixture.rs",
        "wallclock",
    );
    assert_eq!(
        spans,
        vec![(9, 16), (10, 18), (13, 14), (14, 5)],
        "binding for Instant-as-Stopwatch, binding for sleep-as-nap, \
         Stopwatch::now() use, nap() use"
    );
    // Nothing else fires: the fixture is clean apart from the aliases.
    let other: Vec<_> = xlint::scan_source(
        "crates/sdssort/src/fixture.rs",
        &fixture("wallclock_alias.rs"),
    )
    .into_iter()
    .filter(|d| d.rule != "wallclock")
    .collect();
    assert!(other.is_empty(), "unexpected extra diagnostics: {other:?}");
}

// ---- rank-divergent-collective --------------------------------------------

#[test]
fn divergent_collectives_are_reported_at_exact_spans() {
    // The fixture mirrors the PR 2 deadlock test: `if rank == 0 {
    // comm.barrier(); }` is the exact shape mpisim's runtime detector
    // catches dynamically. The static rule must report each divergent
    // call site: barrier in an if, bcast in a branch arm, allreduce under
    // a rank-bounded loop, split_shared_node in a match arm, alltoall
    // nested two branches deep, and the two owned exchanges, one in each
    // arm of a rank branch.
    let spans = spans_of(
        "divergent_collective.rs",
        "crates/sdssort/src/fixture.rs",
        "rank-divergent-collective",
    );
    assert_eq!(
        spans,
        vec![
            (10, 14),
            (16, 23),
            (25, 22),
            (32, 29),
            (41, 18),
            (49, 26),
            (51, 29)
        ],
        "one finding per divergent collective call site"
    );
    // The message names the collective, so the fix is obvious from logs.
    let diags = xlint::scan_source(
        "crates/sdssort/src/fixture.rs",
        &fixture("divergent_collective.rs"),
    );
    assert!(diags
        .iter()
        .any(|d| d.rule == "rank-divergent-collective" && d.msg.contains("`barrier`")));
}

#[test]
fn converged_collectives_pass() {
    // Sanctioned SPMD shapes: rank-dependent *data* inside the call's
    // parens, the color-by-rank split idiom, p2p inside rank branches,
    // and same-name std methods disambiguated by arity.
    let diags = xlint::scan_source(
        "crates/sdssort/src/fixture.rs",
        &fixture("converged_collective.rs"),
    );
    let divergent: Vec<_> = diags
        .iter()
        .filter(|d| d.rule == "rank-divergent-collective")
        .collect();
    assert!(
        divergent.is_empty(),
        "false positives on sanctioned SPMD shapes: {divergent:?}"
    );
}

#[test]
fn divergence_rule_skips_the_comm_substrate() {
    // Backend substrate crates implement the collectives themselves —
    // `if rank == root` around protocol sends is their job.
    let diags = xlint::scan_source(
        "crates/comm/src/fixture.rs",
        &fixture("divergent_collective.rs"),
    );
    assert!(
        !diags.iter().any(|d| d.rule == "rank-divergent-collective"),
        "substrate crates must be out of divergence scope: {diags:?}"
    );
}

// ---- unchecked-partition-arith --------------------------------------------

#[test]
fn unchecked_arith_is_reported_at_exact_spans() {
    let spans = spans_of(
        "unchecked_arith.rs",
        "crates/algos/src/fixture.rs",
        "unchecked-partition-arith",
    );
    assert_eq!(
        spans,
        vec![(7, 14), (11, 26), (15, 23)],
        "b*g index scale, len-keep underflow, num*len split_at product"
    );
}

#[test]
fn checked_arith_passes() {
    // checked_*/expect chains, u128 widening, literal-scaled and
    // literal-offset index math, and min-clamped indices are all exempt.
    let diags = xlint::scan_source("crates/algos/src/fixture.rs", &fixture("checked_arith.rs"));
    let arith: Vec<_> = diags
        .iter()
        .filter(|d| d.rule == "unchecked-partition-arith")
        .collect();
    assert!(
        arith.is_empty(),
        "false positives on mitigated arithmetic: {arith:?}"
    );
}

#[test]
fn arith_scope_is_partition_files_only() {
    // The same source under a non-partition path produces nothing: the
    // rule is scoped to where slice-bound arithmetic decides rank loads.
    let diags = xlint::scan_source(
        "crates/telemetry/src/fixture.rs",
        &fixture("unchecked_arith.rs"),
    );
    assert!(
        !diags.iter().any(|d| d.rule == "unchecked-partition-arith"),
        "arith rule leaked outside its scope: {diags:?}"
    );
}

// ---- user-tag-range --------------------------------------------------------

#[test]
fn reserved_tags_are_reported_at_exact_spans() {
    let spans = spans_of(
        "tag_range.rs",
        "crates/sdssort/src/fixture.rs",
        "user-tag-range",
    );
    assert_eq!(
        spans,
        vec![
            (7, 7),
            (8, 7),
            (11, 22),
            (15, 22),
            (19, 19),
            (20, 10),
            (23, 7)
        ],
        "PROBE_TAG decl, STEAL_TAG decl, reserved literal, const-chain \
         call site, next_coll_tag, send_raw, SHIFTED_TAG decl (`+` before `<<`)"
    );
    // The reserved literal is also an unnamed tag: both rules fire there.
    let spans = spans_of(
        "tag_range.rs",
        "crates/sdssort/src/fixture.rs",
        "tag-discipline",
    );
    assert_eq!(spans, vec![(11, 22)]);
}

#[test]
fn user_space_tags_pass() {
    let diags = xlint::scan_source("crates/sdssort/src/fixture.rs", &fixture("tag_range_ok.rs"));
    assert!(
        diags.is_empty(),
        "sanctioned tag constants were flagged: {diags:?}"
    );
}

#[test]
fn raw_calls_are_sanctioned_inside_the_substrate() {
    // The same `_raw` calls inside a backend that implements RawComm are
    // that backend's job.
    let diags = xlint::scan_source("crates/sockcomm/src/fixture.rs", &fixture("tag_range.rs"));
    assert!(
        !diags.iter().any(|d| d.rule == "user-tag-range"),
        "user-tag-range leaked into the substrate: {diags:?}"
    );
}

// ---- blocking-in-dispatcher ------------------------------------------------

#[test]
fn blocking_calls_in_service_are_reported_at_exact_spans() {
    let spans = spans_of(
        "blocking_service.rs",
        "crates/service/src/fixture.rs",
        "blocking-in-dispatcher",
    );
    assert_eq!(
        spans,
        vec![
            (8, 22),
            (13, 8),
            (17, 16),
            (18, 18),
            (21, 18),
            (22, 18),
            (25, 5),
            (26, 5)
        ],
        "thread::sleep, .recv(), .recv_timeout(), thread::park, the bindings \
         of sleep-as-nap and park, and their calls: the `use` tree resolves them"
    );
}

#[test]
fn nonblocking_service_passes() {
    let diags = xlint::scan_source(
        "crates/service/src/fixture.rs",
        &fixture("nonblocking_service.rs"),
    );
    let blocking: Vec<_> = diags
        .iter()
        .filter(|d| d.rule == "blocking-in-dispatcher")
        .collect();
    assert!(
        blocking.is_empty(),
        "false positives on non-blocking spellings: {blocking:?}"
    );
}

#[test]
fn blocking_rule_is_scoped_to_the_service() {
    let diags = xlint::scan_source(
        "crates/sdssort/src/fixture.rs",
        &fixture("blocking_service.rs"),
    );
    assert!(
        !diags.iter().any(|d| d.rule == "blocking-in-dispatcher"),
        "blocking rule leaked outside crates/service: {diags:?}"
    );
}

// ---- driver-owns-prelude ---------------------------------------------------

#[test]
fn driver_prelude_is_reported_at_exact_spans() {
    for path in ["crates/algos/src/fixture.rs", "crates/sdssort/src/sort.rs"] {
        let spans = spans_of("prelude.rs", path, "driver-owns-prelude");
        assert_eq!(
            spans,
            vec![(7, 19), (8, 27), (9, 10)],
            "comm.now(), span_begin, sort_unstable_by_key under {path}"
        );
    }
}

#[test]
fn sanctioned_sorter_rule_passes() {
    for path in ["crates/algos/src/fixture.rs", "crates/sdssort/src/sort.rs"] {
        let diags = xlint::scan_source(path, &fixture("prelude_ok.rs"));
        assert!(diags.is_empty(), "flagged under {path}: {diags:?}");
    }
    // The driver itself is where the clock, the spans and the sort live.
    let diags = xlint::scan_source("crates/sdssort/src/driver.rs", &fixture("prelude.rs"));
    assert!(
        !diags.iter().any(|d| d.rule == "driver-owns-prelude"),
        "driver-owns-prelude leaked into the driver: {diags:?}"
    );
}

// ---- pages-owns-buffers ----------------------------------------------------

#[test]
fn own_buffers_are_reported_at_exact_spans() {
    let spans = spans_of(
        "own_buffers.rs",
        "crates/sdssort/src/merge.rs",
        "pages-owns-buffers",
    );
    assert_eq!(
        spans,
        vec![
            (6, 5),
            (7, 24),
            (14, 21),
            (15, 9),
            (16, 25),
            (20, 5),
            (23, 5)
        ],
        "merge_two_by_key calls no comm::pages, Vec::with_capacity, vec!, \
         .reserve(), .to_vec(), extern \"C\", madvise"
    );
}

#[test]
fn buffers_from_pages_pass() {
    let diags = xlint::scan_source("crates/sdssort/src/merge.rs", &fixture("own_buffers_ok.rs"));
    assert!(
        diags.is_empty(),
        "sanctioned buffers were flagged: {diags:?}"
    );
    // pages.rs is the one place the foreign call belongs, and none of its
    // functions is a named buffer site.
    let diags = xlint::scan_source("crates/comm/src/pages.rs", &fixture("own_buffers.rs"));
    assert!(
        !diags.iter().any(|d| d.rule == "pages-owns-buffers"),
        "pages-owns-buffers fired inside comm::pages: {diags:?}"
    );
}

// ---- rule scopes ported from the token-era suite --------------------------

#[test]
fn wallclock_scope_excludes_the_real_time_backends() {
    // The real-execution backends and the resident service measure wall
    // time by design, without needing an xlint.allow entry — while the
    // library-hygiene rules still cover them in full.
    let src = fixture("banned_patterns.rs");
    for path in [
        "crates/shmem/src/fixture.rs",
        "crates/service/src/fixture.rs",
        "crates/sockcomm/src/fixture.rs",
    ] {
        let rules: BTreeSet<_> = xlint::scan_source(path, &src)
            .into_iter()
            .map(|d| d.rule)
            .collect();
        assert!(
            !rules.contains("wallclock"),
            "wallclock fired outside the virtual-time crates under {path}: {rules:?}"
        );
        for expected in ["relaxed-ordering", "safety-comment", "no-unwrap"] {
            assert!(
                rules.contains(expected),
                "rule `{expected}` should still cover {path}: {rules:?}"
            );
        }
    }
    // The service additionally bans the blocking sleep the fixture seeds.
    let service_rules: BTreeSet<_> = xlint::scan_source("crates/service/src/fixture.rs", &src)
        .into_iter()
        .map(|d| d.rule)
        .collect();
    assert!(service_rules.contains("blocking-in-dispatcher"));
}

// ---- allowlist semantics ---------------------------------------------------

#[test]
fn stale_allowlist_entries_are_reported() {
    let dir = scratch_dir("xlint-stale-test");
    fs::create_dir_all(dir.join("src")).expect("create scratch src dir");
    // A file with one real violation, plus an allowlist with one live and one
    // stale entry.
    fs::write(
        dir.join("src/lib.rs"),
        "fn f(x: &std::sync::atomic::AtomicU64) { x.load(std::sync::atomic::Ordering::Relaxed); }\n",
    )
    .expect("write scratch source");
    fs::write(
        dir.join("xlint.allow"),
        "relaxed-ordering src/lib.rs scratch test exemption\n\
         wallclock src/lib.rs stale: nothing here uses Instant\n",
    )
    .expect("write scratch allowlist");

    let report = xlint::scan_root(&dir).expect("scan scratch dir");
    assert!(
        report.diagnostics.is_empty(),
        "live entry should suppress: {report:?}"
    );
    assert_eq!(report.suppressed, 1);
    assert_eq!(
        report.stale.len(),
        1,
        "stale wallclock entry must be reported"
    );
    assert_eq!(report.stale[0].rule, "wallclock");
    assert!(!report.is_clean(), "stale entries fail the run");

    fs::remove_dir_all(&dir).ok();
}

#[test]
fn stale_scopes_are_reported() {
    let dir = scratch_dir("xlint-stale-scope-test");
    let file = dir.join("crates/sdssort/src/radix.rs");
    fs::create_dir_all(file.parent().expect("radix.rs has a parent")).expect("create scratch dirs");
    fs::write(
        &file,
        "pub fn radix_sort(v: &mut Vec<u64>) { comm::pages::reserve(v, 1); }\n",
    )
    .expect("write scratch source");

    // The tree reaches one file of the banned-call table: every path
    // prefix that no file is under is stale, and fails the run.
    let report = xlint::scan_root(&dir).expect("scan scratch dir");
    assert!(report.diagnostics.is_empty(), "{report:?}");
    assert!(!report.is_clean(), "stale scopes fail the run");
    let stale = report.stale_scopes.join("\n");
    assert!(
        stale.contains("no scanned file is under `crates/algos/src/`"),
        "{stale}"
    );
    assert!(
        stale.contains("under `crates/sdssort/src/merge.rs`"),
        "{stale}"
    );
    assert!(
        !stale.contains("radix.rs") && !stale.contains("`crates/sdssort/src/`"),
        "{stale}"
    );

    // Renaming a named function would turn its row into a no-op: it is a
    // finding in the file the table names.
    fs::write(
        &file,
        "pub fn radix_sort_v2(v: &mut Vec<u64>) { comm::pages::reserve(v, 1); }\n",
    )
    .expect("rewrite scratch source");
    let report = xlint::scan_root(&dir).expect("rescan scratch dir");
    let missing: Vec<_> = report
        .diagnostics
        .iter()
        .map(|d| (d.rule, d.path.as_str(), d.msg.as_str()))
        .collect();
    assert_eq!(
        missing,
        vec![(
            "pages-owns-buffers",
            "crates/sdssort/src/radix.rs",
            "no `fn radix_sort` here, which the table names"
        )]
    );

    fs::remove_dir_all(&dir).ok();
}

// ---- JSON report schema ----------------------------------------------------

#[test]
fn json_report_round_trips_the_schema() {
    let dir = scratch_dir("xlint-json-test");
    fs::create_dir_all(dir.join("src")).expect("create scratch src dir");
    fs::write(
        dir.join("src/lib.rs"),
        "fn f(x: &std::sync::atomic::AtomicU64) { x.load(std::sync::atomic::Ordering::Relaxed); }\n",
    )
    .expect("write scratch source");
    fs::write(
        dir.join("xlint.allow"),
        "wallclock src/lib.rs stale: nothing here uses Instant\n",
    )
    .expect("write scratch allowlist");

    let report = xlint::scan_root(&dir).expect("scan scratch dir");
    let doc = Json::parse(&report.to_json()).expect("report emits valid JSON");

    assert_eq!(doc.get("version").and_then(|v| v.as_u64()), Some(1));
    assert_eq!(
        doc.get("files_scanned").and_then(|v| v.as_u64()),
        Some(report.files_scanned as u64)
    );
    assert_eq!(doc.get("clean").and_then(|v| v.as_bool()), Some(false));

    let diags = doc
        .get("diagnostics")
        .and_then(|v| v.as_arr())
        .expect("diagnostics array");
    assert_eq!(diags.len(), report.diagnostics.len());
    let (d_json, d) = (&diags[0], &report.diagnostics[0]);
    assert_eq!(
        d_json.get("path").and_then(|v| v.as_str()),
        Some(d.path.as_str())
    );
    assert_eq!(
        d_json.get("line").and_then(|v| v.as_u64()),
        Some(u64::from(d.line))
    );
    assert_eq!(
        d_json.get("col").and_then(|v| v.as_u64()),
        Some(u64::from(d.col))
    );
    assert_eq!(d_json.get("rule").and_then(|v| v.as_str()), Some(d.rule));
    assert_eq!(
        d_json.get("message").and_then(|v| v.as_str()),
        Some(d.msg.as_str())
    );
    match &d.suggestion {
        Some(s) => assert_eq!(
            d_json.get("suggestion").and_then(|v| v.as_str()),
            Some(s.as_str())
        ),
        None => assert_eq!(d_json.get("suggestion"), Some(&Json::Null)),
    }

    let stale = doc
        .get("stale_allow_entries")
        .and_then(|v| v.as_arr())
        .expect("stale array");
    assert_eq!(stale.len(), 1);
    assert_eq!(
        stale[0].get("rule").and_then(|v| v.as_str()),
        Some("wallclock")
    );

    fs::remove_dir_all(&dir).ok();
}

// ---- the real gate ---------------------------------------------------------

#[test]
fn workspace_tree_scans_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root exists");
    if !root.join("Cargo.toml").exists() {
        return; // not running inside the workspace checkout
    }
    let report = xlint::scan_root(&root).expect("scan workspace");
    assert!(
        report.is_clean(),
        "workspace has lint diagnostics:\n{}",
        report
            .diagnostics
            .iter()
            .map(std::string::ToString::to_string)
            .chain(report.stale.iter().map(|e| format!(
                "xlint.allow:{}: stale entry `{} {}`",
                e.line, e.rule, e.path_prefix
            )))
            .chain(
                report
                    .stale_scopes
                    .iter()
                    .map(|s| format!("stale scope: {s}"))
            )
            .chain(report.config_errors.iter().cloned())
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert!(report.files_scanned > 50, "walker found too few files");
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("{tag}-{}", std::process::id()));
    fs::remove_dir_all(&dir).ok();
    dir
}
