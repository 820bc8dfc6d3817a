//! xlint: a dependency-free, AST-driven semantic linter for this
//! workspace's simulation and SPMD-protocol invariants.
//!
//! The pipeline is [`lexer`] (tokens with `line:col` spans) → [`ast`] (a
//! structural parse: items, `use`-alias resolution, branch/loop/match
//! bodies) → [`rules`] (the catalog of passes) → [`diag`] (structured
//! diagnostics and the `--format json` report). Rules operate on parsed
//! structure, not text matching: `// unsafe` in a comment never trips a
//! rule, `use std::time::Instant as T` cannot evade `wallclock`, and the
//! rank-divergence pass reasons about lexical containment that token
//! streams cannot express. See [`rules`] for the catalog and [`config`]
//! for the `xlint.allow` format.
//!
//! The tool is dependency-free on purpose: this workspace builds offline
//! (every external crate is a std-only stub), so the parser and JSON
//! support live in-tree, sized to exactly what the passes need.

#![forbid(unsafe_code)]

pub mod ast;
pub mod config;
pub mod diag;
pub mod lexer;
pub mod rules;

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use config::AllowEntry;
use diag::Diagnostic;

/// Result of scanning a workspace root.
#[derive(Debug, Default)]
pub struct Report {
    /// Diagnostics not covered by any allowlist entry, sorted by
    /// path/line/col.
    pub diagnostics: Vec<Diagnostic>,
    /// Count of diagnostics suppressed by the allowlist.
    pub suppressed: usize,
    /// Allowlist entries that suppressed nothing (each is an error: the
    /// allowlist may only shrink).
    pub stale: Vec<AllowEntry>,
    /// Path prefixes of the banned-call table that no scanned file is
    /// under (each is an error, like a stale allowlist entry).
    pub stale_scopes: Vec<String>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// Allowlist parse diagnostics (fatal).
    pub config_errors: Vec<String>,
}

impl Report {
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
            && self.stale.is_empty()
            && self.stale_scopes.is_empty()
            && self.config_errors.is_empty()
    }

    /// The report in the versioned machine-readable schema.
    pub fn to_json(&self) -> String {
        diag::report_to_json(self)
    }
}

/// Directories never descended into, relative to the workspace root.
const SKIP_DIRS: [&str; 4] = ["target", "devstubs", ".git", "tools/xlint/fixtures"];

/// Lint a single file's contents under its workspace-relative path.
/// Applies rule scopes but no allowlist — used by rule tests and fixtures.
pub fn scan_source(rel_path: &str, src: &str) -> Vec<Diagnostic> {
    rules::check_file(rel_path, src)
}

/// Walk the workspace at `root`, lint every `.rs` file, and apply the
/// allowlist at `<root>/xlint.allow` (absence means an empty allowlist).
pub fn scan_root(root: &Path) -> io::Result<Report> {
    let mut report = Report::default();

    let allow = match fs::read_to_string(root.join("xlint.allow")) {
        Ok(text) => match config::parse_allowlist(&text) {
            Ok(entries) => entries,
            Err(errors) => {
                report.config_errors = errors;
                return Ok(report);
            }
        },
        Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(e),
    };
    let mut used = vec![false; allow.len()];

    let mut files = Vec::new();
    collect_rs_files(root, root, &mut files)?;
    files.sort();
    let mut rels = Vec::new();

    for path in files {
        let rel = path
            .strip_prefix(root)
            .expect("collect_rs_files yields paths under root")
            .to_string_lossy()
            .replace('\\', "/");
        let src = fs::read_to_string(&path)?;
        report.files_scanned += 1;
        for d in rules::check_file(&rel, &src) {
            let hit = allow
                .iter()
                .position(|entry| entry.matches(d.rule, &d.path));
            match hit {
                Some(i) => {
                    used[i] = true;
                    report.suppressed += 1;
                }
                None => report.diagnostics.push(d),
            }
        }
        rels.push(rel);
    }

    report.stale = allow
        .into_iter()
        .zip(used)
        .filter_map(|(entry, was_used)| if was_used { None } else { Some(entry) })
        .collect();
    report.stale_scopes = rules::calls::stale_scopes(&rels);
    Ok(report)
}

fn collect_rs_files(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let rel = path
            .strip_prefix(root)
            .expect("walk stays under root")
            .to_string_lossy()
            .replace('\\', "/");
        if entry.file_type()?.is_dir() {
            if SKIP_DIRS.contains(&rel.as_str()) || entry.file_name().to_string_lossy() == ".git" {
                continue;
            }
            collect_rs_files(root, &path, out)?;
        } else if rel.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}
