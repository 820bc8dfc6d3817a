//! CLI entry point: `cargo run -p xlint [--] [--format text|json] [--out FILE] [ROOT]`.
//!
//! Exit codes: 0 clean, 1 diagnostics/stale allowlist entries, 2 usage or
//! I/O error. Text output is one `path:line:col: [rule] message` per
//! diagnostic (plus a `help:` line when there is a mechanical fix), so
//! editors and CI logs can jump straight to the site. `--format json`
//! emits the versioned report schema; `--out FILE` writes the report to a
//! file *in addition to* the exit code, so CI can archive the artifact
//! even when the run fails.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

enum Format {
    Text,
    Json,
}

fn main() -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut format = Format::Text;
    let mut out_file: Option<PathBuf> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--help" | "-h" => {
                println!(
                    "usage: xlint [--format text|json] [--out FILE] [ROOT]\n\n\
                     Lints every .rs file under ROOT (default: .) against the workspace rule\n\
                     catalog; exemptions come from ROOT/xlint.allow. See tools/xlint/src/rules/.\n\n\
                     --format json   emit the versioned machine-readable report on stdout\n\
                     --out FILE      also write the report (in the chosen format) to FILE,\n\
                                     even when the run fails — for CI artifacts"
                );
                return ExitCode::SUCCESS;
            }
            "--format" => match args.next().as_deref() {
                Some("text") => format = Format::Text,
                Some("json") => format = Format::Json,
                other => {
                    let got = other.unwrap_or("nothing");
                    eprintln!("xlint: --format expects `text` or `json`, got `{got}`");
                    return ExitCode::from(2);
                }
            },
            "--out" => match args.next() {
                Some(f) => out_file = Some(PathBuf::from(f)),
                None => {
                    eprintln!("xlint: --out expects a file path");
                    return ExitCode::from(2);
                }
            },
            other => root = PathBuf::from(other),
        }
    }

    let report = match xlint::scan_root(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("xlint: {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };

    let rendered = match format {
        Format::Json => report.to_json(),
        Format::Text => render_text(&report),
    };
    print!("{rendered}");
    if let Some(path) = &out_file {
        // The artifact is written in the chosen format regardless of
        // pass/fail, so CI uploads capture failing runs too.
        if let Err(e) = std::fs::write(path, &rendered) {
            eprintln!("xlint: writing {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }

    for err in &report.config_errors {
        eprintln!("{err}");
    }
    for entry in &report.stale {
        eprintln!(
            "xlint.allow:{}: stale entry `{} {}` suppresses nothing — remove it",
            entry.line, entry.rule, entry.path_prefix
        );
    }
    for scope in &report.stale_scopes {
        eprintln!("xlint: stale scope: {scope} — fix the table in tools/xlint/src/rules/calls.rs");
    }

    if report.is_clean() {
        if matches!(format, Format::Text) {
            println!(
                "xlint: {} files clean ({} allowlisted suppressions)",
                report.files_scanned, report.suppressed
            );
        }
        ExitCode::SUCCESS
    } else if report.config_errors.is_empty() {
        eprintln!(
            "xlint: {} diagnostic(s), {} stale allowlist entr(ies), {} stale scope(s) across {} files",
            report.diagnostics.len(),
            report.stale.len(),
            report.stale_scopes.len(),
            report.files_scanned
        );
        ExitCode::FAILURE
    } else {
        ExitCode::from(2)
    }
}

fn render_text(report: &xlint::Report) -> String {
    use std::fmt::Write;
    let mut s = String::new();
    for d in &report.diagnostics {
        let _ = writeln!(s, "{d}");
    }
    s
}
