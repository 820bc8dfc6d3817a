//! Structured diagnostics shared by every rule, and the machine-readable
//! `--format json` emission consumed by CI.
//!
//! A [`Diagnostic`] is the unit all passes produce: rule id, exact
//! `path:line:col` span, message, and an optional suggestion (the concrete
//! sanctioned spelling). The JSON document is stable and versioned so CI
//! can archive reports as artifacts and diff them across revisions; it is
//! written, and read back in tests, with the workspace's one JSON codec,
//! `telemetry::Json`.

use std::fmt;
use telemetry::Json;

/// One rule finding at a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Workspace-relative path (forward slashes).
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column of the offending token.
    pub col: u32,
    /// Rule id (stable, used in the allowlist).
    pub rule: &'static str,
    /// Human-readable explanation of the violated invariant.
    pub msg: String,
    /// The sanctioned spelling, when there is a mechanical one.
    pub suggestion: Option<String>,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}:{}: [{}] {}",
            self.path, self.line, self.col, self.rule, self.msg
        )?;
        if let Some(s) = &self.suggestion {
            write!(f, "\n    help: {s}")?;
        }
        Ok(())
    }
}

/// Serialize a full report to the versioned JSON schema:
///
/// ```json
/// {
///   "version": 1,
///   "files_scanned": 120,
///   "suppressed": 7,
///   "clean": false,
///   "diagnostics": [
///     {"path": "...", "line": 3, "col": 9, "rule": "wallclock",
///      "message": "...", "suggestion": "..." | null}
///   ],
///   "stale_allow_entries": [
///     {"rule": "...", "path_prefix": "...", "allow_line": 12}
///   ],
///   "stale_scopes": ["..."],
///   "config_errors": ["..."]
/// }
/// ```
pub fn report_to_json(report: &crate::Report) -> String {
    let diagnostics = report.diagnostics.iter().map(|d| {
        Json::obj(vec![
            ("path", Json::from(d.path.as_str())),
            ("line", Json::from(d.line)),
            ("col", Json::from(d.col)),
            ("rule", Json::from(d.rule)),
            ("message", Json::from(d.msg.as_str())),
            ("suggestion", Json::from(d.suggestion.clone())),
        ])
    });
    let stale = report.stale.iter().map(|e| {
        Json::obj(vec![
            ("rule", Json::from(e.rule.as_str())),
            ("path_prefix", Json::from(e.path_prefix.as_str())),
            ("allow_line", Json::from(e.line)),
        ])
    });
    Json::obj(vec![
        ("version", Json::from(1u64)),
        ("files_scanned", Json::from(report.files_scanned)),
        ("suppressed", Json::from(report.suppressed)),
        ("clean", Json::from(report.is_clean())),
        ("diagnostics", Json::Arr(diagnostics.collect())),
        ("stale_allow_entries", Json::Arr(stale.collect())),
        ("stale_scopes", Json::from(report.stale_scopes.clone())),
        ("config_errors", Json::from(report.config_errors.clone())),
    ])
    .to_string_pretty()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_span_and_rule() {
        let d = Diagnostic {
            path: "crates/x/src/lib.rs".into(),
            line: 3,
            col: 14,
            rule: "wallclock",
            msg: "bad".into(),
            suggestion: Some("use the VirtualClock".into()),
        };
        let s = d.to_string();
        assert!(s.starts_with("crates/x/src/lib.rs:3:14: [wallclock] bad"));
        assert!(s.contains("help: use the VirtualClock"));
    }

    #[test]
    fn json_parser_handles_the_usual_shapes() {
        let v = Json::parse(r#"{"a": [1, 2.5, -3], "b": "q\"uo\nte", "c": null, "d": true}"#)
            .expect("valid json parses");
        assert_eq!(v.get("a").and_then(Json::as_arr).map(<[_]>::len), Some(3));
        assert_eq!(v.get("b").and_then(Json::as_str), Some("q\"uo\nte"));
        assert_eq!(v.get("c"), Some(&Json::Null));
        assert_eq!(v.get("d").and_then(Json::as_bool), Some(true));
    }

    #[test]
    fn json_escaping_round_trips() {
        let msg = "a\"b\\c\nd\te\u{1}f";
        let report = crate::Report {
            diagnostics: vec![Diagnostic {
                path: "src/lib.rs".into(),
                line: 1,
                col: 1,
                rule: "wallclock",
                msg: msg.into(),
                suggestion: None,
            }],
            ..crate::Report::default()
        };
        let v = Json::parse(&report_to_json(&report)).expect("escaped string parses");
        let d = &v
            .get("diagnostics")
            .and_then(Json::as_arr)
            .expect("diagnostics")[0];
        assert_eq!(d.get("message").and_then(Json::as_str), Some(msg));
        assert_eq!(d.get("suggestion"), Some(&Json::Null));
    }
}
