//! Structured diagnostics shared by every rule, and the machine-readable
//! `--format json` emission consumed by CI.
//!
//! A [`Diagnostic`] is the unit all passes produce: rule id, exact
//! `path:line:col` span, message, and an optional suggestion (the concrete
//! sanctioned spelling). The JSON document is stable and versioned so CI
//! can archive reports as artifacts and diff them across revisions; the
//! bundled [`json`] mini-parser exists so tests (and `--validate-report`
//! style tooling) can round-trip the schema without external crates — this
//! tool stays dependency-free by design.

use std::fmt;

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

/// Append a JSON string literal (with escaping) to `out`.
fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
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
    let mut out = String::with_capacity(4096);
    out.push_str("{\n");
    out.push_str("  \"version\": 1,\n");
    out.push_str(&format!(
        "  \"files_scanned\": {},\n  \"suppressed\": {},\n  \"clean\": {},\n",
        report.files_scanned,
        report.suppressed,
        report.is_clean()
    ));
    out.push_str("  \"diagnostics\": [");
    for (i, d) in report.diagnostics.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    {\"path\": ");
        push_json_str(&mut out, &d.path);
        out.push_str(&format!(
            ", \"line\": {}, \"col\": {}, \"rule\": ",
            d.line, d.col
        ));
        push_json_str(&mut out, d.rule);
        out.push_str(", \"message\": ");
        push_json_str(&mut out, &d.msg);
        out.push_str(", \"suggestion\": ");
        match &d.suggestion {
            Some(s) => push_json_str(&mut out, s),
            None => out.push_str("null"),
        }
        out.push('}');
    }
    if !report.diagnostics.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("],\n");
    out.push_str("  \"stale_allow_entries\": [");
    for (i, e) in report.stale.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    {\"rule\": ");
        push_json_str(&mut out, &e.rule);
        out.push_str(", \"path_prefix\": ");
        push_json_str(&mut out, &e.path_prefix);
        out.push_str(&format!(", \"allow_line\": {}}}", e.line));
    }
    if !report.stale.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("],\n");
    for (key, list, end) in [
        ("stale_scopes", &report.stale_scopes, ","),
        ("config_errors", &report.config_errors, ""),
    ] {
        out.push_str(&format!("  \"{key}\": ["));
        for (i, e) in list.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            push_json_str(&mut out, e);
        }
        out.push_str(&format!("]{end}\n"));
    }
    out.push_str("}\n");
    out
}

/// A minimal JSON value model + parser, used to round-trip the report
/// schema in tests without external dependencies.
pub mod json {
    use std::collections::BTreeMap;

    #[derive(Debug, Clone, PartialEq)]
    pub enum Value {
        Null,
        Bool(bool),
        Num(f64),
        Str(String),
        Arr(Vec<Value>),
        Obj(BTreeMap<String, Value>),
    }

    impl Value {
        pub fn get(&self, key: &str) -> Option<&Value> {
            match self {
                Value::Obj(m) => m.get(key),
                _ => None,
            }
        }

        pub fn as_arr(&self) -> Option<&[Value]> {
            match self {
                Value::Arr(v) => Some(v),
                _ => None,
            }
        }

        pub fn as_str(&self) -> Option<&str> {
            match self {
                Value::Str(s) => Some(s),
                _ => None,
            }
        }

        pub fn as_u64(&self) -> Option<u64> {
            match self {
                Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
                _ => None,
            }
        }

        pub fn as_bool(&self) -> Option<bool> {
            match self {
                Value::Bool(b) => Some(*b),
                _ => None,
            }
        }
    }

    /// Parse a JSON document. Errors carry a byte offset.
    pub fn parse(src: &str) -> Result<Value, String> {
        let b = src.as_bytes();
        let mut i = 0usize;
        let v = value(b, &mut i)?;
        skip_ws(b, &mut i);
        if i != b.len() {
            return Err(format!("trailing bytes at offset {i}"));
        }
        Ok(v)
    }

    fn skip_ws(b: &[u8], i: &mut usize) {
        while *i < b.len() && b[*i].is_ascii_whitespace() {
            *i += 1;
        }
    }

    fn expect(b: &[u8], i: &mut usize, c: u8) -> Result<(), String> {
        if *i < b.len() && b[*i] == c {
            *i += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at offset {i}", c as char))
        }
    }

    fn value(b: &[u8], i: &mut usize) -> Result<Value, String> {
        skip_ws(b, i);
        match b.get(*i) {
            Some(b'{') => {
                *i += 1;
                let mut m = BTreeMap::new();
                skip_ws(b, i);
                if b.get(*i) == Some(&b'}') {
                    *i += 1;
                    return Ok(Value::Obj(m));
                }
                loop {
                    skip_ws(b, i);
                    let k = string(b, i)?;
                    skip_ws(b, i);
                    expect(b, i, b':')?;
                    m.insert(k, value(b, i)?);
                    skip_ws(b, i);
                    match b.get(*i) {
                        Some(b',') => *i += 1,
                        Some(b'}') => {
                            *i += 1;
                            break;
                        }
                        _ => return Err(format!("expected `,` or `}}` at offset {i}")),
                    }
                }
                Ok(Value::Obj(m))
            }
            Some(b'[') => {
                *i += 1;
                let mut v = Vec::new();
                skip_ws(b, i);
                if b.get(*i) == Some(&b']') {
                    *i += 1;
                    return Ok(Value::Arr(v));
                }
                loop {
                    v.push(value(b, i)?);
                    skip_ws(b, i);
                    match b.get(*i) {
                        Some(b',') => *i += 1,
                        Some(b']') => {
                            *i += 1;
                            break;
                        }
                        _ => return Err(format!("expected `,` or `]` at offset {i}")),
                    }
                }
                Ok(Value::Arr(v))
            }
            Some(b'"') => Ok(Value::Str(string(b, i)?)),
            Some(b't') if b[*i..].starts_with(b"true") => {
                *i += 4;
                Ok(Value::Bool(true))
            }
            Some(b'f') if b[*i..].starts_with(b"false") => {
                *i += 5;
                Ok(Value::Bool(false))
            }
            Some(b'n') if b[*i..].starts_with(b"null") => {
                *i += 4;
                Ok(Value::Null)
            }
            Some(_) => {
                let start = *i;
                while *i < b.len()
                    && (b[*i].is_ascii_digit() || matches!(b[*i], b'-' | b'+' | b'.' | b'e' | b'E'))
                {
                    *i += 1;
                }
                std::str::from_utf8(&b[start..*i])
                    .ok()
                    .and_then(|s| s.parse::<f64>().ok())
                    .map(Value::Num)
                    .ok_or_else(|| format!("bad number at offset {start}"))
            }
            None => Err("unexpected end of input".to_string()),
        }
    }

    fn string(b: &[u8], i: &mut usize) -> Result<String, String> {
        expect(b, i, b'"')?;
        let mut s = String::new();
        while *i < b.len() {
            match b[*i] {
                b'"' => {
                    *i += 1;
                    return Ok(s);
                }
                b'\\' => {
                    *i += 1;
                    match b.get(*i) {
                        Some(b'"') => s.push('"'),
                        Some(b'\\') => s.push('\\'),
                        Some(b'/') => s.push('/'),
                        Some(b'n') => s.push('\n'),
                        Some(b'r') => s.push('\r'),
                        Some(b't') => s.push('\t'),
                        Some(b'u') => {
                            let hex = b
                                .get(*i + 1..*i + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| format!("bad \\u escape at offset {i}"))?;
                            s.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                            *i += 4;
                        }
                        _ => return Err(format!("bad escape at offset {i}")),
                    }
                    *i += 1;
                }
                c => {
                    // Copy the full UTF-8 sequence through unchanged.
                    let len = match c {
                        c if c < 0x80 => 1,
                        c if c >= 0xF0 => 4,
                        c if c >= 0xE0 => 3,
                        _ => 2,
                    };
                    let chunk = b
                        .get(*i..*i + len)
                        .and_then(|ch| std::str::from_utf8(ch).ok())
                        .ok_or_else(|| format!("bad utf-8 at offset {i}"))?;
                    s.push_str(chunk);
                    *i += len;
                }
            }
        }
        Err("unterminated string".to_string())
    }
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
        let v = json::parse(r#"{"a": [1, 2.5, -3], "b": "q\"uo\nte", "c": null, "d": true}"#)
            .expect("valid json parses");
        assert_eq!(v.get("a").and_then(|a| a.as_arr()).map(<[_]>::len), Some(3));
        assert_eq!(v.get("b").and_then(json::Value::as_str), Some("q\"uo\nte"));
        assert_eq!(v.get("c"), Some(&json::Value::Null));
        assert_eq!(v.get("d").and_then(json::Value::as_bool), Some(true));
    }

    #[test]
    fn json_escaping_round_trips() {
        let mut s = String::new();
        push_json_str(&mut s, "a\"b\\c\nd\te\u{1}f");
        let v = json::parse(&s).expect("escaped string parses");
        assert_eq!(v.as_str(), Some("a\"b\\c\nd\te\u{1}f"));
    }
}
