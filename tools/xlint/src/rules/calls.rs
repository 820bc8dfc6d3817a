//! "Call X only in scope Y": one table of banned calls, [`TABLE`].
//!
//! A row holds a rule name, the calls it bans, the files (optionally
//! narrowed to named `fn`s) where the ban holds, and a help text; rows may
//! share a rule name. Bans match parsed tokens, never text, and resolve
//! through the file's `use` tree: after `use std::thread::sleep as nap`,
//! both the binding and `nap(..)` are `std::thread::sleep`. A named `fn`
//! missing from its file is a finding, and a path prefix no scanned file
//! is under is a stale scope ([`stale_scopes`]): either fails the run.

use super::{is_test_path, method_calls, walk_items, walk_runs, FileCtx};
use crate::ast::{flat_items, ItemKind};
use crate::diag::Diagnostic;
use crate::lexer::{Tok, TokKind};
use std::sync::OnceLock;
use Ban::{ExternC, Macro, Method, Name, NonLiteral, Path};

/// The table. Each row starts with `rule <name>`; then come lines of
/// `in <scope words>`, `ban <ban words>` and `help <text>`, each as often
/// as needed.
///
/// A scope word is a path prefix; `!prefix` carves one out, `file#fn`
/// narrows the row to one `fn` of a file (which must be there), `needs:m`
/// makes each such `fn` call into module `m` (`m::..`), and `+tests` counts
/// `#[cfg(test)]` code and files under `tests/`.
///
/// A ban word is a path (`a::b`: spelled in full, from its second-last
/// segment on, or reached through a `use`), a name (`Relaxed`: anywhere,
/// or a `use` binding whose path ends in it), a method call with its
/// arity (`.now()`, `.recv(..)` for any number, `.expect(<non-literal>)`
/// when the first argument is not a string literal), a macro (`vec!`) or
/// `extern"C"`.
pub const TABLE: &str = r#"
rule wallclock
    in crates/mpisim/src/ crates/sdssort/src/ crates/algos/src/
    ban Instant SystemTime std::thread::sleep
    help simulation code runs on virtual clocks: read time from the rank's VirtualClock,
    help and charge virtual seconds with `clock.charge(..)` instead of sleeping

rule relaxed-ordering
    in crates/ src/
    ban Relaxed
    help cross-rank shared state uses `SeqCst`: use `Ordering::SeqCst`, or allowlist the file
    help in xlint.allow with a justification if this is a measured hot path

rule no-unwrap
    in crates/ !crates/bench/
    ban .unwrap() .expect(<non-literal>)
    help library code panics only on documented invariants: use `.expect("<invariant>")`
    help with a string-literal message, or return an error

rule workload-determinism
    in crates/workloads/ +tests
    ban thread_rng from_entropy OsRng SystemTime Instant rand::random
    help datasets must be reproducible: accept an explicit `u64` seed and use
    help `StdRng::seed_from_u64`

rule blocking-in-dispatcher
    in crates/service/src/
    ban std::thread::sleep std::thread::park std::thread::park_timeout
    ban .recv(..) .recv_timeout(..) .recv_deadline(..)
    help the dispatcher's only sanctioned block point is the submission mailbox: wait on its
    help condvar with a deadline, use `try_recv` plus the mailbox wakeup, or move the wait to
    help the client side under an xlint.allow justification

rule driver-owns-prelude
    in crates/algos/src/ crates/sdssort/src/sort.rs crates/sdssort/src/external.rs +tests
    ban .now() span_begin
    help the phase clock and the spans are the one driver's (`sdssort::driver`): enter a
    help `Step` on the `Clock` the driver hands the rule

rule driver-owns-prelude
    in crates/algos/src/ crates/sdssort/src/sort.rs +tests
    ban sort_unstable_by_key sort_by_key
    help the driver's one `local_sort_with` call sorts a sorter's input with the kernel `Auto`
    help picks: the rule receives it sorted

rule pages-owns-buffers
    in crates/ src/ tests/ examples/ !crates/comm/src/pages.rs +tests
    ban madvise extern"C"
    help `comm::pages` is the one place that asks the kernel for huge pages: take the buffer
    help from `pages::with_capacity` / `pages::reserve`

rule pages-owns-buffers
    in needs:pages
    in crates/sdssort/src/merge.rs#merge_two_by_key crates/sdssort/src/merge.rs#kway_merge_into
    in crates/sdssort/src/radix.rs#radix_sort
    in crates/sdssort/src/local_sort.rs#local_sort_with
    in crates/sdssort/src/local_sort.rs#parallel_merge_into
    in crates/comm/src/lib.rs#alltoallv_given_counts crates/comm/src/lib.rs#self_run_raw
    in crates/comm/src/wire.rs#get_into crates/comm/src/wire.rs#read_from
    in crates/sockcomm/src/frame.rs#read_frame crates/sockcomm/src/comm.rs#send_slice_raw
    ban std::vec::Vec::with_capacity vec! .reserve(..) .reserve_exact(..) .to_vec()
    help a sort's n-record buffers come from `comm::pages`, which advises huge pages and
    help tallies them: allocate with `pages::with_capacity` / `pages::reserve` only
"#;

/// One banned call, as [`TABLE`] spells it.
#[derive(Clone, Copy)]
enum Ban {
    Path(&'static str),
    Name(&'static str),
    /// `.name(..)` with this many arguments (`None`: any number).
    Method(&'static str, Option<usize>),
    /// `.name(..)` whose first argument is not a string literal.
    NonLiteral(&'static str),
    Macro(&'static str),
    ExternC,
}

/// One row of [`TABLE`].
#[derive(Default)]
struct Row {
    rule: &'static str,
    bans: Vec<Ban>,
    paths: Vec<&'static str>,
    except: Vec<&'static str>,
    /// `(file, fn)`: when any is given, only these `fn`s count.
    fns: Vec<(&'static str, &'static str)>,
    needs: Option<&'static str>,
    tests: bool,
    help: Vec<&'static str>,
}

/// [`TABLE`], parsed once.
fn rows() -> &'static [Row] {
    static ROWS: OnceLock<Vec<Row>> = OnceLock::new();
    ROWS.get_or_init(|| {
        let mut rows: Vec<Row> = Vec::new();
        for line in TABLE.lines().map(str::trim).filter(|l| !l.is_empty()) {
            let (key, rest) = line.split_once(' ').expect("a table line is `key words`");
            if key == "rule" {
                rows.push(Row::default());
            }
            let row = rows.last_mut().expect("a `rule` line first");
            let words = rest.split_whitespace();
            match key {
                "rule" => row.rule = rest,
                "help" => row.help.push(rest),
                "ban" => row.bans.extend(words.map(ban)),
                "in" => {
                    for word in words {
                        let needs = word.strip_prefix("needs:");
                        match (word.strip_prefix('!'), needs, word.split_once('#')) {
                            (Some(p), ..) => row.except.push(p),
                            (_, Some(m), _) => row.needs = Some(m),
                            (.., Some((file, f))) => {
                                row.paths.push(file);
                                row.fns.push((file, f));
                            }
                            _ if word == "+tests" => row.tests = true,
                            _ => row.paths.push(word),
                        }
                    }
                }
                _ => panic!("unknown table key `{key}`"),
            }
        }
        rows
    })
}

fn ban(word: &'static str) -> Ban {
    if word == "extern\"C\"" {
        ExternC
    } else if let Some(m) = word.strip_suffix('!') {
        Macro(m)
    } else if let Some((m, args)) = word.strip_prefix('.').and_then(|w| w.split_once('(')) {
        match args {
            ")" => Method(m, Some(0)),
            "..)" => Method(m, None),
            "<non-literal>)" => NonLiteral(m),
            _ => panic!("unknown method arguments in `{word}`"),
        }
    } else if word.contains("::") {
        Path(word)
    } else {
        Name(word)
    }
}

/// The table's path prefixes that none of `files` is under, sorted.
pub fn stale_scopes(files: &[String]) -> Vec<String> {
    let mut out: Vec<String> = rows()
        .iter()
        .flat_map(|row| {
            let prefixes = row.paths.iter().chain(&row.except);
            prefixes
                .filter(|p| !files.iter().any(|f| f.starts_with(*p)))
                .map(|p| format!("`{}` row: no scanned file is under `{p}`", row.rule))
        })
        .collect();
    out.sort();
    out.dedup();
    out
}

pub fn check(ctx: &FileCtx<'_>, out: &mut Vec<Diagnostic>) {
    for row in rows() {
        let under = |p: &str| ctx.path.starts_with(p);
        let Some(prefix) = row.paths.iter().find(|p| under(p)) else {
            continue;
        };
        if row.except.iter().any(|p| under(p)) || (is_test_path(ctx.path) && !row.tests) {
            continue;
        }
        let mut push = |line: u32, col: u32, msg: String| {
            out.push(Diagnostic {
                path: ctx.path.to_string(),
                line,
                col,
                rule: row.rule,
                msg,
                suggestion: Some(row.help.join(" ")),
            });
        };
        if row.fns.is_empty() {
            for b in ctx.aliases.values() {
                let path = ctx.resolve(&b.path);
                if row.bans.iter().any(|ban| names(ban, &path)) {
                    let what = format!("`use {}` in `{prefix}`", path.join("::"));
                    push(b.line, b.col, what);
                }
            }
            walk_runs(ctx.ast, row.tests, &mut |run| {
                for (t, what) in hits(ctx, &row.bans, run) {
                    push(t.line, t.col, format!("{what} in `{prefix}`"));
                }
            });
        }
        for &(_, name) in row.fns.iter().filter(|(file, _)| under(file)) {
            let defs: Vec<_> = flat_items(&ctx.ast.items, row.tests)
                .into_iter()
                .filter(|item| matches!(&item.kind, ItemKind::Fn { name: n, .. } if n == name))
                .collect();
            if defs.is_empty() {
                push(1, 1, format!("no `fn {name}` here, which the table names"));
            }
            for def in defs {
                let mut called = row.needs.is_none();
                walk_items(std::slice::from_ref(def), row.tests, &mut |run| {
                    for (t, what) in hits(ctx, &row.bans, run) {
                        push(t.line, t.col, format!("{what} in `fn {name}`"));
                    }
                    called |= run.windows(3).any(|w| {
                        w[0].ident() == row.needs && w[1].is_punct(':') && w[2].is_punct(':')
                    });
                });
                if let (false, Some(m), ItemKind::Fn { line, col, .. }) =
                    (called, row.needs, &def.kind)
                {
                    push(*line, *col, format!("`fn {name}` makes no `{m}::` call"));
                }
            }
        }
    }
}

/// Does a resolved path name what `ban` bans?
fn names(ban: &Ban, path: &[String]) -> bool {
    match *ban {
        Name(n) => path.last().is_some_and(|last| last == n),
        Path(p) => {
            let banned: Vec<&str> = p.split("::").collect();
            (2..=banned.len()).contains(&path.len()) && banned[banned.len() - path.len()..] == *path
        }
        _ => false,
    }
}

/// Every banned call in a token run, as (anchor, what was called).
fn hits<'a>(ctx: &FileCtx<'_>, bans: &[Ban], run: &'a [Tok]) -> Vec<(&'a Tok, String)> {
    let mut out = Vec::new();
    for call in method_calls(run) {
        let first = call.args.first().and_then(|a| a.first()).map(|t| &t.kind);
        if bans.iter().any(|ban| match *ban {
            Method(m, arity) => m == call.name && arity.is_none_or(|n| n == call.args.len()),
            NonLiteral(m) => m == call.name && first != Some(&TokKind::Str),
            _ => false,
        }) {
            out.push((call.tok, format!("`.{}()`", call.name)));
        }
    }
    for (i, t) in run.iter().enumerate() {
        let Some(name) = t.ident() else { continue };
        let next = |k: usize| run.get(i + k).map(|t| &t.kind);
        let after_dot = i > 0 && run[i - 1].is_punct('.');
        // The path that ends at `t`, walked back over `ident ::` pairs; a
        // field or method name is no path.
        let mut start = i;
        while !after_dot
            && start >= 3
            && run[start - 1].is_punct(':')
            && run[start - 2].is_punct(':')
            && run[start - 3].ident().is_some()
        {
            start -= 3;
        }
        let spelled: Vec<String> = run[start..=i]
            .iter()
            .filter_map(|t| t.ident().map(str::to_string))
            .collect();
        let path = if after_dot {
            spelled.clone()
        } else {
            ctx.resolve(&spelled)
        };
        let bang = next(1) == Some(&TokKind::Punct('!'));
        let hit = bans.iter().any(|ban| match *ban {
            Name(_) => names(ban, &path),
            Path(_) => !after_dot && names(ban, &path),
            Macro(m) => {
                m == name && bang && matches!(next(2), Some(TokKind::Punct('(' | '[' | '{')))
            }
            ExternC => name == "extern" && next(1) == Some(&TokKind::Str),
            _ => false,
        });
        if !hit {
            continue;
        }
        let (spelled, path) = (spelled.join("::"), path.join("::"));
        let via = if path == spelled {
            String::new()
        } else {
            format!(" (= `{path}` via `use`)")
        };
        out.push((
            t,
            format!("`{spelled}{}`{via}", if bang { "!" } else { "" }),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    #[test]
    fn the_table_parses_into_catalog_rules() {
        let rows = super::rows();
        assert_eq!(rows.len(), 9);
        for row in rows {
            assert!(super::super::RULES.contains(&row.rule), "{}", row.rule);
            assert!(!row.bans.is_empty() && !row.paths.is_empty() && !row.help.is_empty());
        }
        assert_eq!(rows[8].fns.len(), 11, "the eleven buffer sites");
    }
}
