//! The rule catalog: every pass is named; names appear in diagnostics and
//! in the `xlint.allow` allowlist.
//!
//! | rule | scope | invariant |
//! |------|-------|-----------|
//! | `wallclock` | virtual-time lib code (`VIRTUAL_TIME_SRC`) | no `Instant`/`SystemTime`/`thread::sleep` — alias-proof via `use`-tree resolution. The real-execution backends (`shmem`, `sockcomm`) and the resident service are out of scope: wall clocks are their whole point |
//! | `relaxed-ordering` | all lib code | no `Ordering::Relaxed` outside allowlisted fast paths: cross-rank state uses `SeqCst` |
//! | `safety-comment` | everywhere | every `unsafe` is preceded by a `// SAFETY:` comment (or a `# Safety` doc section) |
//! | `no-unwrap` | library crates (incl. `algos`) | no bare `.unwrap()`; `.expect()` must carry a string-literal invariant message |
//! | `tag-discipline` | everything outside `mpisim` | message tags are named constants, not integer literals |
//! | `workload-determinism` | `workloads` crate | generators are seeded: no `thread_rng`/`from_entropy`/entropy sources |
//! | `rank-divergent-collective` | algorithm/driver code | no `Communicator` collective call lexically inside a branch/loop/match that depends on the caller's rank — the static shadow of mpisim's runtime deadlock detector |
//! | `unchecked-partition-arith` | `sdssort::{partition,merge,radix,exchange}`, `algos` | no unchecked `*`/`-` (or compound `+`) on index/count expressions feeding slice bounds: widen to `u128` or use `checked_*`/`saturating_*` (the PR 7 merge-cut / radix-carve overflow class) |
//! | `user-tag-range` | outside the comm substrate crates | no literal or const tag at/above `MAX_USER_TAG`, and no `*_raw` reserved-tag call outside the backends that implement `RawComm` |
//! | `blocking-in-dispatcher` | `crates/service` | no `thread::sleep`/`park` or blocking channel `recv` in the service: the dispatcher's only sanctioned block point is the submission mailbox |

pub mod arith;
pub mod blocking;
pub mod determinism;
pub mod divergence;
pub mod ordering;
pub mod safety;
pub mod tags;
pub mod unwrap;
pub mod wallclock;

use crate::ast::{self, Arm, Ast, Block, Item, ItemKind, Node, UseBinding};
use crate::diag::Diagnostic;
use crate::lexer::{lex, Tok, TokKind};
use std::collections::HashMap;

/// Stable names of every rule, in catalog order. `xlint.allow` entries must
/// name one of these.
pub const RULES: [&str; 10] = [
    "wallclock",
    "relaxed-ordering",
    "safety-comment",
    "no-unwrap",
    "tag-discipline",
    "workload-determinism",
    "rank-divergent-collective",
    "unchecked-partition-arith",
    "user-tag-range",
    "blocking-in-dispatcher",
];

/// Crates whose library code runs on *virtual* time and therefore must not
/// read host clocks (`wallclock` rule). Scoped per-crate on purpose: the
/// real shared-memory backend (`crates/shmem`), the sockets backend
/// (`crates/sockcomm`), the resident sort service (`crates/service`), and
/// the harnesses measure wall-clock time by design and are not listed.
const VIRTUAL_TIME_SRC: [&str; 3] = [
    "crates/mpisim/src/",
    "crates/sdssort/src/",
    "crates/algos/src/",
];

/// Library crates covered by the `no-unwrap` rule.
const LIB_CRATE_SRC: [&str; 9] = [
    "crates/mpisim/src/",
    "crates/sdssort/src/",
    "crates/telemetry/src/",
    "crates/workloads/src/",
    "crates/algos/src/",
    "crates/comm/src/",
    "crates/shmem/src/",
    "crates/service/src/",
    "crates/sockcomm/src/",
];

/// Files covered by `unchecked-partition-arith`: the partition/carve
/// arithmetic the rule descends from lives here (PR 2's u128 widening,
/// PR 7's merge-cut underfill and radix-carve overshoot fixes), and the
/// exchange's displacement sums feed slice bounds the same way.
const PARTITION_ARITH_SRC: [&str; 5] = [
    "crates/sdssort/src/partition.rs",
    "crates/sdssort/src/merge.rs",
    "crates/sdssort/src/radix.rs",
    "crates/sdssort/src/exchange.rs",
    "crates/algos/src/",
];

/// Tags at or above this value are reserved for collectives
/// (`comm::MAX_USER_TAG`).
pub const MAX_USER_TAG: u128 = 1 << 48;

/// Per-file context handed to every rule: the token stream, the parsed
/// AST, resolved `use` aliases, and evaluated integer consts.
pub struct FileCtx<'a> {
    pub path: &'a str,
    pub toks: &'a [Tok],
    pub comments: &'a [(u32, String)],
    pub ast: &'a Ast,
    /// `use` bindings by visible name (non-test code only).
    pub aliases: HashMap<String, UseBinding>,
    /// Integer consts by name, where the initializer evaluates statically.
    pub consts: HashMap<String, u128>,
}

impl FileCtx<'_> {
    /// The canonical path a bare identifier resolves to through the
    /// file's `use` declarations, if any.
    pub fn resolve(&self, name: &str) -> Option<String> {
        self.aliases.get(name).map(UseBinding::canonical)
    }
}

/// Run every applicable rule over one file. `path` must be
/// workspace-relative with forward slashes.
pub fn check_file(path: &str, src: &str) -> Vec<Diagnostic> {
    let lexed = lex(src);
    let ast = ast::parse(&lexed.toks);
    let ctx = FileCtx {
        path,
        toks: &lexed.toks,
        comments: &lexed.comments,
        aliases: ast.aliases(),
        consts: const_table(&ast),
        ast: &ast,
    };
    let mut out = Vec::new();

    let is_test_path = path.contains("/tests/") || path.starts_with("tests/");
    let in_lib = |prefixes: &[&str]| prefixes.iter().any(|p| path.starts_with(p)) && !is_test_path;
    let in_backend_substrate = [
        "crates/comm/",
        "crates/mpisim/",
        "crates/shmem/",
        "crates/sockcomm/",
    ]
    .iter()
    .any(|p| path.starts_with(p));

    if in_lib(&VIRTUAL_TIME_SRC) {
        wallclock::check(&ctx, &mut out);
    }
    if (path.starts_with("crates/") && path.contains("/src/") || path.starts_with("src/"))
        && !path.starts_with("tools/")
        && !is_test_path
    {
        ordering::check(&ctx, &mut out);
    }
    safety::check(&ctx, &mut out);
    if in_lib(&LIB_CRATE_SRC) {
        unwrap::check(&ctx, &mut out);
    }
    if !path.starts_with("crates/mpisim/") && !path.starts_with("tools/") {
        tags::check_discipline(&ctx, &mut out);
    }
    if path.starts_with("crates/workloads/") {
        determinism::check(&ctx, &mut out);
    }
    if !in_backend_substrate && !path.starts_with("tools/") && !is_test_path {
        divergence::check(&ctx, &mut out);
    }
    if in_lib(&PARTITION_ARITH_SRC) {
        arith::check(&ctx, &mut out);
    }
    if !in_backend_substrate && !path.starts_with("tools/") {
        tags::check_user_range(&ctx, &mut out);
    }
    if path.starts_with("crates/service/src/") {
        blocking::check(&ctx, &mut out);
    }

    out.sort_by_key(|d| (d.line, d.col));
    out
}

// ---- shared walking utilities ---------------------------------------------

/// Every flat code-token run in the AST, in source order: leaves, branch
/// conditions, loop heads, match scrutinees and arm patterns, `fn`
/// signatures, const initializers, container headers, and verbatim items.
/// `include_tests: false` skips `#[cfg(test)]` subtrees.
pub fn walk_runs<'a>(ast: &'a Ast, include_tests: bool, f: &mut dyn FnMut(&'a [Tok])) {
    walk_items(&ast.items, include_tests, f);
}

fn walk_items<'a>(items: &'a [Item], include_tests: bool, f: &mut dyn FnMut(&'a [Tok])) {
    for item in items {
        if item.cfg_test && !include_tests {
            continue;
        }
        match &item.kind {
            ItemKind::Use(_) => {}
            ItemKind::Fn { sig, body, .. } => {
                f(sig);
                if let Some(b) = body {
                    walk_block(b, include_tests, f);
                }
            }
            ItemKind::Const { value, .. } => f(value),
            ItemKind::Mod { items } => walk_items(items, include_tests, f),
            ItemKind::Container { header, items } => {
                f(header);
                walk_items(items, include_tests, f);
            }
            ItemKind::Verbatim(toks) => f(toks),
        }
    }
}

fn walk_block<'a>(block: &'a Block, include_tests: bool, f: &mut dyn FnMut(&'a [Tok])) {
    for node in &block.nodes {
        match node {
            Node::Leaf(toks) => f(toks),
            Node::Branch { cond, body, els } => {
                f(cond);
                walk_block(body, include_tests, f);
                if let Some(e) = els {
                    walk_block(e, include_tests, f);
                }
            }
            Node::Loop { head, body } => {
                f(head);
                walk_block(body, include_tests, f);
            }
            Node::Match { scrut, arms } => {
                f(scrut);
                for Arm { pat, body } in arms {
                    f(pat);
                    walk_block(body, include_tests, f);
                }
            }
            Node::Block(b) => walk_block(b, include_tests, f),
            Node::Item(item) => walk_items(std::slice::from_ref(item), include_tests, f),
        }
    }
}

/// Every `fn` body in the AST (skipping `#[cfg(test)]` subtrees), for
/// rules that need block *structure* rather than flat runs.
pub fn walk_fn_bodies<'a>(ast: &'a Ast, f: &mut dyn FnMut(&'a Block)) {
    fn items<'a>(list: &'a [Item], f: &mut dyn FnMut(&'a Block)) {
        for item in list {
            if item.cfg_test {
                continue;
            }
            match &item.kind {
                ItemKind::Fn { body: Some(b), .. } => f(b),
                ItemKind::Mod { items: inner } | ItemKind::Container { items: inner, .. } => {
                    items(inner, f);
                }
                _ => {}
            }
        }
    }
    items(&ast.items, f);
}

/// A method call extracted from a flat token run: `.name::<T>(args)`.
pub struct MethodCall<'a> {
    pub name: &'a str,
    /// The name token (diagnostic anchor).
    pub tok: &'a Tok,
    /// Argument token slices, split at top-level commas.
    pub args: Vec<&'a [Tok]>,
}

/// Extract every `.method(...)` call in a run, handling turbofish and
/// nested argument groups.
pub fn method_calls<'a>(run: &'a [Tok]) -> Vec<MethodCall<'a>> {
    let mut out = Vec::new();
    for (i, t) in run.iter().enumerate() {
        let Some(name) = t.ident() else { continue };
        if i == 0 || !run[i - 1].is_punct('.') {
            continue;
        }
        // Skip an optional turbofish `::<...>`.
        let mut j = i + 1;
        if j + 2 < run.len()
            && run[j].is_punct(':')
            && run[j + 1].is_punct(':')
            && run[j + 2].is_punct('<')
        {
            let mut depth = 0i32;
            j += 2;
            while let Some(t) = run.get(j) {
                match t.kind {
                    TokKind::Punct('<') => depth += 1,
                    TokKind::Punct('>') => {
                        depth -= 1;
                        if depth == 0 {
                            j += 1;
                            break;
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
        }
        if !run.get(j).is_some_and(|t| t.is_punct('(')) {
            continue;
        }
        // Split the argument list at top-level commas. Commas inside a
        // closure's parameter pipes (`|acc, x| ..`) do not separate
        // arguments; a `|` opens closure params only where a bitwise-or
        // could not appear (start of an argument, or after `move`).
        let mut args: Vec<&[Tok]> = Vec::new();
        let mut depth = 1i32;
        let mut in_pipes = false;
        let mut arg_start = j + 1;
        j += 1;
        while let Some(t) = run.get(j) {
            match t.kind {
                TokKind::Punct('(' | '[' | '{') => depth += 1,
                TokKind::Punct(')' | ']' | '}') => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                TokKind::Punct('|') if depth == 1 => {
                    if in_pipes {
                        in_pipes = false;
                    } else if run.get(j - 1).is_some_and(|p| {
                        p.is_punct('(') || p.is_punct(',') || p.ident() == Some("move")
                    }) {
                        in_pipes = true;
                    }
                }
                TokKind::Punct(',') if depth == 1 && !in_pipes => {
                    args.push(&run[arg_start..j]);
                    arg_start = j + 1;
                }
                _ => {}
            }
            j += 1;
        }
        let tail = &run[arg_start..j.min(run.len())];
        // An empty tail is either a zero-arg call or a trailing comma
        // (multi-line rustfmt style); neither adds an argument.
        if !tail.is_empty() {
            args.push(tail);
        }
        out.push(MethodCall { name, tok: t, args });
    }
    out
}

// ---- const evaluation ------------------------------------------------------

/// Collect every statically-evaluable integer const in non-test code.
/// Supports literals, references to earlier consts, `MAX_USER_TAG`, unary
/// parens, `as` casts, and the operators `<< + - * |` (left-associative,
/// no precedence — tag constants are written as `BASE + k` / `1 << 48`
/// shapes where this is exact).
pub fn const_table(ast: &Ast) -> HashMap<String, u128> {
    let mut env: HashMap<String, u128> = HashMap::new();
    env.insert("MAX_USER_TAG".to_string(), MAX_USER_TAG);
    fn walk(items: &[Item], env: &mut HashMap<String, u128>) {
        for item in items {
            if item.cfg_test {
                continue;
            }
            match &item.kind {
                ItemKind::Const { name, value, .. } => {
                    if let Some(v) = const_eval(value, env) {
                        env.insert(name.clone(), v);
                    }
                }
                ItemKind::Mod { items } | ItemKind::Container { items, .. } => walk(items, env),
                _ => {}
            }
        }
    }
    walk(&ast.items, &mut env);
    env
}

/// Evaluate a const initializer; `None` when it isn't a static integer
/// expression this mini-evaluator understands.
pub fn const_eval(toks: &[Tok], env: &HashMap<String, u128>) -> Option<u128> {
    let mut i = 0usize;
    let v = eval_expr(toks, &mut i, env)?;
    if i == toks.len() {
        Some(v)
    } else {
        None
    }
}

fn eval_expr(toks: &[Tok], i: &mut usize, env: &HashMap<String, u128>) -> Option<u128> {
    let mut acc = eval_primary(toks, i, env)?;
    loop {
        // `as <ty>` casts keep the value (tags are u64-sized).
        if toks.get(*i).and_then(Tok::ident) == Some("as") {
            *i += 1;
            *i += 1; // type name
            continue;
        }
        let op = match toks.get(*i).map(|t| &t.kind) {
            Some(TokKind::Punct(c @ ('+' | '-' | '*' | '|'))) => {
                *i += 1;
                *c
            }
            Some(TokKind::Punct('<')) if toks.get(*i + 1).is_some_and(|t| t.is_punct('<')) => {
                *i += 2;
                '«'
            }
            _ => break,
        };
        let rhs = eval_primary(toks, i, env)?;
        acc = match op {
            '+' => acc.checked_add(rhs)?,
            '-' => acc.checked_sub(rhs)?,
            '*' => acc.checked_mul(rhs)?,
            '|' => acc | rhs,
            '«' => acc.checked_shl(u32::try_from(rhs).ok()?)?,
            _ => return None,
        };
    }
    Some(acc)
}

fn eval_primary(toks: &[Tok], i: &mut usize, env: &HashMap<String, u128>) -> Option<u128> {
    match toks.get(*i).map(|t| &t.kind) {
        Some(TokKind::Int(Some(v))) => {
            *i += 1;
            Some(*v)
        }
        Some(TokKind::Punct('(')) => {
            *i += 1;
            let v = eval_expr(toks, i, env)?;
            if toks.get(*i).is_some_and(|t| t.is_punct(')')) {
                *i += 1;
                Some(v)
            } else {
                None
            }
        }
        Some(TokKind::Ident(name)) => {
            // Possibly a path: take the last segment (`Comm::MAX_USER_TAG`).
            let mut last = name.clone();
            *i += 1;
            while toks.get(*i).is_some_and(|t| t.is_punct(':'))
                && toks.get(*i + 1).is_some_and(|t| t.is_punct(':'))
            {
                *i += 2;
                last = toks.get(*i).and_then(Tok::ident)?.to_string();
                *i += 1;
            }
            env.get(&last).copied()
        }
        _ => None,
    }
}

/// Identifiers that cannot be expression operands (keywords that precede
/// a `[` or an operator without being a value).
pub fn is_value_keyword(s: &str) -> bool {
    matches!(
        s,
        "if" | "else"
            | "while"
            | "for"
            | "loop"
            | "match"
            | "return"
            | "break"
            | "continue"
            | "in"
            | "as"
            | "let"
            | "mut"
            | "move"
            | "ref"
            | "where"
            | "impl"
            | "dyn"
            | "fn"
            | "use"
            | "pub"
            | "const"
            | "static"
            | "unsafe"
    )
}

/// True when `t` can be the last token of a value expression (so a
/// following `[` is an index and a following binary op has a left operand).
pub fn is_value_end(t: &Tok) -> bool {
    match &t.kind {
        TokKind::Ident(s) => !is_value_keyword(s),
        TokKind::Int(_) | TokKind::Float | TokKind::Str | TokKind::Char => true,
        TokKind::Punct(')' | ']' | '?') => true,
        _ => false,
    }
}

/// True when `t` can start a value expression (right operand of a binary
/// operator).
pub fn is_value_start(t: &Tok) -> bool {
    match &t.kind {
        TokKind::Ident(s) => !is_value_keyword(s),
        TokKind::Int(_) | TokKind::Float => true,
        TokKind::Punct('(') => true,
        _ => false,
    }
}
