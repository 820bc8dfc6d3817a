//! `rank-divergent-collective`: no `Communicator` collective call may sit
//! lexically inside a branch, loop, or match whose condition depends on
//! the caller's rank.
//!
//! This is the static shadow of mpisim's runtime deadlock detector
//! (PR 2): the SPMD protocol invariant says every rank must reach the
//! same collectives in the same order, and `if my_rank == 0 {
//! comm.barrier(); }` deadlocks the other ranks the first time that path
//! executes. The runtime detector only catches the schedule a given seed
//! produces; this pass catches the *shape* on every path.
//!
//! False-positive control:
//! * collective names are matched together with their arity, so
//!   `str::split(',')` (1 arg) is not `Communicator::split(color, key)`
//!   (2 args) and `Iterator::reduce(f)` (1 arg) is not
//!   `Communicator::reduce(root, v, op)` (3 args). `Communicator` has no
//!   `scan`, so `Iterator::scan` needs no exclusion;
//! * rank mentions *inside the arguments of a `split` call* do not make
//!   a condition divergent: `split(if rank == r { Some(0) } else { None },
//!   ..)` is the sanctioned color-by-rank idiom — every rank still
//!   reaches the `split` itself;
//! * `bcast(root, if rank == root { Some(v) } else { None })` never
//!   triggers: the `if` lives inside the call's parentheses, which the
//!   AST keeps as part of the flat call leaf, not as a Branch node.

use super::{method_calls, FileCtx};
use crate::ast::{flat_items, Block, Item, ItemKind, Node};
use crate::diag::Diagnostic;
use crate::lexer::{Tok, TokKind};

/// Collective `Communicator` methods with their argument counts
/// (receiver excluded). Arity disambiguates from std methods of the same
/// name.
const COLLECTIVES: [(&str, usize); 19] = [
    ("barrier", 0),
    ("bcast", 2),
    ("gatherv", 2),
    ("alltoall", 1),
    ("alltoallv", 2),
    ("alltoallv_async", 2),
    ("alltoallv_given_counts", 3),
    ("alltoallv_async_given_counts", 3),
    ("alltoallv_runs", 3),
    ("alltoallv_async_runs", 3),
    ("allgather", 1),
    ("allgatherv", 1),
    ("reduce", 3),
    ("allreduce", 2),
    ("exscan", 2),
    ("scatterv", 2),
    ("split", 2),
    ("split_shared_node", 0),
    ("refine_comm", 0),
];

/// Identifiers that name the caller's rank in this workspace's code.
const RANK_IDENTS: [&str; 4] = ["rank", "my_rank", "world_rank", "me"];

pub fn check(ctx: &FileCtx<'_>, out: &mut Vec<Diagnostic>) {
    check_items(ctx, &ctx.ast.items, out);
}

fn check_items(ctx: &FileCtx<'_>, items: &[Item], out: &mut Vec<Diagnostic>) {
    for item in flat_items(items, false) {
        if let ItemKind::Fn { body: Some(b), .. } = &item.kind {
            check_block(ctx, b, false, out);
        }
    }
}

fn check_block(ctx: &FileCtx<'_>, block: &Block, divergent: bool, out: &mut Vec<Diagnostic>) {
    for node in &block.nodes {
        match node {
            Node::Leaf(toks) => {
                if divergent {
                    flag_collectives(ctx, toks, out);
                }
            }
            Node::Branch { cond, body, els } => {
                if divergent {
                    flag_collectives(ctx, cond, out);
                }
                let d = divergent || mentions_rank(cond);
                check_block(ctx, body, d, out);
                if let Some(e) = els {
                    check_block(ctx, e, d, out);
                }
            }
            Node::Loop { head, body } => {
                if divergent {
                    flag_collectives(ctx, head, out);
                }
                // A rank-dependent head means rank-dependent trip counts:
                // a collective in the body runs a different number of
                // times per rank, which is the same protocol divergence.
                let d = divergent || mentions_rank(head);
                check_block(ctx, body, d, out);
            }
            Node::Match { scrut, arms } => {
                if divergent {
                    flag_collectives(ctx, scrut, out);
                }
                let d = divergent || mentions_rank(scrut);
                for arm in arms {
                    check_block(ctx, &arm.body, d, out);
                }
            }
            Node::Block(b) => check_block(ctx, b, divergent, out),
            Node::Item(item) => check_items(ctx, std::slice::from_ref(item), out),
        }
    }
}

/// Does a condition/head/scrutinee token run depend on the caller's rank?
/// Rank mentions inside the argument parentheses of a `split*` call are
/// sanctioned (color-by-rank) and do not count.
fn mentions_rank(run: &[Tok]) -> bool {
    let mut skip_depth = 0i32;
    let mut i = 0usize;
    while i < run.len() {
        let t = &run[i];
        if skip_depth > 0 {
            match &t.kind {
                TokKind::Punct('(') => skip_depth += 1,
                TokKind::Punct(')') => skip_depth -= 1,
                _ => {}
            }
            i += 1;
            continue;
        }
        if let Some(name) = t.ident() {
            if name.starts_with("split") && run.get(i + 1).is_some_and(|t| t.is_punct('(')) {
                skip_depth = 1;
                i += 2;
                continue;
            }
            if RANK_IDENTS.contains(&name) {
                return true;
            }
        }
        i += 1;
    }
    false
}

fn flag_collectives(ctx: &FileCtx<'_>, run: &[Tok], out: &mut Vec<Diagnostic>) {
    for call in method_calls(run) {
        let is_collective = COLLECTIVES
            .iter()
            .any(|&(name, arity)| name == call.name && arity == call.args.len());
        if is_collective {
            out.push(Diagnostic {
                path: ctx.path.to_string(),
                line: call.tok.line,
                col: call.tok.col,
                rule: "rank-divergent-collective",
                msg: format!(
                    "collective `{}` inside a rank-dependent branch: ranks taking the \
                     other path never reach it, and the collective deadlocks (SPMD \
                     protocol requires every rank to reach the same collectives in the \
                     same order)",
                    call.name
                ),
                suggestion: Some(
                    "hoist the collective out of the branch; keep only rank-dependent \
                     *data* (e.g. `bcast(root, if rank == root { Some(v) } else { None })`) \
                     inside, or switch to point-to-point messages"
                        .to_string(),
                ),
            });
        }
    }
}
