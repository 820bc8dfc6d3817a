//! Tag rules: `tag-discipline` (tags are named constants) and
//! `user-tag-range` (user tags stay below `comm::MAX_USER_TAG`, and the
//! reserved-tag `*_raw` transport methods of `Communicator` stay inside
//! the backend substrate).
//!
//! The collective tag space at and above 2^48 is how PR 5's layered
//! collectives keep protocol traffic from colliding with user messages;
//! a user tag wandering into it corrupts a collective on some other
//! rank. `user-tag-range` evaluates `const` chains (`BASE + k`,
//! `1 << 48`) through the file's const table, so the violation is caught
//! at the declaration and at the call site even when no literal appears.

use super::{const_eval, method_calls, walk_runs, FileCtx, MAX_USER_TAG};
use crate::ast::{flat_items, ItemKind};
use crate::diag::Diagnostic;
use crate::lexer::TokKind;

/// Comm methods whose tag argument must be a named constant, with the
/// zero-based position of the tag argument. Covers both the user-facing
/// point-to-point methods and the `*_raw` transport methods.
const TAGGED_METHODS: [(&str, usize); 10] = [
    ("send_vec", 1),
    ("send_slice", 1),
    ("send_val", 1),
    ("recv_vec", 1),
    ("recv_val", 1),
    ("send_raw", 1),
    ("send_slice_raw", 1),
    ("recv_into_raw", 1),
    ("recv_vec_raw", 1),
    ("recv_val_raw", 1),
];

/// `tag-discipline`: tags passed to comm methods must be named constants,
/// so tag assignments are searchable and collision-auditable.
pub fn check_discipline(ctx: &FileCtx<'_>, out: &mut Vec<Diagnostic>) {
    walk_runs(ctx.ast, false, &mut |run| {
        for call in method_calls(run) {
            let Some(&(_, tag_idx)) = TAGGED_METHODS.iter().find(|(m, _)| *m == call.name) else {
                continue;
            };
            let Some(arg) = call.args.get(tag_idx) else {
                continue;
            };
            if let [only] = arg {
                if matches!(only.kind, TokKind::Int(_)) {
                    out.push(Diagnostic {
                        path: ctx.path.to_string(),
                        line: only.line,
                        col: only.col,
                        rule: "tag-discipline",
                        msg: format!("literal tag passed to `{}`", call.name),
                        suggestion: Some(
                            "define a named `const ..._TAG: u64` so tag assignments are \
                             searchable and collision-free"
                                .to_string(),
                        ),
                    });
                }
            }
        }
    });
}

/// `user-tag-range`: no tag at or above `MAX_USER_TAG` (2^48) reaches a
/// comm call or a `const ..TAG..` declaration, and the reserved-tag
/// `*_raw` surface is not called outside the backend substrate crates.
pub fn check_user_range(ctx: &FileCtx<'_>, out: &mut Vec<Diagnostic>) {
    // Const declarations whose name marks them as tags.
    check_const_items(ctx, out);

    walk_runs(ctx.ast, false, &mut |run| {
        for call in method_calls(run) {
            // Reserved-tag substrate surface.
            if call.name.ends_with("_raw") || call.name == "next_coll_tag" {
                out.push(Diagnostic {
                    path: ctx.path.to_string(),
                    line: call.tok.line,
                    col: call.tok.col,
                    rule: "user-tag-range",
                    msg: format!(
                        "`{}` call outside the comm backend substrate: the `*_raw` transport \
                         methods bypass the user-tag check and may collide with collective \
                         protocol traffic",
                        call.name
                    ),
                    suggestion: Some(
                        "use the user-tag `Communicator` surface; reserved-tag plumbing \
                         belongs in `crates/comm` and the three backend transports"
                            .to_string(),
                    ),
                });
                continue;
            }
            // Tag arguments that statically evaluate into the reserved space.
            let Some(&(_, tag_idx)) = TAGGED_METHODS.iter().find(|(m, _)| *m == call.name) else {
                continue;
            };
            let Some(arg) = call.args.get(tag_idx) else {
                continue;
            };
            if let Some(v) = const_eval(arg, &ctx.consts) {
                if v >= MAX_USER_TAG {
                    let anchor = arg.first().unwrap_or(call.tok);
                    out.push(Diagnostic {
                        path: ctx.path.to_string(),
                        line: anchor.line,
                        col: anchor.col,
                        rule: "user-tag-range",
                        msg: format!(
                            "tag {v} passed to `{}` is in the reserved collective tag space \
                             (>= MAX_USER_TAG = 2^48)",
                            call.name
                        ),
                        suggestion: Some(
                            "user tags must stay below `comm::MAX_USER_TAG`; pick a small \
                             named constant"
                                .to_string(),
                        ),
                    });
                }
            }
        }
    });
}

/// Flag `const`/`static` declarations whose name contains `TAG` and whose
/// initializer evaluates at or above the reserved boundary. The name
/// filter keeps hash mixers and sign masks (large by nature) out of scope.
fn check_const_items(ctx: &FileCtx<'_>, out: &mut Vec<Diagnostic>) {
    for item in flat_items(&ctx.ast.items, false) {
        let ItemKind::Const {
            name,
            value,
            line,
            col,
        } = &item.kind
        else {
            continue;
        };
        match const_eval(value, &ctx.consts) {
            Some(v) if v >= MAX_USER_TAG && name.contains("TAG") => out.push(Diagnostic {
                path: ctx.path.to_string(),
                line: *line,
                col: *col,
                rule: "user-tag-range",
                msg: format!(
                    "`const {name}` = {v} is in the reserved collective tag space \
                     (>= MAX_USER_TAG = 2^48)"
                ),
                suggestion: Some(
                    "user tag constants must stay below `comm::MAX_USER_TAG`".to_string(),
                ),
            }),
            _ => {}
        }
    }
}
