//! `raii-span`: span guard discipline (warn severity).
//!
//! Trace accounting relies on RAII: a [`SpanGuard`] records its duration
//! and restores its parent on drop, so guards must nest LIFO. This pass
//! flags two anti-patterns inside one function:
//!
//! * a span guard bound to `_` — it drops immediately and measures
//!   nothing;
//! * explicit `drop(..)` of span guards out of LIFO order — the parent
//!   span closes while a child is still open, corrupting trace nesting.

use super::{matching_close, FileCtx, Finding};
use crate::lexer::TokKind;
use crate::tree::FlatTok;
use crate::Rule;

pub(crate) fn run(ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    if ctx.test_like {
        return;
    }
    for f in &ctx.index.functions {
        if f.is_test {
            continue;
        }
        scan_body(&f.body, out);
    }
}

#[derive(Debug)]
struct LiveSpan {
    binding: String,
    name_key: String,
    depth: u32,
}

/// The name key of a span call's first argument: the last identifier of
/// the argument path (`names::SPAN_SESSION` → `SPAN_SESSION`), or
/// `"<literal>"` for an inline string (obs-names flags those separately).
fn name_key(body: &[FlatTok], open: usize) -> String {
    let close = matching_close(body, open);
    let mut key = "<literal>".to_string();
    for t in &body[open + 1..close] {
        if t.is_punct(",") {
            break;
        }
        if t.kind == TokKind::Ident {
            key = t.text.clone();
        }
    }
    key
}

fn scan_body(body: &[FlatTok], out: &mut Vec<Finding>) {
    let mut live: Vec<LiveSpan> = Vec::new();
    let mut stmt_start = 0usize;
    for i in 0..body.len() {
        let t = &body[i];
        if t.is_punct(";") || t.is_punct("{") {
            stmt_start = i + 1;
            continue;
        }
        if t.is_punct("}") {
            live.retain(|s| s.depth <= t.depth);
            stmt_start = i + 1;
            continue;
        }
        if t.kind != TokKind::Ident {
            continue;
        }
        // span guard opened: `let [mut] NAME = … .span(KEY …)`
        if t.text == "span"
            && i > 0
            && body[i - 1].is_punct(".")
            && body.get(i + 1).is_some_and(|n| n.is_punct("("))
        {
            let key = name_key(body, i + 1);
            let stmt = &body[stmt_start..i];
            if stmt.first().is_some_and(|s| s.is_ident("let")) {
                let mut b = 1usize;
                if stmt.get(b).is_some_and(|s| s.is_ident("mut")) {
                    b += 1;
                }
                if let Some(bind) = stmt.get(b) {
                    if bind.is_ident("_") {
                        out.push(Finding {
                            rule: Rule::RaiiSpan,
                            line: t.line,
                            message: "span guard bound to `_` drops immediately and measures \
                                      nothing (bind it `_g`-style for the scope)"
                                .to_string(),
                        });
                    } else if stmt.get(b + 1).is_some_and(|s| s.is_punct("=")) {
                        live.push(LiveSpan {
                            binding: bind.text.clone(),
                            name_key: key,
                            depth: t.depth,
                        });
                    }
                }
            }
            continue;
        }
        // explicit drop: must be the innermost live span guard
        if t.text == "drop"
            && body.get(i + 1).is_some_and(|n| n.is_punct("("))
            && body.get(i + 3).is_some_and(|n| n.is_punct(")"))
        {
            let Some(arg) = body.get(i + 2) else { continue };
            if let Some(pos) = live.iter().position(|s| s.binding == arg.text) {
                if pos != live.len() - 1 {
                    let inner = &live[live.len() - 1];
                    out.push(Finding {
                        rule: Rule::RaiiSpan,
                        line: t.line,
                        message: format!(
                            "span guard `{}` dropped while inner span `{}` ({}) is still \
                             open — drops must be LIFO to keep trace nesting correct",
                            arg.text, inner.binding, inner.name_key
                        ),
                    });
                }
                live.remove(pos);
            }
        }
    }
}
