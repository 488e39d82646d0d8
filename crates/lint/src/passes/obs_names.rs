//! `obs-names`: metric, event and span names at `rqp_obs` call sites must
//! be constants from `crates/obs/src/names.rs`, never inline literals, so
//! series names cannot drift between producers and readers.
//!
//! The token tree makes raw strings (`r#"…"#`) and multi-line calls
//! visible — both were blind spots of the line-lexical v1 rule.

use super::{is_seq, FileCtx, Finding};
use crate::lexer::TokKind;
use crate::Rule;

/// Methods whose first argument is a series name (called with a `.`).
const NAME_METHODS: [&str; 4] = ["counter", "gauge", "histogram", "span"];

pub(crate) fn run(ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    if ctx.test_like || ctx.obs_crate {
        return;
    }
    let code = &ctx.index.code;
    for (i, t) in code.iter().enumerate() {
        if t.kind != TokKind::Ident {
            continue;
        }
        let name = t.text.as_str();
        let method_site = NAME_METHODS.contains(&name) && i > 0 && code[i - 1].is_punct(".");
        let labeled_site = name == "labeled";
        let event_site = name == "Event" && is_seq(code, i, &["Event", "::", "new"]);
        let (call, arg_at) = if method_site || labeled_site {
            (name.to_string(), i + 1)
        } else if event_site {
            ("Event::new".to_string(), i + 3)
        } else {
            continue;
        };
        let open = code.get(arg_at).is_some_and(|n| n.is_punct("("));
        let literal_arg = code.get(arg_at + 1).is_some_and(|n| n.kind == TokKind::Str);
        if open && literal_arg {
            out.push(Finding {
                rule: Rule::ObsNames,
                line: t.line,
                message: format!(
                    "inline name literal at `{call}(…)` (declare it in crates/obs/src/names.rs)"
                ),
            });
        }
    }
}
