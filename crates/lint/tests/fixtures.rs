//! End-to-end checks of the rule scanners against seeded fixtures, plus
//! the self-hosting check: the workspace this linter ships in must itself
//! be clean.

use rqp_lint::{lint_source, lint_workspace, Rule};
use std::path::Path;

fn lint_fixture(name: &str) -> Vec<(Rule, usize)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures").join(name);
    let src = std::fs::read_to_string(&path).expect("fixture readable");
    // Synthetic location inside a deterministic crate so all four rules
    // apply, mirroring the single-file mode of the CLI.
    lint_source(&format!("crates/core/src/{name}"), &src)
        .into_iter()
        .map(|v| (v.rule, v.line))
        .collect()
}

#[test]
fn l1_fixture_reports_each_panic_site_once() {
    let got = lint_fixture("violation_l1.rs");
    assert_eq!(
        got,
        vec![
            (Rule::NoPanic, 4),  // .unwrap()
            (Rule::NoPanic, 8),  // .expect(
            (Rule::NoPanic, 12), // panic!
            (Rule::NoPanic, 16), // todo!
        ],
        "allow(...) escape and #[cfg(test)] module must be exempt"
    );
}

#[test]
fn l2_fixture_flags_costlike_comparisons_only() {
    let got = lint_fixture("violation_l2.rs");
    assert_eq!(
        got,
        vec![(Rule::FloatEq, 4), (Rule::FloatEq, 8), (Rule::FloatEq, 12)],
        "the integer == on line 16 must not fire"
    );
}

#[test]
fn l3_fixture_flags_inline_name_literals() {
    let got = lint_fixture("violation_l3.rs");
    assert_eq!(got, vec![(Rule::ObsNames, 4), (Rule::ObsNames, 8)]);
}

#[test]
fn l4_fixture_flags_clock_and_rng() {
    let got = lint_fixture("violation_l4.rs");
    assert_eq!(got, vec![(Rule::Determinism, 3), (Rule::Determinism, 4), (Rule::Determinism, 8)]);
}

#[test]
fn lock_order_fixture_reports_the_cycle_once() {
    let got = lint_fixture("violation_lock_order.rs");
    assert_eq!(
        got,
        vec![(Rule::LockOrder, 15)],
        "one cycle, anchored at the first conflicting acquisition site"
    );
}

#[test]
fn guard_blocking_fixture_flags_the_recv_under_guard() {
    let got = lint_fixture("violation_guard_blocking.rs");
    assert_eq!(got, vec![(Rule::GuardAcrossBlocking, 15)]);
}

#[test]
fn raii_span_fixture_flags_both_antipatterns() {
    let got = lint_fixture("violation_raii_span.rs");
    assert_eq!(
        got,
        vec![(Rule::RaiiSpan, 8), (Rule::RaiiSpan, 14)],
        "underscore binding, non-LIFO drop"
    );
}

#[test]
fn swallowed_fixture_flags_let_underscore_and_bare_drops() {
    let got = lint_fixture("violation_swallowed.rs");
    assert_eq!(
        got,
        vec![(Rule::SwallowedResult, 8), (Rule::SwallowedResult, 9), (Rule::SwallowedResult, 17),],
        "socket writes and a crate-local fallible fn"
    );
}

#[test]
fn bare_allow_fixture_is_flagged_but_still_waives() {
    let got = lint_fixture("violation_bare_allow.rs");
    assert_eq!(
        got,
        vec![(Rule::BareAllow, 5)],
        "the waive applies to the unwrap; the bare directive is the violation"
    );
}

#[test]
fn clean_fixture_is_clean() {
    assert_eq!(lint_fixture("clean.rs"), vec![]);
}

#[test]
fn workspace_is_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join("..");
    let violations = lint_workspace(&root).expect("workspace readable");
    assert!(
        violations.is_empty(),
        "workspace must lint clean:\n{}",
        violations.iter().map(ToString::to_string).collect::<Vec<_>>().join("\n")
    );
}
