//! The hand-broken IR corpus: each `corpus/*.iloc` file seeds exactly one
//! invariant violation, and the lint engine must report exactly the
//! expected rule code — no misses, no cascades, no collateral noise.

use epre_ir::parse_module;
use epre_lint::{lint_module, LintOptions, Severity};

/// Lint a corpus file and return `(distinct codes, has_errors)`.
fn lint(text: &str) -> (Vec<&'static str>, bool) {
    let m = parse_module(text).expect("corpus files are syntactically valid ILOC");
    let report = lint_module(&m, &LintOptions::default());
    (report.codes(), report.has_errors())
}

#[test]
fn phi_after_non_phi_fires_l005_only() {
    let (codes, errors) = lint(include_str!("corpus/phi_prefix.iloc"));
    assert_eq!(codes, vec!["L005"]);
    assert!(errors);
}

#[test]
fn use_before_def_fires_l020_only() {
    let (codes, errors) = lint(include_str!("corpus/use_before_def.iloc"));
    assert_eq!(codes, vec!["L020"]);
    assert!(errors);
}

#[test]
fn dangling_branch_target_fires_l002_only() {
    let (codes, errors) = lint(include_str!("corpus/dangling_target.iloc"));
    assert_eq!(codes, vec!["L002"]);
    assert!(errors);
}

#[test]
fn double_ssa_definition_fires_l010_only() {
    let text = include_str!("corpus/double_def.iloc");
    let (codes, errors) = lint(text);
    assert_eq!(codes, vec!["L010"]);
    assert!(errors);
    // First-definition-wins: the dominance rules must not cascade, so the
    // double definition is one diagnostic, not one per use.
    let m = parse_module(text).unwrap();
    let report = lint_module(&m, &LintOptions::default());
    assert_eq!(report.error_count(), 1, "{report}");
}

#[test]
fn unsplit_critical_edge_fires_l031_and_no_errors() {
    let (codes, errors) = lint(include_str!("corpus/critical_edge.iloc"));
    assert_eq!(codes, vec!["L031"]);
    assert!(!errors, "a critical edge is hygiene, not an invariant break");
}

#[test]
fn corpus_diagnostics_carry_locations_and_json() {
    let m = parse_module(include_str!("corpus/use_before_def.iloc")).unwrap();
    let report = lint_module(&m, &LintOptions::default());
    let d = &report.diagnostics[0];
    assert_eq!(d.severity(), Severity::Error);
    assert_eq!(d.location.function, "use_before_def");
    assert!(d.location.block.is_some());
    let json = report.to_json().encode();
    assert!(json.contains("\"code\":\"L020\""), "{json}");
    assert!(json.contains("\"function\":\"use_before_def\""), "{json}");
}

#[test]
fn corpus_json_reports_match_the_pinned_bytes() {
    let corpus = [
        include_str!("corpus/phi_prefix.iloc"),
        include_str!("corpus/use_before_def.iloc"),
        include_str!("corpus/dangling_target.iloc"),
        include_str!("corpus/double_def.iloc"),
        include_str!("corpus/critical_edge.iloc"),
    ];
    let rendered: Vec<String> = corpus
        .iter()
        .map(|text| lint_module(&parse_module(text).unwrap(), &LintOptions::default()).to_json().encode())
        .collect();
    assert_eq!(rendered, ["[{\"code\":\"L005\",\"rule\":\"phi-not-prefix\",\"severity\":\"error\",\"function\":\"phi_prefix\",\"block\":3,\"inst\":null,\"message\":\"φ for r3 after non-φ instruction\"}]", "[{\"code\":\"L020\",\"rule\":\"use-before-def\",\"severity\":\"error\",\"function\":\"use_before_def\",\"block\":3,\"inst\":0,\"message\":\"use of r2 in `r3 <- add.i r2, r1` before any definition reaches it\"}]", "[{\"code\":\"L002\",\"rule\":\"dangling-branch-target\",\"severity\":\"error\",\"function\":\"dangling\",\"block\":0,\"inst\":null,\"message\":\"terminator targets missing block b5\"}]", "[{\"code\":\"L010\",\"rule\":\"ssa-double-def\",\"severity\":\"error\",\"function\":\"double_def\",\"block\":3,\"inst\":null,\"message\":\"register r1 defined more than once\"}]", "[{\"code\":\"L031\",\"rule\":\"unsplit-critical-edge\",\"severity\":\"info\",\"function\":\"crit\",\"block\":0,\"inst\":null,\"message\":\"edge b0 -> b2 is critical and unsplit\"}]"]);
}
