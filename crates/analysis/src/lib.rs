//! # ged-analysis — pre-deployment static analysis of constraint sets
//!
//! The paper's Section 5 decision procedures (satisfiability and
//! implication of GEDs via the chase) turned into an engineering gate: a
//! two-layer analyzer that runs *before* a validator deploys a Σ, so an
//! inconsistent rule set is rejected outright and a redundant one is
//! pruned before it burns seeding and delta-path time.
//!
//! * **Layer 1 — structural linter** (the `lint` module,
//!   family-agnostic): works over any [`Constraint`]'s pattern and optional
//!   [`literal_view`](ged_core::constraint::Constraint::literal_view).
//!   Catches unbound variables in literals, contradictory premises,
//!   conclusions entailed by premises (rules that can never produce a
//!   violation), duplicate rules, duplicate/shadowed disjuncts in
//!   disjunctive conclusions, disconnected patterns (cartesian blowup),
//!   and wildcard-label cost — optionally cross-referenced with the
//!   engine's per-rule metrics attribution via [`analyze_with_costs`].
//! * **Layer 2 — semantic analysis** (the `semantic` module): the chase
//!   fragment (`as_chase_ged`) goes through the `Sat(Σ)` gate
//!   (`reason::is_satisfiable`, Theorem 2) and implication-based
//!   minimization (`reason::implies`, Theorem 4), flagging implied and
//!   chase-proved-dead rules as prunable.
//!
//! The entry point is [`analyze`], returning an [`AnalysisReport`] of
//! severity-ranked [`Diagnostic`]s plus the [`Pruned`] set — the rules
//! the engine's `IncrementalValidator::with_analysis` drops when pruning
//! is enabled. The soundness argument for pruning is DESIGN.md §7.

#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![warn(missing_debug_implementations)]

mod lint;
mod report;
mod semantic;

pub use report::{AnalysisReport, Diagnostic, LintKind, Pruned, RuleCost, Severity};

use ged_core::constraint::Constraint;
use std::collections::BTreeMap;

/// Analyze a constraint set: run the structural linter and the semantic
/// (chase) layer, returning severity-ranked diagnostics and the prunable
/// rule set.
pub fn analyze<C: Constraint>(sigma: &[C]) -> AnalysisReport {
    analyze_with_costs(sigma, &[])
}

/// [`analyze`], additionally cross-referencing measured per-rule matching
/// costs (the engine's `MetricsSnapshot::rules` attribution, mapped to
/// [`RuleCost`]): wildcard-label notes on rules that dominate measured
/// match attempts are upgraded to warnings.
pub fn analyze_with_costs<C: Constraint>(sigma: &[C], costs: &[RuleCost]) -> AnalysisReport {
    let mut diagnostics = Vec::new();
    let mut prunable: BTreeMap<usize, LintKind> = BTreeMap::new();
    lint::structural(sigma, costs, &mut diagnostics, &mut prunable);
    let outcome = semantic::semantic(sigma, &mut diagnostics, &mut prunable);
    // Most severe first; ties keep Σ order (Σ-level findings lead).
    diagnostics.sort_by(|a, b| {
        b.severity
            .cmp(&a.severity)
            .then(a.index.unwrap_or(0).cmp(&b.index.unwrap_or(0)))
    });
    let prunable = prunable
        .into_iter()
        .map(|(index, why)| Pruned {
            index,
            name: sigma[index].name().to_string(),
            why,
        })
        .collect();
    AnalysisReport {
        rules: sigma.len(),
        chase_eligible: outcome.eligible,
        diagnostics,
        prunable,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ged_core::ged::Ged;
    use ged_core::literal::Literal;
    use ged_graph::sym;
    use ged_pattern::{parse_pattern, Pattern, Var};

    fn q1() -> Pattern {
        parse_pattern("user(x)").unwrap()
    }

    fn q2() -> Pattern {
        parse_pattern("user(x) -[follows]-> user(y)").unwrap()
    }

    #[test]
    fn clean_sigma_is_quiet() {
        let sigma = vec![Ged::new(
            "ok",
            q2(),
            vec![Literal::constant(Var(0), sym("status"), "a")],
            vec![Literal::constant(Var(1), sym("watch"), 1)],
        )];
        let r = analyze(&sigma);
        assert!(r.diagnostics.is_empty(), "{r}");
        assert!(r.prunable.is_empty());
        assert_eq!(r.rules, 1);
        assert_eq!(r.chase_eligible, 1);
    }

    #[test]
    fn contradictory_premises_flag_and_prune() {
        let sigma = vec![Ged::new(
            "dead",
            q1(),
            vec![
                Literal::constant(Var(0), sym("kind"), "bot"),
                Literal::constant(Var(0), sym("kind"), "human"),
            ],
            vec![Literal::constant(Var(0), sym("level"), 9)],
        )];
        let r = analyze(&sigma);
        let d = r
            .diagnostics
            .iter()
            .find(|d| d.kind == LintKind::ContradictoryPremises)
            .expect("contradiction flagged");
        assert_eq!(d.severity, Severity::Warning);
        assert!(r.is_prunable(0));
    }

    #[test]
    fn entailed_conclusion_flags_the_dead_rule() {
        let sigma = vec![Ged::new(
            "idempotent",
            q1(),
            vec![Literal::constant(Var(0), sym("status"), "a")],
            vec![Literal::constant(Var(0), sym("status"), "a")],
        )];
        let r = analyze(&sigma);
        assert!(r
            .diagnostics
            .iter()
            .any(|d| d.kind == LintKind::EntailedConclusion && d.severity == Severity::Warning));
        assert!(r.is_prunable(0));
    }

    #[test]
    fn implied_rule_is_found_by_minimization() {
        let a = Ged::new(
            "a⇒b",
            q1(),
            vec![Literal::constant(Var(0), sym("a"), 1)],
            vec![Literal::constant(Var(0), sym("b"), 1)],
        );
        let b = Ged::new(
            "b⇒c",
            q1(),
            vec![Literal::constant(Var(0), sym("b"), 1)],
            vec![Literal::constant(Var(0), sym("c"), 1)],
        );
        let implied = Ged::new(
            "a⇒c",
            q1(),
            vec![Literal::constant(Var(0), sym("a"), 1)],
            vec![Literal::constant(Var(0), sym("c"), 1)],
        );
        let r = analyze(&[a, b, implied]);
        let d = r
            .diagnostics
            .iter()
            .find(|d| d.kind == LintKind::ImpliedRule)
            .expect("transitive rule flagged");
        assert_eq!(d.index, Some(2));
        assert_eq!(r.prunable.len(), 1);
        assert_eq!(r.prunable[0].index, 2);
        assert_eq!(r.prunable[0].why, LintKind::ImpliedRule);
    }

    #[test]
    fn duplicate_rule_flags_the_second_copy() {
        let mk = |name: &str| {
            Ged::new(
                name,
                q2(),
                vec![Literal::constant(Var(0), sym("status"), "a")],
                vec![Literal::constant(Var(1), sym("watch"), 1)],
            )
        };
        let r = analyze(&[mk("original"), mk("copy")]);
        let d = r
            .diagnostics
            .iter()
            .find(|d| d.kind == LintKind::DuplicateRule)
            .expect("duplicate flagged");
        assert_eq!(d.index, Some(1));
        assert!(r.is_prunable(1));
        assert!(!r.is_prunable(0));
    }

    #[test]
    fn unsatisfiable_sigma_is_an_error() {
        let r1 = Ged::new(
            "plan:free",
            q1(),
            vec![],
            vec![Literal::constant(Var(0), sym("plan"), "free")],
        );
        let r2 = Ged::new(
            "plan:pro",
            q1(),
            vec![],
            vec![Literal::constant(Var(0), sym("plan"), "pro")],
        );
        let r = analyze(&[r1, r2]);
        assert!(r.has_errors());
        let d = r
            .diagnostics
            .iter()
            .find(|d| d.kind == LintKind::UnsatisfiableSigma)
            .expect("unsat flagged");
        assert_eq!(d.severity, Severity::Error);
        assert!(d.rule.is_none());
        // The gate stops the layer: no implied-rule noise from an
        // inconsistent Σ.
        assert!(r
            .diagnostics
            .iter()
            .all(|d| d.kind != LintKind::ImpliedRule));
    }

    #[test]
    fn forbidding_rules_do_not_trip_the_sat_gate() {
        // A forbidding GED asserts its pattern never matches; strong
        // satisfiability would reject it by construction, so the gate
        // must exclude it (Example 3's φ4 is such a rule).
        let f = Ged::forbidding("no-follow", q2(), vec![]);
        let r = analyze(&[f]);
        assert!(!r.has_errors(), "{r}");
        assert_eq!(r.chase_eligible, 1);
    }

    #[test]
    fn disconnected_and_wildcard_patterns_get_notes() {
        let q = parse_pattern("user(x); user(y)").unwrap();
        let disconnected = Ged::new(
            "pair",
            q,
            vec![],
            vec![Literal::vars(Var(0), sym("a"), Var(1), sym("a"))],
        );
        let wild = parse_pattern("_(x)").unwrap();
        let wildcard = Ged::new(
            "any",
            wild,
            vec![Literal::constant(Var(0), sym("f"), 1)],
            vec![Literal::constant(Var(0), sym("g"), 1)],
        );
        let r = analyze(&[disconnected, wildcard]);
        assert!(r
            .diagnostics
            .iter()
            .any(|d| d.kind == LintKind::DisconnectedPattern && d.severity == Severity::Note));
        assert!(r
            .diagnostics
            .iter()
            .any(|d| d.kind == LintKind::WildcardLabel && d.severity == Severity::Note));
        assert!(!r.has_errors());
        assert!(r.prunable.is_empty());
    }

    #[test]
    fn measured_costs_upgrade_the_dominant_wildcard() {
        let wild = parse_pattern("_(x)").unwrap();
        let hot = Ged::new(
            "hot",
            wild,
            vec![Literal::constant(Var(0), sym("f"), 1)],
            vec![Literal::constant(Var(0), sym("g"), 1)],
        );
        let costs = vec![
            RuleCost {
                name: "hot".to_string(),
                match_attempts: 900,
            },
            RuleCost {
                name: "other".to_string(),
                match_attempts: 100,
            },
        ];
        let r = analyze_with_costs(&[hot], &costs);
        let d = r
            .diagnostics
            .iter()
            .find(|d| d.kind == LintKind::WildcardLabel)
            .expect("wildcard flagged");
        assert_eq!(d.severity, Severity::Warning);
        assert!(d.message.contains("900"), "{}", d.message);
    }

    #[test]
    fn report_renders_display_and_json() {
        let sigma = vec![Ged::new(
            "idempotent",
            q1(),
            vec![Literal::constant(Var(0), sym("status"), "a")],
            vec![Literal::constant(Var(0), sym("status"), "a")],
        )];
        let r = analyze(&sigma);
        let text = r.to_string();
        assert!(text.contains("1 rule(s)"), "{text}");
        assert!(text.contains("entailed-conclusion"), "{text}");
        let json = ged_obs::Json::parse(&format!("{:#}", r.to_json())).unwrap();
        let diagnostics = json.get_arr("diagnostics").unwrap();
        assert!(
            diagnostics
                .iter()
                .any(|d| d.get_str("kind") == Some("entailed-conclusion")),
            "{json}"
        );
        assert!(json.get_arr("prunable").is_some(), "{json}");
    }

    /// Every leaf of a JSON document as `path: Kind`, in document order;
    /// array elements fold into `[]` and repeats are listed once.
    fn key_paths(json: &ged_obs::Json) -> Vec<String> {
        use ged_obs::Json;
        fn walk(j: &Json, path: &str, out: &mut Vec<String>) {
            let kind = match j {
                Json::Obj(fields) => {
                    for (k, v) in fields {
                        let sep = if path.is_empty() { "" } else { "." };
                        walk(v, &format!("{path}{sep}{k}"), out);
                    }
                    return;
                }
                Json::Arr(items) => {
                    for v in items {
                        walk(v, &format!("{path}[]"), out);
                    }
                    return;
                }
                Json::Null => "Null",
                Json::Bool(_) => "Bool",
                Json::Int(_) => "Int",
                Json::Float(_) => "Float",
                Json::Str(_) => "Str",
            };
            let leaf = format!("{path}: {kind}");
            if !out.contains(&leaf) {
                out.push(leaf);
            }
        }
        let mut out = Vec::new();
        walk(json, "", &mut out);
        out
    }

    /// The report's JSON schema as collectors read it: every key path in
    /// order, with its leaf kind — a rule-level finding with a prunable
    /// rule, then a Σ-level finding (no rule, no index).
    #[test]
    fn report_json_schema_is_pinned() {
        let idempotent = Ged::new(
            "idempotent",
            q1(),
            vec![Literal::constant(Var(0), sym("status"), "a")],
            vec![Literal::constant(Var(0), sym("status"), "a")],
        );
        let plan = |p: &str| {
            Ged::new(
                format!("plan:{p}"),
                q1(),
                vec![],
                vec![Literal::constant(Var(0), sym("plan"), p)],
            )
        };
        let mut paths = key_paths(&analyze(&[idempotent]).to_json());
        paths.extend(key_paths(&analyze(&[plan("free"), plan("pro")]).to_json()));
        let expected = vec![
            "rules: Int",
            "chase_eligible: Int",
            "errors: Int",
            "warnings: Int",
            "notes: Int",
            "diagnostics[].severity: Str",
            "diagnostics[].kind: Str",
            "diagnostics[].rule: Str",
            "diagnostics[].index: Int",
            "diagnostics[].message: Str",
            "prunable[].index: Int",
            "prunable[].rule: Str",
            "prunable[].why: Str",
            "rules: Int",
            "chase_eligible: Int",
            "errors: Int",
            "warnings: Int",
            "notes: Int",
            "diagnostics[].severity: Str",
            "diagnostics[].kind: Str",
            "diagnostics[].rule: Null",
            "diagnostics[].index: Null",
            "diagnostics[].message: Str",
        ];
        assert_eq!(paths, expected);
    }
}
