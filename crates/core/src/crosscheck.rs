//! Cross-checking mined semantics against test behaviour (§5 Q1).
//!
//! "We consider incorporating a cross-checking mechanism that validates
//! mined semantics against test cases, ensuring that inferred rules are
//! grounded in actual system behavior." A rule is *grounded* on the fixed
//! version when:
//!
//! 1. it is statically well-formed for the codebase
//!    ([`lisa_oracle::validate_rule`]), and
//! 2. running the test suite, at least one arrival at the target
//!    *satisfies* the rule outright (`π ⟹ C`) — the fixed path exists
//!    and the rule describes it.
//!
//! Hallucinated rules (flipped operators, renamed variables) fail one of
//! the two: no healthy execution implies a wrong condition. Weakened
//! rules (a dropped conjunct) still ground — they are imprecise, not
//! wrong, and the reliability experiment scores them separately.

use lisa_analysis::{execution_tree_filtered, CallGraph, TreeLimits};
use lisa_concolic::{run_tests, Policy, SystemVersion};
use lisa_oracle::{validate_rule, SemanticRule, ValidationError};

use crate::pipeline::rule_aliases;

/// Cross-check outcome.
#[derive(Debug, Clone)]
pub struct CrossCheck {
    pub grounded: bool,
    /// Static well-formedness findings (non-empty ⇒ ungrounded).
    pub static_errors: Vec<ValidationError>,
    /// Arrivals at the target observed while running the suite.
    pub hits: usize,
    /// Arrivals whose path condition implies the rule.
    pub satisfying_hits: usize,
    pub reason: String,
}

/// Ground `rule` against the (fixed) `version` using its full test suite.
pub fn cross_check(version: &SystemVersion, rule: &SemanticRule) -> CrossCheck {
    let static_errors = validate_rule(&version.program, rule);
    if !static_errors.is_empty() {
        let reason = format!(
            "statically ill-formed: {}",
            static_errors.iter().map(|e| e.to_string()).collect::<Vec<_>>().join("; ")
        );
        return CrossCheck { grounded: false, static_errors, hits: 0, satisfying_hits: 0, reason };
    }
    let graph = CallGraph::build(&version.program);
    let tree = execution_tree_filtered(&graph, &rule.target, TreeLimits::default(), &|f| {
        f.starts_with("test_")
    });
    // Builtin-family rules whose fix *removed* every matching site are
    // grounded by absence: the codebase trivially satisfies them.
    if tree.chains.is_empty() && !matches!(rule.target, lisa_analysis::TargetSpec::Call { .. }) {
        return CrossCheck {
            grounded: true,
            static_errors,
            hits: 0,
            satisfying_hits: 0,
            reason: "no site matches the target — trivially satisfied".to_string(),
        };
    }
    let aliases = rule_aliases(&version.program, &graph, &tree, rule);
    let runs = run_tests(
        &version.program,
        &version.tests,
        &rule.target,
        &aliases,
        &Policy::RelevantOnly,
    );
    let mut hits = 0usize;
    let mut satisfying = 0usize;
    for run in &runs {
        for hit in &run.hits {
            hits += 1;
            if lisa_smt::implies(&hit.pi, &rule.condition) {
                satisfying += 1;
            }
        }
    }
    let grounded = satisfying > 0;
    let reason = if hits == 0 {
        "no test reaches the target statement".to_string()
    } else if satisfying == 0 {
        format!("{hits} arrival(s), none satisfies the rule — likely hallucinated")
    } else {
        format!("{satisfying}/{hits} arrival(s) satisfy the rule")
    };
    CrossCheck { grounded, static_errors, hits, satisfying_hits: satisfying, reason }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lisa_analysis::TargetSpec;
    use lisa_lang::Program;

    const FIXED: &str = "struct Session { id: int, closing: bool }\n\
         global sessions: map<int, Session>;\n\
         fn create_ephemeral(s: Session, path: str) {}\n\
         fn touch_create(sid: int, path: str) {\n\
             let s: Session = sessions.get(sid);\n\
             if (s == null || s.closing) { return; }\n\
             create_ephemeral(s, path);\n\
         }\n\
         fn test_create_live() {\n\
             sessions.put(1, new Session { id: 1 });\n\
             touch_create(1, \"/a\");\n\
         }";

    fn version() -> SystemVersion {
        let p = Program::parse_single("zk", FIXED).expect("p");
        SystemVersion::new("fixed", p.clone(), lisa_concolic::discover_tests(&p, "test_"))
    }

    fn rule(cond: &str) -> SemanticRule {
        SemanticRule::new(
            "R",
            "d",
            TargetSpec::Call { callee: "create_ephemeral".into() },
            cond,
        )
        .expect("rule")
    }

    #[test]
    fn faithful_rule_grounds() {
        let c = cross_check(&version(), &rule("s != null && s.closing == false"));
        assert!(c.grounded, "{}", c.reason);
        assert_eq!(c.hits, 1);
        assert_eq!(c.satisfying_hits, 1);
    }

    #[test]
    fn flipped_rule_fails_grounding() {
        // Hallucination: requires the session to BE closing.
        let c = cross_check(&version(), &rule("s != null && s.closing == true"));
        assert!(!c.grounded);
        assert_eq!(c.hits, 1);
        assert_eq!(c.satisfying_hits, 0);
    }

    #[test]
    fn renamed_variable_fails_statically() {
        let c = cross_check(&version(), &rule("sess_old != null"));
        assert!(!c.grounded);
        assert!(!c.static_errors.is_empty());
    }

    #[test]
    fn weakened_rule_still_grounds() {
        let c = cross_check(&version(), &rule("s != null"));
        assert!(c.grounded, "{}", c.reason);
    }

    #[test]
    fn unreachable_target_reports_no_hits() {
        let mut v = version();
        v.tests.clear();
        let c = cross_check(&v, &rule("s != null"));
        assert!(!c.grounded);
        assert_eq!(c.hits, 0);
        assert!(c.reason.contains("no test"));
    }
}
