//! The DPLL(T) driver: SAT core + theory solver in a lazy loop, plus the
//! high-level entailment queries LISA uses (implication, equivalence, and
//! the paper's complement-of-the-checker violation test).
//!
//! `refine` is the one SAT ↔ theory refinement loop in the crate: the
//! fresh [`Solver`] runs it on a throwaway SAT core, and
//! [`crate::SolverSession`] runs it on its persistent one. Both publish
//! their per-query `smt.*` telemetry through `publish_query`.

use std::time::Instant;

use crate::cnf::{Cnf, PLit};
use crate::model::{Model, Value};
use crate::nnf::preprocess;
use crate::sat::{SatOutcome, SatSolver, SatStats};
use crate::term::{Atom, Sort, Term};
use crate::theory::{self, TheoryLit, TheoryModel, TheoryResult};

/// Result of a satisfiability check.
#[derive(Debug)]
pub enum SatResult {
    Sat(Model),
    Unsat,
    /// A resource budget ran out before the search concluded. The query is
    /// neither proved nor refuted; gate layers must degrade gracefully
    /// (e.g. treat the chain as not-covered) rather than pick a side.
    Unknown { reason: String },
}

impl SatResult {
    pub fn is_sat(&self) -> bool {
        matches!(self, SatResult::Sat(_))
    }

    pub fn is_unknown(&self) -> bool {
        matches!(self, SatResult::Unknown { .. })
    }

    pub fn model(&self) -> Option<&Model> {
        match self {
            SatResult::Sat(m) => Some(m),
            _ => None,
        }
    }
}

/// Counters from one `check` call.
#[derive(Debug, Clone, Copy, Default)]
pub struct SolverStats {
    pub theory_rounds: u64,
    pub sat_decisions: u64,
    pub sat_conflicts: u64,
    pub sat_propagations: u64,
    pub sat_restarts: u64,
    pub sat_learned: u64,
    /// Tseitin clause count of the query (0 if preprocessing decided it).
    pub cnf_clauses: u64,
    /// Variable count of the CNF encoding.
    pub cnf_vars: u64,
}

impl SolverStats {
    /// Record `rounds` refinement rounds and the SAT-core work `sat` did
    /// since its counters read `since`. The CNF fields are left as set.
    pub(crate) fn record_work(&mut self, rounds: u64, sat: &SatSolver, since: SatStats) {
        self.theory_rounds = rounds;
        self.sat_decisions = sat.stats.decisions - since.decisions;
        self.sat_conflicts = sat.stats.conflicts - since.conflicts;
        self.sat_propagations = sat.stats.propagations - since.propagations;
        self.sat_restarts = sat.stats.restarts - since.restarts;
        self.sat_learned = sat.stats.learned_clauses - since.learned_clauses;
    }
}

/// Upper bound on lazy theory-refinement rounds per query: a safety
/// valve, far above anything the LISA workload reaches.
const MAX_ROUNDS: u64 = 100_000;

/// How one run of [`refine`] ended.
pub(crate) enum Refined {
    Unsat,
    /// The SAT budget ran out, or refinement did not converge within
    /// [`MAX_ROUNDS`]. Picking a side would be unsound for the violation
    /// check, so this is the honest "don't know".
    Unknown(String),
    /// A theory-consistent assignment: its theory literals and the
    /// theory's witness for them.
    Sat(Vec<TheoryLit>, TheoryModel),
}

/// The lazy DPLL(T) loop: solve under `assumptions`, check the
/// assignment's theory literals (`atom_of[v]` is the atom behind SAT
/// variable `v`), and block each theory-inconsistent assignment with a
/// clause, until the SAT core refutes, the theory accepts, or
/// [`MAX_ROUNDS`] rounds pass. Returns the outcome and the rounds run.
/// The `session` module doc says why this is sound on a persistent core.
pub(crate) fn refine(
    sat: &mut SatSolver,
    atom_of: &[Option<Atom>],
    assumptions: &[PLit],
) -> (Refined, u64) {
    for round in 1..=MAX_ROUNDS {
        let assignment = match sat.solve_under_assumptions(assumptions) {
            SatOutcome::Unsat => return (Refined::Unsat, round),
            SatOutcome::Unknown => {
                let reason = format!(
                    "sat budget exhausted ({} conflicts, {} decisions)",
                    sat.stats.conflicts, sat.stats.decisions
                );
                return (Refined::Unknown(reason), round);
            }
            SatOutcome::Sat(assignment) => assignment,
        };
        let (lits, lit_vars): (Vec<TheoryLit>, Vec<usize>) = atom_of
            .iter()
            .enumerate()
            .filter_map(|(v, atom)| Some(((atom.clone()?, assignment[v]), v)))
            .unzip();
        match theory::check(&lits) {
            TheoryResult::Consistent(tm) => return (Refined::Sat(lits, tm), round),
            TheoryResult::Conflict(indices) => {
                // Block this theory-inconsistent assignment: at least one
                // cited literal must flip, so the clause is their negations.
                let clause: Vec<PLit> = indices
                    .iter()
                    .map(|&i| lit_vars[i] as PLit * if lits[i].1 { -1 } else { 1 })
                    .collect();
                debug_assert!(!clause.is_empty(), "theory conflict cites literals");
                if clause.is_empty() || !sat.add_clause(clause) {
                    return (Refined::Unsat, round);
                }
            }
        }
    }
    let reason = format!("theory refinement did not converge within {MAX_ROUNDS} rounds");
    (Refined::Unknown(reason), MAX_ROUNDS)
}

/// Open one query's `smt.check` span and start its clock; `None` when no
/// telemetry is collected.
pub(crate) fn open_query() -> Option<(lisa_telemetry::SpanGuard, Instant)> {
    let on = lisa_telemetry::metrics_enabled() || lisa_telemetry::spans_enabled();
    on.then(|| (lisa_telemetry::span("smt.check"), Instant::now()))
}

/// Publish one query's `smt.*` counters and close the span
/// [`open_query`] opened. `result` is `None` for a session query that
/// falls back to the fresh path: that fresh check counts the query, its
/// outcome and its latency, so only the session's own work is added here.
pub(crate) fn publish_query(
    (mut span, started): (lisa_telemetry::SpanGuard, Instant),
    result: Option<&SatResult>,
    work: &SolverStats,
) {
    let (detail, outcome) = match result {
        Some(SatResult::Sat(_)) => ("sat", Some("smt.outcome.sat")),
        Some(SatResult::Unsat) => ("unsat", Some("smt.outcome.unsat")),
        Some(SatResult::Unknown { .. }) => ("unknown", Some("smt.outcome.unknown")),
        None => ("session-fallback", None),
    };
    if let Some(outcome) = outcome {
        lisa_telemetry::counter_add("smt.queries", 1);
        lisa_telemetry::counter_add(outcome, 1);
        lisa_telemetry::histogram_record("smt.query_us", started.elapsed().as_micros() as u64);
    }
    span.set_detail(detail);
    span.arg("rounds", work.theory_rounds);
    for (counter, key, value) in [
        ("smt.conflicts", "conflicts", work.sat_conflicts),
        ("smt.decisions", "decisions", work.sat_decisions),
        ("smt.propagations", "propagations", work.sat_propagations),
        ("smt.restarts", "restarts", work.sat_restarts),
        ("smt.clauses", "clauses", work.cnf_clauses),
    ] {
        lisa_telemetry::counter_add(counter, value);
        span.arg(key, value);
    }
    span.arg("learned", work.sat_learned);
    span.arg("vars", work.cnf_vars);
}

/// The solver. Stateless between `check` calls; construct once and reuse,
/// or use the free functions below.
#[derive(Debug, Default)]
pub struct Solver {
    pub stats: SolverStats,
    /// SAT-core conflict budget for the whole `check` call (`None` =
    /// unbounded). Exhaustion yields [`SatResult::Unknown`].
    pub max_conflicts: Option<u64>,
}

impl Solver {
    pub fn new() -> Self {
        Solver::default()
    }

    /// A solver with a conflict budget; use for gate calls that must
    /// terminate promptly even on adversarial formulas.
    pub fn with_conflict_budget(max_conflicts: u64) -> Self {
        Solver { max_conflicts: Some(max_conflicts), ..Solver::new() }
    }

    /// Decide satisfiability of `term` modulo the equality + difference
    /// theory.
    ///
    /// Per-query introspection (conflicts, decisions, propagations,
    /// restarts, CNF size, outcome) is published through `lisa-telemetry`
    /// when collection is on; the verdict itself never depends on it.
    pub fn check(&mut self, term: &Term) -> SatResult {
        let query = open_query();
        let result = self.check_inner(term);
        if let Some(query) = query {
            publish_query(query, Some(&result), &self.stats);
        }
        result
    }

    fn check_inner(&mut self, term: &Term) -> SatResult {
        self.stats = SolverStats::default();
        let pre = preprocess(term);
        match &pre {
            Term::True => {
                let mut m = Model::new();
                m.validated = true;
                return SatResult::Sat(m);
            }
            Term::False => return SatResult::Unsat,
            _ => {}
        }

        let mut cnf = Cnf::new();
        if cnf.assert_term(&pre).is_err() {
            return SatResult::Unsat;
        }
        self.stats.cnf_clauses = cnf.clauses.len() as u64;
        self.stats.cnf_vars = cnf.num_vars() as u64;
        let mut sat = SatSolver::new(cnf.num_vars());
        sat.max_conflicts = self.max_conflicts;
        for clause in &cnf.clauses {
            if !sat.add_clause(clause.clone()) {
                return SatResult::Unsat;
            }
        }

        let (refined, rounds) = refine(&mut sat, &cnf.atom_of, &[]);
        self.stats.record_work(rounds, &sat, SatStats::default());
        match refined {
            Refined::Unsat => SatResult::Unsat,
            Refined::Unknown(reason) => SatResult::Unknown { reason },
            Refined::Sat(lits, tm) => SatResult::Sat(witness(&pre, &lits, tm)),
        }
    }
}

/// The witness model for a theory-consistent assignment of `pre`'s
/// atoms: boolean variables from the literals, the rest from the theory
/// model, and a default for every variable neither mentions.
fn witness(pre: &Term, lits: &[TheoryLit], tm: TheoryModel) -> Model {
    let mut model = Model::new();
    let bools = lits.iter().filter_map(|(atom, value)| match atom {
        Atom::BoolVar(v) => Some((v.clone(), Value::Bool(*value))),
        _ => None,
    });
    let ints = tm.ints.into_iter().map(|(k, v)| (k, Value::Int(v)));
    let refs = tm.refs.into_iter().map(|(k, v)| (k, Value::Ref(v)));
    let strs = tm.strs.into_iter().map(|(k, v)| (k, Value::Str(v)));
    for (var, value) in bools.chain(ints).chain(refs).chain(strs) {
        model.set(var, value);
    }
    for (var, sort) in pre.vars() {
        if model.get(&var).is_none() {
            let value = match sort {
                Sort::Bool => Value::Bool(false),
                Sort::Int => Value::Int(0),
                Sort::Ref => Value::Ref(None),
                Sort::Str => Value::Str(String::new()),
            };
            model.set(var, value);
        }
    }
    model.validated = model.eval(pre);
    model
}

/// Is `term` satisfiable?
pub fn is_sat(term: &Term) -> bool {
    Solver::new().check(term).is_sat()
}

/// Is `term` valid (true under every assignment)?
pub fn is_valid(term: &Term) -> bool {
    !is_sat(&term.clone().not())
}

/// Does `premise` entail `conclusion`?
pub fn implies(premise: &Term, conclusion: &Term) -> bool {
    !is_sat(&Term::and([premise.clone(), conclusion.clone().not()]))
}

/// Are the two terms logically equivalent?
pub fn equivalent(a: &Term, b: &Term) -> bool {
    implies(a, b) && implies(b, a)
}

/// The paper's violation test (§3.2): a trace with path condition `pi`
/// violates the checker formula `checker` iff the trace "fulfills the
/// complement of the checker formula" — i.e. `pi ∧ ¬checker` is
/// satisfiable. A condition the trace never constrains is thereby treated
/// as possibly-false (a *missing check*), exactly as the paper requires.
///
/// Returns the witness model when violated (the concrete shape of the
/// missing-check counterexample), `None` when the trace is verified.
pub fn violates(pi: &Term, checker: &Term) -> Option<Model> {
    match Solver::new().check(&Term::and([pi.clone(), checker.clone().not()])) {
        SatResult::Sat(m) => Some(m),
        _ => None,
    }
}

/// Three-valued outcome of a budgeted violation query.
#[derive(Debug, Clone)]
pub enum ViolationOutcome {
    /// `pi ∧ ¬checker` is satisfiable; the witness model is attached.
    Violated(Model),
    /// `pi ∧ ¬checker` is unsatisfiable: the path provably establishes
    /// the checker.
    Verified,
    /// The solver ran out of budget; the query is undecided.
    Unknown { reason: String },
}

/// Budgeted variant of [`violates`]: same query, but the SAT core gives up
/// after `max_conflicts` conflicts (when `Some`) instead of running to
/// completion. An exhausted budget is reported as
/// [`ViolationOutcome::Unknown`] so the gate can degrade the chain to
/// not-covered rather than inventing a verdict.
pub fn violates_budgeted(
    pi: &Term,
    checker: &Term,
    max_conflicts: Option<u64>,
) -> ViolationOutcome {
    let query = Term::and([pi.clone(), checker.clone().not()]);
    match (Solver { max_conflicts, ..Solver::new() }).check(&query) {
        SatResult::Sat(m) => ViolationOutcome::Violated(m),
        SatResult::Unsat => ViolationOutcome::Verified,
        SatResult::Unknown { reason } => ViolationOutcome::Unknown { reason },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::CmpOp;

    fn zk_checker() -> Term {
        Term::and([
            Term::not_null("s"),
            Term::bool_var("s.isClosing").not(),
            Term::int_cmp_c("s.ttl", CmpOp::Gt, 0),
        ])
    }

    #[test]
    fn sat_simple_conjunction() {
        let t = zk_checker();
        let r = Solver::new().check(&t);
        let m = r.model().expect("sat");
        assert!(m.validated, "model must evaluate the term to true: {m}");
    }

    #[test]
    fn unsat_contradiction() {
        let t = Term::and([
            Term::int_cmp_c("x", CmpOp::Gt, 5),
            Term::int_cmp_c("x", CmpOp::Lt, 3),
        ]);
        assert!(!is_sat(&t));
    }

    #[test]
    fn unsat_needs_theory_across_disjunction() {
        // (x < 0 || x > 10) && x == 5
        let t = Term::and([
            Term::or([Term::int_cmp_c("x", CmpOp::Lt, 0), Term::int_cmp_c("x", CmpOp::Gt, 10)]),
            Term::int_cmp_c("x", CmpOp::Eq, 5),
        ]);
        assert!(!is_sat(&t));
    }

    #[test]
    fn valid_excluded_middle_over_theory() {
        let t = Term::or([
            Term::int_cmp_c("x", CmpOp::Le, 3),
            Term::int_cmp_c("x", CmpOp::Gt, 3),
        ]);
        assert!(is_valid(&t));
    }

    #[test]
    fn implication_over_bounds() {
        // x > 5 implies x > 3.
        assert!(implies(
            &Term::int_cmp_c("x", CmpOp::Gt, 5),
            &Term::int_cmp_c("x", CmpOp::Gt, 3)
        ));
        assert!(!implies(
            &Term::int_cmp_c("x", CmpOp::Gt, 3),
            &Term::int_cmp_c("x", CmpOp::Gt, 5)
        ));
    }

    #[test]
    fn equivalence_of_eq_and_bound_pair() {
        let eq = Term::int_cmp_c("x", CmpOp::Eq, 7);
        let pair = Term::and([
            Term::int_cmp_c("x", CmpOp::Le, 7),
            Term::int_cmp_c("x", CmpOp::Ge, 7),
        ]);
        assert!(equivalent(&eq, &pair));
    }

    #[test]
    fn paper_violation_example_null_session() {
        // Trace creates the node with only (s == null): violates.
        let pi = Term::is_null("s");
        assert!(violates(&pi, &zk_checker()).is_some());
    }

    #[test]
    fn paper_violation_example_missing_ttl_check() {
        // (s != null && !s.isClosing) — the ttl check is missing, so the
        // complement is satisfiable with s.ttl <= 0.
        let pi = Term::and([Term::not_null("s"), Term::bool_var("s.isClosing").not()]);
        let m = violates(&pi, &zk_checker()).expect("must violate");
        if let Some(Value::Int(ttl)) = m.get("s.ttl") {
            assert!(*ttl <= 0, "witness must show the unchecked ttl: {m}");
        } else {
            panic!("model should assign s.ttl: {m}");
        }
    }

    #[test]
    fn paper_verified_example_full_condition() {
        let pi = zk_checker();
        assert!(violates(&pi, &zk_checker()).is_none());
    }

    #[test]
    fn violation_with_extra_unrelated_constraints_still_verified() {
        let pi = Term::and([zk_checker(), Term::int_cmp_c("reqId", CmpOp::Gt, 100)]);
        assert!(violates(&pi, &zk_checker()).is_none());
    }

    #[test]
    fn ref_equality_propagates_through_sat() {
        // a == b && b == null && a != null  is UNSAT.
        let t = Term::and([
            Term::ref_eq("a", "b"),
            Term::is_null("b"),
            Term::not_null("a"),
        ]);
        assert!(!is_sat(&t));
    }

    #[test]
    fn string_states_conflict() {
        let t = Term::and([
            Term::str_eq_lit("state", "OPEN"),
            Term::str_eq_lit("state", "CLOSING"),
        ]);
        assert!(!is_sat(&t));
    }

    #[test]
    fn disjunctive_checker_verified_by_either_branch() {
        let checker = Term::or([
            Term::bool_var("isReadOnly"),
            Term::int_cmp_c("epoch", CmpOp::Ge, 1),
        ]);
        let pi = Term::bool_var("isReadOnly");
        assert!(violates(&pi, &checker).is_none());
        let pi2 = Term::int_cmp_c("epoch", CmpOp::Ge, 3);
        assert!(violates(&pi2, &checker).is_none());
        let pi3 = Term::int_cmp_c("epoch", CmpOp::Le, 0);
        assert!(violates(&pi3, &checker).is_some());
    }

    #[test]
    fn model_counterexample_validates() {
        let pi = Term::not_null("s");
        let m = violates(&pi, &zk_checker()).expect("violation");
        assert!(m.validated, "counterexample should validate: {m}");
    }

    #[test]
    fn int_disequality_clique_unsat() {
        // x,y,z pairwise distinct, all in [0,1]: UNSAT (needs the Eq/Ne
        // splitting to be complete).
        let in01 = |v: &str| {
            Term::and([Term::int_cmp_c(v, CmpOp::Ge, 0), Term::int_cmp_c(v, CmpOp::Le, 1)])
        };
        let t = Term::and([
            in01("x"),
            in01("y"),
            in01("z"),
            Term::int_cmp_v("x", CmpOp::Ne, "y"),
            Term::int_cmp_v("y", CmpOp::Ne, "z"),
            Term::int_cmp_v("x", CmpOp::Ne, "z"),
        ]);
        assert!(!is_sat(&t));
    }

    #[test]
    fn budgeted_check_reports_unknown_on_tiny_budget() {
        // Pairwise-distinct in [0,1] over three variables forces real
        // search; a zero-conflict budget cannot decide it.
        let in01 = |v: &str| {
            Term::and([Term::int_cmp_c(v, CmpOp::Ge, 0), Term::int_cmp_c(v, CmpOp::Le, 1)])
        };
        let t = Term::and([
            in01("x"),
            in01("y"),
            in01("z"),
            Term::int_cmp_v("x", CmpOp::Ne, "y"),
            Term::int_cmp_v("y", CmpOp::Ne, "z"),
            Term::int_cmp_v("x", CmpOp::Ne, "z"),
        ]);
        let r = Solver::with_conflict_budget(0).check(&t);
        assert!(r.is_unknown(), "expected Unknown, got {r:?}");
    }

    #[test]
    fn budgeted_violates_agrees_with_unbudgeted_when_generous() {
        let pi = Term::and([Term::not_null("s"), Term::bool_var("s.isClosing").not()]);
        match violates_budgeted(&pi, &zk_checker(), Some(1_000_000)) {
            ViolationOutcome::Violated(m) => assert!(m.validated),
            other => panic!("expected Violated, got {other:?}"),
        }
        match violates_budgeted(&zk_checker(), &zk_checker(), Some(1_000_000)) {
            ViolationOutcome::Verified => {}
            other => panic!("expected Verified, got {other:?}"),
        }
    }

    #[test]
    fn default_solver_agrees_with_new() {
        // x > 0 && y < x
        let t = Term::and([
            Term::int_cmp_c("x", CmpOp::Gt, 0),
            Term::int_cmp_v("y", CmpOp::Lt, "x"),
        ]);
        let by_default = Solver::default().check(&t);
        let by_new = Solver::new().check(&t);
        let (Some(a), Some(b)) = (by_default.model(), by_new.model()) else {
            panic!("both must be Sat: default {by_default:?}, new {by_new:?}");
        };
        assert!(a.validated, "{a}");
        assert_eq!(format!("{a}"), format!("{b}"));
    }

    #[test]
    fn int_disequality_pair_sat() {
        let t = Term::and([
            Term::int_cmp_c("x", CmpOp::Ge, 0),
            Term::int_cmp_c("x", CmpOp::Le, 1),
            Term::int_cmp_c("y", CmpOp::Ge, 0),
            Term::int_cmp_c("y", CmpOp::Le, 1),
            Term::int_cmp_v("x", CmpOp::Ne, "y"),
        ]);
        let r = Solver::new().check(&t);
        let m = r.model().expect("sat");
        assert!(m.validated, "{m}");
    }
}
