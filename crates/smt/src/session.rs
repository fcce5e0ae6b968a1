//! Incremental solver sessions: assumption-based solving with clause
//! reuse across the near-identical queries of one gate rule.
//!
//! The gate asks the same shape of question over and over: one rule
//! contributes a fixed checker `C`, and every (run, hit) pair contributes
//! a path condition π, each query being `SAT(π ∧ ¬C)`. The stateless
//! [`crate::violates_budgeted`] re-encodes and re-refutes `¬C` from
//! scratch every time. A [`SolverSession`] instead keeps one persistent
//! clause database per rule: the Tseitin CNF of the canonicalized `¬C`
//! is added once, each query's π is encoded into the same database and
//! *activated* by assuming its Tseitin root literal
//! ([`crate::sat::SatSolver::solve_under_assumptions`]), and everything
//! the SAT core learns — 1UIP resolvents and theory blocking clauses —
//! is retained for the rule's remaining queries.
//!
//! **The determinism argument.** Gate verdicts (including witness
//! models, which are rendered into reports) must be byte-identical to
//! the fresh-solver answers at every worker width, cache on or off. The
//! session guarantees this by construction, not by luck:
//!
//! - The incremental path only ever *answers* `Verified` (unsat).
//!   Unsatisfiability is search-order independent — retained clauses can
//!   change how fast the refutation is found, never whether it exists —
//!   and `Verified` carries no payload, so the answer is bit-for-bit the
//!   one a fresh solver returns.
//! - A satisfiable query needs a witness model, and models *are* search-
//!   order dependent. So when the session's SAT core finds the query
//!   satisfiable it discards that assignment and delegates to the exact
//!   stateless path ([`crate::violates_budgeted`]), which reproduces the
//!   canonical witness the non-session gate would have produced.
//! - Budgeted queries (`max_conflicts = Some(..)`, the degraded-mode
//!   path) are *isolated* on a throwaway fresh solver: an `Unknown` is
//!   only meaningful relative to a fixed starting state, and isolation
//!   both reproduces the fresh answer exactly and guarantees an
//!   exhausted query can never poison the persistent database — the
//!   session's learned clauses only ever come from completed,
//!   budget-free searches. Session-level budget accounting still spans
//!   the whole session (see [`SessionStats`]).
//!
//! Both paths run the one refinement loop, `solver::refine`. Theory
//! lemmas are safe to retain because a blocking clause from
//! [`crate::theory::check`] states a fact about the theory atoms
//! themselves, independent of which query cited them; atoms left from
//! earlier queries only steer the search, since any theory model of the
//! live atoms gives them *some* truth value. CDCL learned clauses are
//! safe because assumptions enter the search as decisions and are never
//! resolved away, so every resolvent is implied by the clause database
//! alone (see `solve_under_assumptions`).

use std::sync::Mutex;

use crate::cnf::Cnf;
use crate::nnf::preprocess;
use crate::sat::SatSolver;
use crate::solver::{
    open_query, publish_query, refine, violates_budgeted, Refined, SatResult, SolverStats,
    ViolationOutcome,
};
use crate::term::Term;

/// Reuse counters for one session, surfaced as `smt.session.*`
/// telemetry and asserted by the session-reuse bench gate.
#[derive(Debug, Clone, Copy, Default)]
pub struct SessionStats {
    /// Queries answered through this session (all paths).
    pub queries: u64,
    /// Queries answered by the persistent incremental solver (always
    /// `Verified`; the reuse fast path).
    pub incremental: u64,
    /// Queries the incremental solver found satisfiable (or failed to
    /// converge on), delegated to a fresh solver for the canonical
    /// witness.
    pub fallback_fresh: u64,
    /// Budgeted queries isolated on a throwaway solver so an exhausted
    /// budget cannot poison the session.
    pub budget_isolated: u64,
    /// Learned clauses currently retained in the persistent database.
    pub learned_retained: u64,
    /// Sum over queries of the learned clauses already present when the
    /// query started — the clause-reuse opportunity actually realized.
    pub learned_reused: u64,
    /// SAT conflicts spent inside the persistent solver, cumulative
    /// across the session (the session-spanning budget ledger).
    pub conflicts: u64,
}

/// Everything behind the session lock: the persistent encoding and the
/// persistent SAT core.
#[derive(Debug)]
struct Inner {
    cnf: Cnf,
    sat: SatSolver,
    /// `cnf.clauses` below this index are already in `sat`.
    synced: usize,
    /// `preprocess(¬checker)` folded to `False`: every query is
    /// `Verified` without touching the solver.
    checker_valid: bool,
    stats: SessionStats,
}

/// A persistent solver for one rule's violation queries: `¬checker` is
/// encoded once, each π is activated by assumption, and learned clauses
/// carry across queries. Thread-safe behind an internal mutex, so a
/// session can be shared by reference; answers are query-pure
/// (identical to a fresh solver's), so query order never shows in any
/// verdict.
#[derive(Debug)]
pub struct SolverSession {
    checker: Term,
    inner: Mutex<Inner>,
}

impl SolverSession {
    /// Open a session for `checker`. The Tseitin CNF of the
    /// canonicalized `¬checker` becomes the session's base clause
    /// database, shared by every subsequent query.
    pub fn new(checker: &Term) -> SolverSession {
        let mut cnf = Cnf::new();
        let neg = preprocess(&checker.clone().not());
        let checker_valid = cnf.assert_term(&neg).is_err();
        let sat = SatSolver::new(cnf.num_vars());
        let mut inner =
            Inner { cnf, sat, synced: 0, checker_valid, stats: SessionStats::default() };
        // If ¬checker is propositionally unsat on its own, the sticky
        // solver-level unsat makes every query Verified, exactly as the
        // fresh path would conclude.
        inner.sync();
        SolverSession { checker: checker.clone(), inner: Mutex::new(inner) }
    }

    /// The session's violation query: is `π ∧ ¬checker` satisfiable?
    /// Same contract as [`crate::violates_budgeted`] — and, by the
    /// determinism argument in the module docs, the same answer, byte
    /// for byte.
    pub fn violates_budgeted(
        &self,
        pi: &Term,
        max_conflicts: Option<u64>,
    ) -> ViolationOutcome {
        let verified = {
            let mut inner = self.lock();
            inner.stats.queries += 1;
            if max_conflicts.is_some() {
                // Budget isolation: solve on a throwaway fresh solver so
                // an exhausted (`Unknown`) query neither inherits
                // conflicts already spent in the session nor leaves
                // partial search state behind for later queries.
                inner.stats.budget_isolated += 1;
                false
            } else {
                inner.stats.learned_reused += inner.sat.stats.learned_clauses;
                let verified = inner.refute(pi);
                inner.stats.incremental += u64::from(verified);
                inner.stats.fallback_fresh += u64::from(!verified);
                inner.stats.learned_retained = inner.sat.stats.learned_clauses;
                verified
            }
        };
        if verified {
            ViolationOutcome::Verified
        } else {
            // Satisfiable (or, theoretically, non-convergent) or
            // budgeted: answer on the stateless path, so the witness
            // model is the canonical fresh-solver one.
            violates_budgeted(pi, &self.checker, max_conflicts)
        }
    }

    /// Unbudgeted variant, mirroring [`crate::violates`]' relationship
    /// to [`crate::violates_budgeted`].
    pub fn violates(&self, pi: &Term) -> ViolationOutcome {
        self.violates_budgeted(pi, None)
    }

    /// A snapshot of the session's reuse counters.
    pub fn stats(&self) -> SessionStats {
        self.lock().stats
    }

    /// Publish the session's counters to telemetry (no-op unless metrics
    /// collection is on). Call once, when the session's rule is done;
    /// totals accumulate across sessions under the `smt.session.*`
    /// namespace.
    pub fn publish_metrics(&self) {
        if !lisa_telemetry::metrics_enabled() {
            return;
        }
        let stats = self.stats();
        lisa_telemetry::counter_add("smt.session.opened", 1);
        for (name, value) in [
            ("smt.session.queries", stats.queries),
            ("smt.session.incremental", stats.incremental),
            ("smt.session.fallback_fresh", stats.fallback_fresh),
            ("smt.session.budget_isolated", stats.budget_isolated),
            ("smt.session.learned_retained", stats.learned_retained),
            ("smt.session.learned_reused", stats.learned_reused),
            ("smt.session.conflicts", stats.conflicts),
        ] {
            if value > 0 {
                lisa_telemetry::counter_add(name, value);
            }
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        // A panic can only poison the lock mid-solve; the session state
        // is still internally consistent (the SAT core integrates
        // clauses at level 0), so keep serving.
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }
}

impl Inner {
    /// Feed the clauses `cnf` emitted since the last sync to the SAT
    /// core. `false` when the database has become propositionally unsat.
    fn sync(&mut self) -> bool {
        while let Some(clause) = self.cnf.clauses.get(self.synced) {
            if !self.sat.add_clause(clause.clone()) {
                return false;
            }
            self.synced += 1;
        }
        true
    }

    /// Run the shared refinement loop ([`refine`]) for `π` against the
    /// persistent database. Returns `true` when the query is proved unsat
    /// (`Verified`); `false` means "delegate to the fresh solver"
    /// (satisfiable, or the refinement loop did not converge).
    fn refute(&mut self, pi: &Term) -> bool {
        if self.checker_valid {
            // ¬checker canonicalized to False: π ∧ False is unsat for
            // every π, exactly as the fresh path's joint preprocessing
            // concludes.
            return true;
        }
        let pre = preprocess(pi);
        let clauses_before = self.cnf.clauses.len();
        let assumptions: Vec<_> = match &pre {
            // π canonicalized to False: unsat regardless of the checker.
            Term::False => return true,
            // π canonicalized to True: the query is just SAT(¬checker).
            Term::True => Vec::new(),
            term => vec![self.cnf.encode_term(term)],
        };
        if !self.sync() {
            return true;
        }

        let query = open_query();
        let before = self.sat.stats;
        let (refined, rounds) = refine(&mut self.sat, &self.cnf.atom_of, &assumptions);
        // Only a refutation is answered here: a satisfiable query needs
        // the fresh path's canonical witness, and an Unknown its honest
        // reason.
        let verified = matches!(refined, Refined::Unsat);
        let mut work = SolverStats {
            cnf_clauses: (self.cnf.clauses.len() - clauses_before) as u64,
            cnf_vars: self.cnf.num_vars() as u64,
            ..SolverStats::default()
        };
        work.record_work(rounds, &self.sat, before);
        self.stats.conflicts += work.sat_conflicts;
        if let Some(query) = query {
            publish_query(query, verified.then_some(&SatResult::Unsat), &work);
        }
        verified
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_cond;

    fn t(s: &str) -> Term {
        parse_cond(s).expect("parse")
    }

    fn zk_checker() -> Term {
        t("s != null && s.isClosing == false && s.ttl > 0")
    }

    // Compare outcomes by their canonical rendering: `Model`'s `Display`
    // sorts keys, whereas Debug exposes HashMap iteration order, which
    // differs even between two *fresh* solves of the same query.
    fn same_outcome(a: &ViolationOutcome, b: &ViolationOutcome) -> bool {
        match (a, b) {
            (ViolationOutcome::Violated(ma), ViolationOutcome::Violated(mb)) => {
                format!("{ma}") == format!("{mb}") && ma.validated == mb.validated
            }
            (ViolationOutcome::Verified, ViolationOutcome::Verified) => true,
            (
                ViolationOutcome::Unknown { reason: ra },
                ViolationOutcome::Unknown { reason: rb },
            ) => ra == rb,
            _ => false,
        }
    }

    #[test]
    fn session_answers_match_fresh_solver_exactly() {
        let checker = zk_checker();
        let session = SolverSession::new(&checker);
        for pi in [
            t("s != null && s.isClosing == false"), // violated: missing ttl
            checker.clone(),                        // verified
            t("s == null"),                         // violated
            t("s != null && s.isClosing == false && s.ttl > 5"), // verified
        ] {
            let fresh = violates_budgeted(&pi, &checker, None);
            let via_session = session.violates_budgeted(&pi, None);
            assert!(
                same_outcome(&fresh, &via_session),
                "session diverged on {pi}: fresh {fresh:?} vs session {via_session:?}"
            );
        }
        let stats = session.stats();
        assert_eq!(stats.queries, 4);
        assert_eq!(stats.incremental, 2, "both Verified queries reuse the core");
        assert_eq!(stats.fallback_fresh, 2, "both Violated queries re-derive fresh");
    }

    #[test]
    fn clause_reuse_accumulates_across_queries() {
        // A checker whose negation needs genuine search to refute: the
        // pairwise-distinct clique in [0,1] is unsat, so the checker is
        // valid and every query verifies — after the first, from
        // retained clauses.
        let clique = t(
            "x >= 0 && x <= 1 && y >= 0 && y <= 1 && z >= 0 && z <= 1 \
             && x != y && y != z && x != z",
        );
        let session = SolverSession::new(&clique.clone().not());
        for name in ["a", "b", "c"] {
            let outcome = session.violates_budgeted(&t(&format!("{name} > 0")), None);
            assert!(matches!(outcome, ViolationOutcome::Verified), "{outcome:?}");
        }
        let stats = session.stats();
        assert_eq!(stats.incremental, 3);
        assert!(stats.learned_retained > 0, "refutation must learn clauses");
        assert!(
            stats.learned_reused > 0,
            "queries after the first must start with retained clauses"
        );
    }

    #[test]
    fn budgeted_queries_are_isolated_and_do_not_poison_the_session() {
        let clique = t(
            "x >= 0 && x <= 1 && y >= 0 && y <= 1 && z >= 0 && z <= 1 \
             && x != y && y != z && x != z",
        );
        let checker = clique.clone().not();
        let session = SolverSession::new(&checker);
        // Zero budget on a query that needs search: Unknown, isolated.
        let starved = session.violates_budgeted(&t("w > 0"), Some(0));
        assert!(matches!(starved, ViolationOutcome::Unknown { .. }), "{starved:?}");
        // The same query unbudgeted still gets the fresh-identical answer.
        let after = session.violates_budgeted(&t("w > 0"), None);
        let fresh = violates_budgeted(&t("w > 0"), &checker, None);
        assert!(same_outcome(&after, &fresh), "{after:?} vs {fresh:?}");
        assert_eq!(session.stats().budget_isolated, 1);
    }

    #[test]
    fn trivially_valid_checker_short_circuits() {
        let session = SolverSession::new(&t("x > 0 || x <= 0"));
        let outcome = session.violates_budgeted(&t("p == true"), None);
        assert!(matches!(outcome, ViolationOutcome::Verified));
        let fresh = violates_budgeted(&t("p == true"), &t("x > 0 || x <= 0"), None);
        assert!(same_outcome(&outcome, &fresh));
    }

    #[test]
    fn constant_path_conditions_match_fresh() {
        let checker = zk_checker();
        let session = SolverSession::new(&checker);
        for pi in [t("x > 0 && x <= 0"), t("x > 0 || x <= 0")] {
            let fresh = violates_budgeted(&pi, &checker, None);
            let via_session = session.violates_budgeted(&pi, None);
            assert!(same_outcome(&fresh, &via_session), "{pi}");
        }
    }
}
