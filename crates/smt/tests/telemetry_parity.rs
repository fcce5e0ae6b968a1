//! Exact `smt.*` counter deltas for the fresh solver and a
//! [`SolverSession`], pinned query by query.
//!
//! Telemetry is process-global, so this file holds a single test: no
//! other solver query can run concurrently in this binary and leak into
//! the deltas.

use lisa_smt::{parse_cond, violates_budgeted, SolverSession, Term, ViolationOutcome};

/// The counters pinned per query, in this order.
const COUNTERS: [&str; 6] = [
    "smt.queries",
    "smt.outcome.sat",
    "smt.outcome.unsat",
    "smt.outcome.unknown",
    "smt.clauses",
    "smt.conflicts",
];

fn t(s: &str) -> Term {
    parse_cond(s).expect("parse")
}

/// The pinned counters plus the `smt.query_us` sample count.
fn snapshot() -> [u64; 7] {
    let mut out = [0; 7];
    for (slot, name) in out.iter_mut().zip(COUNTERS) {
        *slot = lisa_telemetry::counter_value(name);
    }
    out[6] = lisa_telemetry::histograms_snapshot().get("smt.query_us").map_or(0, |h| h.count);
    out
}

/// Run `query` and return how far each pinned counter moved.
fn delta(query: impl FnOnce() -> ViolationOutcome) -> (ViolationOutcome, [u64; 7]) {
    let before = snapshot();
    let outcome = query();
    let after = snapshot();
    let mut moved = [0; 7];
    for i in 0..7 {
        moved[i] = after[i] - before[i];
    }
    (outcome, moved)
}

#[test]
fn smt_counters_are_exact_for_fresh_and_session_queries() {
    lisa_telemetry::init(lisa_telemetry::TelemetryConfig::MetricsOnly);
    let checker = t("s != null && s.isClosing == false && s.ttl > 0");
    let missing_ttl = t("s != null && s.isClosing == false");
    let guarded = t("s != null && s.isClosing == false && s.ttl > 5");

    // [queries, sat, unsat, unknown, clauses, conflicts, query_us samples]
    let (fresh_sat, moved) = delta(|| violates_budgeted(&missing_ttl, &checker, None));
    assert!(matches!(fresh_sat, ViolationOutcome::Violated(_)), "{fresh_sat:?}");
    assert_eq!(moved, [1, 1, 0, 0, 9, 0, 1], "fresh Sat");

    let (fresh_unsat, moved) = delta(|| violates_budgeted(&guarded, &checker, None));
    assert!(matches!(fresh_unsat, ViolationOutcome::Verified), "{fresh_unsat:?}");
    assert_eq!(moved, [1, 0, 1, 0, 10, 0, 1], "fresh Unsat");

    let session = SolverSession::new(&checker);
    let (session_unsat, moved) = delta(|| session.violates(&guarded));
    assert!(matches!(session_unsat, ViolationOutcome::Verified), "{session_unsat:?}");
    assert_eq!(moved, [1, 0, 1, 0, 4, 1, 1], "session Unsat");

    // A satisfiable session query is counted once, by the fresh solve it
    // falls back to; the session adds only its own clauses and conflicts.
    let (session_sat, moved) = delta(|| session.violates(&missing_ttl));
    assert!(matches!(session_sat, ViolationOutcome::Violated(_)), "{session_sat:?}");
    assert_eq!(moved, [1, 1, 0, 0, 12, 0, 1], "session fallback");
    assert_eq!(session.stats().fallback_fresh, 1);
}
