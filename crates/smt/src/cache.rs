//! Bounded memoization of violation queries.
//!
//! Within one gate run many chains share a path-condition suffix, and
//! across versions an unchanged function replays the exact same traces —
//! so the solver sees the same `π ∧ ¬checker` query again and again. The
//! cache keys queries by the FNV-1a hash of the *canonicalized* formula
//! (NNF + simplification via [`crate::preprocess`]), so two textually
//! different but canonically identical queries share an entry. The
//! conflict budget is part of the key: an `Unknown` verdict is only valid
//! for the budget it was produced under.
//!
//! Storage is the same bounded, lock-striped, single-flight
//! [`ShardedMap`] every gate cache tier uses: a capacity bound with
//! per-shard LRU eviction, and concurrent misses on one query share a
//! single solve.
//!
//! Transparency is the design invariant: a hit returns a clone of the
//! exact [`ViolationOutcome`] the solver produced, so cached and uncached
//! gates render byte-identical verdicts.

use lisa_util::{Fnv1a, ShardedMap};

use crate::nnf::preprocess;
use crate::solver::{violates_budgeted, ViolationOutcome};
use crate::term::Term;

/// Shared, thread-safe query cache. Cheap to share behind an `Arc`; all
/// methods take `&self`.
#[derive(Debug)]
pub struct QueryCache {
    outcomes: ShardedMap<Key, ViolationOutcome>,
}

type Key = (u64, Option<u64>);

impl QueryCache {
    /// A cache holding at most `capacity` outcomes.
    pub fn new(capacity: usize) -> QueryCache {
        QueryCache { outcomes: ShardedMap::new(capacity) }
    }

    /// Cache key for a violation query: hash of the canonicalized
    /// `π ∧ ¬checker` plus the conflict budget it will run under.
    fn key(pi: &Term, checker: &Term, max_conflicts: Option<u64>) -> Key {
        let query = preprocess(&Term::and([pi.clone(), checker.clone().not()]));
        let mut h = Fnv1a::new();
        h.part_display(&query);
        (h.finish(), max_conflicts)
    }

    /// Memoized [`violates_budgeted`]: returns the cached outcome when the
    /// canonicalized query was already decided under the same budget,
    /// otherwise solves and records.
    pub fn violates_budgeted(
        &self,
        pi: &Term,
        checker: &Term,
        max_conflicts: Option<u64>,
    ) -> ViolationOutcome {
        self.violates_with(pi, checker, max_conflicts, || {
            violates_budgeted(pi, checker, max_conflicts)
        })
    }

    /// Memoized violation query with a caller-supplied solver — the hook
    /// that lets a [`crate::SolverSession`] sit behind the cache. The key
    /// stays `(canonical formula, budget)`, so a hit returns exactly what
    /// any solving path would have produced (session answers are
    /// byte-identical to fresh ones by construction); `solve` runs only
    /// on a miss, outside every shard lock.
    pub fn violates_with(
        &self,
        pi: &Term,
        checker: &Term,
        max_conflicts: Option<u64>,
        solve: impl FnOnce() -> ViolationOutcome,
    ) -> ViolationOutcome {
        let key = Self::key(pi, checker, max_conflicts);
        ViolationOutcome::clone(&self.outcomes.get_or_build(key, solve))
    }

    /// The cache's counters as one uniform snapshot.
    pub fn stats(&self) -> lisa_util::CacheStats {
        self.outcomes.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_cond;

    fn t(s: &str) -> Term {
        parse_cond(s).expect("parse")
    }

    #[test]
    fn hit_returns_same_verdict_as_solver() {
        let cache = QueryCache::new(16);
        let pi = t("s != null && s.isClosing == false");
        let checker = t("s != null && s.isClosing == false && s.ttl > 0");
        let fresh = cache.violates_budgeted(&pi, &checker, None);
        let cached = cache.violates_budgeted(&pi, &checker, None);
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(cache.stats().misses, 1);
        match (&fresh, &cached) {
            (ViolationOutcome::Violated(a), ViolationOutcome::Violated(b)) => {
                assert_eq!(format!("{a:?}"), format!("{b:?}"));
            }
            other => panic!("expected Violated twice, got {other:?}"),
        }
    }

    #[test]
    fn canonically_equal_queries_share_an_entry() {
        let cache = QueryCache::new(16);
        let checker = t("x > 4");
        // Different spellings of the same bound canonicalize to the same
        // atom (`canonicalize_atom` moves the constant right).
        let pi1 = t("x > 3");
        let pi2 = t("3 < x");
        cache.violates_budgeted(&pi1, &checker, None);
        cache.violates_budgeted(&pi2, &checker, None);
        assert_eq!(cache.stats().hits, 1, "canonically-equal π should hit");
    }

    #[test]
    fn query_key_is_pinned() {
        // Keys are FNV-1a over the canonical formula text; a change to
        // either would silently turn every warm entry into a miss.
        let key = QueryCache::key(&t("x > 3 && y == true"), &t("x > 4 || y == false"), Some(500));
        assert_eq!(key, (0x8162_1d95_f15e_0495, Some(500)), "key {:016x}", key.0);
    }

    #[test]
    fn budget_is_part_of_the_key() {
        let cache = QueryCache::new(16);
        let pi = t("x > 0");
        let checker = t("x > 1");
        cache.violates_budgeted(&pi, &checker, None);
        cache.violates_budgeted(&pi, &checker, Some(1000));
        assert_eq!(cache.stats().misses, 2);
        assert_eq!(cache.stats().hits, 0);
    }
}
