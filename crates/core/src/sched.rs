//! Rule scheduler for the enforcement gate.
//!
//! The gate's unit of work is the whole rule: each registered rule runs
//! from start to finish on one worker. [`run_rules`] starts
//! `min(workers, rules)` workers that take rule indices from one shared
//! atomic counter; with a width of 1 it runs every rule inline on the
//! caller, in registry order, and starts no thread at all.
//!
//! Determinism is the design constraint: gate output must be
//! byte-identical at any worker count. Each rule writes its own result
//! slot and the caller folds the slots in registry order, so execution
//! order never leaks into merge order.
//!
//! Panics stay contained: a rule panic that the rule's own handler did
//! not catch is held until every rule has settled, then the
//! lowest-indexed one is re-raised once from [`run_rules`].

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Resolve a requested worker count: `0` means "auto" — one worker per
/// available hardware thread.
pub fn resolve_workers(requested: usize) -> usize {
    if requested == 0 {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    } else {
        requested
    }
}

/// Run `rule(i)` for every `i` in `0..rules` on `min(workers, rules)`
/// workers and return that width. The caller is worker 0; the others are
/// scoped threads. Publishes `sched.tasks_spawned` (one per rule) and
/// one `sched.worker_busy_us` sample per worker that ran a rule.
pub(crate) fn run_rules(workers: usize, rules: usize, rule: impl Fn(usize) + Sync) -> usize {
    let width = workers.min(rules).max(1);
    let next = AtomicUsize::new(0);
    let panicked: Mutex<Option<(usize, Box<dyn std::any::Any + Send>)>> = Mutex::new(None);
    let worker = || {
        let mut busy = None::<Duration>;
        loop {
            // Relaxed: the counter only hands out indices; the scope join
            // publishes what each rule wrote.
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= rules {
                break;
            }
            let t0 = Instant::now();
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| rule(i))) {
                let mut slot = panicked.lock().unwrap_or_else(|p| p.into_inner());
                if slot.as_ref().is_none_or(|(first, _)| i < *first) {
                    *slot = Some((i, payload));
                }
            }
            *busy.get_or_insert_default() += t0.elapsed();
        }
        if let Some(busy) = busy {
            lisa_telemetry::histogram_record("sched.worker_busy_us", busy.as_micros() as u64);
        }
    };
    if width == 1 {
        worker();
    } else {
        std::thread::scope(|scope| {
            for _ in 1..width {
                scope.spawn(worker);
            }
            worker();
        });
    }
    lisa_telemetry::counter_add("sched.tasks_spawned", rules as u64);
    if let Some((_, payload)) = panicked.into_inner().unwrap_or_else(|p| p.into_inner()) {
        resume_unwind(payload);
    }
    width
}

/// Shared deadline-degradation flag: once the gate deadline expires,
/// rules that have not started yet run as fixed-path sanity checks, and
/// a rule already running drops to degraded budgets for its remaining
/// tests and queries. The flag latches, so "expired" can never flicker
/// back to false within a run. With no deadline it never fires, keeping
/// deadline-free runs deterministic.
#[derive(Debug)]
pub(crate) struct DegradeSignal {
    started: Instant,
    deadline: Option<Duration>,
    hit: AtomicBool,
    noticed: AtomicBool,
}

impl DegradeSignal {
    pub fn new(started: Instant, deadline: Option<Duration>) -> DegradeSignal {
        DegradeSignal {
            started,
            deadline,
            hit: AtomicBool::new(false),
            noticed: AtomicBool::new(false),
        }
    }

    /// Latching deadline check.
    pub fn expired(&self) -> bool {
        if self.hit.load(Ordering::Relaxed) {
            return true;
        }
        match self.deadline {
            None => false,
            Some(d) if self.started.elapsed() >= d => {
                self.hit.store(true, Ordering::Relaxed);
                true
            }
            Some(_) => false,
        }
    }

    /// True exactly once — for the "deadline expired" telemetry event.
    pub fn first_notice(&self) -> bool {
        !self.noticed.swap(true, Ordering::Relaxed)
    }

    /// Whether the deadline fired at any point during the run.
    pub fn was_hit(&self) -> bool {
        self.hit.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::AtomicU64;
    use std::thread::ThreadId;

    #[test]
    fn resolve_workers_zero_means_available_parallelism() {
        assert!(resolve_workers(0) >= 1);
        assert_eq!(resolve_workers(3), 3);
        assert_eq!(resolve_workers(1), 1);
    }

    #[test]
    fn rule_tasks_run_in_spawn_order_at_width_one() {
        let order = Mutex::new(Vec::new());
        run_rules(1, 8, |i| order.lock().unwrap().push(i));
        assert_eq!(*order.lock().unwrap(), (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn many_rules_all_complete_across_workers() {
        let total = AtomicU64::new(0);
        let ran = Mutex::new(vec![0u32; 12]);
        let width = run_rules(4, 12, |i| {
            total.fetch_add(i as u64, Ordering::Relaxed);
            ran.lock().unwrap()[i] += 1;
        });
        assert_eq!(width, 4);
        assert_eq!(total.load(Ordering::Relaxed), (0..12).sum::<u64>());
        assert!(
            ran.lock().unwrap().iter().all(|&n| n == 1),
            "every rule runs exactly once"
        );
    }

    #[test]
    fn width_is_capped_by_rule_count_and_one_rule_runs_inline() {
        let caller = std::thread::current().id();
        let seen = Mutex::new(Vec::<ThreadId>::new());
        let width = run_rules(8, 1, |_| {
            seen.lock().unwrap().push(std::thread::current().id())
        });
        assert_eq!(width, 1);
        assert_eq!(
            *seen.lock().unwrap(),
            vec![caller],
            "one rule runs on the calling thread"
        );

        let seen = Mutex::new(HashSet::<ThreadId>::new());
        let width = run_rules(8, 3, |_| {
            seen.lock().unwrap().insert(std::thread::current().id());
        });
        assert_eq!(width, 3, "3 rules start at most 3 workers");
        assert!(seen.lock().unwrap().len() <= 3);
    }

    #[test]
    fn uncaught_rule_panic_resurfaces_from_run() {
        let settled = AtomicU64::new(0);
        let r = catch_unwind(AssertUnwindSafe(|| {
            run_rules(2, 4, |i| {
                if i == 1 {
                    panic!("rule blew up");
                }
                settled.fetch_add(1, Ordering::Relaxed);
            })
        }));
        assert!(r.is_err());
        assert_eq!(
            settled.load(Ordering::Relaxed),
            3,
            "the other rules still settle"
        );
    }

    #[test]
    fn degrade_signal_latches() {
        let sig = DegradeSignal::new(Instant::now(), Some(Duration::ZERO));
        assert!(sig.expired());
        assert!(sig.expired(), "stays expired");
        assert!(sig.first_notice());
        assert!(!sig.first_notice(), "notice fires once");
        let never = DegradeSignal::new(Instant::now(), None);
        assert!(!never.expired());
        assert!(!never.was_hit());
    }
}
