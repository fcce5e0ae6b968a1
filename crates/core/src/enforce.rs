//! The enforcement registry and CI/CD gate.
//!
//! The paper's vision (§1): "every failure, once fixed, automatically
//! becomes an executable contract that shields the system from ever
//! repeating the same mistake … enforced in CI/CD pipelines." The
//! [`RuleRegistry`] is that contract store: rules accumulate as tickets
//! are processed, and every new system version is gated on the full set.
//! Rule checks are independent, so the gate runs them on up to
//! `workers` std scoped threads, one whole rule per task.
//!
//! The gate is built to *always return a decision*: each rule check runs
//! under `catch_unwind` with bounded retry, a panicking or malformed rule
//! folds into an engine-error report instead of killing the scope, and a
//! gate deadline downgrades remaining rules to a fast fixed-path sanity
//! check rather than abandoning them. The [`FailMode`] decides whether
//! engine errors block (fail-closed, the default) or pass with warnings
//! (fail-open).

use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use lisa_concolic::SystemVersion;
use lisa_oracle::SemanticRule;
use lisa_util::{retry_with_backoff, RetryPolicy};

use crate::error::LisaError;
use crate::faults::{FaultInjector, FaultKind, TRANSIENT_MARKER};
use crate::gate::GateCache;
use crate::pipeline::{Pipeline, PipelineConfig};
use crate::sched::{run_rules, DegradeSignal};
use crate::verdict::RuleReport;

/// The persistent set of enforced rules.
#[derive(Debug, Default, Clone)]
pub struct RuleRegistry {
    rules: Vec<SemanticRule>,
}

impl RuleRegistry {
    pub fn new() -> RuleRegistry {
        RuleRegistry::default()
    }

    /// Register a rule; replaces any rule with the same id *in place*, so
    /// re-registering an updated rule keeps the registry order (and with
    /// it the report order) stable.
    pub fn register(&mut self, rule: SemanticRule) {
        match self.rules.iter_mut().find(|r| r.id == rule.id) {
            Some(slot) => *slot = rule,
            None => self.rules.push(rule),
        }
    }

    pub fn rules(&self) -> &[SemanticRule] {
        &self.rules
    }

    pub fn len(&self) -> usize {
        self.rules.len()
    }

    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    pub fn get(&self, id: &str) -> Option<&SemanticRule> {
        self.rules.iter().find(|r| r.id == id)
    }
}

/// Gate decision for a candidate version.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GateDecision {
    /// No rule violated: the change may ship.
    Pass,
    /// At least one semantic rule violated (or, under fail-closed, an
    /// engine error occurred): block the change.
    Block,
}

impl GateDecision {
    /// The gate's one decision rule: block on any violation, and under
    /// fail-closed also on any engine error.
    pub fn decide(has_violation: bool, engine_errors: usize, fail_mode: FailMode) -> GateDecision {
        if has_violation || (engine_errors > 0 && fail_mode == FailMode::Closed) {
            GateDecision::Block
        } else {
            GateDecision::Pass
        }
    }

    /// The exit-code contract shared by the CLI and the serve replies:
    /// 0 = pass, 1 = violations, 2 = a block no violation explains (an
    /// engine error under fail-closed).
    pub fn exit_code(self, has_violation: bool) -> u8 {
        match (has_violation, self) {
            (true, _) => 1,
            (false, GateDecision::Block) => 2,
            (false, GateDecision::Pass) => 0,
        }
    }
}

impl fmt::Display for GateDecision {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GateDecision::Pass => write!(f, "PASS"),
            GateDecision::Block => write!(f, "BLOCK"),
        }
    }
}

/// What the gate does when its own machinery fails on a rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FailMode {
    /// An engine error blocks the change and requests review. The safe
    /// default for a CI/CD gate: a broken check is not a passed check.
    #[default]
    Closed,
    /// An engine error passes with a warning; availability over strictness.
    Open,
}

impl fmt::Display for FailMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FailMode::Closed => write!(f, "closed"),
            FailMode::Open => write!(f, "open"),
        }
    }
}

impl std::str::FromStr for FailMode {
    type Err = String;
    fn from_str(s: &str) -> Result<FailMode, String> {
        match s {
            "closed" => Ok(FailMode::Closed),
            "open" => Ok(FailMode::Open),
            other => Err(format!("unknown fail-mode {other:?} (expected closed|open)")),
        }
    }
}

/// Resilience knobs for one enforcement run.
#[derive(Debug, Default)]
pub struct GateOptions {
    pub fail_mode: FailMode,
    /// Overall wall-clock deadline. Rules starting after it has expired
    /// run in degraded mode (fixed-path sanity check) instead of full
    /// exploration. `None` = no deadline.
    pub deadline: Option<Duration>,
    /// Retry policy for transient failures.
    pub retry: RetryPolicy,
    /// Fault injection, for resilience tests and the E10 experiment.
    pub faults: Option<FaultInjector>,
}

/// Result of gating one version against the registry.
#[derive(Debug)]
pub struct EnforcementReport {
    pub version: String,
    pub reports: Vec<RuleReport>,
    pub decision: GateDecision,
    /// Coverage gaps requiring developer review (paper: "developers
    /// should provide the final verdict").
    pub review_needed: usize,
    /// Fail-mode the gate ran under.
    pub fail_mode: FailMode,
    /// Rules whose check failed with an engine error.
    pub engine_errors: usize,
    /// Rules checked in degraded (fixed-path sanity) mode.
    pub degraded_rules: usize,
    /// Total retries spent across all rules.
    pub retries: u64,
    /// Human-readable warnings (fail-open engine errors, deadline hits).
    pub warnings: Vec<String>,
    /// Resolved scheduler width the gate ran at (after `0` → auto
    /// expansion). Introspection only: deliberately kept out of the
    /// rendered report and its JSON so gate output stays byte-identical
    /// across worker counts.
    pub workers: usize,
}

impl EnforcementReport {
    pub fn violated_rules(&self) -> Vec<&RuleReport> {
        self.reports.iter().filter(|r| r.has_violation()).collect()
    }
}

/// The in-memory gate engine behind [`crate::Gate`]: one [`RuleChecker`]
/// driven through [`run_rules`] at up to `workers` rules at once. The gate
/// never propagates a panic: every rule yields a report, and the worst a
/// faulty rule can do is mark itself as an engine error.
pub(crate) fn enforce_impl(
    registry: &RuleRegistry,
    version: &SystemVersion,
    config: &PipelineConfig,
    workers: usize,
    options: &GateOptions,
    cache: Option<&Arc<GateCache>>,
) -> EnforcementReport {
    let checker = RuleChecker::new(version, config, options, cache);
    let workers = crate::sched::resolve_workers(workers);
    // One slot per rule: rules finish in any order, reports fold in
    // registry order.
    let rules = registry.rules();
    let slots: Vec<OnceLock<RuleReport>> = rules.iter().map(|_| OnceLock::new()).collect();
    run_rules(workers, rules.len(), |i| {
        let _ = slots[i].set(checker.check(&rules[i]));
    });
    let reports: Vec<RuleReport> = slots
        .into_iter()
        .map(|s| s.into_inner().expect("every rule writes its slot before run_rules returns"))
        .collect();

    let has_violation = reports.iter().any(|r| r.has_violation());
    let engine_errors = reports.iter().filter(|r| r.has_engine_error()).count();
    let decision = GateDecision::decide(has_violation, engine_errors, options.fail_mode);
    let settled = checker.finish(&reports, decision, workers);
    let mut review_needed: usize = reports.iter().map(|r| r.not_covered_count()).sum();
    if options.fail_mode == FailMode::Closed {
        // Engine-errored rules need a human verdict too.
        review_needed += engine_errors;
    }
    EnforcementReport {
        version: version.label.clone(),
        reports,
        decision,
        review_needed,
        fail_mode: options.fail_mode,
        engine_errors,
        degraded_rules: settled.degraded_rules,
        retries: settled.retries,
        warnings: settled.warnings,
        workers,
    }
}

/// The gate's per-rule unit, shared by every gate path: [`enforce_impl`]
/// drives it through [`run_rules`], the durable gate one rule at a time
/// between journal records. One checker covers one gate run over one
/// version, so the run has one [`Pipeline`], one `gate.enforce` span, one
/// retry total, one program fingerprint and one latching
/// [`DegradeSignal`]: the deadline spans the whole run, not each rule.
pub(crate) struct RuleChecker<'a> {
    version: &'a SystemVersion,
    pipeline: Pipeline,
    program_fp: OnceLock<u64>,
    options: &'a GateOptions,
    degrade: DegradeSignal,
    retries: AtomicU64,
    span: lisa_telemetry::SpanGuard,
}

/// What a finished gate run reports beyond its rule reports.
pub(crate) struct Settled {
    /// The deadline line (if the deadline fired), then one line per
    /// engine-errored rule, in report order.
    pub warnings: Vec<String>,
    pub degraded_rules: usize,
    pub retries: u64,
}

impl<'a> RuleChecker<'a> {
    /// Start a gate run over `version`; the deadline clock starts now.
    /// When `cache` is given, every check shares its memoized
    /// analysis/trace/query artifacts.
    pub(crate) fn new(
        version: &'a SystemVersion,
        config: &PipelineConfig,
        options: &'a GateOptions,
        cache: Option<&'a Arc<GateCache>>,
    ) -> RuleChecker<'a> {
        let span = lisa_telemetry::span_with("gate.enforce", version.label.clone());
        let pipeline = match cache {
            Some(c) => Pipeline::with_cache(config.clone(), Arc::clone(c)),
            None => Pipeline::new(config.clone()),
        };
        RuleChecker {
            version,
            pipeline,
            program_fp: OnceLock::new(),
            options,
            degrade: DegradeSignal::new(Instant::now(), options.deadline),
            retries: AtomicU64::new(0),
            span,
        }
    }

    /// The version's program fingerprint, taken on first use: at most
    /// once per run, and not at all by a run that checks no rule.
    pub(crate) fn program_fp(&self) -> u64 {
        *self.program_fp.get_or_init(|| lisa_lang::fingerprint_program(&self.version.program))
    }

    /// Check one rule: past the run deadline as a degraded fixed-path
    /// sanity check, otherwise in full, with panic isolation, fault
    /// arming and bounded retry. Never panics; always returns a report.
    pub(crate) fn check(&self, rule: &SemanticRule) -> RuleReport {
        let past_deadline = self.degrade.expired();
        if past_deadline && self.degrade.first_notice() {
            lisa_telemetry::event(
                "gate.deadline_expired",
                format!(
                    "degrading remaining rules to fixed-path sanity checks \
                     (from rule {})",
                    rule.id
                ),
            );
        }
        let (result, retries) = retry_with_backoff(
            &self.options.retry,
            |_attempt| self.attempt(rule, past_deadline),
            |e: &LisaError| e.is_transient(),
        );
        let mut report = match result {
            Ok(report) => report,
            Err(e) => RuleReport::engine_error(
                rule.id.clone(),
                rule.description.clone(),
                rule.target.to_string(),
                rule.condition_src.clone(),
                e.to_string(),
            ),
        };
        report.retries = retries;
        self.retries.fetch_add(retries as u64, Ordering::Relaxed);
        report
    }

    /// One attempt: arm any injected fault, then run the (possibly
    /// degraded) rule check under `catch_unwind`, classifying the unwind
    /// payload.
    fn attempt(&self, rule: &SemanticRule, degraded: bool) -> Result<RuleReport, LisaError> {
        let faults = self.options.faults.as_ref();
        // Faults that rewrite the input are applied to a clone; the
        // caller's rule is never mutated.
        let mut effective_rule = None;
        let mut effective_pipeline = None;
        match faults.and_then(|inj| inj.arm(&rule.id)) {
            Some(FaultKind::Panic) => {
                panic_isolated(|| panic!("lisa-fault: injected panic for rule {}", rule.id))?;
            }
            Some(FaultKind::TransientPanic) => {
                panic_isolated(|| {
                    panic!("{TRANSIENT_MARKER} injected blip for rule {}", rule.id)
                })?;
            }
            Some(FaultKind::MalformedCondition) => {
                let mut bad = rule.clone();
                bad.condition_src = format!("{} &&", bad.condition_src);
                effective_rule = Some(bad);
            }
            Some(FaultKind::SolverExhaustion) => {
                let mut config = self.pipeline.config.clone();
                config.max_solver_conflicts = Some(0);
                // Keep the cache: queries are keyed by conflict budget, so
                // a zero-budget attempt can never surface a cached
                // full-budget verdict.
                effective_pipeline = Some(self.pipeline.reconfigured(config));
            }
            Some(FaultKind::Stall) => {
                if let Some(inj) = faults {
                    std::thread::sleep(inj.stall);
                }
            }
            None => {}
        }
        let rule = effective_rule.as_ref().unwrap_or(rule);
        let pipeline = effective_pipeline.as_ref().unwrap_or(&self.pipeline);
        // `degraded` (past the gate deadline) runs the cheap fixed-path
        // sanity check; the malformed-rule boundary applies either way.
        let program_fp = pipeline.cache.is_some().then(|| self.program_fp());
        panic_isolated(|| {
            pipeline.try_check(self.version, rule, degraded, Some(&self.degrade), program_fp)
        })?
    }

    /// Close the run over the `reports` this checker produced and the
    /// run's `decision`: build the warnings, fill the `gate.enforce`
    /// span, and publish the `gate.*` counters and the cache's counters.
    pub(crate) fn finish(
        mut self,
        reports: &[RuleReport],
        decision: GateDecision,
        workers: usize,
    ) -> Settled {
        let errored: Vec<&RuleReport> = reports.iter().filter(|r| r.has_engine_error()).collect();
        let degraded_rules = reports.iter().filter(|r| r.degraded).count();
        let retries = self.retries.load(Ordering::Relaxed);
        let mut warnings = Vec::new();
        if self.degrade.was_hit() {
            warnings.push(format!(
                "gate deadline expired; {degraded_rules} rule(s) checked in degraded mode"
            ));
        }
        for r in &errored {
            let reason = r
                .chains
                .iter()
                .find_map(|c| match &c.verdict {
                    crate::verdict::ChainVerdict::EngineError { reason } => Some(reason.as_str()),
                    _ => None,
                })
                .unwrap_or("unknown");
            // The taxonomy's Display already leads with "rule <id>:" — don't
            // repeat it in the warning prefix.
            let reason =
                reason.strip_prefix(&format!("rule {}: ", r.rule_id)).unwrap_or(reason);
            warnings.push(format!("rule {}: engine error: {reason}", r.rule_id));
        }

        self.span.arg("rules", reports.len() as u64);
        self.span.arg("workers", workers as u64);
        self.span.arg("engine_errors", errored.len() as u64);
        self.span.arg("degraded_rules", degraded_rules as u64);
        self.span.arg("retries", retries);
        self.span.set_detail(format!("{} -> {decision}", self.version.label));
        if lisa_telemetry::metrics_enabled() {
            lisa_telemetry::counter_add("gate.runs", 1);
            lisa_telemetry::counter_add(
                match decision {
                    GateDecision::Pass => "gate.pass",
                    GateDecision::Block => "gate.block",
                },
                1,
            );
            lisa_telemetry::counter_add("gate.engine_errors", errored.len() as u64);
            lisa_telemetry::counter_add("gate.degraded_rules", degraded_rules as u64);
            lisa_telemetry::counter_add("gate.retries", retries);
        }
        if let Some(c) = &self.pipeline.cache {
            c.publish_metrics();
        }
        Settled { warnings, degraded_rules, retries }
    }
}

/// Run `f` under `catch_unwind`, converting an unwind into a
/// [`LisaError`]. Injected transient faults (recognized by their payload
/// marker) map to `Transient` so the retry layer picks them up.
fn panic_isolated<T>(f: impl FnOnce() -> T) -> Result<T, LisaError> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|payload| {
        let reason = payload
            .downcast_ref::<&'static str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".to_string());
        if reason.starts_with(TRANSIENT_MARKER) {
            LisaError::Transient { rule_id: String::new(), detail: reason }
        } else {
            LisaError::RulePanicked { rule_id: String::new(), reason }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultPlan;
    use crate::gate::Gate;
    use crate::pipeline::TestSelection;
    use lisa_analysis::TargetSpec;
    use lisa_lang::Program;

    fn version(guard_prep: bool) -> SystemVersion {
        let prep_guard = if guard_prep { "session == null || session.closing" } else { "session == null" };
        let src = format!(
            "struct Session {{ id: int, closing: bool }}\n\
             global sessions: map<int, Session>;\n\
             fn create_ephemeral(s: Session, path: str) {{}}\n\
             fn prep_create(sid: int, path: str) {{\n\
                 let session: Session = sessions.get(sid);\n\
                 if ({prep_guard}) {{ return; }}\n\
                 create_ephemeral(session, path);\n\
             }}\n\
             fn test_prep_live() {{\n\
                 sessions.put(1, new Session {{ id: 1 }});\n\
                 prep_create(1, \"/a\");\n\
             }}"
        );
        let p = Program::parse_single("zk", &src).expect("p");
        let tests = lisa_concolic::discover_tests(&p, "test_");
        SystemVersion::new(if guard_prep { "fixed" } else { "regressed" }, p, tests)
    }

    fn registry() -> RuleRegistry {
        let mut reg = RuleRegistry::new();
        reg.register(
            SemanticRule::new(
                "ZK-1208-r0",
                "no ephemeral create on closing session",
                TargetSpec::Call { callee: "create_ephemeral".into() },
                "s != null && s.closing == false",
            )
            .expect("rule"),
        );
        reg
    }

    fn config() -> PipelineConfig {
        PipelineConfig { selection: TestSelection::All, ..PipelineConfig::default() }
    }

    #[test]
    fn decision_and_exit_code_table() {
        use FailMode::{Closed, Open};
        use GateDecision::{Block, Pass};
        // (violation, engine errors, fail mode) -> (decision, exit)
        let table = [
            ("violation", true, 0, Closed, Block, 1),
            ("engine error, fail-closed", false, 1, Closed, Block, 2),
            ("engine error, fail-open", false, 1, Open, Pass, 0),
            ("violation and engine error, fail-closed", true, 1, Closed, Block, 1),
            ("clean", false, 0, Closed, Pass, 0),
        ];
        for (case, violation, errors, mode, decision, exit) in table {
            let decided = GateDecision::decide(violation, errors, mode);
            assert_eq!(decided, decision, "{case}: decision");
            assert_eq!(decided.exit_code(violation), exit, "{case}: exit");
        }
    }

    #[test]
    fn fixed_version_passes_the_gate() {
        let report = Gate::new(&registry()).config(config()).workers(2).run(&version(true));
        assert_eq!(report.decision, GateDecision::Pass);
        assert!(report.violated_rules().is_empty());
        assert_eq!(report.engine_errors, 0);
        assert_eq!(report.retries, 0);
    }

    #[test]
    fn regressed_version_is_blocked() {
        let report = Gate::new(&registry()).config(config()).workers(2).run(&version(false));
        assert_eq!(report.decision, GateDecision::Block);
        assert_eq!(report.violated_rules().len(), 1);
    }

    #[test]
    fn registry_replaces_same_id() {
        let mut reg = registry();
        let len_before = reg.len();
        reg.register(
            SemanticRule::new(
                "ZK-1208-r0",
                "updated",
                TargetSpec::Call { callee: "create_ephemeral".into() },
                "s != null",
            )
            .expect("rule"),
        );
        assert_eq!(reg.len(), len_before);
        assert_eq!(reg.get("ZK-1208-r0").expect("rule").description, "updated");
    }

    #[test]
    fn registry_replacement_preserves_order() {
        let mut reg = RuleRegistry::new();
        for id in ["A", "B", "C"] {
            reg.register(
                SemanticRule::new(
                    id,
                    id,
                    TargetSpec::Call { callee: "create_ephemeral".into() },
                    "s != null",
                )
                .expect("rule"),
            );
        }
        reg.register(
            SemanticRule::new(
                "B",
                "B updated",
                TargetSpec::Call { callee: "create_ephemeral".into() },
                "s != null && s.closing == false",
            )
            .expect("rule"),
        );
        let ids: Vec<&str> = reg.rules().iter().map(|r| r.id.as_str()).collect();
        assert_eq!(ids, vec!["A", "B", "C"], "replacement must not reorder");
        assert_eq!(reg.get("B").expect("B").description, "B updated");
    }

    #[test]
    fn parallel_matches_sequential() {
        let reg = {
            let mut r = registry();
            r.register(
                SemanticRule::new(
                    "EXTRA-r0",
                    "session must exist",
                    TargetSpec::Call { callee: "create_ephemeral".into() },
                    "s != null",
                )
                .expect("rule"),
            );
            r
        };
        let v = version(false);
        let seq = Gate::new(&reg).config(config()).workers(1).run(&v);
        let par = Gate::new(&reg).config(config()).workers(4).run(&v);
        assert_eq!(seq.decision, par.decision);
        assert_eq!(seq.reports.len(), par.reports.len());
        for (a, b) in seq.reports.iter().zip(par.reports.iter()) {
            assert_eq!(a.rule_id, b.rule_id);
            assert_eq!(a.violated_count(), b.violated_count());
        }
    }

    #[test]
    fn injected_panic_blocks_under_fail_closed() {
        let options = GateOptions {
            faults: Some(FaultInjector::new(
                FaultPlan::new().inject("ZK-1208-r0", FaultKind::Panic),
            )),
            retry: RetryPolicy::none(),
            ..GateOptions::default()
        };
        let report = Gate::new(&registry()).config(config()).workers(2).options(options).run(&version(true));
        assert_eq!(report.decision, GateDecision::Block);
        assert_eq!(report.engine_errors, 1);
        assert!(report.review_needed >= 1);
        assert!(report.reports[0].has_engine_error());
    }

    #[test]
    fn injected_panic_passes_with_warning_under_fail_open() {
        let options = GateOptions {
            fail_mode: FailMode::Open,
            faults: Some(FaultInjector::new(
                FaultPlan::new().inject("ZK-1208-r0", FaultKind::Panic),
            )),
            retry: RetryPolicy::none(),
            ..GateOptions::default()
        };
        let report = Gate::new(&registry()).config(config()).workers(2).options(options).run(&version(true));
        assert_eq!(report.decision, GateDecision::Pass);
        assert_eq!(report.engine_errors, 1);
        assert!(report.warnings.iter().any(|w| w.contains("engine error")));
    }

    #[test]
    fn transient_panic_is_retried_and_recovers() {
        let options = GateOptions {
            faults: Some(FaultInjector::new(
                FaultPlan::new().inject("ZK-1208-r0", FaultKind::TransientPanic),
            )),
            retry: RetryPolicy {
                max_attempts: 3,
                initial_backoff: Duration::from_millis(1),
                max_backoff: Duration::from_millis(2),
            },
            ..GateOptions::default()
        };
        let report = Gate::new(&registry()).config(config()).workers(1).options(options).run(&version(true));
        assert_eq!(report.decision, GateDecision::Pass, "{:?}", report.warnings);
        assert_eq!(report.engine_errors, 0);
        assert_eq!(report.retries, 1, "one retry should clear the blip");
    }

    #[test]
    fn malformed_condition_fault_is_a_per_rule_error() {
        let options = GateOptions {
            faults: Some(FaultInjector::new(
                FaultPlan::new().inject("ZK-1208-r0", FaultKind::MalformedCondition),
            )),
            retry: RetryPolicy::none(),
            ..GateOptions::default()
        };
        let report = Gate::new(&registry()).config(config()).workers(1).options(options).run(&version(true));
        assert_eq!(report.engine_errors, 1);
        assert!(report.warnings.iter().any(|w| w.contains("malformed")));
    }

    #[test]
    fn zero_deadline_degrades_every_rule_but_still_decides() {
        let options = GateOptions {
            deadline: Some(Duration::ZERO),
            ..GateOptions::default()
        };
        let report = Gate::new(&registry()).config(config()).workers(1).options(options).run(&version(false));
        assert_eq!(report.degraded_rules, 1);
        assert!(report.reports[0].degraded);
        assert!(report.warnings.iter().any(|w| w.contains("deadline")));
        // The degraded sanity check still executes the one selected test
        // and can still catch the regression on this small system.
        assert_eq!(report.decision, GateDecision::Block);
    }

    #[test]
    fn fault_on_one_rule_leaves_other_rules_untouched() {
        let mut reg = registry();
        reg.register(
            SemanticRule::new(
                "EXTRA-r0",
                "session must exist",
                TargetSpec::Call { callee: "create_ephemeral".into() },
                "s != null",
            )
            .expect("rule"),
        );
        let clean = Gate::new(&reg).config(config()).workers(2).run(&version(false));
        let options = GateOptions {
            faults: Some(FaultInjector::new(
                FaultPlan::new().inject("EXTRA-r0", FaultKind::Panic),
            )),
            retry: RetryPolicy::none(),
            ..GateOptions::default()
        };
        let faulted = Gate::new(&reg).config(config()).workers(2).options(options).run(&version(false));
        let clean_zk = &clean.reports[0];
        let faulted_zk = &faulted.reports[0];
        assert_eq!(clean_zk.rule_id, faulted_zk.rule_id);
        assert_eq!(clean_zk.violated_count(), faulted_zk.violated_count());
        assert_eq!(clean_zk.verified_count(), faulted_zk.verified_count());
        assert_eq!(clean_zk.not_covered_count(), faulted_zk.not_covered_count());
        assert!(faulted.reports[1].has_engine_error());
    }
}
