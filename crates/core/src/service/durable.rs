//! Durable gate runs: a gate run whose progress is journaled, and the
//! read-only view of what a job's journal has settled.
//!
//! Rules are checked **sequentially** (deterministic journal-record
//! boundaries are what make the E11 kill-matrix meaningful), each
//! settled verdict is appended to the write-ahead journal before the next
//! rule starts, and a resumed run reuses journaled verdicts instead of
//! re-running concolic exploration. The recovery invariant: a run killed
//! at *any* journal-record boundary and resumed produces a byte-identical
//! final verdict artifact ([`DurableGateReport::verdicts_text`]). Within
//! a durable run, determinism wins over parallelism.
//!
//! This module returns data only; the serve daemon turns it into reply
//! lines.

use std::collections::{BTreeMap, HashSet};
use std::fmt::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use lisa_analysis::CallGraph;
use lisa_concolic::SystemVersion;
use lisa_oracle::SemanticRule;
use lisa_store::repl::ReplBus;
use lisa_store::{FingerprintFile, IoFaults, RuleOutcome, RunState, RunStore, StoreError};
use lisa_util::{fnv1a, Fnv1a};

use crate::enforce::{GateDecision, GateOptions, RuleChecker, RuleRegistry};
use crate::gate::GateCache;
use crate::pipeline::PipelineConfig;
use crate::verdict::RuleReport;

/// Fingerprint the `(version, rule set)` a journal belongs to. A stale
/// journal — different program text, tests, or rules — must never donate
/// verdicts to a run it does not describe.
pub fn run_key(version: &SystemVersion, rules: &[SemanticRule]) -> String {
    // One unseparated text stream, hashed as it is written: the label,
    // every function's canonical text, test names and rule fields.
    let mut h = Fnv1a::new();
    let stream = |h: &mut Fnv1a| -> fmt::Result {
        writeln!(h, "{}", version.label)?;
        for f in version.program.functions() {
            lisa_lang::pretty::write_fn(f, h)?;
        }
        for t in &version.tests {
            writeln!(h, "{}", t.name)?;
        }
        for r in rules {
            writeln!(
                h,
                "{}\u{1f}{}\u{1f}{}\u{1f}{}",
                r.id, r.description, r.target, r.condition_src
            )?;
        }
        Ok(())
    };
    stream(&mut h).expect("hashing text cannot fail");
    format!("{}-{:016x}", version.label, h.finish())
}

/// Canonical verdict fingerprint for one rule report: chain verdicts and
/// rendered paths plus fold counts — everything decision-relevant,
/// nothing timing-dependent. This is the byte-comparable artifact the
/// crash-recovery invariant is stated over.
pub fn fingerprint(r: &RuleReport) -> String {
    let mut s = String::new();
    for c in &r.chains {
        s.push_str(&format!("[{}] {}\n", c.verdict.label(), c.rendered));
    }
    s.push_str(&format!(
        "verified={} violated={} off_tree={} not_covered={} engine_errors={} sanity_ok={}",
        r.verified_count(),
        r.violated_count(),
        r.off_tree_violations.len(),
        r.not_covered_count(),
        r.engine_error_count(),
        r.sanity_ok,
    ));
    s
}

/// Condense a rule report into the journaled outcome.
pub fn outcome_of(r: &RuleReport) -> RuleOutcome {
    RuleOutcome {
        rule_id: r.rule_id.clone(),
        fingerprint: fingerprint(r),
        verified: r.verified_count() as u64,
        violated: (r.violated_count() + r.off_tree_violations.len()) as u64,
        not_covered: r.not_covered_count() as u64,
        engine_errors: r.engine_error_count() as u64,
        degraded: r.degraded,
        sanity_ok: r.sanity_ok,
        retries: r.retries as u64,
    }
}

/// Computes per-rule dependency hashes for cross-version reuse: the hash
/// of exactly the inputs a rule's verdict is a function of. Sound
/// over-approximation — a hash that moves only forces a re-check, but a
/// hash that stays MUST imply an identical verdict, so the relevant set
/// errs wide:
///
/// - the rule itself (id, description, target, condition text),
/// - struct layouts and globals (interpreter semantics),
/// - every test's name, summary, and entry (selection inputs),
/// - the effective pipeline configuration and gate retry policy,
/// - the fingerprint of every *relevant* function, in program order:
///   functions that can reach the target (they shape chains and
///   aliases) plus everything executed by tests that can reach it
///   (their whole trace feeds the recorded path conditions), with
///   membership itself part of the hash — adding or removing a relevant
///   function moves it.
///
/// Tests that cannot reach the target are deliberately NOT relevant
/// beyond their hashed name/summary/entry: the journaled outcome is
/// built from target arrivals and chain structure only (`fingerprint`
/// above), and a run that never arrives contributes neither — its
/// interior can change freely without moving any verdict.
struct DepHasher {
    graph: Arc<CallGraph>,
    fn_fps: BTreeMap<String, u64>,
    /// Hash of everything rule-independent: decls, tests, configuration.
    base: u64,
    /// Test entry points (candidates for the per-rule forward walk).
    test_entries: Vec<String>,
}

impl DepHasher {
    /// The call graph comes from `cache` under the run's `program_fp`
    /// (the [`RuleChecker`]'s), so the durable run's rule checks reuse it
    /// instead of building their own.
    fn new(
        version: &SystemVersion,
        config: &PipelineConfig,
        gate: &GateOptions,
        cache: &GateCache,
        program_fp: u64,
    ) -> DepHasher {
        let program = &version.program;
        let graph = cache.analysis().callgraph(program_fp, || CallGraph::build(program));
        let mut base = Fnv1a::new();
        base.part_u64(lisa_lang::fingerprint_decls(&version.program));
        for t in &version.tests {
            base.part(t.name.as_bytes());
            base.part(t.summary.as_bytes());
            base.part(t.entry.as_bytes());
        }
        // Debug formatting is stable for a given binary; a format change
        // across releases costs one re-check, never a wrong reuse.
        base.part_with(|h| write!(h, "{config:?}"));
        base.part_with(|h| write!(h, "{:?}", gate.retry));

        DepHasher {
            graph,
            fn_fps: lisa_lang::fn_fingerprints(&version.program),
            base: base.finish(),
            test_entries: version.tests.iter().map(|t| t.entry.clone()).collect(),
        }
    }

    fn dep_hash(&self, rule: &SemanticRule) -> u64 {
        // Reverse closure: every function from which the target can be
        // reached (the functions that form chains and donate aliases).
        let mut to_target = HashSet::new();
        let mut work: Vec<String> = rule
            .target
            .sites(&self.graph)
            .into_iter()
            .map(|sid| self.graph.site(sid).caller.clone())
            .collect();
        while let Some(f) = work.pop() {
            if !to_target.insert(f.clone()) {
                continue;
            }
            for &sid in self.graph.callers_of(&f) {
                work.push(self.graph.site(sid).caller.clone());
            }
        }
        // Forward closure from the tests that can reach the target: the
        // whole trace of a reaching run feeds its recorded constraints,
        // including detours through functions off the target paths.
        let mut relevant = to_target.clone();
        let mut work: Vec<String> =
            self.test_entries.iter().filter(|e| to_target.contains(*e)).cloned().collect();
        while let Some(f) = work.pop() {
            for &sid in self.graph.sites_in(&f) {
                let callee = self.graph.site(sid).callee.clone();
                if relevant.insert(callee.clone()) {
                    work.push(callee);
                }
            }
        }
        let mut h = Fnv1a::new();
        h.part_u64(self.base);
        h.part(rule.id.as_bytes());
        h.part(rule.description.as_bytes());
        h.part_display(&rule.target);
        h.part(rule.condition_src.as_bytes());
        // Relevant functions in program order, names + fingerprints:
        // relative order matters (it fixes chain and site enumeration
        // order in reports).
        for f in self.graph.functions() {
            if relevant.contains(f) {
                h.part(f.as_bytes());
                h.part_u64(self.fn_fps.get(f).copied().unwrap_or(0));
            }
        }
        h.finish()
    }
}

/// Where and how a durable run persists its state.
#[derive(Default)]
pub struct DurableOptions {
    /// Directory holding the run's journal and fingerprint file.
    pub state_dir: PathBuf,
    /// Disk fault injection at the store's I/O seams (E11, tests).
    pub disk_faults: Option<Arc<dyn IoFaults>>,
    /// Liveness heartbeat: called after every rule settles (reused or
    /// fresh). The serve daemon uses it to tell a slow-but-
    /// progressing job from a wedged one.
    pub progress: Option<Arc<dyn Fn() + Send + Sync>>,
    /// Cooperative cancellation, checked at every rule boundary. When it
    /// fires the run returns [`StoreError::Cancelled`] without touching
    /// the store further; the journal written so far stays valid for
    /// resume.
    pub cancel: Option<Arc<AtomicBool>>,
    /// Version-scoped cache shared with the in-memory gate machinery.
    /// Also enables cross-version reuse via the persisted fingerprint
    /// file beside the journal (skipped whenever faults or a deadline
    /// make verdicts non-reproducible).
    pub cache: Option<Arc<GateCache>>,
    /// Replication publisher: when attached, every file this run's
    /// store writes (journal appends, fingerprint file, stale-run
    /// archive) is also shipped to subscribed followers.
    pub repl: Option<Arc<ReplBus>>,
}

/// Result of a durable (journaled, resumable) gate run.
#[derive(Debug)]
pub struct DurableGateReport {
    pub version: String,
    pub run_key: String,
    pub decision: GateDecision,
    /// Outcomes in registry order, one per rule.
    pub outcomes: Vec<RuleOutcome>,
    /// Verdicts reused from the journal (not re-executed).
    pub reused: usize,
    /// Verdicts settled by this process (includes cross-version reuses —
    /// they journal the same records a re-check would have).
    pub fresh: usize,
    /// Of `fresh`, how many were reused from the previous version's
    /// fingerprint file instead of being re-explored. Deliberately not
    /// part of [`DurableGateReport::render`] or the CLI JSON line: cached
    /// and uncached runs must stay byte-identical on stdout. Telemetry
    /// (`service.verdicts_cross_version`) carries it instead.
    pub cross_version: usize,
    /// False if journaling was disabled mid-run (e.g. ENOSPC).
    pub durable: bool,
    /// Journal records replayed on open.
    pub recovered_records: usize,
    pub warnings: Vec<String>,
}

impl DurableGateReport {
    pub fn engine_errors(&self) -> usize {
        self.outcomes.iter().filter(|o| o.has_engine_error()).count()
    }

    pub fn has_violation(&self) -> bool {
        self.outcomes.iter().any(|o| o.has_violation())
    }

    /// The canonical verdict artifact: byte-identical between an
    /// uninterrupted run and any crash-resumed run of the same inputs.
    pub fn verdicts_text(&self) -> String {
        verdict_digest(&self.outcomes, Some(&self.decision.to_string()))
    }

    /// Human-readable summary.
    pub fn render(&self) -> String {
        let mut out = format!(
            "durable gate `{}`: {} — {} rule(s), {} reused from journal, {} fresh\n",
            self.version,
            self.decision,
            self.outcomes.len(),
            self.reused,
            self.fresh,
        );
        for o in &self.outcomes {
            out.push_str(&format!(
                "  {:<12} verified={} violated={} not_covered={} engine_errors={}{}\n",
                o.rule_id,
                o.verified,
                o.violated,
                o.not_covered,
                o.engine_errors,
                if o.degraded { " (degraded)" } else { "" },
            ));
        }
        if !self.durable {
            out.push_str("  ! journaling disabled mid-run; this run is not resumable\n");
        }
        for w in &self.warnings {
            out.push_str(&format!("  warning: {w}\n"));
        }
        out
    }
}

/// Run the gate durably: journal every settled verdict, reuse verdicts a
/// previous (crashed) run already journaled, and record the final
/// decision. Opening the store can fail (bad directory); everything past
/// that degrades instead of failing — an undecidable gate is worse than
/// an unjournaled one.
pub fn gate_durable(
    registry: &RuleRegistry,
    version: &SystemVersion,
    config: &PipelineConfig,
    gate: &GateOptions,
    durable: &DurableOptions,
) -> Result<DurableGateReport, StoreError> {
    let key = run_key(version, registry.rules());
    let mut run_span = lisa_telemetry::span_with("service.durable_run", key.clone());
    let mut store = RunStore::open_replicated(
        &durable.state_dir,
        &key,
        durable.disk_faults.clone(),
        durable.repl.clone(),
    )?;
    let mut warnings = std::mem::take(&mut store.warnings);
    let recovered_records = store.recovered_records;

    // Cross-version reuse: a rule whose dependency hash matches the
    // persisted fingerprint file (written by the previous run in this
    // state dir, possibly for a *different* version) gets its recorded
    // outcome journaled verbatim instead of being re-explored. Off
    // whenever faults or a deadline could make a verdict depend on
    // anything but the hashed inputs.
    let reuse_cache =
        durable.cache.as_ref().filter(|_| gate.faults.is_none() && gate.deadline.is_none());

    // One checker for the whole job: one pipeline, and one deadline that
    // every rule checked below shares.
    let checker = RuleChecker::new(version, config, gate, durable.cache.as_ref());
    let mut checked = Vec::new();
    // The dependency hasher and the prior fingerprint file, built at the
    // first rule the journal has not settled: a settled resubmit reads
    // and hashes nothing.
    let mut reuse: Option<(DepHasher, FingerprintFile)> = None;

    let mut reused = 0usize;
    let mut fresh = 0usize;
    let mut cross_version = 0usize;
    for rule in registry.rules() {
        if durable.cancel.as_ref().is_some_and(|c| c.load(Ordering::SeqCst)) {
            return Err(StoreError::Cancelled);
        }
        if store.state.finished_outcome(&rule.id).is_some() {
            reused += 1;
            if let Some(beat) = &durable.progress {
                beat();
            }
            continue;
        }
        store.record_started(&rule.id);
        let prior_outcome = reuse_cache.and_then(|cache| {
            let (deps, prior) = reuse.get_or_insert_with(|| {
                let deps = DepHasher::new(version, config, gate, cache, checker.program_fp());
                (deps, FingerprintFile::load(store.dir()))
            });
            prior.reusable(&rule.id, deps.dep_hash(rule)).cloned()
        });
        if let Some(outcome) = prior_outcome {
            // Same records a re-check would journal: the wal stays
            // byte-identical to an uncached run's.
            store.record_finished(outcome);
            cross_version += 1;
        } else {
            // One rule at a time, in journal order, on this thread.
            let report = checker.check(rule);
            store.record_finished(outcome_of(&report));
            checked.push(report);
        }
        fresh += 1;
        if let Some(beat) = &durable.progress {
            beat();
        }
    }
    if durable.cancel.as_ref().is_some_and(|c| c.load(Ordering::SeqCst)) {
        return Err(StoreError::Cancelled);
    }

    let outcomes: Vec<RuleOutcome> = registry
        .rules()
        .iter()
        .filter_map(|r| store.state.finished_outcome(&r.id).cloned())
        .collect();
    let engine_errors = outcomes.iter().filter(|o| o.has_engine_error()).count();
    let has_violation = outcomes.iter().any(|o| o.has_violation());
    let decision = GateDecision::decide(has_violation, engine_errors, gate.fail_mode);
    warnings.extend(checker.finish(&checked, decision, 1).warnings);

    // Persist this run's fingerprints so the *next* version can reuse
    // every rule whose dependencies it leaves untouched. Only a run that
    // settled a rule has a hasher, so a settled resubmit rewrites
    // nothing. Failures warn: the fingerprint file is an optimization,
    // the journal is the truth.
    if let Some((deps, _)) = &reuse {
        let mut next = FingerprintFile::default();
        for rule in registry.rules() {
            if let Some(o) = store.state.finished_outcome(&rule.id) {
                next.insert(deps.dep_hash(rule), o.clone());
            }
        }
        if let Err(e) = store.save_fingerprints(&next) {
            warnings.push(format!("fingerprint file not saved ({e}); next run re-checks"));
        }
    }

    // Journal the decision only when it is a new fact: a resubmit under
    // the same fail mode appends nothing, one under another mode records
    // the decision it reached.
    let decided = decision.to_string();
    if store.state.decision.as_deref() != Some(decided.as_str()) {
        store.record_run_finished(&decided);
    }
    warnings.extend(store.warnings.iter().cloned());

    run_span.arg("rules", registry.rules().len() as u64);
    run_span.arg("reused", reused as u64);
    run_span.arg("fresh", fresh as u64);
    run_span.arg("cross_version", cross_version as u64);
    run_span.arg("recovered_records", recovered_records as u64);
    if lisa_telemetry::metrics_enabled() {
        lisa_telemetry::counter_add("service.verdicts_reused", reused as u64);
        lisa_telemetry::counter_add("service.verdicts_fresh", fresh as u64);
        lisa_telemetry::counter_add("service.verdicts_cross_version", cross_version as u64);
        lisa_telemetry::counter_add("service.durable_runs", 1);
    }

    Ok(DurableGateReport {
        version: version.label.clone(),
        run_key: key,
        decision,
        outcomes,
        reused,
        fresh,
        cross_version,
        durable: store.durable(),
        recovered_records,
        warnings,
    })
}

/// The verdict digest text: each settled outcome's rule id and
/// fingerprint in order, then the decision once the run has one. A
/// finished run's digest is its [`DurableGateReport::verdicts_text`]; the
/// `verdict` op hashes the same text, so two nodes' views compare without
/// shipping every report.
pub(super) fn verdict_digest(outcomes: &[RuleOutcome], decision: Option<&str>) -> String {
    let mut out = String::new();
    for o in outcomes {
        out.push_str(&format!("rule {}\n{}\n", o.rule_id, o.fingerprint));
    }
    if let Some(d) = decision {
        out.push_str(&format!("decision {d}\n"));
    }
    out
}

/// Map a client-supplied job id to its state-directory name. Ids that
/// are already filesystem-safe map to themselves; anything else gets a
/// hash of the raw id appended so distinct ids can never collide after
/// character replacement (`a/b` vs `a_b`), and an empty id can never
/// alias the state root itself.
pub(super) fn sanitize(id: &str) -> String {
    let safe: String = id
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() || c == '-' || c == '_' { c } else { '_' })
        .collect();
    if safe == id && !safe.is_empty() {
        safe
    } else {
        format!("{safe}-{:08x}", fnv1a(id.as_bytes()) as u32)
    }
}

/// What the job `job_id` has settled under `state_root`, read without
/// opening a [`RunStore`]: recovery repairs (truncation, quarantine)
/// would *mutate* journals a follower is busy mirroring. `None` when the
/// job has no state directory.
pub(super) fn settled(state_root: &Path, job_id: &str) -> Option<RunState> {
    let dir = state_root.join(sanitize(job_id));
    dir.is_dir().then(|| RunState::read(&dir))
}
