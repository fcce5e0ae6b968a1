//! Durable gate runs and the supervised `lisa serve` daemon.
//!
//! Two layers live here, both built on `lisa-store`:
//!
//! - [`gate_durable`] — a gate run whose progress is journaled. Rules
//!   are checked **sequentially** (deterministic journal-record
//!   boundaries are what make the E11 kill-matrix meaningful), each
//!   settled verdict is appended to the write-ahead journal before the
//!   next rule starts, and a resumed run reuses journaled verdicts
//!   instead of re-running concolic exploration. The recovery invariant:
//!   a run killed at *any* journal-record boundary and resumed produces
//!   a byte-identical final verdict artifact ([`DurableGateReport::verdicts_text`]).
//! - [`serve`] — a daemon accepting gate jobs as newline-delimited JSON
//!   over a unix socket and (with `--listen`) TCP, processed by a
//!   supervised worker pool: panicked workers are reaped and
//!   respawned, stalled workers (no heartbeat for the
//!   tenant's `job_timeout`) abandoned, their jobs retried with backoff
//!   and dead-lettered after `max_attempts`, with bounded-queue
//!   backpressure and graceful drain on shutdown. Two isolation rules
//!   keep recovery honest: every respawned worker gets a **fresh slot**
//!   (an abandoned thread can never take — or answer — a job it does
//!   not own), and jobs sharing a state directory are **serialized** (a
//!   retry never races its abandoned predecessor on the same journal).
//!
//! The daemon is **multi-tenant**: a gate request may carry a `tenant`
//! field routing it to that tenant's bounded queue, rule registry, and
//! version-scoped cache. Dequeue is weighted-fair (stride scheduling
//! over `--tenants` weights via [`crate::tenant::FairQueues`]), and
//! admission control sheds explicitly — a saturated tenant or global
//! queue answers `{"status":"shed","retry_after_ms":...}` immediately
//! instead of blocking or dropping the connection. Every listener — the
//! unix socket, `--listen`, `--repl-listen`, a follower's socket — sits
//! behind one hand-rolled `poll(2)` readiness loop ([`crate::netloop`]):
//! idle clients cost no threads and can never stall the supervisor, and
//! one dispatcher answers every request line.
//!
//! Parallel throughput comes from the worker pool across jobs; within a
//! durable run, determinism wins over parallelism.

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use lisa_analysis::CallGraph;
use lisa_concolic::{discover_tests, SystemVersion};
use lisa_lang::Program;
use lisa_oracle::{author_rule, SemanticRule};
use lisa_store::journal::{fnv1a, frame, Journal, FRAME_HEADER};
use lisa_store::repl::{
    decode_wire, encode_wire, Applier, BusPoll, FrameDecoder, ReplBus, StreamFault, StreamFaults,
    Wire, REPL_VERSION,
};
use lisa_store::{
    read_atomic, scan, FingerprintFile, GateEvent, IoFaults, RuleOutcome, RunState, RunStore,
    StoreError,
};
use lisa_util::RetryPolicy;

use crate::enforce::{enforce_impl, FailMode, GateDecision, GateOptions, RuleRegistry};
use crate::faults::FAULT_PANIC_PREFIX;
use crate::gate::GateCache;
use crate::json::{escape, Json};
use crate::netloop::{raise_fd_limit, Addr, NetGate, PollSet, Stream};
use crate::pipeline::{PipelineConfig, TestSelection};
use crate::tenant::{
    valid_tenant, Admitted, FairQueues, TenantSpec, MAX_JOB_ID_LEN,
};
use crate::verdict::RuleReport;

/// NDJSON protocol version the serve daemon speaks. Requests may carry a
/// `"v"` field; a missing `v` is treated as version 1 (the field
/// predates nothing — v1 is the first and only version), while any other
/// value is a structured bad-request.
pub const PROTOCOL_VERSION: u64 = 1;

// ---------------------------------------------------------------------------
// System / rules loading (shared by the CLI and serve jobs)
// ---------------------------------------------------------------------------

/// Load every `.sir` file under `dir` (sorted, non-recursive) into one
/// program; discover tests by prefix.
pub fn load_system(dir: &str, test_prefix: &str) -> Result<SystemVersion, String> {
    let dir = Path::new(dir);
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("cannot read {}: {e}", dir.display()))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "sir"))
        .collect();
    files.sort();
    if files.is_empty() {
        return Err(format!("no .sir files in {}", dir.display()));
    }
    let mut sources = Vec::new();
    for f in &files {
        let text =
            std::fs::read_to_string(f).map_err(|e| format!("read {}: {e}", f.display()))?;
        let name = f.file_stem().and_then(|s| s.to_str()).unwrap_or("module").to_string();
        sources.push((name, text));
    }
    let refs: Vec<(&str, &str)> =
        sources.iter().map(|(n, t)| (n.as_str(), t.as_str())).collect();
    let program = Program::parse(&refs).map_err(|e| e.to_string())?;
    let errors = lisa_lang::check_program(&program);
    if !errors.is_empty() {
        let msgs: Vec<String> = errors.iter().map(|e| e.to_string()).collect();
        return Err(format!("type errors:\n  {}", msgs.join("\n  ")));
    }
    let tests = discover_tests(&program, test_prefix);
    let label = dir.file_name().and_then(|s| s.to_str()).unwrap_or("system").to_string();
    Ok(SystemVersion::new(label, program, tests))
}

/// Parse a rules file of authoring-template sentences.
pub fn load_rules(path: &str) -> Result<Vec<SemanticRule>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    parse_rules_text(path, &text)
}

/// Parse rules from already-read text (`path` labels errors only).
fn parse_rules_text(path: &str, text: &str) -> Result<Vec<SemanticRule>, String> {
    let mut rules = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let rule = author_rule(&format!("rule-{}", lineno + 1), line)
            .map_err(|e| format!("{path}:{}: {e}", lineno + 1))?;
        rules.push(rule);
    }
    if rules.is_empty() {
        return Err(format!("{path}: no rules"));
    }
    Ok(rules)
}

// ---------------------------------------------------------------------------
// Durable gate runs
// ---------------------------------------------------------------------------

/// Fingerprint the `(version, rule set)` a journal belongs to. A stale
/// journal — different program text, tests, or rules — must never donate
/// verdicts to a run it does not describe.
pub fn run_key(version: &SystemVersion, rules: &[SemanticRule]) -> String {
    let mut text = String::new();
    text.push_str(&version.label);
    text.push('\n');
    for f in version.program.functions() {
        text.push_str(&lisa_lang::pretty::print_fn(f));
    }
    for t in &version.tests {
        text.push_str(&t.name);
        text.push('\n');
    }
    for r in rules {
        text.push_str(&format!(
            "{}\u{1f}{}\u{1f}{}\u{1f}{}\n",
            r.id, r.description, r.target, r.condition_src
        ));
    }
    format!("{}-{:016x}", version.label, fnv1a(text.as_bytes()))
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
/// - the effective pipeline configuration and gate budgets,
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
    graph: CallGraph,
    fn_fps: std::collections::BTreeMap<String, u64>,
    /// Hash of everything rule-independent: decls, tests, configuration.
    base: u64,
    /// Test entry points (candidates for the per-rule forward walk).
    test_entries: Vec<String>,
}

impl DepHasher {
    fn new(version: &SystemVersion, config: &PipelineConfig, gate: &GateOptions) -> DepHasher {
        let graph = CallGraph::build(&version.program);
        let mut base = lisa_util::Fnv1a::new();
        base.part_u64(lisa_lang::fingerprint_decls(&version.program));
        for t in &version.tests {
            base.part(t.name.as_bytes());
            base.part(t.summary.as_bytes());
            base.part(t.entry.as_bytes());
        }
        // Debug formatting is stable for a given binary; a format change
        // across releases costs one re-check, never a wrong reuse.
        base.part(format!("{config:?}").as_bytes());
        base.part(format!("{:?}", gate.budgets).as_bytes());
        base.part(format!("{:?}", gate.retry).as_bytes());

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
        let mut h = lisa_util::Fnv1a::new();
        h.part_u64(self.base);
        h.part(rule.id.as_bytes());
        h.part(rule.description.as_bytes());
        h.part(rule.target.to_string().as_bytes());
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
pub struct DurableOptions {
    /// Directory holding the run's journal and snapshot.
    pub state_dir: PathBuf,
    /// Disk fault injection at the store's I/O seams (E11, tests).
    pub disk_faults: Option<Arc<dyn IoFaults>>,
    /// Checkpoint (snapshot + journal truncate) after every N fresh
    /// verdicts; 0 = never checkpoint.
    pub checkpoint_every: usize,
    /// Liveness heartbeat: called after every rule settles (reused or
    /// fresh). The serve supervisor uses it to tell a slow-but-
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
    /// Replication publisher: when attached, every durable mutation of
    /// this run (append, snapshot, reset) is also shipped to subscribed
    /// followers.
    pub repl: Option<Arc<ReplBus>>,
}

impl Default for DurableOptions {
    fn default() -> Self {
        DurableOptions {
            state_dir: PathBuf::new(),
            disk_faults: None,
            checkpoint_every: 0,
            progress: None,
            cancel: None,
            cache: None,
            repl: None,
        }
    }
}

/// Result of a durable (journaled, resumable) gate run.
#[derive(Debug)]
pub struct DurableGateReport {
    pub version: String,
    pub run_key: String,
    pub decision: GateDecision,
    pub fail_mode: FailMode,
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
        let mut out = String::new();
        for o in &self.outcomes {
            out.push_str(&format!("rule {}\n{}\n", o.rule_id, o.fingerprint));
        }
        out.push_str(&format!("decision {}\n", self.decision));
        out
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
    // A wall-clock budget makes truncation timing-dependent: such
    // verdicts are not pure functions of the hashed inputs, so reuse is
    // off entirely (mirrors the trace cache's wall-budget bypass).
    let reuse_fingerprints = durable.cache.is_some()
        && gate.faults.is_none()
        && gate.deadline.is_none()
        && gate.budgets.rule_wall.is_none()
        && config.budgets.rule_wall.is_none();
    let prior = if reuse_fingerprints {
        FingerprintFile::load(&durable.state_dir)
    } else {
        FingerprintFile::default()
    };
    let deps = reuse_fingerprints.then(|| DepHasher::new(version, config, gate));

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
        let prior_outcome = deps
            .as_ref()
            .and_then(|d| prior.reusable(&rule.id, d.dep_hash(rule)))
            .cloned();
        if let Some(outcome) = prior_outcome {
            // Same records a re-check would journal: the wal stays
            // byte-identical to an uncached run's.
            store.record_finished(outcome);
            cross_version += 1;
        } else {
            // One rule at a time, in journal order, on this thread: the
            // per-rule machinery (panic isolation, retries, budgets) is
            // the gate engine on a singleton registry.
            let mut single = RuleRegistry::new();
            single.register(rule.clone());
            let report = enforce_impl(&single, version, config, 1, gate, durable.cache.as_ref());
            warnings.extend(report.warnings.iter().cloned());
            store.record_finished(outcome_of(&report.reports[0]));
        }
        fresh += 1;
        if let Some(beat) = &durable.progress {
            beat();
        }
        if durable.checkpoint_every > 0 && fresh.is_multiple_of(durable.checkpoint_every) {
            if let Err(e) = store.checkpoint() {
                warnings.push(format!("checkpoint failed ({e}); journal left as-is"));
            }
        }
    }
    if durable.cancel.as_ref().is_some_and(|c| c.load(Ordering::SeqCst)) {
        return Err(StoreError::Cancelled);
    }

    // Persist this run's fingerprints so the *next* version can reuse
    // every rule whose dependencies it leaves untouched. Failures warn:
    // the fingerprint file is an optimization, the journal is the truth.
    if let Some(d) = &deps {
        let mut next = FingerprintFile::default();
        for rule in registry.rules() {
            if let Some(o) = store.state.finished_outcome(&rule.id) {
                next.insert(d.dep_hash(rule), o.clone());
            }
        }
        if let Err(e) = next.save(&durable.state_dir) {
            warnings.push(format!("fingerprint file not saved ({e}); next run re-checks"));
        }
    }

    let outcomes: Vec<RuleOutcome> = registry
        .rules()
        .iter()
        .filter_map(|r| store.state.finished_outcome(&r.id).cloned())
        .collect();
    let engine_errors = outcomes.iter().filter(|o| o.has_engine_error()).count();
    let has_violation = outcomes.iter().any(|o| o.has_violation());
    let decision = if has_violation || (engine_errors > 0 && gate.fail_mode == FailMode::Closed)
    {
        GateDecision::Block
    } else {
        GateDecision::Pass
    };
    store.record_run_finished(&decision.to_string());
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
        fail_mode: gate.fail_mode,
        outcomes,
        reused,
        fresh,
        cross_version,
        durable: store.durable(),
        recovered_records,
        warnings,
    })
}

// ---------------------------------------------------------------------------
// The serve daemon
// ---------------------------------------------------------------------------

/// Configuration for [`serve`].
#[derive(Clone)]
pub struct ServeConfig {
    /// Unix socket path to listen on (created; removed on clean exit).
    pub socket: PathBuf,
    /// Root directory for per-job durable state (`<root>/<job-id>/`).
    pub state_root: PathBuf,
    /// Worker threads.
    pub workers: usize,
    /// Queue capacity; submissions beyond it get an `overloaded` reply.
    pub queue_cap: usize,
    /// A worker making no progress on its job for this long is
    /// considered stalled: abandoned, its job recovered and retried.
    /// Progress is a per-rule heartbeat from the durable run, so this
    /// bounds one rule check, not the whole job — a slow but advancing
    /// gate is left alone.
    pub job_timeout: Duration,
    /// Attempts per job before it is dead-lettered.
    pub max_attempts: u32,
    /// Backoff schedule between attempts (also paces follower
    /// reconnects in `--follow` mode — the Retry tactic in both roles).
    pub retry: RetryPolicy,
    /// Follow a leader at this address instead of accepting writes:
    /// mirror its state root, answer read-only ops, and promote to
    /// leader when it goes silent. Accepts `unix:<path>`,
    /// `tcp:<host:port>`, a bare socket path, or a bare `host:port`.
    pub follow: Option<String>,
    /// Additionally accept replication subscribers over TCP at this
    /// `host:port` (the unix socket always accepts the `follow` op).
    pub repl_listen: Option<String>,
    /// How often the leader ships a heartbeat frame to each follower.
    pub heartbeat_interval: Duration,
    /// A synced follower that receives nothing — no frame, no heartbeat
    /// — for this long declares its leader dead and promotes itself.
    pub heartbeat_timeout: Duration,
    /// Seeded fault injection at the follower's receive seam (tests and
    /// the failover fault sweep).
    pub stream_faults: Option<Arc<dyn StreamFaults>>,
    /// Additionally accept gate submissions over TCP at this
    /// `host:port`, multiplexed onto the supervisor thread by a
    /// nonblocking `poll(2)` readiness loop — thousands of idle clients
    /// cost no threads.
    pub listen: Option<String>,
    /// Tenant roster: fairness weight and optional per-tenant job
    /// timeout per name. Tenants not listed here auto-register at
    /// weight 1 on first submission.
    pub tenants: Vec<TenantSpec>,
    /// Explicit per-tenant queue bound; 0 means each tenant's bound is
    /// its weight-proportional share of `queue_cap`.
    pub tenant_cap: usize,
    /// Maximum concurrently parked connections per listener; accepts
    /// past it are answered with a structured shed and closed.
    pub max_conns: usize,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            socket: PathBuf::from("lisa.sock"),
            state_root: PathBuf::from("lisa-state"),
            workers: 2,
            queue_cap: 64,
            job_timeout: Duration::from_secs(30),
            max_attempts: 3,
            retry: RetryPolicy::default(),
            follow: None,
            repl_listen: None,
            heartbeat_interval: Duration::from_millis(500),
            heartbeat_timeout: Duration::from_millis(2500),
            stream_faults: None,
            listen: None,
            tenants: Vec::new(),
            tenant_cap: 0,
            max_conns: 4096,
        }
    }
}

impl fmt::Debug for ServeConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ServeConfig")
            .field("socket", &self.socket)
            .field("state_root", &self.state_root)
            .field("workers", &self.workers)
            .field("queue_cap", &self.queue_cap)
            .field("job_timeout", &self.job_timeout)
            .field("max_attempts", &self.max_attempts)
            .field("retry", &self.retry)
            .field("follow", &self.follow)
            .field("repl_listen", &self.repl_listen)
            .field("heartbeat_interval", &self.heartbeat_interval)
            .field("heartbeat_timeout", &self.heartbeat_timeout)
            .field("stream_faults", &self.stream_faults.is_some())
            .field("listen", &self.listen)
            .field("tenants", &self.tenants)
            .field("tenant_cap", &self.tenant_cap)
            .field("max_conns", &self.max_conns)
            .finish()
    }
}

/// Counters the daemon reports on exit and via the `stats` op.
#[derive(Debug, Default, Clone)]
pub struct ServeStats {
    pub jobs_done: u64,
    pub retries: u64,
    pub dead_letters: u64,
    pub respawned_workers: u64,
    pub rejected_overload: u64,
    /// 1 if this process started as a follower and took over as leader.
    pub promotions: u64,
}

/// One queued gate job. The response stream travels with the job so
/// whoever settles it — worker, or supervisor on dead-letter — can reply.
struct Job {
    id: String,
    tenant: String,
    system: String,
    rules: String,
    fail_mode: FailMode,
    /// Test hook: `panic` (every attempt), `panic-once` (first attempt
    /// only), `stall` (sleep past the job timeout).
    chaos: Option<String>,
    attempts: u32,
    stream: Stream,
}

/// A worker's in-flight job: parked here while processing so the
/// supervisor can recover it from a panicked or stalled thread. The
/// `Instant` is the job's last heartbeat, refreshed per settled rule.
///
/// A slot is owned by exactly one live worker: when the supervisor
/// abandons a stalled worker it replaces the slot (and the worker) in
/// the pool, so the abandoned thread's `take()` can only ever see its
/// own job or `None` — never a job a replacement worker parked later.
type Slot = Arc<Mutex<Option<(Job, Instant)>>>;

/// One pool entry: the worker thread, the slot it parks jobs in, and the
/// cancellation flag the supervisor raises when abandoning it.
struct Worker {
    handle: Option<JoinHandle<()>>,
    slot: Slot,
    cancel: Arc<AtomicBool>,
}

struct QueueState {
    /// Per-tenant bounded queues with weighted-fair (stride) dequeue
    /// and per-tenant retry budgets / degradation state.
    queues: FairQueues<Job>,
    /// State-dir keys currently owned by a live attempt (including an
    /// abandoned thread that has not yet reached a cancellation point).
    /// Workers skip queued jobs whose key is busy, so two attempts can
    /// never hold a `RunStore` on the same directory at once.
    busy_dirs: HashSet<String>,
}

struct Shared {
    queue: Mutex<QueueState>,
    available: Condvar,
    shutdown: AtomicBool,
    jobs_done: AtomicU64,
    state_root: PathBuf,
    /// Worker slots by pool position, read by the `stats` op. The
    /// supervisor replaces an entry whenever it respawns that worker, so
    /// the view always reflects the live pool — an abandoned thread's
    /// stale slot is unreachable from here.
    worker_slots: Mutex<Vec<Slot>>,
    /// Replication publisher over the state root; every durable run the
    /// workers execute feeds it, and each subscribed follower drains it
    /// through a shipper thread.
    repl: Arc<ReplBus>,
    /// Followers currently attached (live shipper threads).
    followers: AtomicU64,
    /// Shipper thread handles, joined on shutdown.
    shippers: Mutex<Vec<JoinHandle<()>>>,
    /// Per-tenant execution state (rule registries, verdict cache).
    /// Isolation, not just bookkeeping: one tenant's cached verdicts
    /// and parsed rules are invisible to every other tenant's jobs.
    runtimes: Mutex<HashMap<String, Arc<TenantRuntime>>>,
    /// Currently parked TCP connections on the `--listen` gate,
    /// refreshed each supervision tick for the `stats` op.
    listen_conns: AtomicU64,
}

impl Shared {
    fn runtime(&self, tenant: &str) -> Arc<TenantRuntime> {
        let mut map = self.runtimes.lock().unwrap_or_else(|p| p.into_inner());
        Arc::clone(map.entry(tenant.to_string()).or_insert_with(|| {
            Arc::new(TenantRuntime {
                cache: Arc::new(GateCache::new()),
                rules: Mutex::new(HashMap::new()),
            })
        }))
    }
}

/// Distinct rule sets a tenant's registry memo holds before it is
/// flushed wholesale (rule files are tiny; the bound exists so a tenant
/// cycling file contents cannot grow daemon memory without limit).
const RULES_MEMO_CAP: usize = 32;

/// One tenant's runtime: the version-scoped verdict cache its jobs
/// share, and parsed rule sets memoized by rules-file content hash.
struct TenantRuntime {
    cache: Arc<GateCache>,
    rules: Mutex<HashMap<u64, Arc<Vec<SemanticRule>>>>,
}

impl TenantRuntime {
    /// Load the rule set at `path`, reusing the parse when the file
    /// content is unchanged.
    fn load_rules(&self, path: &str) -> Result<Arc<Vec<SemanticRule>>, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
        let key = fnv1a(text.as_bytes());
        {
            let memo = self.rules.lock().unwrap_or_else(|p| p.into_inner());
            if let Some(rules) = memo.get(&key) {
                return Ok(Arc::clone(rules));
            }
        }
        let rules = Arc::new(parse_rules_text(path, &text)?);
        let mut memo = self.rules.lock().unwrap_or_else(|p| p.into_inner());
        if memo.len() >= RULES_MEMO_CAP {
            memo.clear();
        }
        memo.insert(key, Arc::clone(&rules));
        Ok(rules)
    }
}

/// Holds a job's state-dir key in `busy_dirs` for the duration of one
/// attempt. Dropped on every exit path — normal completion, chaos panic
/// unwind, or cancelled abandonment — so the key is always released.
struct DirGuard {
    shared: Arc<Shared>,
    key: String,
}

impl Drop for DirGuard {
    fn drop(&mut self) {
        self.shared.queue.lock().unwrap_or_else(|p| p.into_inner()).busy_dirs.remove(&self.key);
        // A waiting worker may only have been blocked on this dir.
        self.shared.available.notify_all();
    }
}

/// Write one reply line. A failed write is counted in
/// `serve.reply_errors` and the connection is torn down cleanly — a dead
/// client must cost a counter bump, never a wedged worker.
fn send(stream: &mut Stream, line: &str) {
    if let Err(e) = stream.write_all(format!("{line}\n").as_bytes()) {
        lisa_telemetry::counter_add("serve.reply_errors", 1);
        lisa_telemetry::note("serve", || format!("reply failed: {e}"));
        let _ = stream.shutdown();
    }
}

/// Exit-code contract, same as the CLI: 0 = pass, 1 = violations,
/// 2 = engine errors under fail-closed.
fn exit_code_of(report: &DurableGateReport) -> u64 {
    if report.has_violation() {
        1
    } else if report.engine_errors() > 0 && report.fail_mode == FailMode::Closed {
        2
    } else {
        0
    }
}

fn done_response(job_id: &str, report: &DurableGateReport) -> String {
    format!(
        "{{\"job_id\":\"{}\",\"status\":\"done\",\"decision\":\"{}\",\"exit\":{},\"violations\":{},\"engine_errors\":{},\"reused\":{},\"fresh\":{}}}",
        escape(job_id),
        report.decision,
        exit_code_of(report),
        report.outcomes.iter().map(|o| o.violated).sum::<u64>(),
        report.engine_errors(),
        report.reused,
        report.fresh,
    )
}

fn error_response(job_id: &str, status: &str, error: &str) -> String {
    format!(
        "{{\"job_id\":\"{}\",\"status\":\"{}\",\"exit\":2,\"error\":\"{}\"}}",
        escape(job_id),
        escape(status),
        escape(error),
    )
}

/// Explicit admission control: the client learns immediately that it
/// was turned away and when to come back, instead of blocking on a
/// saturated queue or having its connection silently dropped.
fn shed_response(job_id: &str, tenant: &str, retry_after_ms: u64, reason: &str) -> String {
    format!(
        "{{\"job_id\":\"{}\",\"status\":\"shed\",\"tenant\":\"{}\",\"retry_after_ms\":{retry_after_ms},\"exit\":2,\"error\":\"{}\"}}",
        escape(job_id),
        escape(tenant),
        escape(reason),
    )
}

/// Structured bad-request for an over-long job id. The id is not echoed
/// back: the reply must stay bounded no matter what the client sent.
fn job_id_too_long(len: usize) -> String {
    error_response(
        "",
        "bad-request",
        &format!("job_id length {len} exceeds the {MAX_JOB_ID_LEN}-byte bound"),
    )
}

/// Map a client-supplied job id to its state-directory name. Ids that
/// are already filesystem-safe map to themselves; anything else gets a
/// hash of the raw id appended so distinct ids can never collide after
/// character replacement (`a/b` vs `a_b`), and an empty id can never
/// alias the state root itself.
fn sanitize(id: &str) -> String {
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

/// Process one gate job end to end (load, durable gate, response text).
/// `cancel` stops the run at the next rule boundary once the supervisor
/// abandons this attempt; `progress` is the per-rule liveness heartbeat.
#[allow(clippy::too_many_arguments)] // the full job context, threaded once
fn process_job(
    system: &str,
    rules_path: &str,
    fail_mode: FailMode,
    shared: &Arc<Shared>,
    job_id: &str,
    tenant: &str,
    cancel: Arc<AtomicBool>,
    progress: Arc<dyn Fn() + Send + Sync>,
) -> Result<DurableGateReport, String> {
    let version = load_system(system, "test_")?;
    // The tenant's own registry and cache: rule sets are memoized per
    // tenant by file content, and verdict reuse never crosses tenants.
    let runtime = shared.runtime(tenant);
    let rules = runtime.load_rules(rules_path)?;
    let mut registry = RuleRegistry::new();
    for r in rules.iter() {
        registry.register(r.clone());
    }
    let config = PipelineConfig { selection: TestSelection::All, ..PipelineConfig::default() };
    let gate = GateOptions { fail_mode, ..GateOptions::default() };
    let durable = DurableOptions {
        state_dir: shared.state_root.join(sanitize(job_id)),
        progress: Some(progress),
        cancel: Some(cancel),
        cache: Some(Arc::clone(&runtime.cache)),
        repl: Some(Arc::clone(&shared.repl)),
        ..DurableOptions::default()
    };
    gate_durable(&registry, &version, &config, &gate, &durable).map_err(|e| e.to_string())
}

fn worker_loop(shared: Arc<Shared>, slot: Slot, cancel: Arc<AtomicBool>) {
    loop {
        // An abandoned worker must never pull another job: its slot is no
        // longer supervised, so any job it took would be invisible.
        if cancel.load(Ordering::SeqCst) {
            return;
        }
        let popped = {
            let mut q = shared.queue.lock().unwrap_or_else(|p| p.into_inner());
            loop {
                if cancel.load(Ordering::SeqCst) {
                    break None;
                }
                // Weighted-fair pick across tenants, skipping jobs whose
                // state dir another attempt still owns — a retry must
                // never race its abandoned predecessor on the same
                // journal, and duplicate job ids serialize.
                let QueueState { queues, busy_dirs } = &mut *q;
                if let Some((_, job)) = queues.pop(|j| !busy_dirs.contains(&sanitize(&j.id))) {
                    let key = sanitize(&job.id);
                    busy_dirs.insert(key.clone());
                    break Some((job, key));
                }
                if shared.shutdown.load(Ordering::SeqCst) {
                    break None;
                }
                let (guard, _) = shared
                    .available
                    .wait_timeout(q, Duration::from_millis(50))
                    .unwrap_or_else(|p| p.into_inner());
                q = guard;
            }
        };
        let Some((job, key)) = popped else { return };
        // Released on every exit from this iteration — completion, chaos
        // panic unwind, or cancelled abandonment.
        let _dir = DirGuard { shared: Arc::clone(&shared), key };
        let (id, tenant, system, rules, fail_mode, chaos, attempts) = (
            job.id.clone(),
            job.tenant.clone(),
            job.system.clone(),
            job.rules.clone(),
            job.fail_mode,
            job.chaos.clone(),
            job.attempts,
        );
        let job_started = Instant::now();
        let mut job_span = lisa_telemetry::span_with("serve.job", id.clone());
        job_span.arg("attempt", attempts as u64);
        // Park the job (with its response stream) in the slot FIRST: from
        // here on, a panic or stall loses nothing — the supervisor
        // recovers the job from the slot.
        *slot.lock().unwrap_or_else(|p| p.into_inner()) = Some((job, Instant::now()));
        match chaos.as_deref() {
            Some("panic") => panic!("{FAULT_PANIC_PREFIX} chaos panic for job {id}"),
            Some("panic-once") if attempts == 0 => {
                panic!("{FAULT_PANIC_PREFIX} chaos first-attempt panic for job {id}")
            }
            Some("stall") => {
                // A wedged job: never heartbeats, outlives any plausible
                // job timeout. Cancellation-aware only so the abandoned
                // attempt releases its state dir promptly for the retry.
                let wedged = Instant::now();
                while !cancel.load(Ordering::SeqCst)
                    && wedged.elapsed() < Duration::from_secs(600)
                {
                    std::thread::sleep(Duration::from_millis(20));
                }
            }
            _ => {}
        }
        let beat_slot = Arc::clone(&slot);
        let progress: Arc<dyn Fn() + Send + Sync> = Arc::new(move || {
            if let Some((_, beat)) =
                beat_slot.lock().unwrap_or_else(|p| p.into_inner()).as_mut()
            {
                *beat = Instant::now();
            }
        });
        let result = process_job(
            &system,
            &rules,
            fail_mode,
            &shared,
            &id,
            &tenant,
            Arc::clone(&cancel),
            progress,
        );
        // Take the job back; if the supervisor already recovered it (it
        // judged us stalled), it owns the reply — do not double-respond.
        let taken = slot.lock().unwrap_or_else(|p| p.into_inner()).take();
        let Some((mut job, _)) = taken else { continue };
        let line = match &result {
            Ok(report) => done_response(&job.id, report),
            Err(e) => error_response(&job.id, "error", e),
        };
        send(&mut job.stream, &line);
        shared.jobs_done.fetch_add(1, Ordering::Relaxed);
        let elapsed_us = job_started.elapsed().as_micros() as u64;
        // Settle the tenant's accounting: active count, done count, one
        // retry token earned back, and the shed-hint duration EWMA.
        shared
            .queue
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .queues
            .settle(&job.tenant, elapsed_us / 1000);
        job_span.arg("failed", u64::from(result.is_err()));
        if lisa_telemetry::metrics_enabled() {
            lisa_telemetry::histogram_record("serve.job_us", elapsed_us);
            lisa_telemetry::histogram_record(&format!("serve.job_us.{}", job.tenant), elapsed_us);
            lisa_telemetry::counter_add("serve.jobs_done", 1);
            if result.is_err() {
                lisa_telemetry::counter_add("serve.jobs_failed", 1);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Replication: leader-side shipping
// ---------------------------------------------------------------------------

/// Parse a leader address: `unix:<path>`, `tcp:<host:port>`, a bare
/// path (anything containing `/`), or a bare `host:port`.
fn parse_repl_addr(spec: &str) -> Addr {
    if let Some(path) = spec.strip_prefix("unix:") {
        Addr::Unix(PathBuf::from(path))
    } else if let Some(hostport) = spec.strip_prefix("tcp:") {
        Addr::Tcp(hostport.to_string())
    } else if spec.contains('/') {
        Addr::Unix(PathBuf::from(spec))
    } else {
        Addr::Tcp(spec.to_string())
    }
}

/// Stream the leader's state to one follower: full sync first, then
/// live frames off the bus, with heartbeats in idle gaps. Runs on its
/// own thread until the follower drops or the daemon shuts down.
fn ship_to_follower(mut stream: Stream, shared: &Arc<Shared>, interval: Duration) {
    shared.followers.fetch_add(1, Ordering::SeqCst);
    if let Err(e) = ship_loop(&mut stream, shared, interval) {
        lisa_telemetry::note("repl", || format!("follower detached: {e}"));
    }
    shared.followers.fetch_sub(1, Ordering::SeqCst);
}

fn ship_frame(stream: &mut Stream, payload: &[u8]) -> std::io::Result<()> {
    stream.write_all(&frame(payload))?;
    lisa_telemetry::counter_add("repl.frames_shipped", 1);
    lisa_telemetry::counter_add("repl.bytes_shipped", (FRAME_HEADER + payload.len()) as u64);
    Ok(())
}

fn ship_loop(stream: &mut Stream, shared: &Arc<Shared>, interval: Duration) -> std::io::Result<()> {
    let bus = &shared.repl;
    let (payloads, mut pos) = bus.sync_payloads();
    for p in &payloads {
        ship_frame(stream, p)?;
    }
    stream.flush()?;
    let mut last_heartbeat = Instant::now();
    while !shared.shutdown.load(Ordering::SeqCst) {
        match bus.poll_after(pos, Duration::from_millis(100)) {
            BusPoll::Frames(frames) => {
                for (seq, payload) in frames {
                    ship_frame(stream, &payload)?;
                    pos = seq;
                }
                stream.flush()?;
            }
            BusPoll::Idle { .. } => {}
            BusPoll::Gap => {
                // This subscriber fell out of bus retention; the only
                // honest recovery is a fresh full sync on the same
                // stream (frame application is idempotent).
                lisa_telemetry::counter_add("repl.resyncs", 1);
                let (payloads, new_pos) = bus.sync_payloads();
                for p in &payloads {
                    ship_frame(stream, p)?;
                }
                stream.flush()?;
                pos = new_pos;
            }
        }
        if last_heartbeat.elapsed() >= interval {
            let (seq, bytes) = bus.position();
            ship_frame(stream, &encode_wire(&Wire::Heartbeat { seq, bytes }))?;
            stream.flush()?;
            lisa_telemetry::counter_add("repl.heartbeats_shipped", 1);
            last_heartbeat = Instant::now();
        }
    }
    Ok(())
}

/// Acknowledge a `follow` handshake and hand the stream to a shipper
/// thread that owns it for the rest of the daemon's life. The write
/// timeout the gate set on the stream keeps a follower that stops
/// reading from wedging its shipper, and with it daemon shutdown.
fn start_shipper(mut stream: Stream, shared: &Arc<Shared>, config: &ServeConfig) {
    let (seq, _) = shared.repl.position();
    send(&mut stream, &format!("{{\"status\":\"ok\",\"repl\":{REPL_VERSION},\"seq\":{seq}}}"));
    lisa_telemetry::counter_add("repl.followers_attached", 1);
    let handle = {
        let shared = Arc::clone(shared);
        let interval = config.heartbeat_interval;
        std::thread::spawn(move || ship_to_follower(stream, &shared, interval))
    };
    shared.shippers.lock().unwrap_or_else(|p| p.into_inner()).push(handle);
}

// ---------------------------------------------------------------------------
// Replication: the follower
// ---------------------------------------------------------------------------

/// Live view of a follower's replication progress, shared between the
/// stream client thread and the read-only op handlers. Times are
/// milliseconds since `start` so they fit in atomics.
struct FollowState {
    start: Instant,
    connected: AtomicBool,
    /// Sticky once set: this root has held a complete mirror of the
    /// leader at least once (a `SyncDone` arrived). A disconnect does
    /// not clear it — applied frames are atomic, so the mirror stays a
    /// valid prefix of the leader's history, which is exactly what
    /// promotion needs.
    synced: AtomicBool,
    last_activity_ms: AtomicU64,
    last_heartbeat_ms: AtomicU64,
    leader_seq: AtomicU64,
    leader_bytes: AtomicU64,
    applied_seq: AtomicU64,
    applied_bytes: AtomicU64,
}

impl FollowState {
    fn new() -> FollowState {
        FollowState {
            start: Instant::now(),
            connected: AtomicBool::new(false),
            synced: AtomicBool::new(false),
            last_activity_ms: AtomicU64::new(0),
            last_heartbeat_ms: AtomicU64::new(0),
            leader_seq: AtomicU64::new(0),
            leader_bytes: AtomicU64::new(0),
            applied_seq: AtomicU64::new(0),
            applied_bytes: AtomicU64::new(0),
        }
    }

    fn now_ms(&self) -> u64 {
        self.start.elapsed().as_millis() as u64
    }

    fn touch_activity(&self) {
        self.last_activity_ms.store(self.now_ms(), Ordering::SeqCst);
    }

    fn touch_heartbeat(&self) {
        let now = self.now_ms();
        let prev = self.last_heartbeat_ms.swap(now, Ordering::SeqCst);
        if prev > 0 {
            lisa_telemetry::histogram_record("repl.heartbeat_gap_ms", now.saturating_sub(prev));
        }
    }

    /// How long since *anything* arrived from the leader — frame,
    /// heartbeat, or sync marker. This, not heartbeat age alone, drives
    /// promotion: a leader busy shipping big frames is clearly alive
    /// even if its heartbeats queue behind them.
    fn activity_age(&self) -> Duration {
        Duration::from_millis(
            self.now_ms().saturating_sub(self.last_activity_ms.load(Ordering::SeqCst)),
        )
    }

    fn heartbeat_age_ms(&self) -> u64 {
        self.now_ms().saturating_sub(self.last_heartbeat_ms.load(Ordering::SeqCst))
    }

    fn lag_frames(&self) -> u64 {
        self.leader_seq
            .load(Ordering::SeqCst)
            .saturating_sub(self.applied_seq.load(Ordering::SeqCst))
    }

    fn lag_bytes(&self) -> u64 {
        self.leader_bytes
            .load(Ordering::SeqCst)
            .saturating_sub(self.applied_bytes.load(Ordering::SeqCst))
    }
}

/// Why a follower's stream session ended.
enum StreamEnd {
    /// Clean EOF or transport error: reconnect with backoff.
    Disconnected,
    /// The stream desynchronized — corrupt frame, undecodable payload,
    /// or a partial frame that stalled. Nothing past that point can be
    /// trusted, so the session drops and the reconnect's full sync
    /// re-establishes a known-good mirror.
    Desync,
}

/// Why follower mode returned control to [`serve`].
enum FollowerExit {
    /// A `shutdown` op drained us; exit cleanly.
    Drained,
    /// The leader went silent past the heartbeat timeout with a complete
    /// mirror on disk: take over as leader.
    Promoted,
}

fn follower_connect(addr: &Addr) -> std::io::Result<Stream> {
    let stream = addr.connect()?;
    // Short read timeouts keep the client loop responsive to `stop` and
    // let it notice staleness without a dedicated timer thread.
    stream.set_read_timeout(Some(Duration::from_millis(200)))?;
    Ok(stream)
}

/// The follower's stream client: connect, follow, reconnect with
/// [`RetryPolicy`] backoff — forever, until `stop`. The policy shapes
/// the backoff curve; it is *not* an attempt cap, because the exit from
/// a dead leader is promotion (decided by the supervisor from
/// [`FollowState`] staleness), not giving up.
fn follower_client(
    addr: Addr,
    state: Arc<FollowState>,
    applier: Arc<Applier>,
    retry: RetryPolicy,
    stop: Arc<AtomicBool>,
    faults: Option<Arc<dyn StreamFaults>>,
    stale_after: Duration,
) {
    let mut failures: u32 = 0;
    while !stop.load(Ordering::SeqCst) {
        match follower_connect(&addr) {
            Ok(stream) => {
                state.connected.store(true, Ordering::SeqCst);
                lisa_telemetry::counter_add("repl.connects", 1);
                let end =
                    follow_stream(stream, &state, &applier, &stop, faults.as_deref(), stale_after);
                state.connected.store(false, Ordering::SeqCst);
                match end {
                    StreamEnd::Disconnected => {
                        lisa_telemetry::counter_add("repl.disconnects", 1);
                    }
                    StreamEnd::Desync => {
                        lisa_telemetry::counter_add("repl.resyncs_requested", 1);
                    }
                }
                failures = 0;
            }
            Err(_) => failures = failures.saturating_add(1),
        }
        if stop.load(Ordering::SeqCst) {
            break;
        }
        std::thread::sleep(retry.backoff(failures.clamp(1, retry.max_attempts)));
    }
}

/// Run one connected session: handshake, then decode-and-apply until
/// EOF, corruption, or shutdown.
fn follow_stream(
    mut stream: Stream,
    state: &FollowState,
    applier: &Applier,
    stop: &AtomicBool,
    faults: Option<&dyn StreamFaults>,
    stale_after: Duration,
) -> StreamEnd {
    let hello = format!("{{\"v\":{PROTOCOL_VERSION},\"op\":\"follow\"}}\n");
    if stream.write_all(hello.as_bytes()).is_err() || stream.flush().is_err() {
        return StreamEnd::Disconnected;
    }
    // Read the one-line ack byte-at-a-time: everything after the newline
    // is binary frame data that buffered reading would swallow.
    let deadline = Instant::now() + Duration::from_secs(5);
    let mut ack = Vec::new();
    loop {
        let mut b = [0u8; 1];
        match stream.read(&mut b) {
            Ok(0) => return StreamEnd::Disconnected,
            Ok(_) if b[0] == b'\n' => break,
            Ok(_) => {
                ack.push(b[0]);
                if ack.len() > 4096 {
                    return StreamEnd::Desync;
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                if Instant::now() >= deadline || stop.load(Ordering::SeqCst) {
                    return StreamEnd::Disconnected;
                }
            }
            Err(_) => return StreamEnd::Disconnected,
        }
    }
    let acked = std::str::from_utf8(&ack)
        .ok()
        .and_then(|s| Json::parse(s.trim()).ok())
        .is_some_and(|a| {
            a.str_of("status") == Some("ok") && a.u64_of("repl") == Some(REPL_VERSION)
        });
    if !acked {
        lisa_telemetry::note("repl", || "leader rejected the follow handshake".to_string());
        return StreamEnd::Disconnected;
    }
    state.touch_activity();

    let mut dec = FrameDecoder::new();
    let mut buf = vec![0u8; 64 * 1024];
    let mut drop_heartbeats = false;
    let mut last_progress = Instant::now();
    loop {
        if stop.load(Ordering::SeqCst) {
            return StreamEnd::Disconnected;
        }
        match stream.read(&mut buf) {
            Ok(0) => return StreamEnd::Disconnected,
            Ok(n) => {
                let mut chunk = buf[..n].to_vec();
                let mut tear_after = false;
                if let Some(fault) = faults.and_then(|f| f.on_chunk(n)) {
                    lisa_telemetry::counter_add("repl.stream_faults_injected", 1);
                    match fault {
                        StreamFault::Torn { keep } => {
                            chunk.truncate(keep.min(n));
                            tear_after = true;
                        }
                        StreamFault::Flip { at } => chunk[at % n] ^= 0x20,
                        StreamFault::Short { keep } => chunk.truncate(keep.min(n)),
                        StreamFault::DropHeartbeat => drop_heartbeats = true,
                    }
                }
                dec.feed(&chunk);
                loop {
                    match dec.next_frame() {
                        Ok(Some(payload)) => {
                            last_progress = Instant::now();
                            if let Some(end) =
                                apply_wire(&payload, state, applier, drop_heartbeats)
                            {
                                return end;
                            }
                        }
                        Ok(None) => break,
                        Err(e) => {
                            lisa_telemetry::note("repl", || format!("stream corrupt: {e}"));
                            return StreamEnd::Desync;
                        }
                    }
                }
                if tear_after {
                    return StreamEnd::Disconnected;
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {}
            Err(_) => return StreamEnd::Disconnected,
        }
        // A silently desynchronized stream — a short read the checksum
        // cannot catch until the *next* frame boundary — shows up as a
        // partial frame that never completes while bytes keep arriving.
        // Surface it as desync rather than letting a stale stream
        // masquerade as a dead leader and trigger a false promotion.
        if dec.pending() > 0 && last_progress.elapsed() > stale_after {
            lisa_telemetry::note("repl", || "partial frame stalled; resyncing".to_string());
            return StreamEnd::Desync;
        }
    }
}

/// Apply one decoded payload to the mirror and the progress view.
/// Returns `Some(end)` when the session must end: an event the applier
/// refused (hostile path, I/O failure) means this stream can no longer
/// be trusted to produce a faithful mirror.
fn apply_wire(
    payload: &[u8],
    state: &FollowState,
    applier: &Applier,
    drop_heartbeats: bool,
) -> Option<StreamEnd> {
    match decode_wire(payload) {
        Ok(Wire::Event { seq, event }) => {
            if let Err(e) = applier.apply(&event) {
                lisa_telemetry::counter_add("repl.frames_quarantined", 1);
                lisa_telemetry::note("repl", || format!("refused replicated event: {e}"));
                return Some(StreamEnd::Desync);
            }
            state.applied_seq.store(seq, Ordering::SeqCst);
            state
                .applied_bytes
                .fetch_add((FRAME_HEADER + payload.len()) as u64, Ordering::SeqCst);
            state.leader_seq.fetch_max(seq, Ordering::SeqCst);
            state.touch_activity();
            None
        }
        Ok(Wire::Heartbeat { seq, bytes }) => {
            if drop_heartbeats {
                lisa_telemetry::counter_add("repl.heartbeats_dropped", 1);
                return None;
            }
            state.leader_seq.store(seq, Ordering::SeqCst);
            state.leader_bytes.store(bytes, Ordering::SeqCst);
            state.touch_heartbeat();
            state.touch_activity();
            lisa_telemetry::counter_add("repl.heartbeats_seen", 1);
            None
        }
        Ok(Wire::SyncDone { seq, bytes }) => {
            state.applied_seq.store(seq, Ordering::SeqCst);
            state.applied_bytes.store(bytes, Ordering::SeqCst);
            state.leader_seq.store(seq, Ordering::SeqCst);
            state.leader_bytes.store(bytes, Ordering::SeqCst);
            state.synced.store(true, Ordering::SeqCst);
            state.touch_heartbeat();
            state.touch_activity();
            lisa_telemetry::counter_add("repl.syncs_completed", 1);
            None
        }
        Err(e) => {
            lisa_telemetry::counter_add("repl.frames_rejected", 1);
            lisa_telemetry::note("repl", || format!("undecodable frame: {e}"));
            Some(StreamEnd::Desync)
        }
    }
}

/// Run follower mode on the already-bound unix socket (`gates` holds
/// just that one listener): mirror the leader into the state root,
/// answer read-only ops, and decide promotion. Returns whether we drained
/// or should take over.
fn run_follower(
    gates: &mut [(NetGate, Endpoint)],
    config: &ServeConfig,
    addr: Addr,
    metrics_journal: &mut Option<Journal>,
    stats: &mut ServeStats,
) -> FollowerExit {
    let state = Arc::new(FollowState::new());
    let applier = match Applier::new(&config.state_root) {
        Ok(a) => Arc::new(a),
        Err(e) => {
            lisa_telemetry::note("repl", || format!("follower state root unusable: {e}"));
            return FollowerExit::Drained;
        }
    };
    let stop = Arc::new(AtomicBool::new(false));
    let client = {
        let state = Arc::clone(&state);
        let applier = Arc::clone(&applier);
        let stop = Arc::clone(&stop);
        let retry = config.retry;
        let faults = config.stream_faults.clone();
        let stale_after = config.heartbeat_timeout;
        std::thread::spawn(move || {
            follower_client(addr, state, applier, retry, stop, faults, stale_after)
        })
    };
    let mut node = Node { config, stats, draining: false, role: Role::Follower(&state) };
    let mut poll = PollSet::new();
    let mut last_snapshot = Instant::now();
    let exit = loop {
        tick(gates, &mut poll, &mut node);
        if node.draining {
            break FollowerExit::Drained;
        }
        if state.synced.load(Ordering::SeqCst) && state.activity_age() > config.heartbeat_timeout
        {
            break FollowerExit::Promoted;
        }
        if last_snapshot.elapsed() >= METRICS_SNAPSHOT_INTERVAL {
            // Record replication gauges alongside the regular snapshot
            // so lag and heartbeat age are visible post-mortem in the
            // metrics journal, not just in live `stats` replies.
            lisa_telemetry::histogram_record("repl.heartbeat_age_ms", state.heartbeat_age_ms());
            lisa_telemetry::histogram_record("repl.lag_frames", state.lag_frames());
            snapshot_metrics(metrics_journal);
            last_snapshot = Instant::now();
        }
    };
    stop.store(true, Ordering::SeqCst);
    let _ = client.join();
    exit
}

/// The follower's `stats` reply: role, replication progress, and the
/// same cumulative counters/timings a leader reports.
fn follower_stats_response(state: &FollowState) -> String {
    format!(
        "{{\"status\":\"ok\",\"role\":\"follower\",\"connected\":{},\"synced\":{},\"leader_seq\":{},\"applied_seq\":{},\"lag_frames\":{},\"lag_bytes\":{},\"heartbeat_age_ms\":{},\"counters\":{},\"timings\":{}}}",
        state.connected.load(Ordering::SeqCst),
        state.synced.load(Ordering::SeqCst),
        state.leader_seq.load(Ordering::SeqCst),
        state.applied_seq.load(Ordering::SeqCst),
        state.lag_frames(),
        state.lag_bytes(),
        state.heartbeat_age_ms(),
        counters_json(),
        timings_json(),
    )
}

/// Answer a `verdict` query purely from on-disk run state, without
/// opening a [`RunStore`] — recovery repairs (truncation, quarantine)
/// would *mutate* the journals this node is busy mirroring. Corrupt or
/// torn tails simply aren't counted; the leader's copy is authoritative
/// until promotion.
fn verdict_response(state_root: &Path, job_id: &str) -> String {
    if job_id.is_empty() {
        return error_response("", "bad-request", "verdict needs `job_id`");
    }
    let dir = state_root.join(sanitize(job_id));
    if !dir.is_dir() {
        return error_response(job_id, "not-found", "no durable state for this job id");
    }
    let mut state = match read_atomic(&dir.join(RunStore::SNAPSHOT)) {
        Some(bytes) => RunState::from_snapshot(&bytes),
        None => RunState::default(),
    };
    if let Ok(bytes) = std::fs::read(dir.join(RunStore::JOURNAL)) {
        for rec in &scan(&bytes).records {
            if let Ok(event) = GateEvent::decode(rec) {
                state.apply(&event);
            }
        }
    }
    // A compact, order-sensitive digest of the settled verdicts lets a
    // caller compare two nodes' views without shipping every report.
    let mut digest = String::new();
    for o in &state.finished {
        digest.push_str(&format!("rule {}\n{}\n", o.rule_id, o.fingerprint));
    }
    if let Some(d) = &state.decision {
        digest.push_str(&format!("decision {d}\n"));
    }
    format!(
        "{{\"status\":\"ok\",\"job_id\":\"{}\",\"decision\":\"{}\",\"started\":{},\"finished\":{},\"verdicts_fnv\":\"{:016x}\"}}",
        escape(job_id),
        escape(state.decision.as_deref().unwrap_or("in-progress")),
        state.started.len(),
        state.finished.len(),
        fnv1a(digest.as_bytes()),
    )
}

/// How often the daemon journals a metrics snapshot while running.
const METRICS_SNAPSHOT_INTERVAL: Duration = Duration::from_secs(2);

/// Open the daemon's persisted-metrics journal under the state root and
/// restore the last snapshot into the live telemetry registry, so
/// cumulative `stats` counters and timings survive a restart. The journal
/// holds one snapshot record, rewritten in place (reset + append); a
/// crash between the two loses at most one snapshot interval.
fn open_metrics_journal(state_root: &Path) -> Option<Journal> {
    let path = state_root.join("metrics.journal");
    match Journal::open(&path, None) {
        Ok((journal, report)) => {
            if let Some(last) = report.records.last() {
                restore_metrics(last);
            }
            Some(journal)
        }
        Err(e) => {
            lisa_telemetry::note("serve", || format!("metrics journal unavailable: {e}"));
            None
        }
    }
}

/// Replay one persisted metrics snapshot (the `metrics_json` format) into
/// the live registry. Malformed snapshots are ignored — restoring metrics
/// is never worth failing the daemon over.
fn restore_metrics(bytes: &[u8]) {
    let Ok(text) = std::str::from_utf8(bytes) else { return };
    let Ok(snap) = Json::parse(text) else { return };
    if let Some(Json::Obj(counters)) = snap.get("counters") {
        for (name, value) in counters {
            if let Some(v) = value.as_u64() {
                lisa_telemetry::counter_add(name, v);
            }
        }
    }
    if let Some(Json::Obj(histograms)) = snap.get("histograms") {
        for (name, h) in histograms {
            let Some(Json::Arr(buckets)) = h.get("buckets") else { continue };
            let mut restored = lisa_telemetry::Histogram::new();
            for (i, b) in buckets.iter().take(restored.buckets.len()).enumerate() {
                restored.buckets[i] = b.as_u64().unwrap_or(0);
            }
            restored.count = h.u64_of("count").unwrap_or(0);
            restored.sum = h.u64_of("sum").unwrap_or(0);
            lisa_telemetry::histogram_merge(name, &restored);
        }
    }
}

/// Journal the current metrics snapshot, replacing the previous one. On
/// any I/O failure the journal is dropped for the rest of the run —
/// best-effort persistence must not wedge the supervisor.
fn snapshot_metrics(journal: &mut Option<Journal>) {
    let Some(j) = journal else { return };
    let payload = lisa_telemetry::metrics_json();
    if j.reset().is_err() || j.append(payload.as_bytes()).is_err() {
        lisa_telemetry::note("serve", || "metrics snapshot failed; persistence disabled".into());
        *journal = None;
    }
}

/// Run the daemon until a `shutdown` request drains it. Never panics on
/// malformed input; every connection gets some reply.
pub fn serve(config: &ServeConfig) -> Result<ServeStats, String> {
    if let Some(parent) = config.socket.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent).map_err(|e| format!("mkdir {}: {e}", parent.display()))?;
        }
    }
    let _ = std::fs::remove_file(&config.socket);
    // Every listener may park `max_conns` sockets: leave headroom past
    // the default 1024 soft fd limit.
    raise_fd_limit(config.max_conns as u64 + 512);
    let socket = NetGate::bind(&Addr::Unix(config.socket.clone()), config.max_conns)?;
    // The listeners this node polls, each with the ops it serves. A
    // follower polls its socket alone until promotion makes it a leader's.
    let first = if config.follow.is_some() { Endpoint::Follower } else { Endpoint::Socket };
    let mut gates = vec![(socket, first)];
    std::fs::create_dir_all(&config.state_root)
        .map_err(|e| format!("mkdir {}: {e}", config.state_root.display()))?;

    // The daemon always collects metrics: the `stats` op and the
    // journaled snapshots depend on them. Spans stay off unless the
    // caller opted into them — an unbounded span registry would leak in
    // a long-running process.
    if lisa_telemetry::config() == lisa_telemetry::TelemetryConfig::Off {
        lisa_telemetry::init(lisa_telemetry::TelemetryConfig::MetricsOnly);
    }
    let mut metrics_journal = open_metrics_journal(&config.state_root);
    let mut last_snapshot = Instant::now();
    let mut stats = ServeStats::default();

    // Follower mode: mirror the leader until a shutdown drains us or
    // the leader goes silent. Promotion falls through into the leader
    // path below on the already-bound socket, so the address clients
    // know keeps working across the role change.
    if let Some(spec) = &config.follow {
        let addr = parse_repl_addr(spec);
        match run_follower(&mut gates, config, addr, &mut metrics_journal, &mut stats) {
            FollowerExit::Drained => {
                snapshot_metrics(&mut metrics_journal);
                let _ = std::fs::remove_file(&config.socket);
                return Ok(stats);
            }
            FollowerExit::Promoted => {
                stats.promotions = 1;
                lisa_telemetry::counter_add("repl.promotions", 1);
                lisa_telemetry::event(
                    "repl.promoted",
                    "leader silent past heartbeat timeout; follower taking over",
                );
                gates[0].1 = Endpoint::Socket;
            }
        }
    }

    let tcp_listeners = [(&config.repl_listen, Endpoint::Repl), (&config.listen, Endpoint::Listen)];
    for (addr, endpoint) in tcp_listeners {
        if let Some(addr) = addr {
            gates.push((NetGate::bind(&Addr::Tcp(addr.clone()), config.max_conns)?, endpoint));
            lisa_telemetry::note("serve", || format!("listening on tcp {addr}"));
        }
    }

    // 0 = auto-size the pool to the machine, like the gate scheduler.
    let workers = crate::sched::resolve_workers(config.workers);
    lisa_telemetry::note("serve", || {
        format!("worker pool width {workers} (configured {})", config.workers)
    });
    let mut tenant_specs = config.tenants.clone();
    if !tenant_specs.iter().any(|s| s.name == "default") {
        tenant_specs.push(TenantSpec {
            name: "default".to_string(),
            weight: 1,
            job_timeout: None,
        });
    }
    let queues = FairQueues::new(
        &tenant_specs,
        config.queue_cap,
        config.tenant_cap,
        config.job_timeout,
        workers,
    );
    let shared = Arc::new(Shared {
        queue: Mutex::new(QueueState { queues, busy_dirs: HashSet::new() }),
        available: Condvar::new(),
        shutdown: AtomicBool::new(false),
        jobs_done: AtomicU64::new(0),
        state_root: config.state_root.clone(),
        worker_slots: Mutex::new(Vec::new()),
        repl: ReplBus::new(&config.state_root),
        followers: AtomicU64::new(0),
        shippers: Mutex::new(Vec::new()),
        runtimes: Mutex::new(HashMap::new()),
        listen_conns: AtomicU64::new(0),
    });
    let mut pool: Vec<Worker> = (0..workers).map(|i| spawn_worker(&shared, i)).collect();
    let mut poll = PollSet::new();
    let mut pending_retries: Vec<(Job, Instant)> = Vec::new();
    let mut node = Node {
        config,
        stats: &mut stats,
        draining: false,
        role: Role::Leader { shared: &shared, next_job: 0 },
    };

    loop {
        // 1. Wait for I/O on every listener, then answer what arrived.
        tick(&mut gates, &mut poll, &mut node);
        let listen_conns: usize = gates
            .iter()
            .filter(|(_, endpoint)| *endpoint == Endpoint::Listen)
            .map(|(gate, _)| gate.open_conns())
            .sum();
        shared.listen_conns.store(listen_conns as u64, Ordering::Relaxed);

        // 2. Reap panicked workers, abandon stalled ones; recover jobs.
        // Stall detection honors per-tenant job timeouts; the roster is
        // snapshotted first so the queue lock is never taken while a
        // slot lock is held (lock order stays one-way).
        let tenant_timeouts = shared
            .queue
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .queues
            .timeouts();
        for (widx, worker) in pool.iter_mut().enumerate() {
            let panicked = worker.handle.as_ref().is_some_and(|h| h.is_finished())
                && !shared.shutdown.load(Ordering::SeqCst);
            let stalled = worker
                .slot
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .as_ref()
                .is_some_and(|(job, beat)| {
                    let limit = tenant_timeouts
                        .get(&job.tenant)
                        .copied()
                        .unwrap_or(config.job_timeout);
                    beat.elapsed() > limit
                });
            if !panicked && !stalled {
                continue;
            }
            // Abandon first: a live thread stops at its next cancellation
            // point (rule boundary) and never pulls another job.
            worker.cancel.store(true, Ordering::SeqCst);
            let recovered = worker.slot.lock().unwrap_or_else(|p| p.into_inner()).take();
            if let Some((mut job, _)) = recovered {
                job.attempts += 1;
                // Spend from the tenant's retry budget (Retry tactic):
                // a tenant whose jobs keep failing burns its own budget
                // and degrades alone, nobody else's jobs pay for it.
                let budget_ok = {
                    let mut q = shared.queue.lock().unwrap_or_else(|p| p.into_inner());
                    q.queues.recovered(&job.tenant);
                    job.attempts < config.max_attempts
                        && q.queues.try_retry(&job.tenant, Instant::now())
                };
                if job.attempts >= config.max_attempts {
                    let why = if stalled { "stalled" } else { "worker panicked" };
                    let reason = format!("{why}; gave up after {} attempt(s)", job.attempts);
                    send(&mut job.stream, &error_response(&job.id, "dead-letter", &reason));
                    node.stats.dead_letters += 1;
                    shared
                        .queue
                        .lock()
                        .unwrap_or_else(|p| p.into_inner())
                        .queues
                        .record_dead_letter(&job.tenant);
                } else if !budget_ok {
                    // Budget exhausted: Degradation mode for this tenant
                    // — dead-letter now, fast-fail its submissions for
                    // the cooldown instead of feeding workers jobs that
                    // keep failing.
                    let reason = "tenant retry budget exhausted; tenant degraded";
                    send(&mut job.stream, &error_response(&job.id, "dead-letter", reason));
                    node.stats.dead_letters += 1;
                    lisa_telemetry::counter_add("serve.tenant_degraded", 1);
                    shared
                        .queue
                        .lock()
                        .unwrap_or_else(|p| p.into_inner())
                        .queues
                        .record_dead_letter(&job.tenant);
                } else {
                    let due = Instant::now() + config.retry.backoff(job.attempts);
                    pending_retries.push((job, due));
                    node.stats.retries += 1;
                }
            }
            if panicked {
                // Collect the dead thread; a panic result is expected.
                if let Some(h) = worker.handle.take() {
                    let _ = h.join();
                }
            }
            // The replacement gets a FRESH slot and cancel flag. An
            // abandoned (stalled, unkillable) thread still holds the old
            // slot Arc, so its eventual `take()` sees only `None` — it
            // can never grab a job the replacement parked, nor answer one
            // job's client with another job's verdict.
            *worker = spawn_worker(&shared, widx);
            node.stats.respawned_workers += 1;
            lisa_telemetry::counter_add("serve.respawned_workers", 1);
            lisa_telemetry::event(
                "serve.worker_respawned",
                format!(
                    "worker {widx} {}",
                    if stalled { "stalled; abandoned" } else { "panicked; reaped" }
                ),
            );
        }

        // 3. Requeue retries that are due.
        let now = Instant::now();
        let mut i = 0;
        while i < pending_retries.len() {
            if pending_retries[i].1 <= now {
                let (job, _) = pending_retries.swap_remove(i);
                let tenant = job.tenant.clone();
                shared
                    .queue
                    .lock()
                    .unwrap_or_else(|p| p.into_inner())
                    .queues
                    .requeue_front(&tenant, job);
                shared.available.notify_one();
            } else {
                i += 1;
            }
        }

        // 4. Periodically journal a metrics snapshot so cumulative stats
        // survive a daemon restart.
        if last_snapshot.elapsed() >= METRICS_SNAPSHOT_INTERVAL {
            snapshot_metrics(&mut metrics_journal);
            last_snapshot = Instant::now();
        }

        // 5. Drain: queue empty, no in-flight jobs, no pending retries.
        if node.draining {
            let queue_empty = shared
                .queue
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .queues
                .queued_total()
                == 0;
            let idle = pool
                .iter()
                .all(|w| w.slot.lock().unwrap_or_else(|p| p.into_inner()).is_none());
            if queue_empty && idle && pending_retries.is_empty() {
                break;
            }
        }
        // No sleep here: step 1's poll(2) is the loop's wait.
    }

    shared.shutdown.store(true, Ordering::SeqCst);
    shared.available.notify_all();
    for worker in pool.iter_mut() {
        if let Some(h) = worker.handle.take() {
            let _ = h.join();
        }
    }
    for shipper in shared.shippers.lock().unwrap_or_else(|p| p.into_inner()).drain(..) {
        let _ = shipper.join();
    }
    stats.jobs_done = shared.jobs_done.load(Ordering::Relaxed);
    snapshot_metrics(&mut metrics_journal);
    let _ = std::fs::remove_file(&config.socket);
    Ok(stats)
}

fn spawn_worker(shared: &Arc<Shared>, index: usize) -> Worker {
    let slot: Slot = Arc::new(Mutex::new(None));
    {
        let mut slots = shared.worker_slots.lock().unwrap_or_else(|p| p.into_inner());
        if index >= slots.len() {
            slots.resize_with(index + 1, || Arc::new(Mutex::new(None)));
        }
        slots[index] = Arc::clone(&slot);
    }
    let cancel = Arc::new(AtomicBool::new(false));
    let handle = {
        let shared = Arc::clone(shared);
        let slot = Arc::clone(&slot);
        let cancel = Arc::clone(&cancel);
        std::thread::spawn(move || worker_loop(shared, slot, cancel))
    };
    Worker { handle: Some(handle), slot, cancel }
}

/// Timing histograms surfaced (as p50/p95 summaries) in the `stats`
/// reply. Everything else is still in the full `counters` object.
const STATS_TIMINGS: [&str; 8] = [
    "serve.job_us",
    "pipeline.rule_us",
    "stage.callgraph_us",
    "stage.tree_us",
    "stage.select_us",
    "stage.concolic_us",
    "stage.judge_us",
    "smt.query_us",
];

/// The cumulative telemetry counters as one JSON object (shared by the
/// leader and follower `stats` replies).
fn counters_json() -> String {
    let mut counters = String::from("{");
    for (i, (name, value)) in lisa_telemetry::counters_snapshot().iter().enumerate() {
        if i > 0 {
            counters.push(',');
        }
        counters.push_str(&format!("\"{}\":{value}", escape(name)));
    }
    counters.push('}');
    counters
}

/// The per-stage timing summaries as one JSON object.
fn timings_json() -> String {
    let mut timings = String::from("{");
    let hists = lisa_telemetry::histograms_snapshot();
    let mut first = true;
    for name in STATS_TIMINGS {
        let Some(h) = hists.get(name) else { continue };
        if !first {
            timings.push(',');
        }
        first = false;
        timings.push_str(&format!(
            "\"{name}\":{{\"count\":{},\"p50_us\":{},\"p95_us\":{},\"p99_us\":{}}}",
            h.count,
            h.percentile(0.50),
            h.percentile(0.95),
            h.percentile(0.99),
        ));
    }
    timings.push('}');
    timings
}

/// Per-tenant queue, fairness, tactic, and latency summaries for the
/// `stats` reply: the operator's view of who is queued, who is shedding,
/// who is degraded, and each tenant's p50/p95/p99 job latency.
fn tenants_json(shared: &Arc<Shared>) -> String {
    let hists = lisa_telemetry::histograms_snapshot();
    let q = shared.queue.lock().unwrap_or_else(|p| p.into_inner());
    let now = Instant::now();
    let mut out = String::from("{");
    let mut first = true;
    for (name, t) in q.queues.iter() {
        if !first {
            out.push(',');
        }
        first = false;
        let (jobs, p50, p95, p99) = match hists.get(&format!("serve.job_us.{name}")) {
            Some(h) => {
                (h.count, h.percentile(0.50), h.percentile(0.95), h.percentile(0.99))
            }
            None => (0, 0, 0, 0),
        };
        out.push_str(&format!(
            "\"{}\":{{\"weight\":{},\"queued\":{},\"active\":{},\"done\":{},\"shed\":{},\"retries\":{},\"dead_letters\":{},\"retry_budget\":{},\"degraded\":{},\"jobs\":{jobs},\"p50_us\":{p50},\"p95_us\":{p95},\"p99_us\":{p99}}}",
            escape(name),
            t.weight,
            t.queued(),
            t.active,
            t.done,
            t.shed,
            t.retries,
            t.dead_letters,
            t.retry_budget,
            t.degraded(now),
        ));
    }
    out.push('}');
    out
}

/// Build the one-line `stats` reply: role, queue depth, per-worker
/// states, per-tenant summaries, replication position and attached
/// followers, cumulative telemetry counters (restored across restarts
/// via the metrics journal), and per-stage timing summaries.
fn stats_response(shared: &Arc<Shared>, stats: &ServeStats) -> String {
    let queued = shared.queue.lock().unwrap_or_else(|p| p.into_inner()).queues.queued_total();
    let resolved_workers;
    let mut workers = String::from("[");
    {
        let slots = shared.worker_slots.lock().unwrap_or_else(|p| p.into_inner());
        resolved_workers = slots.len();
        for (i, slot) in slots.iter().enumerate() {
            if i > 0 {
                workers.push(',');
            }
            match slot.lock().unwrap_or_else(|p| p.into_inner()).as_ref() {
                Some((job, beat)) => workers.push_str(&format!(
                    "{{\"worker\":{i},\"state\":\"busy\",\"job_id\":\"{}\",\"attempt\":{},\"since_heartbeat_ms\":{}}}",
                    escape(&job.id),
                    job.attempts,
                    beat.elapsed().as_millis(),
                )),
                None => workers.push_str(&format!("{{\"worker\":{i},\"state\":\"idle\"}}")),
            }
        }
    }
    workers.push(']');
    let (repl_seq, repl_bytes) = shared.repl.position();
    format!(
        "{{\"status\":\"ok\",\"role\":\"leader\",\"jobs_done\":{},\"retries\":{},\"dead_letters\":{},\"respawned_workers\":{},\"rejected_overload\":{},\"promotions\":{},\"followers\":{},\"repl_seq\":{repl_seq},\"repl_bytes\":{repl_bytes},\"queued\":{queued},\"listen_conns\":{},\"tenants\":{},\"resolved_workers\":{resolved_workers},\"workers\":{workers},\"counters\":{},\"timings\":{}}}",
        shared.jobs_done.load(Ordering::Relaxed),
        stats.retries,
        stats.dead_letters,
        stats.respawned_workers,
        stats.rejected_overload,
        stats.promotions,
        shared.followers.load(Ordering::SeqCst),
        shared.listen_conns.load(Ordering::Relaxed),
        tenants_json(shared),
        counters_json(),
        timings_json(),
    )
}

/// Protocol versioning, shared by every listener: absent `v` means v1
/// (pre-versioning clients); a non-numeric or mismatched `v` is a
/// structured bad-request rather than a silent assumption.
fn version_ok(request: &Json) -> Result<(), String> {
    if let Some(v) = request.u64_of("v") {
        if v != PROTOCOL_VERSION {
            return Err(format!(
                "unsupported protocol version {v} (daemon speaks v{PROTOCOL_VERSION})"
            ));
        }
    } else if request.get("v").is_some() {
        return Err("field `v` must be a number".to_string());
    }
    Ok(())
}

/// Which listener a request arrived on. Parsing, versioning and every
/// reply byte are shared; [`Endpoint::refusal`] is the one table of which
/// ops each listener serves.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Endpoint {
    /// The leader's unix socket.
    Socket,
    /// `--listen`.
    Listen,
    /// `--repl-listen`.
    Repl,
    /// A follower's unix socket.
    Follower,
}

impl Endpoint {
    /// `None` serves `op` here; `Some(reply)` refuses it.
    fn refusal(self, op: &str, request: &Json) -> Option<String> {
        let bad_request = |why: &str| Some(error_response("", "bad-request", why));
        match (self, op) {
            (Endpoint::Socket, _) => None,
            // The gate listener never exposes the replication stream.
            (Endpoint::Listen, "follow") => {
                bad_request("`follow` is not served on the gate listener; use --repl-listen")
            }
            (Endpoint::Listen, _) => None,
            // Exposing the replication port never exposes the write path.
            (Endpoint::Repl, "ping" | "follow") => None,
            (Endpoint::Repl, _) => bad_request(&format!(
                "unsupported op {:?} on the replication listener",
                request.str_of("op").unwrap_or("")
            )),
            (Endpoint::Follower, "ping" | "stats" | "verdict" | "shutdown") => None,
            // Degradation: the follower keeps serving what it can, never
            // what it can't.
            (Endpoint::Follower, "gate") => Some(error_response(
                request.str_of("job_id").unwrap_or(""),
                "read-only",
                "follower is read-only while its leader is alive; submit to the leader",
            )),
            (Endpoint::Follower, other) => bad_request(&format!("unknown op {other:?}")),
        }
    }
}

/// What requests act on: a leader's job pool, or a follower's view of
/// its replication stream.
enum Role<'a> {
    Leader { shared: &'a Arc<Shared>, next_job: u64 },
    Follower(&'a FollowState),
}

/// The request-handling half of one node's supervisor loop.
struct Node<'a> {
    config: &'a ServeConfig,
    stats: &'a mut ServeStats,
    /// Set by `shutdown`: a leader drains, a follower exits.
    draining: bool,
    role: Role<'a>,
}

/// One supervision tick's I/O: a single poll(2) over every listener and
/// parked connection, then each listener's pump. The 10ms cap keeps
/// supervision (reaping, retries, snapshots, promotion) ticking with no
/// I/O; readiness wakes the loop immediately.
fn tick(gates: &mut [(NetGate, Endpoint)], poll: &mut PollSet, node: &mut Node<'_>) {
    poll.clear();
    for (gate, _) in gates.iter_mut() {
        gate.register(poll);
    }
    poll.wait(Duration::from_millis(10));
    for (gate, endpoint) in gates.iter_mut() {
        node.pump(gate, *endpoint, poll);
    }
}

impl Node<'_> {
    /// Accept and advance one listener's connections, then answer what
    /// the pump produced.
    fn pump(&mut self, gate: &mut NetGate, endpoint: Endpoint, poll: &PollSet) {
        let pumped = gate.pump(poll);
        for mut stream in pumped.over_capacity {
            self.stats.rejected_overload += 1;
            lisa_telemetry::counter_add("serve.shed", 1);
            send(&mut stream, &shed_response("", "", 1000, "connection limit reached"));
        }
        for mut stream in pumped.over_length {
            let why = "request line exceeds the 64KiB bound";
            send(&mut stream, &error_response("", "bad-request", why));
        }
        if pumped.dropped > 0 {
            lisa_telemetry::counter_add("serve.conns_dropped", pumped.dropped as u64);
        }
        for (stream, line) in pumped.requests {
            self.dispatch(&line, stream, endpoint);
        }
    }

    /// Answer one complete NDJSON request line: parse and version-check
    /// it once, consult the endpoint's op table, then run the op.
    fn dispatch(&mut self, line: &str, mut stream: Stream, endpoint: Endpoint) {
        let request = match Json::parse(line.trim()) {
            Ok(v) => v,
            Err(e) => {
                let why = format!("bad JSON: {e}");
                return send(&mut stream, &error_response("", "bad-request", &why));
            }
        };
        if let Err(e) = version_ok(&request) {
            return send(&mut stream, &error_response("", "bad-request", &e));
        }
        let op = request.str_of("op").unwrap_or("gate");
        if let Some(refused) = endpoint.refusal(op, &request) {
            return send(&mut stream, &refused);
        }
        let reply = match (op, &mut self.role) {
            ("ping", _) => "{\"status\":\"ok\"}".to_string(),
            ("stats", Role::Leader { shared, .. }) => stats_response(shared, self.stats),
            ("stats", Role::Follower(state)) => follower_stats_response(state),
            ("verdict", _) => match request.str_of("job_id").unwrap_or("") {
                id if id.len() > MAX_JOB_ID_LEN => job_id_too_long(id.len()),
                id => verdict_response(&self.config.state_root, id),
            },
            ("shutdown", _) => {
                self.draining = true;
                "{\"status\":\"draining\"}".to_string()
            }
            ("follow", Role::Leader { shared, .. }) => {
                return start_shipper(stream, shared, self.config)
            }
            ("gate", Role::Leader { .. }) if self.draining => {
                error_response("", "shutting-down", "daemon is draining")
            }
            ("gate", Role::Leader { shared, next_job }) => {
                match gate_job(&request, next_job) {
                    Ok(job) => return admit(job(stream), shared, self.stats),
                    Err(refused) => refused,
                }
            }
            (other, _) => error_response("", "bad-request", &format!("unknown op {other:?}")),
        };
        send(&mut stream, &reply);
    }
}

/// Validate a `gate` request. `Ok` builds the job once its reply stream
/// is attached; `Err` is the bad-request reply.
fn gate_job(request: &Json, next_job: &mut u64) -> Result<impl FnOnce(Stream) -> Job, String> {
    let bad_request = |why: &str| error_response("", "bad-request", why);
    let tenant = request.str_of("tenant").unwrap_or("default");
    if !valid_tenant(tenant) {
        return Err(bad_request("tenant must be 1..=32 chars of [A-Za-z0-9_-]"));
    }
    let (Some(system), Some(rules)) = (request.str_of("system"), request.str_of("rules")) else {
        return Err(bad_request("gate needs `system` and `rules`"));
    };
    let fail_mode = request
        .str_of("fail_mode")
        .unwrap_or("closed")
        .parse::<FailMode>()
        .map_err(|e| bad_request(&e))?;
    if let Some(id) = request.str_of("job_id") {
        if id.len() > MAX_JOB_ID_LEN {
            return Err(job_id_too_long(id.len()));
        }
    }
    *next_job += 1;
    let id = request.str_of("job_id").map_or_else(|| format!("job-{next_job}"), str::to_string);
    let (tenant, system, rules) = (tenant.to_string(), system.to_string(), rules.to_string());
    let chaos = request.str_of("chaos").map(str::to_string);
    Ok(move |stream| Job { id, tenant, system, rules, fail_mode, chaos, attempts: 0, stream })
}

/// Queue a job on its tenant's queue. From here the stream travels with
/// the job: on admission the reply comes when the job settles, on shed
/// it comes right back with the retry hint.
fn admit(job: Job, shared: &Arc<Shared>, stats: &mut ServeStats) {
    let tenant = job.tenant.clone();
    let admitted = shared
        .queue
        .lock()
        .unwrap_or_else(|p| p.into_inner())
        .queues
        .admit(&tenant, job, Instant::now());
    match admitted {
        Admitted::Queued => shared.available.notify_one(),
        Admitted::Shed { mut job, retry_after_ms, reason } => {
            stats.rejected_overload += 1;
            lisa_telemetry::counter_add("serve.shed", 1);
            let reply = shed_response(&job.id, &tenant, retry_after_ms, reason.as_str());
            send(&mut job.stream, &reply);
        }
        Admitted::Refused { mut job, error } => {
            send(&mut job.stream, &error_response(&job.id, "bad-request", &error));
        }
    }
}

/// Client side: send one NDJSON request to a daemon listener and wait for
/// the one-line reply. Every listener speaks the same protocol, so the
/// reply bytes do not depend on the transport.
pub fn request(addr: &Addr, line: &str) -> std::io::Result<String> {
    let mut stream = addr.connect()?;
    stream.set_read_timeout(Some(Duration::from_secs(600)))?;
    stream.write_all(format!("{line}\n").as_bytes())?;
    let mut out = String::new();
    BufReader::new(stream).read_line(&mut out)?;
    Ok(out.trim_end().to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use lisa_analysis::TargetSpec;

    fn version(guarded: bool) -> SystemVersion {
        let guard = if guarded { "session == null || session.closing" } else { "session == null" };
        let src = format!(
            "struct Session {{ id: int, closing: bool }}\n\
             global sessions: map<int, Session>;\n\
             fn create_ephemeral(s: Session, path: str) {{}}\n\
             fn prep_create(sid: int, path: str) {{\n\
                 let session: Session = sessions.get(sid);\n\
                 if ({guard}) {{ return; }}\n\
                 create_ephemeral(session, path);\n\
             }}\n\
             fn test_prep_live() {{\n\
                 sessions.put(1, new Session {{ id: 1 }});\n\
                 prep_create(1, \"/a\");\n\
             }}"
        );
        let p = Program::parse_single("zk", &src).expect("parse");
        let tests = discover_tests(&p, "test_");
        SystemVersion::new(if guarded { "fixed" } else { "regressed" }, p, tests)
    }

    fn registry() -> RuleRegistry {
        let mut reg = RuleRegistry::new();
        for (id, cond) in
            [("ZK-1208-r0", "s != null && s.closing == false"), ("EXTRA-r0", "s != null")]
        {
            reg.register(
                SemanticRule::new(
                    id,
                    id,
                    TargetSpec::Call { callee: "create_ephemeral".into() },
                    cond,
                )
                .expect("rule"),
            );
        }
        reg
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("lisa-svc-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        dir
    }

    fn config() -> PipelineConfig {
        PipelineConfig { selection: TestSelection::All, ..PipelineConfig::default() }
    }

    #[test]
    fn run_key_separates_versions_and_rule_sets() {
        let reg = registry();
        let fixed = run_key(&version(true), reg.rules());
        let regressed = run_key(&version(false), reg.rules());
        assert_ne!(fixed, regressed);
        let mut fewer = RuleRegistry::new();
        fewer.register(reg.rules()[0].clone());
        assert_ne!(fixed, run_key(&version(true), fewer.rules()));
        // Deterministic across calls.
        assert_eq!(fixed, run_key(&version(true), reg.rules()));
    }

    #[test]
    fn durable_run_resumes_and_reuses_verdicts() {
        let dir = tmpdir("resume");
        let reg = registry();
        let v = version(false);
        let gate = GateOptions::default();
        let durable = DurableOptions { state_dir: dir.clone(), ..DurableOptions::default() };
        let full = gate_durable(&reg, &v, &config(), &gate, &durable).expect("run");
        assert_eq!(full.decision, GateDecision::Block);
        assert_eq!(full.fresh, 2);
        assert_eq!(full.reused, 0);
        // Second run over the same state: everything is reused.
        let resumed = gate_durable(&reg, &v, &config(), &gate, &durable).expect("rerun");
        assert_eq!(resumed.reused, 2);
        assert_eq!(resumed.fresh, 0);
        assert_eq!(resumed.verdicts_text(), full.verdicts_text());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn changed_inputs_do_not_reuse_stale_verdicts() {
        let dir = tmpdir("stale");
        let reg = registry();
        let gate = GateOptions::default();
        let durable = DurableOptions { state_dir: dir.clone(), ..DurableOptions::default() };
        let blocked =
            gate_durable(&reg, &version(false), &config(), &gate, &durable).expect("run");
        assert_eq!(blocked.decision, GateDecision::Block);
        // Same state dir, fixed version: the journal is stale; no verdict
        // may leak across the run-key boundary.
        let passed =
            gate_durable(&reg, &version(true), &config(), &gate, &durable).expect("rerun");
        assert_eq!(passed.decision, GateDecision::Pass);
        assert_eq!(passed.reused, 0);
        assert_eq!(passed.fresh, 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpointing_preserves_the_verdict_artifact() {
        let dir_a = tmpdir("ckpt-a");
        let dir_b = tmpdir("ckpt-b");
        let reg = registry();
        let v = version(false);
        let gate = GateOptions::default();
        let plain = DurableOptions { state_dir: dir_a.clone(), ..DurableOptions::default() };
        let ckpt = DurableOptions {
            state_dir: dir_b.clone(),
            checkpoint_every: 1,
            ..DurableOptions::default()
        };
        let a = gate_durable(&reg, &v, &config(), &gate, &plain).expect("plain");
        let b = gate_durable(&reg, &v, &config(), &gate, &ckpt).expect("checkpointed");
        assert_eq!(a.verdicts_text(), b.verdicts_text());
        // And a resume over the checkpointed state still reuses.
        let resumed = gate_durable(&reg, &v, &config(), &gate, &ckpt).expect("resume");
        assert_eq!(resumed.reused, 2);
        assert_eq!(resumed.verdicts_text(), a.verdicts_text());
        let _ = std::fs::remove_dir_all(&dir_a);
        let _ = std::fs::remove_dir_all(&dir_b);
    }

    #[test]
    fn cancel_stops_at_rule_boundary_and_preserves_resume() {
        let dir = tmpdir("cancel");
        let reg = registry();
        let v = version(false);
        let gate = GateOptions::default();
        // Cancel fires after the first rule settles: the run aborts at
        // the next boundary instead of finishing.
        let flag = Arc::new(AtomicBool::new(false));
        let trip = Arc::clone(&flag);
        let durable = DurableOptions {
            state_dir: dir.clone(),
            progress: Some(Arc::new(move || trip.store(true, Ordering::SeqCst))),
            cancel: Some(Arc::clone(&flag)),
            ..DurableOptions::default()
        };
        match gate_durable(&reg, &v, &config(), &gate, &durable) {
            Err(StoreError::Cancelled) => {}
            other => panic!("expected Cancelled, got {other:?}"),
        }
        // The journal the cancelled attempt wrote stays valid: a clean
        // retry reuses the settled verdict.
        let resumed = gate_durable(
            &reg,
            &v,
            &config(),
            &gate,
            &DurableOptions { state_dir: dir.clone(), ..DurableOptions::default() },
        )
        .expect("resume after cancel");
        assert_eq!(resumed.reused, 1);
        assert_eq!(resumed.fresh, 1);
        assert_eq!(resumed.decision, GateDecision::Block);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn progress_heartbeats_once_per_rule_including_reused() {
        let dir = tmpdir("heartbeat");
        let reg = registry();
        let v = version(false);
        let gate = GateOptions::default();
        let beats = Arc::new(AtomicU64::new(0));
        let counter = Arc::clone(&beats);
        let durable = DurableOptions {
            state_dir: dir.clone(),
            progress: Some(Arc::new(move || {
                counter.fetch_add(1, Ordering::SeqCst);
            })),
            ..DurableOptions::default()
        };
        gate_durable(&reg, &v, &config(), &gate, &durable).expect("run");
        assert_eq!(beats.load(Ordering::SeqCst), 2, "one heartbeat per fresh rule");
        gate_durable(&reg, &v, &config(), &gate, &durable).expect("rerun");
        assert_eq!(beats.load(Ordering::SeqCst), 4, "reused rules heartbeat too");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sanitize_cannot_collide_or_alias_the_state_root() {
        assert_eq!(sanitize("clean-id_1"), "clean-id_1");
        // Distinct raw ids must map to distinct state dirs even when
        // character replacement would merge them.
        assert_ne!(sanitize("a/b"), sanitize("a_b"));
        assert_ne!(sanitize("a/b"), sanitize("a.b"));
        // An empty id must not resolve to the state root itself.
        assert!(!sanitize("").is_empty());
        // Deterministic: retries land in the same dir.
        assert_eq!(sanitize("a/b"), sanitize("a/b"));
    }

    #[test]
    fn endpoint_table_serves_each_listeners_ops_and_keeps_refusal_bytes() {
        let req = |line: &str| Json::parse(line).expect("request parses");
        let ops = ["ping", "stats", "verdict", "follow", "shutdown", "gate"];
        let served = |endpoint: Endpoint| -> Vec<&str> {
            ops.iter().copied().filter(|op| endpoint.refusal(op, &req("{}")).is_none()).collect()
        };
        assert_eq!(served(Endpoint::Socket), ops);
        assert_eq!(served(Endpoint::Listen), ["ping", "stats", "verdict", "shutdown", "gate"]);
        assert_eq!(served(Endpoint::Repl), ["ping", "follow"]);
        assert_eq!(served(Endpoint::Follower), ["ping", "stats", "verdict", "shutdown"]);

        let refused = |endpoint: Endpoint, line: &str| {
            let request = req(line);
            endpoint.refusal(request.str_of("op").unwrap_or("gate"), &request)
        };
        assert_eq!(
            refused(Endpoint::Listen, r#"{"op":"follow"}"#).as_deref(),
            Some(r#"{"job_id":"","status":"bad-request","exit":2,"error":"`follow` is not served on the gate listener; use --repl-listen"}"#)
        );
        // A missing op on the replication listener is named as empty.
        assert_eq!(
            refused(Endpoint::Repl, r#"{"system":"s"}"#).as_deref(),
            Some(r#"{"job_id":"","status":"bad-request","exit":2,"error":"unsupported op \"\" on the replication listener"}"#)
        );
        assert_eq!(
            refused(Endpoint::Repl, r#"{"op":"stats"}"#).as_deref(),
            Some(r#"{"job_id":"","status":"bad-request","exit":2,"error":"unsupported op \"stats\" on the replication listener"}"#)
        );
        assert_eq!(
            refused(Endpoint::Follower, r#"{"job_id":"j1"}"#).as_deref(),
            Some(r#"{"job_id":"j1","status":"read-only","exit":2,"error":"follower is read-only while its leader is alive; submit to the leader"}"#)
        );
        assert_eq!(
            refused(Endpoint::Follower, r#"{"op":"follow"}"#).as_deref(),
            Some(r#"{"job_id":"","status":"bad-request","exit":2,"error":"unknown op \"follow\""}"#)
        );
    }

    #[test]
    fn parse_repl_addr_schemes_win_over_shape() {
        // Explicit schemes are taken at face value, even when the
        // remainder looks like the other transport (or is empty).
        assert_eq!(
            parse_repl_addr("unix:/tmp/lisa.sock"),
            Addr::Unix(PathBuf::from("/tmp/lisa.sock"))
        );
        assert_eq!(parse_repl_addr("unix:"), Addr::Unix(PathBuf::new()));
        assert_eq!(
            parse_repl_addr("unix:localhost:7001"),
            Addr::Unix(PathBuf::from("localhost:7001"))
        );
        assert_eq!(
            parse_repl_addr("tcp:127.0.0.1:7001"),
            Addr::Tcp("127.0.0.1:7001".to_string())
        );
        assert_eq!(parse_repl_addr("tcp:"), Addr::Tcp(String::new()));
    }

    #[test]
    fn parse_repl_addr_bare_specs_split_on_slash() {
        // A '/' anywhere marks a filesystem path — colons in the path
        // (legal on unix) do not flip it back to host:port.
        assert_eq!(
            parse_repl_addr("/var/run/lisa:1.sock"),
            Addr::Unix(PathBuf::from("/var/run/lisa:1.sock"))
        );
        assert_eq!(parse_repl_addr("./lisa.sock"), Addr::Unix(PathBuf::from("./lisa.sock")));
        // No '/': host:port territory.
        assert_eq!(parse_repl_addr("localhost:7001"), Addr::Tcp("localhost:7001".to_string()));
    }

    #[test]
    fn parse_repl_addr_degenerate_specs_fall_to_tcp() {
        // The ambiguous leftovers — empty spec, bare host with a missing
        // port, a slashless socket filename — all parse as TCP and fail
        // loudly at connect() rather than being guessed at. Callers who
        // mean a relative socket path write `unix:` explicitly.
        assert_eq!(parse_repl_addr(""), Addr::Tcp(String::new()));
        assert_eq!(parse_repl_addr("localhost"), Addr::Tcp("localhost".to_string()));
        assert_eq!(parse_repl_addr("lisa.sock"), Addr::Tcp("lisa.sock".to_string()));
    }
}
