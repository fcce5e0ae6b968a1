//! The supervised `lisa serve` daemon: configuration, the worker pool,
//! the supervision loop, and the one dispatcher that answers every
//! request line — so every reply string, and with it the wire format, is
//! built here.
//!
//! Gate jobs arrive as newline-delimited JSON over a unix socket and
//! (with `--listen`) TCP, and are processed by a supervised worker pool:
//! panicked workers are reaped and respawned, stalled workers (no
//! heartbeat for the tenant's `job_timeout`) abandoned, their jobs
//! retried with backoff and dead-lettered after `max_attempts`, with
//! bounded-queue backpressure and graceful drain on shutdown. Two
//! isolation rules keep recovery honest: every respawned worker gets a
//! **fresh slot** (an abandoned thread can never take — or answer — a job
//! it does not own), and jobs sharing a state directory are
//! **serialized** (a retry never races its abandoned predecessor on the
//! same journal).
//!
//! The daemon is **multi-tenant**: a gate request may carry a `tenant`
//! field routing it to that tenant's bounded queue, rule registry, and
//! version-scoped cache. Dequeue is weighted-fair (stride scheduling
//! over `--tenants` weights via [`crate::tenant::FairQueues`]), and
//! admission control sheds explicitly — a saturated tenant or global
//! queue answers `{"status":"shed","retry_after_ms":...}` immediately
//! instead of blocking or dropping the connection. Every listener — the
//! unix socket, `--listen`, `--repl-listen`, a follower's socket — sits
//! behind one `poll(2)` readiness loop ([`crate::netloop`]): idle clients
//! cost no threads and can never stall the supervisor.
//!
//! This is the only service module that imports the others.

use std::collections::{HashMap, HashSet};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use lisa_oracle::SemanticRule;
use lisa_store::repl::{ReplBus, StreamFaults, REPL_VERSION};
use lisa_util::{fnv1a, RetryPolicy};

use super::durable::{
    gate_durable, sanitize, settled, verdict_digest, DurableGateReport, DurableOptions,
};
use super::follower::{parse_repl_addr, FollowState, Follower};
use super::load::{load_system, parse_rules_text};
use super::repl_leader;
use super::stats::{counters_json, timings_json, MetricsSnapshot};
use crate::enforce::{FailMode, GateOptions, RuleRegistry};
use crate::faults::FAULT_PANIC_PREFIX;
use crate::gate::GateCache;
use crate::json::{escape, Json};
use crate::netloop::{raise_fd_limit, Addr, NetGate, PollSet, Stream, PROTOCOL_VERSION};
use crate::pipeline::{PipelineConfig, TestSelection};
use crate::tenant::{valid_tenant, Admitted, FairQueues, TenantSpec, MAX_JOB_ID_LEN};

/// Configuration for [`serve`].
#[derive(Clone, Debug)]
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

/// What a gate request asks for. A worker clones it out of its [`Job`]
/// before parking the job, so the attempt runs while the slot holds it.
#[derive(Clone)]
struct JobSpec {
    id: String,
    tenant: String,
    system: String,
    rules: String,
    fail_mode: FailMode,
    /// Test hook: `panic` (every attempt), `panic-once` (first attempt
    /// only), `stall` (sleep past the job timeout).
    chaos: Option<String>,
}

/// One queued gate job. The response stream travels with the job so
/// whoever settles it — worker, or supervisor on dead-letter — can reply.
struct Job {
    spec: JobSpec,
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
    /// Raised once the daemon has drained; workers and shippers exit.
    shutdown: Arc<AtomicBool>,
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
    /// Shipper thread handles, one per attached follower, joined on
    /// shutdown. The unfinished ones are the followers still attached.
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
        let mut map = lock(&self.runtimes);
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
            let memo = lock(&self.rules);
            if let Some(rules) = memo.get(&key) {
                return Ok(Arc::clone(rules));
            }
        }
        let rules = Arc::new(parse_rules_text(path, &text)?);
        let mut memo = lock(&self.rules);
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
        lock(&self.shared.queue).busy_dirs.remove(&self.key);
        // A waiting worker may only have been blocked on this dir.
        self.shared.available.notify_all();
    }
}

/// Lock `m`, tolerating poison: a worker that panicked while holding a
/// lock (chaos, or an injected fault) must not take the daemon with it.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
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

fn done_response(job_id: &str, report: &DurableGateReport) -> String {
    format!(
        "{{\"job_id\":\"{}\",\"status\":\"done\",\"decision\":\"{}\",\"exit\":{},\"violations\":{},\"engine_errors\":{},\"reused\":{},\"fresh\":{}}}",
        escape(job_id),
        report.decision,
        report.decision.exit_code(report.has_violation()),
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

/// Process one gate job end to end (load, durable gate, response text).
/// `cancel` stops the run at the next rule boundary once the supervisor
/// abandons this attempt; `progress` is the per-rule liveness heartbeat.
fn process_job(
    spec: &JobSpec,
    shared: &Shared,
    cancel: Arc<AtomicBool>,
    progress: Arc<dyn Fn() + Send + Sync>,
) -> Result<DurableGateReport, String> {
    let version = load_system(&spec.system, "test_")?;
    // The tenant's own registry and cache: rule sets are memoized per
    // tenant by file content, and verdict reuse never crosses tenants.
    let runtime = shared.runtime(&spec.tenant);
    let rules = runtime.load_rules(&spec.rules)?;
    let mut registry = RuleRegistry::new();
    for r in rules.iter() {
        registry.register(r.clone());
    }
    let config = PipelineConfig { selection: TestSelection::All, ..PipelineConfig::default() };
    let gate = GateOptions { fail_mode: spec.fail_mode, ..GateOptions::default() };
    let durable = DurableOptions {
        state_dir: shared.state_root.join(sanitize(&spec.id)),
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
            let mut q = lock(&shared.queue);
            loop {
                if cancel.load(Ordering::SeqCst) {
                    break None;
                }
                // Weighted-fair pick across tenants, skipping jobs whose
                // state dir another attempt still owns — a retry must
                // never race its abandoned predecessor on the same
                // journal, and duplicate job ids serialize.
                let QueueState { queues, busy_dirs } = &mut *q;
                if let Some((_, job)) = queues.pop(|j| !busy_dirs.contains(&sanitize(&j.spec.id))) {
                    let key = sanitize(&job.spec.id);
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
        let (spec, attempts) = (job.spec.clone(), job.attempts);
        let id = &spec.id;
        let job_started = Instant::now();
        let mut job_span = lisa_telemetry::span_with("serve.job", id.clone());
        job_span.arg("attempt", attempts as u64);
        // Park the job (with its response stream) in the slot FIRST: from
        // here on, a panic or stall loses nothing — the supervisor
        // recovers the job from the slot.
        *lock(&slot) = Some((job, Instant::now()));
        match spec.chaos.as_deref() {
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
            if let Some((_, beat)) = lock(&beat_slot).as_mut() {
                *beat = Instant::now();
            }
        });
        let result = process_job(&spec, &shared, Arc::clone(&cancel), progress);
        // Take the job back; if the supervisor already recovered it (it
        // judged us stalled), it owns the reply — do not double-respond.
        let taken = lock(&slot).take();
        let Some((mut job, _)) = taken else { continue };
        let line = match &result {
            Ok(report) => done_response(id, report),
            Err(e) => error_response(id, "error", e),
        };
        send(&mut job.stream, &line);
        shared.jobs_done.fetch_add(1, Ordering::Relaxed);
        let elapsed_us = job_started.elapsed().as_micros() as u64;
        // Settle the tenant's accounting: active count, done count, one
        // retry token earned back, and the shed-hint duration EWMA.
        lock(&shared.queue).queues.settle(&spec.tenant, elapsed_us / 1000);
        job_span.arg("failed", u64::from(result.is_err()));
        if lisa_telemetry::metrics_enabled() {
            lisa_telemetry::histogram_record("serve.job_us", elapsed_us);
            lisa_telemetry::histogram_record(&format!("serve.job_us.{}", spec.tenant), elapsed_us);
            lisa_telemetry::counter_add("serve.jobs_done", 1);
            if result.is_err() {
                lisa_telemetry::counter_add("serve.jobs_failed", 1);
            }
        }
    }
}

/// Why follower mode returned control to [`serve`].
enum FollowerExit {
    /// A `shutdown` op drained us; exit cleanly.
    Drained,
    /// The leader went silent past the heartbeat timeout with a complete
    /// mirror on disk: take over as leader.
    Promoted,
}

/// Run follower mode on the already-bound unix socket (`gates` holds
/// just that one listener): mirror the leader into the state root,
/// answer read-only ops, and decide promotion. Returns whether we drained
/// or should take over.
fn run_follower(
    gates: &mut [(NetGate, Endpoint)],
    config: &ServeConfig,
    addr: Addr,
    metrics: &mut MetricsSnapshot,
    stats: &mut ServeStats,
) -> FollowerExit {
    let retry = config.retry;
    let faults = config.stream_faults.clone();
    let follower =
        match Follower::start(addr, &config.state_root, retry, faults, config.heartbeat_timeout) {
            Ok(f) => f,
            Err(e) => {
                lisa_telemetry::note("repl", || format!("follower state root unusable: {e}"));
                return FollowerExit::Drained;
            }
        };
    let state = Arc::clone(&follower.state);
    let mut node = Node { config, stats, draining: false, role: Role::Follower(&state) };
    let mut poll = PollSet::new();
    let exit = loop {
        tick(gates, &mut poll, &mut node);
        if node.draining {
            break FollowerExit::Drained;
        }
        if state.synced.load(Ordering::SeqCst) && state.activity_age() > config.heartbeat_timeout
        {
            break FollowerExit::Promoted;
        }
        // Record replication gauges alongside the regular snapshot so lag
        // and heartbeat age are visible post-mortem in the metrics
        // snapshot, not just in live `stats` replies.
        metrics.tick(|| {
            lisa_telemetry::histogram_record("repl.heartbeat_age_ms", state.heartbeat_age_ms());
            lisa_telemetry::histogram_record("repl.lag_frames", state.lag_frames());
        });
    };
    follower.stop();
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

/// Answer a `verdict` query from what the job's durable state has
/// settled ([`settled`] never repairs a journal). Corrupt or torn tails
/// simply aren't counted; the leader's copy is authoritative until
/// promotion.
pub(super) fn verdict_response(state_root: &Path, job_id: &str) -> String {
    if job_id.is_empty() {
        return error_response("", "bad-request", "verdict needs `job_id`");
    }
    let Some(state) = settled(state_root, job_id) else {
        return error_response(job_id, "not-found", "no durable state for this job id");
    };
    let digest = verdict_digest(&state.finished, state.decision.as_deref());
    format!(
        "{{\"status\":\"ok\",\"job_id\":\"{}\",\"decision\":\"{}\",\"started\":{},\"finished\":{},\"verdicts_fnv\":\"{:016x}\"}}",
        escape(job_id),
        escape(state.decision.as_deref().unwrap_or("in-progress")),
        state.started.len(),
        state.finished.len(),
        fnv1a(digest.as_bytes()),
    )
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
    let mut metrics = MetricsSnapshot::open(&config.state_root);
    let mut stats = ServeStats::default();

    // Follower mode: mirror the leader until a shutdown drains us or
    // the leader goes silent. Promotion falls through into the leader
    // path below on the already-bound socket, so the address clients
    // know keeps working across the role change.
    if let Some(spec) = &config.follow {
        let addr = parse_repl_addr(spec);
        match run_follower(&mut gates, config, addr, &mut metrics, &mut stats) {
            FollowerExit::Drained => {
                metrics.write();
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
        shutdown: Arc::new(AtomicBool::new(false)),
        jobs_done: AtomicU64::new(0),
        state_root: config.state_root.clone(),
        worker_slots: Mutex::new(Vec::new()),
        repl: ReplBus::new(&config.state_root),
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
        let tenant_timeouts = lock(&shared.queue).queues.timeouts();
        for (widx, worker) in pool.iter_mut().enumerate() {
            let panicked = worker.handle.as_ref().is_some_and(|h| h.is_finished())
                && !shared.shutdown.load(Ordering::SeqCst);
            let stalled = lock(&worker.slot).as_ref().is_some_and(|(job, beat)| {
                let limit = tenant_timeouts.get(&job.spec.tenant).copied();
                beat.elapsed() > limit.unwrap_or(config.job_timeout)
            });
            if !panicked && !stalled {
                continue;
            }
            // Abandon first: a live thread stops at its next cancellation
            // point (rule boundary) and never pulls another job.
            worker.cancel.store(true, Ordering::SeqCst);
            let recovered = lock(&worker.slot).take();
            if let Some((mut job, _)) = recovered {
                job.attempts += 1;
                // Spend from the tenant's retry budget (Retry tactic):
                // a tenant whose jobs keep failing burns its own budget
                // and degrades alone, nobody else's jobs pay for it.
                let budget_ok = {
                    let mut q = lock(&shared.queue);
                    q.queues.recovered(&job.spec.tenant);
                    job.attempts < config.max_attempts
                        && q.queues.try_retry(&job.spec.tenant, Instant::now())
                };
                let dead_letter = if job.attempts >= config.max_attempts {
                    let why = if stalled { "stalled" } else { "worker panicked" };
                    Some(format!("{why}; gave up after {} attempt(s)", job.attempts))
                } else if !budget_ok {
                    // Budget exhausted: Degradation mode for this tenant
                    // — dead-letter now, fast-fail its submissions for
                    // the cooldown instead of feeding workers jobs that
                    // keep failing.
                    lisa_telemetry::counter_add("serve.tenant_degraded", 1);
                    Some("tenant retry budget exhausted; tenant degraded".to_string())
                } else {
                    None
                };
                match dead_letter {
                    Some(reason) => {
                        let reply = error_response(&job.spec.id, "dead-letter", &reason);
                        send(&mut job.stream, &reply);
                        node.stats.dead_letters += 1;
                        lock(&shared.queue).queues.record_dead_letter(&job.spec.tenant);
                    }
                    None => {
                        let due = Instant::now() + config.retry.backoff(job.attempts);
                        pending_retries.push((job, due));
                        node.stats.retries += 1;
                    }
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
                let tenant = job.spec.tenant.clone();
                lock(&shared.queue).queues.requeue_front(&tenant, job);
                shared.available.notify_one();
            } else {
                i += 1;
            }
        }

        // 4. Periodically write a metrics snapshot so cumulative stats
        // survive a daemon restart.
        metrics.tick(|| {});

        // 5. Drain: queue empty, no in-flight jobs, no pending retries.
        if node.draining {
            let queue_empty = lock(&shared.queue).queues.queued_total() == 0;
            let idle = pool.iter().all(|w| lock(&w.slot).is_none());
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
    for shipper in lock(&shared.shippers).drain(..) {
        let _ = shipper.join();
    }
    stats.jobs_done = shared.jobs_done.load(Ordering::Relaxed);
    metrics.write();
    let _ = std::fs::remove_file(&config.socket);
    Ok(stats)
}

fn spawn_worker(shared: &Arc<Shared>, index: usize) -> Worker {
    let slot: Slot = Arc::new(Mutex::new(None));
    {
        let mut slots = lock(&shared.worker_slots);
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

/// Per-tenant queue, fairness, tactic, and latency summaries for the
/// `stats` reply: the operator's view of who is queued, who is shedding,
/// who is degraded, and each tenant's p50/p95/p99 job latency.
fn tenants_json(shared: &Arc<Shared>) -> String {
    let hists = lisa_telemetry::histograms_snapshot();
    let q = lock(&shared.queue);
    let now = Instant::now();
    let mut tenants = Vec::new();
    for (name, t) in q.queues.iter() {
        let (jobs, p50, p95, p99) = match hists.get(&format!("serve.job_us.{name}")) {
            Some(h) => {
                (h.count, h.percentile(0.50), h.percentile(0.95), h.percentile(0.99))
            }
            None => (0, 0, 0, 0),
        };
        tenants.push(format!(
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
    format!("{{{}}}", tenants.join(","))
}

/// Build the one-line `stats` reply: role, queue depth, per-worker
/// states, per-tenant summaries, replication position and attached
/// followers, cumulative telemetry counters (restored across restarts
/// via the metrics snapshot), and per-stage timing summaries.
fn stats_response(shared: &Arc<Shared>, stats: &ServeStats) -> String {
    let queued = lock(&shared.queue).queues.queued_total();
    let slots = lock(&shared.worker_slots);
    let resolved_workers = slots.len();
    let workers: Vec<String> = slots
        .iter()
        .enumerate()
        .map(|(i, slot)| match lock(slot).as_ref() {
            Some((job, beat)) => format!(
                "{{\"worker\":{i},\"state\":\"busy\",\"job_id\":\"{}\",\"attempt\":{},\"since_heartbeat_ms\":{}}}",
                escape(&job.spec.id),
                job.attempts,
                beat.elapsed().as_millis(),
            ),
            None => format!("{{\"worker\":{i},\"state\":\"idle\"}}"),
        })
        .collect();
    drop(slots);
    let workers = format!("[{}]", workers.join(","));
    let (repl_seq, repl_bytes) = shared.repl.position();
    format!(
        "{{\"status\":\"ok\",\"role\":\"leader\",\"jobs_done\":{},\"retries\":{},\"dead_letters\":{},\"respawned_workers\":{},\"rejected_overload\":{},\"promotions\":{},\"followers\":{},\"repl_seq\":{repl_seq},\"repl_bytes\":{repl_bytes},\"queued\":{queued},\"listen_conns\":{},\"tenants\":{},\"resolved_workers\":{resolved_workers},\"workers\":{workers},\"counters\":{},\"timings\":{}}}",
        shared.jobs_done.load(Ordering::Relaxed),
        stats.retries,
        stats.dead_letters,
        stats.respawned_workers,
        stats.rejected_overload,
        stats.promotions,
        lock(&shared.shippers).iter().filter(|h| !h.is_finished()).count(),
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
pub(super) enum Endpoint {
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
    pub(super) fn refusal(self, op: &str, request: &Json) -> Option<String> {
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
                return attach_follower(stream, shared, self.config.heartbeat_interval)
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

/// Acknowledge a `follow` handshake and hand the stream to a shipper
/// thread that owns it for the rest of the daemon's life.
fn attach_follower(mut stream: Stream, shared: &Shared, interval: Duration) {
    let (seq, _) = shared.repl.position();
    send(&mut stream, &format!("{{\"status\":\"ok\",\"repl\":{REPL_VERSION},\"seq\":{seq}}}"));
    let shipper = repl_leader::start_shipper(
        stream,
        Arc::clone(&shared.repl),
        Arc::clone(&shared.shutdown),
        interval,
    );
    lock(&shared.shippers).push(shipper);
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
    let spec = JobSpec { id, tenant, system, rules, fail_mode, chaos };
    Ok(move |stream| Job { spec, attempts: 0, stream })
}

/// Queue a job on its tenant's queue. From here the stream travels with
/// the job: on admission the reply comes when the job settles, on shed
/// it comes right back with the retry hint.
fn admit(job: Job, shared: &Arc<Shared>, stats: &mut ServeStats) {
    let tenant = job.spec.tenant.clone();
    let admitted = lock(&shared.queue).queues.admit(&tenant, job, Instant::now());
    match admitted {
        Admitted::Queued => shared.available.notify_one(),
        Admitted::Shed { mut job, retry_after_ms, reason } => {
            stats.rejected_overload += 1;
            lisa_telemetry::counter_add("serve.shed", 1);
            let reply = shed_response(&job.spec.id, &tenant, retry_after_ms, reason.as_str());
            send(&mut job.stream, &reply);
        }
        Admitted::Refused { mut job, error } => {
            send(&mut job.stream, &error_response(&job.spec.id, "bad-request", &error));
        }
    }
}

