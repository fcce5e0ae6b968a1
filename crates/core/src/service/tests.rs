//! Unit tests for the service modules: durable runs, the job-id →
//! state-dir mapping, the endpoint op table and its refusal bytes, the
//! `verdict` reply, and leader-address parsing.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use lisa_analysis::TargetSpec;
use lisa_concolic::{discover_tests, SystemVersion};
use lisa_lang::Program;
use lisa_oracle::SemanticRule;
use lisa_store::{RunState, StoreError};
use lisa_util::{fnv1a, RetryPolicy};

use super::durable::{gate_durable, run_key, sanitize, DurableOptions};
use super::follower::parse_repl_addr;
use super::supervisor::{verdict_response, Endpoint};
use crate::enforce::{FailMode, GateDecision, GateOptions, RuleRegistry};
use crate::faults::{FaultInjector, FaultKind, FaultPlan};
use crate::gate::{Gate, GateCache};
use crate::json::Json;
use crate::netloop::Addr;
use crate::pipeline::{PipelineConfig, TestSelection};

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
fn run_key_is_pinned_on_corpus_versions() {
    // Run keys name journals on disk; a change here orphans every
    // existing state dir, so it must be deliberate.
    let reg = registry();
    let case = &lisa_corpus::all_cases()[0];
    let keys =
        [run_key(&case.versions.buggy, reg.rules()), run_key(&case.versions.fixed, reg.rules())];
    assert_eq!(keys, ["v1-buggy-318c02174dd63720", "v2-fixed-18622112e10b4953"]);
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
fn settled_resubmit_writes_nothing() {
    use std::os::unix::fs::MetadataExt;
    let dir = tmpdir("settled");
    let reg = registry();
    let v = version(false);
    let gate = GateOptions::default();
    let durable = DurableOptions {
        state_dir: dir.clone(),
        cache: Some(Arc::new(GateCache::new())),
        ..DurableOptions::default()
    };
    let first = gate_durable(&reg, &v, &config(), &gate, &durable).expect("run");
    assert_eq!(first.fresh, reg.len());
    let wal = std::fs::read(dir.join("wal.log")).expect("wal");
    let ino = std::fs::metadata(dir.join("fingerprints.log")).expect("fingerprints").ino();

    let again = gate_durable(&reg, &v, &config(), &gate, &durable).expect("resubmit");
    assert_eq!((again.reused, again.fresh), (reg.len(), 0));
    assert_eq!(again.verdicts_text(), first.verdicts_text());
    let after = std::fs::read(dir.join("wal.log")).expect("wal");
    assert!(
        after == wal,
        "a settled resubmit must not append to the journal: {} -> {} bytes",
        wal.len(),
        after.len()
    );
    assert_eq!(
        std::fs::metadata(dir.join("fingerprints.log")).expect("fingerprints").ino(),
        ino,
        "a settled resubmit must not rewrite the fingerprint file"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resubmit_under_another_fail_mode_journals_its_decision() {
    let dir = tmpdir("refail");
    let reg = registry();
    let v = version(true);
    let durable = DurableOptions { state_dir: dir.clone(), ..DurableOptions::default() };
    // Run 1: the first rule's check panics; fail-closed blocks on it.
    let closed = GateOptions {
        fail_mode: FailMode::Closed,
        retry: RetryPolicy::none(),
        faults: Some(FaultInjector::new(
            FaultPlan::new().inject("ZK-1208-r0", FaultKind::Panic),
        )),
        ..GateOptions::default()
    };
    let first = gate_durable(&reg, &v, &config(), &closed, &durable).expect("run");
    assert_eq!(first.decision, GateDecision::Block);
    assert_eq!(first.engine_errors(), 1);
    // Run 2 reuses the journaled engine error but decides fail-open.
    let open = GateOptions { fail_mode: FailMode::Open, ..GateOptions::default() };
    let second = gate_durable(&reg, &v, &config(), &open, &durable).expect("resubmit");
    assert_eq!((second.reused, second.fresh), (reg.len(), 0));
    assert_eq!(second.decision, GateDecision::Pass);
    assert_eq!(RunState::read(&dir).decision, Some(second.decision.to_string()));
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
fn one_deadline_covers_the_whole_durable_run() {
    // The first rule stalls well past the deadline, so the second rule
    // starts late: it must run degraded, exactly as it does when the
    // in-memory gate checks the same registry at width 1.
    let options = || {
        let mut faults =
            FaultInjector::new(FaultPlan::new().inject("ZK-1208-r0", FaultKind::Stall));
        faults.stall = Duration::from_millis(300);
        GateOptions {
            deadline: Some(Duration::from_millis(100)),
            retry: RetryPolicy::none(),
            faults: Some(faults),
            ..GateOptions::default()
        }
    };
    let dir = tmpdir("deadline");
    let reg = registry();
    let v = version(false);
    let durable = DurableOptions { state_dir: dir.clone(), ..DurableOptions::default() };
    let report = gate_durable(&reg, &v, &config(), &options(), &durable).expect("run");
    let journaled = RunState::read(&dir);
    let second = journaled.finished_outcome("EXTRA-r0").expect("second rule journaled");
    assert!(second.degraded, "the second rule starts past the job's deadline: {second:?}");

    let in_memory = Gate::new(&reg).config(config()).workers(1).options(options()).run(&v);
    let durable_flags: Vec<bool> = report.outcomes.iter().map(|o| o.degraded).collect();
    let gate_flags: Vec<bool> = in_memory.reports.iter().map(|r| r.degraded).collect();
    assert_eq!(durable_flags, gate_flags, "durable and in-memory gates degrade the same rules");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn verdict_reply_digest_matches_the_durable_report() {
    let root = tmpdir("digest");
    let durable =
        DurableOptions { state_dir: root.join(sanitize("job-1")), ..DurableOptions::default() };
    let gate = GateOptions::default();
    let report =
        gate_durable(&registry(), &version(false), &config(), &gate, &durable).expect("run");
    let reply = Json::parse(&verdict_response(&root, "job-1")).expect("reply parses");
    let want = format!("{:016x}", fnv1a(report.verdicts_text().as_bytes()));
    assert_eq!(reply.str_of("verdicts_fnv"), Some(want.as_str()));
    let _ = std::fs::remove_dir_all(&root);
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
