//! End-to-end tests for the multi-tenant `lisa serve --listen` TCP gate:
//! verdict replies are byte-identical across the unix and TCP
//! transports, weighted-fair dequeue keeps a noisy tenant from starving
//! a quiet one, saturation is answered with structured sheds (never
//! silence), oversized job ids get a structured bad-request, the
//! `stats` op exposes per-tenant depth and tail latency, and no silent,
//! trickling or over-long client on one listener can stall another.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use lisa::Json;

/// Small gate fixture (passes): cheap jobs for protocol-level tests.
const SYSTEM: &str = "struct Session { id: int, closing: bool }\n\
     global sessions: map<int, Session>;\n\
     fn create_ephemeral(s: Session, path: str) {}\n\
     fn prep_create(sid: int, path: str) {\n\
         let session: Session = sessions.get(sid);\n\
         if (session == null) { return; }\n\
         create_ephemeral(session, path);\n\
     }\n\
     fn test_create() {\n\
         sessions.put(1, new Session { id: 1 });\n\
         prep_create(1, \"/a\");\n\
     }";

const RULES: &str = "when calling create_ephemeral, require s != null\n";

/// Heavier fixture for the fairness test: several tests and rules so
/// each job takes long enough that a backlog is observable via `stats`.
const SLOW_SYSTEM: &str = "struct Order { id: int, paid: bool, cancelled: bool }\n\
     global orders: map<int, Order>;\n\
     global shipped: map<int, int>;\n\
     fn ship_order(o: Order, courier: int) { shipped.put(o.id, courier); }\n\
     fn checkout_ship(oid: int, courier: int) {\n\
         let o: Order = orders.get(oid);\n\
         if (o == null || o.paid == false || o.cancelled) { return; }\n\
         ship_order(o, courier);\n\
     }\n\
     fn admin_reship(oid: int, courier: int) {\n\
         let ord: Order = orders.get(oid);\n\
         if (ord == null || ord.paid == false) { return; }\n\
         ship_order(ord, courier);\n\
     }\n\
     fn seed(id: int, paid: bool, cancelled: bool) {\n\
         orders.put(id, new Order { id: id, paid: paid, cancelled: cancelled });\n\
     }\n\
     fn test_checkout() { seed(1, true, false); checkout_ship(1, 7); }\n\
     fn test_reship() { seed(2, true, false); admin_reship(2, 9); }\n\
     fn test_cancelled() { seed(3, true, true); checkout_ship(3, 7); }\n\
     fn test_unpaid() { seed(4, false, false); admin_reship(4, 9); }\n";

const SLOW_RULES: &str = "when calling ship_order, require o != null && o.paid == true\n\
     when calling ship_order, require o != null\n\
     when calling ship_order, require o.cancelled == false || o.paid == true\n";

struct Fixture {
    dir: PathBuf,
}

impl Fixture {
    fn new(tag: &str) -> Fixture {
        let dir =
            std::env::temp_dir().join(format!("lisa-e2e-load-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(dir.join("sys")).expect("mkdir");
        std::fs::create_dir_all(dir.join("slow-sys")).expect("mkdir");
        std::fs::write(dir.join("sys/session.sir"), SYSTEM).expect("sir");
        std::fs::write(dir.join("slow-sys/orders.sir"), SLOW_SYSTEM).expect("sir");
        std::fs::write(dir.join("rules.txt"), RULES).expect("rules");
        std::fs::write(dir.join("slow-rules.txt"), SLOW_RULES).expect("rules");
        Fixture { dir }
    }

    fn path(&self, rel: &str) -> String {
        self.dir.join(rel).to_string_lossy().into_owned()
    }
}

impl Drop for Fixture {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Two distinct localhost addresses that were free a moment ago.
fn free_addrs() -> (String, String) {
    let probe = || TcpListener::bind("127.0.0.1:0").expect("probe port");
    let (a, b) = (probe(), probe());
    let addr = |l: &TcpListener| l.local_addr().expect("probe addr").to_string();
    (addr(&a), addr(&b))
}

/// The daemon listener a client connects to.
#[derive(Clone, Copy, Debug)]
enum Via {
    Unix,
    Tcp,
    Repl,
}

struct Daemon {
    child: Child,
    socket: String,
    addr: String,
    repl: String,
}

impl Daemon {
    fn start(fx: &Fixture, tag: &str, extra: &[&str]) -> Daemon {
        let socket = fx.path(&format!("{tag}.sock"));
        let (addr, repl) = free_addrs();
        let state = fx.path(&format!("state-{tag}"));
        let mut args = vec![
            "serve", "--socket", &socket, "--state-root", &state, "--listen", &addr,
            "--repl-listen", &repl,
        ];
        args.extend_from_slice(extra);
        let child = Command::new(env!("CARGO_BIN_EXE_lisa"))
            .args(&args)
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn lisa serve");
        let daemon = Daemon { child, socket, addr, repl };
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            if let Some(reply) = daemon.try_tcp("{\"v\":1,\"op\":\"ping\"}") {
                assert!(reply.contains("\"ok\""), "ping: {reply}");
                break;
            }
            assert!(Instant::now() < deadline, "daemon never answered ping on {}", daemon.addr);
            std::thread::sleep(Duration::from_millis(20));
        }
        daemon
    }

    fn try_tcp(&self, line: &str) -> Option<String> {
        let stream = TcpStream::connect(&self.addr).ok()?;
        exchange(&stream, &stream, line)
    }

    fn tcp(&self, line: &str) -> String {
        self.try_tcp(line).expect("tcp reply")
    }

    fn unix(&self, line: &str) -> String {
        let stream = UnixStream::connect(&self.socket).expect("unix connect");
        exchange(&stream, &stream, line).expect("unix reply")
    }

    /// One request/reply on the listener `via` names.
    fn on(&self, via: Via, line: &str) -> Option<String> {
        match via {
            Via::Unix => Some(self.unix(line)),
            Via::Tcp => self.try_tcp(line),
            Via::Repl => {
                let stream = TcpStream::connect(&self.repl).ok()?;
                exchange(&stream, &stream, line)
            }
        }
    }

    /// A raw client connection on the listener `via` names.
    fn open(&self, via: Via) -> Box<dyn Write + Send> {
        match via {
            Via::Unix => Box::new(UnixStream::connect(&self.socket).expect("unix connect")),
            Via::Tcp => Box::new(TcpStream::connect(&self.addr).expect("tcp connect")),
            Via::Repl => Box::new(TcpStream::connect(&self.repl).expect("repl connect")),
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One NDJSON request/reply on an already connected stream pair.
fn exchange<R: std::io::Read, W: Write>(r: R, mut w: W, line: &str) -> Option<String> {
    w.write_all(line.as_bytes()).ok()?;
    w.write_all(b"\n").ok()?;
    let mut reply = String::new();
    BufReader::new(r).read_line(&mut reply).ok()?;
    if reply.is_empty() {
        None
    } else {
        Some(reply)
    }
}

fn gate_line(job_id: &str, tenant: &str, system: &str, rules: &str) -> String {
    format!(
        "{{\"v\":1,\"op\":\"gate\",\"job_id\":\"{job_id}\",\"tenant\":\"{tenant}\",\
         \"system\":\"{}\",\"rules\":\"{}\",\"fail_mode\":\"open\"}}",
        lisa::json::escape(system),
        lisa::json::escape(rules),
    )
}

// ---------------------------------------------------------------------------
// Verdict-byte parity across transports
// ---------------------------------------------------------------------------

#[test]
fn tcp_and_unix_replies_are_byte_identical_modulo_job_id() {
    let fx = Fixture::new("parity");
    let daemon = Daemon::start(&fx, "parity", &["--workers", "2"]);
    let sys = fx.path("sys");
    let rules = fx.path("rules.txt");

    let via_tcp = daemon.tcp(&gate_line("par-tcp", "acme", &sys, &rules));
    let via_unix = daemon.unix(&gate_line("par-unix", "acme", &sys, &rules));
    assert!(via_tcp.contains("\"status\":\"done\""), "tcp: {via_tcp}");
    assert!(via_unix.contains("\"status\":\"done\""), "unix: {via_unix}");
    // Same job body, fresh state dirs: the only divergence allowed
    // between the two transports is the job id itself.
    assert_eq!(
        via_tcp.replace("par-tcp", "par-unix"),
        via_unix,
        "verdict bytes must be transport-independent"
    );

    // The stored verdict artifact is also transport-independent.
    let v_tcp = daemon.tcp("{\"v\":1,\"op\":\"verdict\",\"job_id\":\"par-tcp\"}");
    let v_unix = daemon.unix("{\"v\":1,\"op\":\"verdict\",\"job_id\":\"par-unix\"}");
    assert_eq!(v_tcp.replace("par-tcp", "par-unix"), v_unix);
}

// ---------------------------------------------------------------------------
// Fairness: a noisy tenant cannot starve a quiet one
// ---------------------------------------------------------------------------

#[test]
fn quiet_tenant_overtakes_noisy_backlog() {
    let fx = Fixture::new("fair");
    let daemon = Daemon::start(
        &fx,
        "fair",
        &["--workers", "1", "--queue-cap", "256", "--tenants", "noisy:1,quiet:1"],
    );
    let sys = fx.path("slow-sys");
    let rules = fx.path("slow-rules.txt");

    // Flood from the noisy tenant; every reply bumps the shared finish
    // sequence so we can place the quiet job in the completion order.
    const NOISY: usize = 24;
    let seq = Arc::new(AtomicUsize::new(0));
    let mut handles = Vec::new();
    for i in 0..NOISY {
        let addr = daemon.addr.clone();
        let line = gate_line(&format!("noisy-{i}"), "noisy", &sys, &rules);
        let seq = Arc::clone(&seq);
        handles.push(std::thread::spawn(move || {
            let stream = TcpStream::connect(&addr).expect("connect");
            let reply = exchange(&stream, &stream, &line).expect("noisy reply");
            assert!(reply.contains("\"status\":\"done\""), "noisy: {reply}");
            seq.fetch_add(1, Ordering::SeqCst)
        }));
    }

    // Wait until the backlog is real: stats must show a deep noisy queue.
    let deadline = Instant::now() + Duration::from_secs(30);
    let depth_when_quiet_sent;
    loop {
        let stats = daemon.tcp("{\"v\":1,\"op\":\"stats\"}");
        let json = Json::parse(stats.trim()).expect("stats parses");
        let depth = json
            .get("tenants")
            .and_then(|t| t.get("noisy"))
            .and_then(|n| n.u64_of("queued"))
            .unwrap_or(0);
        if depth >= 8 {
            depth_when_quiet_sent = depth;
            break;
        }
        assert!(Instant::now() < deadline, "noisy backlog never formed: {stats}");
        std::thread::sleep(Duration::from_millis(5));
    }

    let quiet = daemon.tcp(&gate_line("quiet-0", "quiet", &sys, &rules));
    assert!(quiet.contains("\"status\":\"done\""), "quiet: {quiet}");
    let quiet_seq = seq.load(Ordering::SeqCst);

    for handle in handles {
        handle.join().expect("noisy client");
    }

    // With equal weights, stride scheduling admits the newcomer within a
    // couple of dequeues: the quiet job must finish ahead of most of the
    // backlog that was queued when it arrived (allow a small margin for
    // jobs in flight at submission time).
    let overtaken = depth_when_quiet_sent.saturating_sub(3);
    assert!(
        (quiet_seq as u64) <= NOISY as u64 - overtaken,
        "quiet job finished at sequence {quiet_seq} of {NOISY}, but {depth_when_quiet_sent} \
         noisy jobs were queued when it was submitted — the noisy tenant starved it"
    );
}

// ---------------------------------------------------------------------------
// Saturation: structured sheds, every connection answered
// ---------------------------------------------------------------------------

#[test]
fn saturated_daemon_sheds_structurally_and_answers_everyone() {
    let fx = Fixture::new("shed");
    let daemon = Daemon::start(
        &fx,
        "shed",
        &["--workers", "1", "--queue-cap", "2", "--tenant-cap", "2"],
    );
    let sys = fx.path("sys");
    let rules = fx.path("rules.txt");

    const BURST: usize = 20;
    let mut handles = Vec::new();
    for i in 0..BURST {
        let addr = daemon.addr.clone();
        let line = gate_line(&format!("burst-{i}"), "acme", &sys, &rules);
        handles.push(std::thread::spawn(move || {
            let stream = TcpStream::connect(&addr).expect("connect");
            exchange(&stream, &stream, &line).expect("reply")
        }));
    }
    let replies: Vec<String> = handles.into_iter().map(|h| h.join().expect("client")).collect();
    assert_eq!(replies.len(), BURST, "every connection must be answered");

    let mut done = 0;
    let mut shed = 0;
    for reply in &replies {
        let json = Json::parse(reply.trim()).expect("reply parses");
        match json.str_of("status") {
            Some("done") => done += 1,
            Some("shed") => {
                shed += 1;
                assert!(
                    json.u64_of("retry_after_ms").unwrap_or(0) > 0,
                    "shed reply must carry a retry hint: {reply}"
                );
                assert!(json.str_of("error").is_some(), "shed carries a reason: {reply}");
            }
            other => panic!("unexpected status {other:?}: {reply}"),
        }
    }
    assert!(shed >= 1, "a 2-deep queue under a {BURST}-client burst must shed");
    assert_eq!(done + shed, BURST);

    // The shed counter shows up in stats.
    let stats = daemon.tcp("{\"v\":1,\"op\":\"stats\"}");
    let json = Json::parse(stats.trim()).expect("stats parses");
    let tenant_shed = json
        .get("tenants")
        .and_then(|t| t.get("acme"))
        .and_then(|a| a.u64_of("shed"))
        .unwrap_or(0);
    assert!(tenant_shed >= 1, "per-tenant shed count missing: {stats}");
}

// ---------------------------------------------------------------------------
// Bounded job ids and per-tenant stats
// ---------------------------------------------------------------------------

#[test]
fn oversized_job_id_gets_structured_bad_request() {
    let fx = Fixture::new("jobid");
    let daemon = Daemon::start(&fx, "jobid", &["--workers", "1"]);
    let long_id = "x".repeat(lisa::MAX_JOB_ID_LEN + 1);
    let reply =
        daemon.tcp(&gate_line(&long_id, "acme", &fx.path("sys"), &fx.path("rules.txt")));
    let json = Json::parse(reply.trim()).expect("reply parses");
    assert_eq!(json.str_of("status"), Some("bad-request"), "{reply}");
    assert!(
        json.str_of("error").unwrap_or("").contains("128-byte bound"),
        "error names the bound: {reply}"
    );
    // The same bound holds on the read path and the unix transport.
    let verdict = daemon
        .unix(&format!("{{\"v\":1,\"op\":\"verdict\",\"job_id\":\"{long_id}\"}}"));
    assert!(verdict.contains("bad-request"), "{verdict}");
}

#[test]
fn stats_reports_per_tenant_depth_and_tail_latency() {
    let fx = Fixture::new("stats");
    let daemon = Daemon::start(&fx, "stats", &["--workers", "2", "--tenants", "acme:4,beta:1"]);
    let sys = fx.path("sys");
    let rules = fx.path("rules.txt");
    for (i, tenant) in [(0, "acme"), (1, "acme"), (2, "beta")] {
        let reply = daemon.tcp(&gate_line(&format!("s-{i}"), tenant, &sys, &rules));
        assert!(reply.contains("\"status\":\"done\""), "{reply}");
    }
    // The done reply is written before the worker settles its tenant
    // accounting, so poll until the counters catch up.
    let deadline = Instant::now() + Duration::from_secs(10);
    let stats = loop {
        let stats = daemon.tcp("{\"v\":1,\"op\":\"stats\"}");
        if Json::parse(stats.trim())
            .ok()
            .and_then(|j| j.get("tenants").and_then(|t| t.get("beta")).and_then(|b| b.u64_of("done")))
            == Some(1)
        {
            break stats;
        }
        assert!(Instant::now() < deadline, "tenant accounting never settled: {stats}");
        std::thread::sleep(Duration::from_millis(10));
    };
    let json = Json::parse(stats.trim()).expect("stats parses");
    let tenants = json.get("tenants").expect("tenants object");
    for (name, weight, jobs) in [("acme", 4, 2), ("beta", 1, 1)] {
        let t = tenants.get(name).unwrap_or_else(|| panic!("tenant {name}: {stats}"));
        assert_eq!(t.u64_of("weight"), Some(weight), "{stats}");
        assert_eq!(t.u64_of("done"), Some(jobs), "{stats}");
        assert_eq!(t.u64_of("queued"), Some(0), "drained: {stats}");
        assert!(t.u64_of("p99_us").is_some(), "per-tenant p99 missing: {stats}");
        assert!(t.u64_of("retry_budget").is_some(), "retry budget missing: {stats}");
    }
    assert!(stats.contains("\"listen_conns\""), "{stats}");
}

// ---------------------------------------------------------------------------
// Slow clients: every listener is polled, none can stall another
// ---------------------------------------------------------------------------

/// A client that connects but never finishes its request line.
#[derive(Clone, Copy, Debug)]
enum Slow {
    /// Sends nothing.
    Silent,
    /// Sends one byte every 100 ms (for at most 3 s), never a newline.
    Trickling,
}

/// With a silent and then a trickling client parked on `slow_on`, a
/// request on `probe_on` must still be answered within 500 ms.
fn assert_prompt_beside_slow_clients(slow_on: Via, probe_on: Via, line: &str) {
    let fx = Fixture::new(&format!("slow-{slow_on:?}-{probe_on:?}"));
    let daemon = Daemon::start(&fx, "slow", &["--workers", "1"]);
    for slow in [Slow::Silent, Slow::Trickling] {
        let mut client = daemon.open(slow_on);
        let stop = Arc::new(AtomicBool::new(false));
        let slow_client = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let until = Instant::now() + Duration::from_secs(3);
                while matches!(slow, Slow::Trickling)
                    && !stop.load(Ordering::SeqCst)
                    && Instant::now() < until
                {
                    let _ = client.write_all(b"{");
                    std::thread::sleep(Duration::from_millis(100));
                }
                client
            })
        };
        // Give the daemon time to accept the slow client first.
        std::thread::sleep(Duration::from_millis(200));
        let started = Instant::now();
        let reply = daemon.on(probe_on, line).expect("probe reply");
        let took = started.elapsed();
        stop.store(true, Ordering::SeqCst);
        drop(slow_client.join().expect("slow client"));
        assert!(reply.contains("\"status\":\"ok\""), "{line} via {probe_on:?}: {reply}");
        assert!(
            took < Duration::from_millis(500),
            "{line} via {probe_on:?} took {took:?} beside a {slow:?} client on {slow_on:?}"
        );
    }
}

#[test]
fn tcp_stats_is_not_stalled_by_a_slow_unix_client() {
    assert_prompt_beside_slow_clients(Via::Unix, Via::Tcp, "{\"v\":1,\"op\":\"stats\"}");
}

#[test]
fn unix_ping_is_not_stalled_by_a_slow_unix_client() {
    assert_prompt_beside_slow_clients(Via::Unix, Via::Unix, "{\"v\":1,\"op\":\"ping\"}");
}

#[test]
fn repl_listener_neither_stalls_nor_is_stalled_by_slow_clients() {
    assert_prompt_beside_slow_clients(Via::Repl, Via::Tcp, "{\"v\":1,\"op\":\"stats\"}");
    assert_prompt_beside_slow_clients(Via::Unix, Via::Repl, "{\"v\":1,\"op\":\"ping\"}");
}

#[test]
fn overlong_unix_request_line_gets_structured_bad_request() {
    let fx = Fixture::new("overlong");
    let daemon = Daemon::start(&fx, "overlong", &["--workers", "1"]);
    let line = "x".repeat(lisa::netloop::MAX_REQUEST_LINE + 16 * 1024);
    let mut stream = UnixStream::connect(&daemon.socket).expect("unix connect");
    // The daemon may hang up before the whole line is written — once the
    // bound is crossed it stops reading — but its reply is already queued.
    let _ = stream.write_all(line.as_bytes());
    let mut reply = String::new();
    BufReader::new(&stream).read_line(&mut reply).expect("reply");
    let json = Json::parse(reply.trim()).expect("reply parses");
    assert_eq!(json.str_of("status"), Some("bad-request"), "{reply}");
    assert_eq!(json.str_of("error"), Some("request line exceeds the 64KiB bound"), "{reply}");
    // The daemon is unharmed.
    assert!(daemon.unix("{\"v\":1,\"op\":\"ping\"}").contains("\"ok\""));
}
