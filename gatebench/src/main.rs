//! Benchmark of the LISA CI/CD gate, end to end and layer by layer.
//!
//! ```text
//! gatebench --workload cold-gate|warm-regate|durable-serve --seed N --seconds S --trace 0|1
//! ```
//!
//! Inputs are the 16-case corpus at its 4 versions each (64 gate inputs),
//! written as SIR and rules files under `.gatebench_tmp/` in the working
//! directory; the seed fixes the order they are gated in. The last line
//! of stdout is one JSON object with the correctness tally and the
//! metrics: end-to-end ones from an untraced run (`--trace 0`), per-layer
//! ones from a traced run (`--trace 1`), which also writes its spans to
//! `.gatebench_out/`. See README.md for the workloads and metrics.

mod inputs;
mod layers;
mod serve;
mod trace;

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use lisa::{load_system, GateCache, GateConfig};
use lisa_util::Prng;

use inputs::{gate_defaults, Inputs, TEST_PREFIX};
use layers::{disk_bytes, probe_services, replay_one, Counts, GateMode};
use serve::{gate_line, parse_verdict, roundtrip, Daemon};
use trace::Tracer;

/// Set-ups per timed run; `setup_s` is their median.
const SETUPS: usize = 9;

/// One resubmission of a settled job in this many durable requests.
const RESUBMIT_ONE_IN: u64 = 4;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Workload {
    /// One-shot `lisa gate`: load the system from disk, gate it with a
    /// fresh cache.
    ColdGate,
    /// A long-lived gate re-judging versions it has seen: pre-parsed
    /// systems, one shared cache.
    WarmRegate,
    /// Durable gate jobs against an in-process `lisa serve --listen`.
    DurableServe,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "cold-gate" => Some(Workload::ColdGate),
            "warm-regate" => Some(Workload::WarmRegate),
            "durable-serve" => Some(Workload::DurableServe),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::ColdGate => "cold-gate",
            Workload::WarmRegate => "warm-regate",
            Workload::DurableServe => "durable-serve",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == name)
            .ok_or_else(|| format!("missing {name}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{name} needs a value"))
    };
    let workload = flag("--workload")?;
    let number = |name: &str| -> Result<u64, String> {
        flag(name)?
            .parse()
            .map_err(|_| format!("{name}: not a whole number"))
    };
    let seconds = number("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".to_string());
    }
    Ok(Args {
        workload: Workload::parse(workload)
            .ok_or_else(|| format!("unknown workload {workload}"))?,
        seed: number("--seed")?,
        seconds: seconds as f64,
        trace: match flag("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace {other}: expected 0 or 1")),
        },
    })
}

/// The seeded gate order: every pass over the inputs is its own shuffle.
struct Order {
    seed: u64,
    n: usize,
}

impl Order {
    fn pass(&self, pass: u64) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..self.n).collect();
        Prng::seed_from_u64(self.seed ^ pass.wrapping_mul(0x9e37_79b9_7f4a_7c15)).shuffle(&mut idx);
        idx
    }

    /// The input gated by operation `i`.
    fn at(&self, i: u64) -> usize {
        self.pass(i / self.n as u64)[(i % self.n as u64) as usize]
    }

    /// A seeded draw for operation `i`, independent of the order.
    fn draw(&self, i: u64) -> u64 {
        Prng::seed_from_u64(!self.seed ^ i.wrapping_mul(0xbf58_476d_1ce4_e5b9)).next_u64()
    }
}

/// Sub-buckets per power of two in the latency histogram (about 1.6%
/// resolution).
const SUB_BUCKETS: u64 = 64;

/// What a closed-loop run observed. Latencies go into a log-linear
/// histogram and completions into per-second counts, so the benchmark's
/// own memory does not grow with the operation count and
/// `peak_rss_mb` reflects the program under test.
struct Tally {
    histogram: Vec<u64>,
    /// Completions in each whole second of the run.
    per_second: Vec<u64>,
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn new(seconds: f64) -> Tally {
        Tally {
            histogram: vec![0; (64 * SUB_BUCKETS) as usize],
            per_second: vec![0; (seconds as usize).max(1)],
            attempted: 0,
            failed: 0,
        }
    }

    /// Bucket of a latency: exact below `SUB_BUCKETS` ns, then
    /// `SUB_BUCKETS` equal slices of every power of two.
    fn bucket(ns: u64) -> usize {
        if ns < SUB_BUCKETS {
            return ns as usize;
        }
        let exp = 63 - u64::from(ns.leading_zeros());
        let shift = exp - SUB_BUCKETS.trailing_zeros() as u64;
        ((shift + 1) * SUB_BUCKETS + ((ns >> shift) & (SUB_BUCKETS - 1))) as usize
    }

    /// Lowest latency of bucket `i`, and the bucket's width.
    fn bucket_range(i: usize) -> (f64, f64) {
        let i = i as u64;
        if i < SUB_BUCKETS {
            return (i as f64, 1.0);
        }
        let shift = i / SUB_BUCKETS - 1;
        (
            ((SUB_BUCKETS + i % SUB_BUCKETS) << shift) as f64,
            (1u64 << shift) as f64,
        )
    }

    fn record(&mut self, latency: Duration, done_at: Duration) {
        self.histogram[Self::bucket(latency.as_nanos() as u64)] += 1;
        if let Some(c) = self.per_second.get_mut(done_at.as_secs() as usize) {
            *c += 1;
        }
    }

    fn merge(&mut self, other: Tally) {
        for (a, b) in self.histogram.iter_mut().zip(other.histogram) {
            *a += b;
        }
        for (a, b) in self.per_second.iter_mut().zip(other.per_second) {
            *a += b;
        }
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// Median of the per-second completion counts: robust to a stall or
    /// a burst in any one second.
    fn ops_per_s(&self) -> f64 {
        median(self.per_second.iter().map(|&c| c as f64).collect())
    }

    /// Nearest-rank percentile in milliseconds, interpolated linearly
    /// within its histogram bucket.
    fn percentile_ms(&self, q: f64) -> f64 {
        let n: u64 = self.histogram.iter().sum();
        if n == 0 {
            return 0.0;
        }
        let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
        let mut below = 0;
        for (i, &count) in self.histogram.iter().enumerate() {
            if below + count >= rank {
                let (low, width) = Self::bucket_range(i);
                let within = (rank - below) as f64 - 0.5;
                return (low + width * within / count as f64) / 1e6;
            }
            below += count;
        }
        unreachable!("rank is at most the sample count")
    }
}

/// One set-up of a workload: inputs on disk, plus the shared cache or
/// the daemon the workload runs against.
struct Bench {
    workload: Workload,
    dir: PathBuf,
    order: Order,
    inputs: Inputs,
    config: GateConfig,
    /// Cold: fresh cache per gate; warm: the shared cache.
    mode: GateMode,
    daemon: Option<Daemon>,
    /// Durable jobs that have settled: (input, job id).
    settled: Mutex<Vec<(usize, String)>>,
    next_op: AtomicU64,
    /// Operations checked during set-up (warm-up passes).
    setup_tally: (u64, u64),
}

impl Bench {
    fn setup(workload: Workload, seed: u64, dir: &Path) -> Result<Bench, String> {
        let inputs_dir = dir.join("inputs");
        std::fs::create_dir_all(&inputs_dir)
            .map_err(|e| format!("mkdir {}: {e}", inputs_dir.display()))?;
        let inputs = inputs::generate(&inputs_dir)?;
        let config = gate_defaults();
        let workers = lisa::resolve_workers(config.workers);
        let mut bench = Bench {
            workload,
            dir: dir.to_path_buf(),
            order: Order {
                seed,
                n: inputs.inputs.len(),
            },
            inputs,
            config,
            mode: GateMode {
                workers,
                shared: (workload == Workload::WarmRegate).then(|| Arc::new(GateCache::new())),
            },
            daemon: None,
            settled: Mutex::new(Vec::new()),
            next_op: AtomicU64::new(0),
            setup_tally: (0, 0),
        };
        // Warm workloads pay their first full pass here, in seeded order.
        let warm_up = bench.order.pass(u64::MAX);
        let mut tr = Tracer::new(false, Instant::now());
        match workload {
            Workload::ColdGate => {}
            Workload::WarmRegate => {
                for &k in &warm_up {
                    bench.tick(bench.warm_gate(&mut tr, u64::MAX, k));
                }
            }
            Workload::DurableServe => {
                bench.daemon = Some(Daemon::start(dir, workers)?);
                for &k in &warm_up {
                    bench.tick(bench.durable_job(
                        &mut tr,
                        u64::MAX,
                        k,
                        &format!("warm-{k}"),
                        false,
                    ));
                }
            }
        }
        Ok(bench)
    }

    fn tick(&mut self, outcome: Result<(), String>) {
        self.setup_tally.0 += 1;
        if let Err(e) = outcome {
            self.setup_tally.1 += 1;
            eprintln!("gatebench: set-up operation failed: {e}");
        }
    }

    fn check(&self, k: usize, decision: lisa::GateDecision) -> Result<(), String> {
        let input = &self.inputs.inputs[k];
        if decision == input.expected {
            Ok(())
        } else {
            Err(format!(
                "{}: gate said {decision}, ground truth is {}",
                input.name, input.expected
            ))
        }
    }

    fn cold_gate(&self, tr: &mut Tracer, op: u64, k: usize) -> Result<(), String> {
        let input = &self.inputs.inputs[k];
        let root = tr.begin("op", None, op);
        let version = tr.time("frontend.load_system", Some(root), op, || {
            load_system(&input.system.to_string_lossy(), TEST_PREFIX)
        })?;
        let report = tr.time("gate.run", Some(root), op, || {
            self.mode
                .run(&self.config, &self.inputs.registries[input.case], &version)
        });
        tr.end(root);
        self.check(k, report.decision)
    }

    fn warm_gate(&self, tr: &mut Tracer, op: u64, k: usize) -> Result<(), String> {
        let input = &self.inputs.inputs[k];
        let root = tr.begin("op", None, op);
        let report = tr.time("gate.run", Some(root), op, || {
            self.mode.run(
                &self.config,
                &self.inputs.registries[input.case],
                &input.version,
            )
        });
        tr.end(root);
        self.check(k, report.decision)
    }

    /// Submit one durable job and check the reply: the decision against
    /// ground truth, and that a resubmission reuses the settled verdict
    /// while a fresh job computes it.
    fn durable_job(
        &self,
        tr: &mut Tracer,
        op: u64,
        k: usize,
        job: &str,
        resubmit: bool,
    ) -> Result<(), String> {
        let daemon = self.daemon.as_ref().ok_or("no daemon")?;
        let input = &self.inputs.inputs[k];
        let line = gate_line(job, &input.system, &input.rules);
        let root = tr.begin("op", None, op);
        let reply = tr.time("serve.request", Some(root), op, || {
            roundtrip(&daemon.addr, &line)
        });
        tr.end(root);
        let verdict = parse_verdict(&reply?)?;
        let rules = self.inputs.registries[input.case].rules().len() as u64;
        let (reused, fresh) = if resubmit { (rules, 0) } else { (0, rules) };
        if verdict.reused != reused || verdict.fresh != fresh {
            return Err(format!(
                "job {job}: reused {} fresh {}, expected reused {reused} fresh {fresh}",
                verdict.reused, verdict.fresh
            ));
        }
        if verdict.decision != input.expected.to_string() {
            return Err(format!(
                "job {job} ({}): daemon said {}, ground truth is {}",
                input.name, verdict.decision, input.expected
            ));
        }
        if !resubmit {
            self.settled
                .lock()
                .expect("settled list lock")
                .push((k, job.to_string()));
        }
        Ok(())
    }

    /// Operation `op` of the workload.
    fn op(&self, tr: &mut Tracer, op: u64) -> Result<(), String> {
        match self.workload {
            Workload::ColdGate => self.cold_gate(tr, op, self.order.at(op)),
            Workload::WarmRegate => self.warm_gate(tr, op, self.order.at(op)),
            Workload::DurableServe => {
                let draw = self.order.draw(op);
                let again = if draw.is_multiple_of(RESUBMIT_ONE_IN) {
                    let settled = self.settled.lock().expect("settled list lock");
                    (!settled.is_empty())
                        .then(|| settled[(draw >> 8) as usize % settled.len()].clone())
                } else {
                    None
                };
                match again {
                    Some((k, job)) => self.durable_job(tr, op, k, &job, true),
                    None => {
                        self.durable_job(tr, op, self.order.at(op), &format!("job-{op}"), false)
                    }
                }
            }
        }
    }

    /// Closed loop of `nproc` clients, each issuing its next operation
    /// only once the previous one has answered: `nproc` CI runners
    /// sharing one `nproc`-core machine.
    fn run(&self, seconds: f64, traced: bool, epoch: Instant) -> (Tally, Tracer) {
        let start = Instant::now();
        let deadline = start + Duration::from_secs_f64(seconds);
        let client = || {
            let mut tally = Tally::new(seconds);
            let mut tr = Tracer::new(traced, epoch);
            while Instant::now() < deadline {
                let op = self.next_op.fetch_add(1, Ordering::Relaxed);
                let t = Instant::now();
                let outcome = self.op(&mut tr, op);
                tally.record(t.elapsed(), start.elapsed());
                tally.attempted += 1;
                if let Err(e) = outcome {
                    if tally.failed < 3 {
                        eprintln!("gatebench: operation {op} failed: {e}");
                    }
                    tally.failed += 1;
                }
            }
            (tally, tr)
        };
        let mut tally = Tally::new(seconds);
        let mut tracer = Tracer::new(traced, epoch);
        let parts: Vec<(Tally, Tracer)> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..self.mode.workers).map(|_| s.spawn(client)).collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        for (t, tr) in parts {
            tally.merge(t);
            tracer.absorb(tr);
        }
        (tally, tracer)
    }

    fn teardown(mut self) -> Result<(), String> {
        let stopped = self.daemon.take().map_or(Ok(()), Daemon::stop);
        let removed = std::fs::remove_dir_all(&self.dir)
            .map_err(|e| format!("remove {}: {e}", self.dir.display()));
        stopped.and(removed)
    }
}

/// Peak resident set size of this process, from `/proc/self/status`.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// CPU time (user + system) this process has used, daemon threads
/// included, from `/proc/self/stat` in clock ticks of 1/100 s.
fn cpu_seconds() -> Result<f64, String> {
    let stat = std::fs::read_to_string("/proc/self/stat").map_err(|e| e.to_string())?;
    // Fields after the parenthesised command name, starting at `state`.
    let fields: Vec<&str> = stat
        .rsplit_once(')')
        .map_or(vec![], |(_, r)| r.split_whitespace().collect());
    let tick = |i: usize| fields.get(i).and_then(|v| v.parse::<f64>().ok());
    match (tick(11), tick(12)) {
        (Some(user), Some(system)) => Ok((user + system) / 100.0),
        _ => Err("unreadable /proc/self/stat".to_string()),
    }
}

fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// The result line.
fn result_json(attempted: u64, failed: u64, metrics: &[(&str, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        body.join(", ")
    )
}

/// `--trace 0`: the end-to-end metrics, tracing off.
fn timed_run(args: &Args, dir: &Path) -> Result<String, String> {
    let mut setup_s = Vec::new();
    let mut bench: Option<Bench> = None;
    let mut attempted = 0;
    let mut failed = 0;
    for i in 0..SETUPS {
        if let Some(b) = bench.take() {
            b.teardown()?;
        }
        let t = Instant::now();
        let b = Bench::setup(args.workload, args.seed, &dir.join(format!("setup-{i}")))?;
        setup_s.push(t.elapsed().as_secs_f64());
        attempted += b.setup_tally.0;
        failed += b.setup_tally.1;
        bench = Some(b);
    }
    let bench = bench.expect("at least one set-up");
    let cpu_before = cpu_seconds()?;
    let (tally, _) = bench.run(args.seconds, false, Instant::now());
    let cpu_ms_per_op = (cpu_seconds()? - cpu_before) * 1e3 / tally.attempted.max(1) as f64;
    bench.teardown()?;
    attempted += tally.attempted;
    failed += tally.failed;
    let ops_per_s = tally.ops_per_s();
    let p50 = tally.percentile_ms(0.50);
    let p99 = tally.percentile_ms(0.99);
    eprintln!(
        "gatebench: {} seed {}: {} ops ({} failed): {ops_per_s} ops/s, \
         p50 {p50:.4} ms, p99 {p99:.4} ms, {cpu_ms_per_op:.4} CPU ms/op, setup {:?} s",
        args.workload.name(),
        args.seed,
        tally.attempted,
        tally.failed,
        setup_s,
    );
    Ok(result_json(
        attempted,
        failed,
        &[
            ("latency_p50_ms", p50, "ms"),
            ("cpu_ms_per_op", cpu_ms_per_op, "ms"),
            ("setup_s", median(setup_s), "s"),
            ("peak_rss_mb", peak_rss_mb()?, "MB"),
        ],
    ))
}

/// Counter delta between two telemetry snapshots.
fn delta(
    before: &std::collections::BTreeMap<String, u64>,
    after: &std::collections::BTreeMap<String, u64>,
    name: &str,
) -> f64 {
    let get = |m: &std::collections::BTreeMap<String, u64>| m.get(name).copied().unwrap_or(0);
    get(after).saturating_sub(get(before)) as f64
}

/// Job directories under the daemon and probe state roots, and their
/// bytes on disk.
fn job_dirs(roots: &[PathBuf]) -> (u64, f64) {
    let mut bytes = 0;
    let mut dirs = 0;
    for root in roots {
        let Ok(entries) = std::fs::read_dir(root) else {
            continue;
        };
        for e in entries.filter_map(Result::ok) {
            if e.metadata().is_ok_and(|m| m.is_dir()) {
                bytes += disk_bytes(&e.path());
                dirs += 1;
            }
        }
    }
    (bytes, dirs as f64)
}

/// `--trace 1`: the per-layer metrics. The workload runs untraced, then
/// traced; the layers are then replayed input by input, and the store and
/// serve layers probed.
fn traced_run(args: &Args, dir: &Path) -> Result<String, String> {
    let bench = Bench::setup(args.workload, args.seed, &dir.join("setup"))?;
    let epoch = Instant::now();
    let segment = args.seconds * 0.3;

    let (untraced, _) = bench.run(segment, false, epoch);
    if lisa_telemetry::config() == lisa_telemetry::TelemetryConfig::Off {
        lisa_telemetry::init(lisa_telemetry::TelemetryConfig::MetricsOnly);
    }
    let c0 = lisa_telemetry::counters_snapshot();
    let (traced, mut tr) = bench.run(segment, true, epoch);
    let c1 = lisa_telemetry::counters_snapshot();

    // A cache warmed the way the daemon's tenant cache is: one gate of
    // every input at the daemon's per-job width of one.
    let probe_cache = Arc::new(GateCache::new());
    let per_job = GateMode {
        workers: 1,
        shared: Some(Arc::clone(&probe_cache)),
    };
    for input in &bench.inputs.inputs {
        per_job.run(
            &bench.config,
            &bench.inputs.registries[input.case],
            &input.version,
        );
    }
    let replay_mode = match args.workload {
        Workload::ColdGate => GateMode {
            workers: bench.mode.workers,
            shared: None,
        },
        Workload::WarmRegate => GateMode {
            workers: bench.mode.workers,
            shared: bench.mode.shared.clone(),
        },
        Workload::DurableServe => per_job,
    };
    let mut replay = Counts::default();
    let mut op = 1u64 << 40;
    let replay_until = Instant::now() + Duration::from_secs_f64(args.seconds * 0.2);
    for pass in 0.. {
        if pass > 0 && Instant::now() >= replay_until {
            break;
        }
        for k in bench.order.pass(pass) {
            let input = &bench.inputs.inputs[k];
            let registry = &bench.inputs.registries[input.case];
            if let Err(e) = replay_one(
                &mut tr,
                op,
                input,
                registry,
                &bench.config,
                &replay_mode,
                &mut replay,
            ) {
                eprintln!("gatebench: replay of {} failed: {e}", input.name);
                replay.ops += 1;
                replay.failed += 1;
            }
            op += 1;
        }
    }

    // Store and serve: the workload's daemon, or one started for the probe.
    let own_daemon = match &bench.daemon {
        Some(_) => None,
        None => {
            let d = Daemon::start(&dir.join("probe-daemon"), bench.mode.workers)?;
            for (k, input) in bench.inputs.inputs.iter().enumerate() {
                let line = gate_line(&format!("warm-{k}"), &input.system, &input.rules);
                roundtrip(&d.addr, &line)?;
            }
            Some(d)
        }
    };
    let daemon = own_daemon
        .as_ref()
        .or(bench.daemon.as_ref())
        .expect("a daemon");
    let mut probe = Counts::default();
    let probe_state = dir.join("probe-state");
    probe_services(
        &mut tr,
        2u64 << 40,
        daemon,
        &bench.inputs,
        &bench.order.pass(u64::MAX - 1),
        &probe_cache,
        &probe_state,
        &mut probe,
    );
    let c2 = lisa_telemetry::counters_snapshot();
    let (job_bytes, jobs) = job_dirs(&[
        dir.join("setup").join("state"),
        dir.join("probe-daemon").join("state"),
        probe_state,
    ]);
    if let Some(d) = own_daemon {
        d.stop()?;
    }

    let untraced_p50 = untraced.percentile_ms(0.5);
    let traced_p50 = traced.percentile_ms(0.5);
    let ops = traced.attempted.max(1) as f64;
    let hit_ratio = |tier: &str| {
        let hits = delta(&c0, &c1, &format!("cache.{tier}.hits"));
        let misses = delta(&c0, &c1, &format!("cache.{tier}.misses"));
        if hits + misses == 0.0 {
            0.0
        } else {
            hits / (hits + misses)
        }
    };
    let contended: f64 = ["analysis", "trace", "smt"]
        .iter()
        .map(|t| delta(&c0, &c1, &format!("cache.{t}.lock_contended")))
        .sum();
    let stages = [
        "analysis.callgraph_us",
        "analysis.tree_us",
        "analysis.alias_us",
        "concolic.run_us",
        "smt.query_us",
    ];
    let gate_us = replay.mean("gate.run_us");
    let sched_overhead = gate_us - stages.iter().map(|s| replay.mean(s)).sum::<f64>();

    let spans_path = PathBuf::from(".gatebench_out").join(format!(
        "trace-{}-{}.ndjson",
        args.workload.name(),
        args.seed
    ));
    std::fs::create_dir_all(".gatebench_out").map_err(|e| format!("mkdir .gatebench_out: {e}"))?;
    tr.write(&spans_path)?;

    let attempted =
        bench.setup_tally.0 + untraced.attempted + traced.attempted + replay.ops + probe.ops;
    let failed =
        bench.setup_tally.1 + untraced.failed + traced.failed + replay.failed + probe.failed;
    eprintln!(
        "gatebench: {} seed {} traced: {} untraced / {} traced ops, p50 {untraced_p50:.4} / \
         {traced_p50:.4} ms, {} replayed, {} probed, {} spans in {}",
        args.workload.name(),
        args.seed,
        untraced.attempted,
        traced.attempted,
        replay.ops,
        probe.ops,
        tr.len(),
        spans_path.display(),
    );
    bench.teardown()?;
    let metrics = [
        ("frontend.parse_us", replay.mean("frontend.parse_us"), "us"),
        ("frontend.check_us", replay.mean("frontend.check_us"), "us"),
        ("frontend.bytes", replay.mean("frontend.bytes"), "bytes"),
        (
            "analysis.callgraph_us",
            replay.mean("analysis.callgraph_us"),
            "us",
        ),
        ("analysis.tree_us", replay.mean("analysis.tree_us"), "us"),
        ("analysis.alias_us", replay.mean("analysis.alias_us"), "us"),
        ("analysis.chains", replay.mean("analysis.chains"), "count"),
        ("concolic.run_us", replay.mean("concolic.run_us"), "us"),
        ("concolic.tests", replay.mean("concolic.tests"), "count"),
        ("concolic.hits", replay.mean("concolic.hits"), "count"),
        ("smt.query_us", replay.mean("smt.query_us"), "us"),
        ("smt.queries", replay.mean("smt.queries"), "count"),
        (
            "smt.session.incremental",
            replay.mean("smt.session.incremental"),
            "count",
        ),
        ("gate.run_us", gate_us, "us"),
        ("sched.overhead_us", sched_overhead, "us"),
        (
            "sched.tasks_spawned",
            delta(&c0, &c1, "sched.tasks_spawned") / ops,
            "count",
        ),
        (
            "sched.tasks_stolen",
            delta(&c0, &c1, "sched.tasks_stolen") / ops,
            "count",
        ),
        ("cache.analysis.hit_ratio", hit_ratio("analysis"), "ratio"),
        ("cache.trace.hit_ratio", hit_ratio("trace"), "ratio"),
        ("cache.smt.hit_ratio", hit_ratio("smt"), "ratio"),
        ("cache.lock_contended", contended / ops, "count"),
        ("store.fresh_job_us", probe.mean("store.fresh_job_us"), "us"),
        ("store.resubmit_us", probe.mean("store.resubmit_us"), "us"),
        (
            "store.fsyncs_per_job",
            probe.mean("store.fsyncs_per_job"),
            "count",
        ),
        (
            "store.appends_per_job",
            probe.mean("store.appends_per_job"),
            "count",
        ),
        (
            "store.snapshots_per_job",
            probe.mean("store.snapshots_per_job"),
            "count",
        ),
        (
            "store.bytes_per_job",
            job_bytes as f64 / jobs.max(1.0),
            "bytes",
        ),
        ("serve.ping_us", probe.mean("serve.ping_us"), "us"),
        ("serve.overhead_us", probe.mean("serve.overhead_us"), "us"),
        ("serve.shed", delta(&c0, &c2, "serve.shed"), "count"),
        (
            "serve.jobs_done",
            delta(&c0, &c2, "serve.jobs_done"),
            "count",
        ),
        (
            "trace.overhead_pct",
            (traced_p50 / untraced_p50 - 1.0) * 100.0,
            "%",
        ),
        ("trace.spans", tr.len() as f64, "count"),
        (
            "error_rate",
            failed as f64 / attempted.max(1) as f64,
            "ratio",
        ),
    ];
    Ok(result_json(attempted, failed, &metrics))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("gatebench: {e}\nusage: gatebench --workload cold-gate|warm-regate|durable-serve --seed N --seconds S --trace 0|1");
            std::process::exit(2);
        }
    };
    let dir = PathBuf::from(".gatebench_tmp").join(format!(
        "{}-{}-{}",
        args.workload.name(),
        args.seed,
        std::process::id()
    ));
    let result = if args.trace {
        traced_run(&args, &dir)
    } else {
        timed_run(&args, &dir)
    };
    let _ = std::fs::remove_dir_all(&dir);
    // Only succeeds once no other run is using it.
    let _ = std::fs::remove_dir(".gatebench_tmp");
    match result {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("gatebench: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_latency_falls_inside_its_bucket() {
        for ns in [
            0,
            1,
            63,
            64,
            65,
            127,
            128,
            1_000,
            123_456,
            1_000_000_000,
            1 << 40,
        ] {
            let (low, width) = Tally::bucket_range(Tally::bucket(ns));
            assert!(
                low <= ns as f64 && (ns as f64) < low + width,
                "{ns}: [{low}, +{width})"
            );
        }
    }

    #[test]
    fn percentiles_track_the_samples() {
        let mut tally = Tally::new(1.0);
        for us in 1..=1000u64 {
            tally.record(Duration::from_micros(us), Duration::ZERO);
        }
        for (q, want_ms) in [(0.5, 0.5), (0.99, 0.99)] {
            let got = tally.percentile_ms(q);
            assert!((got - want_ms).abs() / want_ms < 0.02, "p{q}: {got} ms");
        }
        assert_eq!(tally.ops_per_s(), 1000.0);
    }
}
