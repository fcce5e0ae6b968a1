//! The traced run's layer decomposition: each gate input replayed stage
//! by stage through the layers' public functions, and the store and
//! serve layers probed on every input.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use lisa::{
    gate_durable, load_system, DurableOptions, EnforcementReport, Gate, GateCache, GateConfig,
    GateOptions, RuleRegistry,
};
use lisa_analysis::{chain_aliases, execution_tree_filtered, AliasMap, CallGraph};
use lisa_concolic::{discover_tests, HarnessBudget, SystemVersion};
use lisa_lang::Program;
use lisa_smt::SolverSession;

use crate::inputs::{Input, Inputs, TEST_PREFIX};
use crate::serve::{gate_line, parse_verdict, roundtrip, Daemon};
use crate::trace::Tracer;

/// How a workload gates: its scheduler width and whether runs share one
/// cache (`None`: every run gets a fresh cache, as one-shot `lisa gate`
/// does).
pub struct GateMode {
    pub workers: usize,
    pub shared: Option<Arc<GateCache>>,
}

impl GateMode {
    pub fn run(
        &self,
        config: &GateConfig,
        registry: &RuleRegistry,
        version: &SystemVersion,
    ) -> EnforcementReport {
        let cache = self
            .shared
            .clone()
            .unwrap_or_else(|| Arc::new(GateCache::new()));
        Gate::new(registry)
            .config(config.pipeline.clone())
            .workers(self.workers)
            .options(config.gate_options(&[]))
            .cache(&cache)
            .run(version)
    }
}

/// Sums the per-layer replay collects, divided by `ops` on report.
#[derive(Default)]
pub struct Counts {
    pub ops: u64,
    pub failed: u64,
    pub values: BTreeMap<&'static str, f64>,
}

impl Counts {
    fn add(&mut self, name: &'static str, v: f64) {
        *self.values.entry(name).or_default() += v;
    }

    /// Per-operation mean of a summed value.
    pub fn mean(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0) / self.ops.max(1) as f64
    }
}

fn micros(t: Instant) -> f64 {
    t.elapsed().as_nanos() as f64 / 1e3
}

/// `load_system` split at its layer boundaries: read, parse, then
/// typecheck and test discovery.
fn frontend(
    tr: &mut Tracer,
    op: u64,
    parent: usize,
    dir: &Path,
    counts: &mut Counts,
) -> Result<SystemVersion, String> {
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "sir"))
        .collect();
    files.sort();
    let mut sources = Vec::new();
    for f in &files {
        let text = std::fs::read_to_string(f).map_err(|e| format!("{}: {e}", f.display()))?;
        let stem = f
            .file_stem()
            .map_or(String::new(), |s| s.to_string_lossy().into_owned());
        counts.add("frontend.bytes", text.len() as f64);
        sources.push((stem, text));
    }
    let refs: Vec<(&str, &str)> = sources
        .iter()
        .map(|(n, t)| (n.as_str(), t.as_str()))
        .collect();
    let t = Instant::now();
    let program = tr
        .time("frontend.parse", Some(parent), op, || Program::parse(&refs))
        .map_err(|e| e.to_string())?;
    counts.add("frontend.parse_us", micros(t));
    let t = Instant::now();
    let (errors, tests) = tr.time("frontend.check", Some(parent), op, || {
        (
            lisa_lang::check_program(&program),
            discover_tests(&program, TEST_PREFIX),
        )
    });
    counts.add("frontend.check_us", micros(t));
    if !errors.is_empty() {
        return Err(format!("{}: {} type error(s)", dir.display(), errors.len()));
    }
    let label = dir
        .file_name()
        .map_or(String::new(), |s| s.to_string_lossy().into_owned());
    Ok(SystemVersion::new(label, program, tests))
}

/// Replay one gate input stage by stage, the way the gate runs a rule,
/// then run the real gate on it. Stages go through the same cache tier
/// calls the gate makes, so a warm mode replays cache lookups and a cold
/// mode replays the work.
pub fn replay_one(
    tr: &mut Tracer,
    op: u64,
    input: &Input,
    registry: &RuleRegistry,
    config: &GateConfig,
    mode: &GateMode,
    counts: &mut Counts,
) -> Result<(), String> {
    let root = tr.begin("replay", None, op);
    let version = frontend(tr, op, root, &input.system, counts)?;
    let program = &version.program;
    let pipeline = &config.pipeline;
    let cache = mode
        .shared
        .clone()
        .unwrap_or_else(|| Arc::new(GateCache::new()));
    for rule in registry.rules() {
        let t = Instant::now();
        let (fp, graph) = tr.time("analysis.callgraph", Some(root), op, || {
            let fp = lisa_lang::fingerprint_program(program);
            (
                fp,
                cache.analysis().callgraph(fp, || CallGraph::build(program)),
            )
        });
        counts.add("analysis.callgraph_us", micros(t));
        let t = Instant::now();
        let tree = tr.time("analysis.tree", Some(root), op, || {
            cache.analysis().tree(
                fp,
                &rule.target,
                pipeline.tree_limits,
                &pipeline.test_prefix,
                || {
                    execution_tree_filtered(&graph, &rule.target, pipeline.tree_limits, &|f| {
                        f.starts_with(&pipeline.test_prefix)
                    })
                },
            )
        });
        counts.add("analysis.tree_us", micros(t));
        counts.add("analysis.chains", tree.chains.len() as f64);
        let t = Instant::now();
        let aliases = tr.time("analysis.alias", Some(root), op, || {
            let mut aliases = AliasMap::default();
            for chain in &tree.chains {
                let part = chain_aliases(
                    program,
                    &graph,
                    chain,
                    rule.target.callee(),
                    &rule.placeholder_roots,
                );
                aliases.merge(&part);
            }
            for r in &rule.placeholder_roots {
                if program.global(r).is_some() {
                    aliases.insert("*", r, r);
                }
            }
            aliases
        });
        counts.add("analysis.alias_us", micros(t));
        // All tests are selected; with more than one, the gate runs each
        // test as its own leaf, which is also how the trace cache keys them.
        let t = Instant::now();
        let batches: Vec<&[lisa_concolic::TestCase]> = if version.tests.len() <= 1 {
            vec![&version.tests[..]]
        } else {
            version.tests.chunks(1).collect()
        };
        let outcomes: Vec<_> = tr.time("concolic.run", Some(root), op, || {
            batches
                .iter()
                .map(|tests| {
                    cache.traces().run_tests_budgeted(
                        fp,
                        program,
                        tests,
                        &rule.target,
                        &aliases,
                        &pipeline.policy,
                        &HarnessBudget::default(),
                    )
                })
                .collect()
        });
        counts.add("concolic.run_us", micros(t));
        let hits: Vec<_> = outcomes
            .iter()
            .flat_map(|o| o.runs.iter())
            .flat_map(|r| r.hits.iter())
            .collect();
        counts.add(
            "concolic.tests",
            outcomes.iter().map(|o| o.runs.len()).sum::<usize>() as f64,
        );
        counts.add("concolic.hits", hits.len() as f64);
        let t = Instant::now();
        let session = tr.time("smt.query", Some(root), op, || {
            let session = SolverSession::new(&rule.condition);
            for hit in &hits {
                std::hint::black_box(cache.queries().violates_with(
                    &hit.pi,
                    &rule.condition,
                    None,
                    || session.violates(&hit.pi),
                ));
            }
            session
        });
        counts.add("smt.query_us", micros(t));
        counts.add("smt.queries", hits.len() as f64);
        counts.add(
            "smt.session.incremental",
            session.stats().incremental as f64,
        );
    }
    let t = Instant::now();
    let report = tr.time("gate.run", Some(root), op, || {
        mode.run(config, registry, &version)
    });
    counts.add("gate.run_us", micros(t));
    tr.end(root);
    counts.ops += 1;
    if report.decision != input.expected {
        counts.failed += 1;
    }
    Ok(())
}

fn store_counters() -> [u64; 3] {
    ["store.fsyncs", "store.appends", "store.snapshots"].map(lisa_telemetry::counter_value)
}

/// Bytes on disk under `dir`, recursively.
pub fn disk_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .filter_map(Result::ok)
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => disk_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// Probe the store and serve layers on every input, in `order`: a ping,
/// a fresh durable job and its resubmission through the daemon, then the
/// same input in process (`load_system` + `gate_durable` on a fresh dir,
/// then again on the settled dir). Expects telemetry metrics on and
/// `cache` already warm, matching the daemon's tenant cache. A probe
/// that errors or disagrees with the oracle counts as failed.
#[allow(clippy::too_many_arguments)] // one probe, its whole context
pub fn probe_services(
    tr: &mut Tracer,
    first_op: u64,
    daemon: &Daemon,
    inputs: &Inputs,
    order: &[usize],
    cache: &Arc<GateCache>,
    state: &Path,
    counts: &mut Counts,
) {
    let pipeline = lisa::PipelineConfig {
        selection: lisa::TestSelection::All,
        ..lisa::PipelineConfig::default()
    };
    for (n, &k) in order.iter().enumerate() {
        let op = first_op + n as u64;
        let input = &inputs.inputs[k];
        let registry = &inputs.registries[input.case];
        let expect = input.expected.to_string();
        let root = tr.begin("probe", None, op);
        let mut probe = || -> Result<bool, String> {
            let t = Instant::now();
            tr.time("serve.ping", Some(root), op, || {
                roundtrip(&daemon.addr, "{\"op\":\"ping\"}")
            })?;
            let ping_us = micros(t);
            let job = format!("probe-{op}");
            let line = gate_line(&job, &input.system, &input.rules);
            let t = Instant::now();
            let fresh = tr.time("serve.request", Some(root), op, || {
                roundtrip(&daemon.addr, &line)
            })?;
            let request_us = micros(t);
            let again = tr.time("serve.request", Some(root), op, || {
                roundtrip(&daemon.addr, &line)
            })?;
            let served = matches!(parse_verdict(&fresh), Ok(v) if v.decision == expect && v.fresh == 1)
                && matches!(parse_verdict(&again), Ok(v) if v.decision == expect && v.reused == 1);

            let t = Instant::now();
            let version = tr.time("frontend.load_system", Some(root), op, || {
                load_system(&input.system.to_string_lossy(), TEST_PREFIX)
            })?;
            let load_us = micros(t);
            let durable = DurableOptions {
                state_dir: state.join(&job),
                cache: Some(Arc::clone(cache)),
                ..DurableOptions::default()
            };
            let gate = GateOptions::default();
            let before = store_counters();
            let t = Instant::now();
            let first = tr.time("store.fresh_job", Some(root), op, || {
                gate_durable(registry, &version, &pipeline, &gate, &durable)
            });
            let fresh_us = micros(t);
            let after = store_counters();
            let t = Instant::now();
            let second = tr.time("store.resubmit", Some(root), op, || {
                gate_durable(registry, &version, &pipeline, &gate, &durable)
            });
            counts.add("store.resubmit_us", micros(t));
            counts.add("store.fresh_job_us", fresh_us);
            counts.add("store.fsyncs_per_job", (after[0] - before[0]) as f64);
            counts.add("store.appends_per_job", (after[1] - before[1]) as f64);
            counts.add("store.snapshots_per_job", (after[2] - before[2]) as f64);
            counts.add("serve.ping_us", ping_us);
            counts.add("serve.overhead_us", request_us - (load_us + fresh_us));
            Ok(served
                && matches!(&first, Ok(r) if r.decision == input.expected && r.fresh == 1)
                && matches!(&second, Ok(r) if r.decision == input.expected && r.reused == 1))
        };
        let outcome = probe();
        tr.end(root);
        counts.ops += 1;
        if !matches!(outcome, Ok(true)) {
            counts.failed += 1;
        }
    }
}
