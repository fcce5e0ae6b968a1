//! Determinism property suite for the parallel gate.
//!
//! The scheduler's contract is that worker count is invisible in every
//! artifact: a seeded, randomized registry gated at width 1 and width 8
//! must render byte-identical reports and emit byte-identical JSON
//! (modulo wall-clock fields) — with the version-scoped cache on *and*
//! off, and under seeded fault injection.

use std::sync::Arc;

use lisa::report::render_enforcement;
use lisa::{
    FaultInjector, FaultPlan, Gate, GateCache, GateOptions, PipelineConfig, RuleRegistry,
    TestSelection,
};
use lisa_analysis::TargetSpec;
use lisa_corpus::{all_cases, case};
use lisa_oracle::{infer_rules, rescope, Scope, SemanticRule};
use lisa_util::RetryPolicy;

fn xorshift(s: &mut u64) -> u64 {
    *s ^= *s << 13;
    *s ^= *s >> 7;
    *s ^= *s << 17;
    *s
}

/// Every rule the corpus oracle can mine, in a fixed order — the pool the
/// seeded registries draw from.
fn rule_pool() -> Vec<SemanticRule> {
    let mut pool = Vec::new();
    for case in all_cases() {
        let Ok(out) = infer_rules(case.original_ticket()) else { continue };
        for rule in out.rules {
            let rule = match &rule.target {
                TargetSpec::Call { .. } => rule,
                _ => rescope(&rule, Scope::Generalized).expect("rescope"),
            };
            pool.push(rule);
        }
    }
    assert!(pool.len() >= 4, "corpus pool too small for property runs");
    pool
}

/// A randomized registry: seeded Fisher-Yates shuffle of the pool, then a
/// seeded prefix of 2..=5 rules. Same seed → same registry.
fn seeded_registry(pool: &[SemanticRule], seed: u64) -> RuleRegistry {
    let mut s = seed | 1;
    let mut idx: Vec<usize> = (0..pool.len()).collect();
    for i in (1..idx.len()).rev() {
        let j = (xorshift(&mut s) as usize) % (i + 1);
        idx.swap(i, j);
    }
    let keep = 2 + (xorshift(&mut s) as usize) % 4;
    let mut reg = RuleRegistry::new();
    for &i in idx.iter().take(keep) {
        reg.register(pool[i].clone());
    }
    reg
}

fn config() -> PipelineConfig {
    PipelineConfig { selection: TestSelection::All, ..PipelineConfig::default() }
}

/// Zero every `"wall_ms":N` — the one field that legitimately differs
/// between two runs of the same gate.
fn normalize_wall(json: &str) -> String {
    let mut out = String::with_capacity(json.len());
    let mut rest = json;
    while let Some(at) = rest.find("\"wall_ms\":") {
        let tail = &rest[at + "\"wall_ms\":".len()..];
        let digits = tail.chars().take_while(char::is_ascii_digit).count();
        out.push_str(&rest[..at]);
        out.push_str("\"wall_ms\":0");
        rest = &tail[digits..];
    }
    out.push_str(rest);
    out
}

#[test]
fn seeded_registries_are_width_invariant_cache_on_and_off() {
    let pool = rule_pool();
    let zk = case("zk-ephemeral").expect("case");
    for seed in [3, 17, 40, 99] {
        let reg = seeded_registry(&pool, seed);
        for version in [&zk.versions.regressed, &zk.versions.fixed] {
            for cached in [false, true] {
                let run = |workers: usize| {
                    let mut gate = Gate::new(&reg).config(config()).workers(workers);
                    let cache;
                    if cached {
                        cache = Arc::new(GateCache::new());
                        gate = gate.cache(&cache);
                    }
                    let report = gate.run(version);
                    (render_enforcement(&report), lisa::json::enforcement_json(&report))
                };
                let (text1, json1) = run(1);
                let (text8, json8) = run(8);
                assert_eq!(
                    text8, text1,
                    "seed {seed} @ {} (cache {cached}): report drifted across widths",
                    version.label
                );
                assert_eq!(
                    normalize_wall(&json8),
                    normalize_wall(&json1),
                    "seed {seed} @ {} (cache {cached}): JSON drifted across widths",
                    version.label
                );
            }
        }
    }
}

#[test]
fn fault_injected_gates_are_width_invariant() {
    let pool = rule_pool();
    let zk = case("zk-ephemeral").expect("case");
    for seed in [5, 11, 31] {
        let reg = seeded_registry(&pool, seed);
        let ids: Vec<String> = reg.rules().iter().map(|r| r.id.clone()).collect();
        let run = |workers: usize| {
            // No retries: a transient fault's engine error must land the
            // same way at every width, not be timing-healed.
            let options = GateOptions {
                faults: Some(FaultInjector::new(FaultPlan::random(seed, 0.5, &ids))),
                retry: RetryPolicy::none(),
                ..GateOptions::default()
            };
            let report =
                Gate::new(&reg).config(config()).workers(workers).options(options).run(&zk.versions.regressed);
            (render_enforcement(&report), report.decision)
        };
        let (text1, decision1) = run(1);
        let (text8, decision8) = run(8);
        assert_eq!(decision8, decision1, "seed {seed}: decision flipped across widths");
        assert_eq!(text8, text1, "seed {seed}: faulted report drifted across widths");
    }
}
