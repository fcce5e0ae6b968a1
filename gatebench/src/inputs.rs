//! Gate inputs generated from the corpus, and the ground-truth oracle.
//!
//! Every (case, version) pair of the 16-case corpus becomes one gate
//! input: the version's modules pretty-printed into a system directory of
//! `.sir` files, and the case's mined rule written as one authoring-
//! template sentence in a rules file. The program under test only ever
//! sees these files (or NDJSON lines naming them); the expected decision
//! comes from corpus metadata, never from the gate.

use std::collections::HashMap;
use std::path::{Path, PathBuf};

use lisa::{load_rules, load_system, Gate, GateCache, GateConfig, GateDecision, RuleRegistry};
use lisa_analysis::TargetSpec;
use lisa_concolic::SystemVersion;
use lisa_corpus::{all_cases, Case, GroundTruth};
use lisa_oracle::{infer_rules, rescope, Scope, SemanticRule};

/// Test entry-point prefix, the `lisa gate` default.
pub const TEST_PREFIX: &str = "test_";

/// One (case, version) gate input.
pub struct Input {
    /// `<case>-<version>`, also the system directory's name.
    pub name: String,
    /// Index into [`Inputs::registries`].
    pub case: usize,
    pub system: PathBuf,
    pub rules: PathBuf,
    /// The version as reloaded from its on-disk SIR.
    pub version: SystemVersion,
    pub expected: GateDecision,
}

/// Every gate input plus the per-case rule registries loaded back from
/// the rules files.
pub struct Inputs {
    pub inputs: Vec<Input>,
    pub registries: Vec<RuleRegistry>,
}

/// The `lisa gate` defaults: flag-free [`GateConfig`] (all tests, fail
/// closed, cache on), with `--workers auto` resolved to the machine.
pub fn gate_defaults() -> GateConfig {
    GateConfig::from_args(&HashMap::new()).expect("empty flag set parses")
}

/// Expected decision from corpus metadata: the buggy and regressed
/// versions carry a live bug, the fixed version does not, and the latest
/// version blocks exactly when the case plants a latent bug there.
pub fn expected(version: &str, truth: &GroundTruth) -> GateDecision {
    match version {
        "fixed" => GateDecision::Pass,
        "latest" if !truth.latent_bug_in_latest => GateDecision::Pass,
        _ => GateDecision::Block,
    }
}

/// The case's rule as mined from its original ticket; builtin-family
/// rules are generalized before enforcement, as the corpus workflow does.
fn mined_rule(case: &Case) -> Result<SemanticRule, String> {
    let out = infer_rules(case.original_ticket())
        .map_err(|e| format!("{}: inference failed: {e}", case.meta.id))?;
    let rule = out
        .rules
        .into_iter()
        .next()
        .ok_or_else(|| format!("{}: inference produced no rule", case.meta.id))?;
    match &rule.target {
        TargetSpec::Call { .. } => Ok(rule),
        _ => rescope(&rule, Scope::Generalized)
            .ok_or_else(|| format!("{}: builtin rule does not generalize", case.meta.id)),
    }
}

/// The authoring-template sentence for a rule. Builtin targets have
/// their own sentence forms: a `when calling` line would turn a
/// lock-held builtin rule into a plain call rule and change verdicts.
fn template(rule: &SemanticRule) -> Result<String, String> {
    match &rule.target {
        TargetSpec::Call { callee } => Ok(format!(
            "when calling {callee}, require {}",
            rule.condition_src
        )),
        TargetSpec::BuiltinInSync { name } => Ok(format!("never call {name} while holding a lock")),
        TargetSpec::BuiltinInCaller { name, caller } => {
            Ok(format!("never call {name} inside {caller}"))
        }
        TargetSpec::Builtin { .. } => Err(format!(
            "rule {}: no authoring template for target {}",
            rule.id, rule.target
        )),
    }
}

/// Module names may hold `/`; the system directory is flat and
/// `load_system` reads files in name order, so a numeric prefix keeps
/// the module order.
fn module_file(index: usize, name: &str) -> String {
    let safe: String = name
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect();
    format!("{index:02}_{safe}.sir")
}

fn write(path: &Path, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("write {}: {e}", path.display()))
}

/// Write every gate input under `root` and check that each survives the
/// trip through its files: the rules file re-parses to the same target
/// and an equivalent condition, and the reloaded system gets the same
/// gate decision as the in-memory corpus version.
pub fn generate(root: &Path) -> Result<Inputs, String> {
    let config = gate_defaults();
    let mut inputs = Vec::new();
    let mut registries = Vec::new();
    for case in all_cases() {
        let id = &case.meta.id;
        let rule = mined_rule(&case)?;
        let rules_path = root.join(format!("{id}.rules"));
        write(
            &rules_path,
            &format!(
                "# {id}: mined from {}\n{}\n",
                case.meta.modelled_on,
                template(&rule)?
            ),
        )?;
        let loaded = load_rules(&rules_path.to_string_lossy())?;
        match loaded.as_slice() {
            [back]
                if back.target == rule.target
                    && lisa_smt::equivalent(&back.condition, &rule.condition) => {}
            _ => {
                return Err(format!(
                    "{id}: rules file does not round-trip to the mined rule"
                ))
            }
        }
        let mut mined = RuleRegistry::new();
        mined.register(rule);
        let mut registry = RuleRegistry::new();
        for r in loaded {
            registry.register(r);
        }
        let case_index = registries.len();
        let versions = &case.versions;
        for (label, version) in [
            ("buggy", &versions.buggy),
            ("fixed", &versions.fixed),
            ("regressed", &versions.regressed),
            ("latest", &versions.latest),
        ] {
            let name = format!("{id}-{label}");
            let system = root.join(&name);
            std::fs::create_dir_all(&system)
                .map_err(|e| format!("mkdir {}: {e}", system.display()))?;
            for (i, module) in version.program.modules.iter().enumerate() {
                write(
                    &system.join(module_file(i, &module.name)),
                    &lisa_lang::pretty::print_module(module),
                )?;
            }
            let reloaded = load_system(&system.to_string_lossy(), TEST_PREFIX)?;
            // Decisions do not depend on the worker count; one worker keeps
            // set-up free of the scheduler's thread hand-offs.
            let decide = |registry: &RuleRegistry, version: &SystemVersion| {
                let cache = std::sync::Arc::new(GateCache::new());
                Gate::new(registry)
                    .config(config.pipeline.clone())
                    .workers(1)
                    .options(config.gate_options(&[]))
                    .cache(&cache)
                    .run(version)
                    .decision
            };
            let in_memory = decide(&mined, version);
            let from_disk = decide(&registry, &reloaded);
            if in_memory != from_disk {
                return Err(format!(
                    "{name}: decision changed through the input files ({in_memory} in memory, \
                     {from_disk} from disk)"
                ));
            }
            inputs.push(Input {
                name,
                case: case_index,
                system,
                rules: rules_path.clone(),
                version: reloaded,
                expected: expected(label, &case.ground_truth),
            });
        }
        registries.push(registry);
    }
    Ok(Inputs { inputs, registries })
}
