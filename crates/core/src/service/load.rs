//! Input loading shared by the CLI and serve jobs: a system version from
//! a directory of `.sir` modules, and rules from a file of
//! authoring-template sentences.

use std::path::{Path, PathBuf};

use lisa_concolic::{discover_tests, SystemVersion};
use lisa_lang::Program;
use lisa_oracle::{author_rule, SemanticRule};

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
pub(super) fn parse_rules_text(path: &str, text: &str) -> Result<Vec<SemanticRule>, String> {
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
