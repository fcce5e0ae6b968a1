//! Persisted per-rule dependency fingerprints for cross-version reuse.
//!
//! A durable gate run journals its verdicts under a `run_key` that
//! fingerprints the *whole* `(version, rule set)` — one changed function
//! anywhere and the journal is stale by design. This file is the finer
//! sieve that lives beside it: for every rule it records the hash of
//! exactly the inputs that rule's verdict depends on (the rule text plus
//! the fingerprints of the functions that can reach its target or be
//! executed by tests) together with the settled [`RuleOutcome`]. When
//! the next version dirties one function, only rules whose dependency
//! hash moved are re-explored; the rest reuse their recorded outcome.
//!
//! The file is one atomically replaced frame, written only by
//! [`crate::RunStore::save_fingerprints`] (which also publishes it to
//! followers): checksummed, so a torn or corrupt file simply reads as
//! absent and every rule re-runs — at worst slow, never wrong.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use crate::codec::{decode, field};
use crate::event::{decode_outcome, encode_outcome, RuleOutcome};
use crate::journal::read_atomic;

/// On-disk file name, beside `wal.log` in the run's state directory.
pub const FINGERPRINTS: &str = "fingerprints.log";

/// One rule's recorded dependency hash and settled outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuleFingerprint {
    /// FNV-1a over everything the rule's verdict depends on.
    pub dep_hash: u64,
    pub outcome: RuleOutcome,
}

/// The persisted map, rule id → recorded fingerprint.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct FingerprintFile {
    pub entries: BTreeMap<String, RuleFingerprint>,
}

impl FingerprintFile {
    fn path(dir: &Path) -> PathBuf {
        dir.join(FINGERPRINTS)
    }

    /// Load the fingerprint file from `dir`. Absent, torn, or corrupt
    /// files all yield the empty map — reuse is an optimization, never a
    /// requirement.
    pub fn load(dir: &Path) -> FingerprintFile {
        let Some(payload) = read_atomic(&Self::path(dir)) else {
            return FingerprintFile::default();
        };
        let text = match std::str::from_utf8(&payload) {
            Ok(t) => t,
            Err(_) => return FingerprintFile::default(),
        };
        let mut entries = BTreeMap::new();
        for line in text.lines() {
            let Ok(entry) = decode_entry(line.as_bytes()) else {
                // One undecodable entry poisons nothing else; that rule
                // simply re-runs.
                continue;
            };
            entries.insert(entry.1.outcome.rule_id.clone(), entry.1);
        }
        FingerprintFile { entries }
    }

    /// The file's payload: one encoded entry per line, in rule-id order.
    pub(crate) fn encode(&self) -> Vec<u8> {
        let lines: Vec<Vec<u8>> = self.entries.values().map(encode_entry).collect();
        lines.join(&b'\n')
    }

    /// The recorded outcome for `rule_id`, but only when its dependency
    /// hash still matches.
    pub fn reusable(&self, rule_id: &str, dep_hash: u64) -> Option<&RuleOutcome> {
        self.entries
            .get(rule_id)
            .filter(|fp| fp.dep_hash == dep_hash)
            .map(|fp| &fp.outcome)
    }

    pub fn insert(&mut self, dep_hash: u64, outcome: RuleOutcome) {
        self.entries
            .insert(outcome.rule_id.clone(), RuleFingerprint { dep_hash, outcome });
    }
}

fn encode_entry(fp: &RuleFingerprint) -> Vec<u8> {
    encode_outcome(("dep", &format!("{:016x}", fp.dep_hash)), &fp.outcome)
}

fn decode_entry(payload: &[u8]) -> Result<(u64, RuleFingerprint), String> {
    let fields = decode(payload)?;
    let dep = field(&fields, "dep")?;
    let dep_hash =
        u64::from_str_radix(dep, 16).map_err(|_| format!("bad dep hash {dep:?}"))?;
    let outcome = decode_outcome(&fields)?;
    Ok((dep_hash, RuleFingerprint { dep_hash, outcome }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::write_atomic;

    fn save(file: &FingerprintFile, dir: &Path) {
        write_atomic(&dir.join(FINGERPRINTS), &file.encode()).unwrap();
    }

    fn outcome(rule_id: &str) -> RuleOutcome {
        RuleOutcome {
            rule_id: rule_id.to_string(),
            fingerprint: "[verified] a -> b\nverified=1".to_string(),
            verified: 1,
            violated: 0,
            not_covered: 0,
            engine_errors: 0,
            degraded: false,
            sanity_ok: true,
            retries: 0,
        }
    }

    #[test]
    fn round_trips_through_disk() {
        let dir = std::env::temp_dir().join(format!("lisa-fp-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut file = FingerprintFile::default();
        file.insert(0xabc, outcome("R1"));
        file.insert(0xdef, outcome("R2"));
        save(&file, &dir);
        let loaded = FingerprintFile::load(&dir);
        assert_eq!(loaded, file);
        assert!(loaded.reusable("R1", 0xabc).is_some());
        assert!(loaded.reusable("R1", 0xabd).is_none(), "moved dep hash");
        assert!(loaded.reusable("R3", 0xabc).is_none(), "unknown rule");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_or_corrupt_file_reads_empty() {
        let dir = std::env::temp_dir().join(format!("lisa-fp-c-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        assert!(FingerprintFile::load(&dir).entries.is_empty(), "absent");
        std::fs::write(dir.join(FINGERPRINTS), b"garbage not a frame").unwrap();
        assert!(FingerprintFile::load(&dir).entries.is_empty(), "corrupt");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn escaped_fields_survive_newlines_in_fingerprints() {
        let dir = std::env::temp_dir().join(format!("lisa-fp-e-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut o = outcome("R-multi");
        o.fingerprint = "line one\nline two\ttabbed\neq=sign".to_string();
        let mut file = FingerprintFile::default();
        file.insert(7, o);
        save(&file, &dir);
        assert_eq!(FingerprintFile::load(&dir), file);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
