//! Durable gate runs and the supervised `lisa serve` daemon, built on
//! `lisa-store`. Six modules, with dependencies pointing one way: only
//! `supervisor` imports the other five, and none of them imports it.
//!
//! - `load`: system versions and rule files from disk.
//! - `durable`: journaled, crash-resumable gate runs, the job-id →
//!   state-dir mapping, and the read-only view of what a job has settled.
//! - `stats`: the counters and timings JSON, and the metrics snapshot
//!   that carries them across restarts.
//! - `repl_leader`: shipping the state root to one follower.
//! - `follower`: the replication client and its progress view.
//! - `supervisor`: `ServeConfig`, the worker pool, [`serve`], and the
//!   one dispatcher that builds every reply line.

mod durable;
mod follower;
mod load;
mod repl_leader;
mod stats;
mod supervisor;
#[cfg(test)]
mod tests;

pub use crate::netloop::{request, PROTOCOL_VERSION};
pub use durable::{
    fingerprint, gate_durable, outcome_of, run_key, DurableGateReport, DurableOptions,
};
pub use load::{load_rules, load_system};
pub use supervisor::{serve, ServeConfig, ServeStats};
