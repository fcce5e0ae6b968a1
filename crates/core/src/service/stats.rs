//! The daemon's telemetry surface: the cumulative counters and timing
//! summaries every `stats` reply embeds, and the metrics snapshot that
//! carries them across a restart.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use lisa_store::journal::frame;
use lisa_store::{read_atomic, write_file_atomic};

use crate::json::{escape, Json};

/// Timing histograms surfaced (as p50/p95 summaries) in the `stats`
/// reply. Everything else is still in the full `counters` object.
const STATS_TIMINGS: [&str; 8] = [
    "serve.job_us",
    "pipeline.rule_us",
    "stage.callgraph_us",
    "stage.tree_us",
    "stage.select_us",
    "stage.concolic_us",
    "stage.judge_us",
    "smt.query_us",
];

/// The cumulative telemetry counters as one JSON object (shared by the
/// leader and follower `stats` replies).
pub(super) fn counters_json() -> String {
    let counters: Vec<String> = lisa_telemetry::counters_snapshot()
        .iter()
        .map(|(name, value)| format!("\"{}\":{value}", escape(name)))
        .collect();
    format!("{{{}}}", counters.join(","))
}

/// The per-stage timing summaries as one JSON object.
pub(super) fn timings_json() -> String {
    let hists = lisa_telemetry::histograms_snapshot();
    let timings: Vec<String> = STATS_TIMINGS
        .iter()
        .filter_map(|name| {
            let h = hists.get(*name)?;
            Some(format!(
                "\"{name}\":{{\"count\":{},\"p50_us\":{},\"p95_us\":{},\"p99_us\":{}}}",
                h.count,
                h.percentile(0.50),
                h.percentile(0.95),
                h.percentile(0.99),
            ))
        })
        .collect();
    format!("{{{}}}", timings.join(","))
}

/// How often the daemon writes a metrics snapshot while running.
const METRICS_SNAPSHOT_INTERVAL: Duration = Duration::from_secs(2);

/// The daemon's persisted metrics snapshot under the state root. The
/// file holds one checksummed frame, replaced atomically by every write,
/// so a crash leaves either the previous snapshot or the new one.
pub(super) struct MetricsSnapshot {
    /// `None` once a write failed: best-effort persistence must not
    /// wedge the daemon, so it stays off for the rest of the run.
    path: Option<PathBuf>,
    last: Instant,
}

impl MetricsSnapshot {
    /// Restore the persisted snapshot into the live telemetry registry,
    /// so cumulative `stats` counters and timings survive a restart.
    pub(super) fn open(state_root: &Path) -> MetricsSnapshot {
        let path = state_root.join("metrics.journal");
        if let Some(last) = read_atomic(&path) {
            restore_metrics(&last);
        }
        MetricsSnapshot { path: Some(path), last: Instant::now() }
    }

    /// Write a snapshot once the interval since the last one has passed.
    /// `gauges` runs first, so anything it records lands in the snapshot.
    pub(super) fn tick(&mut self, gauges: impl FnOnce()) {
        if self.last.elapsed() >= METRICS_SNAPSHOT_INTERVAL {
            gauges();
            self.write();
            self.last = Instant::now();
        }
    }

    /// Replace the persisted snapshot with the current metrics. The write
    /// bypasses the store's counted paths (`Journal::append`,
    /// `write_atomic`), so it never shows up in the per-job `store.*`
    /// counters.
    pub(super) fn write(&mut self) {
        let Some(p) = &self.path else { return };
        let payload = lisa_telemetry::metrics_json();
        if write_file_atomic(p, &frame(payload.as_bytes())).is_err() {
            lisa_telemetry::note("serve", || {
                "metrics snapshot failed; persistence disabled".into()
            });
            self.path = None;
        }
    }
}

/// Replay one persisted metrics snapshot (the `metrics_json` format) into
/// the live registry. Malformed snapshots are ignored — restoring metrics
/// is never worth failing the daemon over.
fn restore_metrics(bytes: &[u8]) {
    let Ok(text) = std::str::from_utf8(bytes) else { return };
    let Ok(snap) = Json::parse(text) else { return };
    if let Some(Json::Obj(counters)) = snap.get("counters") {
        for (name, value) in counters {
            if let Some(v) = value.as_u64() {
                lisa_telemetry::counter_add(name, v);
            }
        }
    }
    if let Some(Json::Obj(histograms)) = snap.get("histograms") {
        for (name, h) in histograms {
            let Some(Json::Arr(buckets)) = h.get("buckets") else { continue };
            let mut restored = lisa_telemetry::Histogram::new();
            for (i, b) in buckets.iter().take(restored.buckets.len()).enumerate() {
                restored.buckets[i] = b.as_u64().unwrap_or(0);
            }
            restored.count = h.u64_of("count").unwrap_or(0);
            restored.sum = h.u64_of("sum").unwrap_or(0);
            lisa_telemetry::histogram_merge(name, &restored);
        }
    }
}
