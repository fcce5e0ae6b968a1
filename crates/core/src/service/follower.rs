//! Replication, follower side: the stream client that mirrors a
//! leader's state root, and the live view of its progress that drives
//! the daemon's promotion decision.

use std::io::{ErrorKind, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use lisa_store::journal::FRAME_HEADER;
use lisa_store::repl::{
    decode_wire, Applier, FrameDecoder, StreamFault, StreamFaults, Wire, REPL_VERSION,
};
use lisa_util::RetryPolicy;

use crate::json::Json;
use crate::netloop::{Addr, Stream, PROTOCOL_VERSION};

/// Parse a leader address: `unix:<path>`, `tcp:<host:port>`, a bare
/// path (anything containing `/`), or a bare `host:port`.
pub(super) fn parse_repl_addr(spec: &str) -> Addr {
    if let Some(path) = spec.strip_prefix("unix:") {
        Addr::Unix(PathBuf::from(path))
    } else if let Some(hostport) = spec.strip_prefix("tcp:") {
        Addr::Tcp(hostport.to_string())
    } else if spec.contains('/') {
        Addr::Unix(PathBuf::from(spec))
    } else {
        Addr::Tcp(spec.to_string())
    }
}

/// A running replication client: its progress view and the flag that
/// stops it.
pub(super) struct Follower {
    pub(super) state: Arc<FollowState>,
    stop: Arc<AtomicBool>,
    client: JoinHandle<()>,
}

impl Follower {
    /// Start mirroring the leader at `addr` into `state_root` on a client
    /// thread. Fails only when the state root cannot host a mirror.
    pub(super) fn start(
        addr: Addr,
        state_root: &Path,
        retry: RetryPolicy,
        faults: Option<Arc<dyn StreamFaults>>,
        stale_after: Duration,
    ) -> Result<Follower, String> {
        let applier = Applier::new(state_root).map_err(|e| e.to_string())?;
        let state = Arc::new(FollowState::new());
        let stop = Arc::new(AtomicBool::new(false));
        let client = {
            let state = Arc::clone(&state);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let faults = faults.as_deref();
                follower_client(addr, &state, &applier, retry, &stop, faults, stale_after)
            })
        };
        Ok(Follower { state, stop, client })
    }

    /// Stop the client and wait for it to let go of the stream.
    pub(super) fn stop(self) {
        self.stop.store(true, Ordering::SeqCst);
        let _ = self.client.join();
    }
}

/// Live view of a follower's replication progress, shared between the
/// stream client thread and the read-only op handlers. Times are
/// milliseconds since `start` so they fit in atomics.
pub(super) struct FollowState {
    start: Instant,
    pub(super) connected: AtomicBool,
    /// Sticky once set: this root has held a complete mirror of the
    /// leader at least once (a `SyncDone` arrived). A disconnect does
    /// not clear it — applied frames are atomic, so the mirror stays a
    /// valid prefix of the leader's history, which is exactly what
    /// promotion needs.
    pub(super) synced: AtomicBool,
    last_activity_ms: AtomicU64,
    last_heartbeat_ms: AtomicU64,
    pub(super) leader_seq: AtomicU64,
    leader_bytes: AtomicU64,
    pub(super) applied_seq: AtomicU64,
    applied_bytes: AtomicU64,
}

impl FollowState {
    fn new() -> FollowState {
        FollowState {
            start: Instant::now(),
            connected: AtomicBool::new(false),
            synced: AtomicBool::new(false),
            last_activity_ms: AtomicU64::new(0),
            last_heartbeat_ms: AtomicU64::new(0),
            leader_seq: AtomicU64::new(0),
            leader_bytes: AtomicU64::new(0),
            applied_seq: AtomicU64::new(0),
            applied_bytes: AtomicU64::new(0),
        }
    }

    fn now_ms(&self) -> u64 {
        self.start.elapsed().as_millis() as u64
    }

    fn touch_activity(&self) {
        self.last_activity_ms.store(self.now_ms(), Ordering::SeqCst);
    }

    fn touch_heartbeat(&self) {
        let now = self.now_ms();
        let prev = self.last_heartbeat_ms.swap(now, Ordering::SeqCst);
        if prev > 0 {
            lisa_telemetry::histogram_record("repl.heartbeat_gap_ms", now.saturating_sub(prev));
        }
    }

    /// How long since *anything* arrived from the leader — frame,
    /// heartbeat, or sync marker. This, not heartbeat age alone, drives
    /// promotion: a leader busy shipping big frames is clearly alive
    /// even if its heartbeats queue behind them.
    pub(super) fn activity_age(&self) -> Duration {
        Duration::from_millis(
            self.now_ms().saturating_sub(self.last_activity_ms.load(Ordering::SeqCst)),
        )
    }

    pub(super) fn heartbeat_age_ms(&self) -> u64 {
        self.now_ms().saturating_sub(self.last_heartbeat_ms.load(Ordering::SeqCst))
    }

    pub(super) fn lag_frames(&self) -> u64 {
        self.leader_seq
            .load(Ordering::SeqCst)
            .saturating_sub(self.applied_seq.load(Ordering::SeqCst))
    }

    pub(super) fn lag_bytes(&self) -> u64 {
        self.leader_bytes
            .load(Ordering::SeqCst)
            .saturating_sub(self.applied_bytes.load(Ordering::SeqCst))
    }
}

/// Why a follower's stream session ended.
enum StreamEnd {
    /// Clean EOF or transport error: reconnect with backoff.
    Disconnected,
    /// The stream desynchronized — corrupt frame, undecodable payload,
    /// or a partial frame that stalled. Nothing past that point can be
    /// trusted, so the session drops and the reconnect's full sync
    /// re-establishes a known-good mirror.
    Desync,
}

fn follower_connect(addr: &Addr) -> std::io::Result<Stream> {
    let stream = addr.connect()?;
    // Short read timeouts keep the client loop responsive to `stop` and
    // let it notice staleness without a dedicated timer thread.
    stream.set_read_timeout(Some(Duration::from_millis(200)))?;
    Ok(stream)
}

/// The follower's stream client: connect, follow, reconnect with
/// [`RetryPolicy`] backoff — forever, until `stop`. The policy shapes
/// the backoff curve; it is *not* an attempt cap, because the exit from
/// a dead leader is promotion (decided by the daemon from
/// [`FollowState`] staleness), not giving up.
fn follower_client(
    addr: Addr,
    state: &FollowState,
    applier: &Applier,
    retry: RetryPolicy,
    stop: &AtomicBool,
    faults: Option<&dyn StreamFaults>,
    stale_after: Duration,
) {
    let mut failures: u32 = 0;
    while !stop.load(Ordering::SeqCst) {
        match follower_connect(&addr) {
            Ok(stream) => {
                state.connected.store(true, Ordering::SeqCst);
                lisa_telemetry::counter_add("repl.connects", 1);
                let end = follow_stream(stream, state, applier, stop, faults, stale_after);
                state.connected.store(false, Ordering::SeqCst);
                match end {
                    StreamEnd::Disconnected => {
                        lisa_telemetry::counter_add("repl.disconnects", 1);
                    }
                    StreamEnd::Desync => {
                        lisa_telemetry::counter_add("repl.resyncs_requested", 1);
                    }
                }
                failures = 0;
            }
            Err(_) => failures = failures.saturating_add(1),
        }
        if stop.load(Ordering::SeqCst) {
            break;
        }
        std::thread::sleep(retry.backoff(failures.clamp(1, retry.max_attempts)));
    }
}

/// Run one connected session: handshake, then decode-and-apply until
/// EOF, corruption, or shutdown.
fn follow_stream(
    mut stream: Stream,
    state: &FollowState,
    applier: &Applier,
    stop: &AtomicBool,
    faults: Option<&dyn StreamFaults>,
    stale_after: Duration,
) -> StreamEnd {
    let hello = format!("{{\"v\":{PROTOCOL_VERSION},\"op\":\"follow\"}}\n");
    if stream.write_all(hello.as_bytes()).is_err() || stream.flush().is_err() {
        return StreamEnd::Disconnected;
    }
    // Read the one-line ack byte-at-a-time: everything after the newline
    // is binary frame data that buffered reading would swallow.
    let deadline = Instant::now() + Duration::from_secs(5);
    let mut ack = Vec::new();
    loop {
        let mut b = [0u8; 1];
        match stream.read(&mut b) {
            Ok(0) => return StreamEnd::Disconnected,
            Ok(_) if b[0] == b'\n' => break,
            Ok(_) => {
                ack.push(b[0]);
                if ack.len() > 4096 {
                    return StreamEnd::Desync;
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                if Instant::now() >= deadline || stop.load(Ordering::SeqCst) {
                    return StreamEnd::Disconnected;
                }
            }
            Err(_) => return StreamEnd::Disconnected,
        }
    }
    let acked = std::str::from_utf8(&ack)
        .ok()
        .and_then(|s| Json::parse(s.trim()).ok())
        .is_some_and(|a| {
            a.str_of("status") == Some("ok") && a.u64_of("repl") == Some(REPL_VERSION)
        });
    if !acked {
        lisa_telemetry::note("repl", || "leader rejected the follow handshake".to_string());
        return StreamEnd::Disconnected;
    }
    state.touch_activity();

    let mut dec = FrameDecoder::new();
    let mut buf = vec![0u8; 64 * 1024];
    let mut drop_heartbeats = false;
    let mut last_progress = Instant::now();
    loop {
        if stop.load(Ordering::SeqCst) {
            return StreamEnd::Disconnected;
        }
        match stream.read(&mut buf) {
            Ok(0) => return StreamEnd::Disconnected,
            Ok(n) => {
                let mut chunk = buf[..n].to_vec();
                let mut tear_after = false;
                if let Some(fault) = faults.and_then(|f| f.on_chunk(n)) {
                    lisa_telemetry::counter_add("repl.stream_faults_injected", 1);
                    match fault {
                        StreamFault::Torn { keep } => {
                            chunk.truncate(keep.min(n));
                            tear_after = true;
                        }
                        StreamFault::Flip { at } => chunk[at % n] ^= 0x20,
                        StreamFault::Short { keep } => chunk.truncate(keep.min(n)),
                        StreamFault::DropHeartbeat => drop_heartbeats = true,
                    }
                }
                dec.feed(&chunk);
                loop {
                    match dec.next_frame() {
                        Ok(Some(payload)) => {
                            last_progress = Instant::now();
                            if let Some(end) =
                                apply_wire(&payload, state, applier, drop_heartbeats)
                            {
                                return end;
                            }
                        }
                        Ok(None) => break,
                        Err(e) => {
                            lisa_telemetry::note("repl", || format!("stream corrupt: {e}"));
                            return StreamEnd::Desync;
                        }
                    }
                }
                if tear_after {
                    return StreamEnd::Disconnected;
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {}
            Err(_) => return StreamEnd::Disconnected,
        }
        // A silently desynchronized stream — a short read the checksum
        // cannot catch until the *next* frame boundary — shows up as a
        // partial frame that never completes while bytes keep arriving.
        // Surface it as desync rather than letting a stale stream
        // masquerade as a dead leader and trigger a false promotion.
        if dec.pending() > 0 && last_progress.elapsed() > stale_after {
            lisa_telemetry::note("repl", || "partial frame stalled; resyncing".to_string());
            return StreamEnd::Desync;
        }
    }
}

/// Apply one decoded payload to the mirror and the progress view.
/// Returns `Some(end)` when the session must end: an event the applier
/// refused (hostile path, I/O failure) means this stream can no longer
/// be trusted to produce a faithful mirror.
fn apply_wire(
    payload: &[u8],
    state: &FollowState,
    applier: &Applier,
    drop_heartbeats: bool,
) -> Option<StreamEnd> {
    match decode_wire(payload) {
        Ok(Wire::Event { seq, event }) => {
            if let Err(e) = applier.apply(&event) {
                lisa_telemetry::counter_add("repl.frames_quarantined", 1);
                lisa_telemetry::note("repl", || format!("refused replicated event: {e}"));
                return Some(StreamEnd::Desync);
            }
            state.applied_seq.store(seq, Ordering::SeqCst);
            state
                .applied_bytes
                .fetch_add((FRAME_HEADER + payload.len()) as u64, Ordering::SeqCst);
            state.leader_seq.fetch_max(seq, Ordering::SeqCst);
            state.touch_activity();
            None
        }
        Ok(Wire::Heartbeat { seq, bytes }) => {
            if drop_heartbeats {
                lisa_telemetry::counter_add("repl.heartbeats_dropped", 1);
                return None;
            }
            state.leader_seq.store(seq, Ordering::SeqCst);
            state.leader_bytes.store(bytes, Ordering::SeqCst);
            state.touch_heartbeat();
            state.touch_activity();
            lisa_telemetry::counter_add("repl.heartbeats_seen", 1);
            None
        }
        Ok(Wire::SyncDone { seq, bytes }) => {
            state.applied_seq.store(seq, Ordering::SeqCst);
            state.applied_bytes.store(bytes, Ordering::SeqCst);
            state.leader_seq.store(seq, Ordering::SeqCst);
            state.leader_bytes.store(bytes, Ordering::SeqCst);
            state.synced.store(true, Ordering::SeqCst);
            state.touch_heartbeat();
            state.touch_activity();
            lisa_telemetry::counter_add("repl.syncs_completed", 1);
            None
        }
        Err(e) => {
            lisa_telemetry::counter_add("repl.frames_rejected", 1);
            lisa_telemetry::note("repl", || format!("undecodable frame: {e}"));
            Some(StreamEnd::Desync)
        }
    }
}
