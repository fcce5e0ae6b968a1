//! Replication, leader side: stream the state root to one follower —
//! full sync first, then live frames off the [`ReplBus`], with
//! heartbeats in idle gaps.

use std::io::Write;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use lisa_store::journal::{frame, FRAME_HEADER};
use lisa_store::repl::{encode_wire, BusPoll, ReplBus, Wire};

use crate::netloop::Stream;

/// Hand a follower's stream, its `follow` handshake already acked, to a
/// shipper thread that owns it until the follower drops or `shutdown`
/// is raised. The write timeout the gate set on the stream keeps a
/// follower that stops reading from wedging its shipper, and with it
/// daemon shutdown.
pub(super) fn start_shipper(
    mut stream: Stream,
    bus: Arc<ReplBus>,
    shutdown: Arc<AtomicBool>,
    interval: Duration,
) -> JoinHandle<()> {
    lisa_telemetry::counter_add("repl.followers_attached", 1);
    std::thread::spawn(move || {
        if let Err(e) = ship_loop(&mut stream, &bus, &shutdown, interval) {
            lisa_telemetry::note("repl", || format!("follower detached: {e}"));
        }
    })
}

fn ship_frame(stream: &mut Stream, payload: &[u8]) -> std::io::Result<()> {
    stream.write_all(&frame(payload))?;
    lisa_telemetry::counter_add("repl.frames_shipped", 1);
    lisa_telemetry::counter_add("repl.bytes_shipped", (FRAME_HEADER + payload.len()) as u64);
    Ok(())
}

/// Ship a full sync of the state root; returns the bus position it
/// covers.
fn ship_sync(stream: &mut Stream, bus: &ReplBus) -> std::io::Result<u64> {
    let (payloads, pos) = bus.sync_payloads();
    for p in &payloads {
        ship_frame(stream, p)?;
    }
    stream.flush()?;
    Ok(pos)
}

fn ship_loop(
    stream: &mut Stream,
    bus: &ReplBus,
    shutdown: &AtomicBool,
    interval: Duration,
) -> std::io::Result<()> {
    let mut pos = ship_sync(stream, bus)?;
    let mut last_heartbeat = Instant::now();
    while !shutdown.load(Ordering::SeqCst) {
        match bus.poll_after(pos, Duration::from_millis(100)) {
            BusPoll::Frames(frames) => {
                for (seq, payload) in frames {
                    ship_frame(stream, &payload)?;
                    pos = seq;
                }
                stream.flush()?;
            }
            BusPoll::Idle { .. } => {}
            BusPoll::Gap => {
                // This subscriber fell out of bus retention; the only
                // honest recovery is a fresh full sync on the same
                // stream (frame application is idempotent).
                lisa_telemetry::counter_add("repl.resyncs", 1);
                pos = ship_sync(stream, bus)?;
            }
        }
        if last_heartbeat.elapsed() >= interval {
            let (seq, bytes) = bus.position();
            ship_frame(stream, &encode_wire(&Wire::Heartbeat { seq, bytes }))?;
            stream.flush()?;
            lisa_telemetry::counter_add("repl.heartbeats_shipped", 1);
            last_heartbeat = Instant::now();
        }
    }
    Ok(())
}
