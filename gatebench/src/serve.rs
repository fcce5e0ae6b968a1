//! The in-process `lisa serve --listen` daemon and a bounded NDJSON
//! client for it.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use lisa::{serve, Json, ServeConfig};

/// Connect, write and read bound for every request: a wedged daemon
/// turns into failed operations instead of a hung run.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(5);

/// One NDJSON request/reply exchange on a fresh connection.
pub fn roundtrip(addr: &SocketAddr, line: &str) -> Result<String, String> {
    let stream =
        TcpStream::connect_timeout(addr, REQUEST_TIMEOUT).map_err(|e| format!("connect: {e}"))?;
    stream
        .set_read_timeout(Some(REQUEST_TIMEOUT))
        .map_err(|e| e.to_string())?;
    stream
        .set_write_timeout(Some(REQUEST_TIMEOUT))
        .map_err(|e| e.to_string())?;
    let mut w = &stream;
    w.write_all(line.as_bytes())
        .and_then(|()| w.write_all(b"\n"))
        .map_err(|e| format!("write: {e}"))?;
    let mut reply = String::new();
    BufReader::new(&stream)
        .read_line(&mut reply)
        .map_err(|e| format!("read: {e}"))?;
    if reply.is_empty() {
        return Err("connection closed without a reply".to_string());
    }
    Ok(reply)
}

/// A durable gate job request, as a CI runner would submit it.
pub fn gate_line(job_id: &str, system: &Path, rules: &Path) -> String {
    format!(
        "{{\"v\":1,\"op\":\"gate\",\"job_id\":\"{}\",\"system\":\"{}\",\"rules\":\"{}\"}}",
        lisa::json::escape(job_id),
        lisa::json::escape(&system.to_string_lossy()),
        lisa::json::escape(&rules.to_string_lossy()),
    )
}

/// What a gate reply said, once it parsed as a settled job.
pub struct Verdict {
    pub decision: String,
    pub reused: u64,
    pub fresh: u64,
}

/// Parse a gate reply; anything but `status:"done"` is an error that
/// names the status (`shed`, `dead-letter`, ...) or the parse failure.
pub fn parse_verdict(reply: &str) -> Result<Verdict, String> {
    let json = Json::parse(reply.trim()).map_err(|e| format!("malformed reply: {e}"))?;
    match json.str_of("status") {
        Some("done") => {}
        Some(other) => return Err(format!("status {other}: {}", reply.trim())),
        None => return Err(format!("malformed reply: {}", reply.trim())),
    }
    let field = |key| {
        json.u64_of(key)
            .ok_or_else(|| format!("reply lacks `{key}`"))
    };
    Ok(Verdict {
        decision: json
            .str_of("decision")
            .ok_or("reply lacks `decision`")?
            .to_string(),
        reused: field("reused")?,
        fresh: field("fresh")?,
    })
}

/// A daemon thread serving on loopback TCP, with its unix socket and
/// per-job state under the run's temporary directory.
pub struct Daemon {
    pub addr: SocketAddr,
    handle: Option<JoinHandle<Result<lisa::ServeStats, String>>>,
}

impl Daemon {
    pub fn start(dir: &Path, workers: usize) -> Result<Daemon, String> {
        // Let the kernel pick a free port, then hand it to the daemon.
        let addr = TcpListener::bind("127.0.0.1:0")
            .and_then(|l| l.local_addr())
            .map_err(|e| format!("pick a port: {e}"))?;
        let config = ServeConfig {
            socket: dir.join("lisa.sock"),
            state_root: dir.join("state"),
            workers,
            listen: Some(addr.to_string()),
            ..ServeConfig::default()
        };
        let handle = std::thread::Builder::new()
            .name("lisa-serve".to_string())
            .spawn(move || serve(&config))
            .map_err(|e| format!("spawn daemon: {e}"))?;
        let mut daemon = Daemon {
            addr,
            handle: Some(handle),
        };
        let ready_by = Instant::now() + Duration::from_secs(10);
        loop {
            match roundtrip(&daemon.addr, "{\"op\":\"ping\"}") {
                Ok(reply) if reply.contains("\"ok\"") => return Ok(daemon),
                _ if daemon.handle.as_ref().is_some_and(|h| h.is_finished()) => {
                    return Err(format!("daemon exited at start-up: {:?}", daemon.join()))
                }
                _ if Instant::now() > ready_by => {
                    return Err("daemon did not answer a ping within 10s".to_string())
                }
                _ => std::thread::sleep(Duration::from_millis(5)),
            }
        }
    }

    /// Drain the daemon and wait for its thread.
    pub fn stop(mut self) -> Result<(), String> {
        roundtrip(&self.addr, "{\"op\":\"shutdown\"}")?;
        self.join()
    }

    fn join(&mut self) -> Result<(), String> {
        match self.handle.take() {
            Some(h) => h
                .join()
                .map_err(|_| "daemon thread panicked".to_string())?
                .map(drop),
            None => Err("daemon already stopped".to_string()),
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if self.handle.is_some() {
            let _ = roundtrip(&self.addr, "{\"op\":\"shutdown\"}");
            let _ = self.join();
        }
    }
}
