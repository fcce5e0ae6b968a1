//! A hand-rolled nonblocking readiness loop over `poll(2)`: the one
//! connection path every `lisa serve` listener shares.
//!
//! The daemon's unix socket, `--listen`, `--repl-listen` and a follower's
//! socket each get a [`NetGate`]. Every pending client connection is
//! multiplexed onto the supervisor thread: nonblocking sockets are
//! registered in a [`PollSet`], one `poll` call per supervision tick
//! reports which are readable, and each gate advances its readable
//! connections' line buffers. Thousands of idle clients therefore cost a
//! few bytes of buffer each and **zero threads** — worker threads are
//! reserved for gate jobs, never for waiting on sockets — and no client,
//! however silent, slow or long-winded, can hold the supervisor: this is
//! the only place the daemon reads request bytes. [`Addr`] and [`Stream`]
//! make the two transports one type, so the reply path never cares which
//! one a request came in on.
//!
//! The build is std-only, so the two syscalls this needs (`poll`,
//! `get/setrlimit`) are declared directly against the platform libc the
//! binary already links — no new dependency. This module is the one
//! place the crate's `deny(unsafe_code)` is allowed back: each unsafe
//! block is a plain FFI call on locally owned, correctly-typed memory,
//! with the argument invariants stated at the call site.
#![allow(unsafe_code)]

use std::fmt;
use std::io::{self, ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::os::fd::{AsRawFd, RawFd};
use std::os::raw::{c_int, c_ulong};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// `struct pollfd` from `<poll.h>`.
#[repr(C)]
#[derive(Clone, Copy)]
struct PollFd {
    fd: c_int,
    events: i16,
    revents: i16,
}

const POLLIN: i16 = 0x001;
const POLLERR: i16 = 0x008;
const POLLHUP: i16 = 0x010;
const POLLNVAL: i16 = 0x020;

extern "C" {
    fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
    fn getrlimit(resource: c_int, rlim: *mut RLimit) -> c_int;
    fn setrlimit(resource: c_int, rlim: *const RLimit) -> c_int;
}

#[repr(C)]
struct RLimit {
    cur: u64,
    max: u64,
}

const RLIMIT_NOFILE: c_int = 7;

/// Raise the soft open-file limit toward `want` (bounded by the hard
/// limit) and return the effective soft limit. A daemon holding
/// thousands of client sockets must not die on the default 1024.
pub fn raise_fd_limit(want: u64) -> u64 {
    let mut lim = RLimit { cur: 0, max: 0 };
    // SAFETY: plain out-parameter syscall wrappers on a valid struct.
    if unsafe { getrlimit(RLIMIT_NOFILE, &mut lim) } != 0 {
        return 1024;
    }
    if lim.cur >= want {
        return lim.cur;
    }
    let target = want.min(lim.max);
    let new = RLimit { cur: target, max: lim.max };
    // SAFETY: raising the soft limit within the hard limit.
    if unsafe { setrlimit(RLIMIT_NOFILE, &new) } == 0 {
        target
    } else {
        lim.cur
    }
}

/// One `poll(2)` call's worth of registered descriptors. Rebuilt every
/// supervision tick — registration is an append into a reused Vec, far
/// cheaper than the syscall itself.
pub struct PollSet {
    fds: Vec<PollFd>,
}

impl Default for PollSet {
    fn default() -> Self {
        PollSet::new()
    }
}

impl PollSet {
    pub fn new() -> PollSet {
        PollSet { fds: Vec::new() }
    }

    pub fn clear(&mut self) {
        self.fds.clear();
    }

    /// Register a descriptor for readability; returns its slot index.
    pub fn push(&mut self, fd: RawFd) -> usize {
        self.fds.push(PollFd { fd, events: POLLIN, revents: 0 });
        self.fds.len() - 1
    }

    /// Block until something is readable or `timeout` passes. Returns
    /// the number of ready descriptors (0 on timeout or EINTR — both
    /// simply mean "run the supervision tick and poll again").
    pub fn wait(&mut self, timeout: Duration) -> usize {
        if self.fds.is_empty() {
            std::thread::sleep(timeout);
            return 0;
        }
        let ms = timeout.as_millis().min(i32::MAX as u128) as c_int;
        // SAFETY: fds points at a live, correctly sized pollfd array.
        let n = unsafe { poll(self.fds.as_mut_ptr(), self.fds.len() as c_ulong, ms) };
        if n < 0 {
            0
        } else {
            n as usize
        }
    }

    /// Whether slot `idx` is readable (or in an error/hangup state the
    /// caller should discover by reading — a read returns 0 or an error
    /// and the connection is torn down).
    pub fn ready(&self, idx: usize) -> bool {
        self.fds
            .get(idx)
            .is_some_and(|p| p.revents & (POLLIN | POLLERR | POLLHUP | POLLNVAL) != 0)
    }
}

/// Where a daemon listens or a client connects.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Addr {
    Unix(PathBuf),
    Tcp(String),
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Addr::Unix(path) => write!(f, "unix:{}", path.display()),
            Addr::Tcp(hostport) => write!(f, "tcp:{hostport}"),
        }
    }
}

impl Addr {
    /// Open a blocking client connection.
    pub fn connect(&self) -> io::Result<Stream> {
        Ok(match self {
            Addr::Unix(path) => Stream::Unix(UnixStream::connect(path)?),
            Addr::Tcp(hostport) => Stream::Tcp(TcpStream::connect(hostport.as_str())?),
        })
    }
}

/// A connected socket on either transport. Both carry the same NDJSON
/// request line (and, after a `follow`, the same replication frames), so
/// every reply byte is transport-independent.
pub enum Stream {
    Unix(UnixStream),
    Tcp(TcpStream),
}

enum Listener {
    Unix(UnixListener),
    Tcp(TcpListener),
}

/// Evaluate `$body` on whichever socket a [`Stream`] or [`Listener`] holds.
macro_rules! either {
    ($ty:ident, $value:expr, $s:ident => $body:expr) => {
        match $value {
            $ty::Unix($s) => $body,
            $ty::Tcp($s) => $body,
        }
    };
}

impl Stream {
    pub(crate) fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        either!(Stream, self, s => s.set_read_timeout(timeout))
    }

    pub(crate) fn shutdown(&self) -> io::Result<()> {
        either!(Stream, self, s => s.shutdown(Shutdown::Both))
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        either!(Stream, self, s => s.read(buf))
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        either!(Stream, self, s => s.write(buf))
    }

    fn flush(&mut self) -> io::Result<()> {
        either!(Stream, self, s => s.flush())
    }
}

impl AsRawFd for Stream {
    fn as_raw_fd(&self) -> RawFd {
        either!(Stream, self, s => s.as_raw_fd())
    }
}

impl Listener {
    fn accept(&self) -> io::Result<Stream> {
        Ok(match self {
            Listener::Unix(l) => Stream::Unix(l.accept()?.0),
            Listener::Tcp(l) => Stream::Tcp(l.accept()?.0),
        })
    }
}

/// Upper bound on one NDJSON request line. Past it the connection gets a
/// structured bad-request and is closed — a client spraying bytes
/// without a newline must not grow daemon memory.
pub const MAX_REQUEST_LINE: usize = 64 * 1024;

/// A connection that connects but never completes a request line is
/// dropped after this long; its fd slot is reclaimed.
pub const CONN_IDLE_TIMEOUT: Duration = Duration::from_secs(120);

/// One multiplexed client connection: the nonblocking stream and the
/// bytes received so far (a partial request line).
struct Conn {
    stream: Stream,
    buf: Vec<u8>,
    opened: Instant,
}

/// What one pump produced for the dispatcher. Every stream handed back
/// is blocking again, with bounded reads and writes, so a dead client
/// cannot wedge whoever replies.
#[derive(Default)]
pub struct Pumped {
    /// Complete request lines.
    pub requests: Vec<(Stream, String)>,
    /// Accepted past `max_conns`: the caller replies with a structured
    /// shed and closes.
    pub over_capacity: Vec<Stream>,
    /// Exceeded [`MAX_REQUEST_LINE`]: the caller replies bad-request and
    /// closes.
    pub over_length: Vec<Stream>,
    /// Connections dropped without producing a request (EOF, transport
    /// error, idle expiry).
    pub dropped: usize,
}

/// One listener plus its multiplexed connections.
pub struct NetGate {
    listener: Listener,
    conns: Vec<Conn>,
    max_conns: usize,
    /// Base index of this gate's fds within the current [`PollSet`]
    /// (listener first, then conns in order). Set by [`NetGate::register`].
    base: usize,
    /// How many conns were registered this tick; accepts that land
    /// mid-pump wait for the next tick's poll.
    registered: usize,
}

impl NetGate {
    /// Bind a nonblocking listener on `addr` (a unix path must not exist).
    pub fn bind(addr: &Addr, max_conns: usize) -> Result<NetGate, String> {
        let listener = match addr {
            Addr::Unix(path) => UnixListener::bind(path).map(Listener::Unix),
            Addr::Tcp(hostport) => TcpListener::bind(hostport.as_str()).map(Listener::Tcp),
        }
        .map_err(|e| format!("bind {addr}: {e}"))?;
        either!(Listener, &listener, l => l.set_nonblocking(true))
            .map_err(|e| format!("nonblocking {addr}: {e}"))?;
        Ok(NetGate {
            listener,
            conns: Vec::new(),
            max_conns: max_conns.max(1),
            base: 0,
            registered: 0,
        })
    }

    /// The TCP address actually bound (resolves `:0` ephemeral ports).
    pub fn local_addr(&self) -> Option<SocketAddr> {
        match &self.listener {
            Listener::Tcp(l) => l.local_addr().ok(),
            Listener::Unix(_) => None,
        }
    }

    pub fn open_conns(&self) -> usize {
        self.conns.len()
    }

    /// Register the listener and every connection in `set`.
    pub fn register(&mut self, set: &mut PollSet) {
        self.base = set.push(either!(Listener, &self.listener, l => l.as_raw_fd()));
        for conn in &self.conns {
            set.push(conn.stream.as_raw_fd());
        }
        self.registered = self.conns.len();
    }

    /// Accept new connections and advance every readable one. `set`
    /// must be the [`PollSet`] this gate registered into for this tick.
    pub fn pump(&mut self, set: &PollSet) -> Pumped {
        let mut out = Pumped::default();
        if set.ready(self.base) {
            loop {
                match self.listener.accept() {
                    Ok(stream) => {
                        if self.conns.len() >= self.max_conns {
                            out.over_capacity.push(hand_back(stream));
                            continue;
                        }
                        if either!(Stream, &stream, s => s.set_nonblocking(true)).is_err() {
                            out.dropped += 1;
                            continue;
                        }
                        self.conns.push(Conn {
                            stream,
                            buf: Vec::new(),
                            opened: Instant::now(),
                        });
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    // EMFILE/ENFILE etc.: shed by not accepting this
                    // tick; existing connections keep working.
                    Err(_) => break,
                }
            }
        }
        // Walk conns in reverse so swap_remove never disturbs an index
        // still to be visited (fds registered this tick cover only the
        // prefix that existed at registration; fresh accepts above are
        // past `registered` and get their first read next tick).
        let registered = self.registered;
        for i in (0..self.conns.len()).rev() {
            let expired = self.conns[i].opened.elapsed() > CONN_IDLE_TIMEOUT;
            let readable = i < registered && set.ready(self.base + 1 + i);
            if expired && !readable {
                self.conns.swap_remove(i);
                out.dropped += 1;
                continue;
            }
            if !readable {
                continue;
            }
            match advance(&mut self.conns[i]) {
                ConnStep::Keep => {}
                ConnStep::Drop => {
                    self.conns.swap_remove(i);
                    out.dropped += 1;
                }
                ConnStep::OverLength => {
                    let conn = self.conns.swap_remove(i);
                    out.over_length.push(hand_back(conn.stream));
                }
                ConnStep::Request(line) => {
                    let conn = self.conns.swap_remove(i);
                    out.requests.push((hand_back(conn.stream), line));
                }
            }
        }
        out
    }
}

/// Back to blocking for the reply path, with bounded reads and writes.
fn hand_back(stream: Stream) -> Stream {
    either!(Stream, &stream, s => {
        let _ = s.set_nonblocking(false);
        let _ = s.set_read_timeout(Some(Duration::from_secs(2)));
        let _ = s.set_write_timeout(Some(Duration::from_secs(5)));
    });
    stream
}

enum ConnStep {
    Keep,
    Drop,
    OverLength,
    Request(String),
}

/// Read whatever the socket has. A complete line (everything up to the
/// first newline; the protocol is one request per connection) finishes
/// the connection's readiness phase.
fn advance(conn: &mut Conn) -> ConnStep {
    let mut chunk = [0u8; 4096];
    loop {
        match conn.stream.read(&mut chunk) {
            Ok(0) => return ConnStep::Drop,
            Ok(n) => {
                conn.buf.extend_from_slice(&chunk[..n]);
                if let Some(pos) = conn.buf.iter().position(|&b| b == b'\n') {
                    let line = String::from_utf8_lossy(&conn.buf[..pos]).into_owned();
                    return ConnStep::Request(line);
                }
                if conn.buf.len() > MAX_REQUEST_LINE {
                    return ConnStep::OverLength;
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => return ConnStep::Keep,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return ConnStep::Drop,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tcp_any() -> Addr {
        Addr::Tcp("127.0.0.1:0".to_string())
    }

    #[test]
    fn poll_reports_readiness_and_timeouts() {
        let mut gate = NetGate::bind(&tcp_any(), 8).expect("bind");
        let addr = gate.local_addr().expect("addr");
        let mut set = PollSet::new();
        gate.register(&mut set);
        assert_eq!(set.wait(Duration::from_millis(10)), 0, "nothing connected yet");

        let mut client = TcpStream::connect(addr).expect("connect");
        set.clear();
        gate.register(&mut set);
        assert!(set.wait(Duration::from_millis(500)) > 0, "pending accept is readable");
        let pumped = gate.pump(&set);
        assert!(pumped.requests.is_empty());
        assert_eq!(gate.open_conns(), 1, "idle connection parked, no thread");

        client.write_all(b"{\"op\":\"ping\"}\n").expect("write");
        set.clear();
        gate.register(&mut set);
        assert!(set.wait(Duration::from_millis(500)) > 0);
        let pumped = gate.pump(&set);
        assert_eq!(pumped.requests.len(), 1);
        assert_eq!(pumped.requests[0].1, "{\"op\":\"ping\"}");
        assert_eq!(gate.open_conns(), 0, "request hands the stream to the dispatcher");
    }

    #[test]
    fn request_lines_are_bounded() {
        let mut gate = NetGate::bind(&tcp_any(), 8).expect("bind");
        let addr = gate.local_addr().expect("addr");
        let mut client = TcpStream::connect(addr).expect("connect");
        let blob = vec![b'x'; MAX_REQUEST_LINE + 4096];
        client.write_all(&blob).expect("write");
        client.flush().expect("flush");
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let mut set = PollSet::new();
            gate.register(&mut set);
            set.wait(Duration::from_millis(50));
            let pumped = gate.pump(&set);
            if !pumped.over_length.is_empty() {
                break;
            }
            assert!(Instant::now() < deadline, "overlong line never detected");
        }
    }

    #[test]
    fn connections_beyond_the_cap_are_handed_back() {
        let mut gate = NetGate::bind(&tcp_any(), 1).expect("bind");
        let addr = gate.local_addr().expect("addr");
        let _c1 = TcpStream::connect(addr).expect("first");
        let _c2 = TcpStream::connect(addr).expect("second");
        let deadline = Instant::now() + Duration::from_secs(5);
        let mut over = 0;
        while over == 0 {
            let mut set = PollSet::new();
            gate.register(&mut set);
            set.wait(Duration::from_millis(50));
            over += gate.pump(&set).over_capacity.len();
            assert!(Instant::now() < deadline, "cap overflow never surfaced");
        }
        assert_eq!(gate.open_conns(), 1);
    }

    #[test]
    fn unix_listener_parks_idle_clients_and_reads_requests() {
        let path = std::env::temp_dir().join(format!("lisa-netloop-{}.sock", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let addr = Addr::Unix(path.clone());
        let mut gate = NetGate::bind(&addr, 8).expect("bind");
        let _idle = addr.connect().expect("idle client");
        let mut client = addr.connect().expect("client");
        client.write_all(b"{\"op\":\"ping\"}\n").expect("write");
        let deadline = Instant::now() + Duration::from_secs(5);
        let mut lines = Vec::new();
        while lines.is_empty() {
            let mut set = PollSet::new();
            gate.register(&mut set);
            set.wait(Duration::from_millis(50));
            lines.extend(gate.pump(&set).requests.into_iter().map(|(_, line)| line));
            assert!(Instant::now() < deadline, "unix request never surfaced");
        }
        assert_eq!(lines, ["{\"op\":\"ping\"}"]);
        assert_eq!(gate.open_conns(), 1, "the silent client stays parked");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn fd_limit_can_be_raised() {
        let effective = raise_fd_limit(4096);
        assert!(effective >= 1024);
    }
}
