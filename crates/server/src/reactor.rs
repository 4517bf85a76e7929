//! The non-blocking connection plane: a readiness loop (reactor)
//! driving per-connection state machines instead of one thread per
//! socket.
//!
//! ## Shape
//!
//! One reactor thread owns the listener, every connection socket, and a
//! self-pipe waker, and waits on them with `poll(2)` (bound via a direct
//! `extern "C"` declaration, matching the repo's vendor-offline style).
//! `poll` keeps no kernel-side registration, so before every wait the
//! loop rebuilds the interest set from the state it already holds — the
//! waker, the listener while it is open, and each connection's
//! `(want_read, want_write)` — and a connection wanting neither is left
//! out. Each connection is a small state machine: bytes read into a
//! [`LineScanner`] → a complete request line handed to a small
//! executor pool → the rendered response appended to a
//! write buffer flushed with partial-write continuation. The reactor
//! itself never parses JSON and never runs a verb, so a CPU-heavy
//! `anonymize` can never stall `accept` or another connection's I/O.
//!
//! One dispatch is in flight per connection at a time — responses keep
//! the strict request order the JSON-lines protocol promises — and
//! read interest is dropped while a dispatch is pending, so a
//! pipelining client back-pressures into TCP instead of growing the
//! input buffer without bound.
//!
//! ## What the blocking design could not express
//!
//! * **Read deadlines** — a connection that has *started* a request
//!   line must finish it within the configured window. The deadline is
//!   armed when the first partial byte is buffered and is *not*
//!   extended by further partial bytes, so a slowloris drip cannot
//!   hold the slot; it is cleared the moment a line completes. Idle
//!   connections (empty buffer between requests) are never timed out.
//!   Expiry answers a v1-shaped `bad-request` and closes.
//! * **Load shedding** — past `max_connections` live connections, an
//!   accept is answered with a one-line `overloaded` error and closed
//!   instead of silently stalling in the TCP backlog ( `shutting-down`
//!   when the accept races shutdown).
//! * **Drain window** — on shutdown the listener closes immediately,
//!   partial request lines are discarded, but requests already
//!   received keep executing and their responses are flushed, up to
//!   `drain_window`; only then are stragglers cut.
//!
//! The reactor is observable: shed and deadline-close counters plus a
//! per-iteration latency histogram (the handling portion of each loop
//! turn, not the poll wait) live in [`Metrics`].

use crate::api::{self, ApiError};
use crate::json::Json;
use crate::obs::{log_enabled, log_event, LogLevel, Metrics};
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::{AsRawFd, RawFd};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------
// Raw OS bindings (no libc crate — the workspace vendors everything)
// ---------------------------------------------------------------------

/// The POSIX pieces the reactor needs: `poll(2)`, a self-pipe, and
/// non-blocking mode for raw fds.
mod sys {
    use std::os::raw::{c_int, c_ulong, c_void};

    #[repr(C)]
    #[derive(Clone, Copy)]
    pub struct PollFd {
        pub fd: c_int,
        pub events: i16,
        pub revents: i16,
    }

    pub const POLLIN: i16 = 0x1;
    pub const POLLOUT: i16 = 0x4;
    pub const POLLERR: i16 = 0x8;
    pub const POLLHUP: i16 = 0x10;

    #[cfg(target_os = "linux")]
    pub const O_NONBLOCK: c_int = 0o4000;
    #[cfg(not(target_os = "linux"))]
    pub const O_NONBLOCK: c_int = 0x4;
    pub const F_GETFL: c_int = 3;
    pub const F_SETFL: c_int = 4;

    extern "C" {
        pub fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
        pub fn pipe(fds: *mut c_int) -> c_int;
        // Declared with a fixed third argument (the variadic C
        // prototype passes it in the same register for the commands
        // used here).
        pub fn fcntl(fd: c_int, cmd: c_int, arg: c_int) -> c_int;
        pub fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
        pub fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
        pub fn close(fd: c_int) -> c_int;
    }
}

/// Puts a raw fd (not owned by a std type) into non-blocking mode.
fn set_nonblocking_fd(fd: RawFd) -> io::Result<()> {
    // SAFETY: callers pass an fd they own and that is open for the
    // duration of the call; F_GETFL reads flag bits and touches no
    // user memory.
    let flags = unsafe { sys::fcntl(fd, sys::F_GETFL, 0) };
    if flags < 0 {
        return Err(io::Error::last_os_error());
    }
    // SAFETY: same fd as above, still open; F_SETFL writes flag bits
    // kernel-side only.
    if unsafe { sys::fcntl(fd, sys::F_SETFL, flags | sys::O_NONBLOCK) } < 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Interest: the poll(2) set, rebuilt from connection state every turn
// ---------------------------------------------------------------------

/// One readiness event: which fd (by token) fired and how.
#[derive(Clone, Copy)]
struct Event {
    token: u64,
    readable: bool,
    writable: bool,
    /// Error or hangup — the peer is gone or going; `poll` reports it
    /// for every fd in the set regardless of the requested interest.
    hangup: bool,
}

/// `poll` timeout argument: `-1` blocks indefinitely; finite waits
/// round up so a 100 µs deadline cannot spin at 0 ms.
fn timeout_ms(timeout: Option<Duration>) -> i32 {
    match timeout {
        None => -1,
        Some(d) => d.as_micros().div_ceil(1000).min(i32::MAX as u128) as i32,
    }
}

/// The `poll(2)` set for one loop turn. `poll` keeps no kernel-side
/// registration, so the reactor pushes every fd it wants watched before
/// each wait and the wait clears the set; both buffers are reused
/// across turns. Level-triggered.
#[derive(Default)]
struct Interest {
    fds: Vec<sys::PollFd>,
    tokens: Vec<u64>,
}

impl Interest {
    fn push(&mut self, fd: RawFd, token: u64, (read, write): (bool, bool)) {
        let events = (if read { sys::POLLIN } else { 0 }) | (if write { sys::POLLOUT } else { 0 });
        self.fds.push(sys::PollFd { fd, events, revents: 0 });
        self.tokens.push(token);
    }

    /// Blocks until a pushed fd is ready or `timeout` elapses (`None`
    /// blocks indefinitely), filling `out`, then clears the set.
    fn wait(&mut self, timeout: Option<Duration>, out: &mut Vec<Event>) -> io::Result<()> {
        out.clear();
        let ms = timeout_ms(timeout);
        let result = loop {
            // SAFETY: `fds` is an initialized Vec of repr(C) PollFd and
            // nfds is its exact length; the kernel only rewrites the
            // `revents` field of each entry, and the Vec outlives the
            // call.
            let n = unsafe {
                sys::poll(self.fds.as_mut_ptr(), self.fds.len() as std::os::raw::c_ulong, ms)
            };
            if n >= 0 {
                break Ok(());
            }
            let e = io::Error::last_os_error();
            if e.kind() != io::ErrorKind::Interrupted {
                break Err(e);
            }
        };
        if result.is_ok() {
            let fired = self.fds.iter().zip(&self.tokens).filter(|(pfd, _)| pfd.revents != 0);
            out.extend(fired.map(|(pfd, &token)| Event {
                token,
                readable: pfd.revents & sys::POLLIN != 0,
                writable: pfd.revents & sys::POLLOUT != 0,
                hangup: pfd.revents & (sys::POLLERR | sys::POLLHUP) != 0,
            }));
        }
        self.fds.clear();
        self.tokens.clear();
        result
    }
}

// ---------------------------------------------------------------------
// Waker: a self-pipe that interrupts a blocked wait from any thread
// ---------------------------------------------------------------------

struct WakerFd {
    fd: RawFd,
}

impl Drop for WakerFd {
    fn drop(&mut self) {
        // SAFETY: WakerFd is the sole owner of the pipe's write end
        // (Wakers share it behind one Arc, so this Drop runs after the
        // last clone is gone); valid fd, closed exactly once.
        unsafe { sys::close(self.fd) };
    }
}

/// Wakes the reactor out of a blocked `poll` wait — used by
/// executor workers when a completion is ready and by
/// [`crate::service::Server::shutdown`]. Cloneable and safe from any
/// thread; a full pipe means a wake is already pending, so the write
/// result is ignored.
#[derive(Clone)]
pub struct Waker {
    inner: Arc<WakerFd>,
}

impl Waker {
    pub fn wake(&self) {
        let byte = 1u8;
        // SAFETY: the Arc<WakerFd> keeps the write end open for as
        // long as any Waker exists, so the fd is valid; the buffer is
        // one initialized stack byte and count matches its size. A
        // short/failed write (full pipe) is deliberately ignored.
        unsafe { sys::write(self.inner.fd, (&byte as *const u8).cast(), 1) };
    }
}

/// The read half of the self-pipe, owned (and drained) by the reactor.
struct PipeReader {
    fd: RawFd,
}

impl PipeReader {
    fn drain(&self) {
        let mut buf = [0u8; 64];
        loop {
            // SAFETY: self.fd is the pipe read end this PipeReader
            // owns (open until its Drop); `buf` is an initialized
            // stack array and count equals its length, so the kernel
            // writes at most buf.len() bytes into live memory.
            let n = unsafe { sys::read(self.fd, buf.as_mut_ptr().cast(), buf.len()) };
            if n <= 0 {
                break;
            }
        }
    }
}

impl Drop for PipeReader {
    fn drop(&mut self) {
        // SAFETY: PipeReader is the sole owner of the pipe's read end;
        // valid fd, closed exactly once.
        unsafe { sys::close(self.fd) };
    }
}

/// A non-blocking self-pipe: `(read_end, write_end)`.
fn new_waker() -> io::Result<(PipeReader, Waker)> {
    let mut fds = [0i32; 2];
    // SAFETY: pipe writes exactly two c_ints into `fds`, which is an
    // initialized stack array of exactly that size.
    if unsafe { sys::pipe(fds.as_mut_ptr()) } != 0 {
        return Err(io::Error::last_os_error());
    }
    let [read_fd, write_fd] = fds;
    let reader = PipeReader { fd: read_fd };
    let waker = Waker { inner: Arc::new(WakerFd { fd: write_fd }) };
    set_nonblocking_fd(read_fd)?;
    set_nonblocking_fd(write_fd)?;
    Ok((reader, waker))
}

// ---------------------------------------------------------------------
// Line framing
// ---------------------------------------------------------------------

/// The oversized-line marker `framing_error` classifies on — the kind,
/// not the message text, decides the wire code.
fn oversized() -> io::Error {
    io::Error::new(io::ErrorKind::FileTooLarge, "request line exceeds the size limit")
}

/// Incremental `\n`-framed line scanner with an exact content bound:
/// a line of exactly `max` bytes (terminator not counted) passes, one
/// more fails — checked as bytes arrive, so an oversized line is
/// rejected before it is fully buffered. The non-blocking successor of
/// the old `read_line_bounded`, with identical bound and error
/// semantics.
///
/// Lines are consumed by offset, and the consumed prefix is dropped at
/// most once per [`Self::push`], once it is at least half the buffer —
/// so pipelined lines cost time linear in their bytes, not a shift of
/// everything behind each one.
#[derive(Default)]
pub struct LineScanner {
    buf: Vec<u8>,
    /// Start of the first unconsumed byte of `buf`.
    start: usize,
    /// End of the bytes of `buf` already searched for a terminator —
    /// makes repeated scans over a slowly arriving large line linear
    /// overall. Never below `start`.
    searched: usize,
}

impl LineScanner {
    pub fn push(&mut self, bytes: &[u8]) {
        if self.start > 0 && self.start * 2 >= self.buf.len() {
            self.buf.drain(..self.start);
            self.searched -= self.start;
            self.start = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Extracts the next complete line (terminator stripped), `None`
    /// when more bytes are needed, or a framing error: an oversized
    /// line ([`io::ErrorKind::FileTooLarge`]) or one that is not UTF-8
    /// ([`io::ErrorKind::InvalidData`]). Framing errors poison the
    /// stream — the caller must close the connection.
    pub fn next_line(&mut self, max: usize) -> io::Result<Option<String>> {
        // PANIC: `start <= searched <= buf.len()`: both only move to
        // positions already inside `buf`, and `push` shifts them
        // together with the bytes it drops.
        match self.buf[self.searched..].iter().position(|&b| b == b'\n') {
            Some(off) => {
                let end = self.searched + off;
                if end - self.start > max {
                    return Err(oversized());
                }
                // PANIC: `start <= end < buf.len()` (see above).
                let line = self.buf[self.start..end].to_vec();
                self.start = end + 1;
                self.searched = self.start;
                match String::from_utf8(line) {
                    Ok(s) => Ok(Some(s)),
                    Err(_) => {
                        Err(io::Error::new(io::ErrorKind::InvalidData, "request is not UTF-8"))
                    }
                }
            }
            None => {
                self.searched = self.buf.len();
                if self.buf.len() - self.start > max {
                    return Err(oversized());
                }
                Ok(None)
            }
        }
    }

    /// Whether an incomplete line is buffered. Only meaningful right
    /// after [`Self::next_line`] returned `Ok(None)` (the scanner has
    /// then searched everything and found no terminator).
    pub fn awaiting_line(&self) -> bool {
        self.start < self.buf.len() && self.searched == self.buf.len()
    }

    /// Drops any trailing partial line, keeping buffered complete
    /// lines — shutdown drains answers for requests fully received,
    /// never half-received ones.
    pub fn discard_partial(&mut self) {
        // PANIC: `start <= buf.len()` (see `next_line`).
        match self.buf[self.start..].iter().rposition(|&b| b == b'\n') {
            Some(i) => self.buf.truncate(self.start + i + 1),
            None => self.buf.truncate(self.start),
        }
        self.searched = self.searched.min(self.buf.len());
    }
}

/// Classifies a framing-layer failure by its [`io::ErrorKind`] — never
/// by message text. An oversized line is the client's fault and
/// carries the payload cap's code; undecodable bytes are a bad
/// request; anything else is the transport itself failing.
pub fn framing_error(e: &io::Error) -> ApiError {
    match e.kind() {
        io::ErrorKind::FileTooLarge => ApiError::payload_too_large(e.to_string()),
        io::ErrorKind::InvalidData => ApiError::bad_request(e.to_string()),
        _ => ApiError::io(e.to_string()),
    }
}

// ---------------------------------------------------------------------
// Executor: the small pool that runs dispatches off the reactor thread
// ---------------------------------------------------------------------

/// The service's request handler: `(connection id, request line,
/// receive instant) → rendered response line` (newline included). Runs
/// on executor threads; everything it needs travels in the closure.
pub type Dispatch = Arc<dyn Fn(u64, String, Instant) -> String + Send + Sync>;

struct Task {
    conn: u64,
    line: String,
    received: Instant,
}

struct Completion {
    conn: u64,
    output: String,
}

/// A fixed pool of dispatch threads fed from an unbounded channel (the
/// one-in-flight-per-connection rule bounds it at one task per live
/// connection). Workers pull through a shared `Mutex<Receiver>` — the
/// `core::pool` idiom of cheap scoped fan-out, adapted to a long-lived
/// pool.
struct Executor {
    tx: Option<mpsc::Sender<Task>>,
    workers: Vec<JoinHandle<()>>,
}

impl Executor {
    fn new(
        threads: usize,
        dispatch: Dispatch,
        done_tx: mpsc::Sender<Completion>,
        waker: Waker,
    ) -> Executor {
        let (tx, rx) = mpsc::channel::<Task>();
        let rx = Arc::new(Mutex::new(rx));
        let workers = (0..threads.max(1))
            .map(|_| {
                let rx = Arc::clone(&rx);
                let dispatch = Arc::clone(&dispatch);
                let done_tx = done_tx.clone();
                let waker = waker.clone();
                std::thread::spawn(move || loop {
                    // The receiver lock is held only while blocked in
                    // recv; dispatch runs outside it, so workers
                    // process tasks concurrently. A poisoned queue lock
                    // (a sibling worker panicked while blocked — recv
                    // itself cannot panic) retires this worker instead
                    // of panicking the pool down one thread at a time.
                    let recv = rx.lock().map(|g| g.recv());
                    let task = match recv {
                        Ok(Ok(t)) => t,
                        Ok(Err(_)) | Err(_) => break,
                    };
                    let output = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        dispatch(task.conn, task.line, task.received)
                    }))
                    .unwrap_or_else(|_| {
                        format!(
                            "{}\n",
                            api::render_v1(Err(ApiError::internal("request handler panicked")))
                        )
                    });
                    if done_tx.send(Completion { conn: task.conn, output }).is_err() {
                        break;
                    }
                    waker.wake();
                })
            })
            .collect();
        Executor { tx: Some(tx), workers }
    }

    fn submit(&self, conn: u64, line: String) {
        if let Some(tx) = &self.tx {
            let _ = tx.send(Task { conn, line, received: Instant::now() });
        }
    }

    /// Closes the queue and joins every worker (waiting out a dispatch
    /// still running).
    fn shutdown(&mut self) {
        self.tx = None;
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

// ---------------------------------------------------------------------
// The reactor itself
// ---------------------------------------------------------------------

const LISTENER_TOKEN: u64 = 0;
const WAKER_TOKEN: u64 = 1;
const FIRST_CONN_TOKEN: u64 = 2;

/// Reactor tuning, filled from [`crate::service::ServerConfig`].
pub struct ReactorConfig {
    /// Live-connection cap; accepts beyond it are shed.
    pub max_connections: usize,
    /// Partial-line completion deadline.
    pub read_timeout: Duration,
    /// Shutdown grace for in-flight requests.
    pub drain_window: Duration,
    /// Executor pool size.
    pub executor_threads: usize,
    /// Per-line content cap ([`crate::service::MAX_REQUEST_BYTES`];
    /// configurable so tests can hit it without 256 MiB lines).
    pub max_request_bytes: usize,
}

/// One connection's state machine.
struct Conn {
    stream: TcpStream,
    scanner: LineScanner,
    outbuf: Vec<u8>,
    written: usize,
    /// A dispatch for this connection is on the executor; reads and
    /// further line extraction pause until its completion.
    busy: bool,
    /// No more bytes will be read (peer EOF, a framing error, or the
    /// drain window); buffered work still completes.
    read_closed: bool,
    /// Close as soon as the write buffer flushes.
    close_after_flush: bool,
    /// Hard transport failure; close immediately.
    dead: bool,
    /// Armed while an incomplete line is buffered.
    deadline: Option<Instant>,
}

impl Conn {
    /// What the loop polls this socket for: `(read, write)`. A
    /// connection wanting neither (dispatch in flight, nothing
    /// buffered) is left out of the poll set entirely — `poll` reports
    /// hangups on every listed fd whatever the interest, and a
    /// half-dead peer must not spin the loop while its request runs.
    fn wants(&self) -> (bool, bool) {
        let read = !self.read_closed && !self.busy && !self.close_after_flush;
        (read, self.written < self.outbuf.len())
    }
}

pub struct Reactor {
    listener: Option<TcpListener>,
    wake_reader: PipeReader,
    conns: HashMap<u64, Conn>,
    next_token: u64,
    cfg: ReactorConfig,
    metrics: Arc<Metrics>,
    executor: Executor,
    done_rx: mpsc::Receiver<Completion>,
    stop: Arc<AtomicBool>,
    drain_deadline: Option<Instant>,
}

impl Reactor {
    /// Builds the reactor around a bound listener. Returns the
    /// [`Waker`] the owner uses to interrupt [`Reactor::run`] after
    /// raising `stop`.
    pub fn new(
        listener: TcpListener,
        cfg: ReactorConfig,
        metrics: Arc<Metrics>,
        dispatch: Dispatch,
        stop: Arc<AtomicBool>,
    ) -> io::Result<(Reactor, Waker)> {
        listener.set_nonblocking(true)?;
        let (wake_reader, waker) = new_waker()?;
        let (done_tx, done_rx) = mpsc::channel();
        let executor = Executor::new(cfg.executor_threads, dispatch, done_tx, waker.clone());
        let reactor = Reactor {
            listener: Some(listener),
            wake_reader,
            conns: HashMap::new(),
            next_token: FIRST_CONN_TOKEN,
            cfg,
            metrics,
            executor,
            done_rx,
            stop,
            drain_deadline: None,
        };
        Ok((reactor, waker))
    }

    /// The readiness loop. Returns once shutdown has drained (or cut)
    /// every connection and the executor has been joined.
    pub fn run(mut self) {
        let mut interest = Interest::default();
        let mut events: Vec<Event> = Vec::new();
        loop {
            let timeout = self.fill_interest(&mut interest);
            if interest.wait(timeout, &mut events).is_err() {
                break;
            }
            let iter_start = Instant::now();
            // Connection events first, the listener last: a slot freed
            // in this very batch is available to an accept in it.
            for ev in &events {
                match ev.token {
                    WAKER_TOKEN => self.wake_reader.drain(),
                    LISTENER_TOKEN => {}
                    token => self.conn_ready(token, *ev),
                }
            }
            if events.iter().any(|ev| ev.token == LISTENER_TOKEN) {
                self.accept_ready();
            }
            self.drain_completions();
            self.expire_deadlines();
            if self.stop.load(Ordering::SeqCst) && self.drain_deadline.is_none() {
                self.begin_drain();
            }
            if let Some(dd) = self.drain_deadline {
                if Instant::now() >= dd {
                    for token in self.conns.keys().copied().collect::<Vec<_>>() {
                        self.close_conn(token);
                    }
                }
                if self.conns.is_empty() {
                    break;
                }
            }
            self.metrics.reactor_iterations.observe(iter_start.elapsed());
        }
        self.executor.shutdown();
    }

    /// Fills the next wait's interest set from the state the reactor
    /// already holds — the waker, the listener while it is open, and
    /// every connection that [`Conn::wants`] something — and returns the
    /// wait's timeout: the nearest read deadline or the drain deadline;
    /// `None` (block indefinitely) when neither is armed, so an idle
    /// reactor takes zero wakeups.
    fn fill_interest(&self, interest: &mut Interest) -> Option<Duration> {
        interest.push(self.wake_reader.fd, WAKER_TOKEN, (true, false));
        if let Some(listener) = &self.listener {
            interest.push(listener.as_raw_fd(), LISTENER_TOKEN, (true, false));
        }
        let mut next: Option<Instant> = self.drain_deadline;
        for (&token, conn) in &self.conns {
            let wants = conn.wants();
            if wants != (false, false) {
                interest.push(conn.stream.as_raw_fd(), token, wants);
            }
            if let Some(d) = conn.deadline {
                next = Some(next.map_or(d, |n| n.min(d)));
            }
        }
        next.map(|d| d.saturating_duration_since(Instant::now()))
    }

    // -- accept path --------------------------------------------------

    fn accept_ready(&mut self) {
        loop {
            let Some(listener) = &self.listener else { return };
            match listener.accept() {
                Ok((stream, _)) => self.admit(stream),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
    }

    fn admit(&mut self, stream: TcpStream) {
        if self.stop.load(Ordering::SeqCst) {
            self.refuse(stream, ApiError::shutting_down("server is shutting down"));
            return;
        }
        if self.conns.len() >= self.cfg.max_connections {
            self.metrics.connections_shed.fetch_add(1, Ordering::Relaxed);
            if log_enabled(LogLevel::Warn) {
                log_event(
                    LogLevel::Warn,
                    "connection shed",
                    &[("active", Json::from(self.conns.len()))],
                );
            }
            self.refuse(
                stream,
                ApiError::overloaded("server is serving its maximum number of connections"),
            );
            return;
        }
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        let token = self.next_token;
        self.next_token += 1;
        self.metrics.connections_total.fetch_add(1, Ordering::Relaxed);
        self.metrics.connections_active.fetch_add(1, Ordering::Relaxed);
        if log_enabled(LogLevel::Debug) {
            log_event(LogLevel::Debug, "connection opened", &[("conn", Json::from(token))]);
        }
        self.conns.insert(
            token,
            Conn {
                stream,
                scanner: LineScanner::default(),
                outbuf: Vec::new(),
                written: 0,
                busy: false,
                read_closed: false,
                close_after_flush: false,
                dead: false,
                deadline: None,
            },
        );
    }

    /// Answers a connection that will not be served with one v1-shaped
    /// error line, then drops it. Best-effort: the socket is fresh, so
    /// the short line fits its send buffer without blocking.
    fn refuse(&self, mut stream: TcpStream, err: ApiError) {
        self.metrics.record_error(err.code);
        let out = format!("{}\n", api::render_v1(Err(err)));
        self.metrics.bytes_out.fetch_add(out.len() as u64, Ordering::Relaxed);
        let _ = stream.set_nonblocking(false);
        let _ = stream.write_all(out.as_bytes());
    }

    // -- per-connection I/O -------------------------------------------

    fn conn_ready(&mut self, token: u64, ev: Event) {
        if ev.readable || ev.hangup {
            self.read_ready(token);
            self.pump(token);
        }
        if ev.writable || ev.hangup {
            self.flush(token);
        }
        self.finish_io(token);
    }

    /// Reads everything currently available into the scanner.
    fn read_ready(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else { return };
        if conn.read_closed || conn.dead {
            return;
        }
        let mut chunk = [0u8; 16 * 1024];
        loop {
            match conn.stream.read(&mut chunk) {
                Ok(0) => {
                    conn.read_closed = true;
                    break;
                }
                // PANIC: `read` returns at most the buffer's length.
                Ok(n) => conn.scanner.push(&chunk[..n]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    conn.dead = true;
                    break;
                }
            }
        }
    }

    /// Extracts buffered lines until a dispatch goes in flight, more
    /// bytes are needed, or the framing poisons. Maintains the
    /// invariant that an idle (`!busy`) connection has no complete
    /// line buffered.
    fn pump(&mut self, token: u64) {
        loop {
            let Some(conn) = self.conns.get_mut(&token) else { return };
            if conn.busy || conn.close_after_flush || conn.dead {
                return;
            }
            match conn.scanner.next_line(self.cfg.max_request_bytes) {
                Ok(Some(line)) => {
                    // Every consumed line counts, blank ones included —
                    // the old handler skipped blanks before the
                    // increment and under-counted.
                    self.metrics.bytes_in.fetch_add(line.len() as u64 + 1, Ordering::Relaxed);
                    if line.trim().is_empty() {
                        continue;
                    }
                    conn.busy = true;
                    self.executor.submit(token, line);
                    return;
                }
                Ok(None) => return,
                Err(e) => {
                    // The framing is unrecoverable and the line never
                    // parsed, so no envelope is known — framing errors
                    // are always v1-shaped (documented in PROTOCOL.md).
                    let err = framing_error(&e);
                    self.metrics.record_error(err.code);
                    self.metrics.record_request("invalid", Duration::ZERO);
                    if log_enabled(LogLevel::Warn) {
                        log_event(
                            LogLevel::Warn,
                            "framing error",
                            &[("conn", Json::from(token)), ("code", Json::from(err.code.as_str()))],
                        );
                    }
                    let out = format!("{}\n", api::render_v1(Err(err)));
                    self.metrics.bytes_out.fetch_add(out.len() as u64, Ordering::Relaxed);
                    conn.outbuf.extend_from_slice(out.as_bytes());
                    conn.close_after_flush = true;
                    conn.read_closed = true;
                    return;
                }
            }
        }
    }

    /// Writes as much buffered output as the socket accepts,
    /// continuing a partial write where it left off.
    fn flush(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else { return };
        while conn.written < conn.outbuf.len() {
            // PANIC: the loop condition bounds `written` by the buffer
            // length, so the open range is valid.
            match conn.stream.write(&conn.outbuf[conn.written..]) {
                Ok(0) => {
                    conn.dead = true;
                    break;
                }
                Ok(n) => conn.written += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    conn.dead = true;
                    break;
                }
            }
        }
        if conn.written > 0 && conn.written == conn.outbuf.len() {
            conn.outbuf.clear();
            conn.written = 0;
        }
    }

    /// Applies a completed dispatch, then immediately pumps the next
    /// pipelined line and flushes.
    fn drain_completions(&mut self) {
        while let Ok(done) = self.done_rx.try_recv() {
            // The connection may have died while its dispatch ran; the
            // response is then dropped on the floor.
            if let Some(conn) = self.conns.get_mut(&done.conn) {
                conn.outbuf.extend_from_slice(done.output.as_bytes());
                conn.busy = false;
            }
            self.pump(done.conn);
            self.flush(done.conn);
            self.finish_io(done.conn);
        }
    }

    /// Closes connections whose partial request line outlived the read
    /// deadline, answering `bad-request` first.
    fn expire_deadlines(&mut self) {
        let now = Instant::now();
        let expired: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, c)| c.deadline.is_some_and(|d| d <= now))
            .map(|(t, _)| *t)
            .collect();
        for token in expired {
            {
                let Some(conn) = self.conns.get_mut(&token) else { continue };
                conn.deadline = None;
                conn.read_closed = true;
                conn.close_after_flush = true;
                let err = ApiError::bad_request("request read timed out before the line completed");
                self.metrics.deadline_closes.fetch_add(1, Ordering::Relaxed);
                self.metrics.record_error(err.code);
                if log_enabled(LogLevel::Warn) {
                    log_event(
                        LogLevel::Warn,
                        "read deadline exceeded",
                        &[("conn", Json::from(token))],
                    );
                }
                let out = format!("{}\n", api::render_v1(Err(err)));
                self.metrics.bytes_out.fetch_add(out.len() as u64, Ordering::Relaxed);
                conn.outbuf.extend_from_slice(out.as_bytes());
            }
            self.flush(token);
            self.finish_io(token);
        }
    }

    /// Enters the drain window: the listener closes, partial lines are
    /// discarded, already-received requests keep executing, idle
    /// connections close now.
    fn begin_drain(&mut self) {
        self.drain_deadline = Some(Instant::now() + self.cfg.drain_window);
        self.listener = None;
        if log_enabled(LogLevel::Info) {
            log_event(
                LogLevel::Info,
                "draining connections",
                &[("active", Json::from(self.conns.len()))],
            );
        }
        for token in self.conns.keys().copied().collect::<Vec<_>>() {
            // One final sweep of the kernel buffer so a request fully
            // sent before shutdown is answered even if the reactor had
            // not read it yet.
            self.read_ready(token);
            self.pump(token);
            if let Some(conn) = self.conns.get_mut(&token) {
                conn.read_closed = true;
                conn.scanner.discard_partial();
                conn.deadline = None;
            }
            self.flush(token);
            self.finish_io(token);
        }
    }

    /// Settles a connection after I/O: close it if it is finished (or
    /// dead), otherwise re-arm the deadline. The next wait polls it for
    /// whatever [`Conn::wants`] then says.
    fn finish_io(&mut self, token: u64) {
        let close = {
            let Some(conn) = self.conns.get_mut(&token) else { return };
            let flushed = conn.written >= conn.outbuf.len();
            let close = conn.dead
                || (conn.close_after_flush && flushed)
                || (conn.read_closed && flushed && !conn.busy);
            if !close {
                // Deadline: armed when a partial line is first
                // buffered, kept (not extended) while it drips,
                // cleared once no partial is pending.
                let awaiting = !conn.busy && !conn.read_closed && conn.scanner.awaiting_line();
                if !awaiting {
                    conn.deadline = None;
                } else if conn.deadline.is_none() {
                    conn.deadline = Some(Instant::now() + self.cfg.read_timeout);
                }
            }
            close
        };
        if close {
            self.close_conn(token);
        }
    }

    fn close_conn(&mut self, token: u64) {
        if self.conns.remove(&token).is_some() {
            self.metrics.connections_active.fetch_sub(1, Ordering::Relaxed);
            if log_enabled(LogLevel::Debug) {
                log_event(LogLevel::Debug, "connection closed", &[("conn", Json::from(token))]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::ErrorCode;

    /// Feeds `input` to a scanner in `chunk`-sized pieces and pulls
    /// the first line — the incremental analogue of the old
    /// `read_line_bounded` tests, chunk boundaries and all.
    fn scan_first(input: &str, chunk: usize, max: usize) -> io::Result<Option<String>> {
        let mut scanner = LineScanner::default();
        let bytes = input.as_bytes();
        let mut offset = 0;
        while offset < bytes.len() {
            let end = (offset + chunk).min(bytes.len());
            scanner.push(&bytes[offset..end]);
            offset = end;
            match scanner.next_line(max) {
                Ok(None) => continue,
                other => return other,
            }
        }
        Ok(None)
    }

    #[test]
    fn scanner_bound_is_exact_at_the_limit() {
        // Content of exactly `max` bytes passes; one more fails —
        // regardless of where the chunk boundaries fall.
        for chunk in [1, 2, 3, 5, 8, 64] {
            let at = scan_first("aaaaaaaa\nrest", chunk, 8).unwrap();
            assert_eq!(at.as_deref(), Some("aaaaaaaa"), "chunk {chunk}");
            let over = scan_first("aaaaaaaaa\nrest", chunk, 8);
            assert!(over.is_err(), "chunk {chunk}: 9 bytes must exceed max 8");
        }
    }

    #[test]
    fn scanner_rejects_line_terminating_in_next_chunk() {
        // The terminator arriving in a later chunk must not defeat the
        // bound: 5 content bytes > max 4 fails however it is sliced.
        assert!(scan_first("aaaaa\n", 8, 4).is_err());
        assert!(scan_first("aaa", 3, 4).unwrap().is_none()); // incomplete, no error
        assert!(scan_first("aaaaa\n", 3, 4).is_err());
        assert_eq!(scan_first("aaaa\n", 3, 4).unwrap().as_deref(), Some("aaaa"));
    }

    #[test]
    fn scanner_streams_lines_and_tracks_partials() {
        let mut s = LineScanner::default();
        s.push(b"one\ntwo\nthr");
        assert_eq!(s.next_line(100).unwrap().as_deref(), Some("one"));
        assert_eq!(s.next_line(100).unwrap().as_deref(), Some("two"));
        assert_eq!(s.next_line(100).unwrap(), None);
        assert!(s.awaiting_line(), "a partial line is buffered");
        s.push(b"ee\n");
        assert_eq!(s.next_line(100).unwrap().as_deref(), Some("three"));
        assert_eq!(s.next_line(100).unwrap(), None);
        assert!(!s.awaiting_line(), "buffer is empty between requests");
    }

    #[test]
    fn scanner_discard_partial_keeps_complete_lines() {
        let mut s = LineScanner::default();
        s.push(b"keep\nhalf");
        s.discard_partial();
        assert_eq!(s.next_line(100).unwrap().as_deref(), Some("keep"));
        assert_eq!(s.next_line(100).unwrap(), None);
        assert!(!s.awaiting_line());
        // A buffer that is all partial clears entirely.
        let mut s = LineScanner::default();
        s.push(b"half");
        assert_eq!(s.next_line(100).unwrap(), None);
        s.discard_partial();
        assert!(!s.awaiting_line());
    }

    #[test]
    fn scanner_is_linear_in_pipelined_lines() {
        // Extracting n pipelined lines pushed at once must cost time
        // linear in n (a scanner that shifts the buffer per line is
        // quadratic).
        let input = |n: usize| (n, "{\"cmd\":\"health\"}\n".repeat(n));
        crate::assert_linear(10_000, input, |(n, input)| {
            let mut s = LineScanner::default();
            s.push(input.as_bytes());
            let mut lines = 0;
            while let Some(line) = s.next_line(1024).unwrap() {
                assert_eq!(line, "{\"cmd\":\"health\"}");
                lines += 1;
            }
            assert_eq!(lines, *n);
            assert!(!s.awaiting_line());
        });
    }

    /// The lines `scanner` yields from `chunks`, pushed in order, up to
    /// the first framing error's kind.
    fn frame(
        mut scanner: LineScanner,
        chunks: &[&[u8]],
        max: usize,
    ) -> (Vec<String>, Option<io::ErrorKind>) {
        let mut lines = Vec::new();
        for chunk in chunks {
            scanner.push(chunk);
            loop {
                match scanner.next_line(max) {
                    Ok(Some(line)) => lines.push(line),
                    Ok(None) => break,
                    Err(e) => return (lines, Some(e.kind())),
                }
            }
        }
        (lines, None)
    }

    #[test]
    fn fuzzed_byte_streams_frame_alike_in_every_chunking() {
        // Random streams of valid UTF-8, invalid bytes, terminators and
        // lines of about `MAX` bytes, fed in random chunk sizes: each
        // chunking yields the lines and first error of the one-chunk
        // reference, and `discard_partial` keeps exactly the complete
        // lines.
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        const MAX: usize = 24;
        let mut rng = StdRng::seed_from_u64(0xf4a3);
        let (mut errors, mut lines) = (0, 0);
        for _ in 0..2_000 {
            let mut stream = Vec::new();
            for _ in 0..rng.gen_range(0..10) {
                match rng.gen_range(0..8u32) {
                    0 => stream.extend_from_slice("é😀".as_bytes()),
                    1 => stream.push(rng.gen_range(0x80..=0xffu32) as u8),
                    2 | 3 => stream.push(b'\n'),
                    4 => {
                        stream.extend(std::iter::repeat_n(b'x', MAX - 1 + rng.gen_range(0..3usize)))
                    }
                    _ => stream
                        .extend((0..rng.gen_range(0..6)).map(|_| rng.gen_range(32..127u32) as u8)),
                }
            }
            let reference = frame(LineScanner::default(), &[&stream], MAX);
            errors += usize::from(reference.1.is_some());
            lines += reference.0.len();
            for _ in 0..4 {
                let mut chunks = Vec::new();
                let mut rest = &stream[..];
                while !rest.is_empty() {
                    let (chunk, tail) = rest.split_at(rng.gen_range(1..=rest.len().min(MAX + 3)));
                    chunks.push(chunk);
                    rest = tail;
                }
                assert_eq!(frame(LineScanner::default(), &chunks, MAX), reference, "{stream:?}");
            }
            let mut scanner = LineScanner::default();
            scanner.push(&stream);
            scanner.discard_partial();
            let complete = stream.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
            let expected = frame(LineScanner::default(), &[&stream[..complete]], MAX);
            let kept = frame(scanner, &[&[]], MAX);
            assert_eq!(kept, expected, "{stream:?}");
        }
        // The seed reaches both outcomes, not just one.
        assert!(errors > 100 && lines > 1_000, "{errors} errors, {lines} lines");
    }

    #[test]
    fn framing_errors_carry_the_documented_codes() {
        // The mapping is pinned here because hitting it over the wire
        // needs a line past MAX_REQUEST_BYTES (256 MiB).
        let oversized = scan_first("aaaaa\n", 8, 4).unwrap_err();
        assert_eq!(framing_error(&oversized).code, ErrorCode::PayloadTooLarge);
        assert_eq!(framing_error(&oversized).message, "request line exceeds the size limit");
        let mut s = LineScanner::default();
        s.push(&[0xFF, 0xFE, b'\n']);
        let not_utf8 = s.next_line(100).unwrap_err();
        assert_eq!(not_utf8.kind(), io::ErrorKind::InvalidData);
        assert_eq!(framing_error(&not_utf8).code, ErrorCode::BadRequest);
        let broken = io::Error::new(io::ErrorKind::ConnectionReset, "reset");
        assert_eq!(framing_error(&broken).code, ErrorCode::Io);
        // And the v1 message is byte-identical to the pre-reactor
        // shape (the error string was the io::Error text verbatim).
        assert_eq!(
            api::render_v1(Err(framing_error(&oversized))).to_string(),
            r#"{"error":"request line exceeds the size limit","ok":false}"#
        );
    }

    /// Drives the interest set — `poll(2)`, the default and only
    /// backend — directly through a self-pipe: readiness, token
    /// delivery, timeouts, and the per-wait reset.
    #[test]
    fn default_backend_delivers_events() {
        let mut interest = Interest::default();
        let (reader, waker) = new_waker().unwrap();
        let mut events = Vec::new();
        // Nothing pending: a finite wait times out empty.
        interest.push(reader.fd, 7, (true, false));
        interest.wait(Some(Duration::from_millis(5)), &mut events).unwrap();
        assert!(events.is_empty(), "no event before the wake");
        waker.wake();
        interest.push(reader.fd, 7, (true, false));
        interest.wait(Some(Duration::from_secs(5)), &mut events).unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].token, 7);
        assert!(events[0].readable);
        reader.drain();
        // The wait cleared the set: an fd not pushed again never fires.
        waker.wake();
        interest.wait(Some(Duration::from_millis(5)), &mut events).unwrap();
        assert!(events.is_empty(), "an fd left out of the set must not fire");
    }

    /// `poll(2)`, once only the portable fallback, is the backend now.
    /// Beyond readability it reports write readiness, and a hangup even
    /// on an fd pushed with no interest at all — the reason the reactor
    /// leaves interest-free connections out of the set.
    #[test]
    fn poll_fallback_backend_delivers_events() {
        let mut interest = Interest::default();
        let (reader, waker) = new_waker().unwrap();
        let mut events = Vec::new();
        // An empty pipe's write end is writable at once; the read end,
        // pushed for reads only, stays quiet.
        interest.push(reader.fd, 1, (true, false));
        interest.push(waker.inner.fd, 2, (false, true));
        interest.wait(Some(Duration::from_secs(5)), &mut events).unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].token, 2);
        assert!(events[0].writable && !events[0].readable && !events[0].hangup);
        // Closing the write end hangs up the read end, and poll says so
        // though the fd asked for neither reads nor writes.
        drop(waker);
        interest.push(reader.fd, 1, (false, false));
        interest.wait(Some(Duration::from_secs(5)), &mut events).unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].token, 1);
        assert!(events[0].hangup && !events[0].readable && !events[0].writable);
    }

    #[test]
    fn wait_timeouts_round_up_not_down() {
        assert_eq!(timeout_ms(None), -1);
        assert_eq!(timeout_ms(Some(Duration::ZERO)), 0);
        assert_eq!(timeout_ms(Some(Duration::from_micros(100))), 1, "sub-ms waits must not spin");
        assert_eq!(timeout_ms(Some(Duration::from_millis(250))), 250);
        assert_eq!(timeout_ms(Some(Duration::from_secs(1 << 40))), i32::MAX);
    }
}
