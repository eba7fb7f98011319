//! The TCP front end: a nonblocking event loop, a worker pool, a handle.
//!
//! `samplecfd` is a std-only **event-driven** server.  One event-loop
//! thread owns the listener and every connection through the
//! crate-private `poll` readiness poller (Linux epoll, no async
//! runtime); `workers` threads own the CPU-and-I/O-heavy protocol work
//! (sampling, estimation) behind a **bounded request queue**.  The worker
//! pool is the daemon's only parallelism: a request runs on one worker from
//! start to end and never fans out.  The division of labor:
//!
//! * the event loop accepts, reads, frames request lines, writes response
//!   bytes, and never blocks — so 10k idle or slow connections cost file
//!   descriptors and buffers, not threads;
//! * a worker pops one framed request, runs
//!   [`ServiceState::handle_line`], and posts the response line back to
//!   the loop through a completion queue + the poller's `Waker`.
//!
//! Backpressure is explicit at both ends: a connection beyond
//! `max_connections` is answered `busy` and closed at accept, and a
//! request that finds the queue full is answered `busy` in-line (the
//! connection survives; the client backs off and retries).  Responses on
//! one connection stay strictly in request order because at most one
//! request per connection is in flight; further pipelined lines wait in
//! the connection's pending list, and once that list reaches
//! `MAX_PIPELINED` the loop simply stops reading from the socket — TCP
//! flow control pushes back on the pipeliner without costing anyone else
//! anything.
//!
//! [`ServerHandle`] supports both deployment shapes: the `samplecfd`
//! binary calls [`run`](ServerHandle::run) (block until a `shutdown`
//! request), while tests and the load harness keep the handle, talk to
//! [`addr`](ServerHandle::addr) over real sockets, and call
//! [`shutdown`](ServerHandle::shutdown) when done.

use crate::cache::DEFAULT_CACHE_BUDGET_BYTES;
use crate::json::Json;
use crate::poll::{Event, Interest, Poller, Waker};
use crate::protocol::RequestKind;
use crate::protocol::{codes, error_response, ApiError};
use crate::service::ServiceState;
use samplecf_obs::{Stage, StageTimings};
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tunables of one daemon instance.
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Worker threads running estimation requests — the daemon's only
    /// parallel axis: each request runs on one worker from start to end.
    /// This sizes the *compute* pool only — connection capacity is
    /// `max_connections`; an idle connection never occupies a worker.
    pub workers: usize,
    /// Byte budget of the shared sample cache.
    pub cache_budget_bytes: usize,
    /// Maximum simultaneously open connections; connection number
    /// `max_connections + 1` is answered `busy` and closed at accept.
    pub max_connections: usize,
    /// Capacity of the bounded request queue between the event loop and
    /// the workers; a request arriving while it is full is answered
    /// `busy` without occupying a worker.
    pub queue_depth: usize,
    /// Longest accepted request line in bytes; longer lines are discarded
    /// and answered with a `too_large` error.
    pub max_line_bytes: usize,
    /// A request whose end-to-end wall time exceeds this many milliseconds
    /// is counted in `samplecf_slow_requests_total` and logged as one
    /// structured JSON line on stderr (op, total, per-stage breakdown).
    /// `0` disables the log (the counter then never fires).
    pub slow_request_ms: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 8,
            cache_budget_bytes: DEFAULT_CACHE_BUDGET_BYTES,
            max_connections: 10_240,
            queue_depth: 1_024,
            max_line_bytes: 1024 * 1024,
            slow_request_ms: 1_000,
        }
    }
}

/// One framed request traveling loop → worker.  Its stage clock starts
/// when the event loop enqueues it, so time spent waiting for a worker is
/// observable as the queue-wait stage.
struct Job {
    conn: usize,
    gen: u64,
    line: String,
    timings: StageTimings,
}

/// One response line traveling worker → loop, with the request's
/// classification and finished stage clock for the loop to observe.
struct Completion {
    conn: usize,
    gen: u64,
    response: String,
    kind: RequestKind,
    timings: StageTimings,
}

/// The bounded loop → workers queue.  `try_push` never blocks (the event
/// loop must not); `pop` blocks a worker until a job or close arrives.
struct RequestQueue {
    inner: Mutex<(VecDeque<Job>, bool)>,
    ready: Condvar,
    capacity: usize,
}

impl RequestQueue {
    fn new(capacity: usize) -> Self {
        RequestQueue {
            inner: Mutex::new((VecDeque::new(), false)),
            ready: Condvar::new(),
            capacity,
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, (VecDeque<Job>, bool)> {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Enqueue or fail immediately; on success returns the new depth.
    fn try_push(&self, job: Job) -> Result<usize, Job> {
        let mut guard = self.lock();
        if guard.1 || guard.0.len() >= self.capacity {
            return Err(job);
        }
        guard.0.push_back(job);
        let depth = guard.0.len();
        drop(guard);
        self.ready.notify_one();
        Ok(depth)
    }

    /// Blocking pop; `None` once the queue is closed *and* drained.
    /// Also reports the post-pop depth so the caller can keep the gauge
    /// honest.
    fn pop(&self) -> Option<(Job, usize)> {
        let mut guard = self.lock();
        loop {
            if let Some(job) = guard.0.pop_front() {
                let depth = guard.0.len();
                return Some((job, depth));
            }
            if guard.1 {
                return None;
            }
            guard = self
                .ready
                .wait(guard)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    fn close(&self) {
        self.lock().1 = true;
        self.ready.notify_all();
    }
}

/// The workers → loop completion mailbox; every push rings the waker.
struct Completions {
    inner: Mutex<Vec<Completion>>,
    waker: Waker,
}

impl Completions {
    fn push(&self, completion: Completion) {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .push(completion);
        self.waker.wake();
    }

    fn take(&self) -> Vec<Completion> {
        std::mem::take(
            &mut self
                .inner
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner),
        )
    }
}

/// An entry in a connection's in-order pending list: either a request
/// line awaiting a worker, or a response the loop already produced
/// locally (busy / too_large) that must still leave in arrival order.
enum PendingItem {
    Line(String),
    Immediate(String),
}

/// Per-connection state owned by the event loop.
struct Conn {
    stream: TcpStream,
    /// Guards the slot against reuse: a completion for a previous tenant
    /// of this slot carries a stale generation and is dropped.
    gen: u64,
    /// Unframed bytes read so far (at most one partial line).
    read_buf: Vec<u8>,
    /// Response bytes not yet accepted by the socket.
    write_buf: Vec<u8>,
    write_pos: usize,
    /// Framed requests (and locally produced responses) in arrival order.
    pending: VecDeque<PendingItem>,
    /// Whether one of this connection's requests is queued or running on
    /// a worker — at most one, which is what keeps responses in order.
    inflight: bool,
    /// Mid-discard of an oversized line (drop bytes until the newline).
    discarding: bool,
    /// The peer sent EOF; serve what's pending, flush, then close.
    peer_closed: bool,
    /// A fatal I/O error occurred; close as soon as control returns.
    dead: bool,
    interest: Interest,
}

impl Conn {
    fn flushed(&self) -> bool {
        self.write_pos >= self.write_buf.len()
    }

    fn push_response(&mut self, line: &str) {
        self.write_buf.extend_from_slice(line.as_bytes());
        self.write_buf.push(b'\n');
    }
}

const LISTENER_TOKEN: usize = usize::MAX - 1;
/// Read in chunks, at most this many per readiness event, so one
/// firehosing client cannot starve the rest of the loop (level-triggered
/// polling re-reports whatever is left).
const READ_CHUNK: usize = 16 * 1024;
const MAX_CHUNKS_PER_EVENT: usize = 8;
/// Parsed-but-unserved requests a connection may pipeline before its socket is not read.
const MAX_PIPELINED: usize = 64;

fn busy_line(message: &str) -> String {
    error_response(&ApiError::new(codes::BUSY, message)).to_line()
}

struct EventLoop {
    listener: TcpListener,
    poller: Poller,
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    open: usize,
    next_gen: u64,
    state: Arc<ServiceState>,
    queue: Arc<RequestQueue>,
    completions: Arc<Completions>,
    config: ServerConfig,
    /// Set once shutdown is observed: stop accepting and dispatching,
    /// only flush what is already owed.
    draining: bool,
}

impl EventLoop {
    fn run(mut self) {
        let mut events: Vec<Event> = Vec::new();
        loop {
            // The timeout is a belt-and-braces bound: every interesting
            // transition (completion, shutdown) also rings the waker.
            if self
                .poller
                .wait(&mut events, Some(Duration::from_millis(500)))
                .is_err()
            {
                break;
            }
            for (i, event) in std::mem::take(&mut events).into_iter().enumerate() {
                if event.token == LISTENER_TOKEN {
                    self.accept_ready();
                } else {
                    self.conn_ready(&event);
                }
                // Interleave completion draining with socket work: a ready
                // list of thousands of connections can take a long time to
                // service, and a finished response must not sit in the
                // mailbox for that whole sweep (the `drain` stage histogram
                // is what exposed this as the dominant non-queue tail).
                if i % 64 == 63 {
                    self.drain_completions();
                }
            }
            self.drain_completions();
            if self.state.shutdown_requested() {
                break;
            }
        }
        self.wind_down();
        self.queue.close();
    }

    fn accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    let accepted = Instant::now();
                    self.admit(stream);
                    self.state.observe_stage(Stage::Accept, accepted.elapsed());
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                // Transient per-connection accept failures (reset before
                // accept, fd pressure): drop that connection, keep going.
                Err(_) => break,
            }
        }
    }

    fn admit(&mut self, stream: TcpStream) {
        if self.draining {
            return;
        }
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        if self.open >= self.config.max_connections {
            // Over the limit: tell the client why, best-effort, and close.
            self.state.gauges.connections_rejected.inc();
            let mut line = busy_line("connection limit reached, retry later").into_bytes();
            line.push(b'\n');
            let _ = (&stream).write(&line);
            return;
        }
        let _ = stream.set_nodelay(true);
        let idx = self.free.pop().unwrap_or_else(|| {
            self.conns.push(None);
            self.conns.len() - 1
        });
        self.next_gen += 1;
        if self.poller.register(&stream, idx, Interest::READ).is_err() {
            self.free.push(idx);
            return;
        }
        self.conns[idx] = Some(Conn {
            stream,
            gen: self.next_gen,
            read_buf: Vec::new(),
            write_buf: Vec::new(),
            write_pos: 0,
            pending: VecDeque::new(),
            inflight: false,
            discarding: false,
            peer_closed: false,
            dead: false,
            interest: Interest::READ,
        });
        self.open += 1;
        self.state.gauges.connections_accepted.inc();
        self.state.gauges.open_connections.add(1);
    }

    fn conn_ready(&mut self, event: &Event) {
        let idx = event.token;
        let Some(Some(conn)) = self.conns.get_mut(idx) else {
            return;
        };
        if event.readable || event.closed {
            Self::read_some(conn, self.config.max_line_bytes);
        }
        self.pump(idx);
    }

    /// Nonblocking read: frame complete lines into `pending`, keep at
    /// most one partial line in `read_buf`, enforce the line length cap.
    fn read_some(conn: &mut Conn, max_line_bytes: usize) {
        let mut chunk = [0u8; READ_CHUNK];
        for _ in 0..MAX_CHUNKS_PER_EVENT {
            match conn.stream.read(&mut chunk) {
                Ok(0) => {
                    conn.peer_closed = true;
                    // A non-empty tail without a newline is the final
                    // (unterminated) request of the connection.
                    if !conn.read_buf.is_empty() && !conn.discarding {
                        let line = String::from_utf8_lossy(&conn.read_buf).into_owned();
                        conn.pending.push_back(PendingItem::Line(line));
                    }
                    conn.read_buf.clear();
                    break;
                }
                Ok(n) => Self::ingest(conn, &chunk[..n], max_line_bytes),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => {
                    conn.dead = true;
                    break;
                }
            }
        }
    }

    fn ingest(conn: &mut Conn, bytes: &[u8], max_line_bytes: usize) {
        conn.read_buf.extend_from_slice(bytes);
        let mut start = 0usize;
        while let Some(off) = conn.read_buf[start..].iter().position(|&b| b == b'\n') {
            let end = start + off;
            if conn.discarding {
                // Tail of an oversized line; the error was already queued.
                conn.discarding = false;
            } else {
                let line = String::from_utf8_lossy(&conn.read_buf[start..end]).into_owned();
                conn.pending.push_back(PendingItem::Line(line));
            }
            start = end + 1;
        }
        conn.read_buf.drain(..start);
        if conn.read_buf.len() > max_line_bytes {
            conn.read_buf.clear();
            if !conn.discarding {
                conn.discarding = true;
                let response = error_response(&ApiError::new(
                    codes::TOO_LARGE,
                    format!("request line exceeds {max_line_bytes} bytes"),
                ))
                .to_line();
                conn.pending.push_back(PendingItem::Immediate(response));
            }
        }
    }

    /// Move a connection forward: dispatch its next pending request (at
    /// most one in flight), flush response bytes, keep poll interest in
    /// sync, and close if finished.  Safe to call redundantly.
    fn pump(&mut self, idx: usize) {
        let Some(Some(conn)) = self.conns.get_mut(idx) else {
            return;
        };

        while !conn.inflight && !conn.dead && !self.draining {
            match conn.pending.pop_front() {
                None => break,
                Some(PendingItem::Immediate(response)) => conn.push_response(&response),
                Some(PendingItem::Line(line)) => {
                    if line.trim().is_empty() {
                        continue;
                    }
                    match self.queue.try_push(Job {
                        conn: idx,
                        gen: conn.gen,
                        line,
                        timings: StageTimings::start(),
                    }) {
                        Ok(depth) => {
                            self.state.gauges.set_queue_depth(depth);
                            conn.inflight = true;
                        }
                        Err(_job) => {
                            self.state.gauges.busy_rejections.inc();
                            conn.push_response(&busy_line("request queue is full, retry later"));
                        }
                    }
                }
            }
        }

        // Flush what the socket will take.
        let flush_started = (!conn.dead && !conn.flushed()).then(Instant::now);
        while !conn.dead && conn.write_pos < conn.write_buf.len() {
            match conn.stream.write(&conn.write_buf[conn.write_pos..]) {
                Ok(0) => {
                    conn.dead = true;
                }
                Ok(n) => conn.write_pos += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => conn.dead = true,
            }
        }
        if let Some(started) = flush_started {
            self.state.observe_stage(Stage::Write, started.elapsed());
        }
        if conn.flushed() {
            conn.write_buf.clear();
            conn.write_pos = 0;
        }

        let finished =
            conn.peer_closed && conn.pending.is_empty() && !conn.inflight && conn.flushed();
        if conn.dead || finished {
            self.close_conn(idx);
            return;
        }

        let desired = Interest {
            readable: !conn.peer_closed && conn.pending.len() < MAX_PIPELINED,
            writable: !conn.flushed(),
        };
        if desired != conn.interest {
            conn.interest = desired;
            let _ = self.poller.modify(&conn.stream, idx, desired);
        }
    }

    fn close_conn(&mut self, idx: usize) {
        if let Some(conn) = self.conns.get_mut(idx).and_then(Option::take) {
            let _ = self.poller.deregister(&conn.stream);
            drop(conn);
            self.free.push(idx);
            self.open -= 1;
            self.state.gauges.open_connections.sub(1);
        }
    }

    fn drain_completions(&mut self) {
        for completion in self.completions.take() {
            // Observe unconditionally — the work happened even when the
            // addressee connection is already gone.
            self.observe_completion(&completion);
            let Some(Some(conn)) = self.conns.get_mut(completion.conn) else {
                continue;
            };
            if conn.gen != completion.gen {
                continue; // the slot was reused; the addressee is gone
            }
            conn.inflight = false;
            conn.push_response(&completion.response);
            self.pump(completion.conn);
        }
    }

    /// Record a finished request's latency and stage breakdown; above the
    /// slow-request threshold, also emit one structured JSON log line.
    fn observe_completion(&self, completion: &Completion) {
        let total_ns = self
            .state
            .observe_request(completion.kind, &completion.timings);
        let threshold_ns = self.config.slow_request_ms.saturating_mul(1_000_000);
        if threshold_ns == 0 || total_ns < threshold_ns {
            return;
        }
        self.state.gauges.slow_requests.inc();
        let mut stages = Json::obj();
        for (stage, nanos) in completion.timings.recorded() {
            stages = stages.field(stage.name(), Json::uint(nanos));
        }
        let log = Json::obj()
            .field("event", Json::str("slow_request"))
            .field("op", Json::str(completion.kind.name()))
            .field("threshold_ms", Json::uint(self.config.slow_request_ms))
            .field("total_ns", Json::uint(total_ns))
            .field("stages_ns", stages);
        eprintln!("{log}");
    }

    /// Shutdown path: stop accepting and dispatching, give in-flight
    /// requests and unflushed responses a bounded window to complete,
    /// then drop everything.
    fn wind_down(&mut self) {
        self.draining = true;
        let _ = self.poller.deregister(&self.listener);
        let deadline = Instant::now() + Duration::from_secs(5);
        let mut events: Vec<Event> = Vec::new();
        loop {
            let owed = self
                .conns
                .iter()
                .flatten()
                .any(|c| c.inflight || !c.flushed());
            if !owed || Instant::now() >= deadline {
                break;
            }
            if self
                .poller
                .wait(&mut events, Some(Duration::from_millis(50)))
                .is_err()
            {
                break;
            }
            for event in std::mem::take(&mut events) {
                if event.token != LISTENER_TOKEN {
                    self.pump(event.token);
                }
            }
            self.drain_completions();
        }
        for idx in 0..self.conns.len() {
            self.close_conn(idx);
        }
    }
}

/// A running server: bind with [`Server::bind`], then [`ServerHandle::run`]
/// or drive it from tests and shut it down explicitly.
pub struct Server;

impl Server {
    /// Bind `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port), start the
    /// event-loop and worker threads, and return the owner's handle.
    pub fn bind(addr: &str, config: ServerConfig) -> std::io::Result<ServerHandle> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;

        let state = Arc::new(ServiceState::new(config.cache_budget_bytes));
        let gauges = &state.gauges;
        gauges.max_connections.set(config.max_connections as u64);
        gauges.queue_capacity.set(config.queue_depth as u64);

        let poller = Poller::new()?;
        poller.register(&listener, LISTENER_TOKEN, Interest::READ)?;
        let waker = poller.waker();

        let queue = Arc::new(RequestQueue::new(config.queue_depth.max(1)));
        let completions = Arc::new(Completions {
            inner: Mutex::new(Vec::new()),
            waker: waker.clone(),
        });

        let workers: Vec<JoinHandle<()>> = (0..config.workers.max(1))
            .map(|_| {
                let queue = Arc::clone(&queue);
                let completions = Arc::clone(&completions);
                let state = Arc::clone(&state);
                std::thread::spawn(move || {
                    while let Some((mut job, depth)) = queue.pop() {
                        state.gauges.set_queue_depth(depth);
                        // Everything since enqueue was spent waiting for
                        // this worker.
                        job.timings
                            .add(Stage::QueueWait, job.timings.started().elapsed());
                        let (response, kind) =
                            state.handle_line_traced(&job.line, &mut job.timings);
                        completions.push(Completion {
                            conn: job.conn,
                            gen: job.gen,
                            response,
                            kind,
                            timings: job.timings,
                        });
                    }
                })
            })
            .collect();

        let event_loop = {
            let state = Arc::clone(&state);
            let queue = Arc::clone(&queue);
            let completions = Arc::clone(&completions);
            std::thread::spawn(move || {
                EventLoop {
                    listener,
                    poller,
                    conns: Vec::new(),
                    free: Vec::new(),
                    open: 0,
                    next_gen: 0,
                    state,
                    queue,
                    completions,
                    config,
                    draining: false,
                }
                .run();
            })
        };

        Ok(ServerHandle {
            addr: local_addr,
            state,
            waker,
            event_loop: Some(event_loop),
            workers,
        })
    }
}

/// The owner's view of a running server.
pub struct ServerHandle {
    addr: SocketAddr,
    state: Arc<ServiceState>,
    waker: Waker,
    event_loop: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (with the real port when bound to port 0).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared service state — the in-process view the tests and the
    /// load harness read counters from.
    #[must_use]
    pub fn state(&self) -> &Arc<ServiceState> {
        &self.state
    }

    /// Block until a `shutdown` request is accepted, then wind down.  This
    /// is the daemon binary's main loop.
    pub fn run(mut self) {
        self.join_all();
    }

    /// Stop the server from the owning thread: raise the flag, wake the
    /// event loop, join everything.  Safe to call whether or not a
    /// `shutdown` request was already processed.
    pub fn shutdown(mut self) {
        self.state.request_shutdown();
        self.waker.wake();
        self.join_all();
    }

    fn join_all(&mut self) {
        if let Some(event_loop) = self.event_loop.take() {
            let _ = event_loop.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl std::fmt::Debug for ServerHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerHandle")
            .field("addr", &self.addr)
            .field("workers", &self.workers.len())
            .finish()
    }
}
