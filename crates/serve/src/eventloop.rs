//! The HTTP front end: a nonblocking readiness event loop.
//!
//! `acceptors` poller shards each own a set of connections as plain
//! state — a read buffer feeding the incremental [`RequestParser`], a
//! pending write buffer, and a few flags — and multiplex them over
//! `poll(2)` (via `shim.rs`). An idle keep-alive connection costs the
//! bytes of its [`Conn`] struct and one pollfd entry, not a thread;
//! thread count is fixed at startup regardless of connection count.
//!
//! ## Endpoints
//!
//! | Route | Meaning |
//! |---|---|
//! | `POST /predict` | body `{"<feature>": <num>, …}` → `{"rate", "version", "batch_size"}` |
//! | `POST /explain` | same body → the prediction plus per-feature attributions |
//! | `GET /healthz` | liveness + current model version |
//! | `GET /metrics` | counters and latency/batch histograms (p50/p95/p99) |
//! | `GET /metrics.prom` | the same in Prometheus text format |
//! | `GET /alerts` | the process-wide alert ring |
//! | `POST /reload` | rescan the model directory, hot-swap if newer |
//! | `POST /shutdown` | begin graceful shutdown (used by tests/CI) |
//!
//! Feature maps may omit features (they default to 0.0 — the natural
//! encoding for "no competing load observed") but may not name unknown
//! features or carry non-finite values; both are 400s. Overload is an
//! explicit 503 `{"error":"overloaded"}` from the batcher's admission
//! control, never a stalled socket.
//!
//! ## Data flow
//!
//! Every shard polls: its *wake* socket, its listener, and its
//! connections. With `SO_REUSEPORT` (Linux) each shard owns a private
//! listener on the same port and the kernel spreads incoming connections
//! across them — no accept contention, no thundering herd. Where
//! reuseport is unavailable the shards fall back to racing one shared
//! nonblocking listener (losers see `WouldBlock`).
//!
//! Complete requests are parsed **in place**: [`RequestParser::peek`]
//! yields a frame of byte ranges into the read buffer, `routes::route`
//! reads method/path/body straight out of that window, and `/predict`
//! rows are scanned into vectors recycled through a per-shard pool. Rows
//! go to the batcher with a **plain-data** reply sink (a [`ShardSink`] of
//! five words, no boxed closure), so the poller never blocks on
//! inference: the batch worker pushes the raw [`Prediction`] (plus the
//! row, for the pool) onto the shard's completion queue and pokes the
//! wake socket (a loopback `TcpStream` pair — `poll` can wait on sockets
//! only, and the wake write is coalesced by an atomic flag so a busy
//! shard is poked once per wakeup, not once per response).
//!
//! ## Coalesced writes
//!
//! Responses are rendered **at emit time**, in request order, directly
//! into the connection's `VecDeque<u8>` output ring
//! ([`render_response_into`] + a reusable body scratch `String`) — a
//! pipelined burst accumulates there and [`flush_conn`] pushes both ring
//! halves with one `writev(2)` per poll wakeup. In the steady state a
//! keep-alive `/predict` request allocates nothing: buffers are reused,
//! the version string is a shared `Arc<str>`, and out-of-order stashing
//! (the only allocating path) happens only when pipelined answers finish
//! out of sequence.
//!
//! ## Timeouts
//!
//! Two distinct clocks: the 200 ms poll tick bounds how stale the
//! shutdown flag and deadline sweep can be (an *idle* connection just
//! keeps sitting there, free); the per-request deadline starts at a
//! request's first byte and answers **408** if the request is still
//! incomplete when it expires. Slow clients who keep trickling bytes
//! inside the deadline are served normally.

use crate::batcher::{BatchConfig, Batcher, Prediction};
use crate::http::{render_response_into, HttpError, RequestParser, DEFAULT_REQUEST_DEADLINE};
use crate::metrics::ServerMetrics;
use crate::registry::ModelRegistry;
use crate::routes::{
    explain_body, prediction_body, protocol_error_response, route, submit_error_response, Body,
    Ctx, Routed, BODY_NON_FINITE,
};
use crate::shim::{poll_fds, writev_fds, PollFd, POLLERR, POLLHUP, POLLIN, POLLNVAL, POLLOUT};
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Front-end configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Port to bind on 127.0.0.1 (0 → ephemeral, see
    /// [`EventLoopServer::addr`]).
    pub port: u16,
    /// Acceptor/poller shards.
    pub acceptors: usize,
    /// Wall-clock budget for one request to arrive in full once its
    /// first byte is seen; expiry answers 408.
    pub request_deadline: Duration,
    /// Micro-batching knobs.
    pub batch: BatchConfig,
    /// How many top-|contribution| features `/explain` names in its
    /// `top` array (the full contribution vector is always included).
    pub explain_top: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            port: 0,
            acceptors: 2,
            request_deadline: DEFAULT_REQUEST_DEADLINE,
            batch: BatchConfig::default(),
            explain_top: 5,
        }
    }
}

/// Poll timeout: how often a shard re-checks the stopping flag and
/// sweeps request deadlines even with no socket activity.
const TICK_MS: i32 = 200;

/// Most predictions one connection may have in the batcher at once.
/// HTTP/1.1 pipelining lets a client send many requests back-to-back;
/// admitting them concurrently (answers are re-sequenced, see [`stage`])
/// turns a pipelined burst into one inference batch and one writev-sized
/// response flush. The cap bounds per-connection memory; anything deeper
/// waits in the parser buffer.
const PIPELINE_MAX: usize = 128;

/// Stop reading from a connection whose client isn't draining responses.
const MAX_OUT_BUFFER: usize = 256 * 1024;

/// Most row vectors a shard keeps for reuse. Enough that a busy shard
/// never allocates rows in the steady state, small enough that a burst
/// doesn't pin memory forever.
const ROW_POOL_MAX: usize = 256;

/// A finished prediction bound for a connection, raw: the shard renders
/// it at emit time into the connection's output ring. Carrying the row
/// home lets the shard recycle it through its pool.
struct Completion {
    token: u64,
    seq: u64,
    pred: Prediction,
    close: bool,
    started: Instant,
    row: Vec<f64>,
}

/// Plain-data completion address a `/predict` submission carries into the
/// batcher: a shared-state handle and four words, no boxed closure,
/// nothing heap-allocated per request. The batch worker calls
/// [`ShardSink::deliver`] exactly once.
pub struct ShardSink {
    shared: Arc<ShardShared>,
    token: u64,
    seq: u64,
    close: bool,
    started: Instant,
}

impl ShardSink {
    /// Hand a finished prediction (and its row, for the pool) back to the
    /// owning shard.
    pub(crate) fn deliver(self, pred: Prediction, row: Vec<f64>) {
        let ShardSink { shared, token, seq, close, started } = self;
        shared.complete(Completion { token, seq, pred, close, started, row });
    }
}

/// Cross-thread doorbell for one shard: batch workers push completions
/// and poke the wake socket; the atomic coalesces pokes while the shard
/// is busy.
struct Waker {
    tx: TcpStream,
    pending: AtomicBool,
}

impl Waker {
    fn wake(&self) {
        if !self.pending.swap(true, Ordering::AcqRel) {
            // The shard drains this socket every loop; a full buffer
            // means a wakeup is already guaranteed.
            let _ = (&self.tx).write(&[1u8]);
        }
    }
}

/// State a shard shares with batch workers.
struct ShardShared {
    completions: Mutex<Vec<Completion>>,
    waker: Waker,
}

impl ShardShared {
    fn complete(&self, c: Completion) {
        self.completions.lock().expect("completion queue").push(c);
        self.waker.wake();
    }
}

/// A response waiting for its turn on the wire, pre-rendering: either a
/// routed status/body or a raw prediction. Rendering happens in [`emit`],
/// in sequence order, straight into the connection's output ring.
enum Pending {
    /// status, reason, body, close-after.
    Raw(u16, &'static str, Body, bool),
    /// prediction, close-after, request start (for the latency histogram).
    Predict(Prediction, bool, Instant),
}

/// Per-connection state machine. A few hundred bytes plus buffers; this
/// is the whole cost of an idle keep-alive connection.
struct Conn {
    stream: TcpStream,
    token: u64,
    parser: RequestParser,
    /// Bytes queued to write; a short write drains from the front and
    /// resumes on the next `POLLOUT`.
    out: VecDeque<u8>,
    /// Predictions in flight in the batcher for this connection.
    in_flight: usize,
    /// Sequence number the next parsed request will be assigned.
    next_seq: u64,
    /// Sequence number the next response emitted into `out` must have —
    /// pipelined answers go on the wire in request order, whatever order
    /// inference finishes in.
    write_seq: u64,
    /// Finished responses waiting for their turn on the wire. Empty in
    /// the in-order steady state (no node churn, no allocation).
    stash: std::collections::BTreeMap<u64, Pending>,
    /// Close once `out` drains (set when a close-flagged response is
    /// emitted into `out`).
    close_after_write: bool,
    /// Peer sent FIN (or sent `Connection: close`); it may still be
    /// reading our side (half-close), so pending responses still flush.
    read_closed: bool,
    /// First byte of the current partial request (deadline clock).
    started: Option<Instant>,
}

impl Conn {
    /// True when nothing is pending in either direction: safe to drop on
    /// shutdown or after a read-side close.
    fn idle(&self) -> bool {
        // A partial request keeps the connection busy only while the
        // peer can still finish it; after FIN those bytes are garbage
        // that must not pin the slot (or hang the shutdown drain).
        self.out.is_empty()
            && self.in_flight == 0
            && self.stash.is_empty()
            && (self.read_closed || !self.parser.has_partial())
    }
}

/// Render one response into the connection's output ring. A response
/// emitted after a close-flagged one sealed the connection is dropped
/// (it can only be pipelined surplus behind a protocol error); its
/// prediction metrics are skipped too — it never hits the wire.
fn emit(c: &mut Conn, pending: Pending, ctx: &Ctx, scratch: &mut ShardScratch) {
    if c.close_after_write {
        // Contribution buffers of dropped surplus responses still go
        // back to the pool.
        if let Pending::Predict(mut p, _, _) = pending {
            if let Some(e) = p.explain.take() {
                give_back_contribs(&mut scratch.contrib_pool, e.contributions);
            }
        }
        return;
    }
    let close = match pending {
        Pending::Raw(status, reason, b, close) => {
            render_response_into(&mut c.out, status, reason, b.as_bytes(), close);
            close
        }
        Pending::Predict(mut p, close, started) => {
            if p.rate.is_finite() {
                scratch.body.clear();
                if p.explain.is_some() {
                    explain_body(&p, ctx.explain_top, &mut scratch.body);
                } else {
                    prediction_body(&p, &mut scratch.body);
                }
                render_response_into(&mut c.out, 200, "OK", scratch.body.as_bytes(), close);
                ctx.metrics.on_response(200);
                ctx.metrics.on_prediction(started.elapsed().as_micros() as u64);
            } else {
                render_response_into(
                    &mut c.out,
                    500,
                    "Internal Server Error",
                    BODY_NON_FINITE.as_bytes(),
                    close,
                );
                ctx.metrics.on_response(500);
            }
            if let Some(e) = p.explain.take() {
                give_back_contribs(&mut scratch.contrib_pool, e.contributions);
            }
            close
        }
    };
    if close {
        c.close_after_write = true;
        c.read_closed = true;
    }
}

/// File a finished response under its sequence number; if it is
/// next-in-line, emit it — and everything it unblocks — into the write
/// buffer. The common in-order case never touches the stash.
fn stage(c: &mut Conn, seq: u64, pending: Pending, ctx: &Ctx, scratch: &mut ShardScratch) {
    if seq != c.write_seq {
        c.stash.insert(seq, pending);
        return;
    }
    emit(c, pending, ctx, scratch);
    c.write_seq += 1;
    while let Some(p) = c.stash.remove(&c.write_seq) {
        emit(c, p, ctx, scratch);
        c.write_seq += 1;
    }
}

/// A running prediction service behind the event-loop front end.
pub struct EventLoopServer {
    addr: SocketAddr,
    ctx: Arc<Ctx>,
    shards: Mutex<Vec<JoinHandle<()>>>,
    shared: Vec<Arc<ShardShared>>,
    reuseport: bool,
}

impl EventLoopServer {
    /// Bind and start `cfg.acceptors` poller shards. Each shard gets its
    /// own `SO_REUSEPORT` listener where the platform supports it; the
    /// fallback is one shared nonblocking listener all shards race.
    pub fn start(
        registry: Arc<ModelRegistry>,
        cfg: ServeConfig,
    ) -> std::io::Result<Arc<EventLoopServer>> {
        let n_shards = cfg.acceptors.max(1);
        let (listeners, reuseport) = bind_listeners(cfg.port, n_shards)?;
        let addr = listeners[0].local_addr()?;
        let metrics = Arc::new(ServerMetrics::new());
        let batcher = Batcher::start(registry.clone(), metrics.clone(), cfg.batch.clone());
        let ctx = Arc::new(Ctx {
            registry,
            batcher,
            metrics,
            stopping: Arc::new(AtomicBool::new(false)),
            explain_top: cfg.explain_top,
        });

        let mut shards = Vec::new();
        let mut shared = Vec::new();
        for (i, listener) in listeners.into_iter().enumerate() {
            let (wake_rx, wake_tx) = waker_pair()?;
            let sh = Arc::new(ShardShared {
                completions: Mutex::new(Vec::new()),
                waker: Waker { tx: wake_tx, pending: AtomicBool::new(false) },
            });
            shared.push(sh.clone());
            let ctx = ctx.clone();
            let deadline = cfg.request_deadline;
            shards.push(
                std::thread::Builder::new()
                    .name(format!("wdt-poll-{i}"))
                    .spawn(move || shard_loop(&listener, wake_rx, &sh, &ctx, deadline))
                    .expect("spawn poller shard"),
            );
        }
        Ok(Arc::new(EventLoopServer { addr, ctx, shards: Mutex::new(shards), shared, reuseport }))
    }

    /// The bound address (resolves ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// True when each shard owns a private `SO_REUSEPORT` listener
    /// (Linux); false on the shared-listener fallback.
    pub fn reuseport(&self) -> bool {
        self.reuseport
    }

    /// Shared metrics (for embedding / tests).
    pub fn metrics(&self) -> &ServerMetrics {
        &self.ctx.metrics
    }

    /// The model registry the server predicts with.
    pub fn registry(&self) -> &ModelRegistry {
        &self.ctx.registry
    }

    /// True once shutdown has been requested (API call or `POST /shutdown`).
    pub fn stopping(&self) -> bool {
        self.ctx.stopping.load(Ordering::SeqCst)
    }

    /// Block until shutdown is requested, polling `period`.
    pub fn wait_until_stopping(&self, period: Duration) {
        while !self.stopping() {
            std::thread::sleep(period);
        }
    }

    /// Graceful shutdown: stop accepting, let in-flight requests finish
    /// (batch workers stay alive until every shard has drained), then
    /// stop the batcher. Idempotent.
    pub fn shutdown(&self) {
        self.ctx.stopping.store(true, Ordering::SeqCst);
        for sh in &self.shared {
            sh.waker.wake();
        }
        let mut shards = self.shards.lock().expect("shard handles");
        for s in shards.drain(..) {
            let _ = s.join();
        }
        self.ctx.batcher.shutdown();
    }
}

/// One listener per shard via `SO_REUSEPORT` when the platform allows,
/// else one shared listener cloned into every slot. The first listener
/// resolves an ephemeral `port: 0`; siblings bind the resolved port.
///
/// A fixed port that is already bound fails with `AddrInUse`:
/// `SO_REUSEPORT` alone would let a second server by the same user join
/// the port, and the kernel would split connections between the two.
/// A plain bind refuses a taken port, so one is tried and dropped first.
fn bind_listeners(port: u16, n: usize) -> std::io::Result<(Vec<Arc<TcpListener>>, bool)> {
    if port != 0 {
        drop(TcpListener::bind(("127.0.0.1", port))?);
    }
    let attempt = (|| -> std::io::Result<Vec<Arc<TcpListener>>> {
        let first = crate::shim::reuseport_listener(port)?;
        first.set_nonblocking(true)?;
        let bound = first.local_addr()?.port();
        let mut ls = vec![Arc::new(first)];
        for _ in 1..n {
            let l = crate::shim::reuseport_listener(bound)?;
            l.set_nonblocking(true)?;
            ls.push(Arc::new(l));
        }
        Ok(ls)
    })();
    match attempt {
        Ok(ls) => Ok((ls, true)),
        Err(_) => {
            let l = TcpListener::bind(("127.0.0.1", port))?;
            l.set_nonblocking(true)?;
            let l = Arc::new(l);
            Ok((vec![l; n], false))
        }
    }
}

/// A connected nonblocking loopback pair: (poller's read end, writers'
/// end). `poll(2)` waits on fds, and sockets are the only fd kind std
/// hands us portably — a self-connected TCP pair stands in for the pipe
/// the vendored-dependency policy won't let us `libc::pipe` for.
fn waker_pair() -> std::io::Result<(TcpStream, TcpStream)> {
    let l = TcpListener::bind("127.0.0.1:0")?;
    let tx = TcpStream::connect(l.local_addr()?)?;
    let (rx, _) = l.accept()?;
    rx.set_nonblocking(true)?;
    tx.set_nonblocking(true)?;
    tx.set_nodelay(true)?;
    Ok((rx, tx))
}

/// Everything a shard reuses across requests: the response-body scratch,
/// the row-vector pool, and the double buffer the completion queue swaps
/// into. All capacity, no steady-state allocation.
struct ShardScratch {
    body: String,
    row_pool: Vec<Vec<f64>>,
    /// Contribution-vector pool for `/explain`: buffers travel to the
    /// batch worker inside the job and come home with the completion.
    contrib_pool: Vec<Vec<f64>>,
    done: Vec<Completion>,
}

fn shard_loop(
    listener: &TcpListener,
    mut wake_rx: TcpStream,
    shared: &Arc<ShardShared>,
    ctx: &Arc<Ctx>,
    deadline: Duration,
) {
    // Connection slab: slot reuse with a generation counter so a stale
    // completion (client hung up mid-predict, slot recycled) can never
    // reach the wrong connection.
    let mut conns: Vec<Option<Conn>> = Vec::new();
    let mut free: Vec<usize> = Vec::new();
    let mut next_gen: u64 = 0;
    let mut fds: Vec<PollFd> = Vec::new();
    let mut fd_slots: Vec<usize> = Vec::new();
    let mut scratch = ShardScratch {
        body: String::with_capacity(128),
        row_pool: Vec::new(),
        contrib_pool: Vec::new(),
        done: Vec::new(),
    };

    loop {
        let stopping = ctx.stopping.load(Ordering::SeqCst);

        fds.clear();
        fd_slots.clear();
        fds.push(PollFd { fd: wake_rx.as_raw_fd(), events: POLLIN, revents: 0 });
        let listener_polled = !stopping;
        if listener_polled {
            fds.push(PollFd { fd: listener.as_raw_fd(), events: POLLIN, revents: 0 });
        }
        let conn_base = fds.len();
        for (slot, conn) in conns.iter().enumerate() {
            let Some(c) = conn else { continue };
            let mut events = 0i16;
            if !c.out.is_empty() {
                events |= POLLOUT;
            }
            if !c.read_closed && c.in_flight < PIPELINE_MAX && c.out.len() < MAX_OUT_BUFFER {
                events |= POLLIN;
            }
            if events != 0 {
                fds.push(PollFd { fd: c.stream.as_raw_fd(), events, revents: 0 });
                fd_slots.push(slot);
            }
        }

        if poll_fds(&mut fds, TICK_MS).is_err() {
            // poll itself failing is unrecoverable for the shard; bail
            // rather than spin.
            return;
        }

        // 1. Wake channel: drain the socket, then re-arm the coalescing
        // flag *before* draining completions, so a push racing this drain
        // lands either in this batch or with a fresh poke.
        if fds[0].revents & POLLIN != 0 {
            let mut sink = [0u8; 64];
            while matches!(wake_rx.read(&mut sink), Ok(n) if n > 0) {}
        }
        shared.waker.pending.store(false, Ordering::Release);

        // 2. Connection readiness. Runs before completions/accepts so the
        // slots captured in `fd_slots` cannot have been recycled.
        for (i, slot) in fd_slots.iter().enumerate() {
            let slot = *slot;
            let revents = fds[conn_base + i].revents;
            if revents == 0 {
                continue;
            }
            if revents & (POLLERR | POLLNVAL) != 0 {
                conns[slot] = None;
                free.push(slot);
                continue;
            }
            let finished = {
                let Some(c) = conns.get_mut(slot).and_then(Option::as_mut) else { continue };
                if revents & (POLLIN | POLLHUP) != 0 {
                    read_ready(c, ctx, shared, stopping, &mut scratch);
                }
                flush_conn(c)
            };
            if finished {
                conns[slot] = None;
                free.push(slot);
            }
        }

        // 3. Completions from batch workers, swapped out under the lock
        // into a reused buffer (a `take` would allocate a fresh vector
        // every drain; the swap keeps both buffers' capacity warm).
        {
            let mut q = shared.completions.lock().expect("completion queue");
            std::mem::swap(&mut *q, &mut scratch.done);
        }
        for i in 0..scratch.done.len() {
            let Completion { token, seq, pred, close, started, row } = {
                let comp = &mut scratch.done[i];
                Completion {
                    token: comp.token,
                    seq: comp.seq,
                    pred: Prediction {
                        rate: comp.pred.rate,
                        version: comp.pred.version.clone(),
                        batch_size: comp.pred.batch_size,
                        explain: comp.pred.explain.take(),
                    },
                    close: comp.close,
                    started: comp.started,
                    row: std::mem::take(&mut comp.row),
                }
            };
            give_back_row(&mut scratch.row_pool, row);
            let slot = (token & 0xFFFF_FFFF) as usize;
            let finished = {
                let Some(c) = conns.get_mut(slot).and_then(Option::as_mut) else {
                    if let Some(e) = pred.explain {
                        give_back_contribs(&mut scratch.contrib_pool, e.contributions);
                    }
                    continue;
                };
                if c.token != token {
                    // Stale: that connection died mid-predict. Keep the
                    // contribution buffer anyway.
                    if let Some(e) = pred.explain {
                        give_back_contribs(&mut scratch.contrib_pool, e.contributions);
                    }
                    continue;
                }
                c.in_flight -= 1;
                stage(c, seq, Pending::Predict(pred, close, started), ctx, &mut scratch);
                // Pipelined requests beyond the in-flight cap may still
                // be waiting in the parser buffer.
                if !c.close_after_write {
                    process_requests(c, ctx, shared, stopping, &mut scratch);
                }
                flush_conn(c)
            };
            if finished {
                conns[slot] = None;
                free.push(slot);
            }
        }
        scratch.done.clear();

        // Burst boundary: every row this pass could have produced has
        // been submitted, and nothing more can arrive until a response
        // we have not yet written unblocks a client — tell the batcher
        // to stop waiting for company.
        ctx.batcher.kick();

        // 4. New connections (with reuseport the kernel steers each
        // connection to exactly one shard; on the shared-listener
        // fallback all shards race and losers see WouldBlock).
        if listener_polled && fds[1].revents & POLLIN != 0 {
            loop {
                match listener.accept() {
                    Ok((s, _)) => {
                        if s.set_nonblocking(true).is_err() {
                            continue;
                        }
                        let _ = s.set_nodelay(true);
                        let slot = free.pop().unwrap_or_else(|| {
                            conns.push(None);
                            conns.len() - 1
                        });
                        next_gen += 1;
                        conns[slot] = Some(Conn {
                            stream: s,
                            token: (next_gen << 32) | slot as u64,
                            parser: RequestParser::new(),
                            out: VecDeque::new(),
                            in_flight: 0,
                            next_seq: 0,
                            write_seq: 0,
                            stash: std::collections::BTreeMap::new(),
                            close_after_write: false,
                            read_closed: false,
                            started: None,
                        });
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(_) => break,
                }
            }
        }

        // 5. Deadline sweep: partial requests past their budget get 408.
        for slot in 0..conns.len() {
            let finished = {
                let Some(c) = conns.get_mut(slot).and_then(Option::as_mut) else { continue };
                if c.read_closed || !c.parser.has_partial() {
                    continue;
                }
                if c.started.is_none_or(|t0| t0.elapsed() < deadline) {
                    continue;
                }
                // The 408 takes the next sequence slot, so responses to
                // requests that did arrive in time are written first.
                c.read_closed = true;
                let (status, reason, body) = protocol_error_response(&HttpError::Deadline);
                ctx.metrics.on_response(status);
                let seq = c.next_seq;
                c.next_seq += 1;
                stage(c, seq, Pending::Raw(status, reason, body, true), ctx, &mut scratch);
                flush_conn(c)
            };
            if finished {
                conns[slot] = None;
                free.push(slot);
            }
        }

        // 6. Drain on shutdown: close idle connections; exit once none
        // remain (in-flight replies above keep their slots until
        // answered — the batcher outlives the shards).
        if stopping {
            let mut live = 0usize;
            for slot in 0..conns.len() {
                let Some(c) = conns.get(slot).and_then(Option::as_ref) else { continue };
                if c.idle() {
                    conns[slot] = None;
                    free.push(slot);
                } else {
                    live += 1;
                }
            }
            if live == 0 {
                return;
            }
        }
    }
}

/// Return a row vector to the pool (bounded; surplus just drops).
fn give_back_row(pool: &mut Vec<Vec<f64>>, row: Vec<f64>) {
    if pool.len() < ROW_POOL_MAX {
        pool.push(row);
    }
}

/// Return a contribution vector to the pool (bounded; surplus drops).
fn give_back_contribs(pool: &mut Vec<Vec<f64>>, mut contribs: Vec<f64>) {
    if pool.len() < ROW_POOL_MAX {
        contribs.clear();
        pool.push(contribs);
    }
}

/// Drain the socket into the parser, dispatching as requests complete.
fn read_ready(
    c: &mut Conn,
    ctx: &Arc<Ctx>,
    shared: &Arc<ShardShared>,
    stopping: bool,
    scratch: &mut ShardScratch,
) {
    let mut buf = [0u8; 16 * 1024];
    loop {
        match c.stream.read(&mut buf) {
            Ok(0) => {
                c.read_closed = true;
                return;
            }
            Ok(n) => {
                if c.started.is_none() {
                    c.started = Some(Instant::now());
                }
                c.parser.push(&buf[..n]);
                process_requests(c, ctx, shared, stopping, scratch);
                if c.read_closed
                    || c.close_after_write
                    || c.in_flight >= PIPELINE_MAX
                    || c.out.len() >= MAX_OUT_BUFFER
                {
                    return;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => {
                c.read_closed = true;
                c.close_after_write = true;
                return;
            }
        }
    }
}

/// Parse and dispatch every complete request buffered on `c`, admitting
/// up to [`PIPELINE_MAX`] concurrent predictions. Each request takes a
/// sequence number at parse time; [`stage`] re-sequences whatever order
/// answers arrive in. Requests are parsed in place:
/// [`RequestParser::peek`] yields byte ranges, `route` reads them out of
/// the parser window, and only then is the frame consumed.
fn process_requests(
    c: &mut Conn,
    ctx: &Arc<Ctx>,
    shared: &Arc<ShardShared>,
    stopping: bool,
    scratch: &mut ShardScratch,
) {
    while !c.close_after_write && !c.read_closed && c.in_flight < PIPELINE_MAX {
        match c.parser.peek() {
            Ok(Some(frame)) => {
                c.started = None;
                let close = frame.close || stopping;
                let seq = c.next_seq;
                c.next_seq += 1;
                let mut row = scratch.row_pool.pop().unwrap_or_default();
                let routed = {
                    let win = c.parser.window();
                    route(
                        frame.method,
                        frame.method_bytes(win),
                        frame.path_bytes(win),
                        frame.body(win),
                        ctx,
                        &mut row,
                    )
                };
                c.parser.consume(frame.wire_len());
                match routed {
                    Routed::Done(status, reason, body) => {
                        give_back_row(&mut scratch.row_pool, row);
                        ctx.metrics.on_response(status);
                        stage(c, seq, Pending::Raw(status, reason, body, close), ctx, scratch);
                    }
                    Routed::Predict | Routed::Explain => {
                        let explain = match routed {
                            Routed::Explain => Some(scratch.contrib_pool.pop().unwrap_or_default()),
                            _ => None,
                        };
                        let sink = ShardSink {
                            shared: shared.clone(),
                            token: c.token,
                            seq,
                            close,
                            started: Instant::now(),
                        };
                        match ctx.batcher.submit_with(row, explain, sink) {
                            Ok(()) => c.in_flight += 1,
                            Err(e) => {
                                let (status, reason, body) = submit_error_response(&e);
                                ctx.metrics.on_response(status);
                                stage(
                                    c,
                                    seq,
                                    Pending::Raw(status, reason, body, close),
                                    ctx,
                                    scratch,
                                );
                            }
                        }
                    }
                }
                if close {
                    // `Connection: close` marks the final request; stop
                    // reading, let the sequenced answers drain.
                    c.read_closed = true;
                }
            }
            Ok(None) => {
                if c.parser.has_partial() && c.started.is_none() {
                    c.started = Some(Instant::now());
                }
                return;
            }
            Err(e) => {
                c.read_closed = true;
                let (status, reason, body) = protocol_error_response(&e);
                ctx.metrics.on_response(status);
                let seq = c.next_seq;
                c.next_seq += 1;
                stage(c, seq, Pending::Raw(status, reason, body, true), ctx, scratch);
                return;
            }
        }
    }
}

/// Write as much of `out` as the socket takes right now — both halves of
/// the ring in one `writev(2)`, so a pipelined burst of responses costs
/// one syscall per wakeup instead of one per response. Returns `true`
/// when the connection is finished (drained + told to close, peer gone,
/// or write error) and its slot should be recycled.
fn flush_conn(c: &mut Conn) -> bool {
    while !c.out.is_empty() {
        let (front, back) = c.out.as_slices();
        match writev_fds(c.stream.as_raw_fd(), front, back) {
            Ok(0) => return true,
            Ok(n) => {
                c.out.drain(..n);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return false,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return true,
        }
    }
    // Out buffer drained: close if asked, or if the peer can no longer
    // send anything and nothing is pending.
    c.close_after_write || (c.read_closed && c.idle())
}

/// A shard completion queue with no poller behind it: batcher unit tests
/// submit through real [`ShardSink`]s and collect the deliveries here.
#[cfg(test)]
pub(crate) struct TestShard {
    shared: Arc<ShardShared>,
    wake_rx: TcpStream,
}

#[cfg(test)]
impl TestShard {
    pub(crate) fn new() -> TestShard {
        let (wake_rx, wake_tx) = waker_pair().expect("waker pair");
        wake_rx.set_nonblocking(false).expect("blocking wake socket");
        wake_rx.set_read_timeout(Some(Duration::from_secs(10))).expect("wake timeout");
        let shared = Arc::new(ShardShared {
            completions: Mutex::new(Vec::new()),
            waker: Waker { tx: wake_tx, pending: AtomicBool::new(false) },
        });
        TestShard { shared, wake_rx }
    }

    /// The reply sink for request number `seq`.
    pub(crate) fn sink(&self, seq: u64) -> ShardSink {
        ShardSink {
            shared: self.shared.clone(),
            token: 0,
            seq,
            close: false,
            started: Instant::now(),
        }
    }

    /// Block until `n` predictions have been delivered (at most ten
    /// seconds between deliveries) and return them in request order.
    pub(crate) fn wait_for(&mut self, n: usize) -> Vec<Prediction> {
        loop {
            // Re-arm before looking, as the shard loop does, so a delivery
            // racing the check pokes the socket again.
            self.shared.waker.pending.store(false, Ordering::Release);
            {
                let mut q = self.shared.completions.lock().expect("completion queue");
                if q.len() >= n {
                    q.sort_by_key(|c| c.seq);
                    return q.drain(..).map(|c| c.pred).collect();
                }
            }
            self.wake_rx.read_exact(&mut [0u8; 1]).expect("a delivery within the timeout");
        }
    }
}
