//! The HTTP server: a readiness-driven reactor by default, with the
//! blocking bounded worker pool as the non-Unix engine and the
//! reactor's parity reference.
//!
//! The transport under the monitor-as-network-proxy deployment.
//! [`ServerConfig::transport`] selects between two engines behind one
//! public API:
//!
//! * [`Transport::Reactor`] (default, Unix) — per-core event-loop shards
//!   over non-blocking sockets ([`crate::reactor`]): epoll on Linux,
//!   `poll(2)` elsewhere, with pipelined request draining, vectored
//!   response writes, and all connection deadlines on a timer wheel.
//! * [`Transport::WorkerPool`] — each accepted connection is served by
//!   one of `N` long-lived blocking worker threads fed from a bounded
//!   queue (the accept loop blocks when it is full, so the thread count
//!   is constant under any load). Workers run an HTTP/1.1 keep-alive
//!   loop per connection and serialise responses into one reusable
//!   per-worker buffer ([`crate::wire::serialize_response`]).
//!
//! Both engines honour `Connection: close` / `keep-alive`, cap the
//! requests served per connection, guard against slow clients, and close
//! idle connections. Graceful shutdown sets an atomic flag, wakes the
//! accept loop with a dummy connection, and joins every thread
//! deterministically.

use crate::wire::{
    read_request_buf, serialize_response, wants_close, write_request, ConnectionMode, WireError,
};
use cm_obs::{Lane, OverloadStats};
use cm_rest::{RestRequest, RestResponse, StatusCode};
use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Handler invoked for each incoming request.
pub type Handler = dyn Fn(RestRequest) -> RestResponse + Send + Sync;

/// Which engine serves connections; see the [module docs](self).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Transport {
    /// Readiness-driven event-loop shards (the default). Falls back to
    /// [`Transport::WorkerPool`] on non-Unix targets.
    #[default]
    Reactor,
    /// Blocking thread-per-in-flight-connection worker pool — the
    /// engine on non-Unix targets, and the reference the reactor is
    /// parity-tested against.
    WorkerPool,
}

/// Readiness backend for [`Transport::Reactor`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReactorBackend {
    /// epoll on Linux, `poll(2)` elsewhere.
    #[default]
    Auto,
    /// Force epoll; binding fails off Linux.
    Epoll,
    /// Force the portable `poll(2)` backend (also how the fallback stays
    /// exercised by tests on Linux).
    Poll,
}

/// Tuning knobs for [`HttpServer`]; see the field docs for defaults.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Connection-serving engine (default [`Transport::Reactor`]).
    pub transport: Transport,
    /// Reactor shards (event-loop threads); 0 = one per available core,
    /// capped at 8 (default 0). Ignored by the worker pool.
    pub shards: usize,
    /// Readiness backend for the reactor (default
    /// [`ReactorBackend::Auto`]). Ignored by the worker pool.
    pub reactor_backend: ReactorBackend,
    /// Worker threads dispatching connections under
    /// [`Transport::WorkerPool`] (default 8). This — plus the accept
    /// thread — is that engine's *entire* thread budget, regardless of
    /// how many connections arrive.
    pub workers: usize,
    /// Requests served on one connection before the server closes it
    /// (default 1024). Bounds how long one client can monopolise a
    /// worker; `1` answers every request with `Connection: close`.
    pub max_requests_per_conn: usize,
    /// How long a connection may sit idle between requests before the
    /// server closes it (default 5s).
    pub idle_timeout: Duration,
    /// Socket read timeout while parsing a request — the slow-client
    /// guard (default 10s, matching the historical per-connection
    /// timeout).
    pub read_timeout: Duration,
    /// Accepted connections queued for dispatch before the accept loop
    /// applies backpressure (default 128).
    pub queue_depth: usize,
    /// Deadline-aware admission and load shedding (reactor transport
    /// only; the worker pool's bounded `queue_depth` handoff is its
    /// backpressure). Disabled by default.
    pub overload: OverloadConfig,
    /// Called for every request shed by overload control, from the shard
    /// thread, *before* the marked 503 is queued. Monitors hook this to
    /// record the shed as a `Degraded` audit verdict so no request is
    /// ever silently dropped.
    pub shed_observer: Option<ShedObserver>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            transport: Transport::Reactor,
            shards: 0,
            reactor_backend: ReactorBackend::Auto,
            workers: 8,
            max_requests_per_conn: 1024,
            idle_timeout: Duration::from_secs(5),
            read_timeout: Duration::from_secs(10),
            queue_depth: 128,
            overload: OverloadConfig::default(),
            shed_observer: None,
        }
    }
}

/// Deadline-aware admission control for the reactor (see
/// [`crate::reactor`]): every parsed request is stamped on arrival and
/// carried through a per-shard run queue with three priority lanes
/// (admin > mutation > read). A request is shed — answered with an
/// immediate marked `503 X-CM-Overload` — when its queue wait has
/// already consumed the deadline budget (serving it would produce a
/// late, worthless answer), when the shard queue is full at enqueue, or
/// when CoDel-style detection sees the queue delay stand above target
/// for a whole interval (bursts are absorbed; standing queues are
/// drained by shedding reads). Admin-lane requests are never shed.
#[derive(Debug, Clone)]
pub struct OverloadConfig {
    /// Master switch (default `false`: every request is admitted and
    /// the run queue is pure FIFO plumbing with zero behaviour change).
    pub enabled: bool,
    /// Queue-wait budget per request: a request that waited this long
    /// before dispatch is already worthless and is shed (default
    /// 500ms).
    pub deadline: Duration,
    /// Per-shard run-queue bound for read-lane requests at enqueue
    /// time; mutations tolerate twice this before shedding, admin is
    /// unbounded (default 1024).
    pub queue_limit: usize,
    /// Share a pre-built stats handle with the server (e.g. so admin
    /// routes can hold it before `bind_with` runs). `None` (default)
    /// lets the server allocate its own, retrievable via
    /// [`HttpServer::overload_stats`].
    pub stats: Option<Arc<OverloadStats>>,
}

impl Default for OverloadConfig {
    fn default() -> Self {
        OverloadConfig {
            enabled: false,
            deadline: Duration::from_millis(500),
            queue_limit: 1024,
            stats: None,
        }
    }
}

/// Why a request was shed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedCause {
    /// The shard run queue was full at enqueue time.
    QueueFull,
    /// The request's queue wait consumed its whole deadline budget.
    BudgetExhausted,
    /// CoDel: queue delay stood above target for a full interval, so
    /// reads shed until the standing queue drains.
    StandingQueue,
}

impl ShedCause {
    /// Stable label for provenance strings and metrics.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            ShedCause::QueueFull => "queue_full",
            ShedCause::BudgetExhausted => "budget_exhausted",
            ShedCause::StandingQueue => "standing_queue",
        }
    }
}

/// Everything a shed observer learns about one shed request.
#[derive(Debug, Clone)]
pub struct ShedDecision {
    /// Lane the request was classified into.
    pub lane: Lane,
    /// How long it had waited when the decision was made (zero for
    /// enqueue-time sheds).
    pub queue_wait: Duration,
    /// The configured deadline budget, for provenance.
    pub budget: Duration,
    /// Which admission rule fired.
    pub cause: ShedCause,
}

/// The boxed callback type a [`ShedObserver`] wraps.
type ShedCallback = Arc<dyn Fn(&RestRequest, &ShedDecision) + Send + Sync>;

/// Callback invoked (on the shard thread) for every shed request.
#[derive(Clone)]
pub struct ShedObserver(ShedCallback);

impl ShedObserver {
    /// Wrap a callback.
    pub fn new(f: impl Fn(&RestRequest, &ShedDecision) + Send + Sync + 'static) -> Self {
        ShedObserver(Arc::new(f))
    }

    /// Invoke the callback.
    pub fn notify(&self, request: &RestRequest, decision: &ShedDecision) {
        (self.0)(request, decision);
    }
}

impl std::fmt::Debug for ShedObserver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("ShedObserver(..)")
    }
}

/// Bounded handoff queue between the accept loop and the workers.
struct ConnQueue {
    inner: Mutex<VecDeque<TcpStream>>,
    not_empty: Condvar,
    not_full: Condvar,
    capacity: usize,
    stop: AtomicBool,
}

impl ConnQueue {
    fn new(capacity: usize) -> Self {
        ConnQueue {
            inner: Mutex::new(VecDeque::new()),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            capacity: capacity.max(1),
            stop: AtomicBool::new(false),
        }
    }

    /// Enqueue a connection, blocking while the queue is full. Dropped
    /// (connection refused semantics) when the server is stopping.
    fn push(&self, stream: TcpStream) {
        let mut q = self.inner.lock().unwrap();
        while q.len() >= self.capacity {
            if self.stop.load(Ordering::SeqCst) {
                return;
            }
            q = self.not_full.wait(q).unwrap();
        }
        if self.stop.load(Ordering::SeqCst) {
            return;
        }
        q.push_back(stream);
        drop(q);
        self.not_empty.notify_one();
    }

    /// Dequeue a connection; `None` once the server is stopping and the
    /// queue has drained.
    fn pop(&self) -> Option<TcpStream> {
        let mut q = self.inner.lock().unwrap();
        loop {
            if let Some(stream) = q.pop_front() {
                drop(q);
                self.not_full.notify_one();
                return Some(stream);
            }
            if self.stop.load(Ordering::SeqCst) {
                return None;
            }
            q = self.not_empty.wait(q).unwrap();
        }
    }

    fn close(&self) {
        self.stop.store(true, Ordering::SeqCst);
        let _guard = self.inner.lock().unwrap();
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }
}

/// Thread-local channel through which a long-poll handler asks a
/// reactor shard to park its connection instead of blocking.
#[derive(Clone, Copy)]
enum ParkSlot {
    /// Not inside a reactor dispatch: parking unavailable.
    Inactive,
    /// Inside a reactor dispatch: a handler may request parking.
    Armed,
    /// The handler asked to park for up to `wait_ms` milliseconds.
    Requested(u64),
}

thread_local! {
    static PARK_SLOT: std::cell::Cell<ParkSlot> = const { std::cell::Cell::new(ParkSlot::Inactive) };
}

/// Run `f` (a handler dispatch) with parking armed; returns the
/// handler's result and the park request it made, if any.
pub(crate) fn with_park_scope<R>(f: impl FnOnce() -> R) -> (R, Option<u64>) {
    PARK_SLOT.set(ParkSlot::Armed);
    let result = f();
    let park = match PARK_SLOT.replace(ParkSlot::Inactive) {
        ParkSlot::Requested(wait_ms) => Some(wait_ms),
        _ => None,
    };
    (result, park)
}

/// Ask the transport to park the current connection for up to `wait_ms`
/// milliseconds instead of blocking inside the handler.
///
/// Returns `true` when the caller is running on a reactor shard, which
/// will then *withhold* the response the handler returns, park the
/// connection on the shard's timer wheel, and re-invoke the handler
/// (same request) every few milliseconds until it stops asking to park —
/// or the wait budget is spent, at which point the latest response is
/// delivered. Long-poll handlers should therefore answer with their
/// *current* state (possibly empty) after this returns `true`, and fall
/// back to blocking with bounded concurrency when it returns `false`
/// (worker-pool transport).
pub fn try_request_park(wait_ms: u64) -> bool {
    PARK_SLOT.with(|slot| {
        if matches!(slot.get(), ParkSlot::Armed | ParkSlot::Requested(_)) {
            slot.set(ParkSlot::Requested(wait_ms));
            true
        } else {
            false
        }
    })
}

/// The engine actually serving connections behind [`HttpServer`].
enum Engine {
    /// Blocking bounded worker pool.
    Pool {
        queue: Arc<ConnQueue>,
        accept_thread: JoinHandle<()>,
        workers: Vec<JoinHandle<()>>,
    },
    /// Readiness-driven reactor shards.
    #[cfg(unix)]
    Reactor(crate::reactor::ReactorEngine),
}

/// A running HTTP server.
pub struct HttpServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    engine: Option<Engine>,
    connections: Arc<AtomicU64>,
    overload: Arc<OverloadStats>,
}

impl std::fmt::Debug for HttpServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HttpServer")
            .field("addr", &self.addr)
            .field("transport", &self.transport())
            .finish()
    }
}

impl HttpServer {
    /// Bind to `addr` (use port 0 for an ephemeral port) and start serving
    /// `handler` with the default [`ServerConfig`].
    ///
    /// # Errors
    ///
    /// Propagates binding errors from the OS.
    pub fn bind(addr: impl ToSocketAddrs, handler: Arc<Handler>) -> std::io::Result<HttpServer> {
        HttpServer::bind_with(addr, handler, ServerConfig::default())
    }

    /// Bind with an explicit [`ServerConfig`].
    ///
    /// # Errors
    ///
    /// Propagates binding errors from the OS.
    pub fn bind_with(
        addr: impl ToSocketAddrs,
        handler: Arc<Handler>,
        config: ServerConfig,
    ) -> std::io::Result<HttpServer> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let connections = Arc::new(AtomicU64::new(0));
        let overload = config
            .overload
            .stats
            .clone()
            .unwrap_or_else(|| Arc::new(OverloadStats::new()));

        let engine = match effective_transport(config.transport) {
            #[cfg(unix)]
            Transport::Reactor => Engine::Reactor(crate::reactor::ReactorEngine::spawn(
                listener,
                handler,
                &config,
                Arc::clone(&stop),
                Arc::clone(&connections),
                Arc::clone(&overload),
            )?),
            #[cfg(not(unix))]
            Transport::Reactor => unreachable!("effective_transport never picks Reactor here"),
            Transport::WorkerPool => {
                let queue = Arc::new(ConnQueue::new(config.queue_depth));
                let worker_count = config.workers.max(1);
                let mut workers = Vec::with_capacity(worker_count);
                for _ in 0..worker_count {
                    let queue = Arc::clone(&queue);
                    let handler = Arc::clone(&handler);
                    let stop = Arc::clone(&stop);
                    let cfg = config.clone();
                    workers.push(std::thread::spawn(move || {
                        // One response buffer per worker, reused across
                        // every request of every connection this worker
                        // serves.
                        let mut resp_buf: Vec<u8> = Vec::with_capacity(4096);
                        while let Some(stream) = queue.pop() {
                            serve_connection(stream, handler.as_ref(), &cfg, &stop, &mut resp_buf);
                        }
                    }));
                }

                let stop_accept = Arc::clone(&stop);
                let queue_accept = Arc::clone(&queue);
                let connections_accept = Arc::clone(&connections);
                let accept_thread = std::thread::spawn(move || {
                    for stream in listener.incoming() {
                        if stop_accept.load(Ordering::SeqCst) {
                            break;
                        }
                        let Ok(stream) = stream else { continue };
                        // Small HTTP responses to a pipelining peer stall
                        // ~40ms each under Nagle + delayed ACK; disable
                        // it like the reactor and the client do.
                        let _ = stream.set_nodelay(true);
                        connections_accept.fetch_add(1, Ordering::Relaxed);
                        queue_accept.push(stream);
                    }
                });
                Engine::Pool {
                    queue,
                    accept_thread,
                    workers,
                }
            }
        };

        Ok(HttpServer {
            addr: local,
            stop,
            engine: Some(engine),
            connections,
            overload,
        })
    }

    /// Per-lane overload accounting (admissions, sheds, live depths,
    /// queue-delay histogram), shared live with the reactor shards.
    /// All-zero under the worker-pool transport, whose bounded handoff
    /// queue is its backpressure.
    #[must_use]
    pub fn overload_stats(&self) -> Arc<OverloadStats> {
        Arc::clone(&self.overload)
    }

    /// The bound address (useful with ephemeral ports).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Connections accepted so far (excluding the shutdown wake-up).
    /// Keep-alive tests assert reuse through this counter.
    #[must_use]
    pub fn connections_accepted(&self) -> u64 {
        self.connections.load(Ordering::Relaxed)
    }

    /// Number of dispatch threads — worker-pool workers or reactor
    /// shards — the server's constant thread budget (plus one accept
    /// thread), independent of connection count.
    #[must_use]
    pub fn worker_count(&self) -> usize {
        match &self.engine {
            Some(Engine::Pool { workers, .. }) => workers.len(),
            #[cfg(unix)]
            Some(Engine::Reactor(r)) => r.shard_count(),
            None => 0,
        }
    }

    /// The transport actually serving connections (after platform
    /// fallback).
    #[must_use]
    pub fn transport(&self) -> Transport {
        match &self.engine {
            Some(Engine::Pool { .. }) | None => Transport::WorkerPool,
            #[cfg(unix)]
            Some(Engine::Reactor(_)) => Transport::Reactor,
        }
    }

    /// Stop accepting connections and join all threads.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Wake the accept loop with a dummy connection.
        let _ = TcpStream::connect(self.addr);
        match self.engine.take() {
            Some(Engine::Pool {
                queue,
                accept_thread,
                workers,
            }) => {
                let _ = accept_thread.join();
                // Unblock idle workers; busy ones observe the stop flag
                // at their next idle poll tick and finish their
                // in-flight request first.
                queue.close();
                for w in workers {
                    let _ = w.join();
                }
            }
            #[cfg(unix)]
            Some(Engine::Reactor(mut r)) => r.join(),
            None => {}
        }
    }
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        if self.engine.is_some() {
            self.stop_and_join();
        }
    }
}

/// Resolve the configured transport against platform support.
fn effective_transport(requested: Transport) -> Transport {
    match requested {
        Transport::WorkerPool => Transport::WorkerPool,
        #[cfg(unix)]
        Transport::Reactor => Transport::Reactor,
        #[cfg(not(unix))]
        Transport::Reactor => Transport::WorkerPool,
    }
}

/// Granularity at which parked workers re-check the stop flag and the
/// idle deadline while waiting for the next request on a connection.
const IDLE_POLL: Duration = Duration::from_millis(50);

fn is_timeout(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

/// Outcome of waiting for the next request on a kept-alive connection.
enum IdleWait {
    /// Bytes are available; parse a request.
    Ready,
    /// EOF, idle timeout, stop flag, or socket error: close.
    Close,
}

/// Wait — politely, in short polls — until the client sends the first
/// byte of its next request, the idle timeout elapses, the peer closes,
/// or the server begins shutting down.
fn await_next_request(
    stream: &TcpStream,
    reader: &mut impl BufRead,
    idle_timeout: Duration,
    stop: &AtomicBool,
) -> IdleWait {
    let _ = stream.set_read_timeout(Some(
        IDLE_POLL.min(idle_timeout).max(Duration::from_millis(1)),
    ));
    let deadline = Instant::now() + idle_timeout;
    loop {
        if stop.load(Ordering::SeqCst) {
            return IdleWait::Close;
        }
        match reader.fill_buf() {
            Ok([]) => return IdleWait::Close, // clean EOF between requests
            Ok(_) => return IdleWait::Ready,
            Err(e) if is_timeout(&e) || e.kind() == std::io::ErrorKind::Interrupted => {
                if Instant::now() >= deadline {
                    return IdleWait::Close;
                }
            }
            Err(_) => return IdleWait::Close,
        }
    }
}

/// Serve one connection: a keep-alive loop when the config allows it,
/// a single request otherwise.
fn serve_connection(
    stream: TcpStream,
    handler: &Handler,
    cfg: &ServerConfig,
    stop: &AtomicBool,
    resp_buf: &mut Vec<u8>,
) {
    // Read through a persistent buffered reader over a shared borrow of
    // the stream (writes go through another shared borrow), so buffered
    // bytes of a pipelined next request are never lost between messages.
    let mut reader = BufReader::with_capacity(8 * 1024, &stream);
    let mut served = 0usize;
    while let IdleWait::Ready = await_next_request(&stream, &mut reader, cfg.idle_timeout, stop) {
        // Slow-client guard: each read syscall while parsing must make
        // progress within `read_timeout`.
        let _ = stream.set_read_timeout(Some(cfg.read_timeout));
        let request = match read_request_buf(&mut reader) {
            Ok(request) => request,
            Err(WireError::UnexpectedEof) => break,
            Err(e) => {
                // Malformed framing / oversized message / stalled read:
                // answer 400 and close.
                resp_buf.clear();
                serialize_response(
                    resp_buf,
                    &RestResponse::error(StatusCode::BAD_REQUEST, e.to_string()),
                    ConnectionMode::Close,
                );
                let _ = (&stream).write_all(resp_buf);
                break;
            }
        };
        served += 1;
        let client_close = wants_close(&request.headers);
        let response = handler(request);
        let close =
            client_close || served >= cfg.max_requests_per_conn || stop.load(Ordering::SeqCst);
        resp_buf.clear();
        serialize_response(
            resp_buf,
            &response,
            if close {
                ConnectionMode::Close
            } else {
                ConnectionMode::KeepAlive
            },
        );
        if (&stream).write_all(resp_buf).is_err() {
            return; // peer gone; nothing to drain
        }
        if close {
            break;
        }
    }
    let _ = stream.shutdown(std::net::Shutdown::Write);
    // Drain briefly until the peer closes so it never sees a reset
    // before reading the final response.
    let _ = stream.set_read_timeout(Some(IDLE_POLL));
    let deadline = Instant::now() + Duration::from_secs(1);
    let mut sink = [0u8; 256];
    loop {
        match (&stream).read(&mut sink) {
            Ok(0) => break,
            Ok(_) => {}
            Err(e) if is_timeout(&e) => {
                if Instant::now() >= deadline {
                    break;
                }
            }
            Err(_) => break,
        }
    }
}

/// Send one request to an HTTP server over a fresh connection and read
/// the response (`Connection: close` — the one-shot client). Persistent
/// callers use [`crate::PooledClient`] instead.
///
/// # Errors
///
/// Returns [`WireError`] on connection failure or malformed responses.
pub fn send(addr: impl ToSocketAddrs, request: &RestRequest) -> Result<RestResponse, WireError> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(10)))?;
    write_request(&mut stream, request)?;
    stream.flush()?;
    crate::wire::read_response(&mut stream)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cm_model::HttpMethod;
    use cm_rest::Json;

    fn echo_handler() -> Arc<Handler> {
        Arc::new(|req: RestRequest| {
            RestResponse::ok(Json::object(vec![
                ("method", Json::Str(req.method.to_string())),
                ("path", Json::Str(req.path.clone())),
                (
                    "token",
                    match req.token() {
                        Some(t) => Json::Str(t.to_string()),
                        None => Json::Null,
                    },
                ),
                ("body", req.body.clone().unwrap_or(Json::Null)),
            ]))
        })
    }

    #[test]
    fn serves_round_trips() {
        let server = HttpServer::bind("127.0.0.1:0", echo_handler()).unwrap();
        let addr = server.local_addr();
        let req = RestRequest::new(HttpMethod::Post, "/v3/4/volumes")
            .auth_token("tok-7")
            .json(Json::object(vec![("size", Json::Int(3))]));
        let resp = send(addr, &req).unwrap();
        assert_eq!(resp.status, StatusCode::OK);
        let body = resp.body.unwrap();
        assert_eq!(body.get("method").unwrap().as_str(), Some("POST"));
        assert_eq!(body.get("path").unwrap().as_str(), Some("/v3/4/volumes"));
        assert_eq!(body.get("token").unwrap().as_str(), Some("tok-7"));
        assert_eq!(
            body.get("body").unwrap().get("size").unwrap().as_int(),
            Some(3)
        );
        server.shutdown();
    }

    #[test]
    fn serves_multiple_sequential_requests() {
        let server = HttpServer::bind("127.0.0.1:0", echo_handler()).unwrap();
        let addr = server.local_addr();
        for i in 0..5 {
            let req = RestRequest::new(HttpMethod::Get, format!("/item/{i}"));
            let resp = send(addr, &req).unwrap();
            assert_eq!(
                resp.body.unwrap().get("path").unwrap().as_str(),
                Some(format!("/item/{i}").as_str())
            );
        }
        server.shutdown();
    }

    #[test]
    fn serves_concurrent_requests() {
        let server = HttpServer::bind("127.0.0.1:0", echo_handler()).unwrap();
        let addr = server.local_addr();
        let threads: Vec<_> = (0..8)
            .map(|i| {
                std::thread::spawn(move || {
                    let req = RestRequest::new(HttpMethod::Get, format!("/t/{i}"));
                    send(addr, &req).unwrap().status
                })
            })
            .collect();
        for t in threads {
            assert_eq!(t.join().unwrap(), StatusCode::OK);
        }
        server.shutdown();
    }

    #[test]
    fn connection_to_stopped_server_fails() {
        let server = HttpServer::bind("127.0.0.1:0", echo_handler()).unwrap();
        let addr = server.local_addr();
        server.shutdown();
        let req = RestRequest::new(HttpMethod::Get, "/");
        // Either the connect fails or the read does; both are errors.
        assert!(send(addr, &req).is_err());
    }

    #[test]
    fn one_shot_clients_get_connection_close() {
        // `send` still speaks `Connection: close`; the server honours it
        // and each request costs one accepted connection.
        let server = HttpServer::bind("127.0.0.1:0", echo_handler()).unwrap();
        let addr = server.local_addr();
        for _ in 0..3 {
            let resp = send(addr, &RestRequest::new(HttpMethod::Get, "/x")).unwrap();
            assert_eq!(resp.status, StatusCode::OK);
            assert!(crate::wire::wants_close(&resp.headers));
        }
        assert_eq!(server.connections_accepted(), 3);
        server.shutdown();
    }

    #[test]
    fn worker_pool_is_bounded_and_joined() {
        let config = ServerConfig {
            transport: Transport::WorkerPool,
            workers: 3,
            ..ServerConfig::default()
        };
        let server = HttpServer::bind_with("127.0.0.1:0", echo_handler(), config).unwrap();
        assert_eq!(server.worker_count(), 3);
        let addr = server.local_addr();
        // More concurrent one-shot connections than workers: all served,
        // worker count unchanged.
        let threads: Vec<_> = (0..12)
            .map(|i| {
                std::thread::spawn(move || {
                    send(addr, &RestRequest::new(HttpMethod::Get, format!("/{i}")))
                        .unwrap()
                        .status
                })
            })
            .collect();
        for t in threads {
            assert_eq!(t.join().unwrap(), StatusCode::OK);
        }
        assert_eq!(server.worker_count(), 3);
        server.shutdown();
    }
}
