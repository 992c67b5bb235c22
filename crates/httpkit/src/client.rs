//! Persistent-connection HTTP client: a per-address pool of keep-alive
//! connections, and the [`RemoteService`] adapter the monitor uses to
//! reach a backend cloud over the network.
//!
//! Every monitored call used to pay one TCP connect/teardown per hop
//! *and* one more per snapshot probe (~12 backend connections for a
//! single pre+post cycle). [`PooledClient`] amortises all of that: it
//! keeps a bounded stack of idle keep-alive connections per address,
//! health-checks them on checkout, reconnects exactly once when a pooled
//! connection turns out to be stale (the backend restarted or timed the
//! connection out), and offers [`PooledClient::batch`] to issue a whole
//! snapshot's probe GETs back-to-back over a single connection.
//!
//! On top of the pool sits the resilience layer ([`crate::resilience`]):
//! every logical request carries a **deadline budget** that caps connect
//! and read timeouts across all attempts, idempotent (GET) requests are
//! retried with **capped, seeded-jitter exponential backoff**, and each
//! backend address has a **circuit breaker** so a down cloud sheds
//! requests in microseconds instead of burning a connect timeout per
//! call.

use crate::resilience::{
    Admission, BackoffSchedule, BreakerState, CircuitBreaker, DeadlineBudget, TransportError,
    TransportStats,
};
use crate::wire::{read_response_buf, serialize_request, wants_close, ConnectionMode, WireError};
use cm_model::HttpMethod;
use cm_rest::{
    RestRequest, RestResponse, SharedRestService, StatusCode, OVERLOAD_HEADER,
    TRANSPORT_FAULT_HEADER,
};
use std::collections::HashMap;
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Lock a mutex, recovering from poisoning: a panic in one requester
/// must not wedge the shared pool/breaker state for every later caller.
fn plock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Tuning knobs for [`PooledClient`].
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Idle connections retained per address (default 8); checkins
    /// beyond this close the connection instead.
    pub max_idle_per_addr: usize,
    /// Socket read timeout while waiting for a response (default 10s).
    /// Each attempt's effective timeout is additionally capped by the
    /// request's remaining deadline budget.
    pub read_timeout: Duration,
    /// Wall-clock budget for one logical request including all retries
    /// and backoff sleeps (default 10s).
    pub request_deadline: Duration,
    /// Retries after the first failed attempt, idempotent (GET)
    /// requests only (default 2; 0 disables retries).
    pub max_retries: u32,
    /// Base delay of the exponential backoff (default 25ms).
    pub backoff_base: Duration,
    /// Upper bound on any single backoff delay (default 1s).
    pub backoff_cap: Duration,
    /// Seed for the deterministic backoff jitter.
    pub jitter_seed: u64,
    /// Consecutive fresh-connection failures that trip a backend's
    /// circuit breaker (default 5; 0 disables the breaker).
    pub breaker_threshold: u32,
    /// How long a tripped breaker stays open before admitting one
    /// half-open probe (default 500ms).
    pub breaker_cooldown: Duration,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            max_idle_per_addr: 8,
            read_timeout: Duration::from_secs(10),
            request_deadline: Duration::from_secs(10),
            max_retries: 2,
            backoff_base: Duration::from_millis(25),
            backoff_cap: Duration::from_secs(1),
            jitter_seed: 0xC10D_F00D,
            breaker_threshold: 5,
            breaker_cooldown: Duration::from_millis(500),
        }
    }
}

/// One pooled connection: a persistent buffered reader over the stream
/// plus a reusable request-serialisation buffer.
struct Conn {
    reader: BufReader<TcpStream>,
    buf: Vec<u8>,
    /// The read timeout currently programmed into the socket, tracked
    /// so per-attempt re-capping only pays a syscall when it changes.
    read_timeout: Duration,
    /// When this connection was last checked in (or opened). A
    /// connection idle for less than [`WARM_CHECKOUT_WINDOW`] skips the
    /// three-syscall [`Conn::healthy`] peek on checkout.
    idle_since: Instant,
}

/// Idle span under which a pooled connection is trusted without the
/// checkout health peek. Far below any server idle timeout in practice;
/// the rare conn that did die inside the window is caught by the
/// existing stale-reuse recovery (free retry / reconnect-once), so the
/// skip trades a vanishing failure-path cost for three fewer syscalls
/// on every hot-path checkout.
const WARM_CHECKOUT_WINDOW: Duration = Duration::from_millis(50);

impl Conn {
    /// Open a fresh connection, capping both the connect and the read
    /// timeout by `limit` (the request's remaining deadline budget).
    fn connect(addr: SocketAddr, cfg: &ClientConfig, limit: Duration) -> Result<Conn, WireError> {
        let timeout = effective_timeout(cfg.read_timeout, limit);
        let stream = TcpStream::connect_timeout(&addr, timeout)?;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            reader: BufReader::with_capacity(8 * 1024, stream),
            buf: Vec::with_capacity(1024),
            read_timeout: timeout,
            idle_since: Instant::now(),
        })
    }

    /// One request/response exchange over this connection. Returns the
    /// response and whether the server asked for the connection to close.
    fn roundtrip(&mut self, request: &RestRequest) -> Result<(RestResponse, bool), WireError> {
        self.buf.clear();
        serialize_request(&mut self.buf, request, ConnectionMode::KeepAlive);
        let stream = self.reader.get_mut();
        stream.write_all(&self.buf)?;
        stream.flush()?;
        let response = read_response_buf(&mut self.reader)?;
        let close = wants_close(&response.headers);
        Ok((response, close))
    }

    /// Write every request in `requests` back-to-back in **one** wire
    /// payload, then read the responses in order — HTTP/1.1 pipelining,
    /// the snapshot-probe fast path. A reactor-transport server drains
    /// the whole batch per readiness event (one read, N handlers, one
    /// `writev`), so a batch costs ~one round trip instead of N.
    ///
    /// Committed responses are pushed into `responses`. Returns how many
    /// requests were answered before the server asked for the connection
    /// to close — fewer than `requests.len()` means the server recycled
    /// the connection mid-batch (`max_requests_per_conn`) and the caller
    /// should continue the remainder on a fresh one.
    fn pipeline(
        &mut self,
        requests: &[RestRequest],
        responses: &mut Vec<RestResponse>,
    ) -> Result<usize, WireError> {
        self.buf.clear();
        for request in requests {
            serialize_request(&mut self.buf, request, ConnectionMode::KeepAlive);
        }
        let stream = self.reader.get_mut();
        stream.write_all(&self.buf)?;
        stream.flush()?;
        for served in 1..=requests.len() {
            let response = read_response_buf(&mut self.reader)?;
            let close = wants_close(&response.headers);
            responses.push(response);
            if close {
                return Ok(served);
            }
        }
        Ok(requests.len())
    }

    /// Is this idle connection still usable? A healthy idle keep-alive
    /// connection has nothing to read (the peek would block); readable
    /// EOF means the server closed it, stray bytes mean a desynchronised
    /// exchange — both are discarded.
    fn healthy(&self) -> bool {
        if !self.reader.buffer().is_empty() {
            return false;
        }
        let stream = self.reader.get_ref();
        if stream.set_nonblocking(true).is_err() {
            return false;
        }
        let mut probe = [0u8; 1];
        let verdict = match stream.peek(&mut probe) {
            Ok(0) => false,                                               // peer closed
            Ok(_) => false,                                               // stray bytes
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => true, // quiet = healthy
            Err(_) => false,
        };
        stream.set_nonblocking(false).is_ok() && verdict
    }
}

/// A per-attempt socket timeout: the configured read timeout capped by
/// the remaining deadline budget, floored so the OS accepts it.
fn effective_timeout(read_timeout: Duration, remaining: Duration) -> Duration {
    read_timeout.min(remaining).max(Duration::from_millis(1))
}

/// How one attempt on one connection ended.
enum AttemptError {
    /// A *reused* pooled connection died between checkout and exchange —
    /// a staleness artefact, not a backend-health signal. Retried free.
    Stale,
    /// The deadline budget ran out before the attempt could start.
    Deadline,
    /// A fresh connection failed: the backend is genuinely unwell.
    Fresh(WireError),
}

/// A thread-safe pool of keep-alive connections, keyed by address, with
/// per-address circuit breakers and deadline-budgeted retries.
pub struct PooledClient {
    config: ClientConfig,
    pools: Mutex<HashMap<SocketAddr, Vec<Conn>>>,
    breakers: Mutex<HashMap<SocketAddr, CircuitBreaker>>,
    /// Number of breakers currently *not* pristine (closed with zero
    /// failures). While this is zero — the overwhelmingly common case —
    /// admission and success bookkeeping skip the breaker map entirely,
    /// keeping the per-request hot path lock-free. The count is advisory:
    /// a momentarily stale read only delays breaker bookkeeping by one
    /// in-flight request, never corrupts it, because all state changes
    /// still happen under the map lock.
    turbulence: AtomicU64,
    backoff: Mutex<BackoffSchedule>,
    stats: TransportStats,
    opened: AtomicU64,
    reused: AtomicU64,
}

impl std::fmt::Debug for PooledClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PooledClient")
            .field("opened", &self.opened.load(Ordering::Relaxed))
            .field("reused", &self.reused.load(Ordering::Relaxed))
            .finish()
    }
}

impl Default for PooledClient {
    fn default() -> Self {
        PooledClient::new(ClientConfig::default())
    }
}

impl PooledClient {
    /// A pool with the given configuration.
    #[must_use]
    pub fn new(config: ClientConfig) -> Self {
        let backoff =
            BackoffSchedule::new(config.backoff_base, config.backoff_cap, config.jitter_seed);
        PooledClient {
            config,
            pools: Mutex::new(HashMap::new()),
            breakers: Mutex::new(HashMap::new()),
            turbulence: AtomicU64::new(0),
            backoff: Mutex::new(backoff),
            stats: TransportStats::default(),
            opened: AtomicU64::new(0),
            reused: AtomicU64::new(0),
        }
    }

    /// The configuration this pool runs with.
    #[must_use]
    pub fn config(&self) -> &ClientConfig {
        &self.config
    }

    /// TCP connections this client has opened so far — keep-alive tests
    /// assert reuse through this counter.
    #[must_use]
    pub fn connections_opened(&self) -> u64 {
        self.opened.load(Ordering::Relaxed)
    }

    /// Exchanges served by a pooled (reused) connection.
    #[must_use]
    pub fn connections_reused(&self) -> u64 {
        self.reused.load(Ordering::Relaxed)
    }

    /// Idle connections currently pooled for `addr`.
    #[must_use]
    pub fn idle_count(&self, addr: SocketAddr) -> usize {
        plock(&self.pools).get(&addr).map_or(0, Vec::len)
    }

    /// Resilience counters (retries, sheds, breaker transitions).
    #[must_use]
    pub fn stats(&self) -> &TransportStats {
        &self.stats
    }

    /// Current breaker state per backend this client has talked to,
    /// sorted by address for stable output.
    #[must_use]
    pub fn breaker_snapshot(&self) -> Vec<(SocketAddr, BreakerState)> {
        let breakers = plock(&self.breakers);
        let mut states: Vec<_> = breakers.iter().map(|(a, b)| (*a, b.state())).collect();
        states.sort_by_key(|(a, _)| a.to_string());
        states
    }

    /// Ask `addr`'s breaker whether this request may proceed.
    fn admit(&self, addr: SocketAddr) -> Admission {
        if self.config.breaker_threshold == 0 || self.turbulence.load(Ordering::Relaxed) == 0 {
            // Every breaker is pristine, so admission cannot be anything
            // but Allow — skip the map lock. Entries are created lazily
            // by `record_failure`; admitting Open→HalfOpen keeps a
            // breaker turbulent, so the slow path below stays reachable
            // whenever it could matter.
            return Admission::Allow;
        }
        let mut breakers = plock(&self.breakers);
        let breaker = breakers.entry(addr).or_insert_with(|| {
            CircuitBreaker::new(self.config.breaker_threshold, self.config.breaker_cooldown)
        });
        let admission = breaker.admit(Instant::now());
        match admission {
            Admission::Probe => {
                self.stats
                    .breaker_half_opened
                    .fetch_add(1, Ordering::Relaxed);
            }
            Admission::Shed => {
                self.stats.sheds.fetch_add(1, Ordering::Relaxed);
            }
            Admission::Allow => {}
        }
        admission
    }

    /// Record a successful exchange with `addr`'s breaker.
    fn record_success(&self, addr: SocketAddr) {
        if self.config.breaker_threshold == 0 || self.turbulence.load(Ordering::Relaxed) == 0 {
            // A pristine breaker is a fixpoint under success; nothing to
            // record, no lock to take.
            return;
        }
        let mut breakers = plock(&self.breakers);
        if let Some(breaker) = breakers.get_mut(&addr) {
            let was_turbulent = !breaker.is_pristine();
            if breaker.on_success() {
                self.stats.breaker_closed.fetch_add(1, Ordering::Relaxed);
            }
            if was_turbulent {
                self.turbulence.fetch_sub(1, Ordering::Relaxed);
            }
        }
    }

    /// Record a fresh-connection failure with `addr`'s breaker.
    fn record_failure(&self, addr: SocketAddr) {
        if self.config.breaker_threshold == 0 {
            return;
        }
        let mut breakers = plock(&self.breakers);
        let breaker = breakers.entry(addr).or_insert_with(|| {
            CircuitBreaker::new(self.config.breaker_threshold, self.config.breaker_cooldown)
        });
        let was_pristine = breaker.is_pristine();
        if breaker.on_failure(Instant::now()) {
            self.stats.breaker_opened.fetch_add(1, Ordering::Relaxed);
        }
        if was_pristine {
            self.turbulence.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Check out a healthy pooled connection (`reused = true`) or open a
    /// fresh one, capping connect/read timeouts by `limit`.
    ///
    /// A pooled connection may have been programmed under an earlier
    /// request's budget, so its read timeout is re-capped here to what
    /// *this* request can still afford — otherwise a stalling backend
    /// could hold a reused connection for the previous caller's full
    /// `read_timeout`, blowing straight through `limit`.
    fn checkout(&self, addr: SocketAddr, limit: Duration) -> Result<(Conn, bool), WireError> {
        loop {
            let candidate = plock(&self.pools).get_mut(&addr).and_then(Vec::pop);
            // A warm connection (checked in moments ago, nothing
            // buffered) is trusted without the health peek.
            let usable = |conn: &Conn| {
                (conn.idle_since.elapsed() < WARM_CHECKOUT_WINDOW
                    && conn.reader.buffer().is_empty())
                    || conn.healthy()
            };
            match candidate {
                Some(mut conn) if usable(&conn) => {
                    let timeout = effective_timeout(self.config.read_timeout, limit);
                    if timeout != conn.read_timeout {
                        // Pay the syscall only when the value changes; a
                        // socket we cannot re-arm is not safe to reuse.
                        if conn
                            .reader
                            .get_ref()
                            .set_read_timeout(Some(timeout))
                            .is_err()
                        {
                            continue;
                        }
                        conn.read_timeout = timeout;
                    }
                    self.reused.fetch_add(1, Ordering::Relaxed);
                    return Ok((conn, true));
                }
                Some(_) => continue, // stale: drop and try the next one
                None => {
                    self.opened.fetch_add(1, Ordering::Relaxed);
                    return Ok((Conn::connect(addr, &self.config, limit)?, false));
                }
            }
        }
    }

    fn checkin(&self, addr: SocketAddr, mut conn: Conn) {
        conn.idle_since = Instant::now();
        let mut pools = plock(&self.pools);
        let pool = pools.entry(addr).or_default();
        if pool.len() < self.config.max_idle_per_addr {
            pool.push(conn);
        }
    }

    /// One attempt: check out (or open) a connection within the budget
    /// and run a single exchange on it.
    fn attempt_once(
        &self,
        addr: SocketAddr,
        request: &RestRequest,
        budget: &DeadlineBudget,
    ) -> Result<RestResponse, AttemptError> {
        let Some(remaining) = budget.remaining() else {
            return Err(AttemptError::Deadline);
        };
        let (mut conn, reused) = match self.checkout(addr, remaining) {
            Ok(pair) => pair,
            Err(e) => return Err(AttemptError::Fresh(e)),
        };
        match conn.roundtrip(request) {
            Ok((response, close)) => {
                if !close {
                    self.checkin(addr, conn);
                }
                Ok(response)
            }
            // The pool's health check is a point-in-time peek: a
            // connection can still die between checkout and write.
            // Retry exactly once, on a connection we know is fresh.
            Err(_) if reused => Err(AttemptError::Stale),
            Err(e) => Err(AttemptError::Fresh(e)),
        }
    }

    /// Send one request, reusing a pooled connection when possible.
    ///
    /// The exchange runs under the configured per-request deadline
    /// budget. Idempotent (GET) requests that fail on a fresh connection
    /// are retried up to `max_retries` times with capped exponential
    /// backoff and deterministic jitter, re-consulting the breaker
    /// before each retry; non-GET requests are never re-sent once a
    /// fresh connection has failed. A stale *pooled* connection still
    /// surfaces as reconnect-once for any method — the request provably
    /// never reached the backend.
    ///
    /// # Errors
    ///
    /// [`TransportError::Wire`] when a fresh connection fails and no
    /// retry is permitted; [`TransportError::CircuitOpen`] when the
    /// backend's breaker sheds the request; and
    /// [`TransportError::DeadlineExceeded`] when the budget runs out
    /// (possibly mid-retry, before an affordable backoff remains).
    pub fn request(
        &self,
        addr: SocketAddr,
        request: &RestRequest,
    ) -> Result<RestResponse, TransportError> {
        self.request_on_budget(
            addr,
            request,
            &DeadlineBudget::new(self.config.request_deadline),
        )
    }

    /// As [`PooledClient::request`], but drawing on a caller-supplied
    /// deadline budget instead of starting a fresh one — this is how a
    /// batch's per-request fallback keeps a whole snapshot inside one
    /// logical deadline instead of granting every re-issued probe its
    /// own full budget.
    ///
    /// # Errors
    ///
    /// As [`PooledClient::request`].
    pub fn request_on_budget(
        &self,
        addr: SocketAddr,
        request: &RestRequest,
        budget: &DeadlineBudget,
    ) -> Result<RestResponse, TransportError> {
        let retryable = request.method == HttpMethod::Get;
        let mut attempt: u32 = 0;
        let mut need_admission = true;
        let mut probe = false;
        loop {
            if need_admission {
                probe = match self.admit(addr) {
                    Admission::Allow => false,
                    Admission::Probe => true,
                    Admission::Shed => return Err(TransportError::CircuitOpen { addr }),
                };
                need_admission = false;
            }
            match self.attempt_once(addr, request, budget) {
                Ok(response) => {
                    self.record_success(addr);
                    return Ok(response);
                }
                // Keep the current admission: the stale retry is part of
                // the same attempt (the backend never saw the request).
                Err(AttemptError::Stale) => continue,
                Err(AttemptError::Deadline) => {
                    self.stats
                        .deadline_exhausted
                        .fetch_add(1, Ordering::Relaxed);
                    // An exhausted budget says nothing about backend
                    // health, so it normally leaves the breaker alone —
                    // but an in-flight half-open probe MUST resolve, or
                    // the breaker would stay HalfOpen and shed every
                    // later request. A probe that could not finish
                    // within budget re-trips the breaker to Open.
                    if probe {
                        self.record_failure(addr);
                    }
                    return Err(TransportError::DeadlineExceeded {
                        budget: budget.budget(),
                    });
                }
                Err(AttemptError::Fresh(e)) => {
                    self.record_failure(addr);
                    if probe || !retryable || attempt >= self.config.max_retries {
                        return Err(e.into());
                    }
                    let delay = plock(&self.backoff).delay(attempt);
                    if !budget.affords(delay) {
                        self.stats
                            .deadline_exhausted
                            .fetch_add(1, Ordering::Relaxed);
                        return Err(TransportError::DeadlineExceeded {
                            budget: budget.budget(),
                        });
                    }
                    std::thread::sleep(delay);
                    self.stats.retries.fetch_add(1, Ordering::Relaxed);
                    attempt += 1;
                    // The breaker may have opened (or entered half-open)
                    // while we slept — re-admit before retrying.
                    need_admission = true;
                }
            }
        }
    }

    /// Issue `requests` back-to-back over a **single** connection — the
    /// snapshot-probe fast path: one monitored call's pre+post probe
    /// cycle reuses one backend connection instead of opening one per
    /// GET. Responses come back in request order. If the server closes
    /// the connection mid-batch (`max_requests_per_conn`), the remainder
    /// continues on one fresh connection.
    ///
    /// The whole batch shares one deadline budget and one breaker
    /// admission; only a *fresh-connection* failure counts against the
    /// breaker — a reused connection dying mid-batch or an exhausted
    /// budget is no evidence of backend ill health.
    ///
    /// # Errors
    ///
    /// As [`PooledClient::request`]; a stale pooled connection is retried
    /// once from the top of the batch before the first response commits.
    pub fn batch(
        &self,
        addr: SocketAddr,
        requests: &[RestRequest],
    ) -> Result<Vec<RestResponse>, TransportError> {
        let budget = DeadlineBudget::new(self.config.request_deadline);
        let probe = match self.admit(addr) {
            Admission::Shed => return Err(TransportError::CircuitOpen { addr }),
            Admission::Probe => true,
            Admission::Allow => false,
        };
        let mut responses = Vec::with_capacity(requests.len());
        match self.batch_on_budget(addr, requests, &budget, &mut responses) {
            Ok(()) => {
                self.record_success(addr);
                Ok(responses)
            }
            Err(e) => {
                self.settle_batch_failure(addr, probe, &e);
                Err(e.into_transport())
            }
        }
    }

    /// [`PooledClient::batch`] with a per-request fallback: always
    /// returns exactly one entry per request, in request order. Committed
    /// batch responses are kept; after a mid-batch failure only the
    /// *unanswered tail* is re-issued, each request drawing on what is
    /// left of the **same** deadline budget — so one logical snapshot
    /// costs at most one `request_deadline` of wall clock, never
    /// `batch + N × request_deadline`. Requests the transport could not
    /// answer carry their [`TransportError`] instead of a response.
    pub fn batch_settled(
        &self,
        addr: SocketAddr,
        requests: &[RestRequest],
    ) -> Vec<Result<RestResponse, TransportError>> {
        let budget = DeadlineBudget::new(self.config.request_deadline);
        let probe = match self.admit(addr) {
            Admission::Shed => {
                return requests
                    .iter()
                    .map(|_| Err(TransportError::CircuitOpen { addr }))
                    .collect();
            }
            Admission::Probe => true,
            Admission::Allow => false,
        };
        let mut committed = Vec::with_capacity(requests.len());
        let outcome = self.batch_on_budget(addr, requests, &budget, &mut committed);
        let mut settled: Vec<Result<RestResponse, TransportError>> =
            committed.into_iter().map(Ok).collect();
        match outcome {
            Ok(()) => self.record_success(addr),
            Err(e) => {
                self.settle_batch_failure(addr, probe, &e);
                // Re-issue only the unanswered tail on the shared budget.
                // Once the budget (or the breaker, after the recorded
                // failure) gives out, the remaining entries fail fast
                // without touching the network.
                for request in &requests[settled.len()..] {
                    settled.push(self.request_on_budget(addr, request, &budget));
                }
            }
        }
        settled
    }

    /// Feed a failed batch's outcome to the breaker: only fresh-
    /// connection failures indict the backend. A soft failure (exhausted
    /// budget, reused connection dying mid-batch) records nothing —
    /// unless this batch was the half-open probe, which must resolve
    /// one way or the other lest the breaker shed forever.
    fn settle_batch_failure(&self, addr: SocketAddr, probe: bool, error: &BatchError) {
        match error {
            BatchError::Fresh(_) => self.record_failure(addr),
            BatchError::Soft(_) if probe => self.record_failure(addr),
            BatchError::Soft(_) => {}
        }
    }

    /// Run the batch, pushing each committed response into `responses`
    /// (so callers keep the answered prefix even when the batch dies
    /// mid-flight).
    fn batch_on_budget(
        &self,
        addr: SocketAddr,
        requests: &[RestRequest],
        budget: &DeadlineBudget,
        responses: &mut Vec<RestResponse>,
    ) -> Result<(), BatchError> {
        let remaining = || {
            budget.remaining().ok_or_else(|| {
                self.stats
                    .deadline_exhausted
                    .fetch_add(1, Ordering::Relaxed);
                BatchError::Soft(TransportError::DeadlineExceeded {
                    budget: budget.budget(),
                })
            })
        };
        let fresh = |e: WireError| BatchError::Fresh(e.into());
        let committed_at_entry = responses.len();
        let (mut conn, mut reused) = self.checkout(addr, remaining()?).map_err(fresh)?;
        if requests.is_empty() {
            self.checkin(addr, conn);
            return Ok(());
        }
        let mut done = 0;
        while done < requests.len() {
            match conn.pipeline(&requests[done..], responses) {
                Ok(served) => {
                    done += served;
                    if done < requests.len() {
                        // The server asked to close mid-batch (connection
                        // recycling): the unanswered tail was discarded
                        // unread, so re-pipelining it is safe. Continue
                        // on another connection.
                        conn = self.checkout(addr, remaining()?).map_err(fresh)?.0;
                        reused = false;
                    } else {
                        self.checkin(addr, conn);
                        return Ok(());
                    }
                }
                Err(e) => {
                    // Reconnect-once applies only before any response
                    // committed — afterwards a retry would re-issue a
                    // probe the server already answered.
                    if reused && responses.len() == committed_at_entry {
                        self.opened.fetch_add(1, Ordering::Relaxed);
                        conn = Conn::connect(addr, &self.config, remaining()?).map_err(fresh)?;
                        reused = false;
                    } else if reused {
                        // A reused keep-alive connection died after
                        // committing responses: a staleness artefact of
                        // the pool, not a backend-health signal.
                        return Err(BatchError::Soft(e.into()));
                    } else {
                        return Err(fresh(e));
                    }
                }
            }
        }
        Ok(())
    }
}

/// How a batch attempt failed — split so the breaker only ever hears
/// about failures that actually indict the backend.
enum BatchError {
    /// A fresh-connection failure: the backend is genuinely unwell.
    Fresh(TransportError),
    /// An exhausted deadline budget or a reused connection dying
    /// mid-batch: says nothing about backend health.
    Soft(TransportError),
}

impl BatchError {
    fn into_transport(self) -> TransportError {
        match self {
            BatchError::Fresh(e) | BatchError::Soft(e) => e,
        }
    }
}

/// A [`cm_rest::SharedRestService`] adapter that forwards every request
/// to a remote HTTP server — this is how the monitor wraps a private
/// cloud reachable only over the network (the paper's deployment, where
/// the monitor runs on the laptop and OpenStack in VirtualBox).
///
/// The adapter holds a shared [`PooledClient`], so forwards and
/// snapshot probes reuse keep-alive connections; a stale pooled
/// connection surfaces as a silent reconnect-once, and only a failure on
/// a *fresh* connection becomes an error response. Transport failures
/// are synthesised as **marked** gateway responses
/// ([`RestResponse::transport_fault`]): `502` for a wire failure, `503`
/// for a request shed by an open circuit breaker, `504` for an
/// exhausted deadline budget — so the monitor can tell "the path is
/// sick" apart from "the cloud denied the request".
///
/// The marker is a *trust boundary*: this adapter strips
/// [`TRANSPORT_FAULT_HEADER`] from every response that actually arrived
/// over the wire, so only responses synthesised by the monitor's own
/// client ever carry it. A misbehaving backend cannot set the header
/// itself to masquerade as transport weather and dodge the monitor's
/// post-condition checks.
#[derive(Debug, Clone)]
pub struct RemoteService {
    addr: SocketAddr,
    client: Arc<PooledClient>,
}

impl RemoteService {
    /// Point the adapter at a server address, pooling connections.
    #[must_use]
    pub fn new(addr: SocketAddr) -> Self {
        RemoteService::with_client(addr, Arc::new(PooledClient::default()))
    }

    /// Pooled adapter sharing an existing client (so several services —
    /// or several clones across worker threads — draw from one pool).
    #[must_use]
    pub fn with_client(addr: SocketAddr, client: Arc<PooledClient>) -> Self {
        RemoteService { addr, client }
    }

    /// The connection pool.
    #[must_use]
    pub fn client(&self) -> &Arc<PooledClient> {
        &self.client
    }

    /// Map a transport error to its marked gateway response.
    fn fault_response(error: &TransportError) -> RestResponse {
        let status = match error {
            TransportError::Wire(_) => StatusCode::BAD_GATEWAY,
            TransportError::CircuitOpen { .. } => StatusCode::SERVICE_UNAVAILABLE,
            TransportError::DeadlineExceeded { .. } => StatusCode::GATEWAY_TIMEOUT,
        };
        RestResponse::transport_fault(status, error.to_string())
    }

    /// Enforce the transport-fault trust boundary on a response that
    /// actually arrived over the wire: whatever the peer claims, it
    /// *did* answer, so it must not carry the synthesised-by-transport
    /// marker. Without this scrub a malicious cloud could set the header
    /// itself and have every misdeed written off as transport weather.
    /// The overload-shed marker is scrubbed for the same reason: only
    /// the monitor's own admission control may flag a request as shed,
    /// else a backend 503 could masquerade as local load shedding and
    /// be audited as `Degraded` instead of judged on its merits.
    fn scrub(mut response: RestResponse) -> RestResponse {
        response.headers.retain(|(name, _)| {
            !name.eq_ignore_ascii_case(TRANSPORT_FAULT_HEADER)
                && !name.eq_ignore_ascii_case(OVERLOAD_HEADER)
        });
        response
    }
}

impl SharedRestService for RemoteService {
    fn call(&self, request: &RestRequest) -> RestResponse {
        match self.client.request(self.addr, request) {
            Ok(resp) => Self::scrub(resp),
            Err(e) => Self::fault_response(&e),
        }
    }

    fn call_batch(&self, requests: &[RestRequest]) -> Vec<RestResponse> {
        // One shared deadline budget covers the batch AND any per-request
        // fallback after a mid-batch failure: committed responses are
        // kept, only the unanswered tail is re-issued, and the whole
        // snapshot stays inside one logical request deadline.
        self.client
            .batch_settled(self.addr, requests)
            .into_iter()
            .map(|result| match result {
                Ok(resp) => Self::scrub(resp),
                Err(e) => Self::fault_response(&e),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{Handler, HttpServer};
    use cm_model::HttpMethod;
    use cm_rest::{Json, RestService};

    fn path_echo() -> Arc<Handler> {
        Arc::new(|req: RestRequest| RestResponse::ok(Json::Str(req.path)))
    }

    /// A dead-but-valid local address: bind, read the port, drop the
    /// listener.
    fn dead_addr() -> SocketAddr {
        let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        l.local_addr().unwrap()
    }

    /// A fast-failing config for dead-backend tests.
    fn snappy(threshold: u32) -> ClientConfig {
        ClientConfig {
            read_timeout: Duration::from_millis(500),
            request_deadline: Duration::from_millis(500),
            max_retries: 0,
            backoff_base: Duration::from_millis(1),
            breaker_threshold: threshold,
            breaker_cooldown: Duration::from_millis(100),
            ..ClientConfig::default()
        }
    }

    #[test]
    fn remote_service_forwards() {
        let server = HttpServer::bind("127.0.0.1:0", path_echo()).unwrap();
        let mut remote = RemoteService::new(server.local_addr());
        let resp = remote.handle(&RestRequest::new(HttpMethod::Get, "/ping"));
        assert_eq!(resp.body, Some(Json::Str("/ping".into())));
        assert!(!resp.is_transport_fault());
        server.shutdown();
    }

    #[test]
    fn remote_service_reports_unreachable_as_bad_gateway() {
        let remote =
            RemoteService::with_client(dead_addr(), Arc::new(PooledClient::new(snappy(0))));
        let resp = remote.call(&RestRequest::new(HttpMethod::Get, "/"));
        assert_eq!(resp.status, StatusCode::BAD_GATEWAY);
        assert!(resp.is_transport_fault());
    }

    #[test]
    fn remote_service_reuses_one_connection() {
        let server = HttpServer::bind("127.0.0.1:0", path_echo()).unwrap();
        let remote = RemoteService::new(server.local_addr());
        for i in 0..5 {
            let resp = remote.call(&RestRequest::new(HttpMethod::Get, format!("/{i}")));
            assert_eq!(resp.status, StatusCode::OK);
        }
        assert_eq!(server.connections_accepted(), 1);
        assert_eq!(remote.client().connections_opened(), 1);
        server.shutdown();
    }

    #[test]
    fn call_batch_runs_over_one_connection() {
        let server = HttpServer::bind("127.0.0.1:0", path_echo()).unwrap();
        let remote = RemoteService::new(server.local_addr());
        let requests: Vec<RestRequest> = (0..6)
            .map(|i| RestRequest::new(HttpMethod::Get, format!("/probe/{i}")))
            .collect();
        let responses = remote.call_batch(&requests);
        assert_eq!(responses.len(), 6);
        for (i, resp) in responses.iter().enumerate() {
            assert_eq!(resp.body, Some(Json::Str(format!("/probe/{i}"))));
        }
        assert_eq!(server.connections_accepted(), 1);
        server.shutdown();
    }

    #[test]
    fn breaker_trips_then_sheds_then_recovers_through_one_probe() {
        let addr = dead_addr();
        let client = PooledClient::new(snappy(2));
        let req = RestRequest::new(HttpMethod::Get, "/");
        // Two fresh-connection failures trip the breaker...
        for _ in 0..2 {
            assert!(matches!(
                client.request(addr, &req),
                Err(TransportError::Wire(_))
            ));
        }
        // ...after which requests shed without touching the socket.
        assert!(matches!(
            client.request(addr, &req),
            Err(TransportError::CircuitOpen { .. })
        ));
        let opened_while_shedding = client.connections_opened();
        assert!(matches!(
            client.request(addr, &req),
            Err(TransportError::CircuitOpen { .. })
        ));
        assert_eq!(client.connections_opened(), opened_while_shedding);
        assert_eq!(client.breaker_snapshot(), vec![(addr, BreakerState::Open)]);
        // Backend comes back on the same port after the cooldown: the
        // single half-open probe succeeds and closes the breaker.
        std::thread::sleep(Duration::from_millis(150));
        let server = HttpServer::bind(addr, path_echo());
        let Ok(server) = server else {
            // The OS may reassign the port; the breaker unit tests cover
            // the recovery transition deterministically.
            return;
        };
        let resp = client.request(addr, &req).expect("probe succeeds");
        assert_eq!(resp.status, StatusCode::OK);
        assert_eq!(
            client.breaker_snapshot(),
            vec![(addr, BreakerState::Closed)]
        );
        let stats: std::collections::HashMap<_, _> =
            client.stats().snapshot().into_iter().collect();
        assert_eq!(stats["breaker_opened"], 1);
        assert_eq!(stats["breaker_half_opened"], 1);
        assert_eq!(stats["breaker_closed"], 1);
        assert!(stats["sheds"] >= 2);
        server.shutdown();
    }

    #[test]
    fn non_idempotent_requests_are_never_retried() {
        let addr = dead_addr();
        let mut cfg = snappy(0);
        cfg.max_retries = 3;
        let client = PooledClient::new(cfg);
        let post = RestRequest::new(HttpMethod::Post, "/volumes");
        assert!(matches!(
            client.request(addr, &post),
            Err(TransportError::Wire(_))
        ));
        assert_eq!(client.stats().snapshot()[0], ("retries", 0));
        // The same failure on a GET is retried.
        let get = RestRequest::new(HttpMethod::Get, "/volumes");
        assert!(client.request(addr, &get).is_err());
        assert_eq!(client.stats().snapshot()[0], ("retries", 3));
    }

    #[test]
    fn deadline_exhausts_mid_retry() {
        let addr = dead_addr();
        let mut cfg = snappy(0);
        // First attempt fails fast (connection refused); the first
        // backoff delay alone exceeds what remains of the budget.
        cfg.max_retries = 5;
        cfg.request_deadline = Duration::from_millis(200);
        cfg.backoff_base = Duration::from_millis(400);
        cfg.backoff_cap = Duration::from_millis(400);
        let client = PooledClient::new(cfg);
        let started = Instant::now();
        let result = client.request(addr, &RestRequest::new(HttpMethod::Get, "/"));
        assert!(matches!(
            result,
            Err(TransportError::DeadlineExceeded { .. })
        ));
        assert!(
            started.elapsed() < Duration::from_millis(400),
            "must give up without sleeping an unaffordable backoff"
        );
        let stats: std::collections::HashMap<_, _> =
            client.stats().snapshot().into_iter().collect();
        assert_eq!(stats["deadline_exhausted"], 1);
        assert_eq!(stats["retries"], 0);
    }

    #[test]
    fn shed_batch_surfaces_circuit_open() {
        let addr = dead_addr();
        let client = PooledClient::new(snappy(1));
        let req = RestRequest::new(HttpMethod::Get, "/");
        assert!(client.request(addr, &req).is_err()); // trips (threshold 1)
        assert!(matches!(
            client.batch(addr, std::slice::from_ref(&req)),
            Err(TransportError::CircuitOpen { .. })
        ));
    }

    /// A server that accepts connections and then never answers: reads
    /// stall until the peer's timeout fires. Accepted sockets are parked
    /// (not dropped) so the client sees silence rather than EOF.
    fn stall_server() -> SocketAddr {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || {
            let mut parked = Vec::new();
            while let Ok((sock, _)) = listener.accept() {
                parked.push(sock);
            }
        });
        addr
    }

    #[test]
    fn stalled_half_open_probe_re_trips_instead_of_wedging() {
        let addr = stall_server();
        let cfg = ClientConfig {
            // Socket timeout longer than the budget: under a stall it is
            // the deadline budget that expires, not the read timeout.
            read_timeout: Duration::from_secs(10),
            request_deadline: Duration::from_millis(120),
            max_retries: 0,
            breaker_threshold: 1,
            breaker_cooldown: Duration::from_millis(60),
            ..ClientConfig::default()
        };
        let client = PooledClient::new(cfg);
        // Trip the breaker, then park a connection that passes the
        // checkout health peek but will never answer.
        client.record_failure(addr);
        assert_eq!(client.breaker_snapshot(), vec![(addr, BreakerState::Open)]);
        let conn = Conn::connect(addr, client.config(), Duration::from_secs(1)).unwrap();
        client.checkin(addr, conn);
        std::thread::sleep(Duration::from_millis(80));
        // The half-open probe checks out the stalling connection, burns
        // the whole budget, and its stale retry lands in the Deadline
        // arm. That must RESOLVE the probe by re-tripping to Open...
        let req = RestRequest::new(HttpMethod::Get, "/");
        assert!(matches!(
            client.request(addr, &req),
            Err(TransportError::DeadlineExceeded { .. })
        ));
        assert_eq!(client.breaker_snapshot(), vec![(addr, BreakerState::Open)]);
        // ...so the backend sheds while open...
        assert!(matches!(
            client.request(addr, &req),
            Err(TransportError::CircuitOpen { .. })
        ));
        // ...and is probed again after the cooldown, instead of being
        // shed until process restart.
        std::thread::sleep(Duration::from_millis(80));
        assert!(
            !matches!(
                client.request(addr, &req),
                Err(TransportError::CircuitOpen { .. })
            ),
            "a new probe must reach the network after the cooldown"
        );
    }

    #[test]
    fn call_batch_fallback_shares_one_deadline_budget() {
        let addr = stall_server();
        let client = Arc::new(PooledClient::new(ClientConfig {
            read_timeout: Duration::from_secs(10),
            request_deadline: Duration::from_millis(300),
            max_retries: 0,
            breaker_threshold: 0,
            ..ClientConfig::default()
        }));
        let remote = RemoteService::with_client(addr, client);
        let requests: Vec<RestRequest> = (0..6)
            .map(|i| RestRequest::new(HttpMethod::Get, format!("/probe/{i}")))
            .collect();
        let started = Instant::now();
        let responses = remote.call_batch(&requests);
        let elapsed = started.elapsed();
        assert_eq!(responses.len(), 6);
        for resp in &responses {
            assert!(resp.is_transport_fault());
        }
        // One shared budget bounds the whole snapshot. The old fallback
        // granted each re-issued request a fresh full deadline — with 6
        // probes against this stalling backend that would be ~2.1s of
        // wall clock; the shared budget keeps it to one deadline.
        assert!(
            elapsed < Duration::from_millis(900),
            "batch + fallback must share one deadline, took {elapsed:?}"
        );
    }

    #[test]
    fn batch_deadline_exhaustion_leaves_the_breaker_alone() {
        let addr = stall_server();
        let cfg = ClientConfig {
            read_timeout: Duration::from_secs(10),
            request_deadline: Duration::from_millis(120),
            max_retries: 0,
            breaker_threshold: 1,
            breaker_cooldown: Duration::from_millis(100),
            ..ClientConfig::default()
        };
        let client = PooledClient::new(cfg);
        // A pooled connection the server holds open but never answers.
        let conn = Conn::connect(addr, client.config(), Duration::from_secs(1)).unwrap();
        client.checkin(addr, conn);
        let req = RestRequest::new(HttpMethod::Get, "/");
        // The reused connection stalls the budget away; the reconnect-
        // once then finds the deadline exhausted. Neither says anything
        // about backend health, so a threshold-1 breaker must NOT trip.
        assert!(matches!(
            client.batch(addr, std::slice::from_ref(&req)),
            Err(TransportError::DeadlineExceeded { .. })
        ));
        assert!(client.breaker_snapshot().is_empty());
        let stats: std::collections::HashMap<_, _> =
            client.stats().snapshot().into_iter().collect();
        assert_eq!(stats["breaker_opened"], 0);
        assert!(stats["deadline_exhausted"] >= 1);
    }

    /// Read one HTTP request's header block (probe GETs carry no body).
    fn read_header_block(reader: &mut impl std::io::BufRead) -> bool {
        let mut line = String::new();
        loop {
            line.clear();
            match reader.read_line(&mut line) {
                Ok(0) | Err(_) => return false,
                Ok(_) if line == "\r\n" || line == "\n" => return true,
                Ok(_) => {}
            }
        }
    }

    #[test]
    fn batch_fallback_reissues_only_the_unanswered_tail() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let served = Arc::new(AtomicU64::new(0));
        let counter = Arc::clone(&served);
        std::thread::spawn(move || {
            let mut first = true;
            while let Ok((mut sock, _)) = listener.accept() {
                // First connection: answer exactly one request, then
                // drop the socket mid-batch. Later connections: answer
                // everything.
                let quota = if first { 1 } else { u64::MAX };
                first = false;
                let counter = Arc::clone(&counter);
                std::thread::spawn(move || {
                    let mut reader = BufReader::new(sock.try_clone().unwrap());
                    for _ in 0..quota {
                        if !read_header_block(&mut reader) {
                            return;
                        }
                        counter.fetch_add(1, Ordering::SeqCst);
                        let body = "{}";
                        let resp = format!(
                            "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n\
                             Content-Length: {}\r\nConnection: keep-alive\r\n\r\n{body}",
                            body.len(),
                        );
                        if sock.write_all(resp.as_bytes()).is_err() {
                            return;
                        }
                    }
                });
            }
        });
        let cfg = ClientConfig {
            request_deadline: Duration::from_secs(5),
            max_retries: 0,
            breaker_threshold: 1,
            breaker_cooldown: Duration::from_millis(100),
            ..ClientConfig::default()
        };
        let client = PooledClient::new(cfg);
        // Prime the pool so the batch starts on a *reused* connection.
        let conn = Conn::connect(addr, client.config(), Duration::from_secs(1)).unwrap();
        client.checkin(addr, conn);
        let requests: Vec<RestRequest> = (0..3)
            .map(|i| RestRequest::new(HttpMethod::Get, format!("/probe/{i}")))
            .collect();
        let settled = client.batch_settled(addr, &requests);
        assert_eq!(settled.len(), 3);
        for result in &settled {
            assert_eq!(result.as_ref().unwrap().status, StatusCode::OK);
        }
        // The answered prefix was kept: the server saw each probe
        // exactly once. (The old fallback re-issued the whole batch,
        // answering the first probe twice.)
        assert_eq!(served.load(Ordering::SeqCst), 3);
        // A reused connection dying after a committed response is pool
        // staleness, not backend ill health: threshold-1 must not trip.
        assert!(client.breaker_snapshot().is_empty());
    }

    #[test]
    fn wire_responses_cannot_spoof_the_transport_fault_marker() {
        // A misbehaving backend that marks its own answers as transport
        // faults, hoping the monitor writes its misdeeds off as weather.
        let server = HttpServer::bind(
            "127.0.0.1:0",
            Arc::new(|_req: RestRequest| {
                RestResponse::error(StatusCode::SERVICE_UNAVAILABLE, "spoofed")
                    .header(TRANSPORT_FAULT_HEADER, "spoofed")
            }),
        )
        .unwrap();
        let remote = RemoteService::new(server.local_addr());
        let resp = remote.call(&RestRequest::new(HttpMethod::Get, "/"));
        assert_eq!(resp.status, StatusCode::SERVICE_UNAVAILABLE);
        assert!(
            !resp.is_transport_fault(),
            "a wire response must never carry the transport-fault marker"
        );
        let batch = remote.call_batch(&[RestRequest::new(HttpMethod::Get, "/a")]);
        assert!(batch.iter().all(|r| !r.is_transport_fault()));
        server.shutdown();
    }

    #[test]
    fn wire_responses_cannot_spoof_the_overload_shed_marker() {
        // A backend 503 dressed up as local load shedding must not be
        // audited as an overload-shed `Degraded`; strip the marker.
        let server = HttpServer::bind(
            "127.0.0.1:0",
            Arc::new(|_req: RestRequest| {
                RestResponse::error(StatusCode::SERVICE_UNAVAILABLE, "spoofed")
                    .header(OVERLOAD_HEADER, "spoofed")
            }),
        )
        .unwrap();
        let remote = RemoteService::new(server.local_addr());
        let resp = remote.call(&RestRequest::new(HttpMethod::Get, "/"));
        assert_eq!(resp.status, StatusCode::SERVICE_UNAVAILABLE);
        assert!(
            !resp.is_overload_shed(),
            "a wire response must never carry the overload-shed marker"
        );
        let batch = remote.call_batch(&[RestRequest::new(HttpMethod::Get, "/b")]);
        assert!(batch.iter().all(|r| !r.is_overload_shed()));
        server.shutdown();
    }
}
