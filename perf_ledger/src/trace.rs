//! The traced run's span recorders and the per-layer ledger built from
//! them.
//!
//! Spans are recorded from outside the program, around the public entry
//! point of each layer: the monitor's handler closure, the
//! `SharedRestService` the monitor calls upstream, the cloud server's
//! handler, the `AuditRecorder`, and an `EventSink` that reads the
//! monitor's own `PhaseTimings`. The load generator's request id rides
//! an `X-Perf-Id` header to the handler; the handler publishes it in a
//! thread-local for the upstream and audit wrappers (the monitor calls
//! them synchronously on the handler's thread); the upstream wrapper
//! stamps each outgoing request with an `X-Perf-Span` header so the
//! cloud-side span finds its parent. Headers are added only while
//! tracing is on. Spans are kept in memory until the run ends.

use crate::stats::{mean, percentile};
use cm_audit::{AuditLog, AuditRecord, AuditRecorder};
use cm_httpkit::Handler;
use cm_obs::{EventSink, MonitorEvent, PhaseTimings};
use cm_rest::{Json, RestRequest, RestResponse, SharedRestService};
use std::cell::Cell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Header carrying the load generator's request id (traced runs only).
pub const PERF_ID: &str = "X-Perf-Id";
/// Header carrying the upstream span id to the cloud handler.
pub const PERF_SPAN: &str = "X-Perf-Span";

/// Whether wrappers record. Off, they only forward.
static ON: AtomicBool = AtomicBool::new(false);
static NEXT_SPAN: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// Request id the current thread is serving (0 = none).
    static CURRENT: Cell<u64> = const { Cell::new(0) };
}

/// Turn recording on or off. Spans from a window must be taken with
/// [`take`] before the next window starts.
pub fn set_tracing(on: bool) {
    ON.store(on, Ordering::SeqCst);
}

fn on() -> bool {
    ON.load(Ordering::Relaxed)
}

/// One request through the monitor's handler.
#[derive(Debug, Clone, Copy)]
pub struct HandlerSpan {
    /// Request id.
    pub id: u64,
    /// Handler entry.
    pub start: Instant,
    /// Handler return.
    pub end: Instant,
}

/// One upstream call or pipelined batch the monitor made.
#[derive(Debug, Clone, Copy)]
pub struct UpstreamSpan {
    /// Request id the monitor was serving.
    pub parent: u64,
    /// This span's id.
    pub span: u64,
    /// Call start.
    pub start: Instant,
    /// Call return.
    pub end: Instant,
    /// Requests carried.
    pub requests: u32,
    /// Requests that were state probes (not the forwarded request).
    pub probes: u32,
    /// Whether it went through `call_batch`.
    pub batch: bool,
}

/// One request through the cloud server's handler.
#[derive(Debug, Clone, Copy)]
pub struct CloudSpan {
    /// The upstream span that sent it.
    pub span: u64,
    /// Handler entry.
    pub start: Instant,
    /// Handler return.
    pub end: Instant,
}

/// One audit enqueue, or one monitor event with its phase timings.
#[derive(Debug, Clone, Copy)]
pub struct ChildSpan<T> {
    /// Request id the monitor was serving.
    pub parent: u64,
    /// The recorded value.
    pub value: T,
}

/// Everything recorded in one window.
#[derive(Debug, Default)]
pub struct Spans {
    /// Handler spans.
    pub handler: Vec<HandlerSpan>,
    /// Upstream spans.
    pub upstream: Vec<UpstreamSpan>,
    /// Cloud spans.
    pub cloud: Vec<CloudSpan>,
    /// Audit enqueue durations.
    pub audit: Vec<ChildSpan<Duration>>,
    /// Monitor phase timings.
    pub phases: Vec<ChildSpan<PhaseTimings>>,
}

struct Recorder {
    handler: Mutex<Vec<HandlerSpan>>,
    upstream: Mutex<Vec<UpstreamSpan>>,
    cloud: Mutex<Vec<CloudSpan>>,
    audit: Mutex<Vec<ChildSpan<Duration>>>,
    phases: Mutex<Vec<ChildSpan<PhaseTimings>>>,
}

static RECORDER: Recorder = Recorder {
    handler: Mutex::new(Vec::new()),
    upstream: Mutex::new(Vec::new()),
    cloud: Mutex::new(Vec::new()),
    audit: Mutex::new(Vec::new()),
    phases: Mutex::new(Vec::new()),
};

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Take every span recorded so far.
pub fn take() -> Spans {
    Spans {
        handler: std::mem::take(&mut *lock(&RECORDER.handler)),
        upstream: std::mem::take(&mut *lock(&RECORDER.upstream)),
        cloud: std::mem::take(&mut *lock(&RECORDER.cloud)),
        audit: std::mem::take(&mut *lock(&RECORDER.audit)),
        phases: std::mem::take(&mut *lock(&RECORDER.phases)),
    }
}

fn header_u64(request: &RestRequest, name: &str) -> u64 {
    request
        .header_value(name)
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// Wrap the monitor's handler closure: a span per request, and the
/// request id published to the wrappers the monitor calls.
pub fn monitor_handler(inner: Arc<Handler>) -> Arc<Handler> {
    Arc::new(move |request: RestRequest| {
        if !on() {
            return inner(request);
        }
        let id = header_u64(&request, PERF_ID);
        CURRENT.with(|c| c.set(id));
        let start = Instant::now();
        let response = inner(request);
        let end = Instant::now();
        CURRENT.with(|c| c.set(0));
        lock(&RECORDER.handler).push(HandlerSpan { id, start, end });
        response
    })
}

/// Wrap the cloud server's handler: a span per request, parented by the
/// upstream span header.
pub fn cloud_handler(inner: Arc<Handler>) -> Arc<Handler> {
    Arc::new(move |request: RestRequest| {
        if !on() {
            return inner(request);
        }
        let span = header_u64(&request, PERF_SPAN);
        let start = Instant::now();
        let response = inner(request);
        let end = Instant::now();
        lock(&RECORDER.cloud).push(CloudSpan { span, start, end });
        response
    })
}

/// The upstream service the monitor calls, timed. `call_batch` is
/// forwarded as a batch, so pipelined probing is kept.
#[derive(Debug)]
pub struct TracedUpstream<S>(pub S);

impl<S: SharedRestService> TracedUpstream<S> {
    fn timed(
        &self,
        requests: &[RestRequest],
        batch: bool,
        send: impl FnOnce(&S, &[RestRequest]) -> Vec<RestResponse>,
    ) -> Vec<RestResponse> {
        let span = NEXT_SPAN.fetch_add(1, Ordering::Relaxed);
        let stamped: Vec<RestRequest> = requests
            .iter()
            .map(|r| r.clone().header(PERF_SPAN, span.to_string()))
            .collect();
        let probes = requests
            .iter()
            .filter(|r| r.header_value(PERF_ID).is_none())
            .count();
        let start = Instant::now();
        let responses = send(&self.0, &stamped);
        let end = Instant::now();
        lock(&RECORDER.upstream).push(UpstreamSpan {
            parent: CURRENT.with(Cell::get),
            span,
            start,
            end,
            requests: requests.len() as u32,
            probes: probes as u32,
            batch,
        });
        responses
    }
}

impl<S: SharedRestService> SharedRestService for TracedUpstream<S> {
    fn call(&self, request: &RestRequest) -> RestResponse {
        if !on() {
            return self.0.call(request);
        }
        let mut responses = self.timed(std::slice::from_ref(request), false, |s, r| {
            vec![s.call(&r[0])]
        });
        responses.pop().expect("one response per call")
    }

    fn call_batch(&self, requests: &[RestRequest]) -> Vec<RestResponse> {
        if !on() {
            return self.0.call_batch(requests);
        }
        self.timed(requests, true, |s, r| s.call_batch(r))
    }
}

/// The audit log, with each enqueue timed.
#[derive(Debug)]
pub struct TracedAudit(pub Arc<AuditLog>);

impl AuditRecorder for TracedAudit {
    fn record(&self, record: AuditRecord) {
        if !on() {
            return self.0.record(record);
        }
        let start = Instant::now();
        self.0.record(record);
        let value = start.elapsed();
        lock(&RECORDER.audit).push(ChildSpan {
            parent: CURRENT.with(Cell::get),
            value,
        });
    }
}

/// Event sink that keeps each event's phase timings.
#[derive(Debug, Default)]
pub struct PhaseSink;

impl EventSink for PhaseSink {
    fn emit(&self, event: MonitorEvent) {
        if on() {
            lock(&RECORDER.phases).push(ChildSpan {
                parent: CURRENT.with(Cell::get),
                value: event.timings,
            });
        }
    }
}

/// The client's view of one traced request.
#[derive(Debug, Clone, Copy)]
pub struct ClientRecord {
    /// Request id.
    pub id: u64,
    /// Scheduled send time.
    pub due: Instant,
    /// When its bytes were written.
    pub written: Instant,
    /// When its reply was parsed.
    pub parsed: Instant,
}

/// Per-request self times, the rows of the ledger.
#[derive(Debug, Clone, Copy, Default)]
struct Row {
    lag: f64,
    pre_handler: f64,
    post_handler: f64,
    call: f64,
    core_self: f64,
    audit: f64,
    wire: f64,
    cloud: f64,
    upstream_requests: f64,
    probes: f64,
    cloud_calls: f64,
}

/// The per-layer numbers of one traced window, in microseconds unless
/// named otherwise.
#[derive(Debug, Clone, Default)]
pub struct Ledger {
    /// Client records in the window.
    pub requests: usize,
    /// Requests whose every span was found.
    pub joined: usize,
    /// Mean scheduled-to-parsed time over all requests.
    pub e2e_mean_us: f64,
    /// Named metrics, in report order.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// |mean e2e − Σ mean layer self times| / mean e2e.
    pub reconcile_err: f64,
    /// Layer self-time means that sum to the end-to-end mean.
    pub layers: Vec<(&'static str, f64)>,
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Signed `later − earlier` in microseconds: a handler can start before
/// the writing thread takes its after-write timestamp.
fn since(later: Instant, earlier: Instant) -> f64 {
    match later.checked_duration_since(earlier) {
        Some(d) => us(d),
        None => -us(earlier - later),
    }
}

fn pct_us(values: &[f64], p: f64) -> f64 {
    let mut ns: Vec<u64> = values.iter().map(|v| (v * 1e3) as u64).collect();
    ns.sort_unstable();
    percentile(&ns, p).map_or(f64::NAN, |v| v as f64 / 1e3)
}

/// Join one window's client records with its spans into the ledger.
#[must_use]
pub fn build_ledger(client: &[ClientRecord], spans: &Spans) -> Ledger {
    let handlers: HashMap<u64, &HandlerSpan> = spans.handler.iter().map(|h| (h.id, h)).collect();
    let mut rows: HashMap<u64, Row> = HashMap::with_capacity(client.len());
    for c in client {
        let Some(h) = handlers.get(&c.id) else {
            continue;
        };
        let call = since(h.end, h.start);
        rows.insert(
            c.id,
            Row {
                lag: since(c.written, c.due),
                pre_handler: since(h.start, c.written),
                post_handler: since(c.parsed, h.end),
                call,
                core_self: call,
                ..Row::default()
            },
        );
    }
    let mut span_parent: HashMap<u64, u64> = HashMap::with_capacity(spans.upstream.len());
    for u in &spans.upstream {
        span_parent.insert(u.span, u.parent);
        if let Some(row) = rows.get_mut(&u.parent) {
            let d = since(u.end, u.start);
            row.core_self -= d;
            row.wire += d;
            row.upstream_requests += f64::from(u.requests);
            row.probes += f64::from(u.probes);
        }
    }
    for c in &spans.cloud {
        let parent = span_parent.get(&c.span).copied().unwrap_or(0);
        if let Some(row) = rows.get_mut(&parent) {
            let d = since(c.end, c.start);
            row.wire -= d;
            row.cloud += d;
            row.cloud_calls += 1.0;
        }
    }
    for a in &spans.audit {
        if let Some(row) = rows.get_mut(&a.parent) {
            row.core_self -= us(a.value);
            row.audit += us(a.value);
        }
    }
    let rows: Vec<Row> = rows.into_values().collect();
    let col = |f: fn(&Row) -> f64| rows.iter().map(f).collect::<Vec<f64>>();
    let avg = |f: fn(&Row) -> f64| mean(rows.iter().map(f));

    // The layer means come from each layer's own spans, summed over the
    // window and divided by the requests sent in it, so a span that was
    // lost or never joined to its request shows as a reconciliation
    // error instead of vanishing from both sides.
    let n = client.len().max(1) as f64;
    let parented = |parent: u64| parent != 0;
    let handler_total: f64 = spans.handler.iter().map(|h| since(h.end, h.start)).sum();
    let upstream_total: f64 = spans
        .upstream
        .iter()
        .filter(|u| parented(u.parent))
        .map(|u| since(u.end, u.start))
        .sum();
    let cloud_total: f64 = spans
        .cloud
        .iter()
        .filter(|c| span_parent.get(&c.span).is_some_and(|&p| parented(p)))
        .map(|c| since(c.end, c.start))
        .sum();
    let audit_total: f64 = spans
        .audit
        .iter()
        .filter(|a| parented(a.parent))
        .map(|a| us(a.value))
        .sum();
    let e2e_mean_us = mean(client.iter().map(|c| since(c.parsed, c.due)));
    let layers = vec![
        (
            "loadgen.lag",
            mean(client.iter().map(|c| since(c.written, c.due))),
        ),
        (
            "httpkit.server",
            rows.iter()
                .map(|r| r.pre_handler + r.post_handler)
                .sum::<f64>()
                / n,
        ),
        (
            "core.self",
            (handler_total - upstream_total - audit_total) / n,
        ),
        ("audit.record", audit_total / n),
        ("httpkit.client.wire", (upstream_total - cloud_total) / n),
        ("cloudsim.call", cloud_total / n),
    ];
    let layer_sum: f64 = layers.iter().map(|(_, v)| v).sum();
    let reconcile_err = if e2e_mean_us > 0.0 {
        (e2e_mean_us - layer_sum).abs() / e2e_mean_us
    } else {
        f64::NAN
    };

    let phase =
        |f: fn(&PhaseTimings) -> Duration| mean(spans.phases.iter().map(|p| us(f(&p.value))));
    let single: Vec<&UpstreamSpan> = spans.upstream.iter().filter(|u| !u.batch).collect();
    let batches: Vec<&UpstreamSpan> = spans.upstream.iter().filter(|u| u.batch).collect();
    let metrics = vec![
        (
            "loadgen.gen_lag_us.p99".to_string(),
            pct_us(&col(|r| r.lag), 99.0),
            "us",
        ),
        (
            "httpkit.server.pre_handler_us.p50".into(),
            pct_us(&col(|r| r.pre_handler), 50.0),
            "us",
        ),
        (
            "httpkit.server.pre_handler_us.p99".into(),
            pct_us(&col(|r| r.pre_handler), 99.0),
            "us",
        ),
        (
            "httpkit.server.post_handler_us".into(),
            avg(|r| r.post_handler),
            "us",
        ),
        (
            "core.call_us.p50".into(),
            pct_us(&col(|r| r.call), 50.0),
            "us",
        ),
        (
            "core.call_us.p99".into(),
            pct_us(&col(|r| r.call), 99.0),
            "us",
        ),
        ("core.self_us".into(), avg(|r| r.core_self), "us"),
        ("core.snapshot_us".into(), phase(|p| p.snapshot), "us"),
        ("core.pre_check_us".into(), phase(|p| p.pre_check), "us"),
        ("core.post_check_us".into(), phase(|p| p.post_check), "us"),
        ("core.forward_us".into(), phase(|p| p.forward), "us"),
        (
            "core.upstream_per_request".into(),
            avg(|r| r.upstream_requests),
            "count",
        ),
        ("core.probe_per_request".into(), avg(|r| r.probes), "count"),
        (
            "httpkit.client.call_us".into(),
            mean(single.iter().map(|u| since(u.end, u.start))),
            "us",
        ),
        (
            "httpkit.client.batch_us".into(),
            mean(batches.iter().map(|u| since(u.end, u.start))),
            "us",
        ),
        (
            "httpkit.client.batch_size".into(),
            mean(batches.iter().map(|u| f64::from(u.requests))),
            "count",
        ),
        ("httpkit.client.wire_us".into(), avg(|r| r.wire), "us"),
        (
            "cloudsim.call_us".into(),
            mean(spans.cloud.iter().map(|c| since(c.end, c.start))),
            "us",
        ),
        (
            "cloudsim.calls_per_request".into(),
            avg(|r| r.cloud_calls),
            "count",
        ),
        (
            "audit.record_us".into(),
            mean(spans.audit.iter().map(|a| us(a.value))),
            "us",
        ),
    ];
    Ledger {
        requests: client.len(),
        joined: rows.len(),
        e2e_mean_us,
        metrics,
        reconcile_err,
        layers,
    }
}

/// A compact JSON rendering of the first `limit` requests' spans, times
/// in microseconds from `origin`.
#[must_use]
pub fn sample_json(client: &[ClientRecord], spans: &Spans, origin: Instant, limit: usize) -> Json {
    let t = |i: Instant| Json::Float(since(i, origin));
    let pair = |a: Instant, b: Instant| Json::Array(vec![t(a), t(b)]);
    let wanted: HashMap<u64, usize> = client
        .iter()
        .take(limit)
        .enumerate()
        .map(|(i, c)| (c.id, i))
        .collect();
    let mut rows: Vec<Vec<(&str, Json)>> = client
        .iter()
        .take(limit)
        .map(|c| {
            vec![
                ("id", Json::Int(c.id as i64)),
                ("due", t(c.due)),
                ("written", t(c.written)),
                ("parsed", t(c.parsed)),
            ]
        })
        .collect();
    let mut span_row: HashMap<u64, usize> = HashMap::new();
    for h in &spans.handler {
        if let Some(&i) = wanted.get(&h.id) {
            rows[i].push(("handler", pair(h.start, h.end)));
        }
    }
    let mut upstream: HashMap<usize, Vec<Json>> = HashMap::new();
    for u in &spans.upstream {
        if let Some(&i) = wanted.get(&u.parent) {
            span_row.insert(u.span, i);
            upstream.entry(i).or_default().push(Json::Array(vec![
                t(u.start),
                t(u.end),
                Json::Int(i64::from(u.requests)),
                Json::Int(i64::from(u.probes)),
            ]));
        }
    }
    let mut cloud: HashMap<usize, Vec<Json>> = HashMap::new();
    for c in &spans.cloud {
        if let Some(&i) = span_row.get(&c.span) {
            cloud.entry(i).or_default().push(pair(c.start, c.end));
        }
    }
    for (i, v) in upstream {
        rows[i].push(("upstream", Json::Array(v)));
    }
    for (i, v) in cloud {
        rows[i].push(("cloud", Json::Array(v)));
    }
    Json::Array(rows.into_iter().map(Json::object).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One request: written 10 us after due, 5 us to the handler, a
    /// 100 us handler holding a 40 us upstream batch (25 us of it in the
    /// cloud) and a 3 us audit enqueue, 7 us back to the client.
    fn request(id: u64, t0: Instant, spans: &mut Spans) -> ClientRecord {
        let at = |us: u64| t0 + Duration::from_micros(us);
        spans.handler.push(HandlerSpan {
            id,
            start: at(15),
            end: at(115),
        });
        spans.upstream.push(UpstreamSpan {
            parent: id,
            span: id * 10,
            start: at(30),
            end: at(70),
            requests: 3,
            probes: 2,
            batch: true,
        });
        spans.cloud.push(CloudSpan {
            span: id * 10,
            start: at(40),
            end: at(65),
        });
        spans.audit.push(ChildSpan {
            parent: id,
            value: Duration::from_micros(3),
        });
        ClientRecord {
            id,
            due: at(0),
            written: at(10),
            parsed: at(122),
        }
    }

    fn layer(ledger: &Ledger, name: &str) -> f64 {
        ledger
            .layers
            .iter()
            .find(|(n, _)| *n == name)
            .expect(name)
            .1
    }

    #[test]
    fn self_times_partition_the_end_to_end_time() {
        let t0 = Instant::now();
        let mut spans = Spans::default();
        let client: Vec<ClientRecord> = (1..=4).map(|id| request(id, t0, &mut spans)).collect();
        let ledger = build_ledger(&client, &spans);
        assert_eq!(ledger.joined, 4);
        let close = |a: f64, b: f64| (a - b).abs() < 1e-6;
        assert!(close(ledger.e2e_mean_us, 122.0));
        assert!(close(layer(&ledger, "loadgen.lag"), 10.0));
        assert!(close(layer(&ledger, "httpkit.server"), 12.0));
        assert!(close(layer(&ledger, "core.self"), 57.0));
        assert!(close(layer(&ledger, "audit.record"), 3.0));
        assert!(close(layer(&ledger, "httpkit.client.wire"), 15.0));
        assert!(close(layer(&ledger, "cloudsim.call"), 25.0));
        assert!(ledger.reconcile_err < 1e-9);
    }

    #[test]
    fn a_lost_span_shows_as_a_reconciliation_error() {
        let t0 = Instant::now();
        let mut spans = Spans::default();
        let client: Vec<ClientRecord> = (1..=4).map(|id| request(id, t0, &mut spans)).collect();
        spans.handler.pop();
        let ledger = build_ledger(&client, &spans);
        assert_eq!(ledger.joined, 3);
        assert!(ledger.reconcile_err > 0.2, "{}", ledger.reconcile_err);
    }
}
