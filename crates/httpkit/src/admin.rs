//! Admin observability endpoints for a monitor proxy.
//!
//! [`AdminRoutes`] intercepts the reserved `/-/` path space in front of
//! an application handler:
//!
//! * `GET /-/metrics` — the monitor's [`cm_obs::MetricsRegistry`] as
//!   JSON (verdict / requirement / route counters, phase latency
//!   histograms with p50/p95/p99);
//! * `GET /-/events?tail=N` — the most recent `N` structured
//!   [`cm_obs::MonitorEvent`]s from the event sink (default 32), oldest
//!   first, plus the count of events dropped by the bounded buffer;
//! * `GET /-/health` — liveness plus the transport's resilience state
//!   (circuit-breaker state per backend, retry/shed/transition
//!   counters), when a [`PooledClient`] is attached via
//!   [`AdminRoutes::with_transport`], and a machine-readable `overload`
//!   block (per-lane queue depths, admitted/shed counters, queue-delay
//!   percentiles) when overload state is attached via
//!   [`AdminRoutes::with_overload`];
//! * `GET /-/events/stream?from=N&max=M&wait_ms=T` — long-poll tail of
//!   the durable audit log, when a [`cm_obs::TailStream`] is attached
//!   via [`AdminRoutes::with_stream`]. Each batch reports the resume
//!   cursor (`next`) and how many records a lagging consumer missed
//!   (`lagged`), so reconnects resume from the last acked offset and a
//!   slow reader never blocks the writer. On the reactor transport a
//!   `wait_ms` long-poll parks the connection on the shard's timer
//!   wheel ([`crate::try_request_park`]) instead of occupying a thread;
//!   on the worker pool at most [`DEFAULT_PARKED_POLLERS`] polls may
//!   block workers concurrently (see [`AdminRoutes::with_parked_cap`]).
//!
//! Every other request falls through to the wrapped handler, so the
//! endpoints add no cost to the monitored path beyond one prefix check.

use crate::client::PooledClient;
use crate::resilience::BreakerState;
use crate::server::Handler;
use cm_obs::{EventSink, MetricsRegistry, OverloadStats, TailStream};
use cm_rest::{Json, RestRequest, RestResponse, StatusCode};
use std::sync::Arc;

/// Events returned by `GET /-/events` when no `tail` is given.
pub const DEFAULT_EVENT_TAIL: usize = 32;

/// Records returned per `GET /-/events/stream` batch when no `max` is
/// given.
pub const DEFAULT_STREAM_BATCH: usize = 64;

/// Upper bound on `wait_ms` for `/-/events/stream` long-polls, so a
/// client cannot pin a server worker indefinitely.
pub const MAX_STREAM_WAIT_MS: u64 = 30_000;

/// Default cap on concurrently *blocking* long-pollers when the server
/// runs the worker-pool transport (where each parked poll occupies a
/// worker thread for its full wait). Pollers beyond the cap get an
/// immediate (possibly empty) batch instead of a wait. On the reactor
/// transport parking is free — connections wait on the shard's timer
/// wheel — so this cap never applies there.
pub const DEFAULT_PARKED_POLLERS: usize = 4;

/// The reserved admin path prefix.
pub const ADMIN_PREFIX: &str = "/-/";

/// Serves `/-/metrics`, `/-/events` and `/-/health` from a monitor's
/// observability handles.
#[derive(Debug, Clone)]
pub struct AdminRoutes {
    metrics: Arc<MetricsRegistry>,
    events: Arc<dyn EventSink>,
    transport: Option<Arc<PooledClient>>,
    stream: Option<Arc<dyn TailStream>>,
    overload: Option<Arc<OverloadStats>>,
    /// Long-pollers currently blocking a worker thread, bounded by
    /// `parked_cap` (shared across clones so `wrap` keeps the bound).
    parked_pollers: Arc<std::sync::atomic::AtomicUsize>,
    parked_cap: usize,
}

impl AdminRoutes {
    /// Admin routes over the given registry and sink (clone the `Arc`s
    /// out of `CloudMonitor::metrics()` / `CloudMonitor::events()`).
    #[must_use]
    pub fn new(metrics: Arc<MetricsRegistry>, events: Arc<dyn EventSink>) -> Self {
        AdminRoutes {
            metrics,
            events,
            transport: None,
            stream: None,
            overload: None,
            parked_pollers: Arc::new(std::sync::atomic::AtomicUsize::new(0)),
            parked_cap: DEFAULT_PARKED_POLLERS,
        }
    }

    /// Builder: cap the number of `/-/events/stream` long-polls allowed
    /// to *block a worker thread* concurrently (worker-pool transport
    /// only; default [`DEFAULT_PARKED_POLLERS`]). `0` disables blocking
    /// waits entirely.
    #[must_use]
    pub fn with_parked_cap(mut self, cap: usize) -> Self {
        self.parked_cap = cap;
        self
    }

    /// Builder: attach a durable-log tail (e.g. `cm_audit::AuditLog`) so
    /// `GET /-/events/stream` serves committed audit records.
    #[must_use]
    pub fn with_stream(mut self, stream: Arc<dyn TailStream>) -> Self {
        self.stream = Some(stream);
        self
    }

    /// Builder: attach the backend transport so `/-/health` can report
    /// per-backend breaker state and `/-/metrics` gains a `transport`
    /// section with retry/shed/breaker-transition counters.
    #[must_use]
    pub fn with_transport(mut self, transport: Arc<PooledClient>) -> Self {
        self.transport = Some(transport);
        self
    }

    /// Builder: attach the reactor's overload stats so `/-/health` grows
    /// a machine-readable `overload` block (per-lane queue depths, shed
    /// rate, queue-delay percentiles) and `/-/metrics` gains an
    /// `overload` section. One poll of `/-/health` then answers "is
    /// this node shedding, and how hard".
    #[must_use]
    pub fn with_overload(mut self, stats: Arc<OverloadStats>) -> Self {
        self.overload = Some(stats);
        self
    }

    /// The transport's resilience counters as a JSON object.
    fn transport_json(client: &PooledClient) -> Json {
        Json::object(
            client
                .stats()
                .snapshot()
                .into_iter()
                .map(|(k, v)| (k, Json::Int(i64::try_from(v).unwrap_or(i64::MAX))))
                .collect::<Vec<_>>(),
        )
    }

    /// The `/-/health` body: overall status is `"ok"` while every known
    /// backend breaker is closed, `"degraded"` otherwise (the `backends`
    /// array names the breaker). Shedding alone is load management,
    /// not degradation.
    fn health_json(&self) -> Json {
        let mut degraded = false;
        let mut members: Vec<(String, Json)> = Vec::new();
        if let Some(client) = &self.transport {
            let breakers = client.breaker_snapshot();
            degraded |= breakers
                .iter()
                .any(|(_, state)| *state != BreakerState::Closed);
            let backends = breakers
                .into_iter()
                .map(|(addr, state)| {
                    Json::object(vec![
                        ("addr", Json::Str(addr.to_string())),
                        ("breaker", Json::Str(state.as_str().into())),
                    ])
                })
                .collect();
            members.push(("backends".into(), Json::Array(backends)));
            members.push(("transport".into(), Self::transport_json(client)));
        }
        if let Some(stats) = &self.overload {
            members.push(("overload".into(), stats.render_json()));
        }
        members.insert(
            0,
            (
                "status".into(),
                Json::Str(if degraded { "degraded" } else { "ok" }.into()),
            ),
        );
        Json::Object(members)
    }

    /// Handle `request` if it addresses the admin path space; `None`
    /// means the request belongs to the application.
    #[must_use]
    pub fn try_handle(&self, request: &RestRequest) -> Option<RestResponse> {
        // Query strings travel inside `path`; split them off before
        // matching (the wire layer does no query parsing).
        let (path, query) = match request.path.split_once('?') {
            Some((p, q)) => (p, q),
            None => (request.path.as_str(), ""),
        };
        if !path.starts_with(ADMIN_PREFIX) {
            return None;
        }
        if request.method != cm_model::HttpMethod::Get {
            return Some(RestResponse::error(
                StatusCode::METHOD_NOT_ALLOWED,
                "admin endpoints are read-only",
            ));
        }
        match path {
            "/-/metrics" => {
                let mut body = self.metrics.render_json();
                if let Json::Object(members) = &mut body {
                    if let Some(client) = &self.transport {
                        members.push(("transport".into(), Self::transport_json(client)));
                    }
                    if let Some(stats) = &self.overload {
                        members.push(("overload".into(), stats.render_json()));
                    }
                }
                Some(RestResponse::ok(body))
            }
            "/-/health" => Some(RestResponse::ok(self.health_json())),
            "/-/events/stream" => {
                let Some(stream) = &self.stream else {
                    return Some(RestResponse::error(
                        StatusCode::NOT_FOUND,
                        "no durable audit log attached; start with --audit-dir",
                    ));
                };
                let from = query_param(query, "from")
                    .and_then(|v| v.parse::<u64>().ok())
                    .unwrap_or(0);
                let max = query_param(query, "max")
                    .and_then(|v| v.parse::<usize>().ok())
                    .unwrap_or(DEFAULT_STREAM_BATCH);
                let wait_ms = query_param(query, "wait_ms")
                    .and_then(|v| v.parse::<u64>().ok())
                    .unwrap_or(0)
                    .min(MAX_STREAM_WAIT_MS);
                // Serve whatever is committed right now, without waiting.
                let mut batch = stream.tail_from(from, max, 0);
                if wait_ms > 0 && batch.records.is_empty() {
                    if crate::server::try_request_park(wait_ms) {
                        // Reactor transport: the connection parks on the
                        // shard's timer wheel and this handler is
                        // re-invoked until records appear or the wait
                        // budget is spent — the empty batch below is
                        // withheld, not sent. No thread blocks.
                    } else if self.acquire_parked_slot() {
                        // Worker-pool transport: a bounded number of
                        // pollers may block their worker for the wait.
                        batch = stream.tail_from(from, max, wait_ms);
                        self.parked_pollers
                            .fetch_sub(1, std::sync::atomic::Ordering::SeqCst);
                    }
                    // Over the cap: answer immediately with the empty
                    // batch; the client's resume cursor lets it retry.
                }
                let int = |v: u64| Json::Int(i64::try_from(v).unwrap_or(i64::MAX));
                Some(RestResponse::ok(Json::object(vec![
                    ("start", int(batch.start)),
                    ("next", int(batch.next)),
                    ("lagged", int(batch.lagged)),
                    ("end", int(batch.end)),
                    ("records", Json::Array(batch.records)),
                ])))
            }
            "/-/events" => {
                let tail = query_param(query, "tail")
                    .and_then(|v| v.parse::<usize>().ok())
                    .unwrap_or(DEFAULT_EVENT_TAIL);
                let events = self.events.tail(tail);
                Some(RestResponse::ok(Json::object(vec![
                    (
                        "events",
                        Json::Array(events.iter().map(cm_obs::MonitorEvent::to_json).collect()),
                    ),
                    (
                        "dropped",
                        Json::Int(i64::try_from(self.events.dropped()).unwrap_or(i64::MAX)),
                    ),
                ])))
            }
            _ => Some(RestResponse::error(
                StatusCode::NOT_FOUND,
                format!("unknown admin endpoint {path}"),
            )),
        }
    }

    /// Reserve one of the bounded blocking-poller slots.
    fn acquire_parked_slot(&self) -> bool {
        use std::sync::atomic::Ordering;
        self.parked_pollers
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| {
                (n < self.parked_cap).then_some(n + 1)
            })
            .is_ok()
    }

    /// Compose with an application handler: admin paths are answered
    /// here, everything else goes to `inner`.
    #[must_use]
    pub fn wrap(self, inner: Arc<Handler>) -> Arc<Handler> {
        Arc::new(
            move |request: RestRequest| match self.try_handle(&request) {
                Some(response) => response,
                None => inner(request),
            },
        )
    }
}

/// Value of `name` in an (already split off) query string.
fn query_param<'a>(query: &'a str, name: &str) -> Option<&'a str> {
    query.split('&').find_map(|pair| {
        let (key, value) = pair.split_once('=')?;
        (key == name).then_some(value)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cm_model::HttpMethod;
    use cm_obs::{MonitorEvent, RingBufferSink};

    fn routes_with(events: usize) -> AdminRoutes {
        let metrics = Arc::new(MetricsRegistry::new());
        let sink = Arc::new(RingBufferSink::new(16));
        for i in 0..events {
            let event = MonitorEvent {
                method: "GET".into(),
                path: format!("/v3/1/volumes/{i}"),
                verdict: "pass".into(),
                status: 200,
                ..MonitorEvent::default()
            };
            metrics.observe(&event);
            sink.emit(event);
        }
        AdminRoutes::new(metrics, sink)
    }

    #[test]
    fn non_admin_paths_fall_through() {
        let routes = routes_with(0);
        let req = RestRequest::new(HttpMethod::Get, "/v3/1/volumes");
        assert!(routes.try_handle(&req).is_none());
    }

    #[test]
    fn metrics_endpoint_reports_counts() {
        let routes = routes_with(3);
        let resp = routes
            .try_handle(&RestRequest::new(HttpMethod::Get, "/-/metrics"))
            .unwrap();
        assert_eq!(resp.status, StatusCode::OK);
        let body = resp.body.unwrap();
        assert_eq!(body.get("requests").unwrap().as_int(), Some(3));
        assert_eq!(
            body.get("verdicts").unwrap().get("pass").unwrap().as_int(),
            Some(3)
        );
    }

    #[test]
    fn events_endpoint_honours_tail() {
        let routes = routes_with(5);
        let resp = routes
            .try_handle(&RestRequest::new(HttpMethod::Get, "/-/events?tail=2"))
            .unwrap();
        let body = resp.body.unwrap();
        let events = body.get("events").unwrap().as_array().unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(
            events[1].get("path").unwrap().as_str(),
            Some("/v3/1/volumes/4")
        );
        assert_eq!(body.get("dropped").unwrap().as_int(), Some(0));
    }

    #[test]
    fn events_endpoint_defaults_tail() {
        let routes = routes_with(4);
        let resp = routes
            .try_handle(&RestRequest::new(HttpMethod::Get, "/-/events"))
            .unwrap();
        let events = resp.body.unwrap();
        assert_eq!(events.get("events").unwrap().as_array().unwrap().len(), 4);
    }

    #[test]
    fn health_endpoint_reports_breaker_state_and_transport_counters() {
        let routes = routes_with(0).with_transport(Arc::new(PooledClient::default()));
        let resp = routes
            .try_handle(&RestRequest::new(HttpMethod::Get, "/-/health"))
            .unwrap();
        assert_eq!(resp.status, StatusCode::OK);
        let body = resp.body.unwrap();
        assert_eq!(body.get("status").unwrap().as_str(), Some("ok"));
        assert!(body.get("backends").unwrap().as_array().unwrap().is_empty());
        assert_eq!(
            body.get("transport")
                .unwrap()
                .get("sheds")
                .unwrap()
                .as_int(),
            Some(0)
        );
        let metrics = routes
            .try_handle(&RestRequest::new(HttpMethod::Get, "/-/metrics"))
            .unwrap();
        assert!(metrics.body.unwrap().get("transport").is_some());
    }

    #[test]
    fn health_endpoint_reports_overload_block() {
        use cm_obs::Lane;
        let stats = Arc::new(OverloadStats::new());
        stats.note_admitted(Lane::Read, std::time::Duration::from_millis(2));
        stats.note_shed(Lane::Read);
        stats.adjust_depth(Lane::Mutation, 3);
        let routes = routes_with(0).with_overload(Arc::clone(&stats));
        let resp = routes
            .try_handle(&RestRequest::new(HttpMethod::Get, "/-/health"))
            .unwrap();
        let body = resp.body.unwrap();
        // Shedding alone is load management, not degradation.
        assert_eq!(body.get("status").unwrap().as_str(), Some("ok"));
        let overload = body.get("overload").unwrap();
        assert_eq!(
            overload.get("shed").unwrap().get("read").unwrap().as_int(),
            Some(1)
        );
        assert_eq!(
            overload
                .get("lane_depths")
                .unwrap()
                .get("mutation")
                .unwrap()
                .as_int(),
            Some(3)
        );
        // `/-/metrics` carries the same block.
        let metrics = routes
            .try_handle(&RestRequest::new(HttpMethod::Get, "/-/metrics"))
            .unwrap();
        assert!(metrics.body.unwrap().get("overload").is_some());
    }

    #[test]
    fn health_endpoint_without_transport_is_plain_ok() {
        let routes = routes_with(0);
        let resp = routes
            .try_handle(&RestRequest::new(HttpMethod::Get, "/-/health"))
            .unwrap();
        let body = resp.body.unwrap();
        assert_eq!(body.get("status").unwrap().as_str(), Some("ok"));
        assert!(body.get("backends").is_none());
    }

    #[test]
    fn unknown_admin_path_is_404_and_writes_are_405() {
        let routes = routes_with(0);
        let resp = routes
            .try_handle(&RestRequest::new(HttpMethod::Get, "/-/nope"))
            .unwrap();
        assert_eq!(resp.status, StatusCode::NOT_FOUND);
        let resp = routes
            .try_handle(&RestRequest::new(HttpMethod::Post, "/-/metrics"))
            .unwrap();
        assert_eq!(resp.status, StatusCode::METHOD_NOT_ALLOWED);
    }

    #[test]
    fn stream_endpoint_without_log_is_404() {
        let routes = routes_with(0);
        let resp = routes
            .try_handle(&RestRequest::new(HttpMethod::Get, "/-/events/stream"))
            .unwrap();
        assert_eq!(resp.status, StatusCode::NOT_FOUND);
    }

    #[derive(Debug)]
    struct CannedTail;

    impl cm_obs::TailStream for CannedTail {
        fn tail_from(&self, from: u64, max: usize, _wait_ms: u64) -> cm_obs::StreamBatch {
            // Ten committed records, offsets 0..10; serve what the
            // cursor and batch size allow.
            let end = 10;
            let start = from.min(end);
            let next = (start + max as u64).min(end);
            cm_obs::StreamBatch {
                start,
                next,
                lagged: 0,
                end,
                records: (start..next)
                    .map(|o| Json::object(vec![("offset", Json::Int(o as i64))]))
                    .collect(),
            }
        }
    }

    #[test]
    fn stream_endpoint_pages_with_resume_cursor() {
        let routes = routes_with(0).with_stream(Arc::new(CannedTail));
        let resp = routes
            .try_handle(&RestRequest::new(
                HttpMethod::Get,
                "/-/events/stream?from=4&max=3",
            ))
            .unwrap();
        assert_eq!(resp.status, StatusCode::OK);
        let body = resp.body.unwrap();
        assert_eq!(body.get("start").unwrap().as_int(), Some(4));
        assert_eq!(body.get("next").unwrap().as_int(), Some(7));
        assert_eq!(body.get("end").unwrap().as_int(), Some(10));
        assert_eq!(body.get("records").unwrap().as_array().unwrap().len(), 3);
    }

    /// A tail with no committed records that honours `wait_ms` by
    /// sleeping, recording the largest wait it was asked to block for.
    #[derive(Debug, Default)]
    struct EmptyBlockingTail {
        waits: std::sync::atomic::AtomicU64,
    }

    impl cm_obs::TailStream for EmptyBlockingTail {
        fn tail_from(&self, _from: u64, _max: usize, wait_ms: u64) -> cm_obs::StreamBatch {
            self.waits
                .fetch_max(wait_ms, std::sync::atomic::Ordering::SeqCst);
            if wait_ms > 0 {
                std::thread::sleep(std::time::Duration::from_millis(wait_ms));
            }
            cm_obs::StreamBatch {
                start: 0,
                next: 0,
                lagged: 0,
                end: 0,
                records: Vec::new(),
            }
        }
    }

    #[test]
    fn empty_longpoll_parks_on_the_reactor_instead_of_blocking() {
        let tail = Arc::new(EmptyBlockingTail::default());
        let routes = routes_with(0).with_stream(Arc::clone(&tail) as Arc<dyn cm_obs::TailStream>);
        let req = RestRequest::new(HttpMethod::Get, "/-/events/stream?wait_ms=5000");
        let start = std::time::Instant::now();
        // Simulate a reactor dispatch: parking is available.
        let (resp, park) = crate::server::with_park_scope(|| routes.try_handle(&req).unwrap());
        assert_eq!(resp.status, StatusCode::OK);
        assert_eq!(park, Some(5000), "handler must ask to park, not block");
        assert!(
            start.elapsed() < std::time::Duration::from_millis(500),
            "a parked poll must return immediately"
        );
        // The blocking path was never taken.
        assert_eq!(tail.waits.load(std::sync::atomic::Ordering::SeqCst), 0);
    }

    #[test]
    fn longpoll_with_data_answers_immediately_even_on_the_reactor() {
        let routes = routes_with(0).with_stream(Arc::new(CannedTail));
        let req = RestRequest::new(
            HttpMethod::Get,
            "/-/events/stream?from=0&max=3&wait_ms=5000",
        );
        let (resp, park) = crate::server::with_park_scope(|| routes.try_handle(&req).unwrap());
        assert_eq!(park, None, "data available: no reason to park");
        let body = resp.body.unwrap();
        assert_eq!(body.get("records").unwrap().as_array().unwrap().len(), 3);
    }

    #[test]
    fn worker_pool_longpoll_blocking_is_capped() {
        let tail = Arc::new(EmptyBlockingTail::default());
        // Cap 0: no poller may block a worker; waits degrade to
        // immediate empty batches.
        let routes = routes_with(0)
            .with_stream(Arc::clone(&tail) as Arc<dyn cm_obs::TailStream>)
            .with_parked_cap(0);
        let req = RestRequest::new(HttpMethod::Get, "/-/events/stream?wait_ms=2000");
        let start = std::time::Instant::now();
        // No park scope: this is a worker-pool dispatch.
        let resp = routes.try_handle(&req).unwrap();
        assert_eq!(resp.status, StatusCode::OK);
        assert!(
            start.elapsed() < std::time::Duration::from_millis(500),
            "over-cap pollers must not block"
        );
        assert_eq!(tail.waits.load(std::sync::atomic::Ordering::SeqCst), 0);
        assert!(resp
            .body
            .unwrap()
            .get("records")
            .unwrap()
            .as_array()
            .unwrap()
            .is_empty());
    }

    #[test]
    fn worker_pool_longpoll_blocks_within_the_cap() {
        let tail = Arc::new(EmptyBlockingTail::default());
        let routes = routes_with(0)
            .with_stream(Arc::clone(&tail) as Arc<dyn cm_obs::TailStream>)
            .with_parked_cap(1);
        let req = RestRequest::new(HttpMethod::Get, "/-/events/stream?wait_ms=30");
        let resp = routes.try_handle(&req).unwrap();
        assert_eq!(resp.status, StatusCode::OK);
        // The blocking wait happened (and released its slot after).
        assert_eq!(tail.waits.load(std::sync::atomic::Ordering::SeqCst), 30);
        assert_eq!(
            routes
                .parked_pollers
                .load(std::sync::atomic::Ordering::SeqCst),
            0
        );
    }

    #[test]
    fn wrap_composes_with_an_application_handler() {
        let routes = routes_with(1);
        let handler = routes.wrap(Arc::new(|req: RestRequest| {
            RestResponse::ok(Json::Str(req.path))
        }));
        let app = handler(RestRequest::new(HttpMethod::Get, "/app"));
        assert_eq!(app.body, Some(Json::Str("/app".into())));
        let admin = handler(RestRequest::new(HttpMethod::Get, "/-/metrics"));
        assert_eq!(
            admin.body.unwrap().get("requests").unwrap().as_int(),
            Some(1)
        );
    }
}
