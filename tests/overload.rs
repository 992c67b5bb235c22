//! Overload-control end-to-end: deadline-aware admission on the
//! reactor transport keeps a saturated server useful instead of
//! uniformly slow.
//!
//! Contracts under test:
//!
//! * a shed storm marks every refusal with `503 X-CM-Overload` — no
//!   silent drops — and the shed observer sees each one;
//! * the admin lane (`/-/health`, `/-/metrics`, `/-/events/stream`)
//!   never sheds, so the node stays observable *while* it is shedding;
//! * with overload control enabled but the server unloaded, responses
//!   are byte-for-byte what the disabled server produces (the feature
//!   is inert until it is needed);
//! * a parked `/-/events/stream` long-poll survives a shed storm and
//!   still receives its records;
//! * a slow-loris connection trickling header bytes is cut by the
//!   read timer at its fixed origin, not re-armed per byte.

#![cfg(unix)]

use cm_audit::{
    AuditLog, AuditLogOptions, AuditRecord, EnvProvenance, EnvSnapshot, MonitorMode, ReplayContext,
    VerdictCode,
};
use cm_httpkit::{
    read_response_buf, send, serialize_request, AdminRoutes, ConnectionMode, HttpServer,
    OverloadConfig, ServerConfig, ShedDecision, ShedObserver, Transport,
};
use cm_model::HttpMethod;
use cm_obs::{Lane, MetricsRegistry, NullSink, OverloadStats, TailStream};
use cm_rest::{Json, RestRequest, RestResponse, StatusCode};
use std::io::{BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// A single-shard reactor with overload control and a handler that
/// takes `service` per request — the slow backend every storm needs.
fn overload_config(deadline_ms: u64, queue_limit: usize) -> OverloadConfig {
    OverloadConfig {
        enabled: true,
        deadline: Duration::from_millis(deadline_ms),
        queue_limit,
        ..OverloadConfig::default()
    }
}

fn server_config(overload: OverloadConfig) -> ServerConfig {
    ServerConfig {
        transport: Transport::Reactor,
        shards: 1,
        overload,
        ..ServerConfig::default()
    }
}

type ShedLog = Arc<Mutex<Vec<(String, Lane, String)>>>;

/// Requests in one storm burst: 25 × 3 ms of service is three times
/// either test's queue budget.
const BURST: usize = 25;

/// One storm client: `BURST` GETs of `/app` pipelined in a single write
/// on one connection, then their responses in order. The shard parses
/// the whole burst into its run queue at one admission instant and
/// serves it at 3 ms a request, so every request queued behind more
/// than a budget's worth of that service has waited past the budget
/// when it is dispatched: the burst's tail sheds by the test's own
/// arithmetic, whatever the thread scheduling. Returns `(served, shed)`.
fn pipelined_burst(addr: SocketAddr) -> (u64, u64) {
    let mut payload = Vec::new();
    for i in 0..BURST {
        let mode = if i + 1 == BURST {
            ConnectionMode::Close
        } else {
            ConnectionMode::KeepAlive
        };
        serialize_request(
            &mut payload,
            &RestRequest::new(HttpMethod::Get, "/app"),
            mode,
        );
    }
    let mut conn = TcpStream::connect(addr).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    conn.write_all(&payload).expect("burst");
    let mut reader = BufReader::new(conn);
    let (mut ok, mut shed) = (0, 0);
    for _ in 0..BURST {
        let resp = read_response_buf(&mut reader).expect("one response per pipelined request");
        if resp.is_overload_shed() {
            assert_eq!(resp.status, StatusCode::SERVICE_UNAVAILABLE);
            shed += 1;
        } else {
            assert_eq!(resp.status, StatusCode::OK);
            ok += 1;
        }
    }
    (ok, shed)
}

fn shed_collector() -> (ShedLog, ShedObserver) {
    let log: ShedLog = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&log);
    let observer = ShedObserver::new(move |request: &RestRequest, decision: &ShedDecision| {
        sink.lock().unwrap().push((
            request.path.clone(),
            decision.lane,
            decision.cause.label().to_string(),
        ));
    });
    (log, observer)
}

#[test]
fn shed_storm_marks_503s_and_never_touches_the_admin_lane() {
    let stats = Arc::new(OverloadStats::new());
    let (shed_log, observer) = shed_collector();
    let mut config = server_config(OverloadConfig {
        stats: Some(Arc::clone(&stats)),
        ..overload_config(25, 512)
    });
    config.shed_observer = Some(observer);

    let metrics = Arc::new(MetricsRegistry::new());
    let admin = AdminRoutes::new(Arc::clone(&metrics), Arc::new(NullSink))
        .with_overload(Arc::clone(&stats));
    let app = Arc::new(|_req: RestRequest| {
        // A slow backend: every request costs real shard time, so a
        // pipelined burst builds genuine queue wait.
        thread::sleep(Duration::from_millis(3));
        RestResponse::ok(Json::Str("slow".into()))
    });
    let server = HttpServer::bind_with("127.0.0.1:0", admin.wrap(app), config).expect("bind");
    let addr = server.local_addr();

    // The storm: 4 concurrent clients, each one pipelined burst.
    let stop_health = Arc::new(AtomicBool::new(false));
    let health_stop = Arc::clone(&stop_health);
    let health_poller = thread::spawn(move || {
        let mut bodies = Vec::new();
        while !health_stop.load(Ordering::Relaxed) {
            let resp = send(addr, &RestRequest::new(HttpMethod::Get, "/-/health"))
                .expect("health answers even mid-storm");
            assert_eq!(
                resp.status,
                StatusCode::OK,
                "the admin lane must never shed"
            );
            assert!(!resp.is_overload_shed());
            bodies.push(resp.body.expect("health body"));
            thread::sleep(Duration::from_millis(5));
        }
        bodies
    });
    let storm: Vec<_> = (0..4)
        .map(|_| thread::spawn(move || pipelined_burst(addr)))
        .collect();
    let mut total_ok = 0;
    let mut total_shed = 0;
    for worker in storm {
        let (ok, shed) = worker.join().unwrap();
        total_ok += ok;
        total_shed += shed;
    }
    stop_health.store(true, Ordering::Relaxed);
    let health_bodies = health_poller.join().unwrap();
    server.shutdown();

    assert!(total_shed > 0, "storm produced no sheds — not a storm");
    assert!(total_ok > 0, "server stopped serving entirely under load");
    assert_eq!(
        stats.shed(Lane::Admin),
        0,
        "admin lane shed count must be exactly zero"
    );
    assert_eq!(stats.shed_total(), total_shed);
    // Every shed reached the observer, none was an admin route.
    let observed = shed_log.lock().unwrap();
    assert_eq!(observed.len() as u64, total_shed);
    assert!(observed
        .iter()
        .all(|(path, lane, _)| path == "/app" && *lane == Lane::Read));
    // /-/health carried the live machine-readable overload block.
    let last = health_bodies.last().expect("at least one health poll");
    let overload = last.get("overload").expect("overload block in health");
    assert!(overload.get("lane_depths").is_some());
    assert!(overload.get("shed_rate_percent").is_some());
}

#[test]
fn overload_control_is_inert_without_queueing_pressure() {
    // Same app behind two servers: overload enabled vs disabled. A
    // single sequential client never builds queue wait, so every
    // response pair must be identical — statuses, bodies, headers.
    let app = || {
        Arc::new(|req: RestRequest| match req.method {
            HttpMethod::Get => RestResponse::ok(Json::Str(req.path)),
            _ => RestResponse::error(StatusCode::BAD_REQUEST, "writes rejected"),
        })
    };
    let stats = Arc::new(OverloadStats::new());
    let enabled = HttpServer::bind_with(
        "127.0.0.1:0",
        app(),
        server_config(OverloadConfig {
            stats: Some(Arc::clone(&stats)),
            ..overload_config(50, 8)
        }),
    )
    .expect("bind enabled");
    let disabled = HttpServer::bind_with(
        "127.0.0.1:0",
        app(),
        server_config(OverloadConfig::default()),
    )
    .expect("bind disabled");

    for i in 0..40 {
        let request = if i % 3 == 0 {
            RestRequest::new(HttpMethod::Post, format!("/w/{i}"))
        } else {
            RestRequest::new(HttpMethod::Get, format!("/r/{i}"))
        };
        let a = send(enabled.local_addr(), &request).expect("enabled");
        let b = send(disabled.local_addr(), &request).expect("disabled");
        assert_eq!(a.status, b.status, "request {i}");
        assert_eq!(a.body, b.body, "request {i}");
        assert!(!a.is_overload_shed());
    }
    assert_eq!(stats.shed_total(), 0, "no pressure, no sheds");
    assert_eq!(stats.admitted_total(), 40);
    enabled.shutdown();
    disabled.shutdown();
}

fn audit_record(i: u64) -> AuditRecord {
    AuditRecord {
        seq: i,
        ts_nanos: i,
        method: "PUT".into(),
        path: format!("/v3/1/volumes/{i}"),
        route: None,
        trigger: Some(("PUT".into(), "volume".into())),
        mode: MonitorMode::Enforce,
        degraded_policy: "fail-closed".into(),
        verdict: VerdictCode::Pass,
        requirements: vec!["1.1".into()],
        status: 200,
        diagnostics: String::new(),
        context: ReplayContext::Checked {
            pre_env: EnvSnapshot::default(),
            post_env: None,
            post_partial: false,
            probe_denials: vec![],
            forwarded: true,
            cloud_status: Some(200),
            provenance: EnvProvenance::default(),
        },
    }
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cm-overload-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn parked_stream_longpoll_survives_a_shed_storm() {
    let dir = tmp_dir("parked");
    let (log, _report) = AuditLog::open(
        &dir,
        AuditLogOptions {
            fsync: false,
            ..AuditLogOptions::default()
        },
        None,
    )
    .expect("open log");
    let log = Arc::new(log);
    let stats = Arc::new(OverloadStats::new());
    let admin = AdminRoutes::new(Arc::new(MetricsRegistry::new()), Arc::new(NullSink))
        .with_stream(Arc::clone(&log) as Arc<dyn TailStream>)
        .with_overload(Arc::clone(&stats));
    // `/app/hold` keeps the single shard inside its handler until the
    // test has committed the records, so the parked poll's next retry,
    // which runs on that shard, sees all three at once.
    let hold = Arc::new(Barrier::new(2));
    let held = Arc::clone(&hold);
    let app = Arc::new(move |req: RestRequest| {
        if req.path == "/app/hold" {
            held.wait(); // the shard is inside the handler
            held.wait(); // the records are committed
        } else {
            thread::sleep(Duration::from_millis(3));
        }
        RestResponse::ok(Json::Str("slow".into()))
    });
    let config = server_config(OverloadConfig {
        stats: Some(Arc::clone(&stats)),
        ..overload_config(20, 256)
    });
    let server = HttpServer::bind_with("127.0.0.1:0", admin.wrap(app), config).expect("bind");
    let addr = server.local_addr();

    // Park a long-poll on the empty log; it waits on the shard's timer
    // wheel, outside every run queue.
    let poller = thread::spawn(move || {
        send(
            addr,
            &RestRequest::new(HttpMethod::Get, "/-/events/stream?from=0&wait_ms=5000"),
        )
        .expect("parked poll answers")
    });
    thread::sleep(Duration::from_millis(100));

    // Shed storm around the parked connection.
    let storm: Vec<_> = (0..4)
        .map(|_| thread::spawn(move || pipelined_burst(addr).1))
        .collect();
    let total_shed: u64 = storm.into_iter().map(|t| t.join().unwrap()).sum();

    // The records the parked poller is waiting for arrive after the
    // storm; its connection must still be alive to receive them.
    let holder = thread::spawn(move || {
        send(addr, &RestRequest::new(HttpMethod::Get, "/app/hold")).expect("hold")
    });
    hold.wait();
    for i in 0..3 {
        log.append(audit_record(i));
    }
    log.flush().unwrap();
    hold.wait();
    assert_eq!(holder.join().unwrap().status, StatusCode::OK);
    let resp = poller.join().unwrap();
    server.shutdown();

    assert!(total_shed > 0, "storm produced no sheds");
    assert_eq!(stats.shed(Lane::Admin), 0);
    assert_eq!(resp.status, StatusCode::OK);
    assert!(!resp.is_overload_shed(), "a parked poll must never shed");
    let body = resp.body.expect("stream body");
    let records = body.get("records").and_then(Json::as_array).unwrap();
    assert_eq!(records.len(), 3, "parked poll lost records: {body:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn slow_loris_trickle_is_cut_at_the_read_timers_fixed_origin() {
    let config = ServerConfig {
        transport: Transport::Reactor,
        shards: 1,
        read_timeout: Duration::from_millis(400),
        overload: overload_config(50, 64),
        ..ServerConfig::default()
    };
    let server = HttpServer::bind_with(
        "127.0.0.1:0",
        Arc::new(|_req: RestRequest| RestResponse::ok(Json::Str("ok".into()))),
        config,
    )
    .expect("bind");
    let addr = server.local_addr();

    // Trickle header bytes every 80ms: each write re-enters the read
    // path well inside the 400ms window, so a timer re-armed from
    // `now` would never fire and the connection would live for the
    // full (unbounded) trickle. The fixed-origin timer must cut it
    // ~400ms after the FIRST byte.
    let mut conn = TcpStream::connect(addr).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let started = Instant::now();
    let preamble = b"GET /app HTTP/1.1\r\n";
    conn.write_all(preamble).expect("preamble");
    let mut cut_after = None;
    for chunk in b"X-Padding: aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa"
        .chunks(1)
        .cycle()
        .take(100)
    {
        thread::sleep(Duration::from_millis(80));
        if conn.write_all(chunk).and_then(|()| conn.flush()).is_err() {
            cut_after = Some(started.elapsed());
            break;
        }
        // The server answers the timeout with a 400 and closes; a
        // successful local write only proves the socket buffer took
        // the byte, so also probe for the server's goodbye.
        let mut buf = [0u8; 1024];
        conn.set_read_timeout(Some(Duration::from_millis(1)))
            .unwrap();
        match conn.read(&mut buf) {
            Ok(0) => {
                cut_after = Some(started.elapsed());
                break;
            }
            Ok(_) => {
                // Response bytes (the 400) — the server gave up on us.
                cut_after = Some(started.elapsed());
                break;
            }
            Err(_) => {} // nothing yet; keep trickling
        }
    }
    server.shutdown();
    let cut_after = cut_after.expect("trickling connection was never cut");
    assert!(
        cut_after >= Duration::from_millis(300),
        "cut too early ({cut_after:?}) — healthy slow clients must get the full window"
    );
    assert!(
        cut_after < Duration::from_millis(2000),
        "trickle survived {cut_after:?}: read timer was re-armed per byte instead of \
         keeping its origin"
    );
}
