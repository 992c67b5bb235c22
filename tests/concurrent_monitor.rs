//! Concurrency battery for the shared-state monitor.
//!
//! `CloudMonitor::process` takes `&self`: one monitor instance serves
//! many threads at once, serializing only per resource shard. These
//! tests hammer a shared monitor — over a live TCP server and
//! in-process — and assert that nothing deadlocks, every request is
//! accounted for exactly once, and fault verdicts stay attributed to
//! the requests that caused them.

use cm_audit::{AuditRecord, AuditRecorder, MemoryRecorder};
use cm_cloudsim::{Fault, FaultPlan, PrivateCloud};
use cm_core::{cinder_monitor, CloudMonitor, Mode, Verdict};
use cm_httpkit::{ClientConfig, HttpServer, PooledClient, RemoteService, ServerConfig};
use cm_model::{cinder, HttpMethod};
use cm_rest::{Json, RestRequest, SharedRestService};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

fn volume_body(name: &str) -> Json {
    Json::object(vec![(
        "volume",
        Json::object(vec![
            ("name", Json::Str(name.into())),
            ("size", Json::Int(1)),
        ]),
    )])
}

/// The order the durable log sees: seq numbers are unique, and within
/// each project they ascend in the order the recorder received them.
fn assert_seq_order(log: &[AuditRecord]) {
    let mut seqs: Vec<u64> = log.iter().map(|r| r.seq).collect();
    seqs.sort_unstable();
    seqs.dedup();
    assert_eq!(seqs.len(), log.len(), "seq numbers must be unique");
    let mut last: HashMap<&str, u64> = HashMap::new();
    for record in log {
        let mut segments = record.path.split('/').filter(|s| !s.is_empty());
        if let (Some("v3"), Some(pid)) = (segments.next(), segments.next()) {
            if let Some(prev) = last.insert(pid, record.seq) {
                assert!(
                    prev < record.seq,
                    "project {pid}: seq {} received after {prev}",
                    record.seq
                );
            }
        }
    }
}

/// 8 client threads × 200 requests through a live `HttpServer` in front
/// of a shared (un-mutexed) monitor. Every request must come back
/// well-formed, and the monitor's own accounting — audit records, per-verdict
/// metrics, event sink including its `dropped` counter — must sum to
/// exactly the 1600 requests sent.
///
/// The clients share one `PooledClient`, so the whole soak must ride on
/// a handful of keep-alive connections and the server's bounded worker
/// pool — not 1600 connects or 1600 threads.
#[test]
fn soak_eight_threads_against_live_server() {
    const THREADS: usize = 8;
    const REQUESTS_PER_THREAD: usize = 200;
    const TOTAL: u64 = (THREADS * REQUESTS_PER_THREAD) as u64;

    let cloud = PrivateCloud::my_project();
    let pid = cloud.project_id();
    let alice = cloud.issue_token("alice", "alice-pw").unwrap().token;
    let carol = cloud.issue_token("carol", "carol-pw").unwrap().token;
    cloud
        .state_mut()
        .create_volume(pid, "seed", 1, false)
        .unwrap();

    let recorder = Arc::new(MemoryRecorder::new());
    let mut monitor = cinder_monitor(cloud)
        .unwrap()
        .mode(Mode::Enforce)
        .audit_recorder(Arc::clone(&recorder) as Arc<dyn AuditRecorder>);
    monitor.authenticate("alice", "alice-pw").unwrap();
    // Grab the shared observability handles before sharing the monitor.
    let metrics = monitor.metrics();
    let events = monitor.events();
    let monitor = Arc::new(monitor);

    let handler = Arc::clone(&monitor);
    let server = HttpServer::bind("127.0.0.1:0", Arc::new(move |req| handler.call(&req)))
        .expect("bind monitor server");
    let addr = server.local_addr();
    let client = Arc::new(PooledClient::default());

    let workers: Vec<_> = (0..THREADS)
        .map(|t| {
            let alice = alice.clone();
            let carol = carol.clone();
            let client = Arc::clone(&client);
            std::thread::spawn(move || {
                for i in 0..REQUESTS_PER_THREAD {
                    let req = match (t + i) % 3 {
                        // Authorized read of the seeded volume: pass.
                        0 => RestRequest::new(HttpMethod::Get, format!("/v3/{pid}/volumes/1"))
                            .auth_token(&alice),
                        // Forbidden delete: pre-blocked, volume survives.
                        1 => RestRequest::new(HttpMethod::Delete, format!("/v3/{pid}/volumes/1"))
                            .auth_token(&carol),
                        // Outside the model: transparent proxying.
                        _ => RestRequest::new(HttpMethod::Get, format!("/unmodelled/{t}/{i}")),
                    };
                    let resp = client.request(addr, &req).expect("live response");
                    assert!(resp.status.0 >= 100, "malformed status: {resp:?}");
                }
            })
        })
        .collect();
    for w in workers {
        w.join().expect("no client thread panicked");
    }

    // Keep-alive transport: 1600 requests must not mean 1600 connects,
    // and the server's thread budget — pool workers or reactor shards —
    // stays at its configured bound instead of a thread per connection.
    assert!(
        server.connections_accepted() <= (THREADS as u64) + 2,
        "soak should ride on at most one connection per client thread, got {}",
        server.connections_accepted()
    );
    assert!(
        (1..=ServerConfig::default().workers).contains(&server.worker_count()),
        "dispatch thread budget must stay bounded, got {}",
        server.worker_count()
    );
    server.shutdown();

    // Exactly one audit record and one metrics observation per request.
    let log = recorder.records();
    assert_eq!(log.len() as u64, TOTAL);
    assert_eq!(metrics.requests(), TOTAL);
    let verdict_sum: u64 = metrics.verdicts.snapshot().iter().map(|(_, n)| n).sum();
    assert_eq!(verdict_sum, TOTAL, "per-verdict counts must sum to total");

    // The bounded event sink dropped the overflow and kept the rest:
    // retained + dropped covers every request, nothing double-counted.
    let retained = events.tail(usize::MAX).len() as u64;
    assert_eq!(events.dropped() + retained, TOTAL);

    assert_seq_order(&log);

    // The verdict mix is the expected one: no violations on a correct
    // cloud, and the pre-blocked deletes never reached it.
    assert!(
        log.iter().all(|r| !r.verdict.is_violation()),
        "no false positives"
    );
    assert!(monitor
        .cloud()
        .state()
        .project(pid)
        .unwrap()
        .volumes
        .iter()
        .any(|v| v.id == 1));
}

/// Fault injection under concurrency: a lost-update fault on volume
/// creation in one project, while other threads read volumes in other
/// projects. Every post-violation must be attributed to a faulty POST
/// — never to a concurrent read — proving one request's snapshots do
/// not leak into another's post-condition, and per project the recorder
/// must receive records in global sequence order.
#[test]
fn fault_verdicts_stay_attributed_under_concurrency() {
    const WRITERS: usize = 2;
    const READERS: usize = 2;
    const OPS: usize = 30;

    let plan = FaultPlan::single(Fault::DropStateChange {
        action: "volume:post".into(),
    });
    let cloud = PrivateCloud::multi_project(4).with_faults(plan);
    // Seed one readable volume in each reader project (2 and 3).
    for pid in [2u64, 3] {
        cloud
            .state_of(pid)
            .create_volume(pid, "seed", 1, false)
            .unwrap();
    }
    let writer_token = cloud
        .issue_token_scoped("alice", "alice-pw", 1)
        .unwrap()
        .token;
    let reader_tokens: Vec<String> = [2u64, 3]
        .iter()
        .map(|pid| {
            cloud
                .issue_token_scoped("alice", "alice-pw", *pid)
                .unwrap()
                .token
        })
        .collect();

    let recorder = Arc::new(MemoryRecorder::new());
    let mut monitor = CloudMonitor::generate(
        &cinder::resource_model(),
        &cinder::behavioral_model(),
        None,
        cloud,
    )
    .unwrap()
    .mode(Mode::Observe)
    .audit_recorder(Arc::clone(&recorder) as Arc<dyn AuditRecorder>);
    for pid in 1..=3 {
        monitor
            .authenticate_scoped("alice", "alice-pw", pid)
            .unwrap();
    }
    let monitor = Arc::new(monitor);

    let mut workers = Vec::new();
    for w in 0..WRITERS {
        let monitor = Arc::clone(&monitor);
        let token = writer_token.clone();
        workers.push(std::thread::spawn(move || {
            for i in 0..OPS {
                let outcome = monitor.process(
                    &RestRequest::new(HttpMethod::Post, "/v3/1/volumes")
                        .auth_token(&token)
                        .json(volume_body(&format!("lost-{w}-{i}"))),
                );
                // The faulty cloud claims success but drops the write:
                // this exact request must be flagged.
                assert_eq!(outcome.verdict, Verdict::PostViolation, "{outcome:?}");
            }
        }));
    }
    for (r, reader_token) in reader_tokens.iter().enumerate().take(READERS) {
        let monitor = Arc::clone(&monitor);
        let pid = r as u64 + 2;
        let token = reader_token.clone();
        workers.push(std::thread::spawn(move || {
            for _ in 0..OPS {
                let outcome = monitor.process(
                    &RestRequest::new(HttpMethod::Get, format!("/v3/{pid}/volumes/{}", pid))
                        .auth_token(&token),
                );
                // Reads in healthy projects must never inherit the
                // writer project's violation.
                assert_eq!(outcome.verdict, Verdict::Pass, "{outcome:?}");
            }
        }));
    }
    for w in workers {
        w.join().expect("no worker panicked");
    }

    let log = recorder.records();
    assert_eq!(log.len(), WRITERS * OPS + READERS * OPS);
    let posts: Vec<_> = log.iter().filter(|r| r.method == "POST").collect();
    assert_eq!(posts.len(), WRITERS * OPS);
    assert!(
        posts
            .iter()
            .all(|r| r.verdict == Verdict::PostViolation && r.path == "/v3/1/volumes"),
        "every post-violation belongs to the faulty project-1 POSTs"
    );
    assert!(
        log.iter()
            .filter(|r| r.method == "GET")
            .all(|r| r.verdict == Verdict::Pass),
        "no violation leaked into a concurrent read"
    );
    // Same-resource requests keep serial order: within each project the
    // recorder receives strictly increasing global seq numbers.
    assert_seq_order(&log);
}

/// Backend flap under concurrency: the cloud dies mid-soak and comes
/// back. While it is down every request must come out `Degraded` —
/// never a violation, never a false pass — and once it is back the very
/// first request must recover through a single half-open breaker probe.
/// The verdict ledger is exact: healthy passes + degraded outage
/// requests + recovery + post-recovery passes account for every request.
#[test]
fn backend_flap_yields_exact_degraded_and_pass_counts() {
    const THREADS: usize = 4;
    const HEALTHY: usize = 3; // requests per thread, phase 1
    const OUTAGE: usize = 3; // requests per thread, phase 2
    const RECOVERED: usize = 3; // requests per thread, phase 4

    let cloud = Arc::new(PrivateCloud::my_project());
    let pid = cloud.project_id();
    let alice = cloud.issue_token("alice", "alice-pw").unwrap().token;
    cloud
        .state_mut()
        .create_volume(pid, "seed", 1, false)
        .unwrap();

    let handle = Arc::clone(&cloud);
    let server = HttpServer::bind("127.0.0.1:0", Arc::new(move |req| handle.call(&req)))
        .expect("bind cloud server");
    let addr = server.local_addr();

    // Fail fast during the outage: no retries, tight deadline, breaker
    // trips after 2 fresh failures and probes again after 150ms.
    let client = Arc::new(PooledClient::new(ClientConfig {
        read_timeout: Duration::from_millis(200),
        request_deadline: Duration::from_millis(500),
        max_retries: 0,
        breaker_threshold: 2,
        breaker_cooldown: Duration::from_millis(150),
        ..ClientConfig::default()
    }));
    let recorder = Arc::new(MemoryRecorder::new());
    let mut monitor = cinder_monitor(RemoteService::with_client(addr, Arc::clone(&client)))
        .unwrap()
        .mode(Mode::Enforce)
        .audit_recorder(Arc::clone(&recorder) as Arc<dyn AuditRecorder>);
    monitor.authenticate("alice", "alice-pw").unwrap();
    let monitor = Arc::new(monitor);

    fn read_req(pid: u64, token: &str) -> RestRequest {
        RestRequest::new(HttpMethod::Get, format!("/v3/{pid}/volumes/1")).auth_token(token)
    }
    let run_phase = |per_thread: usize| {
        let workers: Vec<_> = (0..THREADS)
            .map(|_| {
                let monitor = Arc::clone(&monitor);
                let token = alice.clone();
                std::thread::spawn(move || {
                    (0..per_thread)
                        .map(|_| monitor.process(&read_req(pid, &token)).verdict)
                        .collect::<Vec<Verdict>>()
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("no worker panicked"))
            .collect::<Vec<Verdict>>()
    };

    // Phase 1 — healthy backend: every authorized read passes.
    let healthy = run_phase(HEALTHY);
    assert!(
        healthy.iter().all(|v| *v == Verdict::Pass),
        "healthy phase: {healthy:?}"
    );

    // Phase 2 — the backend dies. Every request degrades; none may be
    // classified as a contract violation and none may falsely pass.
    server.shutdown();
    let outage = run_phase(OUTAGE);
    assert!(
        outage.iter().all(|v| *v == Verdict::Degraded),
        "outage phase must be uniformly degraded: {outage:?}"
    );
    assert!(
        client
            .stats()
            .breaker_opened
            .load(std::sync::atomic::Ordering::Relaxed)
            >= 1,
        "the outage must trip the breaker: {:?}",
        client.stats().snapshot()
    );

    // Phase 3 — the backend comes back on the same address. The OS may
    // have reassigned the port meanwhile; bail out gracefully if so.
    let handle = Arc::clone(&cloud);
    let Ok(revived) = HttpServer::bind(addr, Arc::new(move |req| handle.call(&req))) else {
        eprintln!("skipping recovery phases: could not rebind {addr}");
        return;
    };
    std::thread::sleep(Duration::from_millis(300)); // past the cooldown

    // Recovery happens within ONE half-open probe: the first sequential
    // request after the cooldown must already pass.
    let recovery = monitor.process(&read_req(pid, &alice));
    assert_eq!(recovery.verdict, Verdict::Pass, "{recovery:?}");
    assert!(
        client
            .stats()
            .breaker_half_opened
            .load(std::sync::atomic::Ordering::Relaxed)
            >= 1
            && client
                .stats()
                .breaker_closed
                .load(std::sync::atomic::Ordering::Relaxed)
                >= 1,
        "recovery must go through a half-open probe: {:?}",
        client.stats().snapshot()
    );

    // Phase 4 — recovered: concurrent reads all pass again.
    let recovered = run_phase(RECOVERED);
    assert!(
        recovered.iter().all(|v| *v == Verdict::Pass),
        "recovered phase: {recovered:?}"
    );

    // Exact ledger: every request is accounted for in the expected bucket.
    let log = recorder.records();
    let total = THREADS * (HEALTHY + OUTAGE + RECOVERED) + 1;
    assert_eq!(log.len(), total);
    let degraded = log
        .iter()
        .filter(|r| r.verdict == Verdict::Degraded)
        .count();
    let passes = log.iter().filter(|r| r.verdict == Verdict::Pass).count();
    assert_eq!(degraded, THREADS * OUTAGE);
    assert_eq!(passes, THREADS * (HEALTHY + RECOVERED) + 1);
    assert!(log.iter().all(|r| !r.verdict.is_violation()));
    revived.shutdown();
}
