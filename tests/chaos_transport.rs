//! Transport chaos soak: the monitor must keep the two fault families
//! apart end to end.
//!
//! A [`ChaosListener`] proxy between the monitor and its cloud injects
//! wire-level faults (resets, truncated and garbage responses, stalls
//! past the read timeout, gateway 5xx bursts) on a deterministic seeded
//! schedule. The invariants under soak:
//!
//! * an injected **transport** fault must never surface as a pre/post
//!   contract-violation verdict — it degrades ([`Verdict::Degraded`]);
//! * a **semantic** mutant (the paper's Section VI-D faults) over a
//!   healthy transport must never hide behind a degraded verdict — it
//!   still dies as a proper violation.

use cm_audit::{AuditRecorder, MemoryRecorder, ReplayContext, VerdictCode};
use cm_cloudsim::{ChaosListener, ChaosPlan, Fault, FaultPlan, PrivateCloud};
use cm_core::{cinder_monitor, Mode, Verdict};
use cm_httpkit::{ClientConfig, HttpServer, PooledClient, RemoteService, ShedCause, ShedDecision};
use cm_model::HttpMethod;
use cm_obs::Lane;
use cm_rest::{Json, RestRequest, SharedRestService, StatusCode};
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

/// A client tuned for chaos weather: short read timeout (so stalls cost
/// 100ms, not 10s), a roomy deadline so retries never race the budget
/// (keeping the schedule deterministic), and the breaker disabled —
/// breaker behaviour has its own test; here every scheduled slot must be
/// consumed predictably.
fn chaos_client() -> Arc<PooledClient> {
    Arc::new(PooledClient::new(ClientConfig {
        read_timeout: Duration::from_millis(100),
        request_deadline: Duration::from_secs(5),
        max_retries: 2,
        backoff_base: Duration::from_millis(2),
        backoff_cap: Duration::from_millis(10),
        breaker_threshold: 0,
        ..ClientConfig::default()
    }))
}

/// Cloud behind HTTP, chaos proxy in front, monitor probing and
/// forwarding through the proxy and recording every decision.
fn chaos_stack(
    cloud: Arc<PrivateCloud>,
    plan: ChaosPlan,
) -> (
    HttpServer,
    ChaosListener,
    cm_core::CloudMonitor<RemoteService>,
    Arc<MemoryRecorder>,
) {
    let handle = Arc::clone(&cloud);
    let server = HttpServer::bind("127.0.0.1:0", Arc::new(move |req| handle.call(&req)))
        .expect("bind cloud server");
    let proxy = ChaosListener::spawn(server.local_addr(), plan).expect("spawn chaos proxy");
    let recorder = Arc::new(MemoryRecorder::new());
    let mut monitor = cinder_monitor(RemoteService::with_client(
        proxy.local_addr(),
        chaos_client(),
    ))
    .expect("generate monitor")
    .mode(Mode::Observe)
    .audit_recorder(Arc::clone(&recorder) as Arc<dyn AuditRecorder>);
    monitor
        .authenticate("alice", "alice-pw")
        .expect("authenticate through the clean grace slots");
    (server, proxy, monitor, recorder)
}

#[test]
fn chaos_soak_never_mislabels_transport_faults_as_violations() {
    let cloud = Arc::new(PrivateCloud::my_project());
    let pid = cloud.project_id();
    let alice = cloud.issue_token("alice", "alice-pw").unwrap().token;
    // A prime-length schedule so cycling never aligns with the request
    // pattern; 15% of slots inject one of the five fault kinds.
    let (server, proxy, monitor, recorder) =
        chaos_stack(Arc::clone(&cloud), ChaosPlan::seeded(0xC7A05, 97, 0.15));

    for round in 0..40 {
        // Ground truth read locally — the test owns the cloud; only the
        // monitor's traffic goes through the weather.
        let volumes: Vec<u64> = cloud
            .state()
            .project(pid)
            .unwrap()
            .volumes
            .iter()
            .map(|v| v.id)
            .collect();
        if (volumes.len() as u32) < cm_cloudsim::DEFAULT_VOLUME_QUOTA {
            monitor.process(
                &RestRequest::new(HttpMethod::Post, format!("/v3/{pid}/volumes"))
                    .auth_token(&alice)
                    .json(volume_body(&format!("chaos-{round}"))),
            );
        }
        if let Some(vid) = volumes.first() {
            monitor.process(
                &RestRequest::new(HttpMethod::Delete, format!("/v3/{pid}/volumes/{vid}"))
                    .auth_token(&alice),
            );
        }
    }

    assert!(
        proxy.stats().faults_injected() > 0,
        "the soak must actually exercise injected faults: {:?}",
        proxy.stats().snapshot()
    );
    let log = recorder.records();
    // The one invariant that matters: transport weather never turns into
    // a contract verdict against the cloud.
    assert!(
        log.iter().all(|r| !r.verdict.is_violation()),
        "transport fault surfaced as a violation: {:?}",
        log.iter().find(|r| r.verdict.is_violation())
    );
    let degraded = log
        .iter()
        .filter(|r| r.verdict == Verdict::Degraded)
        .count();
    let passes = log.iter().filter(|r| r.verdict == Verdict::Pass).count();
    assert!(degraded >= 1, "soak injected faults but nothing degraded");
    assert!(passes >= 1, "soak must also see clean passes");
    // Degraded records carry the untested requirement ids (Table I).
    assert!(
        log.iter()
            .filter(|r| r.verdict == Verdict::Degraded && r.method == "DELETE")
            .all(|r| r.requirements.contains(&"1.4".to_string())),
        "degraded verdicts must carry their untestable requirements"
    );
    proxy.shutdown();
    server.shutdown();
}

#[test]
fn overload_sheds_interleaved_with_chaos_never_become_violations() {
    // The worst weather: wire faults from the chaos proxy and
    // transport-level sheds landing between monitored requests. Two
    // things must stay true throughout: no verdict is ever a violation
    // (neither weather nor shedding incriminates the cloud), and every
    // shed reaches the audit trail as `Degraded` with overload
    // provenance.
    let cloud = Arc::new(PrivateCloud::my_project());
    let pid = cloud.project_id();
    let alice = cloud.issue_token("alice", "alice-pw").unwrap().token;
    let handle = Arc::clone(&cloud);
    let server = HttpServer::bind("127.0.0.1:0", Arc::new(move |req| handle.call(&req)))
        .expect("bind cloud server");
    let proxy = ChaosListener::spawn(server.local_addr(), ChaosPlan::seeded(0x0DD10AD, 89, 0.2))
        .expect("spawn chaos proxy");
    let recorder = Arc::new(MemoryRecorder::new());
    let mut monitor = cinder_monitor(RemoteService::with_client(
        proxy.local_addr(),
        chaos_client(),
    ))
    .expect("generate monitor")
    .mode(Mode::Observe)
    .audit_recorder(Arc::clone(&recorder) as Arc<dyn AuditRecorder>);
    monitor
        .authenticate("alice", "alice-pw")
        .expect("authenticate through the clean grace slots");

    let mut sheds_reported = 0u64;
    for round in 0..40u8 {
        let volumes: Vec<u64> = cloud
            .state()
            .project(pid)
            .unwrap()
            .volumes
            .iter()
            .map(|v| v.id)
            .collect();
        if (volumes.len() as u32) < cm_cloudsim::DEFAULT_VOLUME_QUOTA {
            monitor.process(
                &RestRequest::new(HttpMethod::Post, format!("/v3/{pid}/volumes"))
                    .auth_token(&alice)
                    .json(volume_body(&format!("storm-{round}"))),
            );
        }
        if let Some(vid) = volumes.first() {
            monitor.process(
                &RestRequest::new(HttpMethod::Delete, format!("/v3/{pid}/volumes/{vid}"))
                    .auth_token(&alice),
            );
        }
        // Interleave a transport-level shed every third round, exactly
        // as the reactor's shed observer would deliver it.
        if round % 3 == 0 {
            monitor.record_shed(
                &RestRequest::new(HttpMethod::Get, format!("/v3/{pid}/volumes")).auth_token(&alice),
                &ShedDecision {
                    lane: Lane::Read,
                    queue_wait: Duration::from_millis(42),
                    budget: Duration::from_millis(25),
                    cause: ShedCause::BudgetExhausted,
                },
            );
            sheds_reported += 1;
        }
    }

    assert!(
        proxy.stats().faults_injected() > 0,
        "the soak must actually exercise injected faults"
    );
    // Invariant 1: nothing — weather or sheds — produces a contract
    // violation.
    let records = recorder.records();
    assert!(
        records.iter().all(|r| !r.verdict.is_violation()),
        "overload+chaos interleaving surfaced a violation: {:?}",
        records.iter().find(|r| r.verdict.is_violation())
    );
    // Invariant 2: every shed is on the audit trail as Degraded with
    // overload provenance — never dropped, never anything stronger.
    let shed_records: Vec<_> = records
        .iter()
        .filter(|r| match &r.context {
            ReplayContext::DegradedPre { faults, .. } => {
                faults.iter().any(|f| f.contains("overload shed"))
            }
            _ => false,
        })
        .collect();
    assert_eq!(shed_records.len() as u64, sheds_reported, "lost sheds");
    for shed in &shed_records {
        assert_eq!(shed.verdict, VerdictCode::Degraded, "{shed:?}");
        assert_eq!(shed.status, 503);
        assert_eq!(shed.method, "GET");
        match &shed.context {
            ReplayContext::DegradedPre { forwarded, faults } => {
                assert!(!forwarded, "a shed request must never reach the cloud");
                assert!(
                    faults
                        .iter()
                        .any(|f| f.contains("lane=read") && f.contains("cause=budget_exhausted")),
                    "missing overload provenance: {faults:?}"
                );
            }
            other => panic!("shed recorded under the wrong context: {other:?}"),
        }
    }
    // Admitted traffic still produced real verdicts around the sheds.
    assert!(
        records
            .iter()
            .any(|r| r.verdict == VerdictCode::Pass && r.method == "POST"),
        "no clean pass recorded during the interleaving"
    );
    proxy.shutdown();
    server.shutdown();
}

#[test]
fn semantic_mutants_still_die_and_never_hide_as_degraded() {
    // Wrong-authorization mutant (the paper's classic): carol may
    // suddenly delete volumes. The transport is healthy — an empty chaos
    // plan forwards every request — so the monitor must classify the
    // mutant as a WrongAcceptance, never as Degraded.
    let plan = FaultPlan::single(Fault::PolicyOverride {
        action: "volume:delete".into(),
        rule: cm_rbac::Rule::Always,
    });
    let cloud = Arc::new(PrivateCloud::my_project().with_faults(plan));
    let pid = cloud.project_id();
    let carol = cloud.issue_token("carol", "carol-pw").unwrap().token;
    cloud.state_mut().create_volume(pid, "v", 1, false).unwrap();
    let (server, proxy, monitor, recorder) =
        chaos_stack(Arc::clone(&cloud), ChaosPlan::cycle(Vec::new()));

    let outcome = monitor.process(
        &RestRequest::new(HttpMethod::Delete, format!("/v3/{pid}/volumes/1")).auth_token(&carol),
    );
    assert_eq!(outcome.verdict, Verdict::WrongAcceptance, "{outcome:?}");
    assert!(
        recorder
            .records()
            .iter()
            .all(|r| r.verdict != Verdict::Degraded),
        "a semantic mutant must never be reported as transport degradation"
    );
    proxy.shutdown();
    server.shutdown();
}

#[test]
fn wrong_status_mutant_is_not_degraded_over_the_network() {
    // A wrong-success-status mutant: DELETE answers 200 instead of 204.
    // 200 is a success code, not a gateway error, so the transport layer
    // must leave it alone and the contract layer must flag it.
    let plan = FaultPlan::single(Fault::WrongStatusCode {
        action: "volume:delete".into(),
        code: 200,
    });
    let cloud = Arc::new(PrivateCloud::my_project().with_faults(plan));
    let pid = cloud.project_id();
    let alice = cloud.issue_token("alice", "alice-pw").unwrap().token;
    cloud.state_mut().create_volume(pid, "v", 1, false).unwrap();
    let (server, proxy, monitor, recorder) =
        chaos_stack(Arc::clone(&cloud), ChaosPlan::cycle(Vec::new()));

    let outcome = monitor.process(
        &RestRequest::new(HttpMethod::Delete, format!("/v3/{pid}/volumes/1")).auth_token(&alice),
    );
    assert_eq!(outcome.response.status, StatusCode::OK);
    assert!(
        matches!(outcome.verdict, Verdict::WrongStatus { .. }),
        "{outcome:?}"
    );
    assert!(recorder
        .records()
        .iter()
        .all(|r| r.verdict != Verdict::Degraded));
    proxy.shutdown();
    server.shutdown();
}
