//! Observability end-to-end: the monitor's metrics registry and event
//! sink must agree exactly with its audit records — first checked
//! in-process over a mixed pass / pre-block / post-violation scenario,
//! then through the `/-/metrics` and `/-/events` admin endpoints of a
//! live HTTP deployment.

use cm_audit::{AuditRecord, AuditRecorder, MemoryRecorder};
use cm_cloudsim::{Fault, FaultPlan, PrivateCloud};
use cm_core::{cinder_monitor, CloudMonitor, Mode, Verdict};
use cm_httpkit::{send, AdminRoutes, HttpServer, RemoteService};
use cm_model::{cinder, HttpMethod};
use cm_rest::{Json, RestRequest, SharedRestService, StatusCode};
use std::collections::BTreeMap;
use std::sync::Arc;

fn volume_body(name: &str) -> Json {
    Json::object(vec![(
        "volume",
        Json::object(vec![
            ("name", Json::Str(name.into())),
            ("size", Json::Int(1)),
        ]),
    )])
}

/// Independent recount of the audit records: verdict-label counts and
/// per-requirement counts, the ground truth the metrics must match.
fn recount(log: &[AuditRecord]) -> (BTreeMap<String, u64>, BTreeMap<String, u64>) {
    let mut verdicts: BTreeMap<String, u64> = BTreeMap::new();
    let mut requirements: BTreeMap<String, u64> = BTreeMap::new();
    for record in log {
        *verdicts.entry(record.verdict.to_string()).or_default() += 1;
        for requirement in &record.requirements {
            *requirements.entry(requirement.clone()).or_default() += 1;
        }
    }
    (verdicts, requirements)
}

/// A monitor over a faulty cloud (lost update on volume create) that has
/// processed a pass, a post-violation, a pre-block, and an unmodelled
/// request, with the recorder that received its audit records.
fn mixed_scenario_monitor() -> (CloudMonitor<PrivateCloud>, Arc<MemoryRecorder>, u64) {
    let plan = FaultPlan::single(Fault::DropStateChange {
        action: "volume:post".into(),
    });
    let cloud = PrivateCloud::my_project().with_faults(plan);
    let pid = cloud.project_id();
    let alice = cloud.issue_token("alice", "alice-pw").unwrap();
    let carol = cloud.issue_token("carol", "carol-pw").unwrap();
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

    // pass
    let outcome = monitor.process(
        &RestRequest::new(HttpMethod::Get, format!("/v3/{pid}/volumes/1")).auth_token(&alice.token),
    );
    assert_eq!(outcome.verdict, Verdict::Pass, "{outcome:?}");
    // post-violation: the cloud claims success but dropped the update
    let outcome = monitor.process(
        &RestRequest::new(HttpMethod::Post, format!("/v3/{pid}/volumes"))
            .auth_token(&alice.token)
            .json(volume_body("lost")),
    );
    assert_eq!(outcome.verdict, Verdict::PostViolation, "{outcome:?}");
    // pre-block: carol may not delete (SecReq 1.4)
    let outcome = monitor.process(
        &RestRequest::new(HttpMethod::Delete, format!("/v3/{pid}/volumes/1"))
            .auth_token(&carol.token),
    );
    assert_eq!(outcome.verdict, Verdict::PreBlocked, "{outcome:?}");
    // unmodelled: identity API passes through
    let outcome = monitor.process(
        &RestRequest::new(HttpMethod::Post, "/identity/auth/tokens").json(Json::object(vec![(
            "auth",
            Json::object(vec![
                ("user", Json::Str("bob".into())),
                ("password", Json::Str("bob-pw".into())),
            ]),
        )])),
    );
    assert_eq!(outcome.verdict, Verdict::NotModelled, "{outcome:?}");
    (monitor, recorder, pid)
}

#[test]
fn metrics_equal_an_independent_recount_of_the_log() {
    let (monitor, recorder, _pid) = mixed_scenario_monitor();
    let metrics = monitor.metrics();
    let log = recorder.records();
    assert_eq!(log.len(), 4);

    let (verdicts, requirements) = recount(&log);
    assert_eq!(
        metrics.requests(),
        log.len() as u64,
        "every processed request is counted"
    );
    assert_eq!(
        metrics.violations(),
        log.iter().filter(|r| r.verdict.is_violation()).count() as u64
    );
    let metric_verdicts: BTreeMap<String, u64> = metrics.verdicts.snapshot().into_iter().collect();
    assert_eq!(metric_verdicts, verdicts);
    let metric_requirements: BTreeMap<String, u64> =
        metrics.requirements.snapshot().into_iter().collect();
    assert_eq!(metric_requirements, requirements);
    // The scenario exercised real requirements (the woven Table I ids).
    assert!(
        !requirements.is_empty(),
        "scenario exercised no requirements"
    );

    // Phase histograms saw every request; percentiles are defined.
    assert_eq!(metrics.total.count(), log.len() as u64);
    assert!(metrics.total.p50().unwrap() > 0);
    assert!(metrics.total.p95().unwrap() >= metrics.total.p50().unwrap());
    assert!(metrics.total.p99().unwrap() >= metrics.total.p95().unwrap());
    // Every event records every phase (skipped phases record 0 ns, in
    // bucket 0), so the per-phase counts also equal the request count.
    assert_eq!(metrics.forward.count(), log.len() as u64);
    assert_eq!(metrics.snapshot.count(), log.len() as u64);
    // The pre-blocked request never reached the cloud: at least one
    // forward sample is an exact 0.
    assert!(metrics
        .forward
        .nonzero_buckets()
        .iter()
        .any(|&(le, _)| le == 0));
}

#[test]
fn event_tail_mirrors_the_log_in_order() {
    let (monitor, recorder, pid) = mixed_scenario_monitor();
    let events = monitor.events().tail(100);
    let log = recorder.records();
    assert_eq!(events.len(), log.len());
    for (event, record) in events.iter().zip(&log) {
        assert_eq!(event.path, record.path);
        assert_eq!(event.verdict, record.verdict.to_string());
        assert_eq!(event.requirements, record.requirements);
        assert_eq!(event.status, record.status);
        assert_eq!(event.violation, record.verdict.is_violation());
    }
    // Sequence numbers are emission-ordered.
    let seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
    assert_eq!(seqs, vec![0, 1, 2, 3]);
    // The modelled requests carry their resolved route; the identity
    // call does not.
    assert_eq!(
        events[0].route.as_deref(),
        Some("/v3/{project_id}/volumes/{volume_id}")
    );
    assert!(events[3].route.is_none());
    assert!(events[0].path.contains(&format!("/v3/{pid}")));
    // Total phase time covers the sum of the measured phases.
    for event in &events {
        let t = &event.timings;
        assert!(
            t.total >= t.pre_check + t.forward + t.snapshot + t.post_check,
            "{t:?}"
        );
    }
}

#[test]
fn admin_endpoints_serve_live_metrics_over_http() {
    // Cloud behind HTTP, monitor proxy with admin routes in front.
    let cloud = Arc::new(PrivateCloud::my_project());
    let pid = cloud.project_id();
    let cloud_handle = Arc::clone(&cloud);
    let cloud_server =
        HttpServer::bind("127.0.0.1:0", Arc::new(move |req| cloud_handle.call(&req)))
            .expect("bind cloud");

    let recorder = Arc::new(MemoryRecorder::new());
    let mut monitor = CloudMonitor::generate(
        &cinder::resource_model(),
        &cinder::behavioral_model(),
        None,
        RemoteService::new(cloud_server.local_addr()),
    )
    .expect("generates")
    .mode(Mode::Enforce)
    .audit_recorder(Arc::clone(&recorder) as Arc<dyn AuditRecorder>);
    monitor
        .authenticate("alice", "alice-pw")
        .expect("authenticates");
    let admin = AdminRoutes::new(monitor.metrics(), monitor.events());
    let monitor = Arc::new(monitor);
    let monitor_handle = Arc::clone(&monitor);
    let monitor_server = HttpServer::bind(
        "127.0.0.1:0",
        admin.wrap(Arc::new(move |req| monitor_handle.call(&req))),
    )
    .expect("bind monitor");
    let cm = monitor_server.local_addr();

    // Drive traffic through the proxy: one auth (unmodelled), one
    // create (pass), one forbidden delete (pre-blocked).
    let auth = send(
        cm,
        &RestRequest::new(HttpMethod::Post, "/identity/auth/tokens").json(Json::object(vec![(
            "auth",
            Json::object(vec![
                ("user", Json::Str("alice".into())),
                ("password", Json::Str("alice-pw".into())),
            ]),
        )])),
    )
    .expect("auth over TCP");
    let token = auth
        .body
        .unwrap()
        .get("token")
        .unwrap()
        .get("id")
        .unwrap()
        .as_str()
        .unwrap()
        .to_string();
    let carol_auth = send(
        cm,
        &RestRequest::new(HttpMethod::Post, "/identity/auth/tokens").json(Json::object(vec![(
            "auth",
            Json::object(vec![
                ("user", Json::Str("carol".into())),
                ("password", Json::Str("carol-pw".into())),
            ]),
        )])),
    )
    .expect("carol auth");
    let carol = carol_auth
        .body
        .unwrap()
        .get("token")
        .unwrap()
        .get("id")
        .unwrap()
        .as_str()
        .unwrap()
        .to_string();
    let created = send(
        cm,
        &RestRequest::new(HttpMethod::Post, format!("/v3/{pid}/volumes"))
            .auth_token(&token)
            .json(volume_body("observed")),
    )
    .expect("create over TCP");
    assert_eq!(created.status, StatusCode::CREATED);
    let denied = send(
        cm,
        &RestRequest::new(HttpMethod::Delete, format!("/v3/{pid}/volumes/1")).auth_token(&carol),
    )
    .expect("denied over TCP");
    assert_eq!(denied.status, StatusCode::PRECONDITION_FAILED);

    // /-/metrics answers with counts that exactly match the log.
    let metrics_response =
        send(cm, &RestRequest::new(HttpMethod::Get, "/-/metrics")).expect("metrics over TCP");
    assert_eq!(metrics_response.status, StatusCode::OK);
    let body = metrics_response.body.expect("metrics body");
    let log = recorder.records();
    let (verdicts, requirements) = recount(&log);
    assert_eq!(
        body.get("requests").unwrap().as_int(),
        Some(log.len() as i64)
    );
    for (label, count) in &verdicts {
        assert_eq!(
            body.get("verdicts")
                .unwrap()
                .get(label)
                .and_then(Json::as_int),
            Some(*count as i64),
            "verdict {label}"
        );
    }
    for (requirement, count) in &requirements {
        assert_eq!(
            body.get("requirements")
                .unwrap()
                .get(requirement)
                .and_then(Json::as_int),
            Some(*count as i64),
            "requirement {requirement}"
        );
    }
    assert!(!requirements.is_empty(), "no requirements exercised");
    // Phase histograms are populated, with percentile summaries.
    let phases = body.get("phases").unwrap();
    for phase in ["pre_check", "forward", "snapshot", "post_check", "total"] {
        let histogram = phases.get(phase).unwrap();
        assert_eq!(
            histogram.get("count").unwrap().as_int(),
            Some(log.len() as i64),
            "phase {phase}"
        );
        for quantile in ["p50_ns", "p95_ns", "p99_ns"] {
            assert!(
                histogram.get(quantile).unwrap().as_int().is_some(),
                "{phase} {quantile}"
            );
        }
    }
    assert!(
        phases
            .get("total")
            .unwrap()
            .get("p50_ns")
            .unwrap()
            .as_int()
            .unwrap()
            > 0
    );

    // /-/events serves the most recent events, honouring tail.
    let events_response =
        send(cm, &RestRequest::new(HttpMethod::Get, "/-/events?tail=2")).expect("events over TCP");
    let events_body = events_response.body.expect("events body");
    let events = events_body.get("events").unwrap().as_array().unwrap();
    assert_eq!(events.len(), 2);
    assert_eq!(
        events[1].get("path").unwrap().as_str(),
        Some(format!("/v3/{pid}/volumes/1").as_str())
    );
    assert_eq!(
        events[1].get("verdict").unwrap().as_str(),
        Some("pre-blocked")
    );
    assert_eq!(events_body.get("dropped").unwrap().as_int(), Some(0));

    // Unknown admin paths 404 without reaching the monitor.
    let before = recorder.len();
    let missing = send(cm, &RestRequest::new(HttpMethod::Get, "/-/nope")).expect("404 over TCP");
    assert_eq!(missing.status, StatusCode::NOT_FOUND);
    assert_eq!(recorder.len(), before);

    monitor_server.shutdown();
    cloud_server.shutdown();
}
