//! Cross-crate end-to-end tests of the monitor, including the full
//! network deployment (HTTP client → monitor proxy over TCP → cloud over
//! TCP) and the mutation experiment through the public API.

use cm_audit::{AuditRecorder, MemoryRecorder};
use cm_cloudsim::{Fault, FaultPlan, PrivateCloud};
use cm_core::{cinder_monitor, CloudMonitor, Mode, TestOracle, Verdict};
use cm_httpkit::{send, HttpServer, RemoteService};
use cm_model::{cinder, HttpMethod};
use cm_mutation::{paper_mutants, run_campaign};
use cm_rest::{Json, RestRequest, SharedRestService, StatusCode};
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

#[test]
fn paper_experiment_all_three_mutants_killed() {
    let result = run_campaign(&paper_mutants());
    assert_eq!(result.killed(), 3, "{result}");
}

#[test]
fn oracle_is_clean_on_correct_cloud_and_detects_composite_faults() {
    let clean = TestOracle.run(PrivateCloud::my_project);
    assert!(!clean.killed(), "{clean}");

    // A composite mutant: two simultaneous faults.
    let plan = FaultPlan::none()
        .with(Fault::IgnoreQuota)
        .with(Fault::SkipAuthCheck {
            action: "volume:delete".into(),
        });
    let composite = TestOracle.run(move || PrivateCloud::my_project().with_faults(plan.clone()));
    assert!(composite.killed(), "{composite}");
    // Both faults are visible through different scenarios.
    let names: Vec<&str> = composite
        .violations()
        .iter()
        .map(|s| s.name.as_str())
        .collect();
    assert!(names.iter().any(|n| n.contains("full quota")), "{names:?}");
    assert!(
        names.iter().any(|n| n.contains("DELETE volume as")),
        "{names:?}"
    );
}

#[test]
fn monitored_network_deployment_end_to_end() {
    // Cloud behind HTTP.
    let cloud = Arc::new(PrivateCloud::my_project());
    let pid = cloud.project_id();
    let cloud_handle = Arc::clone(&cloud);
    let cloud_server =
        HttpServer::bind("127.0.0.1:0", Arc::new(move |req| cloud_handle.call(&req)))
            .expect("bind cloud");

    // Monitor wrapping the cloud over TCP, itself behind HTTP.
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
        .expect("admin credentials over TCP");
    let monitor = Arc::new(monitor);
    let monitor_handle = Arc::clone(&monitor);
    let monitor_server = HttpServer::bind(
        "127.0.0.1:0",
        Arc::new(move |req| monitor_handle.call(&req)),
    )
    .expect("bind monitor");
    let cm = monitor_server.local_addr();

    // Authenticate through the proxy.
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
    assert_eq!(auth.status, StatusCode::CREATED);
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

    // Create + delete through the full network path.
    let created = send(
        cm,
        &RestRequest::new(HttpMethod::Post, format!("/v3/{pid}/volumes"))
            .auth_token(&token)
            .json(volume_body("net")),
    )
    .expect("create over TCP");
    assert_eq!(created.status, StatusCode::CREATED);

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
    let denied = send(
        cm,
        &RestRequest::new(HttpMethod::Delete, format!("/v3/{pid}/volumes/1")).auth_token(&carol),
    )
    .expect("denied over TCP");
    assert_eq!(denied.status, StatusCode::PRECONDITION_FAILED);

    let deleted = send(
        cm,
        &RestRequest::new(HttpMethod::Delete, format!("/v3/{pid}/volumes/1")).auth_token(&token),
    )
    .expect("delete over TCP");
    assert_eq!(deleted.status, StatusCode::NO_CONTENT);

    // Monitor saw exactly these modelled requests.
    let verdicts: Vec<Verdict> = recorder.records().into_iter().map(|r| r.verdict).collect();
    assert!(verdicts.contains(&Verdict::PreBlocked));
    assert_eq!(verdicts.iter().filter(|v| **v == Verdict::Pass).count(), 2);

    monitor_server.shutdown();
    cloud_server.shutdown();
}

#[test]
fn observe_mode_is_transparent_to_clients() {
    // In observe mode the client sees exactly the cloud's responses, even
    // for violations — only the log differs.
    let plan = FaultPlan::single(Fault::PolicyOverride {
        action: "volume:delete".into(),
        rule: cm_rbac::Rule::Always,
    });
    let cloud = PrivateCloud::my_project().with_faults(plan);
    let pid = cloud.project_id();
    let carol = cloud.issue_token("carol", "carol-pw").unwrap();
    cloud.state_mut().create_volume(pid, "v", 1, false).unwrap();
    let mut monitor = cinder_monitor(cloud).unwrap().mode(Mode::Observe);
    monitor.authenticate("alice", "alice-pw").unwrap();

    let outcome = monitor.process(
        &RestRequest::new(HttpMethod::Delete, format!("/v3/{pid}/volumes/1"))
            .auth_token(&carol.token),
    );
    // The mutant cloud accepted carol's delete; observe mode forwards the
    // (faulty) 204 but records the wrong acceptance.
    assert_eq!(outcome.response.status, StatusCode::NO_CONTENT);
    assert_eq!(outcome.verdict, Verdict::WrongAcceptance);
}

#[test]
fn monitor_detects_externally_injected_role_change() {
    // Fault injected through the identity store (not the policy): the
    // business_analyst group is wrongly granted the admin role.
    let cloud = PrivateCloud::my_project();
    let pid = cloud.project_id();
    cloud
        .identity_mut()
        .set_group_role(pid, "business_analyst", "admin")
        .unwrap();
    let carol = cloud.issue_token("carol", "carol-pw").unwrap();
    cloud.state_mut().create_volume(pid, "v", 1, false).unwrap();

    let mut monitor = cinder_monitor(cloud).unwrap().mode(Mode::Observe);
    monitor.authenticate("alice", "alice-pw").unwrap();
    let outcome = monitor.process(
        &RestRequest::new(HttpMethod::Delete, format!("/v3/{pid}/volumes/1"))
            .auth_token(&carol.token),
    );
    // Subtlety: the monitor's user view comes from the cloud's own token
    // introspection, which now reports carol as admin — so from the
    // models' perspective the request *is* authorized. The role change is
    // visible in the identity data, not in the behavioural contract; the
    // monitor correctly passes the request. This documents the paper's
    // trust boundary: the monitor validates the API implementation against
    // the models, treating Keystone's role assignments as ground truth.
    assert_eq!(outcome.verdict, Verdict::Pass);
}

#[test]
fn unreachable_cloud_is_degraded_not_a_contract_verdict() {
    // Wrap a dead endpoint: every request (including the monitor's own
    // probes) fails in transport. The monitor must not attribute this to
    // the cloud's contract (a wrong denial); the pre-state is simply
    // untestable, so the verdict is Degraded with the affected
    // requirement ids attached.
    let dead_addr = {
        let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        l.local_addr().unwrap()
    };
    let mut monitor = CloudMonitor::generate(
        &cinder::resource_model(),
        &cinder::behavioral_model(),
        None,
        RemoteService::new(dead_addr),
    )
    .unwrap()
    .mode(Mode::Observe);
    // Authentication against the dead cloud fails loudly.
    assert!(monitor.authenticate("alice", "alice-pw").is_err());

    let outcome = monitor
        .process(&RestRequest::new(HttpMethod::Delete, "/v3/1/volumes/1").auth_token("tok-x"));
    assert_eq!(outcome.verdict, Verdict::Degraded, "{:?}", outcome);
    assert!(!outcome.verdict.is_violation());
    assert!(outcome.response.is_transport_fault(), "{:?}", outcome);
    // Table I traceability: the untested requirement rides along.
    assert!(outcome.requirements.contains(&"1.4".to_string()));
}

#[test]
fn extended_monitor_over_the_network() {
    // The snapshot extension also works across a real TCP hop.
    let cloud = Arc::new(PrivateCloud::my_project());
    let pid = cloud.project_id();
    let vid = cloud
        .state_mut()
        .create_volume(pid, "v", 1, false)
        .unwrap()
        .id;
    assert_eq!(vid, 1);
    let cloud_handle = Arc::clone(&cloud);
    let server =
        HttpServer::bind("127.0.0.1:0", Arc::new(move |req| cloud_handle.call(&req))).unwrap();
    let mut monitor = cm_core::cinder_monitor_extended(RemoteService::new(server.local_addr()))
        .unwrap()
        .mode(Mode::Enforce);
    monitor.authenticate("alice", "alice-pw").unwrap();
    let admin_auth = monitor.call(
        &RestRequest::new(HttpMethod::Post, "/identity/auth/tokens").json(Json::object(vec![(
            "auth",
            Json::object(vec![
                ("user", Json::Str("alice".into())),
                ("password", Json::Str("alice-pw".into())),
            ]),
        )])),
    );
    let token = admin_auth
        .body
        .unwrap()
        .get("token")
        .unwrap()
        .get("id")
        .unwrap()
        .as_str()
        .unwrap()
        .to_string();
    let create = monitor.process(
        &RestRequest::new(HttpMethod::Post, format!("/v3/{pid}/volumes/1/snapshots"))
            .auth_token(&token)
            .json(Json::object(vec![(
                "snapshot",
                Json::object(vec![("name", Json::Str("net-snap".into()))]),
            )])),
    );
    assert_eq!(create.verdict, Verdict::Pass, "{create:?}");
    assert_eq!(create.response.status, StatusCode::CREATED);
    server.shutdown();
}
