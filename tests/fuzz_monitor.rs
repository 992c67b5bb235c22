//! Robustness soak test: bombard the monitored cloud with randomly
//! generated requests (valid, invalid, malformed paths, wrong tokens,
//! random bodies) and assert the monitor never panics, always answers,
//! and never reports a violation — a correct cloud under arbitrary
//! traffic must not produce false positives.

use cm_audit::{AuditRecorder, MemoryRecorder};
use cm_cloudsim::PrivateCloud;
use cm_core::{cinder_monitor_extended, Mode, Verdict};
use cm_model::HttpMethod;
use cm_obs::XorShift64Star;
use cm_rest::{Json, RestRequest};
use std::sync::Arc;

fn random_path(rng: &mut XorShift64Star, pid: u64) -> String {
    let templates = [
        format!("/v3/{pid}"),
        format!("/v3/{pid}/volumes"),
        format!("/v3/{pid}/volumes/{}", rng.gen_usize(0..6)),
        format!("/v3/{pid}/volumes/{}/snapshots", rng.gen_usize(0..6)),
        format!(
            "/v3/{pid}/volumes/{}/snapshots/{}",
            rng.gen_usize(0..6),
            rng.gen_usize(0..6)
        ),
        format!("/v3/{pid}/quota_sets"),
        format!("/v3/{pid}/usergroup"),
        format!("/v3/{}/volumes", rng.gen_usize(0..4)),
        "/v3/not-a-number/volumes".to_string(),
        "/identity/tokens/tok-00000001".to_string(),
        format!("/totally/unknown/{}", rng.gen_usize(0..100)),
        "/".to_string(),
        "/v3".to_string(),
        format!("/v3/{pid}/volumes/999999999999999999999"),
    ];
    templates[rng.gen_usize(0..templates.len())].clone()
}

fn random_body(rng: &mut XorShift64Star) -> Option<Json> {
    match rng.gen_usize(0..4) {
        0 => None,
        1 => Some(Json::object(vec![(
            "volume",
            Json::object(vec![
                ("name", Json::Str(format!("v{}", rng.gen_usize(0..100)))),
                ("size", Json::Int(rng.gen_i64(-5..50))),
            ]),
        )])),
        2 => Some(Json::object(vec![(
            "snapshot",
            Json::object(vec![("name", Json::Str("s".into()))]),
        )])),
        _ => Some(Json::Array(vec![Json::Null, Json::Bool(true)])),
    }
}

#[test]
fn monitor_survives_random_traffic_without_false_positives() {
    let mut rng = XorShift64Star::new(0xC10D_2018);
    let cloud = PrivateCloud::my_project();
    let pid = cloud.project_id();
    let tokens: Vec<String> = ["alice", "bob", "carol", "mallory"]
        .iter()
        .map(|u| cloud.issue_token(u, &format!("{u}-pw")).unwrap().token)
        .collect();
    let recorder = Arc::new(MemoryRecorder::new());
    let mut monitor = cinder_monitor_extended(cloud)
        .unwrap()
        .mode(Mode::Observe)
        .audit_recorder(Arc::clone(&recorder) as Arc<dyn AuditRecorder>);
    monitor.authenticate("alice", "alice-pw").unwrap();

    const ROUNDS: usize = 600;
    for i in 0..ROUNDS {
        let method = HttpMethod::ALL[rng.gen_usize(0..4)];
        let path = random_path(&mut rng, pid);
        let mut req = RestRequest::new(method, path);
        match rng.gen_usize(0..4) {
            0 => {} // no token
            1 => req = req.auth_token("tok-bogus"),
            _ => req = req.auth_token(&tokens[rng.gen_usize(0..tokens.len())]),
        }
        if let Some(body) = random_body(&mut rng) {
            req = req.json(body);
        }
        let outcome = monitor.process(&req);
        assert!(
            !outcome.verdict.is_violation(),
            "false positive at round {i}: {outcome:?} for {req:?}"
        );
        // ContractError is acceptable only for unparsable ids (bad project
        // id → 400), never for well-formed requests.
        if outcome.verdict == Verdict::ContractError {
            assert_eq!(outcome.response.status.0, 400, "{outcome:?}");
        }
    }
    let log = recorder.records();
    assert_eq!(log.len(), ROUNDS);
    // The soak exercised a healthy mix of verdict classes.
    let passes = log.iter().filter(|r| r.verdict == Verdict::Pass).count();
    let unmodelled = log
        .iter()
        .filter(|r| r.verdict == Verdict::NotModelled)
        .count();
    assert!(passes > 50, "only {passes} passes");
    assert!(unmodelled > 20, "only {unmodelled} unmodelled");
}
