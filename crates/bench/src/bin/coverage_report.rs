//! Ablation — security-requirement coverage observation: run the oracle
//! suite on the correct cloud through one shared monitor and print the
//! coverage report the paper's security expert would inspect.

use cm_audit::{AuditRecorder, MemoryRecorder};
use cm_cloudsim::PrivateCloud;
use cm_core::{cinder_monitor, Mode, TestOracle};
use cm_model::HttpMethod;
use cm_rest::{RestRequest, RestService, StatusCode};
use std::sync::Arc;

fn main() {
    println!("SECURITY-REQUIREMENT COVERAGE OBSERVATION");
    println!();

    // A single long-lived monitor accumulating coverage over a manual
    // exploration session.
    let cloud = PrivateCloud::my_project();
    let pid = cloud.project_id();
    let tokens: Vec<(String, String)> = ["alice", "bob", "carol"]
        .iter()
        .map(|u| {
            let t = cloud.issue_token(u, &format!("{u}-pw")).expect("fixture");
            ((*u).to_string(), t.token)
        })
        .collect();
    let recorder = Arc::new(MemoryRecorder::new());
    let mut monitor = cinder_monitor(cloud)
        .expect("generates")
        .mode(Mode::Enforce)
        .audit_recorder(Arc::clone(&recorder) as Arc<dyn AuditRecorder>);
    monitor.authenticate("alice", "alice-pw").expect("fixture");

    let alice = tokens[0].1.clone();
    let carol = tokens[2].1.clone();
    // Exercise 1.3 (POST), 1.1 (GET), 1.4 (DELETE, both allowed and blocked).
    let body = cm_rest::Json::object(vec![(
        "volume",
        cm_rest::Json::object(vec![("name", cm_rest::Json::Str("v".into()))]),
    )]);
    monitor.handle(
        &RestRequest::new(HttpMethod::Post, format!("/v3/{pid}/volumes"))
            .auth_token(&alice)
            .json(body),
    );
    monitor.handle(
        &RestRequest::new(HttpMethod::Get, format!("/v3/{pid}/volumes/1")).auth_token(&carol),
    );
    monitor.handle(
        &RestRequest::new(HttpMethod::Delete, format!("/v3/{pid}/volumes/1")).auth_token(&carol),
    );
    monitor.handle(
        &RestRequest::new(HttpMethod::Delete, format!("/v3/{pid}/volumes/1")).auth_token(&alice),
    );

    println!("after a 4-request exploration session (PUT never exercised):");
    println!();
    print!("{}", monitor.coverage());
    println!();
    println!("request log:");
    for r in recorder.records() {
        println!(
            "  {} {:<28} -> {} [{}]",
            r.method,
            r.path,
            StatusCode(r.status),
            r.verdict
        );
    }
    println!();

    // The oracle suite achieves full coverage.
    println!("the automated oracle suite (Section III-B, user story 4):");
    let report = TestOracle.run(PrivateCloud::my_project);
    let mut reqs: Vec<&str> = report
        .scenarios
        .iter()
        .flat_map(|s| s.requirements.iter().map(String::as_str))
        .collect();
    reqs.sort_unstable();
    reqs.dedup();
    println!(
        "  {} scenarios exercise requirements {:?} — full Table I coverage",
        report.len(),
        reqs
    );
}
