//! Cinder monitoring walkthrough — the *cloud developer* user story
//! (Section III-B, user 1): validate an implementation against its design
//! models during development, exercising every Figure 3 state.
//!
//! Run with: `cargo run --example cinder_monitoring`

use cm_audit::{AuditRecorder, MemoryRecorder};
use cm_cloudsim::{PrivateCloud, DEFAULT_VOLUME_QUOTA};
use cm_core::{cinder_monitor, Mode};
use cm_model::HttpMethod;
use cm_rest::{Json, RestRequest, StatusCode};
use std::sync::Arc;

fn volume_body(name: &str, size: i64) -> Json {
    Json::object(vec![(
        "volume",
        Json::object(vec![
            ("name", Json::Str(name.into())),
            ("size", Json::Int(size)),
        ]),
    )])
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cloud = PrivateCloud::my_project();
    let pid = cloud.project_id();
    let admin = cloud.issue_token("alice", "alice-pw")?;
    let member = cloud.issue_token("bob", "bob-pw")?;

    let recorder = Arc::new(MemoryRecorder::new());
    let mut monitor = cinder_monitor(cloud)?
        .mode(Mode::Enforce)
        .audit_recorder(Arc::clone(&recorder) as Arc<dyn AuditRecorder>);
    monitor.authenticate("alice", "alice-pw")?;

    println!("walking the Figure 3 state machine through the monitor:");
    println!("(project quota = {DEFAULT_VOLUME_QUOTA} volumes)\n");

    // project_with_no_volume --POST--> not_full --POST--> ... --POST--> full
    for i in 1..=DEFAULT_VOLUME_QUOTA {
        let token = if i % 2 == 0 {
            &member.token
        } else {
            &admin.token
        };
        let outcome = monitor.process(
            &RestRequest::new(HttpMethod::Post, format!("/v3/{pid}/volumes"))
                .auth_token(token)
                .json(volume_body(&format!("vol{i}"), 5)),
        );
        println!(
            "POST volume #{i}: {} [{}] — state now {}",
            outcome.response.status,
            outcome.verdict,
            if i == DEFAULT_VOLUME_QUOTA {
                "project_with_volume_and_full_quota"
            } else {
                "project_with_volume_and_not_full_quota"
            }
        );
    }

    // At full quota a further POST must be refused (no enabled transition).
    let over = monitor.process(
        &RestRequest::new(HttpMethod::Post, format!("/v3/{pid}/volumes"))
            .auth_token(&admin.token)
            .json(volume_body("overflow", 1)),
    );
    println!(
        "POST over quota: {} [{}]",
        over.response.status, over.verdict
    );

    // Reads and updates on the full state (SecReq 1.1, 1.2).
    let get = monitor.process(
        &RestRequest::new(HttpMethod::Get, format!("/v3/{pid}/volumes/1"))
            .auth_token(&member.token),
    );
    println!("GET volume 1:    {} [{}]", get.response.status, get.verdict);
    let put = monitor.process(
        &RestRequest::new(HttpMethod::Put, format!("/v3/{pid}/volumes/1"))
            .auth_token(&member.token)
            .json(volume_body("renamed", 5)),
    );
    println!("PUT volume 1:    {} [{}]", put.response.status, put.verdict);

    // full --DELETE--> not_full --DELETE--> ... --DELETE--> no_volume
    for vid in 1..=DEFAULT_VOLUME_QUOTA {
        let outcome = monitor.process(
            &RestRequest::new(HttpMethod::Delete, format!("/v3/{pid}/volumes/{vid}"))
                .auth_token(&admin.token),
        );
        println!(
            "DELETE volume {vid}: {} [{}]",
            outcome.response.status, outcome.verdict
        );
    }

    println!("\nmonitor log ({} requests):", recorder.len());
    for r in recorder.records() {
        println!(
            "  {} {:<24} -> {:<22} [{}] {}",
            r.method,
            r.path,
            StatusCode(r.status).to_string(),
            r.verdict,
            if r.requirements.is_empty() {
                String::new()
            } else {
                format!("SecReq {}", r.requirements.join(","))
            }
        );
    }
    println!("\n{}", monitor.coverage());
    Ok(())
}
