//! Network proxy deployment — the paper's actual topology: the private
//! cloud runs in one place (OpenStack in VirtualBox), the cloud monitor in
//! another (the laptop), and clients drive it with cURL-style HTTP.
//!
//! Here both ends are real TCP servers on localhost: the simulated cloud
//! is served over HTTP, the monitor wraps it through a pooled
//! keep-alive remote-service adapter and is itself served over HTTP,
//! and the client drives it through a persistent `PooledClient`
//! connection.
//!
//! Run with: `cargo run --example http_proxy`

use cm_audit::{AuditRecorder, MemoryRecorder};
use cm_cloudsim::PrivateCloud;
use cm_core::CloudMonitor;
use cm_httpkit::{AdminRoutes, HttpServer, PooledClient, RemoteService, ServerConfig};
use cm_model::{cinder, HttpMethod};
use cm_rest::{Json, RestRequest, SharedRestService, StatusCode};
use std::sync::Arc;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. The private cloud, served over HTTP (the "VirtualBox VM").
    // No Mutex around it: `PrivateCloud` synchronizes internally per
    // project shard, so connection threads proceed in parallel.
    let cloud = Arc::new(PrivateCloud::my_project());
    let pid = cloud.project_id();
    let cloud_for_server = Arc::clone(&cloud);
    let cloud_server = HttpServer::bind_with(
        "127.0.0.1:0",
        Arc::new(move |req| cloud_for_server.call(&req)),
        ServerConfig::default(),
    )?;
    println!(
        "private cloud listening on http://{}",
        cloud_server.local_addr()
    );

    // 2. The generated monitor, wrapping the cloud over the network and
    //    itself served over HTTP (the paper's port 8000).
    //    Every decision is also recorded — in memory here; `cmcli serve
    //    --audit-dir` writes the same records to a durable log.
    let remote_cloud = RemoteService::new(cloud_server.local_addr());
    let recorder = Arc::new(MemoryRecorder::new());
    let mut monitor = CloudMonitor::generate(
        &cinder::resource_model(),
        &cinder::behavioral_model(),
        None,
        remote_cloud,
    )?
    .audit_recorder(Arc::clone(&recorder) as Arc<dyn AuditRecorder>);
    monitor.authenticate("alice", "alice-pw")?;
    let admin = AdminRoutes::new(monitor.metrics(), monitor.events());
    // Shared, not locked: `process(&self)` is concurrently callable.
    let monitor = Arc::new(monitor);
    let monitor_for_server = Arc::clone(&monitor);
    let monitor_server = HttpServer::bind(
        "127.0.0.1:0",
        admin.wrap(Arc::new(move |req| monitor_for_server.call(&req))),
    )?;
    let cm = monitor_server.local_addr();
    println!("cloud monitor listening on http://{cm}\n");

    // 3. Clients authenticate *through* the monitor. The client keeps one
    //    TCP connection alive across all of these requests.
    let client = PooledClient::default();
    let send = |req: &RestRequest| client.request(cm, req);
    let auth = send(
        &RestRequest::new(HttpMethod::Post, "/identity/auth/tokens").json(Json::object(vec![(
            "auth",
            Json::object(vec![
                ("user", Json::Str("alice".into())),
                ("password", Json::Str("alice-pw".into())),
            ]),
        )])),
    )?;
    let alice = auth
        .body
        .as_ref()
        .unwrap()
        .get("token")
        .unwrap()
        .get("id")
        .unwrap();
    let alice = alice.as_str().unwrap().to_string();
    let carol_auth = send(
        &RestRequest::new(HttpMethod::Post, "/identity/auth/tokens").json(Json::object(vec![(
            "auth",
            Json::object(vec![
                ("user", Json::Str("carol".into())),
                ("password", Json::Str("carol-pw".into())),
            ]),
        )])),
    )?;
    let carol = carol_auth
        .body
        .as_ref()
        .unwrap()
        .get("token")
        .unwrap()
        .get("id")
        .unwrap();
    let carol = carol.as_str().unwrap().to_string();

    // …and drive the volume API, e.g. the paper's
    //   curl -X DELETE -d id=4 http://127.0.0.1:8000/cmonitor/volumes/4
    let create = send(
        &RestRequest::new(HttpMethod::Post, format!("/v3/{pid}/volumes"))
            .auth_token(&alice)
            .json(Json::object(vec![(
                "volume",
                Json::object(vec![("name", Json::Str("net-vol".into()))]),
            )])),
    )?;
    println!("alice POST /v3/{pid}/volumes          -> {}", create.status);

    let denied = send(
        &RestRequest::new(HttpMethod::Delete, format!("/v3/{pid}/volumes/1")).auth_token(&carol),
    )?;
    println!(
        "carol DELETE /v3/{pid}/volumes/1      -> {} ({})",
        denied.status,
        denied.error_message().unwrap_or("-")
    );

    let deleted = send(
        &RestRequest::new(HttpMethod::Delete, format!("/v3/{pid}/volumes/1")).auth_token(&alice),
    )?;
    println!(
        "alice DELETE /v3/{pid}/volumes/1      -> {}",
        deleted.status
    );

    println!("\nmonitor verdicts:");
    for r in recorder.records() {
        println!(
            "  {} {:<20} -> {} [{}]",
            r.method,
            r.path,
            StatusCode(r.status),
            r.verdict
        );
    }

    // 4. The same numbers, as any operator would fetch them: the admin
    //    endpoints in front of the monitor server.
    let metrics = send(&RestRequest::new(HttpMethod::Get, "/-/metrics"))?;
    println!("\nGET /-/metrics:");
    println!("{}", metrics.body.as_ref().unwrap().to_pretty_string());
    let events = send(&RestRequest::new(HttpMethod::Get, "/-/events?tail=3"))?;
    let shown = events
        .body
        .as_ref()
        .unwrap()
        .get("events")
        .unwrap()
        .as_array()
        .unwrap()
        .len();
    println!("GET /-/events?tail=3 returned {shown} events");
    println!(
        "client transport: {} connection(s) opened, {} request(s) reused an idle one",
        client.connections_opened(),
        client.connections_reused()
    );

    monitor_server.shutdown();
    cloud_server.shutdown();
    Ok(())
}
