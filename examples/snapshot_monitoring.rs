//! Multi-resource monitoring — the extended Cinder scenario: one monitor
//! generated from *two* behavioural state machines (the volume lifecycle
//! of Figure 3 plus a snapshot lifecycle), enforcing SecReq 1.x and 2.x
//! over nested URIs (`/v3/{project}/volumes/{volume}/snapshots/{snap}`).
//!
//! Run with: `cargo run --example snapshot_monitoring`

use cm_audit::{AuditRecorder, MemoryRecorder, RecordSummary};
use cm_cloudsim::PrivateCloud;
use cm_core::{cinder_monitor_extended, Mode};
use cm_model::HttpMethod;
use cm_rest::{Json, RestRequest};
use std::sync::Arc;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cloud = PrivateCloud::my_project();
    let pid = cloud.project_id();
    let admin = cloud.issue_token("alice", "alice-pw")?;
    let carol = cloud.issue_token("carol", "carol-pw")?;

    let recorder = Arc::new(MemoryRecorder::new());
    let mut monitor = cinder_monitor_extended(cloud)?
        .mode(Mode::Enforce)
        .audit_recorder(Arc::clone(&recorder) as Arc<dyn AuditRecorder>);
    monitor.authenticate("alice", "alice-pw")?;
    println!(
        "extended monitor: {} routes, {} contracts covering SecReq {:?}\n",
        monitor.routes().routes().len(),
        monitor.contracts().contracts.len(),
        monitor.contracts().covered_requirements()
    );

    // Create a volume, then walk the snapshot lifecycle on it.
    let create_vol = monitor.process(
        &RestRequest::new(HttpMethod::Post, format!("/v3/{pid}/volumes"))
            .auth_token(&admin.token)
            .json(Json::object(vec![(
                "volume",
                Json::object(vec![("name", Json::Str("data".into()))]),
            )])),
    );
    println!(
        "POST volume                    -> {} [{}]",
        create_vol.response.status, create_vol.verdict
    );

    let create_snap = monitor.process(
        &RestRequest::new(HttpMethod::Post, format!("/v3/{pid}/volumes/1/snapshots"))
            .auth_token(&admin.token)
            .json(Json::object(vec![(
                "snapshot",
                Json::object(vec![("name", Json::Str("nightly".into()))]),
            )])),
    );
    println!(
        "POST snapshot                  -> {} [{}] SecReq {:?}",
        create_snap.response.status, create_snap.verdict, create_snap.requirements
    );

    // carol may read snapshots (SecReq 2.1)…
    let get = monitor.process(
        &RestRequest::new(HttpMethod::Get, format!("/v3/{pid}/volumes/1/snapshots/1"))
            .auth_token(&carol.token),
    );
    println!(
        "GET snapshot as carol          -> {} [{}]",
        get.response.status, get.verdict
    );

    // …but not delete them (SecReq 2.3) — blocked before the cloud.
    let blocked = monitor.process(
        &RestRequest::new(
            HttpMethod::Delete,
            format!("/v3/{pid}/volumes/1/snapshots/1"),
        )
        .auth_token(&carol.token),
    );
    println!(
        "DELETE snapshot as carol       -> {} [{}]",
        blocked.response.status, blocked.verdict
    );

    // A volume with snapshots cannot be deleted (Cinder semantics). The
    // extended volume model carries the refinement conjunct
    // `volume.snapshots->size() = 0` on its DELETE guards, so the monitor
    // blocks this request outright instead of mistaking the cloud's 409
    // for a wrong denial — extending the system means refining the models.
    let vol_del = monitor.process(
        &RestRequest::new(HttpMethod::Delete, format!("/v3/{pid}/volumes/1"))
            .auth_token(&admin.token),
    );
    println!(
        "DELETE volume with snapshot    -> {} [{}]",
        vol_del.response.status, vol_del.verdict
    );

    // Clean up the snapshot, then the volume deletes cleanly.
    let snap_del = monitor.process(
        &RestRequest::new(
            HttpMethod::Delete,
            format!("/v3/{pid}/volumes/1/snapshots/1"),
        )
        .auth_token(&admin.token),
    );
    println!(
        "DELETE snapshot as alice       -> {} [{}]",
        snap_del.response.status, snap_del.verdict
    );
    let vol_del2 = monitor.process(
        &RestRequest::new(HttpMethod::Delete, format!("/v3/{pid}/volumes/1"))
            .auth_token(&admin.token),
    );
    println!(
        "DELETE volume (no snapshots)   -> {} [{}]",
        vol_del2.response.status, vol_del2.verdict
    );

    println!("\ninvocation log as JSON (fault-localization export):");
    let summaries = recorder
        .records()
        .into_iter()
        .zip(0..)
        .map(|(r, offset)| RecordSummary::from(r).to_json(offset))
        .collect();
    println!("{}", Json::Array(summaries).to_compact_string());
    Ok(())
}
