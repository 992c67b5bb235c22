//! Replica-mode end-to-end tests: snapshot-free monitoring against the
//! model-derived shadow replica, anti-entropy drift detection, and the
//! chaos invariant that transport weather during reconciliation makes
//! the replica *stale*, never *wrong*.

use cm_audit::{AuditRecord, AuditRecorder, MemoryRecorder};
use cm_cloudsim::{PrivateCloud, VolumeStatus};
use cm_core::{cinder_monitor, CloudMonitor, Mode, SnapshotPolicy, Verdict};
use cm_model::HttpMethod;
use cm_rest::{Json, RestRequest, RestResponse, SharedRestService, StatusCode};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Shares the in-process cloud with the test while counting backend GETs
/// (the replica's whole point is driving these to zero in steady state)
/// and optionally eating probe-only requests (transport chaos aimed at
/// the anti-entropy path — the `quota_sets` probe is never a forwarded
/// client request, so failing it hits reconciliation and nothing else).
struct Instrumented {
    cloud: Arc<PrivateCloud>,
    gets: Arc<AtomicU64>,
    fail_quota_probes: Arc<AtomicBool>,
}

impl SharedRestService for Instrumented {
    fn call(&self, request: &RestRequest) -> RestResponse {
        if request.method == HttpMethod::Get {
            self.gets.fetch_add(1, Ordering::Relaxed);
            if self.fail_quota_probes.load(Ordering::Relaxed) && request.path.contains("quota_sets")
            {
                return RestResponse::transport_fault(
                    StatusCode::BAD_GATEWAY,
                    "chaos: probe eaten",
                );
            }
        }
        self.cloud.call(request)
    }
}

struct Fixture {
    cloud: Arc<PrivateCloud>,
    monitor: CloudMonitor<Instrumented>,
    recorder: Arc<MemoryRecorder>,
    gets: Arc<AtomicU64>,
    fail_quota_probes: Arc<AtomicBool>,
    pid: u64,
    vid: u64,
    token: String,
}

fn fixture(anti_entropy_every: u64) -> Fixture {
    let cloud = Arc::new(PrivateCloud::my_project());
    let pid = cloud.project_id();
    let vid = cloud
        .state_mut()
        .create_volume(pid, "seed", 1, false)
        .unwrap()
        .id;
    let token = cloud.issue_token("alice", "alice-pw").unwrap().token;
    let gets = Arc::new(AtomicU64::new(0));
    let fail_quota_probes = Arc::new(AtomicBool::new(false));
    let recorder = Arc::new(MemoryRecorder::new());
    let mut monitor = cinder_monitor(Instrumented {
        cloud: Arc::clone(&cloud),
        gets: Arc::clone(&gets),
        fail_quota_probes: Arc::clone(&fail_quota_probes),
    })
    .unwrap()
    .mode(Mode::Observe)
    .snapshot_policy(SnapshotPolicy::Replica)
    .anti_entropy_every(anti_entropy_every)
    .audit_recorder(Arc::clone(&recorder) as Arc<dyn AuditRecorder>);
    monitor.authenticate("alice", "alice-pw").unwrap();
    Fixture {
        cloud,
        monitor,
        recorder,
        gets,
        fail_quota_probes,
        pid,
        vid,
        token,
    }
}

fn get_volume(f: &Fixture) -> RestRequest {
    RestRequest::new(HttpMethod::Get, format!("/v3/{}/volumes/{}", f.pid, f.vid))
        .auth_token(&f.token)
}

fn drift_records(f: &Fixture) -> Vec<AuditRecord> {
    f.recorder
        .records()
        .into_iter()
        .filter(|r| r.verdict == Verdict::Drift)
        .collect()
}

/// The headline property: after the replica is seeded by the first
/// (miss) request, every further monitored GET costs exactly one
/// backend GET — the forward itself. Zero probe round-trips.
#[test]
fn steady_state_serves_with_zero_probe_gets() {
    let f = fixture(0); // on-demand reconciliation only
                        // First request seeds the replica (probe batch + identity).
    assert_eq!(f.monitor.process(&get_volume(&f)).verdict, Verdict::Pass);
    let seeded = f.gets.load(Ordering::Relaxed);
    assert!(seeded > 1, "seeding must have probed ({seeded} GETs)");
    for _ in 0..10 {
        assert_eq!(f.monitor.process(&get_volume(&f)).verdict, Verdict::Pass);
    }
    let steady = f.gets.load(Ordering::Relaxed) - seeded;
    assert_eq!(steady, 10, "10 monitored GETs must cost 10 backend GETs");
    assert!(drift_records(&f).is_empty());
}

/// Monitored mutations keep the replica in lockstep through the
/// observed request/response transition function: POST then DELETE a
/// volume, each checked against replica state, and a scheduled
/// anti-entropy pass afterwards finds nothing to repair.
#[test]
fn monitored_mutations_keep_replica_in_lockstep() {
    let f = fixture(3);
    assert_eq!(f.monitor.process(&get_volume(&f)).verdict, Verdict::Pass);
    let body = Json::object(vec![(
        "volume",
        Json::object(vec![
            ("name", Json::Str("obs".into())),
            ("size", Json::Int(1)),
        ]),
    )]);
    let post = RestRequest::new(HttpMethod::Post, format!("/v3/{}/volumes", f.pid))
        .auth_token(&f.token)
        .json(body);
    let created = f.monitor.process(&post);
    assert_eq!(created.verdict, Verdict::Pass, "{created:?}");
    let new_vid = created
        .response
        .body
        .unwrap()
        .get("volume")
        .unwrap()
        .get("id")
        .unwrap()
        .as_int()
        .unwrap() as u64;
    let del = RestRequest::new(
        HttpMethod::Delete,
        format!("/v3/{}/volumes/{new_vid}", f.pid),
    )
    .auth_token(&f.token);
    assert_eq!(f.monitor.process(&del).verdict, Verdict::Pass);
    // Ride through at least two scheduled anti-entropy passes: a replica
    // kept honest by transitions alone has nothing drift.
    for _ in 0..8 {
        assert_eq!(f.monitor.process(&get_volume(&f)).verdict, Verdict::Pass);
    }
    assert!(drift_records(&f).is_empty(), "{:?}", drift_records(&f));
}

/// A silent out-of-band cloud edit (no monitored request ever saw it)
/// must surface as exactly one `Verdict::Drift` detection within one
/// anti-entropy period, naming the mutated attribute and the security
/// requirements whose contracts read it — and the repair restores
/// parity, so later passes stay quiet.
#[test]
fn out_of_band_mutation_is_detected_attributed_and_repaired() {
    let f = fixture(3);
    // Seed, then a couple of steady-state serves.
    for _ in 0..2 {
        assert_eq!(f.monitor.process(&get_volume(&f)).verdict, Verdict::Pass);
    }
    // An operator edits the database behind the monitored API.
    let (pid, vid) = (f.pid, f.vid);
    f.cloud.mutate_out_of_band(pid, |state| {
        state.volume_mut(pid, vid).unwrap().status = VolumeStatus::Error;
    });
    // Within one anti-entropy period (3 replica serves) the scheduled
    // pass diffs replica against cloud and reports the edit.
    for _ in 0..3 {
        let outcome = f.monitor.process(&get_volume(&f));
        assert!(!outcome.verdict.is_violation(), "{outcome:?}");
    }
    let drifts = drift_records(&f);
    assert_eq!(drifts.len(), 1, "{drifts:?}");
    assert!(
        drifts[0].diagnostics.contains("volume.status"),
        "drift must name the mutated attribute: {:?}",
        drifts[0]
    );
    // volume.status is read by the DELETE volume pre-condition, so the
    // detection is traceable to that contract's requirements.
    assert!(
        !drifts[0].requirements.is_empty(),
        "drift must attribute requirements: {:?}",
        drifts[0]
    );
    // The same pass repaired the replica: further periods stay quiet and
    // verdicts agree with the (now error-status) cloud.
    for _ in 0..6 {
        assert_eq!(f.monitor.process(&get_volume(&f)).verdict, Verdict::Pass);
    }
    assert_eq!(drift_records(&f).len(), 1, "repair must restore parity");
}

/// Chaos invariant: transport faults during anti-entropy reconciliation
/// degrade the verdict and mark the replica stale — they never surface
/// as contract violations and never fabricate drift.
#[test]
fn probe_faults_during_anti_entropy_degrade_and_never_fabricate_drift() {
    let f = fixture(2);
    assert_eq!(f.monitor.process(&get_volume(&f)).verdict, Verdict::Pass);
    // Storm: every probe-only request fails at the wire.
    f.fail_quota_probes.store(true, Ordering::Relaxed);
    let mut saw_degraded = false;
    for _ in 0..6 {
        let outcome = f.monitor.process(&get_volume(&f));
        assert!(
            matches!(outcome.verdict, Verdict::Pass | Verdict::Degraded),
            "chaos must degrade, not misjudge: {outcome:?}"
        );
        saw_degraded |= outcome.verdict == Verdict::Degraded;
    }
    assert!(saw_degraded, "the scheduled pass must have hit the storm");
    // The storm clears: the stale replica re-seeds on the next request
    // and steady state resumes.
    f.fail_quota_probes.store(false, Ordering::Relaxed);
    for _ in 0..4 {
        assert_eq!(f.monitor.process(&get_volume(&f)).verdict, Verdict::Pass);
    }
    assert!(
        drift_records(&f).is_empty(),
        "faults must not be reported as drift: {:?}",
        drift_records(&f)
    );
}

/// A refused probe answer is no evidence about the state. Under mutants
/// that refuse the monitor's own reads — M04 inverts `volume:get`, S04
/// inverts `snapshot:get` — every probe pass that reads the refused
/// resource is refused, so the replica stays stale and each request is
/// probed and judged exactly as `Full` judges it, in both modes. Under
/// S04 a volume created through the monitor gets no snapshot listing
/// for free either: a pass that lists no snapshots seeds the replica,
/// but `Full` binds the new volume's refused listing as empty before
/// and after a snapshot POST, so the replica must probe that POST too.
#[test]
fn refused_probe_answers_never_seed_the_replica() {
    use cm_cloudsim::{Fault, FaultPlan};
    use cm_core::cinder_monitor_extended;

    fn judge(action: &str, mode: Mode, policy: SnapshotPolicy) -> Vec<(Verdict, u16)> {
        let cloud =
            PrivateCloud::my_project().with_faults(FaultPlan::single(Fault::InvertAuthCheck {
                action: action.to_string(),
            }));
        let pid = cloud.project_id();
        let vid = cloud
            .state_mut()
            .create_volume(pid, "seed", 1, false)
            .unwrap()
            .id;
        let alice = cloud.issue_token("alice", "alice-pw").unwrap().token;
        let mut monitor = cinder_monitor_extended(cloud)
            .unwrap()
            .mode(mode)
            .snapshot_policy(policy);
        monitor.authenticate("alice", "alice-pw").unwrap();
        let script = if action == "volume:get" {
            vec![RestRequest::new(HttpMethod::Get, format!("/v3/{pid}/volumes/{vid}")); 3]
        } else {
            let body = |kind: &str| {
                Json::object(vec![(
                    kind,
                    Json::object(vec![("name", Json::Str("s".into()))]),
                )])
            };
            let snapshot = |v: u64| {
                RestRequest::new(HttpMethod::Post, format!("/v3/{pid}/volumes/{v}/snapshots"))
                    .json(body("snapshot"))
            };
            // The created volume takes the next id.
            let create = RestRequest::new(HttpMethod::Post, format!("/v3/{pid}/volumes"))
                .json(body("volume"));
            vec![create, snapshot(vid + 1), snapshot(vid), snapshot(vid)]
        };
        script
            .into_iter()
            .map(|request| {
                let outcome = monitor.process(&request.auth_token(&alice));
                (outcome.verdict, outcome.response.status.0)
            })
            .collect()
    }

    for action in ["volume:get", "snapshot:get"] {
        for mode in [Mode::Enforce, Mode::Observe] {
            assert_eq!(
                judge(action, mode, SnapshotPolicy::Replica),
                judge(action, mode, SnapshotPolicy::Full),
                "{action} inverted, {mode:?}"
            );
        }
    }
}
