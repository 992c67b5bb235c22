//! Identity is state: a caller's roles can change while the monitor's
//! identity cache still holds the old answer (up to its 60 s TTL). No
//! violation may rest on a cached identity — a wrong denial or wrong
//! acceptance judged on one is judged again on a fresh introspection,
//! and the change is reported as identity drift. Every case runs under
//! both bindings and both modes, with the trace replayed afterwards.

use cm_audit::{AuditRecorder, MemoryRecorder, ReplayContext};
use cm_cloudsim::{Fault, FaultPlan, PrivateCloud};
use cm_core::{cinder_monitor, CloudMonitor, Mode, ReplayEngine, SnapshotPolicy, Verdict};
use cm_model::{cinder, HttpMethod};
use cm_rest::{Json, RestRequest, RestResponse, SharedRestService, StatusCode};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// The cloud, counting token introspections.
struct Counted {
    cloud: PrivateCloud,
    introspections: AtomicU64,
}

impl SharedRestService for Counted {
    fn call(&self, request: &RestRequest) -> RestResponse {
        if request.path.starts_with("/identity/tokens/") {
            self.introspections.fetch_add(1, Ordering::Relaxed);
        }
        self.cloud.call(request)
    }
}

struct Fixture {
    monitor: CloudMonitor<Counted>,
    recorder: Arc<MemoryRecorder>,
    pid: u64,
    vid: u64,
}

fn fixture(
    policy: SnapshotPolicy,
    mode: Mode,
    ttl: Option<Duration>,
    faults: FaultPlan,
) -> Fixture {
    let cloud = PrivateCloud::my_project().with_faults(faults);
    let pid = cloud.project_id();
    let vid = cloud
        .state_mut()
        .create_volume(pid, "seed", 1, false)
        .unwrap()
        .id;
    let recorder = Arc::new(MemoryRecorder::new());
    let mut monitor = cinder_monitor(Counted {
        cloud,
        introspections: AtomicU64::new(0),
    })
    .unwrap()
    .mode(mode)
    .snapshot_policy(policy)
    .audit_recorder(Arc::clone(&recorder) as Arc<dyn AuditRecorder>);
    if let Some(ttl) = ttl {
        monitor = monitor.identity_cache_ttl(ttl);
    }
    monitor.authenticate("alice", "alice-pw").unwrap();
    Fixture {
        monitor,
        recorder,
        pid,
        vid,
    }
}

impl Fixture {
    fn send(&self, token: &str, method: HttpMethod) -> cm_core::MonitorOutcome {
        let mut request =
            RestRequest::new(method, format!("/v3/{}/volumes/{}", self.pid, self.vid))
                .auth_token(token);
        if method == HttpMethod::Put {
            request = request.json(Json::object(vec![(
                "volume",
                Json::object(vec![("name", Json::Str("renamed".into()))]),
            )]));
        }
        self.monitor.process(&request)
    }

    fn token(&self, user: &str) -> String {
        let cloud = &self.monitor.cloud().cloud;
        cloud
            .issue_token(user, &format!("{user}-pw"))
            .unwrap()
            .token
    }

    fn set_group_role(&self, group: &str, role: &str) {
        let cloud = &self.monitor.cloud().cloud;
        cloud
            .identity_mut()
            .set_group_role(self.pid, group, role)
            .unwrap();
    }

    fn introspections(&self) -> u64 {
        self.monitor.cloud().introspections.load(Ordering::Relaxed)
    }

    /// The diagnostics of every identity drift record.
    fn identity_drift(&self) -> Vec<String> {
        self.recorder
            .records()
            .into_iter()
            .filter(|r| matches!(r.context, ReplayContext::Drift { .. }))
            .map(|r| {
                assert_eq!(r.verdict, Verdict::Drift);
                r.diagnostics
            })
            .collect()
    }

    /// Replaying the trace re-derives every recorded verdict.
    fn assert_replays(&self) {
        let mut engine =
            ReplayEngine::from_behaviors(&[&cinder::behavioral_model()], None).unwrap();
        let report = engine.replay(&self.recorder.records());
        assert!(report.is_clean(), "{}", report.to_json().to_pretty_string());
    }
}

const BINDINGS: [SnapshotPolicy; 2] = [SnapshotPolicy::Full, SnapshotPolicy::Replica];

/// bob (`service_architect`, role member) may PUT a volume. His group is
/// demoted to `user` after a warm request cached his identity.
fn role_removed(
    policy: SnapshotPolicy,
    mode: Mode,
    ttl: Option<Duration>,
) -> (Fixture, cm_core::MonitorOutcome) {
    let f = fixture(policy, mode, ttl, FaultPlan::none());
    let bob = f.token("bob");
    assert_eq!(f.send(&bob, HttpMethod::Get).verdict, Verdict::Pass);
    f.set_group_role("service_architect", "user");
    let outcome = f.send(&bob, HttpMethod::Put);
    (f, outcome)
}

/// carol (`business_analyst`, role user) may not DELETE a volume. Her
/// group is promoted to `admin` after a warm request cached her identity.
fn role_granted(
    policy: SnapshotPolicy,
    mode: Mode,
    ttl: Option<Duration>,
) -> (Fixture, cm_core::MonitorOutcome) {
    let f = fixture(policy, mode, ttl, FaultPlan::none());
    let carol = f.token("carol");
    assert_eq!(f.send(&carol, HttpMethod::Get).verdict, Verdict::Pass);
    f.set_group_role("business_analyst", "admin");
    let outcome = f.send(&carol, HttpMethod::Delete);
    (f, outcome)
}

#[test]
fn identity_role_removed_is_judged_on_the_fresh_identity() {
    for policy in BINDINGS {
        for mode in [Mode::Enforce, Mode::Observe] {
            let (f, outcome) = role_removed(policy, mode, None);
            let case = format!("{policy:?} {mode:?}");
            // The cloud correctly refused the demoted caller: no wrong
            // denial, and Enforce passes the cloud's 403 through instead
            // of replacing it with a 502.
            assert_eq!(outcome.verdict, Verdict::Pass, "{case}: {outcome:?}");
            assert_eq!(outcome.response.status, StatusCode::FORBIDDEN, "{case}");
            // The warm request introspected once, the re-check once more.
            assert_eq!(f.introspections(), 2, "{case}");
            let drift = f.identity_drift();
            assert_eq!(drift.len(), 1, "{case}: {drift:?}");
            assert!(
                drift[0].starts_with("identity drift: "),
                "{case}: {drift:?}"
            );
            assert!(
                drift[0]
                    .contains("user.roles (bob (user 2): cached [member], introspected [user])"),
                "{case}: {drift:?}"
            );
            assert!(
                drift[0].contains("user.groups (bob (user 2): cached member, introspected user)"),
                "{case}: {drift:?}"
            );
            f.assert_replays();
        }
    }
}

#[test]
fn identity_role_granted_stays_a_fail_safe_refusal_under_enforce() {
    for policy in BINDINGS {
        let (f, outcome) = role_granted(policy, Mode::Enforce, None);
        // Refused on the cached identity, as before: fail-safe, and no
        // re-introspection on the refusal path.
        assert_eq!(outcome.verdict, Verdict::PreBlocked, "{policy:?}");
        assert_eq!(outcome.response.status, StatusCode::PRECONDITION_FAILED);
        assert_eq!(f.introspections(), 1, "{policy:?}");
        assert!(f.identity_drift().is_empty(), "{policy:?}");
        f.assert_replays();
    }
}

#[test]
fn identity_role_granted_is_no_wrong_acceptance_under_observe() {
    for policy in BINDINGS {
        let (f, outcome) = role_granted(policy, Mode::Observe, None);
        assert_eq!(outcome.verdict, Verdict::Pass, "{policy:?}: {outcome:?}");
        assert_eq!(outcome.response.status, StatusCode::NO_CONTENT);
        assert_eq!(f.introspections(), 2, "{policy:?}");
        let drift = f.identity_drift();
        assert_eq!(drift.len(), 1, "{policy:?}: {drift:?}");
        assert!(
            drift[0].contains("user.roles (carol (user 3): cached [user], introspected [admin])"),
            "{policy:?}: {drift:?}"
        );
        f.assert_replays();
    }
}

#[test]
fn identity_uncached_control_judges_every_case_on_the_fresh_identity() {
    for policy in BINDINGS {
        for mode in [Mode::Enforce, Mode::Observe] {
            let case = format!("{policy:?} {mode:?}");
            let (f, removed) = role_removed(policy, mode, Some(Duration::ZERO));
            let (verdict, status) = match mode {
                Mode::Enforce => (Verdict::PreBlocked, StatusCode::PRECONDITION_FAILED),
                Mode::Observe => (Verdict::Pass, StatusCode::FORBIDDEN),
            };
            assert_eq!(removed.verdict, verdict, "{case}");
            assert_eq!(removed.response.status, status, "{case}");
            assert!(f.identity_drift().is_empty(), "{case}");
            f.assert_replays();

            let (f, granted) = role_granted(policy, mode, Some(Duration::ZERO));
            assert_eq!(granted.verdict, Verdict::Pass, "{case}");
            assert_eq!(granted.response.status, StatusCode::NO_CONTENT, "{case}");
            assert!(f.identity_drift().is_empty(), "{case}");
            f.assert_replays();
        }
    }
}

#[test]
fn identity_confirmed_by_the_recheck_keeps_a_real_wrong_denial() {
    for policy in BINDINGS {
        // The mutant refuses authorized updates; probes are reads, so
        // neither binding's view of the volume changes.
        let plan = FaultPlan::single(Fault::InvertAuthCheck {
            action: "volume:put".into(),
        });
        let f = fixture(policy, Mode::Observe, None, plan);
        let alice = f.token("alice");
        // The first request introspects; the second rests on the cache,
        // is re-checked, and the unchanged identity confirms the verdict.
        for introspections in [1, 2] {
            let outcome = f.send(&alice, HttpMethod::Put);
            assert_eq!(outcome.verdict, Verdict::WrongDenial, "{policy:?}");
            assert_eq!(f.introspections(), introspections, "{policy:?}");
        }
        assert!(f.identity_drift().is_empty(), "{policy:?}");
        f.assert_replays();
    }
}
