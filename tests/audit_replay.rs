//! Differential replay: a recorded monitor session re-evaluated by
//! [`cm_core::ReplayEngine`] against the *same* contract set must
//! reproduce the verdict sequence exactly — including `Degraded`
//! verdicts and requirement ids — and against a *mutated* contract set
//! must surface diffs, never errors.

use cm_audit::{AuditRecorder, MemoryRecorder, VerdictCode};
use cm_cloudsim::PrivateCloud;
use cm_core::{cinder_monitor, Mode, ReplayEngine, Verdict};
use cm_model::{cinder, HttpMethod};
use cm_rest::{Json, RestRequest, RestResponse, SharedRestService, StatusCode};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Pass-through cloud that, once armed, fails every model-state probe
/// (GETs under `/v3`) with a transport fault — the recorded session's
/// source of honest `Degraded` verdicts.
struct FlakyProbes {
    inner: PrivateCloud,
    armed: AtomicBool,
}

impl SharedRestService for FlakyProbes {
    fn call(&self, request: &RestRequest) -> RestResponse {
        if self.armed.load(Ordering::Relaxed)
            && request.method == HttpMethod::Get
            && request.path.starts_with("/v3")
        {
            return RestResponse::transport_fault(StatusCode::BAD_GATEWAY, "probe fault");
        }
        self.inner.call(request)
    }
}

fn volume_body(name: &str) -> Json {
    Json::object(vec![(
        "volume",
        Json::object(vec![
            ("name", Json::Str(name.into())),
            ("size", Json::Int(1)),
        ]),
    )])
}

/// Run a monitor_e2e-style session with a tee into [`MemoryRecorder`]
/// and return the captured trace plus the verdicts the live monitor
/// actually returned.
fn recorded_session() -> (Vec<cm_audit::AuditRecord>, Vec<Verdict>) {
    let cloud = PrivateCloud::my_project();
    let pid = cloud.project_id();
    let admin = cloud.issue_token("alice", "alice-pw").unwrap().token;
    let carol = cloud.issue_token("carol", "carol-pw").unwrap().token;
    let seeded = cloud
        .state_mut()
        .create_volume(pid, "s", 1, false)
        .unwrap()
        .id;
    let victim = cloud
        .state_mut()
        .create_volume(pid, "t", 1, false)
        .unwrap()
        .id;

    let recorder = Arc::new(MemoryRecorder::new());
    let mut monitor = cinder_monitor(FlakyProbes {
        inner: cloud,
        armed: AtomicBool::new(false),
    })
    .unwrap()
    .mode(Mode::Enforce)
    .audit_recorder(Arc::clone(&recorder) as Arc<dyn AuditRecorder>);
    monitor.authenticate("alice", "alice-pw").unwrap();

    let mut verdicts = Vec::new();
    let mut run = |req: &RestRequest| {
        verdicts.push(monitor.process(req).verdict);
    };

    // 1. Modelled create: Pass (201).
    run(
        &RestRequest::new(HttpMethod::Post, format!("/v3/{pid}/volumes"))
            .auth_token(&admin)
            .json(volume_body("rec")),
    );
    // 2. Unauthorized delete: PreBlocked (enforce).
    run(
        &RestRequest::new(HttpMethod::Delete, format!("/v3/{pid}/volumes/{seeded}"))
            .auth_token(&carol),
    );
    // 3. Authorized delete: Pass (204).
    run(
        &RestRequest::new(HttpMethod::Delete, format!("/v3/{pid}/volumes/{seeded}"))
            .auth_token(&admin),
    );
    // 4. Unmodelled read (no `limits` resource in the model): proxied.
    run(&RestRequest::new(HttpMethod::Get, format!("/v3/{pid}/limits")).auth_token(&admin));
    // 5. Probes go dark: authorized delete degrades (fail-closed).
    monitor.cloud().armed.store(true, Ordering::Relaxed);
    run(
        &RestRequest::new(HttpMethod::Delete, format!("/v3/{pid}/volumes/{victim}"))
            .auth_token(&admin),
    );

    assert_eq!(
        verdicts,
        vec![
            Verdict::Pass,
            Verdict::PreBlocked,
            Verdict::Pass,
            Verdict::NotModelled,
            Verdict::Degraded,
        ],
        "live session did not produce the expected verdict mix"
    );
    let records = recorder.records();
    assert_eq!(
        records.len(),
        verdicts.len(),
        "one audit record per request"
    );
    (records, verdicts)
}

#[test]
fn replay_against_same_contracts_reproduces_the_session() {
    let (records, verdicts) = recorded_session();
    let mut engine = ReplayEngine::from_behaviors(&[&cinder::behavioral_model()], None)
        .expect("contract generation");
    let report = engine.replay(&records);

    assert!(
        report.is_clean(),
        "replay against the unchanged contract set must be diff-free:\n{}",
        report.to_json().to_pretty_string()
    );
    assert_eq!(report.matched(), records.len());
    // Verdict-for-verdict, including Degraded, and requirement ids.
    for (entry, (record, live)) in report.entries.iter().zip(records.iter().zip(&verdicts)) {
        assert_eq!(&entry.recorded, live);
        let replayed = entry.replayed.as_verdict().expect("no indeterminates");
        assert_eq!(replayed, &record.verdict, "seq {}", record.seq);
    }
    // The degraded record carried Table-I requirement ids and replay
    // re-derived the same set (is_clean already compared them; spot-
    // check the traceability id survives the round trip).
    let degraded = records.last().unwrap();
    assert_eq!(degraded.verdict, VerdictCode::Degraded);
    assert!(degraded.requirements.contains(&"1.4".to_string()));
}

#[test]
fn replay_against_mutated_contracts_surfaces_diffs_not_errors() {
    let (records, _) = recorded_session();

    // Invert every transition guard: authority flips, so recorded
    // PreBlocked/Pass verdicts disagree with the new contract set.
    let mut mutated = cinder::behavioral_model();
    for t in &mut mutated.transitions {
        if let Some(g) = t.guard.take() {
            t.guard = Some(g.negate());
        }
    }
    let mut engine =
        ReplayEngine::from_behaviors(&[&mutated], None).expect("mutated set still compiles");
    let report = engine.replay(&records);

    // Diffs, not errors: every record gets a verdict-or-indeterminate
    // entry, the report renders, and at least the authorization
    // decisions flip.
    assert_eq!(report.entries.len(), records.len());
    assert!(
        report.diff_count() > 0,
        "guard inversion must surface diffs:\n{}",
        report.to_json().to_pretty_string()
    );
    let flipped: Vec<&str> = report.diffs().map(|e| e.method.as_str()).collect();
    assert!(
        flipped.contains(&"DELETE") || flipped.contains(&"POST"),
        "expected an authorization flip among the diffs, got {flipped:?}"
    );
    // Structural entries (NotModelled) replay identically even under
    // mutation — the diff set is precise, not everything-differs.
    assert!(report.matched() > 0, "unmodelled entries must still match");
}

#[test]
fn replay_of_empty_trace_is_clean() {
    let mut engine = ReplayEngine::from_behaviors(&[&cinder::behavioral_model()], None)
        .expect("contract generation");
    let report = engine.replay(&[]);
    assert!(report.is_clean());
    assert_eq!(report.matched(), 0);
    assert_eq!(report.diff_count(), 0);
}
