//! Differential replay: re-evaluate a recorded audit trace against the
//! *current* contract set.
//!
//! An [`cm_audit::AuditRecord`] carries the serialized pre/post OCL
//! environments the monitor observed, so a trace can be re-judged
//! without a live cloud: [`ReplayEngine`] rebuilds each environment,
//! runs the (possibly updated) compiled contracts over it, and
//! reclassifies with the same decision procedure `CloudMonitor::process`
//! uses. `cmcli audit replay` diffs the result against the recorded
//! verdicts — a changed contract set surfaces *diffs*, never errors.
//!
//! Replay cannot reproduce what was never observed: a record whose
//! context lacks the facts a branch needs (never forwarded, no post
//! snapshot) replays as [`ReplayOutcome::Indeterminate`], which counts
//! as a diff (the new contract set demands evidence the old trace does
//! not hold) rather than a failure.

use crate::judge::{self, Decision, Judge, PostState};
use crate::monitor::{merge_contracts, MonitorBuildError, Verdict};
use cm_audit::{AuditRecord, ReplayContext};
use cm_contracts::{CompiledContractSet, ContractSet};
use cm_model::{BehavioralModel, HttpMethod, Trigger};
use cm_ocl::{EnvView, EvalScratch};
use cm_rbac::SecurityRequirementsTable;
use cm_rest::{Json, StatusCode};

/// What one record replayed to under the current contract set.
#[derive(Debug, Clone, PartialEq)]
pub enum ReplayOutcome {
    /// The record carried enough evidence to reach a verdict.
    Verdict {
        /// The re-derived verdict.
        verdict: Verdict,
        /// The re-derived requirement attribution.
        requirements: Vec<String>,
    },
    /// The recorded context lacks the facts this branch needs under the
    /// current contracts (e.g. never forwarded, no post snapshot).
    Indeterminate(String),
}

impl ReplayOutcome {
    fn verdict(verdict: Verdict, requirements: Vec<String>) -> Self {
        ReplayOutcome::Verdict {
            verdict,
            requirements,
        }
    }

    /// The verdict, when one was reached.
    #[must_use]
    pub fn as_verdict(&self) -> Option<&Verdict> {
        match self {
            ReplayOutcome::Verdict { verdict, .. } => Some(verdict),
            ReplayOutcome::Indeterminate(_) => None,
        }
    }
}

/// One record's recorded-vs-replayed comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayEntry {
    /// Monitor admission sequence number of the source record.
    pub seq: u64,
    /// Request method (as recorded).
    pub method: String,
    /// Request path (as recorded).
    pub path: String,
    /// The verdict the monitor reached at record time.
    pub recorded: Verdict,
    /// The requirement ids attributed at record time.
    pub recorded_requirements: Vec<String>,
    /// The outcome under the current contract set.
    pub replayed: ReplayOutcome,
}

/// Order-insensitive requirement comparison (attribution order follows
/// clause order, which a regenerated contract set may permute).
fn same_requirements(a: &[String], b: &[String]) -> bool {
    let mut a: Vec<&String> = a.iter().collect();
    let mut b: Vec<&String> = b.iter().collect();
    a.sort();
    a.dedup();
    b.sort();
    b.dedup();
    a == b
}

impl ReplayEntry {
    /// Whether replay disagrees with the record. Indeterminate outcomes
    /// count as diffs: the current contracts demand evidence the trace
    /// does not hold.
    #[must_use]
    pub fn is_diff(&self) -> bool {
        match &self.replayed {
            ReplayOutcome::Verdict {
                verdict,
                requirements,
            } => {
                verdict != &self.recorded
                    || !same_requirements(requirements, &self.recorded_requirements)
            }
            ReplayOutcome::Indeterminate(_) => true,
        }
    }

    /// Render for `cmcli audit replay` output.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let reqs = |rs: &[String]| Json::Array(rs.iter().cloned().map(Json::Str).collect());
        let mut fields = vec![
            (
                "seq",
                Json::Int(i64::try_from(self.seq).unwrap_or(i64::MAX)),
            ),
            ("method", Json::Str(self.method.clone())),
            ("path", Json::Str(self.path.clone())),
            ("recorded", Json::Str(self.recorded.label())),
            ("recorded_requirements", reqs(&self.recorded_requirements)),
        ];
        match &self.replayed {
            ReplayOutcome::Verdict {
                verdict,
                requirements,
            } => {
                fields.push(("replayed", Json::Str(verdict.label())));
                fields.push(("replayed_requirements", reqs(requirements)));
            }
            ReplayOutcome::Indeterminate(reason) => {
                fields.push(("replayed", Json::Str("indeterminate".into())));
                fields.push(("indeterminate_reason", Json::Str(reason.clone())));
            }
        }
        fields.push(("diff", Json::Bool(self.is_diff())));
        Json::object(fields)
    }
}

/// The outcome of replaying a whole trace.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayReport {
    /// Per-record comparisons, in trace order.
    pub entries: Vec<ReplayEntry>,
}

impl ReplayReport {
    /// Entries where replay disagrees with the record.
    pub fn diffs(&self) -> impl Iterator<Item = &ReplayEntry> {
        self.entries.iter().filter(|e| e.is_diff())
    }

    /// Number of disagreeing entries.
    #[must_use]
    pub fn diff_count(&self) -> usize {
        self.diffs().count()
    }

    /// Number of agreeing entries.
    #[must_use]
    pub fn matched(&self) -> usize {
        self.entries.len() - self.diff_count()
    }

    /// True when every record replayed to its recorded verdict.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.diff_count() == 0
    }

    /// Render for `cmcli audit replay` output.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let count = |n: usize| Json::Int(i64::try_from(n).unwrap_or(i64::MAX));
        Json::object(vec![
            ("records", count(self.entries.len())),
            ("matched", count(self.matched())),
            ("diffs", count(self.diff_count())),
            ("clean", Json::Bool(self.is_clean())),
            (
                "entries",
                Json::Array(self.entries.iter().map(ReplayEntry::to_json).collect()),
            ),
        ])
    }
}

/// Re-evaluates recorded audit traces against a contract set, using the
/// same compiled pipeline and decision procedure as the live monitor.
#[derive(Debug)]
pub struct ReplayEngine {
    contracts: ContractSet,
    compiled: CompiledContractSet,
    scratch: EvalScratch,
}

impl ReplayEngine {
    /// Build from an already-generated contract set.
    #[must_use]
    pub fn from_contract_set(contracts: ContractSet) -> Self {
        let compiled = CompiledContractSet::compile(&contracts);
        ReplayEngine {
            contracts,
            compiled,
            scratch: EvalScratch::new(),
        }
    }

    /// Generate and merge contracts from behavioural models exactly as
    /// `CloudMonitor::generate_multi` does, so replaying against
    /// unchanged models reproduces the monitor's verdicts.
    ///
    /// # Errors
    ///
    /// Contract-generation failures or overlapping triggers.
    pub fn from_behaviors(
        behaviors: &[&BehavioralModel],
        security: Option<&SecurityRequirementsTable>,
    ) -> Result<Self, MonitorBuildError> {
        Ok(Self::from_contract_set(merge_contracts(
            behaviors, security,
        )?))
    }

    /// The contract set replay judges against.
    #[must_use]
    pub fn contracts(&self) -> &ContractSet {
        &self.contracts
    }

    /// Replay a whole trace in order.
    pub fn replay(&mut self, records: &[AuditRecord]) -> ReplayReport {
        let entries = records
            .iter()
            .map(|r| ReplayEntry {
                seq: r.seq,
                method: r.method.clone(),
                path: r.path.clone(),
                recorded: r.verdict.clone(),
                recorded_requirements: r.requirements.clone(),
                replayed: self.replay_record(r),
            })
            .collect();
        ReplayReport { entries }
    }

    /// Re-judge one record: the recorded facts stand in for the live
    /// cloud, and the monitor's own judge decides.
    pub fn replay_record(&mut self, record: &AuditRecord) -> ReplayOutcome {
        let ReplayEngine {
            contracts,
            compiled,
            scratch,
        } = self;
        let (contracts, compiled) = (&*contracts, &*compiled);
        let judge = record.trigger.as_ref().and_then(|(method, resource)| {
            let trigger = Trigger::new(method.parse::<HttpMethod>().ok()?, resource.as_str());
            Some(Judge::new(
                contracts,
                compiled,
                compiled.index_for(&trigger)?,
            ))
        });
        let decided = |d: Decision| ReplayOutcome::verdict(d.verdict, d.requirements);
        let structural = |verdict: Verdict| ReplayOutcome::verdict(verdict, Vec::new());
        match (&record.context, judge) {
            (ReplayContext::Unmodelled, _) => structural(Verdict::NotModelled),
            (ReplayContext::MethodNotAllowed { enforced: true, .. }, _) => {
                structural(Verdict::PreBlocked)
            }
            (ReplayContext::MethodNotAllowed { cloud_status, .. }, _) => match cloud_status {
                Some(status) => structural(judge::method_not_allowed(StatusCode(*status))),
                None => ReplayOutcome::Indeterminate(
                    "no cloud response recorded for forwarded method".into(),
                ),
            },
            (ReplayContext::BadTarget, _) => structural(Verdict::ContractError),
            // A drift record carries no evaluation environment to
            // re-judge — it is the anti-entropy pass's observation, not a
            // contract decision.
            (ReplayContext::Drift { .. }, _) => {
                ReplayOutcome::verdict(Verdict::Drift, record.requirements.clone())
            }
            // Refused before routing (an overload shed): no contract was
            // consulted, so the recorded attribution stands.
            (ReplayContext::DegradedPre { .. }, _) if record.trigger.is_none() => {
                ReplayOutcome::verdict(Verdict::Degraded, record.requirements.clone())
            }
            // The transport, not the contracts, decided these: the
            // verdict stays Degraded, but attribution follows the
            // *current* contract's requirements.
            (ReplayContext::DegradedPre { .. } | ReplayContext::DegradedForward, Some(judge)) => {
                decided(judge.degraded(""))
            }
            (_, None) => structural(Verdict::NotModelled),
            (
                ReplayContext::Checked {
                    pre_env,
                    post_env,
                    post_partial,
                    probe_denials,
                    forwarded,
                    cloud_status,
                    // Whether the environment came from the replica or a
                    // probe pass does not change how it re-judges.
                    provenance: _,
                },
                Some(judge),
            ) => {
                let pre_nav = pre_env.to_navigator();
                let pre_view = EnvView::from_navigator(&pre_nav, compiled.symbols());
                let mode = judge::pre_mode(record.mode, *forwarded);
                let pre = match judge.pre(mode, &pre_view, scratch) {
                    Ok(pre) => pre,
                    Err(decision) => return decided(decision),
                };
                let status = match (forwarded, cloud_status) {
                    (false, _) => {
                        return ReplayOutcome::Indeterminate(
                            "not forwarded in the recorded trace".into(),
                        )
                    }
                    (true, None) => {
                        return ReplayOutcome::Indeterminate("no cloud response recorded".into())
                    }
                    (true, Some(status)) => StatusCode(*status),
                };
                let post = || match post_env {
                    _ if *post_partial => PostState::Unobservable(String::new()),
                    Some(env) => PostState::Observed(env.to_navigator()),
                    None => PostState::Unrecorded,
                };
                judge
                    .response(pre, status, probe_denials, &pre_view, scratch, post)
                    .map_or_else(
                        || ReplayOutcome::Indeterminate("no post-state recorded".into()),
                        decided,
                    )
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cm_audit::{EnvSnapshot, MonitorMode};
    use cm_model::cinder;
    use cm_ocl::{MapNavigator, ObjRef, Value};

    fn engine() -> ReplayEngine {
        ReplayEngine::from_behaviors(&[&cinder::behavioral_model()], None).unwrap()
    }

    /// Project with `n` volumes (quota 10), addressed volume `status`,
    /// requester role `role` — the canonical contract-test environment.
    fn env(n: i64, role: &str, status: &str) -> EnvSnapshot {
        let project = ObjRef::new("project", 1);
        let quota = ObjRef::new("quota_sets", 1);
        let user = ObjRef::new("user", 1);
        let mut nav = MapNavigator::new();
        let volumes: Vec<Value> = (0..n)
            .map(|i| {
                let v = ObjRef::new("volume", i as u64 + 1);
                nav.set_attribute(v.clone(), "id", Value::set(vec![Value::Int(i + 1)]));
                nav.set_attribute(v.clone(), "status", status);
                Value::Obj(v)
            })
            .collect();
        nav.set_variable("project", project.clone());
        nav.set_variable("quota_sets", quota.clone());
        nav.set_variable("user", user.clone());
        nav.set_variable("volume", ObjRef::new("volume", 1));
        nav.set_attribute(project.clone(), "id", Value::set(vec![Value::Int(1)]));
        nav.set_attribute(project, "volumes", Value::set(volumes));
        nav.set_attribute(quota, "volume", 10i64);
        nav.set_attribute(user, "groups", role);
        EnvSnapshot::capture(&nav)
    }

    fn checked_record(
        verdict: Verdict,
        requirements: Vec<String>,
        mode: MonitorMode,
        pre: EnvSnapshot,
        post: Option<EnvSnapshot>,
        forwarded: bool,
        cloud_status: Option<u16>,
    ) -> AuditRecord {
        AuditRecord {
            seq: 1,
            ts_nanos: 0,
            method: "DELETE".into(),
            path: "/v3/1/volumes/1".into(),
            route: Some("/v3/{project_id}/volumes/{volume_id}".into()),
            trigger: Some(("DELETE".into(), "volume".into())),
            mode,
            degraded_policy: "fail-closed".into(),
            verdict,
            requirements,
            status: 204,
            diagnostics: String::new(),
            context: ReplayContext::Checked {
                pre_env: pre,
                post_env: post,
                post_partial: false,
                probe_denials: Vec::new(),
                forwarded,
                cloud_status,
                provenance: cm_audit::EnvProvenance::default(),
            },
        }
    }

    #[test]
    fn successful_delete_replays_to_pass() {
        let rec = checked_record(
            Verdict::Pass,
            vec!["1.4".into()],
            MonitorMode::Enforce,
            env(2, "admin", "available"),
            Some(env(1, "admin", "available")),
            true,
            Some(204),
        );
        let report = engine().replay(&[rec]);
        assert!(report.is_clean(), "{:?}", report.entries[0]);
        assert_eq!(
            report.entries[0].replayed,
            ReplayOutcome::Verdict {
                verdict: Verdict::Pass,
                requirements: vec!["1.4".into()],
            }
        );
    }

    #[test]
    fn unauthorized_delete_replays_to_pre_blocked_in_enforce() {
        let rec = checked_record(
            Verdict::PreBlocked,
            vec!["1.4".into()],
            MonitorMode::Enforce,
            env(2, "user", "available"),
            None,
            false,
            None,
        );
        let report = engine().replay(&[rec]);
        assert!(report.is_clean(), "{:?}", report.entries[0]);
    }

    #[test]
    fn unchanged_post_state_replays_to_post_violation() {
        let rec = checked_record(
            Verdict::PostViolation,
            vec!["1.4".into()],
            MonitorMode::Observe,
            env(2, "admin", "available"),
            Some(env(2, "admin", "available")),
            true,
            Some(204),
        );
        let report = engine().replay(&[rec]);
        assert!(report.is_clean(), "{:?}", report.entries[0]);
    }

    #[test]
    fn observe_mode_wrong_acceptance_reproduces() {
        let rec = checked_record(
            Verdict::WrongAcceptance,
            vec!["1.4".into()],
            MonitorMode::Observe,
            env(2, "user", "available"),
            Some(env(1, "user", "available")),
            true,
            Some(204),
        );
        let report = engine().replay(&[rec]);
        assert!(report.is_clean(), "{:?}", report.entries[0]);
    }

    #[test]
    fn mutated_contract_set_surfaces_diffs_not_errors() {
        // Record a pass under the real model, then replay against a
        // model whose DELETE guard requires a different role.
        let rec = checked_record(
            Verdict::Pass,
            vec!["1.4".into()],
            MonitorMode::Enforce,
            env(2, "admin", "available"),
            Some(env(1, "admin", "available")),
            true,
            Some(204),
        );
        let mut model = cinder::behavioral_model();
        for t in &mut model.transitions {
            if let Some(g) = t.guard.take() {
                // Invert every guard: what was allowed is now blocked.
                t.guard = Some(g.negate());
            }
        }
        let mut engine = ReplayEngine::from_behaviors(&[&model], None).unwrap();
        let report = engine.replay(&[rec]);
        assert_eq!(report.diff_count(), 1);
        let replayed = report.entries[0].replayed.as_verdict().unwrap();
        assert_ne!(replayed, &Verdict::Pass);
    }

    #[test]
    fn unmodelled_and_special_contexts_replay_structurally() {
        let mut rec = checked_record(
            Verdict::NotModelled,
            Vec::new(),
            MonitorMode::Observe,
            env(1, "admin", "available"),
            None,
            true,
            Some(200),
        );
        rec.context = ReplayContext::Unmodelled;
        let mut e = engine();
        assert_eq!(
            e.replay_record(&rec),
            ReplayOutcome::Verdict {
                verdict: Verdict::NotModelled,
                requirements: Vec::new()
            }
        );
        rec.context = ReplayContext::MethodNotAllowed {
            enforced: false,
            cloud_status: Some(201),
        };
        assert_eq!(
            e.replay_record(&rec).as_verdict(),
            Some(&Verdict::WrongAcceptance)
        );
        rec.context = ReplayContext::DegradedForward;
        assert_eq!(
            e.replay_record(&rec),
            ReplayOutcome::Verdict {
                verdict: Verdict::Degraded,
                requirements: vec!["1.4".into()],
            }
        );
        // An overload shed, as `CloudMonitor::record_shed` writes it:
        // refused before routing, so it names no trigger.
        rec.trigger = None;
        rec.verdict = Verdict::Degraded;
        rec.context = ReplayContext::DegradedPre {
            forwarded: false,
            faults: vec!["overload shed: lane=read cause=budget_exhausted".into()],
        };
        let report = e.replay(std::slice::from_ref(&rec));
        assert!(report.is_clean(), "{:?}", report.entries[0]);
    }

    #[test]
    fn missing_post_state_is_indeterminate_and_a_diff() {
        let rec = checked_record(
            Verdict::Pass,
            vec!["1.4".into()],
            MonitorMode::Enforce,
            env(2, "admin", "available"),
            None,
            true,
            Some(204),
        );
        let report = engine().replay(&[rec]);
        assert_eq!(report.diff_count(), 1);
        assert!(matches!(
            report.entries[0].replayed,
            ReplayOutcome::Indeterminate(_)
        ));
    }

    #[test]
    fn report_json_counts_match() {
        let good = checked_record(
            Verdict::Pass,
            vec!["1.4".into()],
            MonitorMode::Enforce,
            env(2, "admin", "available"),
            Some(env(1, "admin", "available")),
            true,
            Some(204),
        );
        let bad = checked_record(
            Verdict::Pass,
            vec!["1.4".into()],
            MonitorMode::Enforce,
            env(2, "admin", "available"),
            None,
            true,
            Some(204),
        );
        let report = engine().replay(&[good, bad]);
        let json = report.to_json().to_pretty_string();
        assert!(json.contains("\"records\": 2"), "{json}");
        assert!(json.contains("\"matched\": 1"), "{json}");
        assert!(json.contains("\"diffs\": 1"), "{json}");
    }
}
