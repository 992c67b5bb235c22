//! The automated test oracle (the paper's user story 4).
//!
//! "An automated testing script … uses CM as a test oracle and invokes the
//! cloud implementation through the cloud monitor to validate the
//! authorization policy for all the resources. The invocation results can
//! be logged for further fault localization" (Section III-B).
//!
//! [`TestOracle::run`] executes a fixed scenario suite — every user role ×
//! every method on the volume resource, plus the quota, in-use and
//! boundary scenarios of Figure 3 — against a fresh cloud per scenario,
//! through an [`Mode::Observe`] monitor. A correct cloud produces zero
//! violation verdicts; any violation kills the cloud-under-test (the
//! mutation campaign in `cm-mutation` is built on this).

use crate::monitor::{cinder_monitor, Mode, Verdict};
use cm_cloudsim::{PrivateCloud, DEFAULT_VOLUME_QUOTA};
use cm_model::HttpMethod;
use cm_rest::{Json, RestRequest, RestService};
use std::fmt;

/// Result of one oracle scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioResult {
    /// Scenario name, e.g. `DELETE volume as bob`.
    pub name: String,
    /// RBAC role of the acting user (`no role` for the unprivileged
    /// principal, `admin` for the boundary scenarios run as alice).
    pub role: String,
    /// The monitor's verdict.
    pub verdict: Verdict,
    /// Security requirements exercised.
    pub requirements: Vec<String>,
    /// The monitor's diagnostics for the scenario's request.
    pub diagnostics: String,
}

/// The oracle's report over the whole suite.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OracleReport {
    /// Per-scenario results, in suite order.
    pub scenarios: Vec<ScenarioResult>,
}

impl OracleReport {
    /// Scenarios whose verdict indicates a cloud fault.
    #[must_use]
    pub fn violations(&self) -> Vec<&ScenarioResult> {
        self.scenarios
            .iter()
            .filter(|s| s.verdict.is_violation())
            .collect()
    }

    /// True when at least one scenario detected a fault — the
    /// cloud-under-test (mutant) is *killed*.
    #[must_use]
    pub fn killed(&self) -> bool {
        !self.violations().is_empty()
    }

    /// Scenarios the monitor could not check (transport faults surfaced
    /// as [`Verdict::Degraded`]) — explicitly *not* violations, but the
    /// kill matrix accounts for them separately so a detection that
    /// silently turns into a degraded non-verdict is visible.
    #[must_use]
    pub fn degraded(&self) -> Vec<&ScenarioResult> {
        self.scenarios
            .iter()
            .filter(|s| s.verdict == Verdict::Degraded)
            .collect()
    }

    /// Number of scenarios run.
    #[must_use]
    pub fn len(&self) -> usize {
        self.scenarios.len()
    }

    /// True when no scenarios were run.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.scenarios.is_empty()
    }
}

impl fmt::Display for OracleReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for s in &self.scenarios {
            writeln!(f, "{:<44} {}", s.name, s.verdict)?;
        }
        writeln!(
            f,
            "-- {} scenario(s), {} violation(s): {}",
            self.scenarios.len(),
            self.violations().len(),
            if self.killed() { "KILLED" } else { "survived" }
        )
    }
}

/// The test oracle: a factory-driven scenario suite.
#[derive(Debug, Clone, Copy, Default)]
pub struct TestOracle;

/// The fixture users with their Table I roles; `mallory` is authenticated
/// but holds no role (observes policy-widening faults).
const USERS: [(&str, &str); 4] = [
    ("alice", "admin"),
    ("bob", "member"),
    ("carol", "user"),
    ("mallory", "no role"),
];

impl TestOracle {
    /// Run the suite; `factory` builds a fresh cloud-under-test per
    /// scenario (so scenarios cannot contaminate each other).
    ///
    /// # Panics
    ///
    /// Panics if the fixture cloud rejects the fixture credentials —
    /// that is a harness bug, not a cloud-under-test fault.
    pub fn run<F: Fn() -> PrivateCloud>(&self, factory: F) -> OracleReport {
        let mut report = OracleReport::default();

        // Per-user method scenarios on a project holding one volume.
        for (user, role) in USERS {
            for method in HttpMethod::ALL {
                let name = format!("{method} volume as {user} ({role})");
                let result = Self::scenario(&factory, &name, role, |cloud| {
                    let pid = cloud.project_id();
                    let vid = cloud
                        .state_mut()
                        .create_volume(pid, "seed", 5, false)
                        .unwrap()
                        .id;
                    let path = match method {
                        HttpMethod::Post => format!("/v3/{pid}/volumes"),
                        _ => format!("/v3/{pid}/volumes/{vid}"),
                    };
                    let mut req = RestRequest::new(method, path);
                    if method == HttpMethod::Post {
                        req = req.json(volume_body("created", 1));
                    } else if method == HttpMethod::Put {
                        req = req.json(volume_body("renamed", 5));
                    }
                    (user.to_string(), req)
                });
                report.scenarios.push(result);
            }
        }

        // Boundary: POST into an empty project (t_post_1 path).
        report.scenarios.push(Self::scenario(
            &factory,
            "POST first volume as alice (admin)",
            "admin",
            |cloud| {
                let pid = cloud.project_id();
                (
                    "alice".to_string(),
                    RestRequest::new(HttpMethod::Post, format!("/v3/{pid}/volumes"))
                        .json(volume_body("first", 1)),
                )
            },
        ));

        // Boundary: POST at full quota must be refused (no enabled clause).
        report.scenarios.push(Self::scenario(
            &factory,
            "POST volume at full quota as alice (admin)",
            "admin",
            |cloud| {
                let pid = cloud.project_id();
                for i in 0..DEFAULT_VOLUME_QUOTA {
                    cloud
                        .state_mut()
                        .create_volume(pid, format!("fill{i}"), 1, false)
                        .unwrap();
                }
                (
                    "alice".to_string(),
                    RestRequest::new(HttpMethod::Post, format!("/v3/{pid}/volumes"))
                        .json(volume_body("overflow", 1)),
                )
            },
        ));

        // Boundary: DELETE an in-use volume must be refused.
        report.scenarios.push(Self::scenario(
            &factory,
            "DELETE in-use volume as alice (admin)",
            "admin",
            |cloud| {
                let pid = cloud.project_id();
                let vid = cloud
                    .state_mut()
                    .create_volume(pid, "busy", 1, false)
                    .unwrap()
                    .id;
                let iid = cloud.state_mut().create_instance(pid, "srv").unwrap();
                cloud.state_mut().attach(pid, iid, vid).unwrap();
                (
                    "alice".to_string(),
                    RestRequest::new(HttpMethod::Delete, format!("/v3/{pid}/volumes/{vid}")),
                )
            },
        ));

        // Boundary: DELETE the last volume (t_del_1 path).
        report.scenarios.push(Self::scenario(
            &factory,
            "DELETE last volume as alice (admin)",
            "admin",
            |cloud| {
                let pid = cloud.project_id();
                let vid = cloud
                    .state_mut()
                    .create_volume(pid, "only", 1, false)
                    .unwrap()
                    .id;
                (
                    "alice".to_string(),
                    RestRequest::new(HttpMethod::Delete, format!("/v3/{pid}/volumes/{vid}")),
                )
            },
        ));

        // Boundary: DELETE a nonexistent volume must be refused.
        report.scenarios.push(Self::scenario(
            &factory,
            "DELETE nonexistent volume as alice (admin)",
            "admin",
            |cloud| {
                let pid = cloud.project_id();
                cloud
                    .state_mut()
                    .create_volume(pid, "other", 1, false)
                    .unwrap();
                (
                    "alice".to_string(),
                    RestRequest::new(HttpMethod::Delete, format!("/v3/{pid}/volumes/999")),
                )
            },
        ));

        report
    }

    /// Run one scenario: build the cloud, apply `setup` (which prepares
    /// state and names the acting user and the request), wrap in an
    /// Observe monitor, authenticate both parties through the monitor,
    /// send, and record the verdict.
    fn scenario<F: Fn() -> PrivateCloud>(
        factory: &F,
        name: &str,
        role: &str,
        setup: impl FnOnce(&mut PrivateCloud) -> (String, RestRequest),
    ) -> ScenarioResult {
        let mut cloud = factory();
        let (user, request) = setup(&mut cloud);
        let mut monitor = cinder_monitor(cloud)
            .expect("fixture models generate")
            .mode(Mode::Observe);
        monitor
            .authenticate("alice", "alice-pw")
            .expect("fixture admin credentials");

        // The acting user authenticates *through* the monitor (transparent
        // pass-through of the unmodelled identity API).
        let auth = monitor.handle(
            &RestRequest::new(HttpMethod::Post, "/identity/auth/tokens").json(Json::object(vec![
                (
                    "auth",
                    Json::object(vec![
                        ("user", Json::Str(user.clone())),
                        ("password", Json::Str(format!("{user}-pw"))),
                    ]),
                ),
            ])),
        );
        let token = auth
            .body
            .as_ref()
            .and_then(|b| b.get("token"))
            .and_then(|t| t.get("id"))
            .and_then(Json::as_str)
            .expect("fixture user authenticates")
            .to_string();

        let outcome = monitor.process(&request.auth_token(token));
        ScenarioResult {
            name: name.to_string(),
            role: role.to_string(),
            verdict: outcome.verdict,
            requirements: outcome.requirements,
            diagnostics: outcome.diagnostics,
        }
    }
}

fn volume_body(name: &str, size: i64) -> Json {
    Json::object(vec![(
        "volume",
        Json::object(vec![
            ("name", Json::Str(name.into())),
            ("size", Json::Int(size)),
        ]),
    )])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn correct_cloud_survives_the_suite() {
        let report = TestOracle.run(PrivateCloud::my_project);
        assert!(
            !report.killed(),
            "false positives on a correct cloud:\n{report}"
        );
        // The suite is non-trivial.
        assert!(report.len() >= 17, "suite has {} scenarios", report.len());
    }

    #[test]
    fn suite_exercises_all_requirements() {
        let report = TestOracle.run(PrivateCloud::my_project);
        let mut reqs: Vec<&str> = report
            .scenarios
            .iter()
            .flat_map(|s| s.requirements.iter().map(String::as_str))
            .collect();
        reqs.sort_unstable();
        reqs.dedup();
        assert_eq!(reqs, vec!["1.1", "1.2", "1.3", "1.4"]);
    }

    #[test]
    fn report_display_summarises() {
        let report = TestOracle.run(PrivateCloud::my_project);
        let text = report.to_string();
        assert!(text.contains("scenario(s)"));
        assert!(text.contains("survived"));
    }

    #[test]
    fn paper_mutant_wrong_delete_role_is_killed() {
        use cm_cloudsim::{Fault, FaultPlan};
        use cm_rbac::Rule;
        let report = TestOracle.run(|| {
            PrivateCloud::my_project().with_faults(FaultPlan::single(Fault::PolicyOverride {
                action: "volume:delete".into(),
                rule: Rule::any_role(["admin", "member"]),
            }))
        });
        assert!(report.killed(), "mutant survived:\n{report}");
        // The killing scenario is bob's DELETE.
        assert!(report
            .violations()
            .iter()
            .any(|s| s.name.contains("DELETE volume as bob")));
    }
}

impl TestOracle {
    /// Run the extended suite: the volume scenarios of [`TestOracle::run`]
    /// plus snapshot-lifecycle scenarios, through a monitor generated from
    /// *both* behavioural state machines (volumes + snapshots).
    ///
    /// # Panics
    ///
    /// As [`TestOracle::run`].
    pub fn run_extended<F: Fn() -> PrivateCloud>(&self, factory: F) -> OracleReport {
        let mut report = self.run(&factory);

        for (user, role) in USERS {
            for (method, name_suffix) in [
                (HttpMethod::Get, "snapshot"),
                (HttpMethod::Post, "snapshot"),
                (HttpMethod::Delete, "snapshot"),
            ] {
                let name = format!("{method} {name_suffix} as {user} ({role})");
                let result = Self::scenario_extended(&factory, &name, role, |cloud| {
                    let pid = cloud.project_id();
                    let vid = cloud
                        .state_mut()
                        .create_volume(pid, "vol", 1, false)
                        .unwrap()
                        .id;
                    let sid = cloud
                        .state_mut()
                        .create_snapshot(pid, vid, "seed")
                        .unwrap()
                        .id;
                    let path = match method {
                        HttpMethod::Post => {
                            format!("/v3/{pid}/volumes/{vid}/snapshots")
                        }
                        _ => format!("/v3/{pid}/volumes/{vid}/snapshots/{sid}"),
                    };
                    let mut req = RestRequest::new(method, path);
                    if method == HttpMethod::Post {
                        req = req.json(Json::object(vec![(
                            "snapshot",
                            Json::object(vec![("name", Json::Str("new".into()))]),
                        )]));
                    }
                    (user.to_string(), req)
                });
                report.scenarios.push(result);
            }
        }

        // Boundary: first snapshot of a fresh volume (t_snap_post_1).
        report.scenarios.push(Self::scenario_extended(
            &factory,
            "POST first snapshot as alice (admin)",
            "admin",
            |cloud| {
                let pid = cloud.project_id();
                let vid = cloud
                    .state_mut()
                    .create_volume(pid, "vol", 1, false)
                    .unwrap()
                    .id;
                (
                    "alice".to_string(),
                    RestRequest::new(
                        HttpMethod::Post,
                        format!("/v3/{pid}/volumes/{vid}/snapshots"),
                    )
                    .json(Json::object(vec![(
                        "snapshot",
                        Json::object(vec![("name", Json::Str("first".into()))]),
                    )])),
                )
            },
        ));

        // Boundary: DELETE a nonexistent snapshot must be refused.
        report.scenarios.push(Self::scenario_extended(
            &factory,
            "DELETE nonexistent snapshot as alice (admin)",
            "admin",
            |cloud| {
                let pid = cloud.project_id();
                let vid = cloud
                    .state_mut()
                    .create_volume(pid, "vol", 1, false)
                    .unwrap()
                    .id;
                (
                    "alice".to_string(),
                    RestRequest::new(
                        HttpMethod::Delete,
                        format!("/v3/{pid}/volumes/{vid}/snapshots/999"),
                    ),
                )
            },
        ));

        report
    }

    /// As `scenario`, but with the extended (volumes + snapshots) monitor.
    fn scenario_extended<F: Fn() -> PrivateCloud>(
        factory: &F,
        name: &str,
        role: &str,
        setup: impl FnOnce(&mut PrivateCloud) -> (String, RestRequest),
    ) -> ScenarioResult {
        use crate::monitor::cinder_monitor_extended;
        let mut cloud = factory();
        let (user, request) = setup(&mut cloud);
        let mut monitor = cinder_monitor_extended(cloud)
            .expect("fixture models generate")
            .mode(Mode::Observe);
        monitor
            .authenticate("alice", "alice-pw")
            .expect("fixture admin credentials");
        let auth = monitor.handle(
            &RestRequest::new(HttpMethod::Post, "/identity/auth/tokens").json(Json::object(vec![
                (
                    "auth",
                    Json::object(vec![
                        ("user", Json::Str(user.clone())),
                        ("password", Json::Str(format!("{user}-pw"))),
                    ]),
                ),
            ])),
        );
        let token = auth
            .body
            .as_ref()
            .and_then(|b| b.get("token"))
            .and_then(|t| t.get("id"))
            .and_then(Json::as_str)
            .expect("fixture user authenticates")
            .to_string();
        let outcome = monitor.process(&request.auth_token(token));
        ScenarioResult {
            name: name.to_string(),
            role: role.to_string(),
            verdict: outcome.verdict,
            requirements: outcome.requirements,
            diagnostics: outcome.diagnostics,
        }
    }
}

#[cfg(test)]
mod extended_oracle_tests {
    use super::*;

    #[test]
    fn extended_suite_is_clean_on_correct_cloud() {
        let report = TestOracle.run_extended(PrivateCloud::my_project);
        assert!(!report.killed(), "false positives:\n{report}");
        // Volume suite + snapshot scenarios.
        assert!(report.len() >= 30, "got {}", report.len());
    }

    #[test]
    fn extended_suite_covers_snapshot_requirements() {
        let report = TestOracle.run_extended(PrivateCloud::my_project);
        let mut reqs: Vec<&str> = report
            .scenarios
            .iter()
            .flat_map(|s| s.requirements.iter().map(String::as_str))
            .collect();
        reqs.sort_unstable();
        reqs.dedup();
        assert_eq!(reqs, vec!["1.1", "1.2", "1.3", "1.4", "2.1", "2.2", "2.3"]);
    }

    #[test]
    fn snapshot_policy_mutant_killed_by_extended_suite() {
        use cm_cloudsim::{Fault, FaultPlan};
        use cm_rbac::Rule;
        let report = TestOracle.run_extended(|| {
            PrivateCloud::my_project().with_faults(FaultPlan::single(Fault::PolicyOverride {
                action: "snapshot:delete".into(),
                rule: Rule::Always,
            }))
        });
        assert!(report.killed(), "{report}");
        assert!(report
            .violations()
            .iter()
            .any(|s| s.name.contains("DELETE snapshot")));
    }
}
