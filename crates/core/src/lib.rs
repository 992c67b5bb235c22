//! # cm-core — the generated Cloud Monitor
//!
//! The primary contribution of the DSN 2018 paper, reproduced as a Rust
//! library: a **contract-checking proxy** generated from UML/OCL design
//! models that validates a private cloud's functional and security
//! behaviour at run time.
//!
//! * [`CloudMonitor`] — the Figure 2 workflow: resolve the request against
//!   model-derived routes, check the generated pre-condition, forward,
//!   interpret the response code, check the post-condition against the
//!   pre-state snapshot;
//! * [`Mode::Enforce`] blocks violating requests; [`Mode::Observe`] turns
//!   the monitor into the paper's *test oracle*, classifying wrong
//!   acceptances (privilege escalation) and wrong denials;
//! * [`StateProber`] — materialises the OCL evaluation environment through
//!   the cloud's own REST API (`project.id->size() = 1` ⇔ "GET returned
//!   200"), with the caller's [`Identity`] served from a CLOCK cache;
//! * [`CoverageTracker`] — security-requirement coverage observation;
//! * [`TestOracle`] — the automated testing script of Section III-B,
//!   used by the mutation campaign to reproduce Section VI-D.
//!
//! ## Example
//!
//! ```
//! use cm_cloudsim::PrivateCloud;
//! use cm_core::{cinder_monitor, Mode, Verdict};
//! use cm_model::HttpMethod;
//! use cm_rest::{RestRequest, RestService};
//!
//! // Wrap the simulated private cloud with a generated monitor.
//! let mut cloud = PrivateCloud::my_project();
//! let carol = cloud.issue_token("carol", "carol-pw")?; // role: user
//! let pid = cloud.project_id();
//! let mut monitor = cinder_monitor(cloud)?.mode(Mode::Enforce);
//! monitor.authenticate("alice", "alice-pw")?;
//!
//! // carol tries to DELETE a volume: SecReq 1.4 forbids it, so the
//! // monitor blocks the request before the cloud ever sees it.
//! let outcome = monitor.process(
//!     &RestRequest::new(HttpMethod::Delete, format!("/v3/{pid}/volumes/1"))
//!         .auth_token(&carol.token),
//! );
//! assert_eq!(outcome.verdict, Verdict::PreBlocked);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod coverage;
pub mod identity;
mod judge;
pub mod monitor;
pub mod oracle;
pub mod probe;
pub mod replay;
mod replica;

pub use coverage::{CoverageTracker, RequirementCoverage};
pub use identity::{Identity, UserBinding};
pub use monitor::{
    cinder_monitor, cinder_monitor_extended, expected_success_status, CloudMonitor, DegradedPolicy,
    Mode, MonitorBuildError, MonitorOutcome, SnapshotPolicy, Verdict, DEFAULT_EVENT_CAPACITY,
};
pub use oracle::{OracleReport, ScenarioResult, TestOracle};
pub use probe::{ProbeFault, ProbeTarget, Snapshot, StateProber, DEFAULT_IDENTITY_CAP};
pub use replay::{ReplayEngine, ReplayEntry, ReplayOutcome, ReplayReport};
