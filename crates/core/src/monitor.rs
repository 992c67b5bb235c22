//! The Cloud Monitor: a contract-checking proxy generated from models.
//!
//! Implements the paper's Figure 2 workflow. For each incoming request the
//! monitor resolves the addressed resource against the model-derived route
//! table, looks up the generated contract for the trigger, snapshots the
//! relevant cloud state (the `pre_*` variables of Listing 2), checks the
//! pre-condition, forwards the request, re-probes, interprets the response
//! code, and checks the post-condition.
//!
//! Two modes cover the paper's user stories (Section III-B):
//!
//! * [`Mode::Enforce`] — the deployed-proxy workflow of Figure 2: a failed
//!   pre-condition blocks the request (`412`); a failed post-condition
//!   turns the response into an "invalid response specifying the faulty
//!   behavior".
//! * [`Mode::Observe`] — the *test-oracle* workflow (user story 4): every
//!   request is forwarded and the monitor classifies the cloud's actual
//!   behaviour against the contract, detecting both **wrong acceptances**
//!   (privilege escalation: an unauthorized request succeeded) and **wrong
//!   denials** (an authorized user was blocked). This is the mode that
//!   kills the Section VI-D mutants.

use crate::coverage::CoverageTracker;
use crate::identity::Identity;
use crate::judge::{self, Decision, Judge, PostState};
use crate::probe::{ProbeTarget, Snapshot, StateProber};
use crate::replica::{DriftEntry, ProjectReplica};
use cm_audit::{AuditRecord, AuditRecorder, EnvProvenance, EnvSnapshot, ReplayContext};
use cm_contracts::{generate_with, CompiledContractSet, ContractSet, GenerateOptions};
use cm_httpkit::ShedDecision;
use cm_model::{BehavioralModel, HttpMethod, ResourceModel, Trigger};
use cm_obs::{EventSink, MetricsRegistry, MonitorEvent, PhaseTimings, RingBufferSink};
use cm_ocl::{EnvView, EvalScratch, MapNavigator};
use cm_rbac::SecurityRequirementsTable;
use cm_rest::{
    Json, Resolution, RestRequest, RestResponse, RouteTable, SharedRestService, StatusCode,
};
use std::cell::Cell;
use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// The monitor's verdict and mode are the audit record's: one enum each,
/// so a record carries exactly what the monitor decided.
pub use cm_audit::{MonitorMode as Mode, VerdictCode as Verdict};

/// Lock a shard mutex, recovering from poisoning: one panicking request
/// (e.g. a handler bug surfaced mid-`process`) must not wedge every
/// later request that hashes to the same shard. The shard state a
/// panicked request leaves behind is reusable scratch that every
/// evaluation re-initialises, so recovery is safe.
fn plock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Events retained by the default ring-buffer sink.
pub const DEFAULT_EVENT_CAPACITY: usize = 1024;

/// Monitor shards. Requests for the same project always land on the same
/// shard (serializing the snapshot→forward→snapshot protocol per
/// resource); requests for different projects almost always land on
/// different shards and proceed in parallel.
const MONITOR_SHARDS: usize = 16;

/// What [`CloudMonitor::process`] learns about a request besides its
/// decision: the labels and phase timings its event carries, and any
/// drift found on the way (by an anti-entropy pass, or by introspecting
/// a cached identity again).
#[derive(Debug, Default)]
struct ObsScratch {
    timings: PhaseTimings,
    route: Option<String>,
    trigger: Option<Trigger>,
    contract: Option<String>,
    /// The drift records found on the way.
    drift: Vec<(Decision, ReplayContext)>,
}

/// Run `f`, adding its wall-clock duration to `slot`.
fn timed<T>(slot: &mut Duration, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = f();
    *slot += start.elapsed();
    out
}

/// Where the evaluation environment's state comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SnapshotPolicy {
    /// The paper's Figure 2 binding: probe every context root
    /// (project, volumes, volume, quota_sets, user) before the forward,
    /// and again in the forward's own batch afterwards. The only binding
    /// that observes the real post-state on every request. Default.
    #[default]
    Full,
    /// Snapshot-free monitoring: bind the evaluation environment from a
    /// model-derived **shadow replica** of the project's state, seeded
    /// by one full probe pass and thereafter advanced purely from the
    /// request/response pairs the monitor observes — zero probe
    /// round-trips per request in steady state. Anti-entropy
    /// reconciliation (periodic via
    /// [`CloudMonitor::anti_entropy_every`], on-demand after any
    /// uncertainty) re-probes, repairs the replica, and surfaces silent
    /// out-of-band cloud mutation as [`Verdict::Drift`]. `Full` is
    /// kept as the differential oracle.
    Replica,
}

/// What the monitor does when it cannot take a checked decision because
/// the path to the cloud is sick (pre-snapshot probes undeliverable
/// within budget).
///
/// The policy only matters in [`Mode::Enforce`]: in [`Mode::Observe`]
/// the monitor never blocks, so a degraded request is forwarded and
/// recorded as [`Verdict::Degraded`]. Fail-open passes are counted and
/// surfaced through the `resilience` metrics family (`fail_open_pass`)
/// — the audit trail CloudSec-style engines demand for any unchecked
/// admission.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DegradedPolicy {
    /// Refuse the request (`503`, marked as a transport fault) rather
    /// than let it through unchecked. The availability-conservative
    /// default: a monitor that silently fails open is a security hole.
    #[default]
    FailClosed,
    /// Forward up to `max_unchecked` requests without a pre-check, then
    /// fail closed. Every such pass increments the `fail_open_pass`
    /// alarm counter visible at `/-/metrics`.
    FailOpen {
        /// Lifetime cap on unchecked forwards.
        max_unchecked: u64,
    },
}

impl DegradedPolicy {
    /// Stable textual form recorded into audit records
    /// (`"fail-closed"`, `"fail-open:N"`).
    #[must_use]
    pub fn label(&self) -> String {
        match self {
            DegradedPolicy::FailClosed => "fail-closed".to_string(),
            DegradedPolicy::FailOpen { max_unchecked } => format!("fail-open:{max_unchecked}"),
        }
    }
}

/// The outcome handed back by [`CloudMonitor::process`].
#[derive(Debug, Clone, PartialEq)]
pub struct MonitorOutcome {
    /// The response to give the monitor's client.
    pub response: RestResponse,
    /// The verdict.
    pub verdict: Verdict,
    /// Requirements exercised.
    pub requirements: Vec<String>,
    /// Free-form diagnostics (evaluation errors, which model state …).
    pub diagnostics: String,
}

/// An error raised while generating a monitor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MonitorBuildError {
    /// Description.
    pub message: String,
}

impl fmt::Display for MonitorBuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "monitor generation error: {}", self.message)
    }
}

impl std::error::Error for MonitorBuildError {}

/// The generated cloud monitor, wrapping a cloud service `S`.
///
/// The monitor is built and authenticated through `&mut self` methods,
/// then shared: [`CloudMonitor::process`] takes `&self`, so an
/// `Arc<CloudMonitor<_>>` serves many client threads concurrently. The
/// read side (routes, contracts, compiled OCL, tokens) is immutable
/// after setup; the mutable side (evaluation scratch, replicas) is
/// sharded by project, and coverage/metrics/events are atomics
/// underneath. Every decision leaves as one event and, when a recorder
/// is attached, one [`AuditRecord`]; the monitor keeps no per-request
/// state of its own.
#[derive(Debug)]
pub struct CloudMonitor<S: SharedRestService> {
    cloud: S,
    routes: RouteTable,
    contracts: ContractSet,
    /// The contracts lowered to compiled programs (parallel to
    /// `contracts.contracts`), built once at generate time.
    compiled: CompiledContractSet,
    prober: StateProber,
    mode: Mode,
    snapshot_policy: SnapshotPolicy,
    /// Under [`SnapshotPolicy::Replica`]: run a scheduled anti-entropy
    /// reconciliation after this many replica-served requests per
    /// project (0 = on-demand reconciliation only).
    anti_entropy_every: u64,
    degraded_policy: DegradedPolicy,
    /// Unchecked forwards admitted so far under `FailOpen`.
    fail_open_used: AtomicU64,
    monitor_token: String,
    /// Project the monitor's probe token is scoped to (learned during
    /// [`CloudMonitor::authenticate`]); probe denials outside this scope
    /// are expected, not anomalous.
    monitor_project: Option<u64>,
    /// Additional probe tokens per project, from
    /// [`CloudMonitor::authenticate_scoped`].
    project_tokens: HashMap<u64, String>,
    /// Per-resource shards; a request locks exactly one for the whole
    /// snapshot→forward→snapshot protocol, giving per-resource atomicity.
    shards: Box<[Mutex<Shard>]>,
    /// Global sequence counter; see [`AuditRecord::seq`].
    seq: AtomicU64,
    coverage: CoverageTracker,
    metrics: Arc<MetricsRegistry>,
    events: Arc<dyn EventSink>,
    /// Optional durable audit recorder; when attached, every processed
    /// request also emits a replayable [`AuditRecord`].
    audit: Option<Arc<dyn AuditRecorder>>,
}

/// Per-shard mutable state: the reusable evaluation scratch (interned
/// locals stack + memo slots). The scratch lives with the shard so
/// steady-state contract checking reuses its allocations request after
/// request instead of reallocating per call.
#[derive(Debug, Default)]
struct Shard {
    scratch: EvalScratch,
    /// Shadow replicas for the projects this shard serves
    /// ([`SnapshotPolicy::Replica`] only). Living under the shard lock
    /// gives the replica the same per-project serialization guarantee
    /// the snapshot protocol already relies on.
    replicas: HashMap<u64, ProjectReplica>,
}

/// Generate the contracts of several behavioural state machines and merge
/// them into one set; a trigger modelled by two machines is an error.
/// The monitor and audit replay both build their contracts here, so a
/// trace replayed against unchanged models meets the same set.
pub(crate) fn merge_contracts(
    behaviors: &[&BehavioralModel],
    security: Option<&SecurityRequirementsTable>,
) -> Result<ContractSet, MonitorBuildError> {
    let mut merged = ContractSet::default();
    for behavior in behaviors {
        let set = generate_with(
            behavior,
            &GenerateOptions {
                security,
                simplify: false,
            },
        )
        .map_err(|e| MonitorBuildError { message: e.message })?;
        for contract in set.contracts {
            if merged.contract_for(&contract.trigger).is_some() {
                return Err(MonitorBuildError {
                    message: format!(
                        "trigger {} is modelled by more than one state machine",
                        contract.trigger
                    ),
                });
            }
            merged.contracts.push(contract);
        }
        merged.states.extend(set.states);
    }
    Ok(merged)
}

impl<S: SharedRestService> CloudMonitor<S> {
    /// Generate a monitor from the design models, wrapping `cloud`.
    ///
    /// Routes are derived from the resource model (prefix `/v3`),
    /// contracts from the behavioural model; when a security-requirements
    /// table is supplied its authorization guards are woven into the
    /// contracts (Section VI, step 3) — pass `None` when the model's
    /// guards already carry authorization, as the paper's Figure 3 does.
    ///
    /// # Errors
    ///
    /// Returns [`MonitorBuildError`] when contract generation fails
    /// (e.g. a transition references an undeclared state).
    pub fn generate(
        resources: &ResourceModel,
        behavior: &BehavioralModel,
        security: Option<&SecurityRequirementsTable>,
        cloud: S,
    ) -> Result<Self, MonitorBuildError> {
        Self::generate_multi(resources, &[behavior], security, cloud)
    }

    /// Generate a monitor from one resource model and *several*
    /// behavioural state machines (e.g. the volume lifecycle and the
    /// snapshot lifecycle). Contracts are merged; the machines must not
    /// share triggers — a duplicate (method, resource) pair is an error
    /// because the monitor could not tell which contract governs it.
    ///
    /// # Errors
    ///
    /// Contract-generation failures or overlapping triggers.
    pub fn generate_multi(
        resources: &ResourceModel,
        behaviors: &[&BehavioralModel],
        security: Option<&SecurityRequirementsTable>,
        cloud: S,
    ) -> Result<Self, MonitorBuildError> {
        let merged = merge_contracts(behaviors, security)?;
        let coverage = CoverageTracker::new(&merged.covered_requirements());
        let compiled = CompiledContractSet::compile(&merged);
        let metrics = Arc::new(MetricsRegistry::new());
        let prober = StateProber::default().identity_counter_handles(
            metrics.identity.counter("hit"),
            metrics.identity.counter("miss"),
        );
        Ok(CloudMonitor {
            cloud,
            routes: RouteTable::derive(resources, "/v3"),
            contracts: merged,
            compiled,
            prober,
            mode: Mode::Enforce,
            snapshot_policy: SnapshotPolicy::Full,
            anti_entropy_every: 0,
            degraded_policy: DegradedPolicy::FailClosed,
            fail_open_used: AtomicU64::new(0),
            monitor_token: String::new(),
            monitor_project: None,
            project_tokens: HashMap::new(),
            shards: (0..MONITOR_SHARDS)
                .map(|_| Mutex::new(Shard::default()))
                .collect(),
            seq: AtomicU64::new(0),
            coverage,
            metrics,
            events: Arc::new(RingBufferSink::new(DEFAULT_EVENT_CAPACITY)),
            audit: None,
        })
    }

    /// Select the monitoring mode.
    #[must_use]
    pub fn mode(mut self, mode: Mode) -> Self {
        self.mode = mode;
        self
    }

    /// Select the snapshot policy.
    #[must_use]
    pub fn snapshot_policy(mut self, policy: SnapshotPolicy) -> Self {
        self.snapshot_policy = policy;
        self
    }

    /// Set the prober's identity-cache TTL: how long one token
    /// introspection answer serves subsequent snapshots (default
    /// [`crate::probe::DEFAULT_IDENTITY_TTL`]). `Duration::ZERO`
    /// disables the cache — every snapshot re-introspects, so a
    /// revocation is observed immediately instead of within the TTL.
    #[must_use]
    pub fn identity_cache_ttl(mut self, ttl: Duration) -> Self {
        self.prober = self.prober.clone().identity_ttl(ttl);
        self
    }

    /// Set the prober's identity-cache capacity: how many distinct
    /// tokens the introspection cache retains before evicting (default
    /// [`crate::probe::DEFAULT_IDENTITY_CAP`]).
    #[must_use]
    pub fn identity_cache_capacity(mut self, capacity: usize) -> Self {
        self.prober = self.prober.clone().identity_capacity(capacity);
        self
    }

    /// Under [`SnapshotPolicy::Replica`]: reconcile replica and cloud
    /// (one full probe pass, diff, repair) after every `n`
    /// replica-served requests per project. `0` (the default) disables
    /// the schedule — reconciliation then happens only on demand, after
    /// an uncertainty (miss, transport fault, unexpected response
    /// shape) marks the replica stale. Out-of-band mutation is only
    /// *reported* as [`Verdict::Drift`] by scheduled passes: an
    /// on-demand pass re-seeds a replica that already knows it may be
    /// wrong, so a diff would not distinguish drift from its own
    /// uncertainty.
    #[must_use]
    pub fn anti_entropy_every(mut self, n: u64) -> Self {
        self.anti_entropy_every = n;
        self
    }

    /// Select what happens when the transport prevents a pre-check
    /// (default [`DegradedPolicy::FailClosed`]).
    #[must_use]
    pub fn degraded_policy(mut self, policy: DegradedPolicy) -> Self {
        self.degraded_policy = policy;
        self
    }

    /// Unchecked forwards admitted so far under
    /// [`DegradedPolicy::FailOpen`].
    #[must_use]
    pub fn fail_open_used(&self) -> u64 {
        self.fail_open_used.load(Ordering::Relaxed)
    }

    /// Replace the event sink (builder style). The default is a
    /// [`RingBufferSink`] retaining the last [`DEFAULT_EVENT_CAPACITY`]
    /// events.
    #[must_use]
    pub fn event_sink(mut self, sink: Arc<dyn EventSink>) -> Self {
        self.events = sink;
        self
    }

    /// Attach a durable audit recorder (builder style). Every processed
    /// request then also emits a self-contained [`AuditRecord`] carrying
    /// the observed pre/post environments, requirement ids, and
    /// degraded-policy context — enough to re-evaluate the trace later
    /// against an updated contract set (`cmcli audit replay`).
    #[must_use]
    pub fn audit_recorder(mut self, recorder: Arc<dyn AuditRecorder>) -> Self {
        self.audit = Some(recorder);
        self
    }

    /// The metrics registry. The `Arc` is shared with the monitor, so a
    /// clone handed to an admin endpoint sees live counts.
    #[must_use]
    pub fn metrics(&self) -> Arc<MetricsRegistry> {
        Arc::clone(&self.metrics)
    }

    /// The event sink (shared, like [`CloudMonitor::metrics`]).
    #[must_use]
    pub fn events(&self) -> Arc<dyn EventSink> {
        Arc::clone(&self.events)
    }

    /// Authenticate the monitor's own probing identity against the wrapped
    /// cloud (POST `/identity/auth/tokens`).
    ///
    /// # Errors
    ///
    /// Returns [`MonitorBuildError`] when the cloud rejects the
    /// credentials.
    pub fn authenticate(&mut self, user: &str, password: &str) -> Result<(), MonitorBuildError> {
        let resp = self.cloud.call(
            &RestRequest::new(HttpMethod::Post, "/identity/auth/tokens").json(Json::object(vec![
                (
                    "auth",
                    Json::object(vec![
                        ("user", Json::Str(user.to_string())),
                        ("password", Json::Str(password.to_string())),
                    ]),
                ),
            ])),
        );
        let token = resp
            .body
            .as_ref()
            .and_then(|b| b.get("token"))
            .and_then(|t| t.get("id"))
            .and_then(Json::as_str);
        match token {
            Some(t) if resp.status.is_success() => {
                self.monitor_token = t.to_string();
                self.monitor_project = resp
                    .body
                    .as_ref()
                    .and_then(|b| b.get("token"))
                    .and_then(|tok| tok.get("project_id"))
                    .and_then(Json::as_int)
                    .map(|v| v as u64);
                Ok(())
            }
            _ => Err(MonitorBuildError {
                message: format!("monitor authentication failed: {}", resp.status),
            }),
        }
    }

    /// Authenticate an additional probing identity scoped to `project_id`
    /// (multi-project clouds). Probes against that project then use the
    /// scoped token instead of the default one from
    /// [`CloudMonitor::authenticate`]. Call once per project before
    /// sharing the monitor; like `authenticate`, this is a setup-time
    /// `&mut self` operation.
    ///
    /// # Errors
    ///
    /// Returns [`MonitorBuildError`] when the cloud rejects the
    /// credentials or the scope.
    pub fn authenticate_scoped(
        &mut self,
        user: &str,
        password: &str,
        project_id: u64,
    ) -> Result<(), MonitorBuildError> {
        let resp = self.cloud.call(
            &RestRequest::new(HttpMethod::Post, "/identity/auth/tokens").json(Json::object(vec![
                (
                    "auth",
                    Json::object(vec![
                        ("user", Json::Str(user.to_string())),
                        ("password", Json::Str(password.to_string())),
                        ("project_id", Json::Int(project_id as i64)),
                    ]),
                ),
            ])),
        );
        let token = resp
            .body
            .as_ref()
            .and_then(|b| b.get("token"))
            .and_then(|t| t.get("id"))
            .and_then(Json::as_str);
        match token {
            Some(t) if resp.status.is_success() => {
                if self.monitor_token.is_empty() {
                    self.monitor_token = t.to_string();
                    self.monitor_project = Some(project_id);
                }
                self.project_tokens.insert(project_id, t.to_string());
                Ok(())
            }
            _ => Err(MonitorBuildError {
                message: format!(
                    "monitor authentication failed for project {project_id}: {}",
                    resp.status
                ),
            }),
        }
    }

    /// The wrapped cloud (read access for assertions in tests).
    #[must_use]
    pub fn cloud(&self) -> &S {
        &self.cloud
    }

    /// Mutable access to the wrapped cloud (scenario setup in tests).
    pub fn cloud_mut(&mut self) -> &mut S {
        &mut self.cloud
    }

    /// Coverage of security requirements observed so far.
    #[must_use]
    pub fn coverage(&self) -> &CoverageTracker {
        &self.coverage
    }

    /// The generated contracts (introspection / listing rendering).
    #[must_use]
    pub fn contracts(&self) -> &ContractSet {
        &self.contracts
    }

    /// The compiled form of the contracts (stats / audit introspection).
    #[must_use]
    pub fn compiled_contracts(&self) -> &CompiledContractSet {
        &self.compiled
    }

    /// The derived route table.
    #[must_use]
    pub fn routes(&self) -> &RouteTable {
        &self.routes
    }

    /// The log shard responsible for `path`. Modelled paths
    /// (`/v3/{project_id}/…`) shard by project id, so all requests
    /// touching one project's resources serialize on one lock; anything
    /// else (identity, unmodelled paths) shards by path hash.
    fn shard_index(&self, path: &str) -> usize {
        let mut segments = path.split('/').filter(|s| !s.is_empty());
        let project = match (segments.next(), segments.next()) {
            (Some("v3" | "compute"), Some(pid)) => pid.parse::<u64>().ok(),
            _ => None,
        };
        let key = project.unwrap_or_else(|| {
            let mut hasher = std::collections::hash_map::DefaultHasher::new();
            path.hash(&mut hasher);
            hasher.finish()
        });
        (key as usize) % self.shards.len()
    }

    /// Process one request through the Figure 2 workflow.
    ///
    /// Takes `&self`: many threads may call this concurrently on a shared
    /// monitor. The request's resource shard is locked for the whole
    /// pre-snapshot → forward → post-snapshot protocol, so the two
    /// snapshots of one request never interleave with another request for
    /// the same resource (shard-local snapshot isolation); requests for
    /// different resources run in parallel.
    pub fn process(&self, request: &RestRequest) -> MonitorOutcome {
        let started = Instant::now();
        let mut shard = plock(&self.shards[self.shard_index(&request.path)]);
        // The global sequence number is taken at admission, under the
        // shard lock, and every record of this request is emitted before
        // the lock is released: per project, the recorder receives
        // records in seq order.
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let mut obs = ObsScratch::default();
        let Shard { scratch, replicas } = &mut *shard;
        let (response, decision, context) =
            self.process_inner(request, &mut obs, scratch, replicas);
        obs.timings.total = started.elapsed();
        self.coverage
            .record(&decision.verdict, &decision.requirements);
        let status = response.status.0;
        let drift = std::mem::take(&mut obs.drift);
        self.emit(seq, request, obs, &decision, status, context);
        // The cloud diverged from what the monitor held (the replica, or
        // a cached identity): emit each detection as its own record — it
        // is about the *cloud*, not this request, whose own verdict
        // stands above.
        for (drift, context) in drift {
            let seq = self.seq.fetch_add(1, Ordering::Relaxed);
            self.emit(seq, request, ObsScratch::default(), &drift, status, context);
        }
        MonitorOutcome {
            response,
            verdict: decision.verdict,
            requirements: decision.requirements,
            diagnostics: decision.diagnostics,
        }
    }

    /// Record a request the transport shed under overload, without
    /// processing it. The shed is written into the same audit trail as
    /// every checked request — verdict [`Verdict::Degraded`] with a
    /// [`ReplayContext::DegradedPre`] carrying the overload provenance
    /// (`forwarded: false`: the cloud never saw the request, exactly as
    /// under a fail-closed transport fault) — so a replay of the trace
    /// sees the request was *refused unjudged*, never a violation and
    /// never a silent drop. Wire this as the transport's shed observer
    /// (`cm_httpkit::ShedObserver`). It takes no shard lock — the
    /// transport calls it on its overload path — so a shed record may
    /// reach the recorder out of seq order with its project's requests.
    pub fn record_shed(&self, request: &RestRequest, decision: &ShedDecision) {
        let detail = format!(
            "overload shed: lane={} cause={} queue_wait={}ms budget={}ms",
            decision.lane.label(),
            decision.cause.label(),
            decision.queue_wait.as_millis(),
            decision.budget.as_millis(),
        );
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        self.emit(
            seq,
            request,
            ObsScratch::default(),
            &Decision::new(Verdict::Degraded, Vec::new(), detail.clone()),
            StatusCode::SERVICE_UNAVAILABLE.0,
            ReplayContext::DegradedPre {
                forwarded: false,
                faults: vec![detail],
            },
        );
        self.metrics.overload.increment("shed_recorded");
    }

    /// Emit one decision: its audit record (when a recorder is attached),
    /// one metrics observation and one event. Checked, drift and shed
    /// records all leave the monitor here.
    fn emit(
        &self,
        seq: u64,
        request: &RestRequest,
        obs: ObsScratch,
        decision: &Decision,
        status: u16,
        context: ReplayContext,
    ) {
        let event = MonitorEvent {
            seq: 0, // assigned by the sink
            method: request.method.as_str().to_string(),
            path: request.path.clone(),
            route: obs.route,
            verdict: decision.verdict.label(),
            violation: decision.verdict.is_violation(),
            status,
            requirements: decision.requirements.clone(),
            contract: obs.contract,
            timings: obs.timings,
            diagnostics: decision.diagnostics.clone(),
        };
        if let Some(recorder) = &self.audit {
            recorder.record(AuditRecord {
                seq,
                ts_nanos: SystemTime::now()
                    .duration_since(UNIX_EPOCH)
                    .map(|d| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX))
                    .unwrap_or(0),
                method: event.method.clone(),
                path: event.path.clone(),
                route: event.route.clone(),
                trigger: obs
                    .trigger
                    .map(|t| (t.method.as_str().to_string(), t.resource)),
                mode: self.mode,
                degraded_policy: self.degraded_policy.label(),
                verdict: decision.verdict.clone(),
                requirements: decision.requirements.clone(),
                status,
                diagnostics: decision.diagnostics.clone(),
                context,
            });
        }
        self.metrics.observe(&event);
        self.events.emit(event);
    }

    /// Decide a request whose pre-state could not be observed (transport
    /// faults during the pre-snapshot). Observe mode always forwards;
    /// Enforce mode consults the [`DegradedPolicy`]. All paths return
    /// [`Verdict::Degraded`] carrying the contract's full
    /// security-requirement set — the ids that went untested.
    fn degrade_pre(
        &self,
        request: &RestRequest,
        obs: &mut ObsScratch,
        judge: &Judge<'_>,
        faults: &[crate::probe::ProbeFault],
    ) -> (RestResponse, Decision, ReplayContext) {
        self.metrics.resilience.increment("degraded_pre");
        let faults: Vec<String> = faults.iter().map(ToString::to_string).collect();
        let fault_list = faults.join("; ");
        let forwarded = match (self.mode, self.degraded_policy) {
            (Mode::Observe, _) => true,
            (Mode::Enforce, DegradedPolicy::FailClosed) => false,
            (Mode::Enforce, DegradedPolicy::FailOpen { max_unchecked }) => {
                // Reserve a fail-open slot atomically; once the cap is
                // spent the monitor falls back to failing closed.
                let admitted = self
                    .fail_open_used
                    .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |used| {
                        (used < max_unchecked).then_some(used + 1)
                    })
                    .is_ok();
                if admitted {
                    self.metrics.resilience.increment("fail_open_pass");
                }
                admitted
            }
        };
        let (response, diagnostics) = if forwarded {
            (
                timed(&mut obs.timings.forward, || self.cloud.call(request)),
                format!("forwarded unchecked (pre-snapshot faults: {fault_list})"),
            )
        } else {
            self.metrics.resilience.increment("fail_closed");
            (
                RestResponse::transport_fault(
                    StatusCode::SERVICE_UNAVAILABLE,
                    format!("monitor degraded, failing closed: {fault_list}"),
                ),
                format!("failed closed (pre-snapshot faults: {fault_list})"),
            )
        };
        (
            response,
            judge.degraded(diagnostics),
            ReplayContext::DegradedPre { forwarded, faults },
        )
    }

    /// The Drift record for drifted `(root, attr)` pairs, attributed to
    /// the security requirements of every contract whose pre/post scope
    /// reads one of them — the Table-I traceability of a drift detection.
    /// `held` names what the monitor held (`replica`, `identity`).
    fn drift_record(&self, held: &str, drift: Vec<DriftEntry>) -> (Decision, ReplayContext) {
        let mut requirements: Vec<String> = Vec::new();
        for (idx, compiled) in self.compiled.contracts().iter().enumerate() {
            let touched = drift.iter().any(|d| {
                compiled.pre_scope().contains(&d.root, &d.attr)
                    || compiled.post_scope().contains(&d.root, &d.attr)
            });
            if touched {
                for r in &self.contracts.contracts[idx].security_requirements {
                    if !requirements.contains(r) {
                        requirements.push(r.clone());
                    }
                }
            }
        }
        let details = drift
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("; ");
        let attributes = drift
            .iter()
            .map(|d| format!("{}.{}", d.root, d.attr))
            .collect();
        (
            Decision::new(
                Verdict::Drift,
                requirements,
                format!("{held} drift: {details}"),
            ),
            ReplayContext::Drift { attributes },
        )
    }

    /// Forward a request that bypasses the checked path. A successful
    /// non-GET against a project whose replica exists may have mutated
    /// state the transition function never saw, so the replica can no
    /// longer predict — mark it stale (the next request probes and
    /// re-seeds).
    fn forward_unchecked(
        &self,
        request: &RestRequest,
        obs: &mut ObsScratch,
        replicas: &mut HashMap<u64, ProjectReplica>,
    ) -> RestResponse {
        let response = timed(&mut obs.timings.forward, || self.cloud.call(request));
        if request.method != HttpMethod::Get && response.status.is_success() {
            let mut segments = request.path.split('/').filter(|s| !s.is_empty());
            if let (Some("v3" | "compute"), Some(pid)) = (segments.next(), segments.next()) {
                if let Some(replica) = pid.parse().ok().and_then(|pid| replicas.get_mut(&pid)) {
                    replica.mark_stale();
                }
            }
        }
        response
    }

    #[allow(clippy::too_many_lines)]
    fn process_inner(
        &self,
        request: &RestRequest,
        obs: &mut ObsScratch,
        scratch: &mut EvalScratch,
        replicas: &mut HashMap<u64, ProjectReplica>,
    ) -> (RestResponse, Decision, ReplayContext) {
        // 1. Resolve the URI against the model-derived routes.
        let (route, params) = match self.routes.resolve(request.method, &request.path) {
            Resolution::Matched { route, params } => {
                obs.route = Some(route.template.to_string());
                (route.clone(), params)
            }
            Resolution::MethodNotAllowed { route } => {
                // Listing 2: HttpResponseNotAllowed. `route.allow` is the
                // method list pre-joined at derivation time.
                if self.mode == Mode::Enforce {
                    let response = RestResponse::error(
                        StatusCode::METHOD_NOT_ALLOWED,
                        format!("method not allowed; allowed: {}", route.allow),
                    )
                    .header("Allow", route.allow.clone());
                    return (
                        response,
                        Decision::new(
                            Verdict::PreBlocked,
                            Vec::new(),
                            "method not in model-derived interface",
                        ),
                        ReplayContext::MethodNotAllowed {
                            enforced: true,
                            cloud_status: None,
                        },
                    );
                }
                let response = self.forward_unchecked(request, obs, replicas);
                let verdict = judge::method_not_allowed(response.status);
                let cloud_status = Some(response.status.0);
                return (
                    response,
                    Decision::new(verdict, Vec::new(), "method outside the modelled interface"),
                    ReplayContext::MethodNotAllowed {
                        enforced: false,
                        cloud_status,
                    },
                );
            }
            Resolution::NotFound => {
                // Unknown to the model (e.g. /identity/…): transparent proxy.
                let response = self.forward_unchecked(request, obs, replicas);
                return (
                    response,
                    Decision::new(Verdict::NotModelled, Vec::new(), ""),
                    ReplayContext::Unmodelled,
                );
            }
        };

        // 2. Map to the behavioural trigger and its contract (borrowed —
        //    the read side is immutable, nothing needs cloning).
        let trigger = Trigger::new(request.method, route.trigger_resource(request.method));
        obs.trigger = Some(trigger.clone());
        let Some(contract_idx) = self.compiled.index_for(&trigger) else {
            let response = self.forward_unchecked(request, obs, replicas);
            return (
                response,
                Decision::new(Verdict::NotModelled, Vec::new(), "no contract for trigger"),
                ReplayContext::Unmodelled,
            );
        };
        let judge = Judge::new(&self.contracts, &self.compiled, contract_idx);

        // 3. Identify the probe target from the captured URI parameters.
        let Some(project_id) = params.get("project_id").and_then(|s| s.parse::<u64>().ok()) else {
            return (
                RestResponse::error(StatusCode::BAD_REQUEST, "bad or missing project id"),
                Decision::new(
                    Verdict::ContractError,
                    Vec::new(),
                    "project id did not parse",
                ),
                ReplayContext::BadTarget,
            );
        };
        let volume_id = params.get("volume_id").and_then(|s| s.parse::<u64>().ok());
        let snapshot_id = params
            .get("snapshot_id")
            .and_then(|s| s.parse::<u64>().ok());
        let target = ProbeTarget {
            project_id,
            volume_id,
            snapshot_id,
            user_token: request.token().unwrap_or("").to_string(),
            monitor_token: self
                .project_tokens
                .get(&project_id)
                .cloned()
                .unwrap_or_else(|| self.monitor_token.clone()),
        };

        // 4. Bind the pre-state and check the pre-condition. The
        //    pre-state doubles as the post-condition's `pre()` state.
        //    `Full` keeps no replica; under `Replica` the project's
        //    replica serves it unless it cannot (a miss) or a scheduled
        //    anti-entropy pass is due.
        let mut replica = (self.snapshot_policy == SnapshotPolicy::Replica)
            .then(|| replicas.entry(project_id).or_default());
        let (miss, due) = replica.as_deref_mut().map_or((true, false), |replica| {
            let miss =
                !replica.ready() || volume_id.is_some_and(|vid| !replica.knows_snapshots(vid));
            (miss, !miss && replica.note_request(self.anti_entropy_every))
        });
        let via_replica = !(miss || due);
        let (mut pre_state, denials, user) = match replica.as_deref_mut() {
            Some(replica) if via_replica => {
                // Steady state: zero probe round-trips. The only
                // possible network touch is the token introspection,
                // and the identity cache serves that.
                self.metrics.replica.increment("hit");
                let user = match self.prober.identity(&self.cloud, &target.user_token) {
                    Ok(user) => user,
                    Err(fault) => {
                        replica.mark_stale();
                        self.metrics.replica.increment("stale");
                        return self.degrade_pre(request, obs, &judge, &[fault]);
                    }
                };
                let mut nav = MapNavigator::new();
                replica
                    .state()
                    .bind(&mut nav, project_id, volume_id, snapshot_id);
                user.identity.bind(&mut nav);
                (nav, Vec::new(), Some(user))
            }
            replica => {
                let reconcile_started = Instant::now();
                let mut snap = timed(&mut obs.timings.snapshot, || {
                    self.prober.snapshot_checked(&self.cloud, &target)
                });
                if let Some(replica) = replica {
                    // Probe path: one full-granularity pass serves this
                    // request AND re-seeds the replica. A *scheduled*
                    // pass additionally diffs the (still-trusted) replica
                    // first: every divergence is an out-of-band mutation,
                    // surfaced as a Drift detection. A pass that met a
                    // fault, a refusal or another status is no evidence:
                    // the replica becomes stale (unverified), never
                    // wrong, and the request is judged on the pass as
                    // `Full` would judge it.
                    self.metrics
                        .replica
                        .increment(if miss { "miss" } else { "reconcile" });
                    if let (true, Some(fresh)) = (due, &snap.state) {
                        let drift = replica.state().drift(fresh, volume_id);
                        if !drift.is_empty() {
                            self.metrics.replica.increment("drift");
                            self.metrics.replica.increment("repair");
                            obs.drift.push(self.drift_record("replica", drift));
                        }
                    }
                    if replica.absorb(snap.state.take()) {
                        self.metrics
                            .reconciliation
                            .record(reconcile_started.elapsed());
                    } else {
                        self.metrics.replica.increment("stale");
                    }
                }
                // A partial snapshot (transport faults) means the
                // pre-condition is *untestable*: judging the request on
                // half-observed state would attribute transport weather
                // to the cloud's contract. The degraded policy decides
                // what to do instead.
                if snap.is_partial() {
                    return self.degrade_pre(request, obs, &judge, &snap.faults);
                }
                (snap.nav, snap.denials, snap.user)
            }
        };
        // Probe denials are only meaningful where the monitor has probe
        // authority: a request addressed to a foreign project is expected
        // to be unobservable (and its pre-condition correctly fails on the
        // empty view).
        let probe_denials = match self.monitor_project {
            Some(scope_pid)
                if scope_pid != project_id && !self.project_tokens.contains_key(&project_id) =>
            {
                Vec::new()
            }
            _ => denials,
        };
        // Snapshot serialization is not free: capture the replay
        // environments only for a recorder.
        let audit = self.audit.is_some();
        let mut pre_env = if audit {
            EnvSnapshot::capture(&pre_state)
        } else {
            EnvSnapshot::default()
        };
        let provenance = if via_replica {
            EnvProvenance::Replica
        } else {
            EnvProvenance::Probe
        };
        // The interned view of the pre-state snapshot serves the
        // pre-check, requirement attribution, and later the post phase's
        // pre-state environment.
        let pre_view = EnvView::from_navigator(&pre_state, self.compiled.symbols());
        obs.contract = Some(trigger.to_string());
        let pre = match timed(&mut obs.timings.pre_check, || {
            judge.pre(self.mode, &pre_view, scratch)
        }) {
            Ok(pre) => pre,
            Err(decision) => {
                let (response, cloud_status) = if decision.verdict == Verdict::PreBlocked {
                    let response = RestResponse::error(
                        StatusCode::PRECONDITION_FAILED,
                        format!("pre-condition of {trigger} violated"),
                    );
                    (response, None)
                } else if self.mode == Mode::Enforce {
                    let response = RestResponse::error(
                        StatusCode::INTERNAL_SERVER_ERROR,
                        &decision.diagnostics,
                    );
                    (response, None)
                } else {
                    let response = timed(&mut obs.timings.forward, || self.cloud.call(request));
                    let status = response.status.0;
                    (response, Some(status))
                };
                return (
                    response,
                    decision,
                    ReplayContext::Checked {
                        pre_env,
                        post_env: None,
                        post_partial: false,
                        probe_denials,
                        forwarded: cloud_status.is_some(),
                        cloud_status,
                        provenance,
                    },
                );
            }
        };

        // 5. Forward to the cloud. When the pre-condition passed, the
        //    overwhelmingly likely next step is the post-state snapshot,
        //    so the forward and the post probes ride in ONE pipelined
        //    batch over the backend connection: the backend answers a
        //    batch in order, so the probes still observe the post-call
        //    state, and a full round of backend round-trips disappears
        //    from the pass path. The batch layer re-sends on a stale
        //    pooled connection only before the first response commits,
        //    so the forward keeps its at-most-once delivery. A failed
        //    pre-condition (Observe mode continues here) never consults
        //    the post-state, and the replica steady state *predicts* it
        //    from the response, so both keep the plain forward.
        let mut merged_post: Option<Snapshot> = None;
        let response = if pre.ok && !via_replica {
            let (response, snap) = timed(&mut obs.timings.forward, || {
                self.prober
                    .snapshot_checked_after(&self.cloud, request, &target)
            });
            merged_post = Some(snap);
            response
        } else {
            timed(&mut obs.timings.forward, || self.cloud.call(request))
        };
        // A *marked* transport fault means the monitor's own client
        // synthesised this response (wire failure, shed, exhausted
        // budget): the backend never answered, so there is no cloud
        // behaviour to classify, only a sick path. The marker is
        // trustworthy because `RemoteService` strips it from everything
        // that actually arrives over the wire. Bare gateway statuses
        // (502/503/504) are NOT taken at face value here — a misbehaving
        // cloud could answer 503 itself to dodge its post-condition
        // check — the judge disambiguates them against the post-state.
        if response.is_transport_fault() {
            // The forward may or may not have executed: the replica can
            // no longer predict. Stale, not wrong.
            if let Some(replica) = replica {
                replica.mark_stale();
                self.metrics.replica.increment("stale");
            }
            self.metrics.resilience.increment("degraded_forward");
            let diagnostics = format!("forward failed in transport: {}", response.status);
            return (
                response,
                judge.degraded(diagnostics),
                ReplayContext::DegradedForward,
            );
        }
        let status = response.status;

        // Advance the replica's state machine from the observed
        // request/response pair — for EVERY forwarded response, whatever
        // the pre-verdict: a wrongly-accepted mutation still changed the
        // cloud, and the replica tracks the cloud, not the contract. An
        // unpredictable response (gateway status, unexpected shape)
        // marks the replica stale inside.
        if let Some(replica) = replica.as_deref_mut() {
            let was_ready = replica.ready();
            let predicted = replica.observe_response(
                &trigger.resource,
                request.method,
                volume_id,
                snapshot_id,
                &response,
            );
            if !predicted && was_ready {
                self.metrics.replica.increment("stale");
            }
        }

        // 6. Judge the response. The success arm (post-condition check)
        //    and the gateway disambiguation observe the post-state the
        //    same way: from the merged batch above when probing, from the
        //    replica's prediction (zero probes) in the replica steady
        //    state, binding `user` as `identity`. Only a judgement on a
        //    refreshed identity (below) may need a post-state neither
        //    holds: it probes one now, under the shard lock still held.
        //    The judge's own time is post-check time; the post-state it
        //    waits for is snapshot time, and the audit capture neither.
        let mut post_env = None;
        let mut post_partial = false;
        let mut post_snapshot = Duration::ZERO;
        let waited = Cell::new(Duration::ZERO);
        let mut observe_post = |identity: Option<&Identity>| {
            let asked = Instant::now();
            let observed = timed(&mut post_snapshot, || {
                let ready = replica.as_deref_mut().filter(|replica| replica.ready());
                if let (true, Some(replica), Some(identity)) = (via_replica, ready, identity) {
                    // Post-state predicted by the transition just
                    // applied. Zero probes.
                    let mut nav = MapNavigator::new();
                    replica
                        .state()
                        .bind(&mut nav, project_id, volume_id, snapshot_id);
                    identity.bind(&mut nav);
                    return Ok(nav);
                }
                let mut snap = merged_post.take().unwrap_or_else(|| {
                    if via_replica {
                        // The response was unpredictable: on-demand
                        // reconciliation serves the post-state and
                        // re-seeds the replica.
                        self.metrics.replica.increment("miss");
                    }
                    self.prober.snapshot_checked(&self.cloud, &target)
                });
                // A complete probed post snapshot is ground truth after
                // the mutation — the replica absorbs it.
                if let Some(replica) = replica.as_deref_mut() {
                    if !replica.absorb(snap.state.take()) {
                        self.metrics.replica.increment("stale");
                    }
                }
                if snap.is_partial() {
                    Err(snap.faults)
                } else {
                    Ok(snap.nav)
                }
            });
            post_partial = observed.is_err();
            post_env = observed
                .as_ref()
                .ok()
                .filter(|_| audit)
                .map(EnvSnapshot::capture);
            let post = match observed {
                Ok(nav) => PostState::Observed(nav),
                Err(faults) => PostState::Unobservable(
                    faults
                        .iter()
                        .map(ToString::to_string)
                        .collect::<Vec<_>>()
                        .join("; "),
                ),
            };
            waited.set(waited.get() + asked.elapsed());
            post
        };
        let identity = user.as_ref().map(|user| &*user.identity);
        let judged = Instant::now();
        let mut decision = judge
            .response(pre, status, &probe_denials, &pre_view, scratch, || {
                observe_post(identity)
            })
            .expect("the monitor observes the post-state or reports it unobservable");
        obs.timings.post_check += judged.elapsed().saturating_sub(waited.get());

        // No violation rests on a cached identity: the caller's roles may
        // have changed within the cache's TTL. Introspect the token again;
        // an unchanged identity confirms the verdict, a changed one is
        // judged again (the request was forwarded, so pre cannot block)
        // and reported as identity drift.
        if let Some(stale) = user.filter(|user| {
            user.cached
                && matches!(
                    decision.verdict,
                    Verdict::WrongDenial | Verdict::WrongAcceptance
                )
        }) {
            let fresh = match timed(&mut obs.timings.snapshot, || {
                self.prober.introspect(&self.cloud, &target.user_token)
            }) {
                Ok(fresh) => fresh,
                Err(fault) => {
                    self.metrics.resilience.increment("degraded_pre");
                    let fault = fault.to_string();
                    return (
                        response,
                        judge.degraded(format!("identity re-check failed in transport: {fault}")),
                        ReplayContext::DegradedPre {
                            forwarded: true,
                            faults: vec![fault],
                        },
                    );
                }
            };
            if fresh != stale.identity {
                fresh.rebind(&mut pre_state, &stale.identity);
                if audit {
                    pre_env = EnvSnapshot::capture(&pre_state);
                }
                let pre_view = EnvView::from_navigator(&pre_state, self.compiled.symbols());
                decision = match judge.pre(judge::pre_mode(self.mode, true), &pre_view, scratch) {
                    Ok(pre) => judge
                        .response(pre, status, &probe_denials, &pre_view, scratch, || {
                            observe_post(Some(&fresh))
                        })
                        .expect("the monitor observes the post-state or reports it unobservable"),
                    Err(decision) => decision,
                };
                obs.drift
                    .push(self.drift_record("identity", stale.identity.drift(&fresh)));
            }
        }
        obs.timings.snapshot += post_snapshot;
        if decision.verdict == Verdict::Degraded {
            self.metrics.resilience.increment(if status.is_success() {
                "degraded_post"
            } else {
                "degraded_forward"
            });
        }

        // 7. In enforce mode, violations become an invalid response that
        //    names the faulty behaviour (Figure 2).
        let response = if self.mode == Mode::Enforce && decision.verdict.is_violation() {
            RestResponse::error(
                StatusCode::BAD_GATEWAY,
                format!("cloud monitor verdict for {trigger}: {}", decision.verdict),
            )
        } else {
            response
        };
        (
            response,
            decision,
            ReplayContext::Checked {
                pre_env,
                post_env,
                post_partial,
                probe_denials,
                forwarded: true,
                cloud_status: Some(status.0),
                provenance,
            },
        )
    }
}

impl<S: SharedRestService> SharedRestService for CloudMonitor<S> {
    fn call(&self, request: &RestRequest) -> RestResponse {
        self.process(request).response
    }
}

/// The success status the uniform interface specifies per method
/// (Listing 2 checks `response.code == 204` for DELETE).
#[must_use]
pub fn expected_success_status(method: HttpMethod) -> StatusCode {
    match method {
        HttpMethod::Get | HttpMethod::Put => StatusCode::OK,
        HttpMethod::Post => StatusCode::CREATED,
        HttpMethod::Delete => StatusCode::NO_CONTENT,
    }
}

/// Convenience: generate the monitor for the paper's Cinder scenario
/// (Figure 3 models, Figure 3 guards carrying Table I authorization).
///
/// # Errors
///
/// Propagates [`MonitorBuildError`] from [`CloudMonitor::generate`].
pub fn cinder_monitor<S: SharedRestService>(
    cloud: S,
) -> Result<CloudMonitor<S>, MonitorBuildError> {
    CloudMonitor::generate(
        &cm_model::cinder::resource_model(),
        &cm_model::cinder::behavioral_model(),
        None,
        cloud,
    )
}

/// Convenience: the extended Cinder scenario — volumes *and* snapshots,
/// two behavioural state machines over one resource model.
///
/// # Errors
///
/// Propagates [`MonitorBuildError`] from [`CloudMonitor::generate_multi`].
pub fn cinder_monitor_extended<S: SharedRestService>(
    cloud: S,
) -> Result<CloudMonitor<S>, MonitorBuildError> {
    CloudMonitor::generate_multi(
        &cm_model::cinder::extended_resource_model(),
        &[
            &cm_model::cinder::extended_behavioral_model(),
            &cm_model::cinder::snapshot_behavioral_model(),
        ],
        None,
        cloud,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use cm_audit::MemoryRecorder;
    use cm_cloudsim::{Fault, FaultPlan, PrivateCloud};
    use cm_rbac::Rule;
    use std::collections::HashMap;

    struct Harness {
        monitor: CloudMonitor<PrivateCloud>,
        recorder: Arc<MemoryRecorder>,
        pid: u64,
        tokens: HashMap<&'static str, String>,
    }

    fn harness(mode: Mode, faults: FaultPlan) -> Harness {
        let cloud = PrivateCloud::my_project().with_faults(faults);
        let pid = cloud.project_id();
        let mut tokens = HashMap::new();
        for user in ["alice", "bob", "carol"] {
            let t = cloud.issue_token(user, &format!("{user}-pw")).unwrap();
            tokens.insert(user, t.token);
        }
        let recorder = Arc::new(MemoryRecorder::new());
        let mut monitor = cinder_monitor(cloud)
            .unwrap()
            .mode(mode)
            .audit_recorder(Arc::clone(&recorder) as Arc<dyn AuditRecorder>);
        monitor.authenticate("alice", "alice-pw").unwrap();
        Harness {
            monitor,
            recorder,
            pid,
            tokens,
        }
    }

    fn volume_body() -> Json {
        Json::object(vec![(
            "volume",
            Json::object(vec![
                ("name", Json::Str("v".into())),
                ("size", Json::Int(1)),
            ]),
        )])
    }

    impl Harness {
        fn seed_volume(&mut self) -> u64 {
            let pid = self.pid;
            self.monitor
                .cloud_mut()
                .state_mut()
                .create_volume(pid, "seed", 5, false)
                .unwrap()
                .id
        }

        fn send(&mut self, user: &str, method: HttpMethod, path: String) -> MonitorOutcome {
            let req = RestRequest::new(method, path).auth_token(&self.tokens[user]);
            let req = if method == HttpMethod::Post || method == HttpMethod::Put {
                req.json(volume_body())
            } else {
                req
            };
            self.monitor.process(&req)
        }
    }

    #[test]
    fn enforce_blocks_unauthorized_delete_before_cloud() {
        let mut h = harness(Mode::Enforce, FaultPlan::none());
        let vid = h.seed_volume();
        let pid = h.pid;
        let outcome = h.send(
            "carol",
            HttpMethod::Delete,
            format!("/v3/{pid}/volumes/{vid}"),
        );
        assert_eq!(outcome.verdict, Verdict::PreBlocked);
        assert_eq!(outcome.response.status, StatusCode::PRECONDITION_FAILED);
        // The volume is still there: the cloud never saw the request.
        assert_eq!(
            h.monitor
                .cloud()
                .state()
                .project(pid)
                .unwrap()
                .volumes
                .len(),
            1
        );
        // Requirement 1.4 was the one at stake.
        assert!(outcome.requirements.contains(&"1.4".to_string()));
    }

    #[test]
    fn enforce_passes_authorized_delete() {
        let mut h = harness(Mode::Enforce, FaultPlan::none());
        let vid = h.seed_volume();
        let pid = h.pid;
        let outcome = h.send(
            "alice",
            HttpMethod::Delete,
            format!("/v3/{pid}/volumes/{vid}"),
        );
        assert_eq!(outcome.verdict, Verdict::Pass);
        assert_eq!(outcome.response.status, StatusCode::NO_CONTENT);
        assert!(h
            .monitor
            .cloud()
            .state()
            .project(pid)
            .unwrap()
            .volumes
            .is_empty());
    }

    #[test]
    fn authorized_post_and_get_pass() {
        let mut h = harness(Mode::Enforce, FaultPlan::none());
        let pid = h.pid;
        let post = h.send("bob", HttpMethod::Post, format!("/v3/{pid}/volumes"));
        assert_eq!(post.verdict, Verdict::Pass, "{post:?}");
        assert_eq!(post.response.status, StatusCode::CREATED);
        let get = h.send("carol", HttpMethod::Get, format!("/v3/{pid}/volumes/1"));
        assert_eq!(get.verdict, Verdict::Pass, "{get:?}");
        let put = h.send("bob", HttpMethod::Put, format!("/v3/{pid}/volumes/1"));
        assert_eq!(put.verdict, Verdict::Pass, "{put:?}");
    }

    #[test]
    fn observe_detects_wrong_acceptance_on_policy_mutant() {
        let plan = FaultPlan::single(Fault::PolicyOverride {
            action: "volume:delete".into(),
            rule: Rule::any_role(["admin", "member"]),
        });
        let mut h = harness(Mode::Observe, plan);
        let vid = h.seed_volume();
        let pid = h.pid;
        let outcome = h.send(
            "bob",
            HttpMethod::Delete,
            format!("/v3/{pid}/volumes/{vid}"),
        );
        assert_eq!(outcome.verdict, Verdict::WrongAcceptance);
    }

    #[test]
    fn observe_detects_wrong_denial_on_inverted_auth() {
        let plan = FaultPlan::single(Fault::InvertAuthCheck {
            action: "volume:get".into(),
        });
        let mut h = harness(Mode::Observe, plan);
        let vid = h.seed_volume();
        let pid = h.pid;
        let outcome = h.send("alice", HttpMethod::Get, format!("/v3/{pid}/volumes/{vid}"));
        assert_eq!(outcome.verdict, Verdict::WrongDenial);
    }

    #[test]
    fn observe_detects_post_violation_on_lost_update() {
        let plan = FaultPlan::single(Fault::DropStateChange {
            action: "volume:post".into(),
        });
        let mut h = harness(Mode::Observe, plan);
        let pid = h.pid;
        let outcome = h.send("alice", HttpMethod::Post, format!("/v3/{pid}/volumes"));
        assert_eq!(outcome.verdict, Verdict::PostViolation);
    }

    #[test]
    fn observe_detects_wrong_status_code() {
        let plan = FaultPlan::single(Fault::WrongStatusCode {
            action: "volume:delete".into(),
            code: 200,
        });
        let mut h = harness(Mode::Observe, plan);
        let vid = h.seed_volume();
        let pid = h.pid;
        let outcome = h.send(
            "alice",
            HttpMethod::Delete,
            format!("/v3/{pid}/volumes/{vid}"),
        );
        assert_eq!(
            outcome.verdict,
            Verdict::WrongStatus {
                expected: 204,
                actual: 200
            }
        );
    }

    #[test]
    fn status_masking_gateway_code_is_a_violation_when_the_call_executed() {
        // The evasion header-scrubbing alone cannot stop: the cloud
        // *executes* the DELETE but answers a bare 503, hoping to be
        // written off as transport weather. The post-snapshot betrays
        // it — the volume is gone, so the post-condition holds and the
        // verdict is a WrongStatus violation, never Degraded.
        let plan = FaultPlan::single(Fault::WrongStatusCode {
            action: "volume:delete".into(),
            code: 503,
        });
        let mut h = harness(Mode::Observe, plan);
        let vid = h.seed_volume();
        let pid = h.pid;
        let outcome = h.send(
            "alice",
            HttpMethod::Delete,
            format!("/v3/{pid}/volumes/{vid}"),
        );
        assert_eq!(
            outcome.verdict,
            Verdict::WrongStatus {
                expected: 204,
                actual: 503
            }
        );
        assert!(outcome.verdict.is_violation());
    }

    #[test]
    fn enforce_wraps_violations_in_invalid_response() {
        let plan = FaultPlan::single(Fault::DropStateChange {
            action: "volume:post".into(),
        });
        let mut h = harness(Mode::Enforce, plan);
        let pid = h.pid;
        let outcome = h.send("alice", HttpMethod::Post, format!("/v3/{pid}/volumes"));
        assert_eq!(outcome.verdict, Verdict::PostViolation);
        assert_eq!(outcome.response.status, StatusCode::BAD_GATEWAY);
        assert!(outcome
            .response
            .error_message()
            .unwrap()
            .contains("post-violation"));
    }

    #[test]
    fn identity_api_passes_through_unmodelled() {
        let h = harness(Mode::Enforce, FaultPlan::none());
        let outcome = h.monitor.process(
            &RestRequest::new(HttpMethod::Post, "/identity/auth/tokens").json(Json::object(vec![
                (
                    "auth",
                    Json::object(vec![
                        ("user", Json::Str("carol".into())),
                        ("password", Json::Str("carol-pw".into())),
                    ]),
                ),
            ])),
        );
        assert_eq!(outcome.verdict, Verdict::NotModelled);
        assert_eq!(outcome.response.status, StatusCode::CREATED);
    }

    #[test]
    fn method_not_in_interface_is_405_in_enforce() {
        let mut h = harness(Mode::Enforce, FaultPlan::none());
        let pid = h.pid;
        // POST on a volume item is not part of the derived interface.
        let outcome = h.send("alice", HttpMethod::Post, format!("/v3/{pid}/volumes/1"));
        assert_eq!(outcome.response.status, StatusCode::METHOD_NOT_ALLOWED);
        assert!(outcome.response.header_value("Allow").is_some());
    }

    #[test]
    fn log_and_coverage_accumulate() {
        let mut h = harness(Mode::Enforce, FaultPlan::none());
        let vid = h.seed_volume();
        let pid = h.pid;
        h.send("alice", HttpMethod::Get, format!("/v3/{pid}/volumes/{vid}"));
        h.send(
            "carol",
            HttpMethod::Delete,
            format!("/v3/{pid}/volumes/{vid}"),
        );
        assert_eq!(h.recorder.len(), 2);
        let cov = h.monitor.coverage();
        assert_eq!(cov.total_requests(), 2);
        assert!(cov.requirement("1.1").unwrap().exercised >= 1);
        // 1.2 and 1.3 not yet exercised.
        assert!(cov.unexercised().iter().any(|r| r == "1.2"));
    }

    #[test]
    fn missing_token_is_blocked_in_enforce() {
        let mut h = harness(Mode::Enforce, FaultPlan::none());
        let vid = h.seed_volume();
        let pid = h.pid;
        let outcome = h.monitor.process(&RestRequest::new(
            HttpMethod::Delete,
            format!("/v3/{pid}/volumes/{vid}"),
        ));
        assert_eq!(outcome.verdict, Verdict::PreBlocked);
    }

    #[test]
    fn expected_status_per_method() {
        assert_eq!(expected_success_status(HttpMethod::Get), StatusCode::OK);
        assert_eq!(expected_success_status(HttpMethod::Put), StatusCode::OK);
        assert_eq!(
            expected_success_status(HttpMethod::Post),
            StatusCode::CREATED
        );
        assert_eq!(
            expected_success_status(HttpMethod::Delete),
            StatusCode::NO_CONTENT
        );
    }

    #[test]
    fn quota_overflow_attempt_is_blocked() {
        let mut h = harness(Mode::Enforce, FaultPlan::none());
        let pid = h.pid;
        for _ in 0..cm_cloudsim::DEFAULT_VOLUME_QUOTA {
            let ok = h.send("alice", HttpMethod::Post, format!("/v3/{pid}/volumes"));
            assert_eq!(ok.verdict, Verdict::Pass, "{ok:?}");
        }
        let over = h.send("alice", HttpMethod::Post, format!("/v3/{pid}/volumes"));
        assert_eq!(over.verdict, Verdict::PreBlocked);
    }

    /// Counts what the monitor sends its backend: lone calls, and the
    /// size of every pipelined batch in issue order.
    struct Tally {
        inner: PrivateCloud,
        calls: AtomicU64,
        batches: Mutex<Vec<usize>>,
    }

    impl SharedRestService for Tally {
        fn call(&self, request: &RestRequest) -> RestResponse {
            self.calls.fetch_add(1, Ordering::Relaxed);
            self.inner.call(request)
        }
        fn call_batch(&self, requests: &[RestRequest]) -> Vec<RestResponse> {
            plock(&self.batches).push(requests.len());
            requests.iter().map(|r| self.inner.call(r)).collect()
        }
    }

    impl Tally {
        /// `(lone calls, batch sizes)` since the last reset.
        fn reset(&self) -> (u64, Vec<usize>) {
            (
                self.calls.swap(0, Ordering::Relaxed),
                std::mem::take(&mut *plock(&self.batches)),
            )
        }
    }

    /// The backend traffic each binding costs per request class in the
    /// steady state (identity cached, replica seeded), Enforce mode. A
    /// change to the batching fails here instead of only moving a
    /// benchmark.
    #[test]
    fn backend_traffic_shape_per_binding() {
        for (policy, get, delete, unmodelled) in [
            // Pre-probes, then the forward riding with the post-probes.
            (
                SnapshotPolicy::Full,
                (0, vec![5, 6]),
                (0, vec![5]),
                (1, vec![]),
            ),
            // The forward alone; a denied request touches nothing.
            (
                SnapshotPolicy::Replica,
                (1, vec![]),
                (0, vec![]),
                (1, vec![]),
            ),
        ] {
            let inner = PrivateCloud::my_project();
            let pid = inner.project_id();
            let alice = inner.issue_token("alice", "alice-pw").unwrap().token;
            let carol = inner.issue_token("carol", "carol-pw").unwrap().token;
            let vid = inner
                .state_mut()
                .create_volume(pid, "seed", 5, false)
                .unwrap()
                .id;
            let cloud = Tally {
                inner,
                calls: AtomicU64::new(0),
                batches: Mutex::default(),
            };
            let mut monitor = cinder_monitor(cloud)
                .unwrap()
                .mode(Mode::Enforce)
                .snapshot_policy(policy);
            monitor.authenticate("alice", "alice-pw").unwrap();
            let item = format!("/v3/{pid}/volumes/{vid}");
            let requests = [
                (
                    RestRequest::new(HttpMethod::Get, item.clone()).auth_token(&alice),
                    Verdict::Pass,
                    get,
                ),
                (
                    RestRequest::new(HttpMethod::Delete, item).auth_token(&carol),
                    Verdict::PreBlocked,
                    delete,
                ),
                (
                    RestRequest::new(HttpMethod::Get, "/unmodelled/x").auth_token(&alice),
                    Verdict::NotModelled,
                    unmodelled,
                ),
            ];
            // Warm the identity cache and seed the replica.
            for (request, verdict, _) in &requests {
                assert_eq!(monitor.process(request).verdict, *verdict, "{policy:?}");
            }
            monitor.cloud().reset();
            for (request, verdict, traffic) in requests {
                assert_eq!(monitor.process(&request).verdict, verdict, "{policy:?}");
                assert_eq!(
                    monitor.cloud().reset(),
                    traffic,
                    "{policy:?} {:?} {}",
                    request.method,
                    request.path
                );
            }
        }
    }
}

#[cfg(test)]
mod snapshot_policy_tests {
    use super::*;
    use cm_cloudsim::PrivateCloud;

    #[test]
    fn minimal_policy_gives_same_verdicts_on_cinder() {
        // Probing and the shadow replica bind the same environment, so
        // both bindings must agree on the Cinder lifecycle.
        for policy in [SnapshotPolicy::Full, SnapshotPolicy::Replica] {
            let cloud = PrivateCloud::my_project();
            let pid = cloud.project_id();
            let admin = cloud.issue_token("alice", "alice-pw").unwrap();
            let carol = cloud.issue_token("carol", "carol-pw").unwrap();
            let mut monitor = cinder_monitor(cloud)
                .unwrap()
                .mode(Mode::Enforce)
                .snapshot_policy(policy);
            monitor.authenticate("alice", "alice-pw").unwrap();

            let create = monitor.process(
                &RestRequest::new(HttpMethod::Post, format!("/v3/{pid}/volumes"))
                    .auth_token(&admin.token)
                    .json(Json::object(vec![(
                        "volume",
                        Json::object(vec![("name", Json::Str("v".into()))]),
                    )])),
            );
            assert_eq!(create.verdict, Verdict::Pass, "{policy:?}");
            let blocked = monitor.process(
                &RestRequest::new(HttpMethod::Delete, format!("/v3/{pid}/volumes/1"))
                    .auth_token(&carol.token),
            );
            assert_eq!(blocked.verdict, Verdict::PreBlocked, "{policy:?}");
            let deleted = monitor.process(
                &RestRequest::new(HttpMethod::Delete, format!("/v3/{pid}/volumes/1"))
                    .auth_token(&admin.token),
            );
            assert_eq!(deleted.verdict, Verdict::Pass, "{policy:?}");
        }
    }

    #[test]
    fn scoped_snapshot_still_catches_mutated_attributes() {
        // A cloud that reports DELETE success but silently keeps the
        // volume (DropStateChange) leaves `project.volumes` unchanged
        // against the claimed transition. Only probing observes the real
        // post-state: a warm replica predicts it from the response.
        use cm_cloudsim::{Fault, FaultPlan};
        let cloud =
            PrivateCloud::my_project().with_faults(FaultPlan::single(Fault::DropStateChange {
                action: "volume:delete".into(),
            }));
        let pid = cloud.project_id();
        let vid = cloud
            .state_mut()
            .create_volume(pid, "v", 1, false)
            .unwrap()
            .id;
        let admin = cloud.issue_token("alice", "alice-pw").unwrap().token;
        let mut monitor = cinder_monitor(cloud)
            .unwrap()
            .mode(Mode::Observe)
            .snapshot_policy(SnapshotPolicy::Full);
        monitor.authenticate("alice", "alice-pw").unwrap();
        let outcome = monitor.process(
            &RestRequest::new(HttpMethod::Delete, format!("/v3/{pid}/volumes/{vid}"))
                .auth_token(&admin),
        );
        assert_eq!(outcome.verdict, Verdict::PostViolation);
    }

    #[test]
    fn scoped_snapshot_still_catches_quota_overflow() {
        // `quota_sets.volume` is only read by the CREATE guard; the
        // replica must carry it so an over-quota create is blocked
        // under Replica just as under Full.
        for policy in [SnapshotPolicy::Full, SnapshotPolicy::Replica] {
            let cloud = PrivateCloud::my_project();
            let pid = cloud.project_id();
            let admin = cloud.issue_token("alice", "alice-pw").unwrap().token;
            let mut monitor = cinder_monitor(cloud)
                .unwrap()
                .mode(Mode::Enforce)
                .snapshot_policy(policy);
            monitor.authenticate("alice", "alice-pw").unwrap();
            let create = |name: &str| {
                RestRequest::new(HttpMethod::Post, format!("/v3/{pid}/volumes"))
                    .auth_token(&admin)
                    .json(Json::object(vec![(
                        "volume",
                        Json::object(vec![("name", Json::Str(name.into()))]),
                    )]))
            };
            for i in 0..cm_cloudsim::DEFAULT_VOLUME_QUOTA {
                let ok = monitor.process(&create(&format!("v{i}")));
                assert_eq!(ok.verdict, Verdict::Pass, "{policy:?}");
            }
            let over = monitor.process(&create("overflow"));
            assert_eq!(over.verdict, Verdict::PreBlocked, "{policy:?}");
        }
    }
}

#[cfg(test)]
mod extended_model_tests {
    use super::*;
    use cm_cloudsim::PrivateCloud;

    struct Ext {
        monitor: CloudMonitor<PrivateCloud>,
        pid: u64,
        vid: u64,
        admin: String,
        carol: String,
    }

    fn ext() -> Ext {
        let cloud = PrivateCloud::my_project();
        let pid = cloud.project_id();
        let admin = cloud.issue_token("alice", "alice-pw").unwrap().token;
        let carol = cloud.issue_token("carol", "carol-pw").unwrap().token;
        let vid = cloud
            .state_mut()
            .create_volume(pid, "v", 1, false)
            .unwrap()
            .id;
        let mut monitor = cinder_monitor_extended(cloud).unwrap().mode(Mode::Enforce);
        monitor.authenticate("alice", "alice-pw").unwrap();
        Ext {
            monitor,
            pid,
            vid,
            admin,
            carol,
        }
    }

    fn snap_body() -> Json {
        Json::object(vec![(
            "snapshot",
            Json::object(vec![("name", Json::Str("s".into()))]),
        )])
    }

    #[test]
    fn extended_monitor_covers_both_machines() {
        let e = ext();
        assert_eq!(e.monitor.contracts().contracts.len(), 4 + 3);
        let mut reqs = e.monitor.contracts().covered_requirements();
        reqs.sort();
        assert_eq!(reqs, vec!["1.1", "1.2", "1.3", "1.4", "2.1", "2.2", "2.3"]);
    }

    #[test]
    fn snapshot_lifecycle_through_monitor() {
        let e = ext();
        let (pid, vid) = (e.pid, e.vid);

        // admin creates a snapshot (SecReq 2.2) — volume_without_snapshot
        // -> volume_with_snapshot.
        let create = e.monitor.process(
            &RestRequest::new(
                HttpMethod::Post,
                format!("/v3/{pid}/volumes/{vid}/snapshots"),
            )
            .auth_token(&e.admin)
            .json(snap_body()),
        );
        assert_eq!(create.verdict, Verdict::Pass, "{create:?}");
        assert!(create.requirements.contains(&"2.2".to_string()));

        // carol reads it (SecReq 2.1).
        let get = e.monitor.process(
            &RestRequest::new(
                HttpMethod::Get,
                format!("/v3/{pid}/volumes/{vid}/snapshots/1"),
            )
            .auth_token(&e.carol),
        );
        assert_eq!(get.verdict, Verdict::Pass, "{get:?}");

        // carol may not delete it (SecReq 2.3) — blocked pre-cloud.
        let blocked = e.monitor.process(
            &RestRequest::new(
                HttpMethod::Delete,
                format!("/v3/{pid}/volumes/{vid}/snapshots/1"),
            )
            .auth_token(&e.carol),
        );
        assert_eq!(blocked.verdict, Verdict::PreBlocked);

        // admin deletes it — back to volume_without_snapshot.
        let deleted = e.monitor.process(
            &RestRequest::new(
                HttpMethod::Delete,
                format!("/v3/{pid}/volumes/{vid}/snapshots/1"),
            )
            .auth_token(&e.admin),
        );
        assert_eq!(deleted.verdict, Verdict::Pass, "{deleted:?}");
    }

    #[test]
    fn volume_contracts_still_enforced_in_extended_monitor() {
        let e = ext();
        let (pid, vid) = (e.pid, e.vid);
        let blocked = e.monitor.process(
            &RestRequest::new(HttpMethod::Delete, format!("/v3/{pid}/volumes/{vid}"))
                .auth_token(&e.carol),
        );
        assert_eq!(blocked.verdict, Verdict::PreBlocked);
        let deleted = e.monitor.process(
            &RestRequest::new(HttpMethod::Delete, format!("/v3/{pid}/volumes/{vid}"))
                .auth_token(&e.admin),
        );
        assert_eq!(deleted.verdict, Verdict::Pass, "{deleted:?}");
    }

    #[test]
    fn snapshot_mutant_is_detected_in_observe_mode() {
        use cm_cloudsim::{Fault, FaultPlan};
        let cloud =
            PrivateCloud::my_project().with_faults(FaultPlan::single(Fault::SkipAuthCheck {
                action: "snapshot:delete".into(),
            }));
        let pid = cloud.project_id();
        let carol = cloud.issue_token("carol", "carol-pw").unwrap().token;
        let vid = cloud
            .state_mut()
            .create_volume(pid, "v", 1, false)
            .unwrap()
            .id;
        cloud.state_mut().create_snapshot(pid, vid, "s").unwrap();
        let mut monitor = cinder_monitor_extended(cloud).unwrap().mode(Mode::Observe);
        monitor.authenticate("alice", "alice-pw").unwrap();
        let outcome = monitor.process(
            &RestRequest::new(
                HttpMethod::Delete,
                format!("/v3/{pid}/volumes/{vid}/snapshots/1"),
            )
            .auth_token(&carol),
        );
        assert_eq!(outcome.verdict, Verdict::WrongAcceptance);
    }

    #[test]
    fn duplicate_triggers_across_machines_rejected() {
        let cloud = PrivateCloud::my_project();
        let m = cm_model::cinder::behavioral_model();
        let err = CloudMonitor::generate_multi(
            &cm_model::cinder::resource_model(),
            &[&m, &m],
            None,
            cloud,
        )
        .unwrap_err();
        assert!(err.message.contains("more than one state machine"));
    }
}

#[cfg(test)]
mod resilience_tests {
    use super::*;
    use cm_cloudsim::PrivateCloud;

    /// A cloud wrapper that injects transport faults into model-state
    /// probes (GETs under `/v3`) once armed; everything else passes
    /// through to the real simulated cloud.
    struct FaultyProbes {
        inner: PrivateCloud,
        armed: std::sync::atomic::AtomicBool,
    }

    impl SharedRestService for FaultyProbes {
        fn call(&self, request: &RestRequest) -> RestResponse {
            if self.armed.load(Ordering::Relaxed)
                && request.method == HttpMethod::Get
                && request.path.starts_with("/v3")
            {
                return RestResponse::transport_fault(
                    StatusCode::BAD_GATEWAY,
                    "injected probe fault",
                );
            }
            self.inner.call(request)
        }
    }

    /// An Enforce-mode monitor over [`FaultyProbes`] with one seeded
    /// volume, armed so every model-state probe faults from here on.
    fn degraded_fixture() -> (CloudMonitor<FaultyProbes>, u64, u64, String) {
        let cloud = PrivateCloud::my_project();
        let pid = cloud.project_id();
        let admin = cloud.issue_token("alice", "alice-pw").unwrap().token;
        let vid = cloud
            .state_mut()
            .create_volume(pid, "v", 1, false)
            .unwrap()
            .id;
        let wrapped = FaultyProbes {
            inner: cloud,
            armed: std::sync::atomic::AtomicBool::new(false),
        };
        let mut monitor = cinder_monitor(wrapped).unwrap().mode(Mode::Enforce);
        monitor.authenticate("alice", "alice-pw").unwrap();
        monitor.cloud().armed.store(true, Ordering::Relaxed);
        (monitor, pid, vid, admin)
    }

    #[test]
    fn degraded_pre_fails_closed_by_default() {
        let (monitor, pid, vid, admin) = degraded_fixture();
        let outcome = monitor.process(
            &RestRequest::new(HttpMethod::Delete, format!("/v3/{pid}/volumes/{vid}"))
                .auth_token(&admin),
        );
        assert_eq!(outcome.verdict, Verdict::Degraded);
        assert!(!outcome.verdict.is_violation());
        assert_eq!(outcome.response.status, StatusCode::SERVICE_UNAVAILABLE);
        assert!(outcome.response.is_transport_fault());
        // Table I traceability: the untested requirement rides along.
        assert!(outcome.requirements.contains(&"1.4".to_string()));
        // Fail-closed: the cloud never saw the DELETE.
        assert_eq!(
            monitor
                .cloud()
                .inner
                .state()
                .project(pid)
                .unwrap()
                .volumes
                .len(),
            1
        );
        assert_eq!(monitor.metrics().resilience.get("degraded_pre"), 1);
        assert_eq!(monitor.metrics().resilience.get("fail_closed"), 1);
    }

    #[test]
    fn degraded_pre_fail_open_forwards_until_the_cap() {
        let (monitor, pid, vid, admin) = degraded_fixture();
        let monitor = monitor.degraded_policy(DegradedPolicy::FailOpen { max_unchecked: 1 });
        let delete = RestRequest::new(HttpMethod::Delete, format!("/v3/{pid}/volumes/{vid}"))
            .auth_token(&admin);

        // First degraded request fits the fail-open budget: forwarded
        // unchecked, and the cloud really deleted the volume.
        let first = monitor.process(&delete);
        assert_eq!(first.verdict, Verdict::Degraded);
        assert_eq!(first.response.status, StatusCode::NO_CONTENT);
        assert!(monitor
            .cloud()
            .inner
            .state()
            .project(pid)
            .unwrap()
            .volumes
            .is_empty());
        assert_eq!(monitor.fail_open_used(), 1);
        assert_eq!(monitor.metrics().resilience.get("fail_open_pass"), 1);

        // The budget is spent: the next degraded request fails closed.
        let second = monitor.process(&delete);
        assert_eq!(second.verdict, Verdict::Degraded);
        assert_eq!(second.response.status, StatusCode::SERVICE_UNAVAILABLE);
        assert_eq!(monitor.metrics().resilience.get("fail_closed"), 1);
        assert_eq!(monitor.fail_open_used(), 1);
    }

    /// Healthy probes, but the forwarded call itself dies in transport.
    struct FaultyForward {
        inner: PrivateCloud,
    }

    impl SharedRestService for FaultyForward {
        fn call(&self, request: &RestRequest) -> RestResponse {
            if request.method == HttpMethod::Delete {
                return RestResponse::transport_fault(
                    StatusCode::GATEWAY_TIMEOUT,
                    "upstream timed out",
                );
            }
            self.inner.call(request)
        }
    }

    #[test]
    fn degraded_forward_is_not_a_wrong_denial() {
        let cloud = PrivateCloud::my_project();
        let pid = cloud.project_id();
        let admin = cloud.issue_token("alice", "alice-pw").unwrap().token;
        let vid = cloud
            .state_mut()
            .create_volume(pid, "v", 1, false)
            .unwrap()
            .id;
        let mut monitor = cinder_monitor(FaultyForward { inner: cloud })
            .unwrap()
            .mode(Mode::Observe);
        monitor.authenticate("alice", "alice-pw").unwrap();
        let outcome = monitor.process(
            &RestRequest::new(HttpMethod::Delete, format!("/v3/{pid}/volumes/{vid}"))
                .auth_token(&admin),
        );
        // A 504 from the wire is transport weather, not the cloud denying
        // an authorized request: Degraded, never WrongDenial.
        assert_eq!(outcome.verdict, Verdict::Degraded);
        assert_eq!(outcome.response.status, StatusCode::GATEWAY_TIMEOUT);
        assert!(outcome.requirements.contains(&"1.4".to_string()));
        assert_eq!(monitor.metrics().resilience.get("degraded_forward"), 1);
    }

    /// Answers every DELETE with a bare (unmarked) 503 without touching
    /// the cloud — indistinguishable by status from an intermediary
    /// shedding the request.
    struct SpoofedRefusal {
        inner: PrivateCloud,
    }

    impl SharedRestService for SpoofedRefusal {
        fn call(&self, request: &RestRequest) -> RestResponse {
            if request.method == HttpMethod::Delete {
                return RestResponse::error(StatusCode::SERVICE_UNAVAILABLE, "unavailable");
            }
            self.inner.call(request)
        }
    }

    #[test]
    fn bare_gateway_code_without_execution_stays_degraded() {
        // The converse of the masking test: a bare 503 where the call
        // genuinely did NOT run (post-state unchanged) is transport
        // weather as far as the monitor can prove — Degraded, counted,
        // never a false violation.
        let cloud = PrivateCloud::my_project();
        let pid = cloud.project_id();
        let admin = cloud.issue_token("alice", "alice-pw").unwrap().token;
        let vid = cloud
            .state_mut()
            .create_volume(pid, "v", 1, false)
            .unwrap()
            .id;
        let mut monitor = cinder_monitor(SpoofedRefusal { inner: cloud })
            .unwrap()
            .mode(Mode::Observe);
        monitor.authenticate("alice", "alice-pw").unwrap();
        let outcome = monitor.process(
            &RestRequest::new(HttpMethod::Delete, format!("/v3/{pid}/volumes/{vid}"))
                .auth_token(&admin),
        );
        assert_eq!(outcome.verdict, Verdict::Degraded);
        assert!(!outcome.verdict.is_violation());
        assert_eq!(outcome.response.status, StatusCode::SERVICE_UNAVAILABLE);
        // The refused DELETE really did nothing.
        assert_eq!(
            monitor
                .cloud()
                .inner
                .state()
                .project(pid)
                .unwrap()
                .volumes
                .len(),
            1
        );
        assert_eq!(monitor.metrics().resilience.get("degraded_forward"), 1);
    }

    /// Passes the forwarded call through, then blinds the post-snapshot:
    /// every model-state probe after the first DELETE faults.
    struct PostBlind {
        inner: PrivateCloud,
        tripped: std::sync::atomic::AtomicBool,
    }

    impl SharedRestService for PostBlind {
        fn call(&self, request: &RestRequest) -> RestResponse {
            if request.method == HttpMethod::Delete {
                let response = self.inner.call(request);
                self.tripped.store(true, Ordering::Relaxed);
                return response;
            }
            if self.tripped.load(Ordering::Relaxed)
                && request.method == HttpMethod::Get
                && request.path.starts_with("/v3")
            {
                return RestResponse::transport_fault(
                    StatusCode::BAD_GATEWAY,
                    "post-state unreachable",
                );
            }
            self.inner.call(request)
        }
    }

    #[test]
    fn degraded_post_returns_the_clouds_real_response() {
        let cloud = PrivateCloud::my_project();
        let pid = cloud.project_id();
        let admin = cloud.issue_token("alice", "alice-pw").unwrap().token;
        let vid = cloud
            .state_mut()
            .create_volume(pid, "v", 1, false)
            .unwrap()
            .id;
        let wrapped = PostBlind {
            inner: cloud,
            tripped: std::sync::atomic::AtomicBool::new(false),
        };
        let mut monitor = cinder_monitor(wrapped).unwrap().mode(Mode::Enforce);
        monitor.authenticate("alice", "alice-pw").unwrap();
        let outcome = monitor.process(
            &RestRequest::new(HttpMethod::Delete, format!("/v3/{pid}/volumes/{vid}"))
                .auth_token(&admin),
        );
        // The call already executed: the client gets the cloud's actual
        // 204, labelled Degraded because the post-state went unobserved.
        assert_eq!(outcome.verdict, Verdict::Degraded);
        assert_eq!(outcome.response.status, StatusCode::NO_CONTENT);
        assert!(monitor
            .cloud()
            .inner
            .state()
            .project(pid)
            .unwrap()
            .volumes
            .is_empty());
        assert_eq!(monitor.metrics().resilience.get("degraded_post"), 1);
    }

    /// Panics on the first call to one specific unmodelled path,
    /// poisoning whatever lock the monitor holds around the forward.
    struct PanicOnce {
        inner: PrivateCloud,
        armed: std::sync::atomic::AtomicBool,
    }

    impl SharedRestService for PanicOnce {
        fn call(&self, request: &RestRequest) -> RestResponse {
            if request.path == "/identity/boom" && self.armed.swap(false, Ordering::Relaxed) {
                panic!("injected backend panic");
            }
            self.inner.call(request)
        }
    }

    #[test]
    fn poisoned_shard_does_not_wedge_later_requests() {
        let recorder = Arc::new(cm_audit::MemoryRecorder::new());
        let monitor = cinder_monitor(PanicOnce {
            inner: PrivateCloud::my_project(),
            armed: std::sync::atomic::AtomicBool::new(true),
        })
        .unwrap()
        .audit_recorder(Arc::clone(&recorder) as Arc<dyn AuditRecorder>);
        let req = RestRequest::new(HttpMethod::Get, "/identity/boom");
        // The first request panics mid-forward while holding its shard,
        // poisoning that shard's mutex.
        let poisoned =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| monitor.process(&req)));
        assert!(poisoned.is_err());
        // The same shard still serves requests: the lock recovered.
        let outcome = monitor.process(&req);
        assert_eq!(outcome.verdict, Verdict::NotModelled);
        // The panicked request never emitted its record; the retry did.
        assert_eq!(recorder.len(), 1);
    }
}

#[cfg(test)]
mod refined_delete_tests {
    use super::*;
    use cm_cloudsim::PrivateCloud;

    #[test]
    fn volume_delete_with_snapshots_is_blocked_not_misreported() {
        let cloud = PrivateCloud::my_project();
        let pid = cloud.project_id();
        let admin = cloud.issue_token("alice", "alice-pw").unwrap().token;
        let vid = cloud
            .state_mut()
            .create_volume(pid, "v", 1, false)
            .unwrap()
            .id;
        cloud.state_mut().create_snapshot(pid, vid, "s").unwrap();
        let mut monitor = cinder_monitor_extended(cloud).unwrap().mode(Mode::Enforce);
        monitor.authenticate("alice", "alice-pw").unwrap();

        // The refined guard requires snapshot-freedom: blocked pre-cloud.
        let blocked = monitor.process(
            &RestRequest::new(HttpMethod::Delete, format!("/v3/{pid}/volumes/{vid}"))
                .auth_token(&admin),
        );
        assert_eq!(blocked.verdict, Verdict::PreBlocked);

        // Remove the snapshot; the volume now deletes cleanly.
        let snap_del = monitor.process(
            &RestRequest::new(
                HttpMethod::Delete,
                format!("/v3/{pid}/volumes/{vid}/snapshots/1"),
            )
            .auth_token(&admin),
        );
        assert_eq!(snap_del.verdict, Verdict::Pass);
        let vol_del = monitor.process(
            &RestRequest::new(HttpMethod::Delete, format!("/v3/{pid}/volumes/{vid}"))
                .auth_token(&admin),
        );
        assert_eq!(vol_del.verdict, Verdict::Pass, "{vol_del:?}");
    }
}

#[cfg(test)]
mod state_tracking_tests {
    use super::*;
    use cm_cloudsim::PrivateCloud;
    use cm_model::cinder;

    #[test]
    fn monitor_reports_the_model_state_after_each_pass() {
        let cloud = PrivateCloud::my_project();
        let pid = cloud.project_id();
        let admin = cloud.issue_token("alice", "alice-pw").unwrap().token;
        let mut monitor = cinder_monitor(cloud).unwrap();
        monitor.authenticate("alice", "alice-pw").unwrap();

        let body = Json::object(vec![(
            "volume",
            Json::object(vec![("name", Json::Str("v".into()))]),
        )]);
        let first = monitor.process(
            &RestRequest::new(HttpMethod::Post, format!("/v3/{pid}/volumes"))
                .auth_token(&admin)
                .json(body.clone()),
        );
        assert!(first.diagnostics.contains(cinder::S_NOT_FULL), "{first:?}");

        // Fill to quota: the monitor reports the full-quota state.
        let mut last = first;
        for _ in 1..cm_cloudsim::DEFAULT_VOLUME_QUOTA {
            last = monitor.process(
                &RestRequest::new(HttpMethod::Post, format!("/v3/{pid}/volumes"))
                    .auth_token(&admin)
                    .json(body.clone()),
            );
        }
        assert!(last.diagnostics.contains(cinder::S_FULL), "{last:?}");
    }

    #[test]
    fn contract_set_states_survive_generate_multi() {
        let monitor = cinder_monitor_extended(PrivateCloud::my_project()).unwrap();
        let names: Vec<&str> = monitor
            .contracts()
            .states
            .iter()
            .map(|(n, _)| n.as_str())
            .collect();
        assert!(names.contains(&cinder::S_NO_VOLUME));
        assert!(names.contains(&cinder::S_VOL_NO_SNAPSHOT));
        assert_eq!(names.len(), 5);
    }
}

#[cfg(test)]
mod overload_tests {
    use super::*;
    use cm_cloudsim::PrivateCloud;

    #[test]
    fn record_shed_lands_as_degraded_with_overload_provenance() {
        let recorder = Arc::new(cm_audit::MemoryRecorder::new());
        let cloud = PrivateCloud::my_project();
        let pid = cloud.project_id();
        let monitor = cinder_monitor(cloud)
            .unwrap()
            .audit_recorder(Arc::clone(&recorder) as Arc<dyn AuditRecorder>);
        let request = RestRequest::new(HttpMethod::Post, format!("/v3/{pid}/volumes"));
        let decision = ShedDecision {
            lane: cm_obs::Lane::Mutation,
            queue_wait: Duration::from_millis(700),
            budget: Duration::from_millis(500),
            cause: cm_httpkit::ShedCause::BudgetExhausted,
        };
        monitor.record_shed(&request, &decision);
        let records = recorder.records();
        assert_eq!(records.len(), 1);
        let record = &records[0];
        assert_eq!(record.verdict, Verdict::Degraded);
        assert_eq!(record.status, StatusCode::SERVICE_UNAVAILABLE.0);
        assert!(record.diagnostics.contains("overload shed"));
        assert!(record.diagnostics.contains("lane=mutation"));
        assert!(record.diagnostics.contains("cause=budget_exhausted"));
        match &record.context {
            ReplayContext::DegradedPre { forwarded, faults } => {
                assert!(!forwarded, "a shed request never reached the cloud");
                assert!(faults[0].contains("overload shed"));
            }
            other => panic!("expected DegradedPre overload provenance, got {other:?}"),
        }
        // The shed is also visible to live observers: one event, one
        // metrics observation, one overload counter.
        let events = monitor.events().tail(8);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].verdict, "degraded");
        assert!(
            !events[0].violation,
            "a shed must never read as a violation"
        );
        let rendered = monitor.metrics().render_json();
        assert_eq!(
            rendered
                .get("overload")
                .unwrap()
                .get("shed_recorded")
                .unwrap()
                .as_int(),
            Some(1)
        );
    }
}
