//! State probing: building the OCL evaluation environment through the
//! cloud's own REST API.
//!
//! The paper's monitor keeps "a local copy of the resource structures"
//! (models.py) and evaluates invariants whose atoms are defined in terms
//! of REST observations — `project.id->size() = 1` *means* "GET on the
//! project returned 200". The prober realises that semantics directly: it
//! issues GETs against the monitored cloud and materialises a
//! [`MapNavigator`] binding the context variables (`project`, `volume`,
//! `quota_sets`, `user`) the generated contracts navigate. Probing before
//! the monitored call produces the `pre(...)` snapshot; probing after it
//! produces the post-state.

use crate::identity::{Identity, IdentityCache, UserBinding};
use crate::replica::ProjectState;
use cm_model::HttpMethod;
use cm_ocl::MapNavigator;
use cm_rest::{RestRequest, RestResponse, SharedRestService, StatusCode};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, LazyLock, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// One probe GET that the *transport* failed to deliver: the response
/// was synthesised by the client layer (marked with
/// `X-CM-Transport-Fault`) or carries a gateway status (502/503/504).
///
/// A fault is categorically different from a probe *denial* (403/409
/// from the cloud itself): a denial is an observation about the cloud's
/// authorization behaviour, while a fault means the snapshot is simply
/// missing data — any contract evaluated over it would be judging the
/// transport, not the cloud. Faults therefore route to
/// `Verdict::Degraded`, never to a violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProbeFault {
    /// The probe request that failed, e.g. `GET /v3/1/volumes`.
    pub probe: String,
    /// The synthesised gateway status (502, 503 or 504).
    pub status: u16,
    /// The transport's error message, when one was attached.
    pub reason: String,
}

impl ProbeFault {
    /// The fault `resp` reports for the probe `GET {path}`: a response
    /// the transport synthesised, or a gateway status.
    fn of(path: &str, resp: &RestResponse) -> Option<ProbeFault> {
        (resp.is_transport_fault() || resp.status.is_gateway_error()).then(|| ProbeFault {
            probe: format!("GET {path}"),
            status: resp.status.0,
            reason: resp
                .error_message()
                .unwrap_or("transport fault")
                .to_string(),
        })
    }
}

impl std::fmt::Display for ProbeFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} -> {} ({})", self.probe, self.status, self.reason)
    }
}

/// The outcome of one snapshot: the evaluation environment, the
/// project state it binds, and the anomalies encountered while building
/// it.
#[derive(Debug)]
pub struct Snapshot {
    /// The evaluation environment (partially filled when faults occurred).
    pub nav: MapNavigator,
    /// The project state the probes' answers parse into (`nav` binds
    /// it), when every state probe answered 200 or 404. A refusal, a
    /// fault or another status says nothing certain about the state, so
    /// such a pass holds `None`: it is no evidence a replica may absorb.
    pub(crate) state: Option<ProjectState>,
    /// Anomalous probe denials: non-404 failures of the monitor's own
    /// admin-authority GETs, answered by the *cloud itself*.
    pub denials: Vec<String>,
    /// Probes the transport failed to deliver — the snapshot is partial
    /// and must not be evaluated against a contract.
    pub faults: Vec<ProbeFault>,
    /// The identity bound to `user`; `None` when its introspection is
    /// among the faults.
    pub user: Option<UserBinding>,
}

impl Snapshot {
    /// True when at least one probe never reached the cloud: the
    /// environment is missing bindings through no fault of the cloud.
    #[must_use]
    pub fn is_partial(&self) -> bool {
        !self.faults.is_empty()
    }
}

/// Identifies the slice of cloud state a contract evaluation needs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProbeTarget {
    /// Project the request is scoped to.
    pub project_id: u64,
    /// Specific volume addressed by the request, if any.
    pub volume_id: Option<u64>,
    /// Specific snapshot addressed by the request, if any.
    pub snapshot_id: Option<u64>,
    /// The requester's auth token (probes run with the requester's own
    /// authority is *not* wanted — see `monitor_token`).
    pub user_token: String,
    /// Token the monitor itself uses for probing (an admin-ish identity so
    /// probes are not rejected when the *requester* is unauthorized).
    pub monitor_token: String,
}

/// How long a token-introspection answer stays valid in the prober's
/// identity cache. Keystone tokens are immutable for their lifetime
/// (only expiry or explicit revocation ends them), so re-introspecting
/// the same token on every snapshot mostly re-reads the same answer;
/// OpenStack's own `keystonemiddleware` ships the same cache for the
/// same reason. The TTL bounds how long a *revocation* can go unnoticed.
pub const DEFAULT_IDENTITY_TTL: Duration = Duration::from_secs(60);

/// Default number of tokens the identity cache holds. At the cap an
/// insert evicts one expired or unreferenced entry (CLOCK), which bounds
/// the memory unauthenticated traffic spraying unique junk tokens can
/// take. Override with [`StateProber::identity_capacity`].
pub const DEFAULT_IDENTITY_CAP: usize = 4096;

/// Shared hit/miss counter handles for the identity cache, wired by the
/// monitor so cache effectiveness shows up under `/-/metrics`. Plain
/// atomics (not a metrics-registry reference) keep the prober free of
/// any observability-layer coupling.
#[derive(Debug, Clone)]
struct IdentityCounters {
    hit: Arc<AtomicU64>,
    miss: Arc<AtomicU64>,
}

/// The prober. `prefix` is the block-storage API prefix (usually `/v3`).
#[derive(Debug, Clone)]
pub struct StateProber {
    /// API prefix for the block-storage service.
    pub prefix: String,
    /// Cache hit/miss tallies, when the owner wants them surfaced.
    identity_counters: Option<IdentityCounters>,
    /// token → parsed identity. Shared across clones, with its TTL and
    /// capacity, so every shard of one monitor sees the same cache; a
    /// hit is a refcount bump on the shared [`Identity`].
    identity_cache: Arc<Mutex<IdentityCache>>,
}

impl Default for StateProber {
    fn default() -> Self {
        StateProber {
            prefix: "/v3".to_string(),
            identity_counters: None,
            identity_cache: Arc::new(Mutex::new(IdentityCache::new(
                DEFAULT_IDENTITY_CAP,
                DEFAULT_IDENTITY_TTL,
            ))),
        }
    }
}

impl StateProber {
    /// Create a prober with the given API prefix.
    #[must_use]
    pub fn new(prefix: impl Into<String>) -> Self {
        StateProber {
            prefix: prefix.into(),
            ..StateProber::default()
        }
    }

    /// Set the identity-cache TTL (builder style; clones of this prober
    /// share the cache and so the setting). `Duration::ZERO` disables
    /// caching: every snapshot re-introspects the token.
    #[must_use]
    pub fn identity_ttl(self, ttl: Duration) -> Self {
        self.identities().ttl = ttl;
        self
    }

    /// Set the identity-cache capacity (builder style; shared like
    /// [`StateProber::identity_ttl`]): tokens held before an insert
    /// evicts one expired or unreferenced entry. A capacity of zero
    /// keeps nothing, the same as a zero TTL.
    #[must_use]
    pub fn identity_capacity(self, capacity: usize) -> Self {
        self.identities().capacity = capacity;
        self
    }

    /// Attach hit/miss counter handles for the identity cache (builder
    /// style); the monitor wires these to its metrics registry so cache
    /// effectiveness is visible at `/-/metrics`.
    #[must_use]
    pub fn identity_counter_handles(mut self, hit: Arc<AtomicU64>, miss: Arc<AtomicU64>) -> Self {
        self.identity_counters = Some(IdentityCounters { hit, miss });
        self
    }

    fn identities(&self) -> MutexGuard<'_, IdentityCache> {
        self.identity_cache
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// A still-fresh cached identity for `token`, if any, counted as one
    /// cache hit or miss.
    fn cached_identity(&self, token: &str) -> Option<Arc<Identity>> {
        let hit = self.identities().get(token, Instant::now());
        if let Some(counters) = &self.identity_counters {
            let counter = if hit.is_some() {
                &counters.hit
            } else {
                &counters.miss
            };
            counter.fetch_add(1, Ordering::Relaxed);
        }
        hit
    }

    /// Parse and cache an introspection answer that reached the cloud
    /// (a transport fault says nothing about the token).
    fn remember_identity(&self, token: &str, introspection: &RestResponse) -> Arc<Identity> {
        let identity = Arc::new(Identity::parse(introspection));
        self.identities()
            .insert(token, Arc::clone(&identity), Instant::now());
        identity
    }

    /// The identity of one token through the identity cache: a fresh
    /// cached identity is returned without touching the cloud; otherwise
    /// one introspection GET runs and its answer is cached. This is the
    /// *only* round-trip a replica-mode request may need in steady state
    /// — the shadow replica supplies every other binding locally.
    ///
    /// # Errors
    ///
    /// Returns the [`ProbeFault`] when the transport failed to deliver
    /// the introspection (a 404 for an unknown token is a legitimate
    /// *answer*, not a fault).
    pub fn identity(
        &self,
        cloud: &dyn SharedRestService,
        token: &str,
    ) -> Result<UserBinding, ProbeFault> {
        if let Some(identity) = self.cached_identity(token) {
            return Ok(UserBinding {
                identity,
                cached: true,
            });
        }
        self.introspect(cloud, token).map(|identity| UserBinding {
            identity,
            cached: false,
        })
    }

    /// Introspect one token (`GET /identity/tokens/{token}`) past the
    /// cache, and cache the answer.
    ///
    /// # Errors
    ///
    /// As [`StateProber::identity`].
    pub(crate) fn introspect(
        &self,
        cloud: &dyn SharedRestService,
        token: &str,
    ) -> Result<Arc<Identity>, ProbeFault> {
        let path = format!("/identity/tokens/{token}");
        let resp = cloud.call(&RestRequest::new(HttpMethod::Get, path.clone()));
        match ProbeFault::of(&path, &resp) {
            Some(fault) => Err(fault),
            None => Ok(self.remember_identity(token, &resp)),
        }
    }

    /// Probe the cloud and build the evaluation environment as a
    /// [`Snapshot`]: the navigator plus anomalous probe denials
    /// (non-404 failures of the monitor's own GETs, answered by the
    /// cloud — a wrong-authorization signal the monitor reports) plus
    /// transport faults (probes the path to the cloud failed to
    /// deliver, making the snapshot partial).
    pub fn snapshot_checked(
        &self,
        cloud: &dyn SharedRestService,
        target: &ProbeTarget,
    ) -> Snapshot {
        self.snapshot_impl(cloud, target, None).1
    }

    /// Forward `lead` to the cloud and take a post-state snapshot in the
    /// *same* pipelined batch ([`SharedRestService::call_batch`]). The
    /// backend serves a batch in order over one connection, so the
    /// probes observe the state *after* the lead call executed —
    /// semantically the sequential forward-then-snapshot, minus one full
    /// round of backend round-trips. Returns the lead's response plus
    /// the snapshot.
    pub fn snapshot_checked_after(
        &self,
        cloud: &dyn SharedRestService,
        lead: &RestRequest,
        target: &ProbeTarget,
    ) -> (RestResponse, Snapshot) {
        let (resp, snap) = self.snapshot_impl(cloud, target, Some(lead));
        (resp.expect("lead response present"), snap)
    }

    /// Probe the cloud and build the evaluation environment: the
    /// project state as `ProjectState::bind` binds it (`project`,
    /// `volume`, `snapshot`, `quota_sets`), plus `user` — the
    /// requester's *role* as `user.groups` (the paper's Figure 3 guards
    /// use role names as group labels), the full role set as
    /// `user.roles`, and `user.id`.
    pub fn snapshot(&self, cloud: &dyn SharedRestService, target: &ProbeTarget) -> MapNavigator {
        self.snapshot_impl(cloud, target, None).1.nav
    }

    fn snapshot_impl(
        &self,
        cloud: &dyn SharedRestService,
        target: &ProbeTarget,
        lead: Option<&RestRequest>,
    ) -> (Option<RestResponse>, Snapshot) {
        let mut probes = self.assemble(target);
        // A lead request (the monitored call itself) rides at the head
        // of the probe batch: the backend answers a pipelined batch in
        // order, so the probes still observe the post-lead state. The
        // lead is spliced in head position and taken back out of the
        // response vector, so the probe zip in `bind_snapshot` never
        // sees it.
        let mut responses = if let Some(lead) = lead {
            probes.requests.insert(0, lead.clone());
            let responses = cloud.call_batch(&probes.requests);
            probes.requests.remove(0);
            debug_assert!(!responses.is_empty());
            responses
        } else {
            cloud.call_batch(&probes.requests)
        };
        let lead_response = lead.map(|_| responses.remove(0));
        debug_assert_eq!(responses.len(), probes.requests.len());
        (lead_response, self.bind_snapshot(probes, responses, target))
    }

    /// Assemble every probe GET up front so they can be issued as one
    /// batch: a network-backed cloud serves the whole snapshot over a
    /// single pooled keep-alive connection instead of one TCP connect
    /// per probe. Every probe the target's ids allow is planned, even
    /// where two overlap: the project GET cross-checks the identity
    /// registry against the block-storage state (the volumes listing
    /// alone would also signal existence), and the volume item GET
    /// catches a cloud that denies item reads while allowing listings.
    fn assemble(&self, target: &ProbeTarget) -> AssembledProbes {
        let pid = target.project_id;
        let mut kinds: Vec<Probe> = Vec::with_capacity(7);
        let mut requests: Vec<RestRequest> = Vec::with_capacity(7);
        let mut add = |kind: Probe, path: String| {
            kinds.push(kind);
            requests
                .push(RestRequest::new(HttpMethod::Get, path).auth_token(&target.monitor_token));
        };
        add(Probe::Project, format!("{}/{pid}", self.prefix));
        add(Probe::Volumes, format!("{}/{pid}/volumes", self.prefix));
        if let Some(vid) = target.volume_id {
            add(
                Probe::VolumeItem,
                format!("{}/{pid}/volumes/{vid}", self.prefix),
            );
            add(
                Probe::Snapshots,
                format!("{}/{pid}/volumes/{vid}/snapshots", self.prefix),
            );
            if let Some(sid) = target.snapshot_id {
                add(
                    Probe::SnapshotItem,
                    format!("{}/{pid}/volumes/{vid}/snapshots/{sid}", self.prefix),
                );
            }
        }
        add(Probe::Quota, format!("{}/{pid}/quota_sets", self.prefix));
        // The user context rarely changes within a token's lifetime:
        // serve it from the identity cache when fresh and skip the
        // introspection round-trip.
        let cached_user = self.cached_identity(&target.user_token);
        if cached_user.is_none() {
            add(
                Probe::User,
                format!("/identity/tokens/{}", target.user_token),
            );
        }
        AssembledProbes {
            kinds,
            requests,
            cached_user,
        }
    }

    /// Parse one snapshot's probe responses into the project state and
    /// bind it, with the caller's identity, into an evaluation
    /// environment. `responses` must align index-for-index with the
    /// assembled probes.
    fn bind_snapshot(
        &self,
        probes: AssembledProbes,
        responses: Vec<RestResponse>,
        target: &ProbeTarget,
    ) -> Snapshot {
        let mut denials = Vec::new();
        let mut faults = Vec::new();
        let mut state = ProjectState::default();
        let mut complete = true;
        let mut items = Vec::new();
        let mut user = probes.cached_user.map(|identity| UserBinding {
            identity,
            cached: true,
        });
        for ((&kind, request), resp) in probes.kinds.iter().zip(&probes.requests).zip(responses) {
            if let Some(fault) = ProbeFault::of(&request.path, &resp) {
                // A response the transport synthesised (or a gateway
                // status) means this probe never reached the cloud:
                // record the fault and leave its root unbound — a
                // half-bound root would let a contract "observe" state
                // that was never actually read. All probe kinds count,
                // including the denial-exempt ones: a missing user
                // binding is just as much a hole in the environment. A
                // state probe's fault also leaves the state incomplete.
                complete &= kind == Probe::User;
                faults.push(fault);
            } else if kind == Probe::User {
                // Reached the cloud, so the answer is authoritative and
                // cacheable.
                user = Some(UserBinding {
                    identity: self.remember_identity(&target.user_token, &resp),
                    cached: false,
                });
            } else {
                // The monitor probes with its own (admin-authority)
                // token, so any denial other than a plain 404 is
                // anomalous: either the monitor is misconfigured or the
                // cloud wrongly denies authorized reads. Snapshot probes
                // are exempt — a cloud without the snapshots extension
                // 404s there.
                if kind.tracks_errors()
                    && !resp.status.is_success()
                    && resp.status != StatusCode::NOT_FOUND
                {
                    denials.push(format!("probe GET {} -> {}", request.path, resp.status));
                }
                complete &= matches!(resp.status, StatusCode::OK | StatusCode::NOT_FOUND);
                items.extend(state.parse(kind, target, &resp));
            }
        }
        let mut nav = MapNavigator::new();
        state.bind(
            &mut nav,
            target.project_id,
            target.volume_id,
            target.snapshot_id,
        );
        for item in &items {
            item.bind(&mut nav);
        }
        if let Some(user) = &user {
            user.identity.bind(&mut nav);
        }
        Snapshot {
            nav,
            state: complete.then_some(state),
            denials,
            faults,
            user,
        }
    }
}

/// Probe requests assembled for one snapshot, before any of them is
/// issued: the probe kind and request at each batch index, and the
/// identity-cache hit (if any) that stands in for an elided
/// introspection probe.
struct AssembledProbes {
    kinds: Vec<Probe>,
    requests: Vec<RestRequest>,
    cached_user: Option<Arc<Identity>>,
}

/// Interned class names for the cinder context variables: snapshots
/// mint many `ObjRef`s per request, and a shared name makes each one a
/// refcount bump instead of a fresh string allocation. Shared by the
/// project-state and identity bindings.
pub(crate) static PROJECT_CLASS: LazyLock<Arc<str>> = LazyLock::new(|| Arc::from("project"));
pub(crate) static QUOTA_CLASS: LazyLock<Arc<str>> = LazyLock::new(|| Arc::from("quota_sets"));
pub(crate) static VOLUME_CLASS: LazyLock<Arc<str>> = LazyLock::new(|| Arc::from("volume"));
pub(crate) static SNAPSHOT_CLASS: LazyLock<Arc<str>> = LazyLock::new(|| Arc::from("snapshot"));
pub(crate) static USER_CLASS: LazyLock<Arc<str>> = LazyLock::new(|| Arc::from("user"));

/// One probe request kind within a snapshot batch: the six state probes
/// and the token introspection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Probe {
    Project,
    Volumes,
    VolumeItem,
    Snapshots,
    SnapshotItem,
    Quota,
    User,
}

impl Probe {
    /// State probes whose non-404 failures count as anomalous denials.
    fn tracks_errors(self) -> bool {
        !matches!(self, Probe::Snapshots | Probe::SnapshotItem)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cm_cloudsim::PrivateCloud;
    use cm_ocl::{parse, EvalContext};

    fn setup() -> (PrivateCloud, ProbeTarget) {
        let cloud = PrivateCloud::my_project();
        let admin = cloud.issue_token("alice", "alice-pw").unwrap();
        let carol = cloud.issue_token("carol", "carol-pw").unwrap();
        let pid = cloud.project_id();
        (
            cloud,
            ProbeTarget {
                project_id: pid,
                volume_id: None,
                snapshot_id: None,
                user_token: carol.token,
                monitor_token: admin.token,
            },
        )
    }

    #[test]
    fn empty_project_matches_no_volume_invariant() {
        let (cloud, target) = setup();
        let nav = StateProber::default().snapshot(&cloud, &target);
        let inv = parse("project.id->size()=1 and project.volumes->size()=0").unwrap();
        assert!(EvalContext::new(&nav).eval_bool(&inv).unwrap());
    }

    #[test]
    fn volumes_and_quota_are_visible() {
        let (cloud, mut target) = setup();
        let pid = target.project_id;
        let vid = cloud
            .state_mut()
            .create_volume(pid, "v1", 10, false)
            .unwrap()
            .id;
        target.volume_id = Some(vid);
        let nav = StateProber::default().snapshot(&cloud, &target);
        let checks = [
            "project.volumes->size() = 1",
            "project.volumes->size() < quota_sets.volume",
            "volume.status = 'available'",
            "volume.size = 10",
        ];
        for c in checks {
            let e = parse(c).unwrap();
            assert!(
                EvalContext::new(&nav).eval_bool(&e).unwrap(),
                "check failed: {c}"
            );
        }
    }

    #[test]
    fn user_view_reflects_roles() {
        let (cloud, target) = setup();
        let nav = StateProber::default().snapshot(&cloud, &target);
        // carol is role `user`.
        let e = parse("user.groups = 'user'").unwrap();
        assert!(EvalContext::new(&nav).eval_bool(&e).unwrap());
        let e2 = parse("user.roles->includes('user')").unwrap();
        assert!(EvalContext::new(&nav).eval_bool(&e2).unwrap());
        let e3 = parse("user.groups = 'admin'").unwrap();
        assert!(!EvalContext::new(&nav).eval_bool(&e3).unwrap());
    }

    #[test]
    fn missing_volume_attributes_are_undefined() {
        let (cloud, mut target) = setup();
        target.volume_id = Some(999);
        let nav = StateProber::default().snapshot(&cloud, &target);
        let e = parse("volume.status.oclIsUndefined()").unwrap();
        assert!(EvalContext::new(&nav).eval_bool(&e).unwrap());
    }

    #[test]
    fn nonexistent_project_has_empty_id_set() {
        let (cloud, mut target) = setup();
        target.project_id = 999;
        // The admin token is scoped to project 1, so GET /v3/999 is 403 →
        // the project is unobservable → id set empty.
        let nav = StateProber::default().snapshot(&cloud, &target);
        let e = parse("project.id->size() = 0").unwrap();
        assert!(EvalContext::new(&nav).eval_bool(&e).unwrap());
    }

    #[test]
    fn invalid_user_token_yields_attribute_free_user() {
        let (cloud, mut target) = setup();
        target.user_token = "tok-bogus".to_string();
        let nav = StateProber::default().snapshot(&cloud, &target);
        let e = parse("user.groups = 'admin'").unwrap();
        // groups is undefined; equality with a string is false.
        assert!(!EvalContext::new(&nav).eval_bool(&e).unwrap());
    }

    #[test]
    fn transport_faults_are_reported_not_bound() {
        // A "cloud" whose volume listing is answered by the transport
        // layer (marked fault): the snapshot must record the hole and
        // must not bind `project.volumes` to a phantom empty set.
        struct FlakyListing {
            inner: PrivateCloud,
        }
        impl SharedRestService for FlakyListing {
            fn call(&self, request: &RestRequest) -> RestResponse {
                if request.path.ends_with("/volumes") {
                    RestResponse::transport_fault(
                        StatusCode::BAD_GATEWAY,
                        "connection reset by peer",
                    )
                } else {
                    self.inner.call(request)
                }
            }
        }
        let (cloud, target) = setup();
        let flaky = FlakyListing { inner: cloud };
        let snap = StateProber::default().snapshot_checked(&flaky, &target);
        assert!(snap.is_partial());
        assert_eq!(snap.faults.len(), 1);
        let fault = &snap.faults[0];
        assert!(fault.probe.contains("/volumes"), "{fault}");
        assert_eq!(fault.status, 502);
        assert_eq!(fault.reason, "connection reset by peer");
        // The fault is not a denial, and the unreachable binding stays
        // undefined instead of masquerading as an empty listing.
        assert!(snap.denials.is_empty());
        let e = parse("project.volumes.oclIsUndefined()").unwrap();
        assert!(EvalContext::new(&snap.nav).eval_bool(&e).unwrap());
    }

    #[test]
    fn unmarked_gateway_statuses_also_count_as_faults() {
        struct Gateway504 {
            inner: PrivateCloud,
        }
        impl SharedRestService for Gateway504 {
            fn call(&self, request: &RestRequest) -> RestResponse {
                if request.path.contains("quota_sets") {
                    RestResponse::error(StatusCode::GATEWAY_TIMEOUT, "upstream timed out")
                } else {
                    self.inner.call(request)
                }
            }
        }
        let (cloud, target) = setup();
        let snap = StateProber::default().snapshot_checked(&Gateway504 { inner: cloud }, &target);
        assert_eq!(snap.faults.len(), 1);
        assert_eq!(snap.faults[0].status, 504);
        assert!(snap.denials.is_empty());
    }

    #[test]
    fn pre_and_post_snapshots_differ_after_delete() {
        let (cloud, mut target) = setup();
        let pid = target.project_id;
        let vid = cloud
            .state_mut()
            .create_volume(pid, "v1", 10, false)
            .unwrap()
            .id;
        target.volume_id = Some(vid);
        let prober = StateProber::default();
        let pre = prober.snapshot(&cloud, &target);
        cloud.state_mut().delete_volume(pid, vid, false).unwrap();
        let post = prober.snapshot(&cloud, &target);
        let e = parse("project.volumes->size() < pre(project.volumes->size())").unwrap();
        assert!(EvalContext::with_pre_state(&post, &pre)
            .eval_bool(&e)
            .unwrap());
    }
}

#[cfg(test)]
mod count_tests {
    use super::*;
    use cm_cloudsim::PrivateCloud;

    /// A counting wrapper so tests can assert how many probe requests a
    /// snapshot issues. Counts atomically — the prober only sees a shared
    /// reference.
    struct Counting<S> {
        inner: S,
        requests: std::sync::atomic::AtomicUsize,
    }

    impl<S: SharedRestService> SharedRestService for Counting<S> {
        fn call(&self, request: &RestRequest) -> cm_rest::RestResponse {
            self.requests
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            self.inner.call(request)
        }
    }

    fn setup() -> (Counting<PrivateCloud>, ProbeTarget) {
        let cloud = PrivateCloud::my_project();
        let pid = cloud.project_id();
        let admin = cloud.issue_token("alice", "alice-pw").unwrap();
        let vid = cloud
            .state_mut()
            .create_volume(pid, "v", 1, false)
            .unwrap()
            .id;
        let target = ProbeTarget {
            project_id: pid,
            volume_id: Some(vid),
            snapshot_id: None,
            user_token: admin.token.clone(),
            monitor_token: admin.token,
        };
        (
            Counting {
                inner: cloud,
                requests: std::sync::atomic::AtomicUsize::new(0),
            },
            target,
        )
    }

    #[test]
    fn full_snapshot_probes_all_roots() {
        let (cloud, target) = setup();
        let prober = StateProber::default();
        let _ = prober.snapshot(&cloud, &target);
        // project + volumes + volume item + snapshots listing + quota +
        // token introspection.
        assert_eq!(cloud.requests.load(std::sync::atomic::Ordering::Relaxed), 6);
    }
}
