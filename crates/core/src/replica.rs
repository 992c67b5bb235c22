//! The shadow state replica: snapshot-free monitoring.
//!
//! Under [`crate::SnapshotPolicy::Replica`] the monitor keeps a
//! model-derived **shadow copy** of each project's observable state —
//! exactly the attribute set the [`crate::StateProber`] would bind —
//! seeded from one full probe pass and thereafter advanced purely from
//! the request/response pairs flowing through the monitor. Steady-state
//! contract evaluation then binds its environment from the replica with
//! **zero** probe round-trips (the only possible network touch is a
//! token introspection, and that is served by the identity cache).
//!
//! The replica is sound because the monitor serializes every monitored
//! mutation of a project behind that project's shard lock: between two
//! checked requests, the only way the cloud's observable state can
//! change without the replica seeing it is an **out-of-band** mutation —
//! precisely the thing the paper's probing monitor can only ever see
//! implicitly. Anti-entropy reconciliation makes it explicit: a
//! periodic (and on-demand, after any uncertainty) probe pass diffs the
//! replica against the cloud, repairs the replica, and surfaces every
//! divergence as a [`crate::Verdict::Drift`] detection carrying the
//! mutated attributes and the security requirements whose contracts
//! read them.
//!
//! ## Knowledge model
//!
//! The replica only ever claims what it has observed. Three kinds of
//! uncertainty force a request back onto the probe path (a *miss*):
//! the replica is not yet seeded; it was marked **stale** (a transport
//! fault, an unexpected response shape, or an unmodelled mutation
//! slipped past the state machine); or the contract needs the snapshot
//! listing of a volume whose snapshots the replica has never observed.
//! A miss is self-healing — the probe pass that serves it re-seeds the
//! replica.

use crate::monitor::expected_success_status;
use crate::probe::{PROJECT_CLASS, QUOTA_CLASS, SNAPSHOT_CLASS, VOLUME_CLASS};
use cm_model::HttpMethod;
use cm_ocl::{MapNavigator, Navigator, ObjRef, Value};
use cm_rest::{Json, RestResponse};
use std::collections::BTreeMap;
use std::sync::Arc;

/// What the replica believes about one volume.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VolumeRec {
    /// `volume.name`, when the listing carried one.
    pub name: Option<String>,
    /// `volume.size`.
    pub size: Option<i64>,
    /// `volume.status`.
    pub status: Option<String>,
}

/// What the replica believes about one snapshot of a volume.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SnapRec {
    /// Snapshot id.
    pub id: u64,
    /// `snapshot.name`.
    pub name: Option<String>,
    /// `snapshot.status`.
    pub status: Option<String>,
}

/// One attribute on which the replica and the cloud disagreed during an
/// anti-entropy pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DriftEntry {
    /// Context root the attribute hangs off (`project`, `volume`, …).
    pub root: String,
    /// The diverged attribute.
    pub attr: String,
    /// Human-readable replica-vs-cloud detail.
    pub detail: String,
}

impl std::fmt::Display for DriftEntry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}.{} ({})", self.root, self.attr, self.detail)
    }
}

/// The shadow replica of one project's observable cloud state.
///
/// Field-for-field this mirrors what a full-granularity probe pass
/// binds: project existence and name, the detailed volume listing, the
/// volume quota, and — per volume actually observed — the snapshot
/// listing. [`ProjectReplica::build_nav`] reproduces the prober's
/// binding semantics exactly, which is what makes replica and probe
/// verdicts coincide.
#[derive(Debug, Clone, Default)]
pub struct ProjectReplica {
    /// At least one full probe pass has been absorbed.
    seeded: bool,
    /// The replica may be wrong (uncertainty observed); serve nothing
    /// until the next probe pass re-seeds it.
    stale: bool,
    /// `GET {prefix}/{pid}` answered 200 on the last observation.
    project_exists: bool,
    /// `project.name` from the project body.
    project_name: Option<String>,
    /// Volume id → believed attributes (the detailed listing).
    volumes: BTreeMap<u64, VolumeRec>,
    /// Volume id → believed snapshot listing. Key **presence** encodes
    /// knowledge: a volume absent from this map has simply never had
    /// its snapshots observed.
    snapshots: BTreeMap<u64, Vec<SnapRec>>,
    /// `quota_sets.volume`, when the quota body carried one.
    quota: Option<i64>,
    /// Replica-served requests since the last probe pass (anti-entropy
    /// scheduling).
    requests_since_sync: u64,
}

impl ProjectReplica {
    /// A fresh, unseeded replica.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Can the replica serve pre-states at all?
    #[must_use]
    pub fn ready(&self) -> bool {
        self.seeded && !self.stale
    }

    /// Invalidate the replica: something happened whose effect on cloud
    /// state the model cannot predict. The next request probes.
    pub fn mark_stale(&mut self) {
        self.stale = true;
    }

    /// Does the replica know the snapshot listing for `vid`? A volume
    /// the replica believes absent is trivially known (its listing
    /// 404s, which the prober binds as the empty set).
    #[must_use]
    pub fn knows_snapshots(&self, vid: u64) -> bool {
        !self.volumes.contains_key(&vid) || self.snapshots.contains_key(&vid)
    }

    /// Count one replica-served request; returns true when a scheduled
    /// anti-entropy pass is due (`every` = 0 disables scheduling).
    pub fn note_request(&mut self, every: u64) -> bool {
        self.requests_since_sync += 1;
        every > 0 && self.requests_since_sync >= every
    }

    /// Absorb one full-granularity probe snapshot: the replica now
    /// believes exactly what the cloud just answered. Clears staleness
    /// and the anti-entropy clock.
    pub fn absorb(&mut self, pid: u64, vid: Option<u64>, nav: &MapNavigator) {
        let project = ObjRef::new(Arc::clone(&PROJECT_CLASS), pid);
        let quota = ObjRef::new(Arc::clone(&QUOTA_CLASS), pid);
        self.project_exists = nav
            .attribute(&project, "id")
            .and_then(|v| v.as_collection().map(|c| !c.is_empty()))
            .unwrap_or(false);
        self.project_name = nav
            .attribute(&project, "name")
            .and_then(|v| v.as_str().map(str::to_string));
        self.quota = nav.attribute(&quota, "volume").and_then(|v| v.as_int());
        let mut volumes = BTreeMap::new();
        if let Some(Value::Coll(_, refs)) = nav.attribute(&project, "volumes") {
            for vref in refs {
                let Value::Obj(obj) = vref else { continue };
                volumes.insert(
                    obj.id,
                    VolumeRec {
                        name: nav
                            .attribute(&obj, "name")
                            .and_then(|v| v.as_str().map(str::to_string)),
                        size: nav.attribute(&obj, "size").and_then(|v| v.as_int()),
                        status: nav
                            .attribute(&obj, "status")
                            .and_then(|v| v.as_str().map(str::to_string)),
                    },
                );
            }
        }
        self.volumes = volumes;
        // Snapshot listings are only probed for the addressed volume;
        // knowledge about other volumes' snapshots survives as long as
        // those volumes do.
        self.snapshots
            .retain(|vid, _| self.volumes.contains_key(vid));
        if let Some(vid) = vid {
            let volume = ObjRef::new(Arc::clone(&VOLUME_CLASS), vid);
            if let Some(Value::Coll(_, refs)) = nav.attribute(&volume, "snapshots") {
                let list = refs
                    .into_iter()
                    .filter_map(|r| match r {
                        Value::Obj(obj) => Some(SnapRec {
                            id: obj.id,
                            name: nav
                                .attribute(&obj, "name")
                                .and_then(|v| v.as_str().map(str::to_string)),
                            status: nav
                                .attribute(&obj, "status")
                                .and_then(|v| v.as_str().map(str::to_string)),
                        }),
                        _ => None,
                    })
                    .collect();
                if self.volumes.contains_key(&vid) {
                    self.snapshots.insert(vid, list);
                }
            }
        }
        self.seeded = true;
        self.stale = false;
        self.requests_since_sync = 0;
    }

    /// Diff the replica's belief against a fresh full probe snapshot.
    /// Every divergence is an attribute the cloud mutated **out of
    /// band** — no monitored request changed it, yet it changed. Only
    /// meaningful when the replica is [`ProjectReplica::ready`].
    #[must_use]
    pub fn diff(&self, pid: u64, vid: Option<u64>, nav: &MapNavigator) -> Vec<DriftEntry> {
        let mut drift = Vec::new();
        let project = ObjRef::new(Arc::clone(&PROJECT_CLASS), pid);
        let quota = ObjRef::new(Arc::clone(&QUOTA_CLASS), pid);
        let entry = |root: &str, attr: &str, detail: String| DriftEntry {
            root: root.to_string(),
            attr: attr.to_string(),
            detail,
        };
        let cloud_exists = nav
            .attribute(&project, "id")
            .and_then(|v| v.as_collection().map(|c| !c.is_empty()))
            .unwrap_or(false);
        if cloud_exists != self.project_exists {
            drift.push(entry(
                "project",
                "id",
                format!(
                    "replica exists={} cloud={cloud_exists}",
                    self.project_exists
                ),
            ));
        }
        let cloud_name = nav
            .attribute(&project, "name")
            .and_then(|v| v.as_str().map(str::to_string));
        if cloud_name != self.project_name {
            drift.push(entry(
                "project",
                "name",
                format!("replica {:?} cloud {cloud_name:?}", self.project_name),
            ));
        }
        let cloud_quota = nav.attribute(&quota, "volume").and_then(|v| v.as_int());
        if cloud_quota != self.quota {
            drift.push(entry(
                "quota_sets",
                "volume",
                format!("replica {:?} cloud {cloud_quota:?}", self.quota),
            ));
        }
        let mut cloud_volumes: BTreeMap<u64, VolumeRec> = BTreeMap::new();
        if let Some(Value::Coll(_, refs)) = nav.attribute(&project, "volumes") {
            for vref in refs {
                let Value::Obj(obj) = vref else { continue };
                cloud_volumes.insert(
                    obj.id,
                    VolumeRec {
                        name: nav
                            .attribute(&obj, "name")
                            .and_then(|v| v.as_str().map(str::to_string)),
                        size: nav.attribute(&obj, "size").and_then(|v| v.as_int()),
                        status: nav
                            .attribute(&obj, "status")
                            .and_then(|v| v.as_str().map(str::to_string)),
                    },
                );
            }
        }
        let replica_ids: Vec<u64> = self.volumes.keys().copied().collect();
        let cloud_ids: Vec<u64> = cloud_volumes.keys().copied().collect();
        if replica_ids != cloud_ids {
            drift.push(entry(
                "project",
                "volumes",
                format!("replica ids {replica_ids:?} cloud ids {cloud_ids:?}"),
            ));
        }
        for (id, mine) in &self.volumes {
            let Some(theirs) = cloud_volumes.get(id) else {
                continue;
            };
            for (attr, differs, detail) in [
                (
                    "name",
                    mine.name != theirs.name,
                    format!(
                        "volume {id}: replica {:?} cloud {:?}",
                        mine.name, theirs.name
                    ),
                ),
                (
                    "size",
                    mine.size != theirs.size,
                    format!(
                        "volume {id}: replica {:?} cloud {:?}",
                        mine.size, theirs.size
                    ),
                ),
                (
                    "status",
                    mine.status != theirs.status,
                    format!(
                        "volume {id}: replica {:?} cloud {:?}",
                        mine.status, theirs.status
                    ),
                ),
            ] {
                if differs {
                    drift.push(entry("volume", attr, detail));
                }
            }
        }
        if let Some(vid) = vid {
            if let Some(mine) = self.snapshots.get(&vid) {
                let volume = ObjRef::new(Arc::clone(&VOLUME_CLASS), vid);
                if let Some(Value::Coll(_, refs)) = nav.attribute(&volume, "snapshots") {
                    let theirs: Vec<SnapRec> = refs
                        .into_iter()
                        .filter_map(|r| match r {
                            Value::Obj(obj) => Some(SnapRec {
                                id: obj.id,
                                name: nav
                                    .attribute(&obj, "name")
                                    .and_then(|v| v.as_str().map(str::to_string)),
                                status: nav
                                    .attribute(&obj, "status")
                                    .and_then(|v| v.as_str().map(str::to_string)),
                            }),
                            _ => None,
                        })
                        .collect();
                    if mine != &theirs {
                        drift.push(entry(
                            "volume",
                            "snapshots",
                            format!(
                                "volume {vid}: replica {:?} cloud {:?}",
                                mine.iter().map(|s| s.id).collect::<Vec<_>>(),
                                theirs.iter().map(|s| s.id).collect::<Vec<_>>()
                            ),
                        ));
                    }
                }
            }
        }
        drift
    }

    /// Materialise the evaluation environment from the replica,
    /// reproducing the prober's full-granularity binding semantics
    /// exactly (minus the `user` context, which the caller binds from
    /// the cached token introspection):
    ///
    /// * `project.id` — `Set{pid}` iff the project exists, else `Set{}`;
    /// * `project.volumes` — refs of every believed volume, each with
    ///   its `id`/`name`/`size`/`status`;
    /// * the addressed `volume` variable bound regardless (attributes
    ///   only when the volume is believed to exist);
    /// * `volume.snapshots` — only for the *addressed* volume (probes
    ///   never list other volumes' snapshots), with each snapshot's
    ///   attributes;
    /// * `quota_sets.volume` when known.
    #[must_use]
    pub fn build_nav(&self, pid: u64, vid: Option<u64>, sid: Option<u64>) -> MapNavigator {
        let mut nav = MapNavigator::new();
        let project = ObjRef::new(Arc::clone(&PROJECT_CLASS), pid);
        let quota = ObjRef::new(Arc::clone(&QUOTA_CLASS), pid);
        nav.set_variable("project", project.clone());
        nav.set_variable("quota_sets", quota.clone());
        nav.set_variable(
            "volume",
            ObjRef::new(Arc::clone(&VOLUME_CLASS), vid.unwrap_or(0)),
        );
        nav.set_variable(
            "snapshot",
            ObjRef::new(Arc::clone(&SNAPSHOT_CLASS), sid.unwrap_or(0)),
        );
        let id = if self.project_exists {
            Value::set(vec![Value::Int(pid as i64)])
        } else {
            Value::set(vec![])
        };
        nav.set_attribute(project.clone(), "id", id);
        if let Some(name) = &self.project_name {
            nav.set_attribute(project.clone(), "name", name.as_str());
        }
        let mut volume_refs = Vec::new();
        for (id, rec) in &self.volumes {
            let obj = ObjRef::new(Arc::clone(&VOLUME_CLASS), *id);
            nav.set_attribute(obj.clone(), "id", Value::set(vec![Value::Int(*id as i64)]));
            if let Some(name) = &rec.name {
                nav.set_attribute(obj.clone(), "name", name.as_str());
            }
            if let Some(size) = rec.size {
                nav.set_attribute(obj.clone(), "size", size);
            }
            if let Some(status) = &rec.status {
                nav.set_attribute(obj.clone(), "status", status.as_str());
            }
            volume_refs.push(Value::Obj(obj));
        }
        nav.set_attribute(project, "volumes", Value::set(volume_refs));
        if let Some(q) = self.quota {
            nav.set_attribute(quota, "volume", q);
        }
        if let Some(vid) = vid {
            let volume = ObjRef::new(Arc::clone(&VOLUME_CLASS), vid);
            let mut snapshot_refs = Vec::new();
            for snap in self.snapshots.get(&vid).map(Vec::as_slice).unwrap_or(&[]) {
                let obj = ObjRef::new(Arc::clone(&SNAPSHOT_CLASS), snap.id);
                nav.set_attribute(
                    obj.clone(),
                    "id",
                    Value::set(vec![Value::Int(snap.id as i64)]),
                );
                if let Some(name) = &snap.name {
                    nav.set_attribute(obj.clone(), "name", name.as_str());
                }
                if let Some(status) = &snap.status {
                    nav.set_attribute(obj.clone(), "status", status.as_str());
                }
                snapshot_refs.push(Value::Obj(obj));
            }
            nav.set_attribute(volume, "snapshots", Value::set(snapshot_refs));
        }
        nav
    }

    /// Advance the replica's state machine from one observed
    /// request/response pair — the model-derived transition function.
    /// Returns `false` (and marks the replica stale) when the response
    /// does not fit any modelled transition: an unexpected success
    /// shape, a gateway status, or an unparseable body all mean the
    /// cloud's state can no longer be predicted.
    ///
    /// Denials (4xx) are no-ops: the uniform interface specifies they
    /// leave state unchanged. Transitions are applied for **every**
    /// successful response, whether or not the monitor's pre-verdict
    /// approved the request — a wrongly-accepted mutation still changed
    /// the cloud, and the replica tracks the cloud, not the contract.
    pub fn observe_response(
        &mut self,
        resource: &str,
        method: HttpMethod,
        vid: Option<u64>,
        sid: Option<u64>,
        response: &RestResponse,
    ) -> bool {
        if response.status.is_gateway_error() {
            self.mark_stale();
            return false;
        }
        if !response.status.is_success() {
            return true;
        }
        if response.status != expected_success_status(method) {
            self.mark_stale();
            return false;
        }
        let applied = match (resource, method) {
            (_, HttpMethod::Get) => true,
            ("volume", HttpMethod::Post) => self.apply_volume_create(response),
            ("volume", HttpMethod::Put) => {
                vid.is_some_and(|v| self.apply_volume_update(v, response))
            }
            ("volume", HttpMethod::Delete) => vid.is_some_and(|v| {
                self.volumes.remove(&v);
                self.snapshots.remove(&v);
                true
            }),
            ("snapshot", HttpMethod::Post) => {
                vid.is_some_and(|v| self.apply_snapshot_create(v, response))
            }
            ("snapshot", HttpMethod::Delete) => match (vid, sid) {
                (Some(v), Some(s)) => {
                    if let Some(list) = self.snapshots.get_mut(&v) {
                        list.retain(|snap| snap.id != s);
                    }
                    true
                }
                _ => false,
            },
            // A successful mutation of a resource the transition
            // function does not model: no prediction possible.
            _ => false,
        };
        if !applied {
            self.mark_stale();
        }
        applied
    }

    /// `POST …/volumes` → 201 with the created volume's body.
    fn apply_volume_create(&mut self, response: &RestResponse) -> bool {
        let Some(v) = response.body.as_ref().and_then(|b| b.get("volume")) else {
            return false;
        };
        let Some(id) = v.get("id").and_then(Json::as_int) else {
            return false;
        };
        self.volumes.insert(
            id as u64,
            VolumeRec {
                name: v.get("name").and_then(Json::as_str).map(str::to_string),
                size: v.get("size").and_then(Json::as_int),
                status: v.get("status").and_then(Json::as_str).map(str::to_string),
            },
        );
        // A volume that did not exist a moment ago has no snapshots:
        // that knowledge is free.
        self.snapshots.insert(id as u64, Vec::new());
        self.project_exists = true;
        true
    }

    /// `PUT …/volumes/{vid}` → 200 with the updated body.
    fn apply_volume_update(&mut self, vid: u64, response: &RestResponse) -> bool {
        let Some(rec) = self.volumes.get_mut(&vid) else {
            // The cloud updated a volume the replica does not believe
            // exists — belief and cloud have already diverged.
            return false;
        };
        let Some(v) = response.body.as_ref().and_then(|b| b.get("volume")) else {
            return false;
        };
        if let Some(name) = v.get("name").and_then(Json::as_str) {
            rec.name = Some(name.to_string());
        }
        if let Some(size) = v.get("size").and_then(Json::as_int) {
            rec.size = Some(size);
        }
        if let Some(status) = v.get("status").and_then(Json::as_str) {
            rec.status = Some(status.to_string());
        }
        true
    }

    /// `POST …/volumes/{vid}/snapshots` → 201 with the snapshot body.
    fn apply_snapshot_create(&mut self, vid: u64, response: &RestResponse) -> bool {
        if !self.volumes.contains_key(&vid) {
            return false;
        }
        let Some(snap) = response.body.as_ref().and_then(|b| b.get("snapshot")) else {
            return false;
        };
        let Some(id) = snap.get("id").and_then(Json::as_int) else {
            return false;
        };
        let rec = SnapRec {
            id: id as u64,
            name: snap.get("name").and_then(Json::as_str).map(str::to_string),
            status: snap
                .get("status")
                .and_then(Json::as_str)
                .map(str::to_string),
        };
        match self.snapshots.get_mut(&vid) {
            Some(list) => {
                list.push(rec);
                true
            }
            // The volume's snapshot listing was never observed: adding
            // one element to an unknown set keeps it unknown, which is
            // fine — the listing stays unknown, nothing turned wrong.
            None => true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::{ProbeTarget, StateProber};
    use cm_cloudsim::PrivateCloud;
    use cm_rest::StatusCode;

    fn seeded(cloud: &PrivateCloud, vid: Option<u64>) -> (ProjectReplica, ProbeTarget) {
        let admin = cloud.issue_token("alice", "alice-pw").unwrap();
        let carol = cloud.issue_token("carol", "carol-pw").unwrap();
        let target = ProbeTarget {
            project_id: cloud.project_id(),
            volume_id: vid,
            snapshot_id: None,
            user_token: carol.token,
            monitor_token: admin.token,
        };
        let snap = StateProber::default().snapshot_checked(cloud, &target);
        assert!(!snap.is_partial());
        let mut replica = ProjectReplica::new();
        replica.absorb(target.project_id, vid, &snap.nav);
        (replica, target)
    }

    /// The replica-built navigator must agree with a fresh probe-built
    /// one on every binding except `user` (bound separately).
    fn assert_nav_parity(replica: &ProjectReplica, cloud: &PrivateCloud, target: &ProbeTarget) {
        let probed = StateProber::default().snapshot_checked(cloud, target);
        let mut built = replica.build_nav(target.project_id, target.volume_id, target.snapshot_id);
        // Graft the probe's user bindings onto the replica nav so the
        // comparison covers only replica-owned bindings.
        if let Some(user) = probed.nav.variable("user") {
            built.set_variable("user", user.clone());
            if let Value::Obj(user) = user {
                for attr in ["id", "name", "groups", "roles"] {
                    if let Some(v) = probed.nav.attribute(&user, attr) {
                        built.set_attribute(user.clone(), attr, v);
                    }
                }
            }
        }
        assert_eq!(built, probed.nav, "replica nav diverged from probe nav");
    }

    #[test]
    fn absorb_then_build_matches_probe_nav() {
        let cloud = PrivateCloud::my_project();
        let pid = cloud.project_id();
        let vid = cloud
            .state_mut()
            .create_volume(pid, "v1", 10, false)
            .unwrap()
            .id;
        let (replica, target) = seeded(&cloud, Some(vid));
        assert!(replica.ready());
        assert_nav_parity(&replica, &cloud, &target);
    }

    #[test]
    fn empty_project_parity_and_missing_volume() {
        let cloud = PrivateCloud::my_project();
        let (replica, mut target) = seeded(&cloud, None);
        assert_nav_parity(&replica, &cloud, &target);
        // A volume id the cloud never allocated: both sides bind the
        // variable but no attributes, and snapshots are the empty set.
        target.volume_id = Some(999);
        let (replica, target) = {
            let snap = StateProber::default().snapshot_checked(&cloud, &target);
            let mut r = ProjectReplica::new();
            r.absorb(target.project_id, target.volume_id, &snap.nav);
            (r, target)
        };
        assert!(replica.knows_snapshots(999));
        assert_nav_parity(&replica, &cloud, &target);
    }

    #[test]
    fn create_update_delete_transitions_track_the_cloud() {
        let cloud = PrivateCloud::my_project();
        let (mut replica, mut target) = seeded(&cloud, None);
        // Create through the "observed traffic" path: mutate the cloud
        // and hand the replica the response the monitor would see.
        let pid = target.project_id;
        let (vid, status) = {
            let mut state = cloud.state_mut();
            let vol = state.create_volume(pid, "obs", 7, false).unwrap();
            (vol.id, vol.status)
        };
        let body = Json::object(vec![(
            "volume",
            Json::object(vec![
                ("id", Json::Int(vid as i64)),
                ("name", Json::Str("obs".into())),
                ("size", Json::Int(7)),
                ("status", Json::Str(status.as_str().into())),
            ]),
        )]);
        let resp = RestResponse::created(body);
        assert!(replica.observe_response("volume", HttpMethod::Post, None, None, &resp));
        target.volume_id = Some(vid);
        assert_nav_parity(&replica, &cloud, &target);

        // Delete: cloud first, then the observed 204.
        cloud.state_mut().delete_volume(pid, vid, false).unwrap();
        let resp = RestResponse::no_content();
        assert!(replica.observe_response("volume", HttpMethod::Delete, Some(vid), None, &resp));
        assert_nav_parity(&replica, &cloud, &target);
    }

    #[test]
    fn unexpected_shapes_mark_stale_never_wrong() {
        let cloud = PrivateCloud::my_project();
        let (mut replica, _) = seeded(&cloud, None);
        // Gateway status: could have executed, could not have — stale.
        let gw = RestResponse::error(StatusCode::BAD_GATEWAY, "weather");
        assert!(!replica.observe_response("volume", HttpMethod::Post, None, None, &gw));
        assert!(!replica.ready());
        // 4xx denial on a ready replica: state unchanged, still ready.
        let (mut replica, _) = seeded(&cloud, None);
        let denied = RestResponse::error(StatusCode::FORBIDDEN, "no");
        assert!(replica.observe_response("volume", HttpMethod::Post, None, None, &denied));
        assert!(replica.ready());
        // Wrong success status (200 for a POST): unpredictable — stale.
        let odd = RestResponse::ok(Json::object(Vec::<(&str, Json)>::new()));
        assert!(!replica.observe_response("volume", HttpMethod::Post, None, None, &odd));
        assert!(!replica.ready());
    }

    #[test]
    fn diff_pinpoints_out_of_band_mutation() {
        let cloud = PrivateCloud::my_project();
        let pid = cloud.project_id();
        let vid = cloud
            .state_mut()
            .create_volume(pid, "v1", 10, false)
            .unwrap()
            .id;
        let (replica, target) = seeded(&cloud, Some(vid));
        // Clean diff first.
        let snap = StateProber::default().snapshot_checked(&cloud, &target);
        assert!(replica.diff(pid, Some(vid), &snap.nav).is_empty());
        // Out-of-band: flip the volume's status behind the monitor.
        cloud.state_mut().volume_mut(pid, vid).unwrap().status = cm_cloudsim::VolumeStatus::Error;
        let snap = StateProber::default().snapshot_checked(&cloud, &target);
        let drift = replica.diff(pid, Some(vid), &snap.nav);
        assert_eq!(drift.len(), 1, "{drift:?}");
        assert_eq!(drift[0].root, "volume");
        assert_eq!(drift[0].attr, "status");
        assert!(drift[0].detail.contains("error"));
    }

    #[test]
    fn anti_entropy_clock_counts_replica_serves() {
        let mut replica = ProjectReplica::new();
        replica.absorb(1, None, &MapNavigator::new());
        assert!(!replica.note_request(0));
        assert!(!replica.note_request(0), "0 disables scheduling");
        assert!(!replica.note_request(4));
        assert!(replica.note_request(4), "4th serve since sync is due");
        replica.absorb(1, None, &MapNavigator::new());
        assert!(!replica.note_request(4), "absorb resets the clock");
    }
}
