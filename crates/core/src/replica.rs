//! Project state as parsed state, and the shadow replica that holds it.
//!
//! A [`ProjectState`] is one project's observable state — exactly what
//! the contracts read of `project`, `volume`, `snapshot` and
//! `quota_sets` — parsed once from the cloud's answers. Both bindings
//! use it: a probe pass parses its answers into one and binds it, and
//! under [`crate::SnapshotPolicy::Replica`] the monitor keeps one per
//! project as a model-derived **shadow copy**, seeded from one full probe
//! pass and thereafter advanced purely from the request/response pairs
//! flowing through the monitor. Steady-state contract evaluation then
//! binds its environment from the replica with **zero** probe
//! round-trips (the only possible network touch is a token
//! introspection, and that is served by the identity cache). One
//! [`ProjectState::bind`] serves both bindings, so they bind the same
//! environment from the same state by construction.
//!
//! The replica is sound because the monitor serializes every monitored
//! mutation of a project behind that project's shard lock: between two
//! checked requests, the only way the cloud's observable state can
//! change without the replica seeing it is an **out-of-band** mutation —
//! precisely the thing the paper's probing monitor can only ever see
//! implicitly. Anti-entropy reconciliation makes it explicit: a
//! periodic (and on-demand, after any uncertainty) probe pass diffs the
//! replica against the cloud ([`ProjectState::drift`]), repairs the
//! replica, and surfaces every divergence as a
//! [`crate::Verdict::Drift`] detection carrying the mutated attributes
//! and the security requirements whose contracts read them.
//!
//! ## Knowledge model
//!
//! The replica only ever claims what it has observed. Four kinds of
//! uncertainty force a request back onto the probe path (a *miss*):
//! the replica is not yet seeded; it was marked **stale** (a transport
//! fault, an unexpected response shape, or an unmodelled mutation
//! slipped past the state machine); a probe pass answered a state probe
//! with anything but 200 or 404 — a refusal, a fault or another status
//! says nothing certain about the state, so the pass is judged as
//! `Full` would judge it and the replica turns stale instead of
//! absorbing it; or the contract needs the snapshot listing of a volume
//! whose snapshots the replica has never observed. An absent or
//! just-created volume's listing is known empty only once a snapshot
//! listing has answered 200 or 404: `Full` binds a refused listing as
//! empty whatever the volume holds, so a replica tracking snapshots the
//! cloud will not list would judge what `Full` cannot see. A miss is
//! self-healing — the probe pass that serves it re-seeds the replica.
//! Lost updates are the one thing the replica cannot see: it predicts a
//! post-state from the cloud's success answer, so a cloud that answers
//! success without changing state is caught only by `Full`'s post-probes
//! or, later, by anti-entropy's `Drift` record.

use crate::monitor::expected_success_status;
use crate::probe::{Probe, ProbeTarget, PROJECT_CLASS, QUOTA_CLASS, SNAPSHOT_CLASS, VOLUME_CLASS};
use cm_model::HttpMethod;
use cm_ocl::{MapNavigator, ObjRef, Value};
use cm_rest::{Json, RestResponse, StatusCode};
use std::collections::BTreeMap;
use std::sync::Arc;

/// The id a volume or snapshot object carries.
fn object_id(object: &Json) -> Option<u64> {
    object.get("id").and_then(Json::as_int).map(|id| id as u64)
}

/// What the state holds about one volume.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct VolumeRec {
    /// `volume.name`.
    name: Option<String>,
    /// `volume.size`.
    size: Option<i64>,
    /// `volume.status`.
    status: Option<String>,
}

impl VolumeRec {
    /// Parse a volume object — a listing entry, an item answer or a
    /// POST/PUT response body — over this record: each field the object
    /// carries replaces the record's.
    fn parse(&mut self, volume: &Json) {
        if let Some(name) = volume.get("name").and_then(Json::as_str) {
            self.name = Some(name.to_string());
        }
        if let Some(size) = volume.get("size").and_then(Json::as_int) {
            self.size = Some(size);
        }
        if let Some(status) = volume.get("status").and_then(Json::as_str) {
            self.status = Some(status.to_string());
        }
    }

    /// Bind volume `id`: `id` (a one-element set) and each known field.
    fn bind(&self, nav: &mut MapNavigator, id: u64) -> Value {
        let obj = ObjRef::new(Arc::clone(&VOLUME_CLASS), id);
        nav.set_attribute(obj.clone(), "id", Value::set(vec![Value::Int(id as i64)]));
        if let Some(name) = &self.name {
            nav.set_attribute(obj.clone(), "name", name.as_str());
        }
        if let Some(size) = self.size {
            nav.set_attribute(obj.clone(), "size", size);
        }
        if let Some(status) = &self.status {
            nav.set_attribute(obj.clone(), "status", status.as_str());
        }
        Value::Obj(obj)
    }
}

/// What the state holds about one snapshot of a volume.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct SnapRec {
    /// Snapshot id.
    id: u64,
    /// `snapshot.name`.
    name: Option<String>,
    /// `snapshot.status`.
    status: Option<String>,
}

impl SnapRec {
    /// Parse a snapshot object — a listing entry, an item answer or a
    /// POST response body — over this record, as [`VolumeRec::parse`].
    fn parse(&mut self, snapshot: &Json) {
        if let Some(name) = snapshot.get("name").and_then(Json::as_str) {
            self.name = Some(name.to_string());
        }
        if let Some(status) = snapshot.get("status").and_then(Json::as_str) {
            self.status = Some(status.to_string());
        }
    }

    /// Snapshot `id` as `snapshot` describes it.
    fn parsed(id: u64, snapshot: &Json) -> SnapRec {
        let mut rec = SnapRec {
            id,
            ..SnapRec::default()
        };
        rec.parse(snapshot);
        rec
    }

    /// Bind this snapshot: `id` (a one-element set) and each known field.
    fn bind(&self, nav: &mut MapNavigator) -> Value {
        let obj = ObjRef::new(Arc::clone(&SNAPSHOT_CLASS), self.id);
        nav.set_attribute(
            obj.clone(),
            "id",
            Value::set(vec![Value::Int(self.id as i64)]),
        );
        if let Some(name) = &self.name {
            nav.set_attribute(obj.clone(), "name", name.as_str());
        }
        if let Some(status) = &self.status {
            nav.set_attribute(obj.clone(), "status", status.as_str());
        }
        Value::Obj(obj)
    }
}

/// An item probe's answer: the addressed volume or snapshot as its own
/// GET describes it. The state folds it into the listed entry; a probe
/// pass also binds it over the addressed object, where it shows even if
/// the listing omits the object.
#[derive(Debug)]
pub(crate) enum Item {
    Volume(u64, VolumeRec),
    Snapshot(SnapRec),
}

impl Item {
    /// Bind the answer over the addressed object.
    pub(crate) fn bind(&self, nav: &mut MapNavigator) {
        match self {
            Item::Volume(id, rec) => rec.bind(nav, *id),
            Item::Snapshot(rec) => rec.bind(nav),
        };
    }
}

/// One attribute on which the replica and the cloud disagreed during an
/// anti-entropy pass (or, for `user`, a cached and a fresh identity).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct DriftEntry {
    /// Context root the attribute hangs off (`project`, `volume`, …).
    pub(crate) root: String,
    /// The diverged attribute.
    pub(crate) attr: String,
    /// Human-readable replica-vs-cloud detail.
    pub(crate) detail: String,
}

impl std::fmt::Display for DriftEntry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}.{} ({})", self.root, self.attr, self.detail)
    }
}

/// No volumes: what an unobserved listing reads as in a drift report.
static NO_VOLUMES: BTreeMap<u64, VolumeRec> = BTreeMap::new();

/// One project's observable state, parsed once from the cloud's answers.
///
/// A probe pass parses each state probe's answer into one; a root whose
/// probe never reached the cloud stays unobserved (`None`, or no
/// snapshot-listing key) and is left unbound. The replica holds the
/// state of the last probe pass whose every state probe answered 200 or
/// 404, advanced by the transition function.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct ProjectState {
    /// `project.id`: `Some(true)` when `GET {prefix}/{pid}` answered
    /// 200, `Some(false)` for any other answer.
    exists: Option<bool>,
    /// `project.name` from a 200 project answer.
    name: Option<String>,
    /// The volume listing (a non-200 answer lists nothing), with the
    /// volume item answer folded into its entry.
    volumes: Option<BTreeMap<u64, VolumeRec>>,
    /// `quota_sets.volume`, when the quota answer carried one.
    quota: Option<i64>,
    /// Volume id → snapshot listing, with the snapshot item answer folded
    /// in. Key **presence** encodes knowledge: the replica has simply
    /// never observed the listing of a volume absent from this map.
    snapshots: BTreeMap<u64, Vec<SnapRec>>,
    /// A snapshot listing answered 200 or 404 (the cloud authorizes
    /// before it looks the volume up), so the cloud lets the monitor
    /// read listings: one the state never observed — an absent
    /// volume's, a just-created volume's — is known to be empty.
    listings_readable: bool,
}

impl ProjectState {
    /// Parse one state probe's answer, from a probe that reached the
    /// cloud. Any answer but 200 reads as absence (no project, no
    /// volumes, no snapshots). An item answer is folded into its listed
    /// entry and returned, for the probe pass to bind over the addressed
    /// object.
    pub(crate) fn parse(
        &mut self,
        probe: Probe,
        target: &ProbeTarget,
        resp: &RestResponse,
    ) -> Option<Item> {
        let ok = resp.status == StatusCode::OK;
        let body = |key: &str| resp.body.as_ref().and_then(|b| b.get(key)).filter(|_| ok);
        let vid = target.volume_id.unwrap_or(0);
        match probe {
            Probe::Project => {
                self.exists = Some(ok);
                self.name = body("project")
                    .and_then(|p| p.get("name"))
                    .and_then(Json::as_str)
                    .map(str::to_string);
            }
            Probe::Volumes => {
                let mut volumes = BTreeMap::new();
                for volume in body("volumes")
                    .and_then(Json::as_array)
                    .into_iter()
                    .flatten()
                {
                    if let Some(id) = object_id(volume) {
                        volumes
                            .entry(id)
                            .or_insert_with(VolumeRec::default)
                            .parse(volume);
                    }
                }
                self.volumes = Some(volumes);
            }
            Probe::VolumeItem => {
                let volume = body("volume")?;
                if let Some(listed) = self.volumes.as_mut().and_then(|v| v.get_mut(&vid)) {
                    listed.parse(volume);
                }
                let mut item = VolumeRec::default();
                item.parse(volume);
                return Some(Item::Volume(vid, item));
            }
            Probe::Snapshots => {
                self.listings_readable =
                    matches!(resp.status, StatusCode::OK | StatusCode::NOT_FOUND);
                let listing = body("snapshots")
                    .and_then(Json::as_array)
                    .into_iter()
                    .flatten();
                let list = listing
                    .filter_map(|s| Some(SnapRec::parsed(object_id(s)?, s)))
                    .collect();
                self.snapshots.insert(vid, list);
            }
            Probe::SnapshotItem => {
                let snapshot = body("snapshot")?;
                let sid = target.snapshot_id.unwrap_or(0);
                let listed = self.snapshots.get_mut(&vid).into_iter().flatten();
                for listed in listed.filter(|s| s.id == sid) {
                    listed.parse(snapshot);
                }
                return Some(Item::Snapshot(SnapRec::parsed(sid, snapshot)));
            }
            Probe::Quota => {
                self.quota = resp
                    .body
                    .as_ref()
                    .and_then(|b| b.get("quota_set"))
                    .and_then(|q| q.get("volume"))
                    .and_then(Json::as_int);
            }
            Probe::User => unreachable!("the token introspection is not a state probe"),
        }
        None
    }

    fn holds_volume(&self, vid: u64) -> bool {
        self.volumes.as_ref().is_some_and(|v| v.contains_key(&vid))
    }

    /// The snapshot listing of volume `vid`, when known: observed, or
    /// empty because the state holds the volume absent (its listing
    /// 404s) and listings are readable.
    fn snapshots_of(&self, vid: u64) -> Option<&[SnapRec]> {
        match self.snapshots.get(&vid) {
            Some(list) => Some(list),
            None => (self.listings_readable && !self.holds_volume(vid)).then_some(&[]),
        }
    }

    /// Bind the state into `nav` for a request addressing project `pid`,
    /// volume `vid` and snapshot `sid`. The context variables `project`,
    /// `quota_sets`, `volume` and `snapshot` are bound regardless; an
    /// unobserved root stays unbound, so a contract cannot "observe"
    /// state that was never read. Bindings follow the paper's
    /// addressable-resource semantics:
    ///
    /// * `project.id` — `Set{pid}` when `GET {prefix}/{pid}` returned
    ///   200, otherwise the empty set (so `->size() = 1` captures
    ///   existence), plus `project.name`;
    /// * `project.volumes` — refs of the listed volumes (empty when the
    ///   listing failed), each with its `id`, `name`, `size` and
    ///   `status`;
    /// * `volume` — the addressed volume (its attributes stay undefined
    ///   when it does not exist);
    /// * `volume.snapshots` — the addressed volume's snapshot listing
    ///   (probes never list other volumes' snapshots), each snapshot with
    ///   its `id`, `name` and `status`;
    /// * `quota_sets.volume` — the project's volume quota.
    ///
    /// A probe pass binds its item answers over the addressed `volume`
    /// and `snapshot` after this ([`Item::bind`]). The `user` context is
    /// the caller's [`crate::Identity`], bound separately.
    pub(crate) fn bind(
        &self,
        nav: &mut MapNavigator,
        pid: u64,
        vid: Option<u64>,
        sid: Option<u64>,
    ) {
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
        if let Some(exists) = self.exists {
            let id = if exists {
                vec![Value::Int(pid as i64)]
            } else {
                Vec::new()
            };
            nav.set_attribute(project.clone(), "id", Value::set(id));
        }
        if let Some(name) = &self.name {
            nav.set_attribute(project.clone(), "name", name.as_str());
        }
        if let Some(volumes) = &self.volumes {
            let refs = volumes.iter().map(|(&id, rec)| rec.bind(nav, id)).collect();
            nav.set_attribute(project, "volumes", Value::set(refs));
        }
        if let Some(q) = self.quota {
            nav.set_attribute(quota, "volume", q);
        }
        if let Some(vid) = vid {
            if let Some(list) = self.snapshots_of(vid) {
                let refs = list.iter().map(|snap| snap.bind(nav)).collect();
                let volume = ObjRef::new(Arc::clone(&VOLUME_CLASS), vid);
                nav.set_attribute(volume, "snapshots", Value::set(refs));
            }
        }
    }

    /// How a fresh complete pass differs from this (replica) state. Every
    /// divergence is an attribute the cloud mutated **out of band** — no
    /// monitored request changed it, yet it changed. The snapshot
    /// listing of `vid` is compared when both sides know it.
    #[must_use]
    pub(crate) fn drift(&self, fresh: &ProjectState, vid: Option<u64>) -> Vec<DriftEntry> {
        let mut drift = Vec::new();
        let entry = |root: &str, attr: &str, detail: String| DriftEntry {
            root: root.to_string(),
            attr: attr.to_string(),
            detail,
        };
        if self.exists != fresh.exists {
            drift.push(entry(
                "project",
                "id",
                format!(
                    "replica exists={} cloud={}",
                    self.exists == Some(true),
                    fresh.exists == Some(true)
                ),
            ));
        }
        if self.name != fresh.name {
            drift.push(entry(
                "project",
                "name",
                format!("replica {:?} cloud {:?}", self.name, fresh.name),
            ));
        }
        if self.quota != fresh.quota {
            drift.push(entry(
                "quota_sets",
                "volume",
                format!("replica {:?} cloud {:?}", self.quota, fresh.quota),
            ));
        }
        let mine = self.volumes.as_ref().unwrap_or(&NO_VOLUMES);
        let theirs = fresh.volumes.as_ref().unwrap_or(&NO_VOLUMES);
        let replica_ids: Vec<u64> = mine.keys().copied().collect();
        let cloud_ids: Vec<u64> = theirs.keys().copied().collect();
        if replica_ids != cloud_ids {
            drift.push(entry(
                "project",
                "volumes",
                format!("replica ids {replica_ids:?} cloud ids {cloud_ids:?}"),
            ));
        }
        for (id, mine) in mine {
            let Some(theirs) = theirs.get(id) else {
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
            if let (Some(mine), Some(theirs)) =
                (self.snapshots.get(&vid), fresh.snapshots.get(&vid))
            {
                if mine != theirs {
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
        drift
    }
}

/// The shadow replica of one project's observable cloud state: the
/// [`ProjectState`] of the last probe pass whose every state probe
/// answered 200 or 404, advanced by the model-derived transition
/// function.
#[derive(Debug, Clone, Default)]
pub(crate) struct ProjectReplica {
    /// What the replica believes.
    state: ProjectState,
    /// At least one complete probe pass has been absorbed.
    seeded: bool,
    /// The replica may be wrong (uncertainty observed); serve nothing
    /// until the next complete probe pass re-seeds it.
    stale: bool,
    /// Replica-served requests since the last probe pass (anti-entropy
    /// scheduling).
    requests_since_sync: u64,
}

impl ProjectReplica {
    /// What the replica believes.
    pub(crate) fn state(&self) -> &ProjectState {
        &self.state
    }

    /// Can the replica serve pre-states at all?
    pub(crate) fn ready(&self) -> bool {
        self.seeded && !self.stale
    }

    /// Invalidate the replica: something happened whose effect on cloud
    /// state the model cannot predict. The next request probes.
    pub(crate) fn mark_stale(&mut self) {
        self.stale = true;
    }

    /// Does the replica know the snapshot listing for `vid`? A volume
    /// the replica believes absent is trivially known (its listing 404s,
    /// which binds as the empty set).
    pub(crate) fn knows_snapshots(&self, vid: u64) -> bool {
        self.state.snapshots_of(vid).is_some()
    }

    /// Count one replica-served request; returns true when a scheduled
    /// anti-entropy pass is due (`every` = 0 disables scheduling).
    pub(crate) fn note_request(&mut self, every: u64) -> bool {
        self.requests_since_sync += 1;
        every > 0 && self.requests_since_sync >= every
    }

    /// Absorb one probe pass's state: the replica now believes exactly
    /// what the cloud just answered, keeping the known snapshot listings
    /// of volumes still present (a pass lists only the addressed
    /// volume's) and what it knew of listings' readability. Clears
    /// staleness and the anti-entropy clock. `None` — a pass that met a
    /// refusal, a fault or another status — is no evidence: the replica
    /// turns stale instead, stops taking listings as readable, and
    /// `false` is returned.
    pub(crate) fn absorb(&mut self, fresh: Option<ProjectState>) -> bool {
        let Some(mut fresh) = fresh else {
            self.state.listings_readable = false;
            self.mark_stale();
            return false;
        };
        for (vid, list) in std::mem::take(&mut self.state.snapshots) {
            fresh.snapshots.entry(vid).or_insert(list);
        }
        let volumes = fresh.volumes.as_ref().unwrap_or(&NO_VOLUMES);
        fresh.snapshots.retain(|vid, _| volumes.contains_key(vid));
        fresh.listings_readable |= self.state.listings_readable;
        self.state = fresh;
        self.seeded = true;
        self.stale = false;
        self.requests_since_sync = 0;
        true
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
    pub(crate) fn observe_response(
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
        let state = &mut self.state;
        let body = |key: &str| response.body.as_ref().and_then(|b| b.get(key));
        let applied = match (resource, method) {
            (_, HttpMethod::Get) => true,
            // `POST …/volumes` → 201 with the created volume's body.
            ("volume", HttpMethod::Post) => {
                match body("volume").and_then(|v| Some((object_id(v)?, v))) {
                    Some((id, volume)) => {
                        let mut rec = VolumeRec::default();
                        rec.parse(volume);
                        state
                            .volumes
                            .get_or_insert_with(BTreeMap::new)
                            .insert(id, rec);
                        // A volume that did not exist a moment ago has no
                        // snapshots: that knowledge is free where listings
                        // are readable. Otherwise the listing stays
                        // unknown and the next request on it probes.
                        if state.listings_readable {
                            state.snapshots.insert(id, Vec::new());
                        }
                        state.exists = Some(true);
                        true
                    }
                    None => false,
                }
            }
            // `PUT …/volumes/{vid}` → 200 with the updated body. A volume
            // the replica does not believe exists means belief and cloud
            // have already diverged.
            ("volume", HttpMethod::Put) => {
                let listed = vid.and_then(|v| state.volumes.as_mut()?.get_mut(&v));
                match (listed, body("volume")) {
                    (Some(rec), Some(volume)) => {
                        rec.parse(volume);
                        true
                    }
                    _ => false,
                }
            }
            ("volume", HttpMethod::Delete) => vid.is_some_and(|v| {
                if let Some(volumes) = &mut state.volumes {
                    volumes.remove(&v);
                }
                state.snapshots.remove(&v);
                true
            }),
            // `POST …/volumes/{vid}/snapshots` → 201 with the snapshot
            // body. A listing the replica never observed stays unknown
            // with one more element: nothing turned wrong.
            ("snapshot", HttpMethod::Post) => {
                let created =
                    body("snapshot").and_then(|s| Some(SnapRec::parsed(object_id(s)?, s)));
                match (vid.filter(|&v| state.holds_volume(v)), created) {
                    (Some(v), Some(snap)) => {
                        if let Some(list) = state.snapshots.get_mut(&v) {
                            list.push(snap);
                        }
                        true
                    }
                    _ => false,
                }
            }
            ("snapshot", HttpMethod::Delete) => match (vid, sid) {
                (Some(v), Some(s)) => {
                    if let Some(list) = state.snapshots.get_mut(&v) {
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::{ProbeTarget, StateProber};
    use cm_cloudsim::PrivateCloud;
    use cm_ocl::Navigator;

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
        let mut replica = ProjectReplica::default();
        assert!(replica.absorb(snap.state));
        (replica, target)
    }

    /// The replica-built navigator must agree with a fresh probe-built
    /// one on every binding except `user` (bound separately).
    fn assert_nav_parity(replica: &ProjectReplica, cloud: &PrivateCloud, target: &ProbeTarget) {
        let probed = StateProber::default().snapshot_checked(cloud, target);
        let mut built = MapNavigator::new();
        replica.state().bind(
            &mut built,
            target.project_id,
            target.volume_id,
            target.snapshot_id,
        );
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
            let mut r = ProjectReplica::default();
            assert!(r.absorb(snap.state));
            (r, target)
        };
        assert!(replica.knows_snapshots(999));
        assert_nav_parity(&replica, &cloud, &target);
    }

    #[test]
    fn create_update_delete_transitions_track_the_cloud() {
        let cloud = PrivateCloud::my_project();
        // One replica is seeded by a pass that reads no snapshot listing,
        // the other by one that reads an absent volume's (404).
        let (mut blind, _) = seeded(&cloud, None);
        let (mut replica, mut target) = seeded(&cloud, Some(999));
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
        // Without a listing answered, the new volume's listing is unknown:
        // a request on it probes.
        assert!(blind.observe_response("volume", HttpMethod::Post, None, None, &resp));
        assert!(!blind.knows_snapshots(vid));
        assert!(replica.observe_response("volume", HttpMethod::Post, None, None, &resp));
        assert!(replica.knows_snapshots(vid));
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
        let fresh = snap.state.expect("a complete pass");
        assert!(replica.state().drift(&fresh, Some(vid)).is_empty());
        // Out-of-band: flip the volume's status behind the monitor.
        cloud.state_mut().volume_mut(pid, vid).unwrap().status = cm_cloudsim::VolumeStatus::Error;
        let snap = StateProber::default().snapshot_checked(&cloud, &target);
        let fresh = snap.state.expect("a complete pass");
        let drift = replica.state().drift(&fresh, Some(vid));
        assert_eq!(drift.len(), 1, "{drift:?}");
        assert_eq!(drift[0].root, "volume");
        assert_eq!(drift[0].attr, "status");
        assert!(drift[0].detail.contains("error"));
    }

    #[test]
    fn anti_entropy_clock_counts_replica_serves() {
        let mut replica = ProjectReplica::default();
        assert!(replica.absorb(Some(ProjectState::default())));
        assert!(!replica.note_request(0));
        assert!(!replica.note_request(0), "0 disables scheduling");
        assert!(!replica.note_request(4));
        assert!(replica.note_request(4), "4th serve since sync is due");
        assert!(replica.absorb(Some(ProjectState::default())));
        assert!(!replica.note_request(4), "absorb resets the clock");
    }
}
