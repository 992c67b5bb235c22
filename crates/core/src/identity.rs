//! Who the caller is, as the guards read it.
//!
//! The paper's Figure 2 binds the guard inputs (`user.groups`,
//! `user.roles`) for every request. They come from the cloud's token
//! introspection (`GET /identity/tokens/{token}`), parsed once into an
//! [`Identity`] that holds exactly what the `user` binding reads, and
//! served by the prober's identity cache: a bounded cache with a TTL and
//! CLOCK (second-chance) eviction. A full cache evicts one expired or
//! unreferenced slot per insert, so a working set larger than the
//! capacity still hits for the share of it the cache holds.
//!
//! A cached identity may be up to the TTL old. The monitor therefore
//! lets no violation rest on one: a wrong denial or wrong acceptance
//! judged on a cached identity is judged again on a fresh introspection,
//! and an identity that changed is reported as a
//! [`crate::Verdict::Drift`] naming the principal and the `user`
//! attributes that changed.

use crate::probe::USER_CLASS;
use crate::replica::DriftEntry;
use cm_ocl::{MapNavigator, ObjRef, Value};
use cm_rest::{Json, RestResponse};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The `user` context of one token: the principal's id, name and roles,
/// parsed once from its introspection answer. A token the cloud does not
/// know (its introspection 404s) has no principal.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct Identity {
    principal: Option<Principal>,
}

#[derive(Debug, PartialEq, Eq)]
struct Principal {
    id: i64,
    name: Option<String>,
    roles: Vec<String>,
}

impl fmt::Display for Principal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.name {
            Some(name) => write!(f, "{name} (user {})", self.id),
            None => write!(f, "user {}", self.id),
        }
    }
}

/// An identity as one snapshot bound it.
#[derive(Debug)]
pub struct UserBinding {
    /// The identity bound to `user`.
    pub identity: Arc<Identity>,
    /// The identity cache served it, so it may be up to the TTL old.
    pub cached: bool,
}

impl Identity {
    /// Parse an introspection answer. An answer without a `token` object
    /// (the 404 for an unknown token) is nobody's identity.
    #[must_use]
    pub(crate) fn parse(introspection: &RestResponse) -> Identity {
        let principal = introspection
            .body
            .as_ref()
            .and_then(|b| b.get("token"))
            .map(|token| Principal {
                id: token.get("user_id").and_then(Json::as_int).unwrap_or(0),
                name: token.get("user").and_then(Json::as_str).map(str::to_string),
                roles: token
                    .get("roles")
                    .and_then(Json::as_array)
                    .map(|roles| {
                        roles
                            .iter()
                            .filter_map(Json::as_str)
                            .map(str::to_string)
                            .collect()
                    })
                    .unwrap_or_default(),
            });
        Identity { principal }
    }

    fn user(&self) -> ObjRef {
        let id = self.principal.as_ref().map_or(0, |p| p.id as u64);
        ObjRef::new(Arc::clone(&USER_CLASS), id)
    }

    /// Bind the `user` context: `user.id` (a one-element set),
    /// `user.name`, `user.groups` and `user.roles`. The Figure 3 guards
    /// compare `user.groups` against a role name, so it holds the primary
    /// role; `user.roles` holds them all. Nobody's identity binds an
    /// attribute-free `user`, so guards evaluate to false rather than
    /// erroring on an unknown variable.
    pub(crate) fn bind(&self, nav: &mut MapNavigator) {
        let user = self.user();
        nav.set_variable("user", user.clone());
        let Some(principal) = &self.principal else {
            return;
        };
        nav.set_attribute(
            user.clone(),
            "id",
            Value::set(vec![Value::Int(principal.id)]),
        );
        if let Some(name) = &principal.name {
            nav.set_attribute(user.clone(), "name", name.as_str());
        }
        if let Some(primary) = principal.roles.first() {
            nav.set_attribute(user.clone(), "groups", primary.as_str());
        }
        let roles = principal.roles.iter().cloned().map(Value::Str).collect();
        nav.set_attribute(user, "roles", Value::set(roles));
    }

    /// Replace the `user` binding `stale` left in `nav` with this one.
    pub(crate) fn rebind(&self, nav: &mut MapNavigator, stale: &Identity) {
        nav.clear_object(&stale.user());
        self.bind(nav);
    }

    /// The bound `user` attributes, rendered for drift reports.
    fn attributes(&self) -> [(&'static str, String); 4] {
        let principal = self.principal.as_ref();
        let none = || "none".to_string();
        [
            ("id", principal.map_or_else(none, |p| p.id.to_string())),
            (
                "name",
                principal.and_then(|p| p.name.clone()).unwrap_or_else(none),
            ),
            (
                "groups",
                principal
                    .and_then(|p| p.roles.first().cloned())
                    .unwrap_or_else(none),
            ),
            (
                "roles",
                format!(
                    "[{}]",
                    principal.map_or(String::new(), |p| p.roles.join(", "))
                ),
            ),
        ]
    }

    /// How `fresh` differs from this (cached) identity: one entry per
    /// `user` attribute whose bound value changed, naming the principal.
    #[must_use]
    pub(crate) fn drift(&self, fresh: &Identity) -> Vec<DriftEntry> {
        let who = fresh
            .principal
            .as_ref()
            .or(self.principal.as_ref())
            .map_or_else(|| "unknown token".to_string(), ToString::to_string);
        self.attributes()
            .into_iter()
            .zip(fresh.attributes())
            .filter(|((_, cached), (_, now))| cached != now)
            .map(|((attr, cached), (_, now))| DriftEntry {
                root: "user".to_string(),
                attr: attr.to_string(),
                detail: format!("{who}: cached {cached}, introspected {now}"),
            })
            .collect()
    }
}

/// A bounded token → [`Identity`] cache with a TTL and CLOCK eviction.
///
/// Each slot keeps its token, its insert time and a referenced bit that a
/// hit sets. The slot table grows as tokens arrive, up to the capacity;
/// after that an insert sweeps the hand over the slots, clearing
/// referenced bits, and reuses the first slot that is expired or
/// unreferenced.
#[derive(Debug)]
pub(crate) struct IdentityCache {
    /// How long an entry serves lookups; zero disables the cache.
    pub(crate) ttl: Duration,
    /// Slots held before an insert evicts; zero disables the cache.
    pub(crate) capacity: usize,
    /// token → slot index.
    index: HashMap<Arc<str>, usize>,
    slots: Vec<Slot>,
    /// The next slot an eviction considers.
    hand: usize,
}

#[derive(Debug)]
struct Slot {
    token: Arc<str>,
    at: Instant,
    referenced: bool,
    identity: Arc<Identity>,
}

impl IdentityCache {
    pub(crate) fn new(capacity: usize, ttl: Duration) -> Self {
        IdentityCache {
            ttl,
            capacity,
            index: HashMap::new(),
            slots: Vec::new(),
            hand: 0,
        }
    }

    fn expired(&self, slot: &Slot, now: Instant) -> bool {
        now.saturating_duration_since(slot.at) >= self.ttl
    }

    /// The identity cached for `token`, unless it is older than the TTL
    /// at `now`. A hit marks the slot referenced.
    pub(crate) fn get(&mut self, token: &str, now: Instant) -> Option<Arc<Identity>> {
        let i = *self.index.get(token)?;
        if self.expired(&self.slots[i], now) {
            return None;
        }
        let slot = &mut self.slots[i];
        slot.referenced = true;
        Some(Arc::clone(&slot.identity))
    }

    /// Cache `identity` for `token` as of `now`. A cached token is
    /// refreshed in place; a new one takes a fresh slot below the
    /// capacity and evicts exactly one entry at it.
    pub(crate) fn insert(&mut self, token: &str, identity: Arc<Identity>, now: Instant) {
        if self.ttl.is_zero() || self.capacity == 0 {
            return;
        }
        if let Some(&i) = self.index.get(token) {
            let slot = &mut self.slots[i];
            slot.identity = identity;
            slot.at = now;
            return;
        }
        let token: Arc<str> = Arc::from(token);
        let slot = Slot {
            token: Arc::clone(&token),
            at: now,
            referenced: false,
            identity,
        };
        let i = if self.slots.len() < self.capacity {
            self.slots.push(slot);
            self.slots.len() - 1
        } else {
            let i = self.victim(now);
            let evicted = std::mem::replace(&mut self.slots[i], slot);
            self.index.remove(&evicted.token);
            i
        };
        self.index.insert(token, i);
    }

    /// Advance the hand to the first expired or unreferenced slot,
    /// clearing the referenced bits it passes. Ends within two sweeps.
    fn victim(&mut self, now: Instant) -> usize {
        loop {
            let i = self.hand;
            self.hand = (i + 1) % self.slots.len();
            if !self.slots[i].referenced || self.expired(&self.slots[i], now) {
                return i;
            }
            self.slots[i].referenced = false;
        }
    }

    #[cfg(test)]
    fn len(&self) -> usize {
        self.index.len()
    }
}

#[cfg(test)]
mod identity_cache_tests {
    use super::*;
    use crate::probe::{ProbeTarget, StateProber, DEFAULT_IDENTITY_CAP, DEFAULT_IDENTITY_TTL};
    use cm_cloudsim::PrivateCloud;
    use cm_obs::XorShift64Star;
    use cm_rest::{RestRequest, SharedRestService, StatusCode};
    use std::sync::atomic::{AtomicU64, Ordering};

    fn token(i: usize) -> String {
        format!("tok-{i:05}")
    }

    fn someone(i: usize) -> Arc<Identity> {
        Arc::new(Identity {
            principal: Some(Principal {
                id: i as i64,
                name: None,
                roles: vec!["user".to_string()],
            }),
        })
    }

    /// A cache at capacity holding `token(0)..token(capacity)`.
    fn full(capacity: usize, now: Instant) -> IdentityCache {
        let mut cache = IdentityCache::new(capacity, DEFAULT_IDENTITY_TTL);
        for i in 0..capacity {
            cache.insert(&token(i), someone(i), now);
        }
        cache
    }

    #[test]
    fn identity_cache_insert_at_capacity_evicts_exactly_one_entry() {
        let now = Instant::now();
        let mut cache = full(8, now);
        assert_eq!(cache.len(), 8);
        cache.insert(&token(100), someone(100), now);
        assert_eq!(cache.len(), 8);
        let survivors = (0..8)
            .filter(|&i| cache.get(&token(i), now).is_some())
            .count();
        assert_eq!(survivors, 7);
        assert!(cache.get(&token(100), now).is_some());
    }

    #[test]
    fn identity_cache_hits_half_of_a_uniform_working_set_twice_its_capacity() {
        let now = Instant::now();
        let tokens: Vec<String> = (0..2 * DEFAULT_IDENTITY_CAP).map(token).collect();
        let mut cache = IdentityCache::new(DEFAULT_IDENTITY_CAP, DEFAULT_IDENTITY_TTL);
        let mut rng = XorShift64Star::new(7);
        let mut lookup = |cache: &mut IdentityCache| {
            let i = (rng.next_u64() % tokens.len() as u64) as usize;
            let hit = cache.get(&tokens[i], now).is_some();
            if !hit {
                cache.insert(&tokens[i], someone(i), now);
            }
            hit
        };
        for _ in 0..4 * DEFAULT_IDENTITY_CAP {
            lookup(&mut cache);
        }
        let lookups = 16 * DEFAULT_IDENTITY_CAP;
        let hits = (0..lookups).filter(|_| lookup(&mut cache)).count();
        let ratio = hits as f64 / lookups as f64;
        assert!((0.45..=0.55).contains(&ratio), "hit ratio {ratio}");
    }

    #[test]
    fn identity_cache_spares_a_referenced_token_for_one_sweep() {
        let now = Instant::now();
        let mut cache = full(8, now);
        assert!(cache.get(&token(3), now).is_some());
        // Seven inserts evict the seven tokens nobody looked up; the hand
        // passes token 3 on the way and clears its bit.
        for i in 100..107 {
            cache.insert(&token(i), someone(i), now);
        }
        assert!(cache.index.contains_key(token(3).as_str()));
        assert_eq!(cache.len(), 8);
        // Not looked up again, it goes in the next sweep.
        for i in 200..208 {
            cache.insert(&token(i), someone(i), now);
        }
        assert!(!cache.index.contains_key(token(3).as_str()));
    }

    #[test]
    fn identity_cache_evicts_an_expired_entry_even_if_referenced() {
        let t0 = Instant::now();
        let mut cache = full(2, t0);
        assert!(cache.get(&token(0), t0).is_some());
        let later = t0 + DEFAULT_IDENTITY_TTL;
        assert!(cache.get(&token(0), later).is_none());
        cache.insert(&token(9), someone(9), later);
        assert!(!cache.index.contains_key(token(0).as_str()));
        assert!(cache.index.contains_key(token(1).as_str()));
        assert!(cache.get(&token(9), later).is_some());
    }

    /// Shares a cloud and counts token introspections.
    struct Introspections {
        inner: PrivateCloud,
        gets: AtomicU64,
        fault: bool,
    }

    impl SharedRestService for Introspections {
        fn call(&self, request: &RestRequest) -> RestResponse {
            if request.path.starts_with("/identity/tokens/") {
                self.gets.fetch_add(1, Ordering::Relaxed);
                if self.fault {
                    return RestResponse::transport_fault(StatusCode::BAD_GATEWAY, "reset");
                }
            }
            self.inner.call(request)
        }
    }

    fn introspections(fault: bool) -> (Introspections, String) {
        let inner = PrivateCloud::my_project();
        let carol = inner.issue_token("carol", "carol-pw").unwrap().token;
        let cloud = Introspections {
            inner,
            gets: AtomicU64::new(0),
            fault,
        };
        (cloud, carol)
    }

    #[test]
    fn identity_cache_expired_entry_is_introspected_again() {
        let (cloud, carol) = introspections(false);
        let prober = StateProber::default().identity_ttl(Duration::from_millis(30));
        assert!(!prober.identity(&cloud, &carol).unwrap().cached);
        assert!(prober.identity(&cloud, &carol).unwrap().cached);
        assert_eq!(cloud.gets.load(Ordering::Relaxed), 1);
        std::thread::sleep(Duration::from_millis(40));
        assert!(!prober.identity(&cloud, &carol).unwrap().cached);
        assert_eq!(cloud.gets.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn identity_cache_keeps_no_transport_fault() {
        let (cloud, carol) = introspections(true);
        let prober = StateProber::default();
        for expected in 1..=2 {
            let fault = prober.identity(&cloud, &carol).unwrap_err();
            assert_eq!(fault.status, 502);
            assert_eq!(cloud.gets.load(Ordering::Relaxed), expected);
        }
        // An unknown token's 404 is an answer, and it is cached.
        let (cloud, _) = introspections(false);
        let bound = prober.identity(&cloud, "tok-bogus").unwrap();
        assert_eq!(*bound.identity, Identity::default());
        assert!(prober.identity(&cloud, "tok-bogus").unwrap().cached);
        assert_eq!(cloud.gets.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn identity_cache_binds_what_the_fresh_answer_binds() {
        let (cloud, carol) = introspections(false);
        let target = ProbeTarget {
            project_id: cloud.inner.project_id(),
            volume_id: None,
            snapshot_id: None,
            user_token: carol,
            monitor_token: cloud.inner.issue_token("alice", "alice-pw").unwrap().token,
        };
        let prober = StateProber::default();
        let fresh = prober.snapshot_checked(&cloud, &target);
        let cached = prober.snapshot_checked(&cloud, &target);
        assert!(!fresh.user.as_ref().unwrap().cached);
        assert!(cached.user.as_ref().unwrap().cached);
        assert_eq!(fresh.nav, cached.nav);
        assert_eq!(cloud.gets.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn identity_rebind_drops_what_the_stale_identity_bound() {
        let stale = someone(4);
        let mut nav = MapNavigator::new();
        stale.bind(&mut nav);
        let fresh = Identity {
            principal: Some(Principal {
                id: 4,
                name: None,
                roles: Vec::new(),
            }),
        };
        fresh.rebind(&mut nav, &stale);
        let mut expected = MapNavigator::new();
        fresh.bind(&mut expected);
        assert_eq!(nav, expected);
        let drift = stale.drift(&fresh);
        let attrs: Vec<&str> = drift.iter().map(|d| d.attr.as_str()).collect();
        assert_eq!(attrs, ["groups", "roles"]);
        assert_eq!(drift[1].detail, "user 4: cached [user], introspected []");
    }
}
