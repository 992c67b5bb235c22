//! Atomic counter families and the monitor-wide metrics registry.

use crate::event::MonitorEvent;
use crate::histogram::LatencyHistogram;
use cm_rest::Json;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Lock a mutex, recovering from poisoning: metrics are observational —
/// a panic elsewhere must never wedge counting for later requests.
fn plock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A family of named `u64` counters (e.g. one per verdict label).
///
/// The name→counter map sits behind a `Mutex`, but the lock is held
/// only to look up or create the `Arc<AtomicU64>`; increments are plain
/// `fetch_add`. Callers on a hot path can hold the returned handle.
#[derive(Debug, Default)]
pub struct CounterFamily {
    counters: Mutex<HashMap<String, Arc<AtomicU64>>>,
}

impl CounterFamily {
    /// An empty family.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The counter named `name`, created at zero on first use.
    #[must_use]
    pub fn counter(&self, name: &str) -> Arc<AtomicU64> {
        let mut counters = plock(&self.counters);
        if let Some(counter) = counters.get(name) {
            return Arc::clone(counter);
        }
        let counter = Arc::new(AtomicU64::new(0));
        counters.insert(name.to_string(), Arc::clone(&counter));
        counter
    }

    /// Add 1 to the counter named `name`.
    pub fn increment(&self, name: &str) {
        self.counter(name).fetch_add(1, Ordering::Relaxed);
    }

    /// Current value of `name` (0 if never incremented).
    #[must_use]
    pub fn get(&self, name: &str) -> u64 {
        plock(&self.counters)
            .get(name)
            .map_or(0, |c| c.load(Ordering::Relaxed))
    }

    /// All counters as `(name, value)` pairs, sorted by name.
    #[must_use]
    pub fn snapshot(&self) -> Vec<(String, u64)> {
        let mut entries: Vec<(String, u64)> = plock(&self.counters)
            .iter()
            .map(|(name, counter)| (name.clone(), counter.load(Ordering::Relaxed)))
            .collect();
        entries.sort();
        entries
    }

    /// JSON object mapping names to values, keys sorted.
    #[must_use]
    pub fn render_json(&self) -> Json {
        Json::Object(
            self.snapshot()
                .into_iter()
                .map(|(name, value)| (name, Json::Int(i64::try_from(value).unwrap_or(i64::MAX))))
                .collect(),
        )
    }
}

/// All metrics for one running monitor: verdict / requirement / route
/// counters plus per-phase latency histograms.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    requests: AtomicU64,
    violations: AtomicU64,
    /// Counts per verdict label (`"pass"`, `"pre-blocked"`, …).
    pub verdicts: CounterFamily,
    /// Counts per exercised security-requirement id.
    pub requirements: CounterFamily,
    /// Counts per resolved route (unmatched requests count under
    /// `"(unmodelled)"`).
    pub routes: CounterFamily,
    /// Resilience counters: degraded verdicts by cause
    /// (`"degraded_pre"`, `"degraded_forward"`, `"degraded_post"`),
    /// fail-open passes (`"fail_open_pass"`), and fail-closed
    /// rejections (`"fail_closed"`).
    pub resilience: CounterFamily,
    /// Durable-audit counters: records appended (`"appended"`),
    /// group commits (`"commits"`), records dropped at the bounded
    /// channel (`"dropped"`), segment rotations (`"rotations"`),
    /// write errors (`"write_errors"`), and streaming-tail lag
    /// (`"stream_lagged"`).
    pub audit: CounterFamily,
    /// Shadow-replica counters (`SnapshotPolicy::Replica`): pre-states
    /// served from the replica (`"hit"`), knowledge gaps that forced a
    /// probe pass (`"miss"`), scheduled anti-entropy passes
    /// (`"reconcile"`), replicas invalidated by uncertainty
    /// (`"stale"`), reconciliations that had to repair a diverged
    /// replica (`"repair"`), and out-of-band mutations surfaced as
    /// drift verdicts (`"drift"`).
    pub replica: CounterFamily,
    /// Identity-probe cache counters: token introspections served from
    /// the cache (`"hit"`) vs. round-trips to the cloud (`"miss"`).
    pub identity: CounterFamily,
    /// Overload-control counters: requests shed by admission
    /// (`"shed_recorded"` once audited).
    pub overload: CounterFamily,
    /// Pre-condition evaluation latency.
    pub pre_check: LatencyHistogram,
    /// Forwarding latency (the cloud call).
    pub forward: LatencyHistogram,
    /// State-probe latency (pre + post snapshots).
    pub snapshot: LatencyHistogram,
    /// Post-condition evaluation latency.
    pub post_check: LatencyHistogram,
    /// End-to-end `process` latency.
    pub total: LatencyHistogram,
    /// Durable-log group-commit latency (serialize + write + fsync per
    /// group, recorded by the audit writer thread).
    pub audit_commit: LatencyHistogram,
    /// Anti-entropy reconciliation latency: one probe pass diffing and
    /// repairing a shadow replica (recorded by the monitor whenever a
    /// replica-mode request falls back to probing).
    pub reconciliation: LatencyHistogram,
}

/// Route label used when a request matches no modelled route.
pub const UNMODELLED_ROUTE: &str = "(unmodelled)";

impl MetricsRegistry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Total requests observed.
    #[must_use]
    pub fn requests(&self) -> u64 {
        self.requests.load(Ordering::Relaxed)
    }

    /// Total violation verdicts observed.
    #[must_use]
    pub fn violations(&self) -> u64 {
        self.violations.load(Ordering::Relaxed)
    }

    /// Fold one event into every counter and histogram.
    pub fn observe(&self, event: &MonitorEvent) {
        self.requests.fetch_add(1, Ordering::Relaxed);
        if event.violation {
            self.violations.fetch_add(1, Ordering::Relaxed);
        }
        self.verdicts.increment(&event.verdict);
        for requirement in &event.requirements {
            self.requirements.increment(requirement);
        }
        self.routes
            .increment(event.route.as_deref().unwrap_or(UNMODELLED_ROUTE));
        self.pre_check.record(event.timings.pre_check);
        self.forward.record(event.timings.forward);
        self.snapshot.record(event.timings.snapshot);
        self.post_check.record(event.timings.post_check);
        self.total.record(event.timings.total);
    }

    /// Full JSON exposition, served by `GET /-/metrics` and printed by
    /// `cmcli metrics`.
    #[must_use]
    pub fn render_json(&self) -> Json {
        Json::object(vec![
            (
                "requests",
                Json::Int(i64::try_from(self.requests()).unwrap_or(i64::MAX)),
            ),
            (
                "violations",
                Json::Int(i64::try_from(self.violations()).unwrap_or(i64::MAX)),
            ),
            ("verdicts", self.verdicts.render_json()),
            ("requirements", self.requirements.render_json()),
            ("routes", self.routes.render_json()),
            ("resilience", self.resilience.render_json()),
            ("audit", self.audit.render_json()),
            ("replica", self.replica.render_json()),
            ("identity", self.identity.render_json()),
            ("overload", self.overload.render_json()),
            (
                "phases",
                Json::object(vec![
                    ("pre_check", self.pre_check.render_json()),
                    ("forward", self.forward.render_json()),
                    ("snapshot", self.snapshot.render_json()),
                    ("post_check", self.post_check.render_json()),
                    ("total", self.total.render_json()),
                    ("audit_commit", self.audit_commit.render_json()),
                    ("reconciliation", self.reconciliation.render_json()),
                ]),
            ),
        ])
    }

    /// Human-readable one-screen summary (used by CLI output).
    #[must_use]
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "requests: {}  violations: {}\n",
            self.requests(),
            self.violations()
        ));
        out.push_str("verdicts:\n");
        for (name, value) in self.verdicts.snapshot() {
            out.push_str(&format!("  {name:<20} {value}\n"));
        }
        out.push_str("requirements:\n");
        for (name, value) in self.requirements.snapshot() {
            out.push_str(&format!("  {name:<20} {value}\n"));
        }
        out.push_str("routes:\n");
        for (name, value) in self.routes.snapshot() {
            out.push_str(&format!("  {name:<40} {value}\n"));
        }
        let resilience = self.resilience.snapshot();
        if !resilience.is_empty() {
            out.push_str("resilience:\n");
            for (name, value) in resilience {
                out.push_str(&format!("  {name:<20} {value}\n"));
            }
        }
        let audit = self.audit.snapshot();
        if !audit.is_empty() {
            out.push_str("audit:\n");
            for (name, value) in audit {
                out.push_str(&format!("  {name:<20} {value}\n"));
            }
        }
        let replica = self.replica.snapshot();
        if !replica.is_empty() {
            out.push_str("replica:\n");
            for (name, value) in replica {
                out.push_str(&format!("  {name:<20} {value}\n"));
            }
        }
        let identity = self.identity.snapshot();
        if !identity.is_empty() {
            out.push_str("identity:\n");
            for (name, value) in identity {
                out.push_str(&format!("  {name:<20} {value}\n"));
            }
        }
        let overload = self.overload.snapshot();
        if !overload.is_empty() {
            out.push_str("overload:\n");
            for (name, value) in overload {
                out.push_str(&format!("  {name:<20} {value}\n"));
            }
        }
        out.push_str("phase latency (ns):\n");
        for (label, histogram) in [
            ("pre_check", &self.pre_check),
            ("forward", &self.forward),
            ("snapshot", &self.snapshot),
            ("post_check", &self.post_check),
            ("total", &self.total),
            ("audit_commit", &self.audit_commit),
            ("reconciliation", &self.reconciliation),
        ] {
            out.push_str(&format!(
                "  {label:<10} count={:<8} mean={:<10} p50={:<10} p95={:<10} p99={}\n",
                histogram.count(),
                histogram.mean_nanos(),
                histogram.p50().unwrap_or(0),
                histogram.p95().unwrap_or(0),
                histogram.p99().unwrap_or(0),
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::PhaseTimings;
    use std::time::Duration;

    fn event(verdict: &str, violation: bool, reqs: &[&str], route: Option<&str>) -> MonitorEvent {
        MonitorEvent {
            method: "POST".into(),
            path: "/v3/p1/volumes".into(),
            route: route.map(str::to_string),
            verdict: verdict.into(),
            violation,
            status: 202,
            requirements: reqs.iter().map(|r| (*r).to_string()).collect(),
            timings: PhaseTimings {
                pre_check: Duration::from_nanos(100),
                forward: Duration::from_nanos(400),
                snapshot: Duration::from_nanos(200),
                post_check: Duration::from_nanos(100),
                total: Duration::from_nanos(900),
            },
            ..MonitorEvent::default()
        }
    }

    #[test]
    fn counter_family_counts_and_sorts() {
        let family = CounterFamily::new();
        family.increment("b");
        family.increment("a");
        family.increment("b");
        assert_eq!(family.get("a"), 1);
        assert_eq!(family.get("b"), 2);
        assert_eq!(family.get("missing"), 0);
        assert_eq!(
            family.snapshot(),
            vec![("a".to_string(), 1), ("b".to_string(), 2)]
        );
        let json = family.render_json();
        assert_eq!(json.get("b").unwrap().as_int(), Some(2));
    }

    #[test]
    fn counter_family_recovers_from_a_poisoned_lock() {
        let family = CounterFamily::new();
        family.increment("a");
        let poison = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = family.counters.lock().unwrap();
            panic!("poison the counters lock");
        }));
        assert!(poison.is_err());
        family.increment("a");
        assert_eq!(family.get("a"), 2);
        assert_eq!(family.snapshot(), vec![("a".to_string(), 2)]);
    }

    #[test]
    fn resilience_family_shows_up_in_renders() {
        let registry = MetricsRegistry::new();
        registry.resilience.increment("degraded_pre");
        registry.resilience.increment("fail_open_pass");
        let json = registry.render_json();
        assert_eq!(
            json.get("resilience")
                .unwrap()
                .get("degraded_pre")
                .unwrap()
                .as_int(),
            Some(1)
        );
        let text = registry.render_text();
        assert!(text.contains("resilience:"));
        assert!(text.contains("fail_open_pass"));
    }

    #[test]
    fn audit_family_shows_up_in_renders() {
        let registry = MetricsRegistry::new();
        registry.audit.increment("appended");
        registry.audit.increment("dropped");
        registry.audit_commit.record(Duration::from_micros(120));
        let json = registry.render_json();
        assert_eq!(
            json.get("audit").unwrap().get("appended").unwrap().as_int(),
            Some(1)
        );
        assert_eq!(
            json.get("phases")
                .unwrap()
                .get("audit_commit")
                .unwrap()
                .get("count")
                .unwrap()
                .as_int(),
            Some(1)
        );
        let text = registry.render_text();
        assert!(text.contains("audit:"));
        assert!(text.contains("audit_commit"));
    }

    #[test]
    fn replica_and_identity_families_show_up_in_renders() {
        let registry = MetricsRegistry::new();
        registry.replica.increment("hit");
        registry.replica.increment("drift");
        registry.identity.increment("hit");
        registry.identity.increment("miss");
        registry.reconciliation.record(Duration::from_micros(90));
        let json = registry.render_json();
        assert_eq!(
            json.get("replica").unwrap().get("hit").unwrap().as_int(),
            Some(1)
        );
        assert_eq!(
            json.get("identity").unwrap().get("miss").unwrap().as_int(),
            Some(1)
        );
        assert_eq!(
            json.get("phases")
                .unwrap()
                .get("reconciliation")
                .unwrap()
                .get("count")
                .unwrap()
                .as_int(),
            Some(1)
        );
        let text = registry.render_text();
        assert!(text.contains("replica:"));
        assert!(text.contains("identity:"));
        assert!(text.contains("reconciliation"));
        assert!(text.contains("drift"));
    }

    #[test]
    fn observe_folds_all_dimensions() {
        let registry = MetricsRegistry::new();
        registry.observe(&event(
            "pass",
            false,
            &["SR1", "SR4"],
            Some("/v3/{p}/volumes"),
        ));
        registry.observe(&event(
            "pre-blocked",
            true,
            &["SR1"],
            Some("/v3/{p}/volumes"),
        ));
        registry.observe(&event("not-modelled", false, &[], None));

        assert_eq!(registry.requests(), 3);
        assert_eq!(registry.violations(), 1);
        assert_eq!(registry.verdicts.get("pass"), 1);
        assert_eq!(registry.verdicts.get("pre-blocked"), 1);
        assert_eq!(registry.requirements.get("SR1"), 2);
        assert_eq!(registry.requirements.get("SR4"), 1);
        assert_eq!(registry.routes.get("/v3/{p}/volumes"), 2);
        assert_eq!(registry.routes.get(UNMODELLED_ROUTE), 1);
        assert_eq!(registry.total.count(), 3);
        assert_eq!(registry.pre_check.count(), 3);
    }

    #[test]
    fn render_json_is_parseable_and_complete() {
        let registry = MetricsRegistry::new();
        registry.observe(&event("pass", false, &["SR2"], Some("/r")));
        let json = registry.render_json();
        assert_eq!(json.get("requests").unwrap().as_int(), Some(1));
        assert_eq!(
            json.get("verdicts").unwrap().get("pass").unwrap().as_int(),
            Some(1)
        );
        assert_eq!(
            json.get("requirements")
                .unwrap()
                .get("SR2")
                .unwrap()
                .as_int(),
            Some(1)
        );
        let phases = json.get("phases").unwrap();
        for phase in ["pre_check", "forward", "snapshot", "post_check", "total"] {
            let h = phases.get(phase).unwrap();
            assert_eq!(h.get("count").unwrap().as_int(), Some(1), "{phase}");
            assert!(h.get("p50_ns").unwrap().as_int().is_some(), "{phase}");
        }
        // The audit-commit histogram is exposed alongside the phases
        // even before any durable log is attached.
        let audit_commit = phases.get("audit_commit").unwrap();
        assert_eq!(audit_commit.get("count").unwrap().as_int(), Some(0));
        assert!(cm_rest::parse_json(&json.to_compact_string()).is_ok());
    }

    #[test]
    fn render_text_mentions_everything() {
        let registry = MetricsRegistry::new();
        registry.observe(&event("pass", false, &["SR9"], Some("/route")));
        let text = registry.render_text();
        assert!(text.contains("requests: 1"));
        assert!(text.contains("pass"));
        assert!(text.contains("SR9"));
        assert!(text.contains("/route"));
        assert!(text.contains("p99="));
    }
}
