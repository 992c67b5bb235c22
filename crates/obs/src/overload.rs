//! Overload-control observability: priority lanes, shed accounting,
//! and the queue-delay histogram.
//!
//! The types live here (not in `cm-httpkit`) because the transport and
//! the exposition both need them: the reactor's admission path
//! classifies requests into a [`Lane`] and records sheds into
//! [`OverloadStats`], which the admin routes and the monitor's metrics
//! render.

use crate::histogram::LatencyHistogram;
use cm_rest::Json;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Priority lane a request is admitted under. Ordering is priority:
/// lower discriminant drains first and sheds last.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(usize)]
pub enum Lane {
    /// Admin-plane traffic (`/-/` health, metrics, event stream). Never
    /// shed: the fleet needs the health endpoint most precisely when
    /// the instance is drowning.
    Admin = 0,
    /// Monitored mutations (POST/PUT/PATCH/DELETE). Outrank reads: a
    /// dropped read is retryable noise, a dropped mutation loses the
    /// one chance to check it against the contract.
    Mutation = 1,
    /// Monitored reads (GET/HEAD) — first to shed under pressure.
    Read = 2,
}

/// Number of lanes (array dimension for per-lane state).
pub const LANES: usize = 3;

impl Lane {
    /// All lanes in drain-priority order.
    pub const ALL: [Lane; LANES] = [Lane::Admin, Lane::Mutation, Lane::Read];

    /// Stable lowercase label (metrics keys, health JSON).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Lane::Admin => "admin",
            Lane::Mutation => "mutation",
            Lane::Read => "read",
        }
    }

    /// The lane's index into per-lane arrays.
    #[must_use]
    pub fn index(self) -> usize {
        self as usize
    }
}

/// Per-lane overload accounting shared between the reactor shards and
/// the admin/health exposition: admitted + shed counters, live queue
/// depth gauges, and the queue-wait histogram.
#[derive(Debug, Default)]
pub struct OverloadStats {
    admitted: [AtomicU64; LANES],
    shed: [AtomicU64; LANES],
    depth: [AtomicU64; LANES],
    /// Time between a request's parse (admission stamp) and the moment
    /// the handler actually starts on it.
    pub queue_delay: LatencyHistogram,
}

impl OverloadStats {
    /// Fresh, all-zero stats.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one admitted request and its queue wait.
    pub fn note_admitted(&self, lane: Lane, queue_wait: Duration) {
        self.admitted[lane.index()].fetch_add(1, Ordering::Relaxed);
        self.queue_delay.record(queue_wait);
    }

    /// Record one shed request.
    pub fn note_shed(&self, lane: Lane) {
        self.shed[lane.index()].fetch_add(1, Ordering::Relaxed);
    }

    /// Adjust the live queue depth of `lane` by `delta`.
    pub fn adjust_depth(&self, lane: Lane, delta: i64) {
        if delta >= 0 {
            self.depth[lane.index()].fetch_add(delta.unsigned_abs(), Ordering::Relaxed);
        } else {
            self.depth[lane.index()].fetch_sub(delta.unsigned_abs(), Ordering::Relaxed);
        }
    }

    /// Requests admitted on `lane` so far.
    #[must_use]
    pub fn admitted(&self, lane: Lane) -> u64 {
        self.admitted[lane.index()].load(Ordering::Relaxed)
    }

    /// Requests shed on `lane` so far.
    #[must_use]
    pub fn shed(&self, lane: Lane) -> u64 {
        self.shed[lane.index()].load(Ordering::Relaxed)
    }

    /// Live queue depth of `lane`.
    #[must_use]
    pub fn depth(&self, lane: Lane) -> u64 {
        self.depth[lane.index()].load(Ordering::Relaxed)
    }

    /// Total sheds across all lanes.
    #[must_use]
    pub fn shed_total(&self) -> u64 {
        Lane::ALL.iter().map(|&l| self.shed(l)).sum()
    }

    /// Total admissions across all lanes.
    #[must_use]
    pub fn admitted_total(&self) -> u64 {
        Lane::ALL.iter().map(|&l| self.admitted(l)).sum()
    }

    /// Shed fraction over everything seen so far (`0.0` when idle).
    #[must_use]
    pub fn shed_rate(&self) -> f64 {
        let shed = self.shed_total();
        let seen = shed + self.admitted_total();
        if seen == 0 {
            0.0
        } else {
            #[allow(clippy::cast_precision_loss)]
            {
                shed as f64 / seen as f64
            }
        }
    }

    /// Machine-readable exposition block (`/-/health`, `/-/metrics`).
    #[must_use]
    pub fn render_json(&self) -> Json {
        let per_lane = |values: &dyn Fn(Lane) -> u64| {
            Json::Object(
                Lane::ALL
                    .iter()
                    .map(|&lane| {
                        (
                            lane.label().to_string(),
                            Json::Int(i64::try_from(values(lane)).unwrap_or(i64::MAX)),
                        )
                    })
                    .collect(),
            )
        };
        Json::object(vec![
            ("admitted", per_lane(&|l| self.admitted(l))),
            ("shed", per_lane(&|l| self.shed(l))),
            ("lane_depths", per_lane(&|l| self.depth(l))),
            (
                "shed_rate_percent",
                Json::Int({
                    #[allow(
                        clippy::cast_possible_truncation,
                        clippy::cast_precision_loss,
                        clippy::cast_sign_loss
                    )]
                    {
                        (self.shed_rate() * 100.0).round() as i64
                    }
                }),
            ),
            ("queue_delay", self.queue_delay.render_json()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lanes_order_and_label() {
        assert!(Lane::Admin < Lane::Mutation);
        assert!(Lane::Mutation < Lane::Read);
        assert_eq!(Lane::ALL.map(Lane::label), ["admin", "mutation", "read"]);
        assert_eq!(Lane::Read.index(), 2);
    }

    #[test]
    fn stats_account_per_lane() {
        let stats = OverloadStats::new();
        stats.note_admitted(Lane::Mutation, Duration::from_micros(250));
        stats.note_admitted(Lane::Read, Duration::from_micros(900));
        stats.note_shed(Lane::Read);
        stats.adjust_depth(Lane::Read, 3);
        stats.adjust_depth(Lane::Read, -1);
        assert_eq!(stats.admitted(Lane::Mutation), 1);
        assert_eq!(stats.shed(Lane::Read), 1);
        assert_eq!(stats.shed(Lane::Admin), 0);
        assert_eq!(stats.depth(Lane::Read), 2);
        assert_eq!(stats.shed_total(), 1);
        assert_eq!(stats.admitted_total(), 2);
        assert!((stats.shed_rate() - 1.0 / 3.0).abs() < 1e-9);
        assert_eq!(stats.queue_delay.count(), 2);
        let json = stats.render_json();
        assert_eq!(
            json.get("shed").unwrap().get("read").unwrap().as_int(),
            Some(1)
        );
        assert_eq!(
            json.get("lane_depths")
                .unwrap()
                .get("read")
                .unwrap()
                .as_int(),
            Some(2)
        );
        assert_eq!(json.get("shed_rate_percent").unwrap().as_int(), Some(33));
    }
}
