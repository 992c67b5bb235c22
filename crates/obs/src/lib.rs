//! # cm-obs — observability for the generated cloud monitor
//!
//! The paper's monitor exists to be *watched*: Figure 2 reports pass /
//! pre-violation / post-violation verdicts together with the exercised
//! security-requirement ids, and the Section VI-D mutation campaign is
//! only as credible as what the monitor records. This crate is the
//! zero-dependency layer that makes a running monitor observable:
//!
//! * [`MonitorEvent`] — one structured record per processed request
//!   (request line, verdict, exercised requirement ids, contract id,
//!   and the wall-clock duration of the pre-check / forward / snapshot
//!   / post-check phases);
//! * [`EventSink`] — pluggable event delivery; the default
//!   [`RingBufferSink`] is bounded and drops the oldest event on
//!   overflow, so a long-running proxy never grows without bound;
//! * [`MetricsRegistry`] — atomic counters per verdict / requirement /
//!   route plus fixed-bucket log2 latency histograms
//!   ([`LatencyHistogram`]) with p50/p95/p99 summaries;
//! * JSON exposition via [`MetricsRegistry::render_json`], served by
//!   the `cm-httpkit` admin routes (`GET /-/metrics`,
//!   `GET /-/events?tail=N`) and the `cmcli metrics` subcommand;
//! * [`XorShift64Star`] — a tiny deterministic PRNG so fuzz-style tests
//!   need no registry dependency.
//!
//! Everything here is `std`-only and lock-minimal: counters and
//! histogram buckets are plain `std::sync::atomic` words; the ring
//! buffer is the only structure behind a `Mutex`.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod event;
pub mod histogram;
pub mod metrics;
pub mod overload;
pub mod rng;
pub mod stream;

pub use event::{EventSink, MonitorEvent, NullSink, PhaseTimings, RingBufferSink, TeeSink};
pub use histogram::LatencyHistogram;
pub use metrics::{CounterFamily, MetricsRegistry};
pub use overload::{Lane, OverloadStats, LANES};
pub use rng::XorShift64Star;
pub use stream::{StreamBatch, TailStream};
