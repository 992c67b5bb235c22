//! One workload in this process: set up, drive the open-loop points,
//! check every answer, and report.
//!
//! An untraced run measures the end-to-end metrics: set-up time, the
//! fixed `light` and `heavy` points, CPU per request and peak memory,
//! then (with `search`) the SLO search. A traced run measures the
//! `heavy` point twice on one topology, with the span recorders off and
//! then on, and builds the per-layer ledger from the second.

use crate::cpus::{self, Placement};
use crate::loadgen::{predicted_labels, run_point, Connection, Outcome, PointSpec};
use crate::slo::{search, SearchSpec};
use crate::stats::{highest_supported, median};
use crate::topology::Topology;
use crate::trace::{self, build_ledger, sample_json};
use crate::workload::{Generator, Verdict, Workload};
use cm_rest::Json;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The SLO percentile. The latency limit applies to its median over
/// windows; see `loadgen::WINDOW_REQUESTS` for why p95 and not p99.
pub const SLO_PERCENTILE: f64 = 95.0;
/// The SLO latency limit, milliseconds.
pub const SLO_LIMIT_MS: f64 = 2.0;
/// Load threads, each with one keep-alive connection.
pub const CONNECTIONS: usize = 2;
/// Topologies stood up per run; set-up time is their median.
const SETUP_REPS: usize = 31;
/// Warm-up before any measured point: pooled upstream connections,
/// replicas and the identity cache fill here.
const WARMUP: Duration = Duration::from_secs(1);
/// Slices the light and heavy points alternate in; together they take
/// the run's seconds.
const SLICES: usize = 8;
/// Length of one SLO search step.
const SEARCH_STEP: Duration = Duration::from_millis(1600);
/// Share of the run's seconds each of a traced run's two points takes.
const TRACE_SHARE: f64 = 0.45;
/// Geometric step of the SLO search's bracketing phase.
const SEARCH_GROWTH: f64 = 1.25;
/// Resolution the SLO search bisects to.
const SEARCH_RESOLUTION: f64 = 0.02;
/// Steps the SLO search may take.
const SEARCH_STEPS: usize = 6;
/// A search step stops sending once a reply is this late: the step has
/// failed its SLO, and draining a growing backlog only wastes the run.
const SEARCH_ABORT: Duration = Duration::from_millis(100);
/// Requests per second in a smoke point.
const SMOKE_RATE: f64 = 600.0;

/// What to run.
#[derive(Debug, Clone, Copy)]
pub struct RunSpec {
    /// The workload.
    pub workload: Workload,
    /// Seed for the request order and picks.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end one.
    pub trace: bool,
    /// Low fixed rates and short points; correctness and reconciliation
    /// only.
    pub smoke: bool,
    /// After an untraced run's fixed-rate points, search for the highest
    /// rate that meets the SLO.
    pub search: bool,
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name.
    pub name: String,
    /// Value, as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// A finished run.
#[derive(Debug)]
pub struct Report {
    /// Every answer and every count matched the oracle.
    pub correct: bool,
    /// Requests sent.
    pub attempted: usize,
    /// Requests and records that failed the oracle.
    pub failed: usize,
    /// The metrics `BENCHMARK.json` gates (untraced) or the per-layer
    /// metrics (traced), in report order.
    pub metrics: Vec<Metric>,
    /// Per-point detail: sample counts, generator lag, search steps.
    pub detail: Json,
    /// The first failures, described.
    pub notes: Vec<String>,
}

impl Metric {
    fn new(name: &str, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.to_string(),
            value,
            unit,
        }
    }
}

/// `{name: {"value", "unit"}}` for each metric.
fn metrics_json(metrics: &[Metric]) -> Json {
    Json::Object(
        metrics
            .iter()
            .map(|m| {
                (
                    m.name.clone(),
                    Json::object(vec![
                        ("value", Json::Float(m.value)),
                        ("unit", Json::Str(m.unit.to_string())),
                    ]),
                )
            })
            .collect(),
    )
}

impl Report {
    /// The one-line result object.
    #[must_use]
    pub fn result_json(&self) -> Json {
        Json::object(vec![
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Int(self.attempted as i64)),
            ("failed", Json::Int(self.failed as i64)),
            ("metrics", metrics_json(&self.metrics)),
        ])
    }
}

/// Where runs write traces, results and their temporary audit logs.
#[must_use]
pub fn out_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
}

/// Run one workload.
///
/// # Errors
///
/// When the topology cannot be stood up or a connection opened.
pub fn run(spec: &RunSpec) -> Result<Report, String> {
    std::fs::create_dir_all(out_dir()).map_err(|e| format!("create out dir: {e}"))?;
    let allowed = cpus::allowed().map_err(|e| format!("read CPU affinity: {e}"))?;
    let placement = Placement::split(&allowed);
    if let Some(p) = &placement {
        cpus::pin(&p.topology).map_err(|e| format!("pin topology to {:?}: {e}", p.topology))?;
    }
    let reps = if spec.smoke { 1 } else { SETUP_REPS };
    let mut setups = Vec::with_capacity(reps);
    let mut current: Option<Topology> = None;
    for k in 0..reps {
        if let Some(previous) = current.take() {
            previous.tear_down();
        }
        let dir = out_dir().join(format!("audit-{}-{k}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let topology = Topology::stand_up(spec.workload, dir, spec.trace)?;
        setups.push(topology.setup.as_secs_f64());
        current = Some(topology);
    }
    let topology = current.expect("at least one set-up");
    let report = measure(spec, &topology, &setups, placement.as_ref());
    topology.tear_down();
    report
}

/// Totals across a run's points.
#[derive(Debug, Default)]
struct Tally {
    attempted: usize,
    failed: usize,
    notes: Vec<String>,
    predicted: [u64; 3],
    points: Vec<Json>,
}

impl Tally {
    /// Run one point and account for its requests.
    fn run(&mut self, conns: &mut [Connection], spec: PointSpec) -> Outcome {
        let outcome = run_point(conns, spec);
        self.attempted += outcome.sent;
        self.failed += outcome.failed;
        self.notes.extend(outcome.notes.iter().cloned());
        for (p, o) in self.predicted.iter_mut().zip(outcome.predicted) {
            *p += o;
        }
        outcome
    }

    /// Describe a finished point: sample counts, percentiles, lag.
    fn record(&mut self, phase: &str, outcome: &Outcome) {
        let ms = |v: Option<f64>| v.map_or(Json::Null, Json::Float);
        let per_window =
            |p: f64| Json::Array(outcome.per_window_ms(p).into_iter().map(ms).collect());
        // The highest percentile the whole point supports.
        let tail = highest_supported(outcome.latency_ns.len());
        eprintln!(
            "  {phase:<7} {:>7.0} req/s {:>5.1} s: {:>6} answered, p50 {:>6} ms, p{SLO_PERCENTILE} {:>6} ms (whole point {:>6} ms), gen lag p99 {:>6} us{}",
            outcome.rate,
            outcome.duration.as_secs_f64(),
            outcome.latency_ns.len(),
            fmt_opt(outcome.windowed_ms(50.0)),
            fmt_opt(outcome.windowed_ms(SLO_PERCENTILE)),
            fmt_opt(outcome.latency_ms(SLO_PERCENTILE)),
            fmt_opt(outcome.lag_p99_us()),
            if outcome.aborted { ", aborted" } else { "" },
        );
        self.points.push(Json::object(vec![
            ("phase", Json::Str(phase.to_string())),
            ("rate", Json::Float(outcome.rate)),
            ("seconds", Json::Float(outcome.duration.as_secs_f64())),
            ("offered", Json::Int(outcome.offered as i64)),
            ("sent", Json::Int(outcome.sent as i64)),
            (
                "completed_in_window",
                Json::Int(outcome.completed_in_window as i64),
            ),
            ("samples", Json::Int(outcome.latency_ns.len() as i64)),
            (
                "window_samples_min",
                Json::Int(outcome.windows.iter().map(Vec::len).min().unwrap_or(0) as i64),
            ),
            ("windows", Json::Int(outcome.windows.len() as i64)),
            ("p50_ms", ms(outcome.latency_ms(50.0))),
            ("p95_ms", ms(outcome.latency_ms(95.0))),
            ("tail_percentile", ms(tail)),
            ("tail_ms", ms(tail.and_then(|p| outcome.latency_ms(p)))),
            ("windowed_p50_ms", ms(outcome.windowed_ms(50.0))),
            ("windowed_p95_ms", ms(outcome.windowed_ms(95.0))),
            ("window_p50_ms", per_window(50.0)),
            ("window_p95_ms", per_window(95.0)),
            ("gen_lag_samples", Json::Int(outcome.lag_ns.len() as i64)),
            ("gen_lag_p99_us", ms(outcome.lag_p99_us())),
            ("achieved_rps", Json::Float(outcome.achieved_rps())),
            (
                "topology_cpu_s",
                Json::Float(outcome.topology_cpu.as_secs_f64()),
            ),
            (
                "cpu_us_per_request",
                Json::Float(outcome.cpu_us_per_request()),
            ),
            (
                "load_cpu_us_per_request",
                Json::Float(
                    outcome.load_cpu.as_secs_f64() * 1e6 / outcome.latency_ns.len().max(1) as f64,
                ),
            ),
            (
                "meets_slo",
                Json::Bool(outcome.meets_slo(SLO_PERCENTILE, SLO_LIMIT_MS)),
            ),
            ("aborted", Json::Bool(outcome.aborted)),
        ]));
    }
}

fn fmt_opt(v: Option<f64>) -> String {
    v.map_or_else(|| "-".into(), |v| format!("{v:.3}"))
}

fn point(rate: f64, seconds: f64) -> PointSpec {
    PointSpec {
        rate,
        duration: Duration::from_secs_f64(seconds),
        traced: false,
        abort_after: None,
    }
}

/// Monitor counters read around a traced window.
#[derive(Debug, Clone, Default)]
struct Counters {
    verdicts: Vec<(String, u64)>,
    identity: (u64, u64),
    replica: (u64, u64),
    appended: u64,
    commits: u64,
    commit_count: u64,
    commit_sum_ns: u64,
}

impl Counters {
    fn read(topology: &Topology) -> Counters {
        let m = &topology.metrics;
        Counters {
            verdicts: m.verdicts.snapshot(),
            identity: (m.identity.get("hit"), m.identity.get("miss")),
            replica: (m.replica.get("hit"), m.replica.get("miss")),
            appended: m.audit.get("appended"),
            commits: m.audit.get("commits"),
            commit_count: m.audit_commit.count(),
            commit_sum_ns: m.audit_commit.sum_nanos(),
        }
    }

    fn verdict(&self, label: &str) -> u64 {
        self.verdicts
            .iter()
            .find(|(l, _)| l == label)
            .map_or(0, |(_, v)| *v)
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn measure(
    spec: &RunSpec,
    topology: &Topology,
    setups: &[f64],
    placement: Option<&Placement>,
) -> Result<Report, String> {
    let workload = spec.workload;
    let load_cpus = placement.map(|p| p.load.clone()).unwrap_or_default();
    let mut conns = (0..CONNECTIONS)
        .map(|c| {
            let generator = Generator::new(workload, spec.seed, c, Arc::clone(&topology.fixtures));
            Connection::open(topology.addr, generator, c, load_cpus.clone())
        })
        .collect::<std::io::Result<Vec<_>>>()
        .map_err(|e| format!("connect to monitor: {e}"))?;
    let rates = workload.rates();
    let s = spec.seconds;
    let mut tally = Tally::default();
    let mut metrics: Vec<Metric> = Vec::new();
    let mut metric = |name: &str, value: f64, unit: &'static str| {
        metrics.push(Metric::new(name, value, unit));
    };
    // End-to-end figures that are reported but not gated: their spread
    // on a shared VM exceeds the largest bound the benchmark may set
    // (see README.md).
    let mut reported: Vec<Metric> = Vec::new();
    let mut search_detail = Json::Null;
    let mut traced_window: Option<(Outcome, trace::Spans, Counters, Counters, Instant)> = None;
    let mut untraced_p50: Option<f64> = None;

    if spec.trace {
        let (rate, seconds) = if spec.smoke {
            (SMOKE_RATE, 1.0)
        } else {
            (rates.heavy, TRACE_SHARE * s)
        };
        let warmup = tally.run(&mut conns, point(rate / 2.0, WARMUP.as_secs_f64()));
        tally.record("warmup", &warmup);
        let plain = tally.run(&mut conns, point(rate, seconds));
        tally.record("heavy", &plain);
        untraced_p50 = plain.windowed_ms(50.0);
        let before = Counters::read(topology);
        let origin = Instant::now();
        trace::set_tracing(true);
        let traced = tally.run(
            &mut conns,
            PointSpec {
                traced: true,
                ..point(rate, seconds)
            },
        );
        trace::set_tracing(false);
        tally.record("traced", &traced);
        traced_window = Some((
            traced,
            trace::take(),
            before,
            Counters::read(topology),
            origin,
        ));
    } else {
        let warmup = tally.run(&mut conns, point(rates.light, WARMUP.as_secs_f64()));
        tally.record("warmup", &warmup);
        // Light and heavy alternate in slices, so both sample the
        // host's weather across the whole phase.
        let slice = s / (2 * SLICES) as f64;
        let mut light = tally.run(&mut conns, point(rates.light, slice));
        let mut heavy = tally.run(&mut conns, point(rates.heavy, slice));
        for _ in 1..SLICES {
            light.append(tally.run(&mut conns, point(rates.light, slice)));
            heavy.append(tally.run(&mut conns, point(rates.heavy, slice)));
        }
        tally.record("light", &light);
        tally.record("heavy", &heavy);
        // Peak memory over the fixed-rate points only: the search's
        // request count depends on where the knee is, and the monitor's
        // log grows with every request.
        let rss_mb = peak_rss_mb()?;
        if spec.search {
            let (detail, slo_rps) = slo_search(&mut tally, &mut conns, rates.slo_start);
            search_detail = detail;
            reported.push(Metric::new("slo_rps", slo_rps, "req/s"));
        }
        let need = |o: &Outcome, p: f64, what: &str| {
            o.windowed_ms(p).ok_or_else(|| {
                format!(
                    "{what}: {} samples cannot support p{p} per window",
                    o.latency_ns.len()
                )
            })
        };
        metric("setup_s", median(setups), "s");
        metric("p50_light_ms", need(&light, 50.0, "light")?, "ms");
        metric("p95_light_ms", need(&light, 95.0, "light")?, "ms");
        metric("rss_mb", rss_mb, "MiB");
        reported.extend([
            Metric::new("p50_heavy_ms", need(&heavy, 50.0, "heavy")?, "ms"),
            Metric::new("p95_heavy_ms", need(&heavy, 95.0, "heavy")?, "ms"),
            Metric::new("cpu_us_per_req", heavy.cpu_us_per_request(), "us"),
        ]);
    }

    // Every decision must be durably recorded: flush, then reconcile
    // the audit log and the verdict counters with the oracle.
    let flush_start = Instant::now();
    topology
        .audit
        .flush()
        .map_err(|e| format!("audit flush: {e}"))?;
    let flush_ms = flush_start.elapsed().as_secs_f64() * 1e3;
    verify(topology, &mut tally);

    if let Some((traced, spans, before, after, origin)) = traced_window {
        let ledger = build_ledger(&traced.client, &spans);
        for (name, value, unit) in &ledger.metrics {
            metric(name, *value, unit);
        }
        let d = |f: fn(&Counters) -> u64| f(&after).saturating_sub(f(&before));
        let requests = traced.latency_ns.len() as u64;
        metric(
            "core.replica_hit_ratio",
            ratio(d(|c| c.replica.0), d(|c| c.replica.0 + c.replica.1)),
            "ratio",
        );
        metric(
            "core.identity_hit_ratio",
            ratio(d(|c| c.identity.0), d(|c| c.identity.0 + c.identity.1)),
            "ratio",
        );
        let mut known = 0;
        for v in Verdict::ALL {
            let n = after
                .verdict(v.label())
                .saturating_sub(before.verdict(v.label()));
            known += n;
            metric(&format!("core.verdicts.{}", v.label()), n as f64, "count");
        }
        let all: u64 = after.verdicts.iter().map(|(_, n)| n).sum::<u64>()
            - before.verdicts.iter().map(|(_, n)| n).sum::<u64>();
        metric("core.verdicts.other", (all - known) as f64, "count");
        metric("audit.records", d(|c| c.appended) as f64, "count");
        metric("audit.dropped", topology.audit.dropped() as f64, "count");
        metric(
            "audit.records_per_commit",
            ratio(d(|c| c.appended), d(|c| c.commits)),
            "count",
        );
        metric(
            "audit.commit_us",
            ratio(d(|c| c.commit_sum_ns), d(|c| c.commit_count)) / 1e3,
            "us",
        );
        metric("audit.flush_ms", flush_ms, "ms");
        metric("trace.reconcile_err", ledger.reconcile_err, "ratio");
        let overhead = match (traced.windowed_ms(50.0), untraced_p50) {
            (Some(t), Some(u)) if u > 0.0 => t / u,
            _ => f64::NAN,
        };
        metric("trace.overhead", overhead, "ratio");
        eprintln!(
            "  ledger: {requests} requests, {} joined, e2e mean {:.1} us, reconcile error {:.4}",
            ledger.joined, ledger.e2e_mean_us, ledger.reconcile_err
        );
        let file = out_dir().join(format!("trace-{}.json", workload.name()));
        let doc = Json::object(vec![
            ("workload", Json::Str(workload.name().into())),
            ("seed", Json::Int(spec.seed as i64)),
            ("rate", Json::Float(traced.rate)),
            ("requests", Json::Int(ledger.requests as i64)),
            ("joined", Json::Int(ledger.joined as i64)),
            ("e2e_mean_us", Json::Float(ledger.e2e_mean_us)),
            (
                "layers_mean_us",
                Json::object(
                    ledger
                        .layers
                        .iter()
                        .map(|(n, v)| (*n, Json::Float(*v)))
                        .collect(),
                ),
            ),
            ("reconcile_err", Json::Float(ledger.reconcile_err)),
            ("sample", sample_json(&traced.client, &spans, origin, 200)),
        ]);
        std::fs::write(&file, doc.to_pretty_string())
            .map_err(|e| format!("write {}: {e}", file.display()))?;
    }

    // Non-finite values only arise from empty samples (smoke points);
    // every value in the result line must be a number.
    metrics.retain(|m| m.value.is_finite());
    let detail = Json::object(vec![
        ("workload", Json::Str(workload.name().into())),
        ("seed", Json::Int(spec.seed as i64)),
        ("seconds", Json::Float(spec.seconds)),
        ("trace", Json::Bool(spec.trace)),
        ("smoke", Json::Bool(spec.smoke)),
        ("connections", Json::Int(CONNECTIONS as i64)),
        (
            "cpus",
            placement.map_or(Json::Null, |p| {
                let list =
                    |v: &[usize]| Json::Array(v.iter().map(|&c| Json::Int(c as i64)).collect());
                Json::object(vec![
                    ("topology", list(&p.topology)),
                    ("load", list(&p.load)),
                ])
            }),
        ),
        (
            "setup_s",
            Json::Array(setups.iter().map(|v| Json::Float(*v)).collect()),
        ),
        ("points", Json::Array(std::mem::take(&mut tally.points))),
        ("reported", metrics_json(&reported)),
        ("search", search_detail),
        (
            "rates",
            Json::object(vec![
                ("light", Json::Float(rates.light)),
                ("heavy", Json::Float(rates.heavy)),
                ("slo_start", Json::Float(rates.slo_start)),
            ]),
        ),
        (
            "predicted_verdicts",
            Json::object(
                predicted_labels(tally.predicted)
                    .into_iter()
                    .map(|(l, n)| (l, Json::Int(n as i64)))
                    .collect(),
            ),
        ),
    ]);
    Ok(Report {
        correct: tally.failed == 0,
        attempted: tally.attempted.max(tally.failed),
        failed: tally.failed,
        metrics,
        detail,
        notes: tally.notes,
    })
}

/// The SLO search: the highest offered rate whose step meets the SLO,
/// starting from the seed's figure. Returns the search's detail and
/// `slo_rps`.
fn slo_search(tally: &mut Tally, conns: &mut [Connection], start: f64) -> (Json, f64) {
    let mut passed: Vec<(f64, f64)> = Vec::new();
    let result = search(
        SearchSpec {
            start,
            growth: SEARCH_GROWTH,
            resolution: SEARCH_RESOLUTION,
            max_steps: SEARCH_STEPS,
        },
        |rate| {
            let outcome = tally.run(
                conns,
                PointSpec {
                    abort_after: Some(SEARCH_ABORT),
                    ..point(rate, SEARCH_STEP.as_secs_f64())
                },
            );
            tally.record("search", &outcome);
            let pass = outcome.meets_slo(SLO_PERCENTILE, SLO_LIMIT_MS);
            if pass {
                passed.push((rate, outcome.achieved_rps()));
            }
            pass
        },
    );
    // The highest passing step's delivered rate, as measured.
    let slo_rps = result
        .best
        .and_then(|best| passed.iter().find(|(r, _)| *r == best))
        .map_or(0.0, |(_, achieved)| *achieved);
    eprintln!("  slo_rps {slo_rps:.0} req/s");
    let detail = Json::object(vec![
        ("start", Json::Float(start)),
        ("best_offered", result.best.map_or(Json::Null, Json::Float)),
        (
            "failed_at",
            result.failed_at.map_or(Json::Null, Json::Float),
        ),
        ("converged", Json::Bool(result.converged(SEARCH_RESOLUTION))),
        ("steps", Json::Int(result.steps.len() as i64)),
    ]);
    (detail, slo_rps)
}

/// Reconcile the monitor's verdict counters and the audit log with what
/// the oracle predicted; every mismatch counts as a failure.
fn verify(topology: &Topology, tally: &mut Tally) {
    let predicted = tally.predicted;
    let mut fail = |n: u64, note: String| {
        tally.failed += usize::try_from(n).unwrap_or(usize::MAX);
        if tally.notes.len() < 8 {
            tally.notes.push(note);
        }
    };
    let observed = topology.metrics.verdicts.snapshot();
    for (label, predicted) in predicted_labels(predicted) {
        let got = topology.metrics.verdicts.get(label);
        if got != predicted {
            fail(
                got.abs_diff(predicted),
                format!("verdict {label}: monitor counted {got}, oracle predicted {predicted}"),
            );
        }
    }
    for (label, n) in observed {
        if n > 0 && !Verdict::ALL.iter().any(|v| v.label() == label) {
            fail(n, format!("unexpected verdict {label}: {n}"));
        }
    }
    let audit = &topology.audit;
    let decisions = topology.metrics.requests();
    if audit.appended() != decisions {
        fail(
            audit.appended().abs_diff(decisions),
            format!(
                "audit appended {} records for {decisions} decisions",
                audit.appended()
            ),
        );
    }
    if audit.committed() != audit.appended() {
        fail(
            audit.appended().abs_diff(audit.committed()),
            format!(
                "audit committed {} of {} appended",
                audit.committed(),
                audit.appended()
            ),
        );
    }
    if audit.dropped() > 0 || audit.write_errors() > 0 {
        fail(
            audit.dropped() + audit.write_errors(),
            format!(
                "audit dropped {} records, {} write errors",
                audit.dropped(),
                audit.write_errors()
            ),
        );
    }
}

/// Peak resident memory of this process (`VmHWM`), MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status =
        std::fs::read_to_string("/proc/self/status").map_err(|e| format!("read status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}
