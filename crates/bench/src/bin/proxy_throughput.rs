//! Proxy-throughput experiment: the overload sweep of the two-hop
//! topology past saturation.
//!
//! The full network topology of the paper's deployment is stood up on
//! loopback TCP — private cloud served over HTTP, generated monitor
//! wrapping it through a pooled remote-service adapter, monitor itself
//! served over HTTP by the reactor with deadline-aware admission on —
//! and driven with a deterministic request mix (authorized read /
//! forbidden delete / unmodelled passthrough). A small closed-loop burst
//! anchors the saturation rate; open-loop arrivals then sweep 0.5x–2x
//! of it while a health poller rides along on the admin lane. Every
//! shed must be a marked 503; the admin lane must never shed.
//!
//! End-to-end latency and throughput figures of the monitor come from
//! `perf_ledger`; this bench measures only the shape of the goodput
//! curve under overload, which no other bench drives.
//!
//! Results land in `BENCH_proxy_throughput.json` at the repo root. The
//! full run fails unless 2x saturation sheds, goodput there holds 85%
//! of the peak, the admin lane sheds nothing, and the admitted
//! queue-wait p99 stays within twice the budget. `--smoke` runs only the
//! 2x point with a handful of requests, writes
//! `BENCH_proxy_throughput.smoke.json` instead, and skips the
//! assertions (used by `ci.sh`).

use cm_cloudsim::PrivateCloud;
use cm_core::{cinder_monitor, Mode, SnapshotPolicy};
use cm_httpkit::{
    send, AdminRoutes, HttpServer, OverloadConfig, PooledClient, RemoteService, ServerConfig,
    Transport,
};
use cm_model::HttpMethod;
use cm_obs::{Lane, MetricsRegistry, NullSink, OverloadStats};
use cm_rest::{RestRequest, SharedRestService, StatusCode};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Client threads of the closed-loop saturation burst.
const THREADS: usize = 8;

/// Overload experiment: the monitor rides a single reactor shard so the
/// run queue is one well-defined line, with a tight queue-wait budget —
/// the goodput curve is about shape past saturation, not headline rps.
const OVERLOAD_DEADLINE: Duration = Duration::from_millis(10);
const OVERLOAD_QUEUE_LIMIT: usize = 512;
/// Loadgen concurrency for the overload sweep: enough in-flight
/// requests to hold the single shard's queue wait well past the budget
/// (the shard clears ~13k req/s, so 256 in-flight is ~20ms of queue).
const OVERLOAD_THREADS: usize = 256;
/// The acceptance bar: goodput at 2x saturation must hold this fraction
/// of the peak goodput seen anywhere on the curve.
const GOODPUT_FLOOR: f64 = 0.85;

/// The deterministic request mix, same as the concurrency battery's.
fn request_for(pid: u64, t: usize, i: usize, alice: &str, carol: &str) -> RestRequest {
    match (t + i) % 3 {
        0 => RestRequest::new(HttpMethod::Get, format!("/v3/{pid}/volumes/1")).auth_token(alice),
        1 => RestRequest::new(HttpMethod::Delete, format!("/v3/{pid}/volumes/1")).auth_token(carol),
        _ => RestRequest::new(HttpMethod::Get, format!("/unmodelled/{t}/{i}")),
    }
}

/// The two-hop topology (cloud server ← monitor ← clients).
struct Topology {
    cloud_server: HttpServer,
    monitor_server: HttpServer,
    addr: SocketAddr,
    pid: u64,
    alice: String,
    carol: String,
}

impl Topology {
    fn tear_down(self) {
        self.monitor_server.shutdown();
        self.cloud_server.shutdown();
    }
}

/// The overload topology: same two hops, but the monitor server runs a
/// single reactor shard with deadline-aware admission enabled and the
/// admin plane wrapped in, sharing one [`OverloadStats`] with the bench.
fn stand_up_overload() -> (Topology, Arc<OverloadStats>) {
    let cloud = PrivateCloud::my_project();
    let pid = cloud.project_id();
    let alice = cloud
        .issue_token("alice", "alice-pw")
        .expect("fixture")
        .token;
    let carol = cloud
        .issue_token("carol", "carol-pw")
        .expect("fixture")
        .token;
    cloud
        .state_mut()
        .create_volume(pid, "seed", 1, false)
        .expect("seed volume");

    let cloud = Arc::new(cloud);
    let cloud_handle = Arc::clone(&cloud);
    let cloud_server = HttpServer::bind_with(
        "127.0.0.1:0",
        Arc::new(move |req| cloud_handle.call(&req)),
        ServerConfig {
            transport: Transport::Reactor,
            max_requests_per_conn: 1 << 20,
            ..ServerConfig::default()
        },
    )
    .expect("bind cloud server");

    let mut monitor = cinder_monitor(RemoteService::new(cloud_server.local_addr()))
        .expect("models generate")
        .mode(Mode::Enforce)
        .snapshot_policy(SnapshotPolicy::Replica);
    monitor
        .authenticate("alice", "alice-pw")
        .expect("admin authority");
    let monitor = Arc::new(monitor);
    let monitor_handle = Arc::clone(&monitor);

    let stats = Arc::new(OverloadStats::new());
    let admin = AdminRoutes::new(Arc::new(MetricsRegistry::new()), Arc::new(NullSink))
        .with_overload(Arc::clone(&stats));
    let monitor_server = HttpServer::bind_with(
        "127.0.0.1:0",
        admin.wrap(Arc::new(move |req| monitor_handle.call(&req))),
        ServerConfig {
            transport: Transport::Reactor,
            shards: 1,
            max_requests_per_conn: 1 << 20,
            overload: OverloadConfig {
                enabled: true,
                deadline: OVERLOAD_DEADLINE,
                queue_limit: OVERLOAD_QUEUE_LIMIT,
                stats: Some(Arc::clone(&stats)),
            },
            ..ServerConfig::default()
        },
    )
    .expect("bind monitor server");
    let addr = monitor_server.local_addr();

    (
        Topology {
            cloud_server,
            monitor_server,
            addr,
            pid,
            alice,
            carol,
        },
        stats,
    )
}

struct OverloadPoint {
    multiple: f64,
    target_rps: f64,
    goodput_rps: f64,
    admitted: usize,
    shed: usize,
}

/// One overload sweep point: open-loop arrivals at `target_rps`; every
/// non-shed response counts toward goodput, every shed must carry the
/// `X-CM-Overload` marker on a 503 — a silent drop or an unmarked
/// refusal fails the run. A health poller rides along for the whole
/// point: the admin lane must answer 200 throughout the storm.
fn run_overload_point(
    topo: &Topology,
    multiple: f64,
    target_rps: f64,
    total: usize,
) -> OverloadPoint {
    let (addr, pid) = (topo.addr, topo.pid);
    let interval = Duration::from_secs_f64(1.0 / target_rps);
    let next = Arc::new(AtomicUsize::new(0));
    let stop_health = Arc::new(AtomicBool::new(false));
    let health_stop = Arc::clone(&stop_health);
    let health = std::thread::spawn(move || {
        let mut polls = 0u64;
        while !health_stop.load(Ordering::Relaxed) {
            let resp = send(addr, &RestRequest::new(HttpMethod::Get, "/-/health"))
                .expect("health answers mid-storm");
            assert_eq!(resp.status, StatusCode::OK, "admin lane shed under load");
            assert!(!resp.is_overload_shed());
            polls += 1;
            std::thread::sleep(Duration::from_millis(10));
        }
        polls
    });
    let start = Instant::now();
    let workers: Vec<_> = (0..OVERLOAD_THREADS)
        .map(|_| {
            let alice = topo.alice.clone();
            let carol = topo.carol.clone();
            let next = Arc::clone(&next);
            std::thread::spawn(move || {
                let client = PooledClient::default();
                let mut admitted = 0usize;
                let mut shed = 0usize;
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= total {
                        return (admitted, shed);
                    }
                    let due = start + interval.mul_f64(i as f64);
                    let now = Instant::now();
                    if due > now {
                        std::thread::sleep(due - now);
                    }
                    let req = request_for(pid, 0, i, &alice, &carol);
                    let resp = client.request(addr, &req).expect("overload response");
                    if resp.is_overload_shed() {
                        assert_eq!(
                            resp.status,
                            StatusCode::SERVICE_UNAVAILABLE,
                            "shed marker on a non-503"
                        );
                        shed += 1;
                    } else {
                        admitted += 1;
                    }
                }
            })
        })
        .collect();
    let mut admitted = 0usize;
    let mut shed = 0usize;
    for w in workers {
        let (a, s) = w.join().expect("loadgen thread");
        admitted += a;
        shed += s;
    }
    let elapsed = start.elapsed().as_secs_f64();
    stop_health.store(true, Ordering::Relaxed);
    let polls = health.join().expect("health poller");
    assert!(polls > 0, "health poller never ran");

    OverloadPoint {
        multiple,
        target_rps,
        goodput_rps: admitted as f64 / elapsed,
        admitted,
        shed,
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");

    // Overload sweep: drive the single-shard admission-controlled
    // monitor past saturation and trace the goodput curve.
    println!(
        "PROXY THROUGHPUT overload sweep (two-hop topology, 1 shard, {}ms budget, \
         {OVERLOAD_THREADS} loadgen threads):",
        OVERLOAD_DEADLINE.as_millis()
    );
    let (overload_topo, overload_stats) = stand_up_overload();
    // Saturation anchor: a small closed-loop burst (8 in-flight never
    // builds queue wait near the budget, so nothing sheds here).
    let saturation_rps = {
        let (addr, pid) = (overload_topo.addr, overload_topo.pid);
        let burst = if smoke { 8 } else { 200 };
        let start = Instant::now();
        let probes: Vec<_> = (0..THREADS)
            .map(|t| {
                let alice = overload_topo.alice.clone();
                let carol = overload_topo.carol.clone();
                std::thread::spawn(move || {
                    let client = PooledClient::default();
                    for i in 0..burst {
                        let req = request_for(pid, t, i, &alice, &carol);
                        let resp = client.request(addr, &req).expect("saturation probe");
                        assert!(!resp.is_overload_shed(), "closed-loop probe shed");
                    }
                })
            })
            .collect();
        for p in probes {
            p.join().expect("probe thread");
        }
        (THREADS * burst) as f64 / start.elapsed().as_secs_f64()
    };
    println!("    saturation (closed loop, 1 shard): {saturation_rps:7.0} req/s");
    let multiples: &[f64] = if smoke { &[2.0] } else { &[0.5, 1.0, 1.5, 2.0] };
    let mut curve = Vec::new();
    for &multiple in multiples {
        let target = (saturation_rps * multiple).max(50.0);
        let total = ((target * 1.5) as usize).clamp(96, 20_000);
        let point = run_overload_point(&overload_topo, multiple, target, total);
        println!(
            "    {multiple:3.1}x target {:7.0} rps -> goodput {:7.0} rps, admitted {:6}, shed {:6}",
            point.target_rps, point.goodput_rps, point.admitted, point.shed
        );
        curve.push(point);
    }
    let admin_sheds = overload_stats.shed(Lane::Admin);
    let queue_p99_us = overload_stats.queue_delay.p99().unwrap_or(0) / 1_000;
    overload_topo.tear_down();
    let peak_goodput = curve.iter().map(|p| p.goodput_rps).fold(0.0, f64::max);
    let at_2x = curve
        .iter()
        .find(|p| (p.multiple - 2.0).abs() < 1e-9)
        .expect("2x point in curve");
    let goodput_retention = at_2x.goodput_rps / peak_goodput;
    println!(
        "    goodput at 2x saturation          : {:7.0} rps ({:.0}% of peak), \
         admitted queue p99 {queue_p99_us}us, admin sheds {admin_sheds}",
        at_2x.goodput_rps,
        goodput_retention * 100.0
    );

    let curve_json = curve
        .iter()
        .map(|p| {
            format!(
                "      {{ \"multiple\": {:.1}, \"target_rps\": {:.0}, \"goodput_rps\": {:.0}, \
                 \"admitted\": {}, \"shed\": {} }}",
                p.multiple, p.target_rps, p.goodput_rps, p.admitted, p.shed
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    let overload_json = format!(
        "  \"overload\": {{\n    \"shards\": 1,\n    \"deadline_ms\": {},\n    \
         \"queue_limit\": {OVERLOAD_QUEUE_LIMIT},\n    \"loadgen_threads\": {OVERLOAD_THREADS},\n    \
         \"saturation_rps\": {saturation_rps:.0},\n    \"peak_goodput_rps\": {peak_goodput:.0},\n    \
         \"goodput_at_2x_rps\": {:.0},\n    \"goodput_retention_at_2x\": {goodput_retention:.2},\n    \
         \"admitted_queue_p99_us\": {queue_p99_us},\n    \"admin_lane_sheds\": {admin_sheds},\n    \
         \"sheds_marked_503\": true,\n    \"curve\": [\n{curve_json}\n    ]\n  }}",
        OVERLOAD_DEADLINE.as_millis(),
        at_2x.goodput_rps,
    );
    let json = format!(
        "{{\n  \"benchmark\": \"proxy_throughput\",\n  \"smoke\": {smoke},\n  \
         \"monitor_config\": {{ \"mode\": \"enforce\", \"snapshot_policy\": \"replica\" }},\n\
         {overload_json}\n}}\n",
    );
    // Smoke runs land in *.smoke.json (uploaded by CI, gitignored) so
    // shared-runner numbers never shadow the committed artifact.
    let out = if smoke {
        concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../BENCH_proxy_throughput.smoke.json"
        )
    } else {
        concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../BENCH_proxy_throughput.json"
        )
    };
    std::fs::write(out, json).expect("write benchmark artifact");
    println!();
    println!("wrote {out}");

    if smoke {
        println!("smoke mode: skipping overload assertions");
        return;
    }

    // Overload acceptance: the curve must stay flat past saturation.
    assert!(
        at_2x.shed > 0,
        "2x saturation produced no sheds — the sweep never overloaded the shard"
    );
    assert!(
        goodput_retention >= GOODPUT_FLOOR,
        "goodput at 2x saturation fell to {:.0}% of peak (floor {:.0}%)",
        goodput_retention * 100.0,
        GOODPUT_FLOOR * 100.0
    );
    assert_eq!(admin_sheds, 0, "the admin lane must never shed");
    // Admission guarantees every admitted request waited less than its
    // budget; the log2 histogram resolves a percentile to its bucket's
    // upper bound, so allow exactly that much slack.
    assert!(
        queue_p99_us <= 2 * OVERLOAD_DEADLINE.as_micros() as u64,
        "admitted queue-wait p99 {queue_p99_us}us blew the {}ms budget",
        OVERLOAD_DEADLINE.as_millis()
    );
}
