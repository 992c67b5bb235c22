//! Contract-evaluation experiment — the payoff of the compile pipeline.
//!
//! Two comparisons on the extended Cinder scenario (volumes + snapshots,
//! seven method contracts):
//!
//! * **interpreter vs compiled** — one "request's worth" of contract
//!   work per iteration (pre-condition, exercised requirements,
//!   post-condition) for every contract, through the tree-walking
//!   [`cm_contracts::MethodContract`] interpreter and through the interned
//!   [`cm_contracts::CompiledContractSet`] programs with a reused
//!   [`cm_ocl::EvalScratch`];
//! * **replica vs full monitoring** — a full authorized request mix
//!   through two monitors, one probing the cloud before and after every
//!   request (`SnapshotPolicy::Full`, the paper's binding) and one
//!   binding the evaluation environment from the model-derived shadow
//!   replica. The replica side must serve steady state with **zero**
//!   probe GETs per request, agree with the full-probing oracle verdict
//!   for verdict, and (non-smoke) be at least 1.5x faster.
//!
//! Results land in `BENCH_contract_eval.json` at the repo root. The run
//! fails if the compiled pipeline is not at least 2x the interpreter.
//! `--smoke` runs a handful of iterations, writes the artifact to
//! `BENCH_contract_eval.smoke.json` instead, and skips the speedup
//! assertions (used by `ci.sh` to keep CI fast and load-tolerant).

use cm_cloudsim::PrivateCloud;
use cm_core::{
    cinder_monitor_extended, CloudMonitor, Mode, ProbeTarget, SnapshotPolicy, StateProber,
};
use cm_model::HttpMethod;
use cm_ocl::{EnvView, EvalScratch};
use cm_rest::{Json, RestRequest, SharedRestService};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A cloud wrapped for monitored-mix measurement: counts backend GETs
/// through a shared handle (the wrapper itself serves behind HTTP).
struct MonitoredCloud {
    inner: PrivateCloud,
    gets: Arc<AtomicU64>,
}

impl SharedRestService for MonitoredCloud {
    fn call(&self, request: &cm_rest::RestRequest) -> cm_rest::RestResponse {
        if request.method == HttpMethod::Get {
            self.gets.fetch_add(1, Ordering::Relaxed);
        }
        self.inner.call(request)
    }
}

struct MonitoredFixture {
    monitor: CloudMonitor<cm_httpkit::RemoteService>,
    // Keeps the backend serving for the fixture's lifetime.
    _cloud_server: cm_httpkit::HttpServer,
    gets: Arc<AtomicU64>,
    pid: u64,
    vid: u64,
    sid: u64,
    token: String,
}

/// The `cmcli serve` deployment in miniature: the cloud behind a real
/// HTTP hop, the monitor probing and forwarding through a pooled
/// client — so a probe round-trip costs what it costs in production,
/// not a function call.
fn monitored_fixture(policy: SnapshotPolicy) -> MonitoredFixture {
    let cloud = PrivateCloud::my_project();
    let pid = cloud.project_id();
    let vid = cloud
        .state_mut()
        .create_volume(pid, "bench", 1, false)
        .expect("seed volume")
        .id;
    let sid = cloud
        .state_mut()
        .create_snapshot(pid, vid, "bench-snap")
        .expect("seed snapshot")
        .id;
    let token = cloud
        .issue_token("alice", "alice-pw")
        .expect("fixture credentials")
        .token;
    let gets = Arc::new(AtomicU64::new(0));
    let wrapper = Arc::new(MonitoredCloud {
        inner: cloud,
        gets: Arc::clone(&gets),
    });
    let cloud_server = cm_httpkit::HttpServer::bind(
        "127.0.0.1:0",
        Arc::new(move |req: cm_rest::RestRequest| wrapper.call(&req)),
    )
    .expect("bind cloud server");
    let mut monitor =
        cinder_monitor_extended(cm_httpkit::RemoteService::new(cloud_server.local_addr()))
            .expect("models generate")
            .mode(Mode::Observe)
            .snapshot_policy(policy);
    monitor
        .authenticate("alice", "alice-pw")
        .expect("fixture credentials");
    MonitoredFixture {
        monitor,
        _cloud_server: cloud_server,
        gets,
        pid,
        vid,
        sid,
        token,
    }
}

/// One authorized "request's worth" of monitored traffic: two reads and
/// a create/delete mutation pair, all passing their contracts.
fn monitored_mix(f: &MonitoredFixture) {
    let reqs = [
        RestRequest::new(HttpMethod::Get, format!("/v3/{}/volumes/{}", f.pid, f.vid))
            .auth_token(&f.token),
        RestRequest::new(
            HttpMethod::Get,
            format!("/v3/{}/volumes/{}/snapshots/{}", f.pid, f.vid, f.sid),
        )
        .auth_token(&f.token),
    ];
    for req in &reqs {
        black_box(f.monitor.process(req));
    }
    let created = f.monitor.process(
        &RestRequest::new(HttpMethod::Post, format!("/v3/{}/volumes", f.pid))
            .auth_token(&f.token)
            .json(Json::object(vec![(
                "volume",
                Json::object(vec![("name", Json::Str("mix".into()))]),
            )])),
    );
    let new_vid = created
        .response
        .body
        .expect("created volume body")
        .get("volume")
        .and_then(|v| v.get("id"))
        .and_then(Json::as_int)
        .expect("created volume id");
    black_box(
        f.monitor.process(
            &RestRequest::new(
                HttpMethod::Delete,
                format!("/v3/{}/volumes/{new_vid}", f.pid),
            )
            .auth_token(&f.token),
        ),
    );
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let eval_iters: u32 = if smoke { 5 } else { 2_000 };

    // The monitor is only borrowed for its generated artefacts: the
    // merged interpreter contract set and its compiled counterpart.
    let monitor = cinder_monitor_extended(PrivateCloud::my_project()).expect("models generate");
    let contracts = monitor.contracts();
    let compiled = monitor.compiled_contracts();
    let syms = compiled.symbols();

    // A second, identical cloud provides the evaluation environments:
    // one seeded volume carrying one snapshot, probed with admin
    // authority exactly as the monitor would.
    let cloud = PrivateCloud::my_project();
    let pid = cloud.project_id();
    let vid = cloud
        .state_mut()
        .create_volume(pid, "bench", 1, false)
        .expect("seed volume")
        .id;
    let sid = cloud
        .state_mut()
        .create_snapshot(pid, vid, "bench-snap")
        .expect("seed snapshot")
        .id;
    let admin = cloud
        .issue_token("alice", "alice-pw")
        .expect("fixture credentials")
        .token;
    let target = ProbeTarget {
        project_id: pid,
        volume_id: Some(vid),
        snapshot_id: Some(sid),
        user_token: admin.clone(),
        monitor_token: admin,
    };
    let prober = StateProber::default();
    let pre_state = prober.snapshot(&cloud, &target);
    let post_state = prober.snapshot(&cloud, &target);

    // Parity first: on this environment, the compiled programs must give
    // the interpreter's verdicts contract for contract.
    let mut scratch = EvalScratch::new();
    for (c, cc) in contracts.contracts.iter().zip(compiled.contracts()) {
        let pre_view = EnvView::from_navigator(&pre_state, syms);
        let post_view = EnvView::from_navigator(&post_state, syms);
        cc.begin_pre(&mut scratch);
        assert_eq!(
            c.evaluate_pre(&pre_state).ok(),
            cc.evaluate_pre(syms, &pre_view, &mut scratch).ok(),
            "pre parity for {}",
            c.trigger
        );
        cc.begin_post(&mut scratch);
        assert_eq!(
            c.evaluate_post(&post_state, &pre_state).ok(),
            cc.evaluate_post(syms, &post_view, &pre_view, &mut scratch)
                .ok(),
            "post parity for {}",
            c.trigger
        );
    }

    // One "request's worth" of interpreter work: tree-walk every
    // contract's pre, requirements, post.
    let interp_pass = |n: u32| {
        for _ in 0..n {
            for c in &contracts.contracts {
                black_box(c.evaluate_pre(&pre_state).ok());
                black_box(c.exercised_requirements(&pre_state).ok());
                black_box(c.evaluate_post(&post_state, &pre_state).ok());
            }
        }
    };
    // The same work through the interned programs. View construction is
    // inside the loop — the monitor rebuilds views per request too.
    let mut compiled_pass = |n: u32| {
        for _ in 0..n {
            let pre_view = EnvView::from_navigator(&pre_state, syms);
            let post_view = EnvView::from_navigator(&post_state, syms);
            for cc in compiled.contracts() {
                cc.begin_pre(&mut scratch);
                black_box(cc.evaluate_pre(syms, &pre_view, &mut scratch).ok());
                black_box(
                    cc.enabled_clause_indices(syms, &pre_view, &mut scratch)
                        .ok(),
                );
                cc.begin_post(&mut scratch);
                black_box(
                    cc.evaluate_post(syms, &post_view, &pre_view, &mut scratch)
                        .ok(),
                );
            }
        }
    };

    // Interleave timed chunks (after a warmup of each) so frequency
    // scaling and cache drift hit both pipelines equally.
    let chunks = 10;
    let per_chunk = (eval_iters / chunks).max(1);
    interp_pass(per_chunk);
    compiled_pass(per_chunk);
    let mut interp_secs = 0.0;
    let mut compiled_secs = 0.0;
    for _ in 0..chunks {
        let start = Instant::now();
        interp_pass(per_chunk);
        interp_secs += start.elapsed().as_secs_f64();
        let start = Instant::now();
        compiled_pass(per_chunk);
        compiled_secs += start.elapsed().as_secs_f64();
    }
    let eval_iters = per_chunk * chunks;

    let per_iter_contracts = contracts.contracts.len() as f64;
    let interp_us = interp_secs * 1e6 / f64::from(eval_iters) / per_iter_contracts;
    let compiled_us = compiled_secs * 1e6 / f64::from(eval_iters) / per_iter_contracts;
    let eval_speedup = interp_secs / compiled_secs;

    // Monitored mix: replica vs full probing through the whole monitor.
    // Parity first — identical scripts through both monitors must agree
    // verdict for verdict and requirement for requirement (the full side
    // is the probing oracle the replica claims to equal).
    let mix_iters: u32 = if smoke { 3 } else { 300 };
    let replica_fixture = monitored_fixture(SnapshotPolicy::Replica);
    let full_fixture = monitored_fixture(SnapshotPolicy::Full);
    let parity_req = RestRequest::new(
        HttpMethod::Get,
        format!(
            "/v3/{}/volumes/{}",
            replica_fixture.pid, replica_fixture.vid
        ),
    )
    .auth_token(&replica_fixture.token);
    for _ in 0..8 {
        let a = replica_fixture.monitor.process(&parity_req);
        let full_req = RestRequest::new(
            HttpMethod::Get,
            format!("/v3/{}/volumes/{}", full_fixture.pid, full_fixture.vid),
        )
        .auth_token(&full_fixture.token);
        let b = full_fixture.monitor.process(&full_req);
        assert_eq!(a.verdict, b.verdict, "replica/full verdict parity");
        assert_eq!(
            a.requirements, b.requirements,
            "replica/full requirement parity"
        );
    }

    // Steady-state probe cost: the replica is seeded now, so a window of
    // M monitored GETs must cost exactly M backend GETs — the forwards
    // themselves — and zero probe round-trips.
    let window = if smoke { 5 } else { 200 };
    let before = replica_fixture.gets.load(Ordering::Relaxed);
    for _ in 0..window {
        black_box(replica_fixture.monitor.process(&parity_req));
    }
    let backend_gets = replica_fixture.gets.load(Ordering::Relaxed) - before;
    let replica_probes_per_request = (backend_gets as f64 - f64::from(window)) / f64::from(window);
    assert!(
        replica_probes_per_request == 0.0,
        "replica steady state must probe zero times per request, got {replica_probes_per_request}"
    );

    // Wall-clock: interleaved chunks of the authorized mix.
    let mix_chunks = 10;
    let per_mix_chunk = (mix_iters / mix_chunks).max(1);
    for _ in 0..per_mix_chunk {
        monitored_mix(&replica_fixture);
        monitored_mix(&full_fixture);
    }
    let mut replica_secs = 0.0;
    let mut full_secs = 0.0;
    for _ in 0..mix_chunks {
        let start = Instant::now();
        for _ in 0..per_mix_chunk {
            monitored_mix(&replica_fixture);
        }
        replica_secs += start.elapsed().as_secs_f64();
        let start = Instant::now();
        for _ in 0..per_mix_chunk {
            monitored_mix(&full_fixture);
        }
        full_secs += start.elapsed().as_secs_f64();
    }
    let replica_speedup = full_secs / replica_secs;
    let mix_iters = per_mix_chunk * mix_chunks;

    println!("CONTRACT EVALUATION ({eval_iters} iters x {per_iter_contracts} contracts: pre + requirements + post)");
    println!();
    println!("  interpreter : {interp_us:8.2} us/contract");
    println!("  compiled    : {compiled_us:8.2} us/contract");
    println!("  speedup     : {eval_speedup:8.2}x");
    println!();
    println!("MONITORED MIX ({mix_iters} iters x 4 authorized requests, replica vs full)");
    println!();
    println!(
        "  full    : {:8.2} us/mix",
        full_secs * 1e6 / f64::from(mix_iters)
    );
    println!(
        "  replica : {:8.2} us/mix, {replica_probes_per_request} probe GETs per steady-state request",
        replica_secs * 1e6 / f64::from(mix_iters)
    );
    println!("  speedup : {replica_speedup:8.2}x");

    let json = format!(
        "{{\n  \"benchmark\": \"contract_eval\",\n  \"smoke\": {smoke},\n  \"eval_iters\": {eval_iters},\n  \
         \"contracts\": {per_iter_contracts},\n  \"interpreter_us_per_contract\": {interp_us:.2},\n  \
         \"compiled_us_per_contract\": {compiled_us:.2},\n  \"eval_speedup\": {eval_speedup:.2},\n  \
         \"mix_iters\": {mix_iters},\n  \"replica_probes_per_request\": {replica_probes_per_request},\n  \
         \"replica_speedup\": {replica_speedup:.2}\n}}\n"
    );
    // Smoke runs (CI) keep their numbers out of the committed-artifact
    // namespace — they land in *.smoke.json, which the workflow uploads
    // and .gitignore hides.
    let out = if smoke {
        concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../BENCH_contract_eval.smoke.json"
        )
    } else {
        concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../BENCH_contract_eval.json"
        )
    };
    std::fs::write(out, json).expect("write benchmark artifact");
    println!();
    println!("wrote {out}");

    if smoke {
        println!("smoke mode: skipping speedup assertions");
        return;
    }

    assert!(
        eval_speedup >= 2.0,
        "compiled pipeline must be at least 2x the interpreter, got {eval_speedup:.2}x"
    );
    assert!(
        replica_speedup >= 1.5,
        "replica monitoring must be at least 1.5x full probing, got {replica_speedup:.2}x"
    );
}
