//! Bench F2/A2 — the Figure 2 workflow cost: monitor-interposed requests
//! vs. direct cloud requests, per HTTP method, plus the cost split of the
//! monitor's phases (probe, pre-check, post-check).

use cm_bench::{baseline_harness, bench_harness};
use cm_contracts::generate;
use cm_core::{Mode, ProbeTarget, StateProber};
use cm_model::{cinder, HttpMethod, Trigger};
use cm_rest::{RestRequest, RestService};
use criterion::{criterion_group, Criterion};
use std::hint::black_box;

fn direct_vs_monitored(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig2_direct_vs_monitored");

    // Direct GET against the bare cloud.
    {
        let mut h = baseline_harness();
        let token = h.tokens[0].1.clone();
        let path = format!("/v3/{}/volumes/{}", h.project_id, h.volume_id);
        group.bench_function("GET_direct", |b| {
            b.iter(|| {
                let req = RestRequest::new(HttpMethod::Get, path.clone()).auth_token(&token);
                black_box(h.cloud.handle(&req))
            });
        });
    }

    // Monitored GET (enforce mode: probe + pre + forward + probe + post).
    {
        let mut h = bench_harness(Mode::Enforce);
        let token = h.tokens[0].1.clone();
        let path = format!("/v3/{}/volumes/{}", h.project_id, h.volume_id);
        group.bench_function("GET_monitored", |b| {
            b.iter(|| {
                let req = RestRequest::new(HttpMethod::Get, path.clone()).auth_token(&token);
                black_box(h.monitor.handle(&req))
            });
        });
    }

    // Monitored GET in observe mode.
    {
        let mut h = bench_harness(Mode::Observe);
        let token = h.tokens[0].1.clone();
        let path = format!("/v3/{}/volumes/{}", h.project_id, h.volume_id);
        group.bench_function("GET_observed", |b| {
            b.iter(|| {
                let req = RestRequest::new(HttpMethod::Get, path.clone()).auth_token(&token);
                black_box(h.monitor.handle(&req))
            });
        });
    }

    // Blocked DELETE (pre-violation path: probe + pre only).
    {
        let mut h = bench_harness(Mode::Enforce);
        let carol = h.tokens[2].1.clone();
        let path = format!("/v3/{}/volumes/{}", h.project_id, h.volume_id);
        group.bench_function("DELETE_blocked", |b| {
            b.iter(|| {
                let req = RestRequest::new(HttpMethod::Delete, path.clone()).auth_token(&carol);
                black_box(h.monitor.handle(&req))
            });
        });
    }

    group.finish();
}

fn phase_costs(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig2_phase_costs");

    // Probe: one full state snapshot.
    {
        let mut h = baseline_harness();
        let target = ProbeTarget {
            project_id: h.project_id,
            volume_id: Some(h.volume_id),
            snapshot_id: None,
            user_token: h.tokens[0].1.clone(),
            monitor_token: h.tokens[0].1.clone(),
        };
        let prober = StateProber::default();
        group.bench_function("state_snapshot", |b| {
            b.iter(|| black_box(prober.snapshot(&mut h.cloud, &target)));
        });
    }

    // Pre-condition evaluation on a materialised snapshot.
    {
        let mut h = baseline_harness();
        let target = ProbeTarget {
            project_id: h.project_id,
            volume_id: Some(h.volume_id),
            snapshot_id: None,
            user_token: h.tokens[0].1.clone(),
            monitor_token: h.tokens[0].1.clone(),
        };
        let prober = StateProber::default();
        let snapshot = prober.snapshot(&mut h.cloud, &target);
        let contracts = generate(&cinder::behavioral_model()).expect("generates");
        let delete = contracts
            .contract_for(&Trigger::new(HttpMethod::Delete, "volume"))
            .expect("modelled")
            .clone();
        group.bench_function("pre_condition_eval", |b| {
            b.iter(|| black_box(delete.evaluate_pre(&snapshot).unwrap()));
        });
        group.bench_function("post_condition_eval", |b| {
            b.iter(|| black_box(delete.evaluate_post(&snapshot, &snapshot).unwrap()));
        });
    }

    group.finish();
}

criterion_group!(benches, direct_vs_monitored, phase_costs);

fn main() {
    benches();
    // The observability complement to the timing numbers above: the same
    // phase split, but measured by the monitor's own metrics registry.
    println!();
    println!("{}", cm_bench::phase_latency_report(Mode::Enforce, 50));
}
