#!/usr/bin/env bash
# Hermetic CI for the cloud-monitor reproduction. Every step runs with
# --offline: the workspace must build from the checkout alone (vendored
# shims under vendor/, no registry access). Run locally before pushing.
#
# Stages are individually addressable: `./ci.sh test`, `./ci.sh chaos`,
# `./ci.sh campaign` run exactly that stage. With no arguments the core
# battery runs (fmt clippy build test docs features smoke). The legacy
# flag spellings remain as aliases for core-plus-stage:
#
#   ./ci.sh --stress     core + concurrency soak battery (debug: debug
#                        assertions live; release: the
#                        timing-sensitive profile the servers run in)
#   ./ci.sh --chaos      core + transport-chaos battery (seeded fault
#                        injection, breaker-flap ledger, recovery smoke)
#   ./ci.sh --campaign   core + the kill-matrix campaign: full mutant
#                        catalog vs the committed KILL_MATRIX_BASELINE.json
#                        (any baseline-detected mutant now missed fails
#                        the build) plus the static RBAC policy lint
set -euo pipefail
cd "$(dirname "$0")"

CORE_STAGES="fmt clippy build test docs features smoke"

usage() {
  cat <<EOF
usage: ./ci.sh [STAGE ...] [--stress] [--chaos] [--campaign] [--help]

stages (run exactly what is named, in the order given, deduplicated):
  core       all of: $CORE_STAGES
  fmt        cargo fmt --check
  clippy     cargo clippy, warnings denied
  build      cargo build --release, whole workspace
  test       cargo test, whole workspace
  docs       cargo doc, warnings denied
  features   feature-gated targets compile (proptest suite, criterion benches)
  smoke      bench binaries in --smoke mode (writes BENCH_*.smoke.json)
  stress     concurrency soak battery (debug + release + determinism property)
  transport  reactor lifecycle/pipelining battery (byte-identical to the
             worker pool), engine-agnostic transport battery
  chaos      transport-chaos battery (fault soak, flap ledger, recovery smoke)
  campaign   kill-matrix campaign vs committed baseline + static RBAC lint
  audit      durable-log battery (SIGKILL crash recovery, proptest framing
             corruption, differential replay, replay-vs-live property
             over the mutant catalog, streaming tail)
  replica    shadow-replica battery (drift detection, anti-entropy chaos,
             identity cache and role-change re-judge under both bindings,
             replica/full differential property over the mutant catalog,
             bench smoke)
  overload   overload-control battery (shed storm, admin-lane immunity,
             shed provenance, overload x chaos interleaving, bench smoke)
  ledger     perf_ledger benchmark: its unit tests and a --smoke run
             (writes only perf_ledger/out/ and perf_ledger/target/)

flags (aliases kept for compatibility; each means core + that stage):
  --stress --chaos --campaign

With no arguments, core runs. Repeated stages and flags are deduplicated.
EOF
}

WANT=""

add_stage() {
  local s
  for s in $WANT; do
    [ "$s" = "$1" ] && return 0
  done
  WANT="$WANT $1"
}

add_core() {
  local s
  for s in $CORE_STAGES; do add_stage "$s"; done
}

for arg in "$@"; do
  case "$arg" in
    --help|-h|help) usage; exit 0 ;;
    --stress) add_core; add_stage stress ;;
    --chaos) add_core; add_stage chaos ;;
    --campaign) add_core; add_stage campaign ;;
    core) add_core ;;
    fmt|clippy|build|test|docs|features|smoke|stress|transport|chaos|campaign|audit|replica|overload|ledger)
      add_stage "$arg" ;;
    *) echo "unknown option: $arg" >&2; echo >&2; usage >&2; exit 2 ;;
  esac
done
[ -n "$WANT" ] || add_core

step() { printf '\n==> %s\n' "$*"; }

stage_fmt() {
  step "cargo fmt --check"
  cargo fmt --all -- --check
}

stage_clippy() {
  step "cargo clippy (deny warnings)"
  cargo clippy --offline --workspace --all-targets -- -D warnings
}

stage_build() {
  step "cargo build --release"
  cargo build --offline --release --workspace
}

stage_test() {
  step "cargo test"
  cargo test --offline --workspace -q
}

stage_docs() {
  step "cargo doc"
  RUSTDOCFLAGS="-D warnings" cargo doc --offline --workspace --no-deps -q
}

stage_features() {
  step "feature check: proptest suite compiles"
  cargo test --offline --features proptest --test proptests --no-run -q

  step "feature check: criterion benches compile"
  cargo build --offline -p cm-bench --benches --features bench-criterion -q
}

stage_smoke() {
  step "bench smoke: contract_eval (parity assertions, smoke artifact)"
  cargo run --offline --release -p cm-bench --bin contract_eval -q -- --smoke

  step "bench smoke: proxy_throughput (overload sweep over live TCP, smoke artifact)"
  cargo run --offline --release -p cm-bench --bin proxy_throughput -q -- --smoke
}

stage_stress() {
  step "stress: concurrency soak (debug, debug assertions active)"
  cargo test --offline --test concurrent_monitor -q

  step "stress: concurrency soak (release)"
  cargo test --offline --release --test concurrent_monitor -q

  step "stress: determinism property (disjoint projects)"
  cargo test --offline --features proptest --test proptests -q \
    concurrent_disjoint_projects_match_serial
}

stage_transport() {
  step "transport: reactor lifecycle + pipelining battery (release)"
  cargo test --offline --release -p cm-httpkit --test reactor -q

  step "transport: engine-agnostic transport battery + unit suite"
  cargo test --offline -p cm-httpkit -q
}

stage_chaos() {
  step "chaos: seeded transport fault-injection soak (release)"
  cargo test --offline --release --test chaos_transport -q

  step "chaos: backend-flap ledger (release)"
  cargo test --offline --release --test concurrent_monitor -q \
    backend_flap_yields_exact_degraded_and_pass_counts

  step "bench smoke: chaos_recovery (breaker flap, smoke artifact)"
  cargo run --offline --release -p cm-bench --bin chaos_recovery -q -- --smoke
}

stage_campaign() {
  step "campaign: kill matrix vs committed baseline"
  cargo run --offline --release -p cm-cli --bin cmcli -q -- \
    mutate campaign --out KILL_MATRIX.json --baseline KILL_MATRIX_BASELINE.json

  step "campaign: static RBAC policy lint (built-in Table I policy)"
  cargo run --offline --release -p cm-cli --bin cmcli -q -- rbac lint

  step "campaign: mutation + rbac suites (release)"
  cargo test --offline --release -q -p cm-mutation -p cm-rbac

  step "campaign: static-analysis/runtime agreement property"
  cargo test --offline --features proptest --test proptests -q rbac_
}

stage_audit() {
  step "audit: SIGKILL crash-injection recovery battery (release)"
  cargo test --offline --release --test audit_recovery -q

  step "audit: framing corruption battery (proptest)"
  cargo test --offline --features proptest --test audit_corruption -q

  step "audit: differential replay against current and mutated contracts"
  cargo test --offline --test audit_replay -q

  step "audit: replay matches live over the mutant catalog (proptest)"
  cargo test --offline --features proptest --test proptests -q replay_matches_live

  step "audit: streaming tail (bounded lag, resume cursor)"
  cargo test --offline --test audit_stream -q

  step "audit: cm-audit unit suite"
  cargo test --offline -p cm-audit -q
}

stage_replica() {
  step "replica: drift detection + anti-entropy chaos battery (release)"
  cargo test --offline --release --test replica -q

  step "replica: cm-core replica state-machine unit suite"
  cargo test --offline -p cm-core -q replica

  step "replica: identity cache unit suite (CLOCK eviction, TTL, faults, binding)"
  cargo test --offline -p cm-core -q identity_

  step "replica: identity is state (role changes within the cache TTL, both bindings)"
  cargo test --offline --test identity -q

  step "replica: replica/full differential property over the mutant catalog"
  cargo test --offline --features proptest --test proptests -q \
    replica_matches_full_snapshots

  step "bench smoke: contract_eval (replica parity + zero-probe assertions)"
  cargo run --offline --release -p cm-bench --bin contract_eval -q -- --smoke
}

stage_overload() {
  step "overload: shed storm, admin immunity, differential safety, slow-loris (release)"
  cargo test --offline --release --test overload -q

  step "overload: overload x chaos interleaving (release)"
  cargo test --offline --release --test chaos_transport -q \
    overload_sheds_interleaved_with_chaos_never_become_violations

  step "overload: shed provenance + overload stats unit suites"
  cargo test --offline -p cm-core -q record_shed
  cargo test --offline -p cm-obs -q

  step "bench smoke: proxy_throughput (overload sweep rides along)"
  cargo run --offline --release -p cm-bench --bin proxy_throughput -q -- --smoke
}

stage_ledger() {
  step "ledger: perf_ledger unit tests (its own workspace)"
  cargo test --offline --locked --manifest-path perf_ledger/Cargo.toml -q

  step "ledger: perf_ledger smoke (oracle + reconciliation, no thresholds)"
  cargo run --offline --locked --release --manifest-path perf_ledger/Cargo.toml \
    --bin perf_ledger -q -- --smoke
}

SUMMARY=""
for stage in $WANT; do
  stage_start=$SECONDS
  "stage_$stage"
  SUMMARY="$SUMMARY$(printf '  %-10s %4ds' "$stage" $((SECONDS - stage_start)))
"
done

printf '\nci: all requested stages passed\n'
printf 'stage wall-clock:\n%s' "$SUMMARY"
