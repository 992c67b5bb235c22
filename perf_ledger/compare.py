#!/usr/bin/env python3
"""Repeat the perf_ledger benchmark and compare two checkouts.

Runs the command in each checkout's BENCHMARK.json exactly as its
contract describes (`<command> --workload W --seed N --seconds S --trace 0`
from the checkout root, built into `<checkout>/.bench_build`).

    python3 perf_ledger/compare.py [--runs N] [--workloads a,b] BASE
        N runs per workload, seeds 1..N: median, quartiles and spread
        (IQR / median) of every end-to-end metric.

    python3 perf_ledger/compare.py [--runs N] [--workloads a,b] BASE HEAD
        N pairs per workload, seed i for pair i, the side that runs first
        alternating. Per metric: each side's median and quartiles, how many
        pairs HEAD won (ties count for neither), and a verdict:
          gain          HEAD won >= 9/10 of the pairs and the medians differ
                        by more than BASE's IQR
          regression    HEAD's median is worse than BASE's by more than the
                        metric's bound
          unresolved    BASE's own spread exceeds the bound and not every
                        HEAD run beat every BASE run
          within bound  otherwise

    python3 perf_ledger/compare.py --reference OUT [--runs N] BASE
        Two sets of N runs, alternated, written to OUT as the reference
        record (per-metric median, IQR, spread, max/min, and the frozen
        rates each workload ran at).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def load_contract(checkout):
    with open(os.path.join(checkout, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(checkout, contract, workload, seed):
    env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(checkout, ".bench_build"))
    args = contract["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(contract["run_seconds"]), "--trace", "0",
    ]
    proc = subprocess.run(args, cwd=checkout, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{checkout}: {workload} seed {seed} failed ({proc.returncode}):\n{proc.stderr[-3000:]}")
    result = json.loads(lines[-1])
    detail = json.loads(lines[-2])["detail"] if len(lines) > 1 else {}
    values = {k: v["value"] for k, v in result["metrics"].items()}
    print(f"  {os.path.basename(os.path.abspath(checkout))} {workload} seed {seed}: "
          + ", ".join(f"{k} {v:.4g}" for k, v in values.items()), flush=True)
    return values, detail


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {
        "median": med, "q1": q1, "q3": q3,
        "spread": (q3 - q1) / med if med else None,
        "min": min(values), "max": max(values),
        "max_over_min": max(values) / min(values) if min(values) else None,
    }


def worse(a, b, better):
    """How much worse `a` is than `b`, as a share of `b`."""
    return (b - a) / b if better == "higher" else (a - b) / b


def verdict(metric, base, head):
    bound, better = metric["bound"], metric["better"]
    s_base, s_head = summary(base), summary(head)
    wins = sum(1 for b, h in zip(base, head) if (h > b if better == "higher" else h < b))
    losses = sum(1 for b, h in zip(base, head) if (h < b if better == "higher" else h > b))
    decided = wins + losses
    iqr = s_base["q3"] - s_base["q1"]
    if decided and wins * 10 >= decided * 9 and abs(s_head["median"] - s_base["median"]) > iqr:
        word = "gain"
    elif worse(s_head["median"], s_base["median"], better) > bound:
        word = "regression"
    elif s_base["spread"] is not None and s_base["spread"] > bound and not (
        min(head) > max(base) if better == "higher" else max(head) < min(base)
    ):
        word = "unresolved"
    else:
        word = "within bound"
    return s_base, s_head, wins, decided, word


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("base")
    parser.add_argument("head", nargs="?")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads")
    parser.add_argument("--reference")
    args = parser.parse_args()

    base_contract = load_contract(args.base)
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in base_contract["workloads"]]
    metrics = base_contract["end_to_end"]

    if args.reference:
        record = {"runs_per_set": args.runs, "workloads": {}}
        for w in workloads:
            sets = [[], []]
            rates = {}
            for i in range(args.runs):
                for k in (0, 1):
                    values, detail = run_once(args.base, base_contract, w, 1 + i + k * args.runs)
                    sets[k].append(values)
                    rates = detail.get("rates", rates)
            record["workloads"][w] = {
                "rates": rates,
                "sets": [
                    {m["name"]: summary([v[m["name"]] for v in s]) for m in metrics} for s in sets
                ],
                "set_median_shift": {
                    m["name"]: worse(
                        summary([v[m["name"]] for v in sets[1]])["median"],
                        summary([v[m["name"]] for v in sets[0]])["median"],
                        m["better"],
                    )
                    for m in metrics
                },
            }
        with open(args.reference, "w") as f:
            json.dump(record, f, indent=2)
            f.write("\n")
        print(f"wrote {args.reference}")
        return

    if not args.head:
        for w in workloads:
            runs = [run_once(args.base, base_contract, w, 1 + i)[0] for i in range(args.runs)]
            print(w)
            for m in metrics:
                s = summary([r[m["name"]] for r in runs])
                flag = "" if s["spread"] is not None and s["spread"] <= m["bound"] else "  SPREAD > BOUND"
                print(f"  {m['name']:<16} median {s['median']:<12.6g} q1 {s['q1']:<12.6g} q3 {s['q3']:<12.6g}"
                      f" spread {s['spread']:.3f} (bound {m['bound']}){flag}")
        return

    head_contract = load_contract(args.head)
    for w in workloads:
        base, head = [], []
        for i in range(args.runs):
            order = [(args.base, base_contract, base), (args.head, head_contract, head)]
            if i % 2:
                order.reverse()
            for checkout, contract, sink in order:
                sink.append(run_once(checkout, contract, w, 1 + i)[0])
        print(w)
        for m in metrics:
            name = m["name"]
            s_base, s_head, wins, decided, word = verdict(m, [r[name] for r in base], [r[name] for r in head])
            print(f"  {name:<16} base {s_base['median']:<10.5g} [{s_base['q1']:.5g}, {s_base['q3']:.5g}]"
                  f"  head {s_head['median']:<10.5g} [{s_head['q1']:.5g}, {s_head['q3']:.5g}]"
                  f"  head won {wins}/{decided}  {word}")


if __name__ == "__main__":
    main()
