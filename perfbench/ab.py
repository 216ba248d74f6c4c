#!/usr/bin/env python3
"""Interleaved A/B runner for the repository benchmark.

    python3 perfbench/ab.py --a CHECKOUT_A --b CHECKOUT_B \\
        --workload NAME [--workload NAME ...] [--pairs 10] [--seconds S] \\
        [--seed-base K] [--out FILE.json]

Each checkout is a source tree holding perfbench/run.py (a parent commit and
a change, or the same tree twice). For every workload the runner runs N
pairs; pair i uses seed K+i on both sides and swaps which side runs first
each pair, so drift on a shared machine hits both sides alike. Each side
builds itself into its own .bench_build/ on its first run.

Per metric and workload it prints each side's median and quartiles, B's
win fraction over A (ties count for neither), and a verdict:
  improved    B wins at least 9/10 of the pairs and the medians differ by
              more than A's own spread (the distance between its quartiles)
  worse       B's median is worse than A's by more than the metric's bound
              in BENCHMARK.json
  unresolved  a side's spread (quartile distance / median) exceeds the
              bound, and not every B run beats every A run
  no-worse    otherwise
With A = B it shows whether the benchmark is steady: every spread should
be well inside its bound and every verdict no-worse.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run_side(root, workload, seed, seconds):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload",
           workload, "--seed", str(seed), "--trace", "0"]
    if seconds is not None:
        cmd += ["--seconds", str(seconds)]
    p = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode not in (0, 1) or not lines:
        sys.exit("ab: %s failed in %s (exit %d):\n%s" % (
            workload, root, p.returncode, p.stderr[-2000:]))
    return json.loads(lines[-1])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def verdict(a, b, better, bound):
    sign = -1 if better == "lower" else 1  # sign * (x - y) > 0: x beats y
    med_a, med_b = statistics.median(a), statistics.median(b)
    q1a, q3a = quartiles(a)
    q1b, q3b = quartiles(b)
    wins = sum(1 for x, y in zip(b, a) if sign * (x - y) > 0)
    win_frac = wins / len(a)
    spread_a = (q3a - q1a) / med_a if med_a else 0.0
    spread_b = (q3b - q1b) / med_b if med_b else 0.0
    if win_frac >= 0.9 and sign * (med_b - med_a) > q3a - q1a:
        v = "improved"
    elif max(spread_a, spread_b) > bound:
        all_better = all(sign * (x - y) > 0 for x in b for y in a)
        v = "no-worse" if all_better else "unresolved"
    elif med_a and -sign * (med_b - med_a) / med_a > bound:
        v = "worse"
    else:
        v = "no-worse"
    return {"a": {"median": med_a, "q1": q1a, "q3": q3a, "spread": spread_a},
            "b": {"median": med_b, "q1": q1b, "q3": q3b, "spread": spread_b},
            "b_win_frac": win_frac, "verdict": v}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--a", required=True)
    ap.add_argument("--b", required=True)
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--seed-base", type=int, default=100)
    ap.add_argument("--out")
    args = ap.parse_args()

    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    report = {}
    for workload in args.workload:
        runs = {"a": [], "b": []}
        failed = {"a": 0, "b": 0}
        for i in range(args.pairs):
            order = ("a", "b") if i % 2 == 0 else ("b", "a")
            for side in order:
                root = args.a if side == "a" else args.b
                r = run_side(root, workload, args.seed_base + i, args.seconds)
                runs[side].append(r)
                failed[side] += r["failed"]
            print("%s pair %d/%d done" % (workload, i + 1, args.pairs),
                  file=sys.stderr, flush=True)
        rows = {}
        print("\n%s: %d pairs, seeds %d..%d, failed checks A %d B %d" % (
            workload, args.pairs, args.seed_base,
            args.seed_base + args.pairs - 1, failed["a"], failed["b"]))
        print("  %-12s %-28s %-28s %6s %-10s" % (
            "metric", "A median [q1, q3]", "B median [q1, q3]", "B wins",
            "verdict"))
        for name, m in metrics.items():
            a = [r["metrics"][name]["value"] for r in runs["a"]]
            b = [r["metrics"][name]["value"] for r in runs["b"]]
            v = verdict(a, b, m["better"], m["bound"])
            rows[name] = v
            fmt = lambda s: "%.4g [%.4g, %.4g]" % (s["median"], s["q1"],
                                                    s["q3"])
            print("  %-12s %-28s %-28s %6.2f %-10s spread A %.3f B %.3f "
                  "(bound %.2f)" % (name, fmt(v["a"]), fmt(v["b"]),
                                    v["b_win_frac"], v["verdict"],
                                    v["a"]["spread"], v["b"]["spread"],
                                    m["bound"]))
        report[workload] = {"metrics": rows, "failed": failed,
                            "runs": runs}
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)


if __name__ == "__main__":
    main()
