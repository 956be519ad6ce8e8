#!/usr/bin/env python3
"""Steadiness runner: repeats workloads and reports the spread of every metric.

    python3 perfbench/steady.py --runs 10
    python3 perfbench/steady.py --runs 5 --workloads adapt-mixed --trace 1
    python3 perfbench/steady.py --runs 10 --a ../parent --b .

Runs are interleaved across workloads (run i of every workload before run
i+1 of any), each with its own seed, so host drift falls on all of them
alike. With --a and --b (two checkouts) every run is made on both, in ABBA
order: A then B on even runs, B then A on odd ones.

For every metric it prints the median, the quartiles (statistics.quantiles,
n=4), min and max, and the spread: (q3 - q1) / median. An end-to-end metric
whose spread exceeds its bound in BENCHMARK.json is flagged; with two
checkouts, so is one whose B median is worse than A's by more than the bound.
--out saves every run's result.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(checkout, workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(checkout, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if proc.returncode != 0 or not lines:
        return {"ok": False, "code": proc.returncode}
    result = json.loads(lines[-1])
    meta = json.loads(lines[-2])["metadata"] if len(lines) > 1 else {}
    return {"ok": result["correct"], "result": result, "metadata": meta}


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "min": min(values),
            "max": max(values),
            "spread": (q3 - q1) / med if med else float("inf")}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seed", type=int, default=1, help="first seed")
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--a", default=ROOT, help="checkout A (default: this one)")
    ap.add_argument("--b", default=None, help="checkout B, for ABBA pairs")
    ap.add_argument("--out", default=None, help="write raw runs as JSON")
    args = ap.parse_args()
    if args.runs < 2:
        ap.error("--runs must be at least 2 to compute quartiles")

    workloads = args.workloads.split(",")
    sides = {"A": os.path.abspath(args.a)}
    if args.b:
        sides["B"] = os.path.abspath(args.b)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    runs = []
    for i in range(args.runs):
        order = list(sides) if i % 2 == 0 else list(reversed(list(sides)))
        for w in workloads:
            for side in order:
                r = run_once(sides[side], w, args.seed + i, args.seconds,
                             args.trace)
                r.update(side=side, workload=w, seed=args.seed + i)
                runs.append(r)
                status = "ok" if r["ok"] else f"FAILED ({r.get('code')})"
                print(f"run {i + 1}/{args.runs} {side} {w} seed "
                      f"{args.seed + i}: {status}", file=sys.stderr)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(runs, f, indent=1)

    flagged = 0
    failed = sum(1 for r in runs if not r["ok"])
    for w in workloads:
        print(f"\n== {w}")
        print(f"{'metric':32} {'side':4} {'median':>12} {'q1':>12} "
              f"{'q3':>12} {'min':>12} {'max':>12} {'spread':>7}  flag")
        medians = {}
        names = []
        for r in runs:
            if r["ok"] and r["workload"] == w:
                for n in r["result"]["metrics"]:
                    if n not in names:
                        names.append(n)
        for name in names:
            for side in sides:
                vals = [r["result"]["metrics"][name]["value"] for r in runs
                        if r["ok"] and r["workload"] == w and r["side"] == side
                        and name in r["result"]["metrics"]]
                if len(vals) < 2:
                    continue
                s = summarize(vals)
                medians[(name, side)] = s["median"]
                bound = bounds.get(name) if args.trace == 0 else None
                flag = ""
                if bound is not None and s["spread"] > bound:
                    flag = f"spread > bound {bound}"
                    flagged += 1
                print(f"{name:32} {side:4} {s['median']:12.6g} {s['q1']:12.6g} "
                      f"{s['q3']:12.6g} {s['min']:12.6g} {s['max']:12.6g} "
                      f"{s['spread']:7.3f}  {flag}")
            if "B" in sides and (name, "A") in medians and (name, "B") in medians:
                a, b = medians[(name, "A")], medians[(name, "B")]
                better = next((m["better"] for m in spec["end_to_end"]
                               if m["name"] == name), None)
                bound = bounds.get(name) if args.trace == 0 else None
                change = (b - a) / a if a else 0.0
                worse = -change if better == "higher" else change
                flag = ""
                if bound is not None and worse > bound:
                    flag = f"B worse than A by more than {bound}"
                    flagged += 1
                print(f"{'':32} B/A  {change:+.3%}  {flag}")
    print(f"\n{len(runs)} runs, {failed} failed, {flagged} flags")
    return 1 if failed or flagged else 0


if __name__ == "__main__":
    sys.exit(main())
