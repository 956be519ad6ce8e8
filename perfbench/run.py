#!/usr/bin/env python3
"""Builds the benchmark from this checkout's sources and runs one workload.

    python3 perfbench/run.py --workload predict-read --seed 1 --seconds 30 --trace 0

The build goes to .bench_build/perfbench under the checkout root (configured
once, then incremental). The benchmark binary prints a metadata line and a
result line; this script checks the result against BENCHMARK.json (every
declared metric present with its unit) and passes both lines through, the
result last. It exits non-zero when the build fails, the run fails a
correctness gate, or the result does not match the declaration. A run the
binary marks void (its generator fell behind schedule) is measured again,
once, if that still fits the time limit. --seconds defaults to
BENCHMARK.json's run_seconds.
"""

import argparse
import json
import os
import re
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
# One attempt may take the measured seconds plus this much for set-up
# (41 SUT start-ups), verification, the freshness probe and shutdown.
OVERHEAD_S = 60
# All attempts together stay under this.
TOTAL_LIMIT_S = 170
MAX_ATTEMPTS = 2
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"no library sources under {ROOT}/src; nothing to build")
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build failed: " + " ".join(cmd))
            return False
    return True


def load_spec():
    """BENCHMARK.json, or None when the checkout has none."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        return json.load(f)


def declared_metrics(trace):
    """(name, unit) pairs BENCHMARK.json declares for this kind of run."""
    spec = load_spec()
    if spec is None:
        return None
    return [(m["name"], m["unit"])
            for m in spec["per_layer" if trace else "end_to_end"]]


def check_result(result, trace):
    """Problems with the result line's shape; empty when it is valid."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
        return problems
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append("attempted must be a whole number >= 1")
    if not isinstance(result["failed"], int) or result["failed"] < 0:
        problems.append("failed must be a whole number >= 0")
    for name, m in result["metrics"].items():
        if not NAME_RE.match(name):
            problems.append(f"metric name {name!r}")
        if set(m) != {"value", "unit"}:
            problems.append(f"metric {name} keys {sorted(m)}")
    declared = declared_metrics(trace)
    if declared is not None:
        got = {n: m.get("unit") for n, m in result["metrics"].items()}
        want = dict(declared)
        if set(got) != set(want):
            problems.append(f"metrics differ from BENCHMARK.json: missing "
                            f"{sorted(set(want) - set(got))}, extra "
                            f"{sorted(set(got) - set(want))}")
        for name, unit in want.items():
            if name in got and got[name] != unit:
                problems.append(f"metric {name} unit {got[name]} != {unit}")
    return problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    spec = load_spec()
    ap.add_argument("--seconds", type=int,
                    default=spec["run_seconds"] if spec else 30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not build():
        return 2
    timeout_s = args.seconds + OVERHEAD_S
    start = time.monotonic()
    # A run whose generator fell behind its own schedule by more than the
    # SUT's p50 measured the generator, not the SUT: the binary marks it
    # void ("valid": false) and it is measured once more.
    for attempt in range(1, MAX_ATTEMPTS + 1):
        code, lines = run_binary(args, timeout_s)
        if code is None:
            return 3
        if not lines:
            log(f"no output (exit code {code})")
            return code or 4
        try:
            result = json.loads(lines[-1])
            meta = json.loads(lines[-2]) if len(lines) > 1 else {}
        except json.JSONDecodeError:
            log("output is not JSON: " + lines[-1][:200])
            return 4
        valid = meta.get("metadata", {}).get("valid", True)
        if code != 0 or valid or attempt == MAX_ATTEMPTS:
            break
        if time.monotonic() - start + timeout_s > TOTAL_LIMIT_S:
            log(f"attempt {attempt} void (generator late); no time to "
                "measure again")
            break
        log(f"attempt {attempt} void (generator late); measuring again")
    problems = check_result(result, args.trace == 1)
    if problems:
        for p in problems:
            log("invalid result: " + p)
        return 5
    if "metadata" in meta:
        meta["metadata"]["attempts"] = attempt
        lines[-2] = json.dumps(meta)
    for line in lines:
        print(line)
    return code


def run_binary(args, timeout_s):
    """(exit code, non-empty stdout lines); code None on timeout."""
    work_dir = os.path.join(ROOT, ".bench_build", "runs", str(os.getpid()))
    os.makedirs(work_dir, exist_ok=True)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=timeout_s)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {timeout_s} s")
        return None, []
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    return proc.returncode, [l for l in proc.stdout.splitlines() if l.strip()]


if __name__ == "__main__":
    sys.exit(main())
