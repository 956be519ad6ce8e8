#!/usr/bin/env python3
"""Output-schema self-test: short real runs of every workload, untraced and
traced, must print a metadata line and a result line whose metrics match
BENCHMARK.json (names in [A-Za-z0-9_.-], every metric with a unit and a
sample count in the metadata) and pass every correctness gate.

    python3 perfbench/tests/check_output.py <path to the perfbench binary>
"""

import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))
import run  # noqa: E402  (perfbench/run.py: the result checker)


def check(binary, workload, trace):
    with tempfile.TemporaryDirectory() as work:
        proc = subprocess.run(
            [binary, "--workload", workload, "--seed", "5", "--seconds", "2",
             "--trace", str(trace), "--work-dir", work],
            stdout=subprocess.PIPE, text=True, timeout=170)
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    problems = []
    if proc.returncode != 0 or len(lines) < 2:
        return [f"exit code {proc.returncode}, {len(lines)} lines"]
    result = json.loads(lines[-1])
    meta = json.loads(lines[-2])["metadata"]
    problems += run.check_result(result, trace == 1)
    if not result.get("correct"):
        problems.append("correct is false: " + ", ".join(meta["problems"]))
    for name in result.get("metrics", {}):
        if name not in meta["samples"]:
            problems.append(f"no sample count for {name}")
    for key in ("nproc", "placement", "build_type", "seed", "phase_seconds"):
        if key not in meta:
            problems.append(f"metadata lacks {key}")
    return problems


def main():
    binary = sys.argv[1]
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        workloads = [w["name"] for w in json.load(f)["workloads"]]
    failed = False
    for workload in workloads:
        for trace in (0, 1):
            problems = check(binary, workload, trace)
            status = "ok" if not problems else "FAILED"
            print(f"{workload} trace={trace}: {status}")
            for p in problems:
                print("  " + p)
            failed = failed or bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
