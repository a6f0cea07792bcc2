#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload under a timeout.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root. The Rust program in this directory does
the measuring (see README.md); this wrapper builds it with cargo into
$CARGO_TARGET_DIR (default `.bench_build`), runs it, kills it if it
overruns, and checks that its last line of output is a well-formed
result. A measuring process that is killed (it overran its limit, or died
of a signal) counts as one failed op, and the run goes on with the next.
It exits non-zero, printing no result, when the build fails, a process
exits with an error, or no process finishes.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
# A run must end within this many seconds once the program is built.
RUN_LIMIT_S = 170
# Measuring processes per run. Throughput on a small shared machine
# varies from process to process more than within one, so a run splits
# its seconds over many processes and reports medians across them.
PROCESSES = 16
# A measuring process may overrun its share of the seconds by this much
# (set-ups, one missed op deadline, exit) before it is killed; sixteen
# overruns of a 30 s run still fit RUN_LIMIT_S.
PROCESS_SLACK_S = 8
BUILD_LIMIT_S = 850
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", choices=["0", "1"], required=True)
    return p.parse_args()


def run_bounded(cmd, limit_s, **kw):
    """Runs cmd, killing it (and waiting for it) if it outlives limit_s."""
    proc = subprocess.Popen(cmd, **kw)
    try:
        out, _ = proc.communicate(timeout=limit_s)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise
    return proc.returncode, out


def main():
    args = parse_args()
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    try:
        code, _ = run_bounded(build, BUILD_LIMIT_S, env=env, stdout=sys.stderr)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    if code != 0:
        print(f"perfbench: build failed with exit code {code}", file=sys.stderr)
        return 1

    exe = os.path.join(target, "release", "perfbench")
    deadline = time.monotonic() + RUN_LIMIT_S
    share_s = args.seconds / PROCESSES
    results, killed = [], 0
    for i in range(PROCESSES):
        left_s = deadline - time.monotonic()
        if left_s < share_s:
            print(f"perfbench: no time left for process {i}", file=sys.stderr)
            break
        cmd = [
            exe,
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--seconds", str(share_s),
            "--trace", args.trace,
            "--work-dir", os.path.join(target, "perfbench-work", f"process-{i}"),
        ]
        result = run_once(cmd, min(left_s, share_s + PROCESS_SLACK_S), env)
        if result is None:
            return 1
        if result == KILLED:
            killed += 1
        else:
            results.append(result)
    if not results:
        print("perfbench: no measuring process finished", file=sys.stderr)
        return 1

    merged = merge(results, killed)
    print(f"{args.workload}: median over {len(results)} processes, {killed} killed")
    for name, m in merged["metrics"].items():
        print(f"  {name:<36} {m['value']:>16.4f} {m['unit']}")
    print(json.dumps(merged), flush=True)
    return 0


KILLED = "killed"


def run_once(cmd, limit_s, env):
    """Runs one measuring process; returns its parsed result, KILLED, or
    None when it failed."""
    try:
        code, out = run_bounded(cmd, limit_s, env=env, stdout=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired:
        print(f"perfbench: process exceeded {limit_s:.0f} s and was killed", file=sys.stderr)
        return KILLED
    lines = out.rstrip("\n").split("\n") if out else []
    for line in lines[:-1]:
        print(line)
    if code < 0:
        print(f"perfbench: process died of signal {-code}", file=sys.stderr)
        return KILLED
    if code != 0 or not lines:
        print(f"perfbench: run failed with exit code {code}", file=sys.stderr)
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError as e:
        print(f"perfbench: last line is not JSON: {e}", file=sys.stderr)
        return None
    if set(result) != RESULT_KEYS:
        print(f"perfbench: result keys {sorted(result)} != {sorted(RESULT_KEYS)}", file=sys.stderr)
        return None
    return result


def merge(results, killed):
    """One result from the processes that finished: counts add up, each
    killed process adds one failed op, and every metric is the median of
    the finished processes' values."""
    names = list(results[0]["metrics"])
    return {
        "correct": killed == 0 and all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results) + killed,
        "failed": sum(r["failed"] for r in results) + killed,
        "metrics": {
            n: {
                "value": statistics.median(r["metrics"][n]["value"] for r in results),
                "unit": results[0]["metrics"][n]["unit"],
            }
            for n in names
        },
    }


if __name__ == "__main__":
    sys.exit(main())
