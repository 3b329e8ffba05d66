#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. Builds `perfbench/` (a Cargo package of its
own that depends on the crates under `crates/`) into `$CARGO_TARGET_DIR`
(default `.bench_build`), generates the seeded input in a separate process,
then measures. With `--trace 1` it measures twice, untraced then traced, and
reports the traced run's per-layer metrics plus `trace.overhead_pct`, the
share of `ops_per_s` the tracing cost. The last line of standard output is
the result object; everything else goes to standard error or is a `#` note.
Exit code: 0 when every answer was right, non-zero otherwise.
"""

import argparse
import json
import os
import subprocess
import sys
import time

ROOT = os.getcwd()
DATA = os.path.join(ROOT, ".bench_data")
WORKLOADS = ("serve-hot", "serve-churn")
# The children together get this long after the build; a run whose build
# is already done must end within 180 s.
CHILD_TIMEOUT_S = 170
# Workloads whose measuring process runs on one vCPU. serve-hot is a single
# keep-alive client in ping-pong with the server: on two vCPUs each request
# waits for the other vCPU to wake, a latency the shared host sets, and the
# same work read 7,700 to 13,600 requests/s over five seeds. On one vCPU the
# client and the server's workers hand over by a local context switch, and
# the rate follows the CPU work per request. serve-churn runs two clients
# beside solves and needs both vCPUs.
PINNED = ("serve-hot",)


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def run_child(cmd, deadline, capture, cpus=None):
    """Runs `cmd`, on `cpus` when given, killing it (and waiting for it) if
    it outlives `deadline`."""
    remaining = max(1.0, deadline - time.monotonic())
    proc = subprocess.Popen(
        cmd,
        cwd=ROOT,
        stdout=subprocess.PIPE if capture else sys.stderr,
        stderr=sys.stderr,
        text=True,
        preexec_fn=None if cpus is None else lambda: os.sched_setaffinity(0, cpus),
    )
    try:
        out, _ = proc.communicate(timeout=remaining)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"{' '.join(cmd[:2])} timed out")
    return proc.returncode, out


def build(deadline):
    env_dir = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    target = env_dir if os.path.isabs(env_dir) else os.path.join(ROOT, env_dir)
    os.environ["CARGO_TARGET_DIR"] = target
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", "perfbench/Cargo.toml"]
    code, _ = run_child(cmd, deadline, capture=False)
    if code != 0:
        fail("build failed")
    return os.path.join(target, "release", "perfbench")


def measure(binary, args, trace, deadline):
    """Runs one measurement; echoes its notes and returns (exit code,
    result object, notes)."""
    cmd = [
        binary, "measure", "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", "1" if trace else "0", "--dir", DATA,
    ]
    cpus = {max(os.sched_getaffinity(0))} if args.workload in PINNED else None
    code, out = run_child(cmd, deadline, capture=True, cpus=cpus)
    lines = out.strip().splitlines()
    if code not in (0, 1) or not lines:
        fail(f"measure exited with {code}")
    for line in lines[:-1]:
        print(line)
    return code, json.loads(lines[-1]), lines[:-1]


def traced_ops_per_s(notes):
    for line in notes:
        parts = line.split()
        if parts[:4] == ["#", "end-to-end", "(traced)", "ops_per_s"]:
            return float(parts[4])
    fail("traced run reported no ops_per_s")


def main():
    started = time.monotonic()
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")
    for needed in ("Cargo.toml", "crates/core/Cargo.toml", "crates/serve/Cargo.toml", "perfbench/Cargo.toml"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            fail(f"{needed} not found: run from the root of a full checkout")

    binary = build(started + 600)
    os.makedirs(DATA, exist_ok=True)
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    prep = [binary, "prepare", "--workload", args.workload, "--seed", str(args.seed), "--dir", DATA]
    code, _ = run_child(prep, deadline, capture=False)
    if code != 0:
        fail("input generation failed")
    try:
        if args.trace:
            code_plain, plain, _ = measure(binary, args, False, deadline)
            code, result, notes = measure(binary, args, True, deadline)
            base = plain["metrics"]["ops_per_s"]["value"]
            traced = traced_ops_per_s(notes)
            result["metrics"]["trace.overhead_pct"] = {
                "value": 100.0 * (base - traced) / base if base > 0 else 0.0,
                "unit": "%",
            }
            result["correct"] = result["correct"] and plain["correct"]
            result["failed"] += plain["failed"]
            code = max(code, code_plain)
        else:
            code, result, _ = measure(binary, args, False, deadline)
    finally:
        for name in os.listdir(DATA):
            if name.endswith((".pcov", ".jsonl")):
                os.remove(os.path.join(DATA, name))
    print(json.dumps(result))
    sys.exit(code)


if __name__ == "__main__":
    main()
