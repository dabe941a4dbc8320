#!/usr/bin/env python3
"""Build and run the WedgeBlock benchmark.

    python3 perfbench/run.py --workload <trickle|read_mixed> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds `perfbench` (release, offline) into
$CARGO_TARGET_DIR (default `.bench_build`), times the workload's set-up in
SETUP_REPEATS - 1 fresh processes of their own, then runs the measured
process, which sets up once more, drives the workload and checks every
output. Each process is a fresh one, so peak RSS and disk use belong to
its workload alone. With --trace 0 `setup_s` is the median of all set-up timings, so
work moved into set-up shows. Prints a run record line, then the result as
the last line of standard output. Exits non-zero without a result if the
build or any run fails.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

# Set-ups timed per run: the read_mixed preload writes 260 MB and takes
# 12-22 s (plus as long again to delete it), so it is set up twice.
SETUP_REPEATS = {"trickle": 3, "read_mixed": 2}
# Every process of one run, after the build, must end within this many
# seconds.
RUN_BUDGET_S = 170
SCRATCH = ".bench_run"
# Inputs of the build that identify the code under test when the checkout
# carries no git metadata.
SOURCE_ROOTS = ["crates", "vendor", "perfbench", "Cargo.lock", ".cargo"]


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(target_dir):
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join("perfbench", "Cargo.toml"),
    ]
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    done = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        fail("build failed")
    return os.path.join(target_dir, "release", "perfbench")


def run_child(binary, args, deadline):
    """Runs one benchmark process; returns its last stdout line as JSON."""
    # Start every process from clean page-cache writeback, so one run's
    # deleted files and the build's output do not stall the next run's
    # fsyncs.
    os.sync()
    try:
        done = subprocess.run(
            [binary] + args, stdout=subprocess.PIPE, stderr=sys.stderr,
            timeout=max(deadline - time.monotonic(), 1), text=True,
        )
    except subprocess.TimeoutExpired:
        fail(f"{' '.join(args)}: timed out")
    if done.returncode != 0:
        fail(f"{' '.join(args)}: exit code {done.returncode}")
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail(f"{' '.join(args)}: no output")
    return json.loads(lines[-1])


def source_digest():
    digest = hashlib.sha256()
    for root in SOURCE_ROOTS:
        paths = []
        if os.path.isfile(root):
            paths = [root]
        for base, dirs, files in os.walk(root):
            dirs[:] = sorted(d for d in dirs if d != "target")
            paths += [os.path.join(base, f) for f in sorted(files)]
        for path in paths:
            digest.update(path.encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return digest.hexdigest()[:16]


def git_rev():
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def cpu_record():
    model, avx2 = "unknown", False
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name") and model == "unknown":
                    model = line.split(":", 1)[1].strip()
                if line.startswith("flags") and " avx2" in line:
                    avx2 = True
    except OSError:
        pass
    return model, avx2


def rustflags():
    try:
        with open(os.path.join(".cargo", "config.toml")) as f:
            for line in f:
                if line.strip().startswith("rustflags"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return "none"


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    binary = build(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    deadline = time.monotonic() + RUN_BUDGET_S
    shutil.rmtree(SCRATCH, ignore_errors=True)
    base = [
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds),
    ]
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_REPEATS.get(args.workload, 1) - 1):
                setup = run_child(binary, base + ["--setup-only"], deadline)
                setups.append(setup["setup_s"])
        result = run_child(binary, base + ["--trace", str(args.trace)], deadline)
    finally:
        # The processes leave their node directories behind so that no
        # deletion overlaps a measured window; remove them all now.
        shutil.rmtree(SCRATCH, ignore_errors=True)
        os.sync()

    metrics = result["metrics"]
    if not args.trace:
        setups.append(metrics["setup_s"]["value"])
        metrics["setup_s"]["value"] = statistics.median(setups)
    for name, metric in metrics.items():
        if not isinstance(metric["value"], (int, float)):
            fail(f"metric {name} has no value")
    model, avx2 = cpu_record()
    record = dict(result.get("record", {}))
    record.update({
        "git_rev": git_rev(),
        "source_digest": source_digest(),
        "cpu_model": model,
        "avx2": avx2,
        "build": f"cargo --release, rustflags {rustflags()}",
        "setup_repeats": len(setups) if not args.trace else 1,
        "setup_s_each": setups,
        "errors": result.get("errors", []),
    })
    print(json.dumps({"run_record": record}))
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
