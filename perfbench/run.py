#!/usr/bin/env python3
"""Build the benchmark binary and run one workload of the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload identify_known --seed 1 \\
        --seconds 10 --trace 0

The benchmark binary, pcbench, is built from source into
.bench_build/perfbench on first use. Served workloads get their seeded
population written to a scratch directory under .bench_data/ by a
separate process first, so its build time and memory stay out of the
measured process; the scratch directory is removed afterwards. Traced runs leave their spans
in .bench_out/. The last line of stdout is the JSON result; build logs
and progress go to stderr. See perfbench/README.md.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
DATA = os.path.join(ROOT, ".bench_data")
OUT = os.path.join(ROOT, ".bench_out")

SERVED = ("identify_known", "identify_reject", "enroll")
WORKLOADS = SERVED + ("campaign_cluster",)

# Prepare plus run must end within 180 s (a first run may also build);
# leave room for the build check and clean-up.
RUN_BUDGET_S = 170


def log(message):
    print(f"run.py: {message}", file=sys.stderr, flush=True)


def build():
    """Configure (once) and build pcbench; return its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "service.hh")):
        raise SystemExit("run.py: no repository sources beside perfbench/")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "--target", "pcbench",
                    "-j", jobs], stdout=sys.stderr, check=True)
    return os.path.join(BUILD, "pcbench")


def source_id():
    """The git commit, or a digest of the sources outside a git tree."""
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, check=True)
        return head.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-" + digest.hexdigest()[:16]


def run(cmd, deadline):
    """Run one child to completion by deadline (time.monotonic());
    past it the child is killed and reaped."""
    try:
        return subprocess.run(
            cmd, timeout=max(1.0, deadline - time.monotonic())).returncode
    except subprocess.TimeoutExpired:
        log(f"out of time after {RUN_BUDGET_S} s: {' '.join(cmd[:3])}")
        return 124


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    # Scale and self-test knobs (the smoke test uses them).
    ap.add_argument("--records", type=int, default=100000)
    ap.add_argument("--chips", type=int, default=2000)
    ap.add_argument("--corrupt", choices=("verdict", "truth"))
    args = ap.parse_args()

    pcbench = build()
    deadline = time.monotonic() + RUN_BUDGET_S
    cmd = [pcbench, "run", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--records", str(args.records),
           "--chips", str(args.chips),
           "--commit", source_id()]
    if args.corrupt:
        cmd += ["--corrupt", args.corrupt]
    if args.trace:
        os.makedirs(OUT, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            OUT, f"trace-{args.workload}-seed{args.seed}.jsonl")]

    if args.workload not in SERVED:
        return run(cmd, deadline)

    data = os.path.join(DATA, f"{args.workload}-{os.getpid()}")
    os.makedirs(data, exist_ok=True)
    try:
        store = os.path.join(data, "population.pcdb")
        code = run([pcbench, "prepare", "--seed", str(args.seed),
                    "--records", str(args.records), "--out", store],
                   deadline)
        if code != 0:
            log("population prepare failed")
            return code or 1
        return run(cmd + ["--data-dir", data, "--store", store], deadline)
    finally:
        shutil.rmtree(data, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
