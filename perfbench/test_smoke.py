#!/usr/bin/env python3
"""Toy-scale smoke test of the benchmark itself.

Runs every workload of BENCHMARK.json at toy scale (1k records, a
100-chip campaign, 1 s phases) through perfbench/run.py, untraced and
traced, and checks that:

- every run succeeds with no failed operation;
- every end-to-end metric prints, nonzero, with its unit (untraced),
  and every per-layer metric prints with its unit (traced);
- the traced layer counters hold their defining values
  (store.fallback_fraction 0 on identify_known and 1 on
  identify_reject; wal.checkpoints = adds / 1024 on enroll; purity =
  ARI = 1 on campaign_cluster);
- a corrupted expected verdict and a corrupted ground-truth label are
  each reported as a failed operation with a nonzero exit;
- without the repository sources beside it the benchmark exits
  nonzero and prints no result.

Run from anywhere:  python3 perfbench/test_smoke.py
"""

import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TOY = ["--seconds", "1", "--records", "1000", "--chips", "100"]

failures = []


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        failures.append(what)


def bench(workload, trace, *extra, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
           "--workload", workload, "--seed", "7", "--trace", str(trace)]
    proc = subprocess.run(cmd + TOY + list(extra), cwd=cwd,
                          capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc, result


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)

    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc, res = bench(workload, trace)
            tag = f"{workload} trace={trace}"
            check(proc.returncode == 0 and res is not None and
                  res["correct"] and res["failed"] == 0 and
                  res["attempted"] >= 1, f"{tag}: clean run")
            if res is None:
                print(proc.stdout[-3000:], proc.stderr[-3000:])
                continue
            metrics = res["metrics"]
            check(set(metrics) == {m["name"] for m in spec[key]},
                  f"{tag}: prints exactly the {key} metrics")
            for m in spec[key]:
                got = metrics.get(m["name"])
                check(got is not None and got["unit"] == m["unit"],
                      f"{tag}: {m['name']} in {m['unit']}")
                if key == "end_to_end":
                    check(got is not None and got["value"] > 0,
                          f"{tag}: {m['name']} is nonzero")
            if not trace:
                continue
            layer = {k: v["value"] for k, v in metrics.items()}
            if workload == "identify_known":
                check(layer["store.fallback_fraction"] == 0,
                      f"{tag}: store.fallback_fraction = 0")
            if workload == "identify_reject":
                check(layer["store.fallback_fraction"] == 1,
                      f"{tag}: store.fallback_fraction = 1")
            if workload == "enroll":
                wal = re.search(r"^wal: (\d+) adds, (\d+) checkpoints",
                                proc.stdout, re.M)
                check(wal is not None and
                      int(wal.group(1)) == 1024 * int(wal.group(2)) and
                      layer["wal.checkpoints"] == int(wal.group(2)),
                      f"{tag}: wal.checkpoints = adds / 1024")
            if workload == "campaign_cluster":
                check(layer["cluster.purity"] == 1 and
                      layer["cluster.ari"] == 1,
                      f"{tag}: purity = ari = 1")

    # enroll sends identifies only in its traced run (reads beside
    # writes), so its verdict check is exercised there.
    for workload, trace, corrupt in (("identify_known", 0, "verdict"),
                                     ("enroll", 1, "verdict"),
                                     ("campaign_cluster", 0, "truth")):
        proc, res = bench(workload, trace, "--corrupt", corrupt)
        check(proc.returncode != 0 and res is not None and
              not res["correct"] and res["failed"] >= 1,
              f"{workload} trace={trace}: corrupted {corrupt} is a failure")

    # Only BENCHMARK.json and perfbench/: no sources, no result.
    bare = os.path.join(ROOT, ".bench_data", f"bare-{os.getpid()}")
    try:
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc, res = bench("identify_known", 0, cwd=bare)
        check(proc.returncode != 0 and res is None,
              "without sources: nonzero exit, no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(failures)} failed check(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
