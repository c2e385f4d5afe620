#!/usr/bin/env python3
"""The benchmark's own tests.  Run from the root of a checkout:

    python3 perfbench/tests/smoke.py [--seconds 4]

1. Builds and runs perf_unit (percentile and answer-oracle unit checks).
2. Runs every workload of BENCHMARK.json (and service_batch_large) for a few
   seconds, untraced and traced, and checks that each result line has exactly
   the contract's keys and names exactly the metrics (and units)
   BENCHMARK.json lists.
3. Copies only BENCHMARK.json and perfbench/ into a temporary directory and
   checks that the benchmark fails there (non-zero exit, no result line).

Exits non-zero on the first failure.
"""

import argparse
import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
import run  # noqa: E402  (perfbench/run.py: shared build helpers)

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
# Runnable but left out of BENCHMARK.json (see README.md); smoked all the same.
EXTRA_WORKLOADS = ["service_batch_large"]


def check(cond, what):
    if not cond:
        print(f"FAIL: {what}", file=sys.stderr)
        sys.exit(1)


def last_json(stdout):
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except ValueError:
        return None


def smoke(root, spec, workload, trace, seconds):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=900)
    tag = f"{workload} --trace {trace}"
    check(proc.returncode == 0, f"{tag}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    res = last_json(proc.stdout)
    check(isinstance(res, dict) and set(res) == RESULT_KEYS, f"{tag}: result keys {res}")
    check(res["correct"] is True, f"{tag}: correct is not true")
    check(isinstance(res["attempted"], int) and res["attempted"] >= 1, f"{tag}: attempted")
    check(isinstance(res["failed"], int) and 0 <= res["failed"] <= res["attempted"],
          f"{tag}: failed")
    wanted = spec["per_layer" if trace else "end_to_end"]
    check(sorted(res["metrics"]) == sorted(m["name"] for m in wanted),
          f"{tag}: metric names differ from BENCHMARK.json")
    for m in wanted:
        got = res["metrics"][m["name"]]
        check(set(got) == {"value", "unit"} and got["unit"] == m["unit"],
              f"{tag}: {m['name']} is {got}")
        check(isinstance(got["value"], (int, float)) and math.isfinite(got["value"]),
              f"{tag}: {m['name']} value {got['value']}")
    for m in spec["end_to_end"] if not trace else []:
        check(res["metrics"][m["name"]]["value"] != 0, f"{tag}: {m['name']} reads 0")
    print(f"ok   {tag}: {res['attempted']} attempted, {res['failed']} failed")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seconds", type=float, default=4)
    args = ap.parse_args()
    root = Path.cwd()
    spec = json.loads((root / "BENCHMARK.json").read_text())

    build_dir, env = run.build_env(root)
    unit = run.build(root, build_dir, env, target="perf_unit")
    check(subprocess.run([str(unit)]).returncode == 0, "perf_unit")

    for w in [w["name"] for w in spec["workloads"]] + EXTRA_WORKLOADS:
        for trace in (0, 1):
            smoke(root, spec, w, trace, args.seconds)

    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=env["TMPDIR"]))
    try:
        shutil.copy(root / "BENCHMARK.json", bare)
        for p in spec["paths"]:
            shutil.copytree(root / p, bare / p)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", spec["workloads"][0]["name"],
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
            env={k: v for k, v in env.items() if k != "CARGO_TARGET_DIR"})
        check(proc.returncode != 0, "benchmark without the repository's sources exited 0")
        check(last_json(proc.stdout) is None, "benchmark without sources printed a result")
        print("ok   without the repository's sources: exit", proc.returncode)
    finally:
        shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    main()
