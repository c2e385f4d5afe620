#!/usr/bin/env python3
"""Run one workload of the repository benchmark and print its metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a checkout.  It builds perfbench/ (which builds the
absort library from the checkout's own sources) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench, then runs the
absort_perf measuring process on the named workload with a JIT cache
directory of its own that starts empty.

--trace 0 reports the end-to-end metrics of BENCHMARK.json.  setup_s is the
median of three cold set-ups: the measuring process's own and two more
processes that only set up, each with a fresh JIT cache.
--trace 1 runs the traced run instead and reports the per-layer metrics; its
spans go to <build dir>/trace-<workload>.json (Chrome trace-event JSON).

The last line of standard output is one JSON object:
    {"correct": true, "attempted": N, "failed": F, "metrics": {name: {"value", "unit"}}}
Any failure (no sources to build, a wrong answer, a missing metric) exits
non-zero without printing it.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# A run (after the build) must end within this many seconds.
RUN_BUDGET_S = 170
BUILD_BUDGET_S = 850


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def run_proc(cmd, env, timeout, capture):
    """Runs cmd in its own process group; kills the whole group on timeout."""
    proc = subprocess.Popen(
        cmd,
        env=env,
        stdout=subprocess.PIPE if capture else sys.stderr,
        stderr=sys.stderr,
        text=True,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"timed out after {timeout:.0f} s: {' '.join(cmd)}")
    if proc.returncode != 0:
        fail(f"exit code {proc.returncode}: {' '.join(cmd)}")
    return out


def build(root, build_dir, env, target="absort_perf"):
    """Configures (once) and builds `target` of the perfbench package."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    deadline = time.monotonic() + BUILD_BUDGET_S
    if not (build_dir / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(root / "perfbench"), "-B", str(build_dir),
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_proc(cmd, env, deadline - time.monotonic(), capture=False)
    run_proc(["cmake", "--build", str(build_dir), "--target", target, "-j", jobs],
             env, deadline - time.monotonic(), capture=False)
    return build_dir / target


def build_env(root):
    """The build directory and an environment whose TMPDIR lies inside it."""
    build_dir = root / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"
    tmp = build_dir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    return build_dir, dict(os.environ, TMPDIR=str(tmp))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = Path.cwd()
    try:
        spec = json.loads((root / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    build_dir, env = build_env(root)
    tmp = Path(env["TMPDIR"])
    binary = build(root, build_dir, env)

    deadline = time.monotonic() + RUN_BUDGET_S
    jit_dirs = []

    def measure(extra):
        jit = tempfile.mkdtemp(prefix="jit-", dir=tmp)
        jit_dirs.append(jit)
        cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds)] + extra
        out = run_proc(cmd, dict(env, ABSORT_JIT_CACHE=jit), deadline - time.monotonic(),
                       capture=True)
        lines = out.strip().splitlines()
        if not lines:
            fail("absort_perf printed nothing")
        for line in lines[:-1]:
            print(line)
        return json.loads(lines[-1])

    try:
        if args.trace:
            trace_file = build_dir / f"trace-{args.workload}.json"
            result = measure(["--trace-out", str(trace_file)])
        else:
            result = measure([])
            setups = [result["metrics"]["setup_s"]["value"]]
            for _ in range(2):
                setups.append(measure(["--setup-only"])["setup_s"])
            print("setup_s   median of " + ", ".join(f"{s:.3f}" for s in setups) + " s")
            result["metrics"]["setup_s"]["value"] = statistics.median(setups)
    finally:
        for d in jit_dirs:
            shutil.rmtree(d, ignore_errors=True)

    metrics = result["metrics"]
    names = [m["name"] for m in wanted]
    if sorted(metrics) != sorted(names):
        fail(f"metrics differ from BENCHMARK.json: got {sorted(metrics)}, want {sorted(names)}")
    for m in wanted:
        if metrics[m["name"]]["unit"] != m["unit"]:
            fail(f"{m['name']}: unit {metrics[m['name']]['unit']!r}, want {m['unit']!r}")
    print(json.dumps({"correct": True, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
