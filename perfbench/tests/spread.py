#!/usr/bin/env python3
"""Spread of repeated benchmark runs.

    python3 perfbench/tests/spread.py runs.jsonl [other.jsonl]

Each file holds one run.py result line per run (same workload).  For every
metric the script prints the median and the distance between the first and
third quartile (statistics.quantiles(values, n=4)) as a share of the median,
next to the metric's bound from BENCHMARK.json.  Given a second file, it also
prints how much worse the second median is than the first, as a share of the
first, in the direction BENCHMARK.json calls worse.  Run from the root of a
checkout.
"""

import json
import statistics
import sys
from pathlib import Path


def load(path):
    runs = [json.loads(line) for line in Path(path).read_text().splitlines() if line.strip()]
    values = {}
    for r in runs:
        for name, m in r["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    return len(runs), values


def main():
    spec = json.loads(Path("BENCHMARK.json").read_text())
    info = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    n, first = load(sys.argv[1])
    second = load(sys.argv[2])[1] if len(sys.argv) > 2 else None
    print(f"{n} runs")
    print(f"{'metric':40} {'median':>14} {'spread':>8} {'bound':>6}" +
          (f" {'worse by':>9}" if second else ""))
    for name, vals in first.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else float("nan")
        bound = info.get(name, {}).get("bound")
        line = f"{name:40} {med:14.6g} {spread:8.3f} {bound if bound is not None else '-':>6}"
        if second and name in second:
            med2 = statistics.median(second[name])
            worse = (med2 - med) / med if info[name]["better"] == "lower" else (med - med2) / med
            line += f" {worse:9.3f}"
        print(line)


if __name__ == "__main__":
    main()
