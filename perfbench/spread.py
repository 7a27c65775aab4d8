"""Run the benchmark over several seeds and report each metric's spread.

Usage (from the root of a checkout)::

    python3 perfbench/spread.py --workloads thm2-ingest mg-wal-frames --seeds 1-10 --trace 0

For every metric it prints its name, the median of the runs with its unit,
and the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of that median, next to
the metric's bound from ``BENCHMARK.json``.
Runs of different workloads alternate, so slow host drift spreads over all
of them instead of landing on one.  Raw results go to ``--out`` as JSON lines.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text: str):
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(part) for part in text.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=os.path.join(ROOT, ".perfbench_runs", "spread.jsonl"))
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    bounds = {metric["name"]: metric.get("bound") for metric in spec["end_to_end"]}
    os.makedirs(os.path.dirname(args.out), exist_ok=True)
    values = {workload: {} for workload in args.workloads}
    units = {}
    with open(args.out, "a", encoding="utf-8") as out:
        for seed in parse_seeds(args.seeds):
            for workload in args.workloads:
                started = time.perf_counter()
                completed = subprocess.run(
                    [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                     "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                     "--trace", str(args.trace)],
                    cwd=ROOT, capture_output=True, text=True, check=False,
                )
                wall = time.perf_counter() - started
                if completed.returncode != 0:
                    print(completed.stderr, file=sys.stderr)
                    return completed.returncode
                result = json.loads(completed.stdout.strip().splitlines()[-1])
                environment = next(
                    (json.loads(line)["environment"] for line in completed.stderr.splitlines()
                     if line.startswith('{"environment"')), {})
                out.write(json.dumps({"workload": workload, "seed": seed, "wall_s": wall,
                                      "environment": environment, "result": result}) + "\n")
                out.flush()
                print(f"{workload} seed {seed}: {wall:.1f}s correct={result['correct']} "
                      f"failed={result['failed']}/{result['attempted']}", flush=True)
                for name, entry in result["metrics"].items():
                    values[workload].setdefault(name, []).append(entry["value"])
                    units[name] = entry["unit"]
    for workload, metrics in values.items():
        print(f"\n{workload}")
        for name, series in metrics.items():
            median = statistics.median(series)
            if len(series) >= 2 and median:
                q1, _, q3 = statistics.quantiles(series, n=4)
                spread = f"{(q3 - q1) / abs(median):7.3f}"
            else:
                spread = "      -"
            bound = bounds.get(name)
            print(f"  {name:40s} median {median:12.6g} {units[name]:9s} spread {spread}"
                  f"  bound {bound if bound is not None else '-'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
