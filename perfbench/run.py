"""Served-path benchmark of the heavy-hitter service.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload thm2-ingest --seed 1 --seconds 15 --trace 0

Each run boots fresh ``python -m repro serve`` processes on a Unix socket in
a fresh run directory, drives one fixed-work workload through them, checks
every answer against Definition 1, and prints one JSON object as the last
line of standard output.  With ``--trace 0`` it reports the end-to-end
metrics; with ``--trace 1`` it also replays the same inputs in-process
through each layer's public functions, timing spans from the benchmark's own
code, and reports the per-layer metrics.  See ``perfbench/METRICS.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS_DIR = os.path.join(ROOT, ".perfbench_runs")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument(
        "--seconds", type=int, default=30,
        help="nominal run length, recorded only: the work is fixed and sized to "
             "take about this long",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full",
        help="tiny shrinks every count for the benchmark's self-tests",
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"perfbench: no src/repro under {ROOT}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    import hostenv
    import metrics
    import workloads
    from served import BenchError, ServedRun

    if args.workload not in workloads.PLANS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.PLANS)}", file=sys.stderr)
        return 2
    plan = workloads.PLANS[args.workload]
    if args.size == "tiny":
        plan = workloads.tiny(plan)

    run_dir = os.path.join(RUNS_DIR, f"{plan.name}-s{args.seed}-t{args.trace}-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(os.path.join(run_dir, "ckpt"))
    # Start from a quiet disk: writes left pending by whatever ran before
    # (another run's deleted WAL and spill files) would otherwise be paid
    # by this run's first fsyncs.
    os.sync()
    try:
        env = hostenv.environment(run_dir)
        env["host.spin_ms"] = hostenv.spin_ms()
        env["seconds_requested"] = args.seconds
        inputs = workloads.make_inputs(plan, args.seed)
        started = time.perf_counter()
        served = ServedRun(ROOT, run_dir, plan, args.seed, inputs, traced=bool(args.trace)).run()
        env["served_wall_s"] = time.perf_counter() - started
        _write_samples(run_dir, served, env)
        traced = None
        if args.trace:
            import traced as traced_pass

            traced = traced_pass.run(plan, inputs, run_dir, args.seed)
        result = metrics.build(served, traced, env, args.trace)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    finally:
        _prune(run_dir)
        os.sync()
    for problem in served.tally.problems:
        print(f"perfbench: FAILED {problem}", file=sys.stderr)
    if args.trace and result["metrics"]["served.unattributed_share"]["value"] < 0:
        print("perfbench: FLAG summed in-process self times exceed the served ingest "
              "time; the served layers overlapped", file=sys.stderr)
    for miss in served.prefix_misses:
        print(f"perfbench: prefix answer outside Definition 1: {miss}", file=sys.stderr)
    print(json.dumps({"environment": env, "run_dir": os.path.relpath(run_dir, ROOT)}),
          file=sys.stderr)
    for line in metrics.human_lines(result, served):
        print(line)
    print(json.dumps(result))
    return 0


def _write_samples(run_dir: str, served, env) -> None:
    """Every raw sample of the served pass, for looking into a noisy metric."""
    record = {key: value for key, value in vars(served).items() if key != "tally"}
    record["environment"] = env
    with open(os.path.join(run_dir, "samples.json"), "w", encoding="utf-8") as handle:
        json.dump(record, handle)


def _prune(run_dir: str) -> None:
    """Drop a run's bulky files (WAL, checkpoints, spills), keep its logs."""
    for entry in os.listdir(run_dir):
        path = os.path.join(run_dir, entry)
        if os.path.isdir(path):
            shutil.rmtree(path, ignore_errors=True)
        elif entry.endswith(".sock"):
            os.unlink(path)


if __name__ == "__main__":
    sys.exit(main())
