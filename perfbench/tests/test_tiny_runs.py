"""A tiny-size run of each workload emits every named metric with its unit."""

import gzip
import json
import os
import subprocess
import sys
from collections import defaultdict

import pytest

import metrics
import workloads

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)


def _run(workload, trace):
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert completed.returncode == 0, completed.stderr
    record = next(json.loads(line) for line in completed.stderr.splitlines()
                  if line.startswith('{"environment"'))
    return json.loads(completed.stdout.strip().splitlines()[-1]), os.path.join(ROOT, record["run_dir"])


@pytest.mark.parametrize("workload", list(workloads.PLANS))
@pytest.mark.parametrize("trace, table", [(0, metrics.END_TO_END), (1, metrics.PER_LAYER)])
def test_tiny_run_emits_every_metric(workload, trace, table):
    result, run_dir = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert {name: entry["unit"] for name, entry in result["metrics"].items()} == dict(table)
    for entry in result["metrics"].values():
        assert isinstance(entry["value"], (int, float))
    if trace == 1:
        _check_spans(os.path.join(run_dir, "spans.jsonl.gz"))
    if trace == 0:
        # CPU time is read in clock ticks, too coarse for a tiny run's ingest.
        assert all(entry["value"] > 0 for name, entry in result["metrics"].items()
                   if name != "server_cpu_us_per_item")


def _check_spans(path):
    """The traced pass's spans nest, and self time fits inside each span."""
    with gzip.open(path, "rt") as handle:
        spans = [json.loads(line) for line in handle]
    assert spans
    by_id = {span["span_id"]: span for span in spans}
    children = defaultdict(float)
    for span in spans:
        assert {"name", "start", "end", "parent", "trace"} <= set(span)
        assert span["end"] >= span["start"]
        parent = span["parent"]
        if parent is not None:
            outer = by_id[parent]
            assert outer["start"] <= span["start"] and span["end"] <= outer["end"]
            assert outer["trace"] == span["trace"]
            children[parent] += span["end"] - span["start"]
    assert any(span["parent"] is not None for span in spans)
    for span in spans:
        assert children[span["span_id"]] <= span["end"] - span["start"] + 1e-9
