"""Spans carry name/start/end/parent, and self time excludes direct children."""

import gzip
import json
import time

from spans import SpanRecorder


class _Layer:
    def outer(self, recorder):
        time.sleep(0.01)
        self.inner()
        self.inner()

    def inner(self):
        time.sleep(0.005)


def test_patched_calls_nest_and_self_time_subtracts_children(tmp_path):
    recorder = SpanRecorder()
    layer = _Layer()
    with recorder.patched(_Layer, "outer", "layer.outer"), \
            recorder.patched(_Layer, "inner", "layer.inner"):
        recorder.new_trace("ingest")
        layer.outer(recorder)
    assert _Layer.__dict__["inner"].__name__ == "inner"  # unwrapped again
    by_name = {span.name: span for span in recorder.spans}
    outer = by_name["layer.outer"]
    inners = [span for span in recorder.spans if span.name == "layer.inner"]
    assert len(inners) == 2
    assert all(span.parent == outer.span_id for span in inners)
    assert outer.parent is None
    assert all(span.trace == outer.trace for span in inners)
    self_time = recorder.self_times()
    expected = outer.duration - sum(span.duration for span in inners)
    assert abs(self_time[outer.span_id] - expected) < 1e-12
    assert self_time[outer.span_id] >= 0.009
    for span in inners:
        assert self_time[span.span_id] == span.duration
    totals = recorder.by_name(("ingest",))
    assert totals["layer.inner"][0] == 2

    path = tmp_path / "spans.jsonl.gz"
    recorder.write(str(path))
    with gzip.open(path, "rt") as handle:
        records = [json.loads(line) for line in handle]
    assert {"name", "start", "end", "parent", "trace", "span_id"} <= set(records[0])
    assert all(record["end"] >= record["start"] >= 0 for record in records)


def test_explicit_spans_nest():
    recorder = SpanRecorder()
    with recorder.span("a") as parent:
        with recorder.span("b") as child:
            pass
    assert child.parent == parent.span_id
    assert recorder.self_times()[parent.span_id] <= parent.duration
