"""Tests for the observability layer: metrics, tracing, exposition, logging.

The contracts pinned here are the ones the rest of the repo leans on:

* the Prometheus text rendering is *golden* — a format regression is a test
  diff, not a silently broken dashboard;
* recording is thread-safe — the pipeline, the server's connection threads,
  and the replica group all write the same registry concurrently;
* a disabled registry is (near-)free — the hot paths bet on it;
* both exposure paths (frame-protocol ``metrics`` command, HTTP sidecar)
  render the same snapshot identically.
"""

import io
import json
import logging
import sys
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.baselines.misra_gries import MisraGries
from repro.core.heavy_hitters_optimal import OptimalListHeavyHitters
from repro.observability import (
    JsonLogFormatter,
    MetricsHTTPServer,
    PROMETHEUS_CONTENT_TYPE,
    Tracer,
    configure_logging,
    get_registry,
    render_prometheus,
)
from repro.observability.metrics import METRICS_SCHEMA_VERSION, MetricRegistry
from repro.observability.tracing import NULL_TRACER
from repro.pipeline import ArrayBatchSource, PipelinedExecutor
from repro.primitives.rng import RandomSource
from repro.service import IngestServer, STATS_SCHEMA_VERSION, ServiceClient
from repro.streams.generators import zipfian_stream


# -- registry semantics -----------------------------------------------------------------


def test_counter_gauge_histogram_basics():
    registry = MetricRegistry()
    counter = registry.counter("c_total", "a counter")
    counter.inc()
    counter.inc(2.5)
    assert counter.value == 3.5
    with pytest.raises(ValueError):
        counter.inc(-1)

    gauge = registry.gauge("g", "a gauge")
    gauge.set(4)
    gauge.inc()
    gauge.dec(2)
    assert gauge.value == 3
    assert gauge.max == 5

    histogram = registry.histogram("h_seconds", "a histogram", buckets=(0.1, 1.0))
    for value in (0.05, 0.5, 5.0):
        histogram.observe(value)
    assert histogram.count == 3
    assert histogram.sum == pytest.approx(5.55)


def test_registry_reregistration_is_idempotent_but_conflicts_raise():
    registry = MetricRegistry()
    first = registry.counter("x_total", "help", labels=("op",))
    again = registry.counter("x_total", "help", labels=("op",))
    assert first is again
    with pytest.raises(ValueError):
        registry.gauge("x_total", "different kind")
    with pytest.raises(ValueError):
        registry.counter("x_total", "different labels", labels=("other",))


def test_labeled_family_children_are_cached_and_validated():
    registry = MetricRegistry()
    family = registry.counter("cmd_total", "per-command", labels=("command",))
    family.labels(command="push").inc()
    family.labels(command="push").inc()
    family.labels(command="query").inc()
    assert family.labels(command="push") is family.labels(command="push")
    with pytest.raises(ValueError):
        family.labels(wrong="push")
    with pytest.raises(ValueError):
        family.inc()  # labeled family has no sole child
    series = registry.snapshot()["metrics"]["cmd_total"]["series"]
    assert {(s["labels"]["command"], s["value"]) for s in series} == {
        ("push", 2.0), ("query", 1.0),
    }


def test_snapshot_shape_and_schema_version():
    registry = MetricRegistry()
    registry.counter("a_total", "help a").inc()
    snapshot = registry.snapshot()
    assert snapshot["metrics_schema"] == METRICS_SCHEMA_VERSION
    assert snapshot["enabled"] is True
    assert snapshot["metrics"]["a_total"]["type"] == "counter"
    # JSON-safe end to end: the metrics command ships exactly this dict.
    json.dumps(snapshot)


# -- golden Prometheus text format ------------------------------------------------------


def test_prometheus_rendering_is_golden():
    registry = MetricRegistry()
    requests = registry.counter("requests_total", "Total requests.", labels=("command",))
    requests.labels(command="push").inc(3)
    requests.labels(command='we"ird\n').inc()
    registry.gauge("queue_depth", "Live queue depth.").set(2)
    # Exactly-representable observations so the rendered _sum is pinnable.
    histogram = registry.histogram("latency_seconds", "Latency.", buckets=(0.125, 1.0))
    for value in (0.0625, 0.0625, 0.5, 2.5):
        histogram.observe(value)
    # Snapshot sorts metric families by name; series sort by label values.
    expected = "\n".join([
        "# HELP latency_seconds Latency.",
        "# TYPE latency_seconds histogram",
        'latency_seconds_bucket{le="0.125"} 2',
        'latency_seconds_bucket{le="1"} 3',
        'latency_seconds_bucket{le="+Inf"} 4',
        "latency_seconds_sum 3.125",
        "latency_seconds_count 4",
        "# HELP queue_depth Live queue depth.",
        "# TYPE queue_depth gauge",
        "queue_depth 2",
        "# HELP requests_total Total requests.",
        "# TYPE requests_total counter",
        'requests_total{command="push"} 3',
        'requests_total{command="we\\"ird\\n"} 1',
        "",
    ])
    assert render_prometheus(registry.snapshot()) == expected


def test_prometheus_value_formatting_edge_cases():
    registry = MetricRegistry()
    registry.gauge("g_int", "").set(7.0)
    registry.gauge("g_float", "").set(0.125)
    text = render_prometheus(registry.snapshot())
    assert "g_int 7\n" in text        # integral floats render as integers
    assert "g_float 0.125" in text


# -- thread safety ----------------------------------------------------------------------


def test_concurrent_recording_loses_no_updates():
    registry = MetricRegistry()
    counter = registry.counter("n_total", "")
    gauge = registry.gauge("g", "")
    histogram = registry.histogram("h", "", buckets=(0.5,))
    labeled = registry.counter("l_total", "", labels=("worker",))
    per_thread, threads = 2_000, 8

    def record(worker: int) -> None:
        child = labeled.labels(worker=str(worker))
        for _ in range(per_thread):
            counter.inc()
            gauge.inc()
            histogram.observe(0.25)
            child.inc()

    workers = [threading.Thread(target=record, args=(i,)) for i in range(threads)]
    for thread in workers:
        thread.start()
    for thread in workers:
        thread.join()
    total = per_thread * threads
    assert counter.value == total
    assert gauge.value == total
    assert histogram.count == total
    assert histogram.sum == pytest.approx(0.25 * total)
    series = registry.snapshot()["metrics"]["l_total"]["series"]
    assert all(entry["value"] == per_thread for entry in series)
    assert len(series) == threads


# -- disabled-registry overhead guard ---------------------------------------------------


def test_disabled_registry_records_nothing():
    registry = MetricRegistry(enabled=False)
    counter = registry.counter("c_total", "")
    gauge = registry.gauge("g", "")
    histogram = registry.histogram("h", "")
    counter.inc(5)
    gauge.set(9)
    gauge.inc()
    histogram.observe(1.0)
    assert counter.value == 0
    assert gauge.value == 0
    assert gauge.max == 0
    assert histogram.count == 0
    snapshot = registry.snapshot()
    assert snapshot["enabled"] is False
    registry.enable()
    counter.inc()
    assert counter.value == 1
    registry.disable()
    counter.inc()
    assert counter.value == 1


def test_disabled_recording_is_cheap():
    """The disabled path is one attribute check — generously bounded per call.

    An absolute bound (not a relative throughput ratio) on purpose: CI machines
    are noisy, and the semantic half of the guard — no locks taken, nothing
    mutated — is asserted exactly in test_disabled_registry_records_nothing.
    """
    registry = MetricRegistry(enabled=False)
    counter = registry.counter("c_total", "")
    histogram = registry.histogram("h", "")
    calls = 50_000
    started = time.perf_counter()
    for _ in range(calls):
        counter.inc()
        histogram.observe(0.1)
    elapsed = time.perf_counter() - started
    assert elapsed / (2 * calls) < 20e-6  # 20 µs/call is ~100x the expected cost


# -- tracing ----------------------------------------------------------------------------


def test_tracer_writes_one_json_line_per_span(tmp_path):
    path = tmp_path / "trace.jsonl"
    with Tracer(str(path)) as tracer:
        tracer.emit("ingest", seconds=0.25, chunk=3, items=1024)
        tracer.emit("combine", chunk=None)
    lines = path.read_text().splitlines()
    assert len(lines) == 2
    first = json.loads(lines[0])
    assert first["span"] == "ingest"
    assert first["seconds"] == 0.25
    assert first["chunk"] == 3
    assert first["items"] == 1024
    assert isinstance(first["ts"], float)
    assert "seconds" not in json.loads(lines[1])


def test_tracer_concurrent_emits_stay_line_atomic():
    sink = io.StringIO()
    tracer = Tracer(sink)
    workers = [
        threading.Thread(
            target=lambda i=i: [tracer.emit("s", worker=i, n=j) for j in range(500)]
        )
        for i in range(6)
    ]
    for thread in workers:
        thread.start()
    for thread in workers:
        thread.join()
    lines = sink.getvalue().splitlines()
    assert len(lines) == 3_000
    for line in lines:
        json.loads(line)  # interleaved writes would break a line's JSON


def test_null_tracer_is_disabled_and_inert():
    assert NULL_TRACER.enabled is False
    NULL_TRACER.emit("anything", seconds=1.0)
    NULL_TRACER.close()


# -- exposition: HTTP sidecar and the metrics command -----------------------------------


def _scrape(url: str) -> str:
    with urllib.request.urlopen(url, timeout=10) as response:
        assert response.headers["Content-Type"] == PROMETHEUS_CONTENT_TYPE
        return response.read().decode("utf-8")


def test_http_sidecar_serves_text_and_json():
    registry = MetricRegistry()
    registry.counter("hits_total", "Hits.").inc(2)
    with MetricsHTTPServer(registry, port=0) as sidecar:
        text = _scrape(sidecar.url)
        assert text == render_prometheus(registry.snapshot())
        assert "hits_total 2" in text
        with urllib.request.urlopen(
            sidecar.url.replace("/metrics", "/metrics.json"), timeout=10
        ) as response:
            snapshot = json.loads(response.read().decode("utf-8"))
        assert snapshot["metrics"]["hits_total"]["series"][0]["value"] == 2
        with pytest.raises(urllib.error.HTTPError):
            urllib.request.urlopen(sidecar.url.replace("/metrics", "/nope"), timeout=10)


def test_metrics_command_round_trip_matches_sidecar():
    """The frame-protocol snapshot renders byte-identically to a local render."""
    registry = MetricRegistry()
    sketch = MisraGries(epsilon=0.05, universe_size=256)
    server = IngestServer(
        PipelinedExecutor(sketch=sketch, chunk_size=64, registry=registry),
        port=0, registry=registry,
    )
    server.start()
    try:
        with ServiceClient(server.endpoint) as client:
            client.push(np.arange(128, dtype=np.int64) % 7)
            client.flush()
            reply = client.metrics()
            stats = client.stats()
    finally:
        server.close()
    assert reply["ok"] is True
    assert reply["metrics_schema"] == METRICS_SCHEMA_VERSION
    text = render_prometheus(reply)
    assert 'repro_service_commands_total{command="push"} 1' in text
    assert "repro_pipeline_chunks_total 2" in text
    # Satellite: the stats reply is schema v2 with the uniform sections.
    assert stats["stats_schema"] == STATS_SCHEMA_VERSION
    assert "degraded" in stats
    assert stats["pipeline"]["chunk_size"] == 64


def test_metrics_on_and_off_serve_the_same_report(service_server):
    """Instrumentation never perturbs ingestion: the served report is bit-for-bit equal."""
    universe, length, chunk = 1 << 10, 30_000, 2048
    items = zipfian_stream(length, universe, skew=1.2, rng=RandomSource(8)).array
    reports = {}
    for enabled in (False, True):
        registry = MetricRegistry(enabled=enabled)
        sketch = OptimalListHeavyHitters(
            epsilon=0.02, phi=0.05, universe_size=universe, stream_length=length,
            rng=RandomSource(40),
        )
        server = service_server(
            PipelinedExecutor(sketch=sketch, chunk_size=chunk, registry=registry),
            universe_size=universe, registry=registry,
        )
        with ServiceClient(server.endpoint) as client:
            client.push_stream(
                (items[start:start + 1000] for start in range(0, length, 1000)), window=8
            )
            client.finish()
            reports[enabled] = dict(client.query().report.items)
        chunks = registry.snapshot()["metrics"]["repro_pipeline_chunks_total"]
        assert (chunks["series"][0]["value"] > 0) is enabled
    assert reports[True] == reports[False]
    assert reports[True]


# -- logging ----------------------------------------------------------------------------


def test_configure_logging_levels_and_json(capsys):
    stream = io.StringIO()
    configure_logging(level="info", json_format=True, stream=stream)
    try:
        logging.getLogger("repro.test").info("hello %s", "world")
        logging.getLogger("repro.test").debug("hidden")
        record = json.loads(stream.getvalue().strip())
        assert record["message"] == "hello world"
        assert record["level"] == "INFO"
        assert record["logger"] == "repro.test"
        with pytest.raises(SystemExit):
            configure_logging(level="loud")
    finally:
        # Fully undo configure_logging: drop the handler (it is bound to this
        # test's stream) and re-enable propagation so other tests' caplog
        # fixtures keep seeing repro.* records through the root logger.
        root = logging.getLogger("repro")
        for handler in list(root.handlers):
            root.removeHandler(handler)
        root.setLevel(logging.NOTSET)
        root.propagate = True


def test_json_formatter_includes_exceptions():
    formatter = JsonLogFormatter()
    try:
        raise RuntimeError("boom")
    except RuntimeError:
        record = logging.LogRecord(
            "repro.t", logging.ERROR, __file__, 1, "failed", None, sys.exc_info()
        )
    payload = json.loads(formatter.format(record))
    assert payload["message"] == "failed"
    assert "RuntimeError: boom" in payload["exception"]


# -- pipeline instrumentation -----------------------------------------------------------


def test_pipeline_metrics_and_trace_spans(tmp_path):
    registry = MetricRegistry()
    trace_path = tmp_path / "spans.jsonl"
    tracer = Tracer(str(trace_path))
    sketch = MisraGries(epsilon=0.05, universe_size=64)
    executor = PipelinedExecutor(
        sketch=sketch, chunk_size=16, queue_depth=2, registry=registry, tracer=tracer,
    )
    items = np.arange(80, dtype=np.int64) % 5
    result = executor.run(ArrayBatchSource(items))
    tracer.close()
    assert result.report is not None
    metrics = registry.snapshot()["metrics"]
    assert metrics["repro_pipeline_chunks_total"]["series"][0]["value"] == 5
    assert metrics["repro_pipeline_items_total"]["series"][0]["value"] == 80
    assert metrics["repro_pipeline_chunk_ingest_seconds"]["series"][0]["count"] == 5
    spans = [json.loads(line)["span"] for line in trace_path.read_text().splitlines()]
    assert spans.count("produce") == 5
    assert spans.count("enqueue") == 5
    assert spans.count("ingest") == 5
    assert spans.count("combine") == 1


def test_default_registry_is_process_wide():
    assert get_registry() is get_registry()
