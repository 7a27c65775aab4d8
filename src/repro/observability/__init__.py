"""Unified observability for the heavy-hitter service stack: metrics, traces, logs.

The paper's guarantee is probabilistic and the service built around it (PRs
4–6) is long-running and replicated — which makes the *operational* questions
(is a replica quarantined right now? how deep is the push queue? what does a
chunk-ingest latency distribution look like under load?) first-class, and
until this layer they were answerable only by the ad-hoc ``stats`` command.
Four pieces, all stdlib-only:

* :mod:`~repro.observability.metrics` — :class:`Counter` / :class:`Gauge` /
  :class:`Histogram` (log-scaled buckets) behind a process-wide
  :class:`MetricRegistry` with labeled families, idempotent registration, and
  a near-zero disabled path (one boolean check per record call, pinned by
  the overhead-guard test);
* :mod:`~repro.observability.tracing` — chunk-level spans
  (``produce`` → ``enqueue`` → ``ingest`` → ``combine`` →
  ``snapshot``/per-command) as a JSONL event log (:class:`Tracer`,
  ``repro serve --trace-log``);
* :mod:`~repro.observability.exposition` — Prometheus text rendering and the
  ``/metrics`` HTTP sidecar (:class:`MetricsHTTPServer`,
  ``repro serve --metrics-port``); the ``metrics`` frame command and
  ``repro metrics --connect`` render the same snapshot shape;
* :mod:`~repro.observability.logs` — the ``repro.*`` logger hierarchy and its
  CLI configuration (``--log-level`` / ``--log-json``).

Instrumented layers and their metric prefixes: ``repro_pipeline_*``
(:mod:`repro.pipeline`), ``repro_service_*`` (:mod:`repro.service`),
``repro_replication_*`` (:mod:`repro.replication`), ``repro_checkpoint_*``
(:mod:`repro.service.checkpoint`).  The full instrument catalog, scrape
quickstart, and trace-line format live in ``docs/OBSERVABILITY.md``.
"""

from repro.observability.exposition import (
    PROMETHEUS_CONTENT_TYPE,
    MetricsHTTPServer,
    render_prometheus,
)
from repro.observability.logs import JsonLogFormatter, configure_logging
from repro.observability.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    DEFAULT_SIZE_BUCKETS,
    METRICS_SCHEMA_VERSION,
    Counter,
    Gauge,
    Histogram,
    MetricFamily,
    MetricRegistry,
    get_registry,
    resolve_registry,
)
from repro.observability.tracing import NULL_TRACER, Tracer, resolve_tracer

__all__ = [
    "Counter",
    "DEFAULT_LATENCY_BUCKETS",
    "DEFAULT_SIZE_BUCKETS",
    "Gauge",
    "Histogram",
    "JsonLogFormatter",
    "METRICS_SCHEMA_VERSION",
    "MetricFamily",
    "MetricRegistry",
    "MetricsHTTPServer",
    "NULL_TRACER",
    "PROMETHEUS_CONTENT_TYPE",
    "Tracer",
    "configure_logging",
    "get_registry",
    "render_prometheus",
    "resolve_registry",
    "resolve_tracer",
]
