"""The zero-dependency metrics core: counters, gauges, histograms, one registry.

Every layer of the service stack (pipeline, server, replication, checkpointing)
records into a :class:`MetricRegistry` — a process-wide catalog of named
instruments — instead of growing its own ad-hoc counters.  The design goals, in
order:

* **zero dependencies** — the repo's no-new-packages rule holds for telemetry
  too: this module is plain stdlib (``threading`` + ``bisect``), and the
  Prometheus text rendering (:mod:`repro.observability.exposition`) is a string
  formatter, not a client library;
* **near-zero cost when disabled** — every record call checks one boolean
  attribute first and returns before touching a lock or a dict, so a sketch
  ingesting 50M items/s through a metrics-disabled registry pays a branch per
  *chunk* (not per item — instrumentation lives at chunk/command granularity
  throughout the repo), which the overhead-guard test pins;
* **thread-safe recording** — the ingestion loop, every per-connection handler
  thread, and the replication fan-out all record concurrently; each instrument
  child carries its own small lock, taken only when enabled;
* **labeled families** — per-command latency is one histogram *family* with a
  ``command`` label, not eight copy-pasted histograms; children are created on
  first use and cached (``family.labels(command="push")`` is a dict hit after
  the first call);
* **idempotent registration** — components register their instruments in their
  constructors, and constructing two :class:`~repro.pipeline.PipelinedExecutor`
  replicas must not be an error: re-registering the same name with the same
  type/labels returns the existing family, while a *conflicting*
  re-registration (same name, different shape) raises.

The JSON-safe :meth:`MetricRegistry.snapshot` is the single source both
exposition paths render from: the ``metrics`` frame-protocol command ships it
to :meth:`repro.service.ServiceClient.metrics`, and the ``/metrics`` HTTP
sidecar renders it as Prometheus text — one snapshot shape, so the two views
can never drift.
"""

from __future__ import annotations

import bisect
import threading
from typing import Dict, List, Optional, Sequence, Tuple

#: Version tag carried by every :meth:`MetricRegistry.snapshot`; bump on
#: incompatible snapshot-shape changes (versioned like the frame protocol).
METRICS_SCHEMA_VERSION = 1

#: Log-scaled latency buckets (seconds): 1–2.5–5 per decade from 1µs to 60s,
#: so a ~20µs cached snapshot query and a ~3s failover land in well-separated
#: buckets of the same histogram.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    1e-6, 2.5e-6, 5e-6,
    1e-5, 2.5e-5, 5e-5,
    1e-4, 2.5e-4, 5e-4,
    1e-3, 2.5e-3, 5e-3,
    1e-2, 2.5e-2, 5e-2,
    0.1, 0.25, 0.5,
    1.0, 2.5, 5.0,
    10.0, 30.0, 60.0,
)

#: Log-scaled size buckets (bytes), for payload/checkpoint size histograms.
DEFAULT_SIZE_BUCKETS: Tuple[float, ...] = (
    256.0, 1024.0, 4096.0, 16384.0, 65536.0,
    262144.0, 1048576.0, 4194304.0, 16777216.0,
    67108864.0, 268435456.0,
)


class Counter:
    """A monotonically increasing value (events, items, bytes, seconds spent)."""

    __slots__ = ("_registry", "_lock", "_value")

    def __init__(self, registry: "MetricRegistry") -> None:
        self._registry = registry
        self._lock = threading.Lock()
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be >= 0; counters never go down)."""
        if not self._registry.enabled:
            return
        if amount < 0:
            raise ValueError(f"counters only go up; got inc({amount})")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value

    def _snapshot(self) -> Dict[str, object]:
        with self._lock:
            return {"value": self._value}


class Gauge:
    """A value that goes up and down (queue depth, live replicas, connections).

    Alongside the current value, the gauge tracks its **high-water mark** —
    the deepest queue occupancy ever observed is exactly what a perf artifact
    wants to record, and sampling-based scrapes would miss it.
    """

    __slots__ = ("_registry", "_lock", "_value", "_max")

    def __init__(self, registry: "MetricRegistry") -> None:
        self._registry = registry
        self._lock = threading.Lock()
        self._value = 0.0
        self._max = 0.0

    def set(self, value: float) -> None:
        if not self._registry.enabled:
            return
        with self._lock:
            self._value = float(value)
            if self._value > self._max:
                self._max = self._value

    def inc(self, amount: float = 1.0) -> None:
        if not self._registry.enabled:
            return
        with self._lock:
            self._value += amount
            if self._value > self._max:
                self._max = self._value

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    @property
    def value(self) -> float:
        return self._value

    @property
    def max(self) -> float:
        """The high-water mark across the gauge's lifetime."""
        return self._max

    def _snapshot(self) -> Dict[str, object]:
        with self._lock:
            return {"value": self._value, "max": self._max}


class Histogram:
    """A distribution over log-scaled buckets (latencies, sizes).

    ``buckets`` is the sorted sequence of finite upper bounds; an implicit
    ``+Inf`` bucket always exists, so ``observe`` never drops a value.  Counts
    are stored per-bucket (non-cumulative) and accumulated to the Prometheus
    cumulative convention at snapshot time — one ``bisect`` + two adds per
    observation.
    """

    __slots__ = ("_registry", "_lock", "_bounds", "_counts", "_sum", "_count")

    def __init__(
        self,
        registry: "MetricRegistry",
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds or list(bounds) != sorted(set(bounds)):
            raise ValueError("histogram buckets must be distinct and increasing")
        self._registry = registry
        self._lock = threading.Lock()
        self._bounds = bounds
        self._counts = [0] * (len(bounds) + 1)  # +1: the +Inf bucket
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        if not self._registry.enabled:
            return
        index = bisect.bisect_left(self._bounds, value)
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    def _snapshot(self) -> Dict[str, object]:
        with self._lock:
            counts = list(self._counts)
            total, cumulative = 0, []
            for bound, bucket_count in zip(self._bounds, counts):
                total += bucket_count
                cumulative.append({"le": bound, "count": total})
            cumulative.append({"le": "+Inf", "count": total + counts[-1]})
            return {"count": self._count, "sum": self._sum, "buckets": cumulative}


_INSTRUMENTS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricFamily:
    """One named instrument plus its labeled children.

    An unlabeled family *is* its single child: ``registry.counter("x").inc()``
    works directly.  A labeled family hands out children via :meth:`labels`;
    children are cached by label values, so the hot path is one dict lookup.
    """

    def __init__(
        self,
        registry: "MetricRegistry",
        name: str,
        kind: str,
        help_text: str,
        label_names: Tuple[str, ...],
        buckets: Optional[Sequence[float]],
    ) -> None:
        self.name = name
        self.kind = kind
        self.help = help_text
        self.label_names = label_names
        self._registry = registry
        self._buckets = buckets
        self._lock = threading.Lock()
        self._children: Dict[Tuple[str, ...], object] = {}
        if not label_names:
            self._children[()] = self._build()

    def _build(self):
        if self.kind == "histogram":
            return Histogram(
                self._registry,
                self._buckets if self._buckets is not None else DEFAULT_LATENCY_BUCKETS,
            )
        return _INSTRUMENTS[self.kind](self._registry)

    def labels(self, **labels: str):
        """The child for one label assignment (created and cached on first use)."""
        if set(labels) != set(self.label_names):
            raise ValueError(
                f"{self.name} takes labels {list(self.label_names)}, "
                f"got {sorted(labels)}"
            )
        key = tuple(str(labels[name]) for name in self.label_names)
        child = self._children.get(key)
        if child is None:
            with self._lock:
                child = self._children.setdefault(key, self._build())
        return child

    # Unlabeled families proxy the single child's record methods, so the common
    # case needs no .labels() ceremony.

    def _sole(self):
        if self.label_names:
            raise ValueError(f"{self.name} is labeled; use .labels(...)")
        return self._children[()]

    def inc(self, amount: float = 1.0) -> None:
        self._sole().inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        self._sole().dec(amount)

    def set(self, value: float) -> None:
        self._sole().set(value)

    def observe(self, value: float) -> None:
        self._sole().observe(value)

    @property
    def value(self) -> float:
        return self._sole().value

    @property
    def max(self) -> float:
        return self._sole().max

    @property
    def count(self) -> int:
        return self._sole().count

    @property
    def sum(self) -> float:
        return self._sole().sum

    def _snapshot_series(self) -> List[Dict[str, object]]:
        with self._lock:
            children = sorted(self._children.items())
        series = []
        for key, child in children:
            entry: Dict[str, object] = {
                "labels": dict(zip(self.label_names, key)),
            }
            entry.update(child._snapshot())
            series.append(entry)
        return series


class MetricRegistry:
    """The process-wide instrument catalog; every layer records into one of these.

    Args:
        enabled: record calls are no-ops while ``False`` (one boolean check,
            no lock, no mutation — the overhead-guard test pins this down).
            Toggle later with :meth:`enable` / :meth:`disable`; the flag is
            read per record call, so a toggle applies to instruments that
            already exist.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._lock = threading.Lock()
        self._families: Dict[str, MetricFamily] = {}

    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def _register(
        self,
        name: str,
        kind: str,
        help_text: str,
        labels: Sequence[str],
        buckets: Optional[Sequence[float]] = None,
    ) -> MetricFamily:
        label_names = tuple(labels)
        with self._lock:
            family = self._families.get(name)
            if family is not None:
                if family.kind != kind or family.label_names != label_names:
                    raise ValueError(
                        f"metric {name!r} is already registered as a "
                        f"{family.kind} with labels {list(family.label_names)}; "
                        f"cannot re-register as a {kind} with {list(label_names)}"
                    )
                return family
            family = MetricFamily(self, name, kind, help_text, label_names, buckets)
            self._families[name] = family
            return family

    def counter(self, name: str, help_text: str = "", labels: Sequence[str] = ()) -> MetricFamily:
        """Register (or fetch) a counter family."""
        return self._register(name, "counter", help_text, labels)

    def gauge(self, name: str, help_text: str = "", labels: Sequence[str] = ()) -> MetricFamily:
        """Register (or fetch) a gauge family."""
        return self._register(name, "gauge", help_text, labels)

    def histogram(
        self,
        name: str,
        help_text: str = "",
        labels: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> MetricFamily:
        """Register (or fetch) a histogram family with the given bucket bounds."""
        return self._register(name, "histogram", help_text, labels, buckets=buckets)

    def snapshot(self) -> Dict[str, object]:
        """A JSON-safe copy of every instrument, the one shape both exposition
        paths (the ``metrics`` frame command and the Prometheus sidecar) render
        from.  Series are sorted by label values and metrics by name, so the
        output is deterministic for a fixed recording history.
        """
        with self._lock:
            families = sorted(self._families.items())
        metrics: Dict[str, object] = {}
        for name, family in families:
            metrics[name] = {
                "type": family.kind,
                "help": family.help,
                "labels": list(family.label_names),
                "series": family._snapshot_series(),
            }
        return {
            "metrics_schema": METRICS_SCHEMA_VERSION,
            "enabled": self.enabled,
            "metrics": metrics,
        }


#: The process-wide default registry.  Components take ``registry=None`` to
#: mean "record here", so one ``repro serve`` process exposes one coherent
#: catalog; tests and benchmarks pass their own registries for isolation.
_DEFAULT_REGISTRY = MetricRegistry(enabled=True)


def get_registry() -> MetricRegistry:
    """The process-wide default :class:`MetricRegistry`."""
    return _DEFAULT_REGISTRY


def resolve_registry(registry: Optional[MetricRegistry]) -> MetricRegistry:
    """The constructor-argument convention: ``None`` means the process default."""
    return registry if registry is not None else _DEFAULT_REGISTRY
