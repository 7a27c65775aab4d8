"""In-memory spans recorded by the benchmark around calls into each layer.

Nothing in the program is instrumented.  A span is opened either explicitly
(``with recorder.span(name)``) or by temporarily wrapping a layer's public
method (``with recorder.patched(Class, "method", name)``), so a call the
layer makes into another wrapped layer nests as a child span.  A span's self
time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import itertools
import json
import time
from collections import defaultdict
from dataclasses import asdict, dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple


@dataclass
class Span:
    span_id: int
    parent: Optional[int]
    #: Spans caused by the same request (one frame, one query) share this.
    trace: int
    name: str
    start: float
    end: float = 0.0
    phase: str = ""
    attrs: Dict[str, object] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Records nested spans on one thread; written out once at the end."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[Span] = []
        self._ids = itertools.count()
        self.trace = 0
        self.phase = ""

    def new_trace(self, phase: Optional[str] = None) -> int:
        """Start a new request: later spans share its identifier."""
        self.trace += 1
        if phase is not None:
            self.phase = phase
        return self.trace

    @contextlib.contextmanager
    def span(self, name: str, **attrs: object) -> Iterator[Span]:
        parent = self._stack[-1].span_id if self._stack else None
        span = Span(next(self._ids), parent, self.trace, name, 0.0, phase=self.phase,
                    attrs=dict(attrs))
        self._stack.append(span)
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
            self.spans.append(span)

    @contextlib.contextmanager
    def patched(self, owner: type, attribute: str, name: str) -> Iterator[None]:
        """Wrap ``owner.attribute`` so every call records a span named ``name``."""
        original = owner.__dict__[attribute]
        recorder = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with recorder.span(name):
                return original(*args, **kwargs)

        setattr(owner, attribute, wrapper)
        try:
            yield
        finally:
            setattr(owner, attribute, original)

    def self_times(self) -> Dict[int, float]:
        """Span id → duration minus the summed durations of its direct children."""
        covered: Dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span.parent is not None:
                covered[span.parent] += span.duration
        return {span.span_id: span.duration - covered[span.span_id] for span in self.spans}

    def by_name(self, phases: Optional[Tuple[str, ...]] = None) -> Dict[str, Tuple[int, float]]:
        """Name → (span count, summed self seconds), optionally within ``phases``."""
        self_time = self.self_times()
        totals: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0])
        for span in self.spans:
            if phases is None or span.phase in phases:
                entry = totals[span.name]
                entry[0] += 1
                entry[1] += self_time[span.span_id]
        return {name: (int(count), seconds) for name, (count, seconds) in totals.items()}

    def write(self, path: str) -> None:
        """All spans as gzipped JSON lines, start times relative to the first span."""
        origin = min((span.start for span in self.spans), default=0.0)
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            for span in sorted(self.spans, key=lambda s: s.start):
                record = asdict(span)
                record["start"] -= origin
                record["end"] -= origin
                handle.write(json.dumps(record) + "\n")
