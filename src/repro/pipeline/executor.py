"""The consumer half of the pipelined ingestion seam: queue-fed sketch updates.

:class:`PipelinedExecutor` drains a :class:`~repro.pipeline.producer.ChunkProducer`
into either a single sketch's ``insert_many`` fast path or a
:class:`~repro.sharding.ShardedExecutor`'s router fan-out, one chunk at a time under
a lock — which is what makes :meth:`snapshot` sound: a snapshot taken mid-ingest
copies shard states that all correspond to the same chunk-aligned stream prefix, so
its merged report answers heavy-hitter queries about that prefix under the usual
(ε,ϕ) semantics.  See :mod:`repro.pipeline` for the full contract.
"""

from __future__ import annotations

import copy
import threading
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.observability.metrics import MetricRegistry, resolve_registry
from repro.observability.tracing import Tracer, resolve_tracer

if TYPE_CHECKING:  # only for annotations: the executor itself never builds arrays
    import numpy as np
from repro.pipeline.producer import (
    DEFAULT_CHUNK_ITEMS,
    DEFAULT_QUEUE_DEPTH,
    ArrayBatchSource,
    ChunkProducer,
)
from repro.primitives.space import SpaceMeter
from repro.sharding.executor import ShardedExecutor
from repro.sharding.mergeable import merge_all


@dataclass
class SinkState:
    """A chunk-aligned, self-contained copy of a pipelined run's ingestion state.

    This is the unit of checkpointing: everything needed to resume ingestion in a
    fresh process — the (un-merged) shard sketches, their router, and the prefix
    accounting — captured atomically under the ingestion lock by
    :meth:`PipelinedExecutor.sink_state` and adopted by
    :meth:`PipelinedExecutor.from_sink_state`.  The service layer's
    :class:`~repro.service.Checkpointer` pickles exactly this object (plus a config
    manifest) to disk.

    The capture deep-copies the sketches.  Their counts copy exactly — for
    Algorithm 2 that is a few numpy arrays (the ``t2``/``t3`` tables and the
    touched mask) next to its Misra–Gries table — while each of a sketch's few
    :class:`~repro.primitives.rng.RandomSource` objects deep-copies (and pickles)
    as a deterministically *re-seeded* sibling — see :mod:`repro.primitives.rng`.
    A resumed run is therefore bit-for-bit reproducible (capturing the same state
    twice yields identical resumptions) but does not replay the uninterrupted
    original's future random draws; deterministic sketches (Misra–Gries and
    friends) resume bit-for-bit identical to the uninterrupted run as well.
    """

    kind: str  # "single" or "sharded"
    sketches: List[Any]
    router: Any  # ShardRouter for "sharded", None for "single"
    items_processed: int
    shard_sizes: List[int]
    chunks: int


@dataclass
class PipelineSnapshot:
    """A consistent mid-ingest copy: the merged sketch and its report on the prefix.

    ``items_processed`` is the exact length of the stream prefix the snapshot
    reflects (chunk ingestion is atomic under the executor's lock, so the state is
    never a partial chunk); the report's Definition 1 thresholds are computed
    against that prefix length, because every sketch reports against its own
    ``items_processed``.
    """

    report: Any
    sketch: Any
    items_processed: int


@dataclass
class PipelinedRunResult:
    """Everything a pipelined run produces, with the time split by phase.

    ``ingest_seconds`` covers the queue-overlapped span (producer parsing ‖ consumer
    ``insert_many``) up to the last chunk landing in a sketch; ``combine_seconds``
    covers merge + space accounting + report.  ``max_queue_depth`` is the deepest
    producer backlog observed — ``queue_depth`` means the parser was ahead and the
    sketches were the bottleneck, 0–1 means parsing dominated and a deeper queue
    cannot help.
    """

    sketch: Any
    report: Any
    num_shards: int
    shard_sizes: List[int]
    items_processed: int
    chunks: int
    queue_depth: int
    max_queue_depth: int
    seconds: float
    ingest_seconds: float
    combine_seconds: float
    space: SpaceMeter = field(default_factory=SpaceMeter)

    def space_bits(self) -> int:
        """Combined space of the (merged) sketch state, in bits."""
        return self.space.total_bits()


class PipelinedExecutor:
    """Overlap stream parsing with sketch updates through a bounded chunk queue.

    Exactly one of ``sketch`` / ``executor`` selects the sink:

    * ``sketch`` — a single algorithm instance; every queued chunk feeds its
      ``insert_many`` fast path;
    * ``executor`` — a fresh :class:`~repro.sharding.ShardedExecutor`; every queued
      chunk goes through its router into the shard sketches
      (:meth:`~repro.sharding.ShardedExecutor.ingest_chunk`), and the end-of-stream
      merge/report is its :meth:`~repro.sharding.ShardedExecutor.combine`.

    The executor is single-shot, like the sharded one: :meth:`run` consumes the
    sink.  :meth:`snapshot` may be called from any thread while :meth:`run` is in
    flight (or before it); after :meth:`run` returns the merge has consumed the
    shard state, so snapshots are refused — use the result's report.
    """

    def __init__(
        self,
        sketch: Any = None,
        executor: Optional[ShardedExecutor] = None,
        chunk_size: int = DEFAULT_CHUNK_ITEMS,
        queue_depth: int = DEFAULT_QUEUE_DEPTH,
        registry: Optional[MetricRegistry] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        if (sketch is None) == (executor is None):
            raise ValueError("provide exactly one of sketch= or executor=")
        self._registry = resolve_registry(registry)
        self._tracer = resolve_tracer(tracer)
        self._metric_chunks = self._registry.counter(
            "repro_pipeline_chunks_total", "Chunks ingested into pipelined sinks."
        )
        self._metric_items = self._registry.counter(
            "repro_pipeline_items_total", "Stream items ingested into pipelined sinks."
        )
        self._metric_ingest_seconds = self._registry.histogram(
            "repro_pipeline_chunk_ingest_seconds",
            "Per-chunk sketch-update latency (time spent in ingest_chunk).",
        )
        self._metric_cache_hits = self._registry.counter(
            "repro_pipeline_snapshot_cache_hits_total",
            "Mid-ingest snapshot queries served from the versioned cache.",
        )
        self._metric_cache_misses = self._registry.counter(
            "repro_pipeline_snapshot_cache_misses_total",
            "Mid-ingest snapshot queries that paid the deepcopy + merge.",
        )
        self._metric_snapshot_seconds = self._registry.histogram(
            "repro_pipeline_snapshot_seconds",
            "Mid-ingest snapshot latency (copy + merge + report, or cache hit).",
        )
        self.sketch = sketch
        self.executor = executor
        self.chunk_size = chunk_size
        self.queue_depth = queue_depth
        self.num_shards = 1 if executor is None else executor.num_shards
        self.shard_sizes = [0] * self.num_shards
        self.items_processed = 0
        self._lock = threading.Lock()
        self._started = False
        self._finished = False
        self._chunks_ingested = 0
        self._max_queue_depth = 0
        self._ingest_started_at: Optional[float] = None
        # Versioned snapshot cache: the merged copy (and its reports) produced by
        # the last snapshot(), tagged with the _chunks_ingested it reflects.  A
        # repeated query at an unchanged prefix reuses it (no deepcopy, no merge);
        # ingestion advancing invalidates it lazily (copy-on-write: the next
        # query pays the copy again).  Guarded by _snapshot_lock, not _lock, so
        # cache bookkeeping never extends the ingestion pause.
        self._snapshot_lock = threading.Lock()
        self._snapshot_cache: Optional[Dict[str, Any]] = None
        self.snapshot_cache_hits = 0
        self.snapshot_cache_misses = 0

    # -- ingestion ----------------------------------------------------------------------

    def ingest_chunk(self, chunk: Union[np.ndarray, Sequence[int]]) -> None:
        """One chunk into the sink, atomically with respect to :meth:`snapshot`.

        The single-chunk unit of :meth:`run`, public so an external loop (the
        service layer's offline checkpoint replay, a test harness) can drive
        ingestion chunk by chunk; call :meth:`finalize` when the stream is
        exhausted.  Driving an executor manually claims it, so a later :meth:`run`
        on the same instance refuses rather than double-ingesting.

        Raises:
            RuntimeError: if :meth:`finalize` (or :meth:`run`) already consumed
                the sink.
        """
        # One flag read decides whether to read the clock: with metrics disabled
        # and no tracer this method is byte-for-byte the pre-observability path.
        observe = self._registry.enabled or self._tracer.enabled
        started = time.perf_counter() if observe else 0.0
        with self._lock:
            if self._finished:
                raise RuntimeError(
                    "this PipelinedExecutor has already merged its sink; "
                    "build a fresh one per run"
                )
            self._started = True
            if self._ingest_started_at is None:
                self._ingest_started_at = time.perf_counter()
            if self.executor is None:
                self.sketch.insert_many(chunk)
                self.shard_sizes[0] += len(chunk)
            else:
                for shard, delivered in enumerate(self.executor.ingest_chunk(chunk)):
                    self.shard_sizes[shard] += delivered
            self.items_processed += len(chunk)
            self._chunks_ingested += 1
            index = self._chunks_ingested - 1
        if observe:
            seconds = time.perf_counter() - started
            self._metric_chunks.inc()
            self._metric_items.inc(len(chunk))
            self._metric_ingest_seconds.observe(seconds)
            if self._tracer.enabled:
                self._tracer.emit(
                    "ingest", seconds=seconds, chunk=index, items=len(chunk)
                )

    def resume_after_ingest(self) -> None:
        """Re-arm the one permitted :meth:`run` after driver-side chunk replay.

        :meth:`ingest_chunk` claims the executor so an accidental later ``run``
        cannot double-ingest.  Crash recovery, however, replays journal chunks
        through :meth:`ingest_chunk` *deliberately* and then hands the executor
        to a server whose queue-driven run covers the remaining tail — the same
        adopted-prefix situation :meth:`from_sink_state` produces, minus the
        serialization round-trip.  Accounting is already correct (the replay
        incremented ``items_processed``), so re-arming is just clearing the
        claim.

        Raises:
            RuntimeError: if the sink was already merged — there is no tail
                left to run.
        """
        with self._lock:
            if self._finished:
                raise RuntimeError(
                    "this PipelinedExecutor has already merged its sink; "
                    "there is nothing left to resume"
                )
            self._started = False

    def finalize(
        self, report_kwargs: Optional[Mapping[str, Any]] = None
    ) -> PipelinedRunResult:
        """Merge the sink, account space, and report — the end-of-stream step.

        Called by :meth:`run` after the producer is exhausted, and directly by
        external loops that drove :meth:`ingest_chunk` themselves.  Single-shot:
        the merge consumes the shard state, so further ingestion, snapshots, and
        finalizes all refuse afterwards.

        Args:
            report_kwargs: forwarded to the merged sketch's ``report()`` (e.g.
                ``{"phi": 0.05}`` for sketches that take the threshold at report
                time).

        Returns:
            The :class:`PipelinedRunResult` for everything ingested so far.

        Raises:
            RuntimeError: on a second finalize of the same executor.
        """
        now = time.perf_counter()
        started = self._ingest_started_at if self._ingest_started_at is not None else now
        ingest_seconds = now - started
        with self._lock:
            if self._finished:
                raise RuntimeError(
                    "this PipelinedExecutor has already merged its sink; "
                    "build a fresh one per run"
                )
            self._finished = True
            self._snapshot_cache = None  # snapshots are refused from here on
            if self.executor is None:
                report = self.sketch.report(**dict(report_kwargs or {}))
                self.sketch.refresh_space()
                merged, space = self.sketch, self.sketch.space
            else:
                merged, report, space = self.executor.combine(report_kwargs)
        combine_seconds = time.perf_counter() - now
        if self._tracer.enabled:
            self._tracer.emit(
                "combine",
                seconds=combine_seconds,
                chunks=self._chunks_ingested,
                items=self.items_processed,
            )
        return PipelinedRunResult(
            sketch=merged,
            report=report,
            num_shards=self.num_shards,
            shard_sizes=list(self.shard_sizes),
            items_processed=self.items_processed,
            chunks=self._chunks_ingested,
            queue_depth=self.queue_depth,
            max_queue_depth=self._max_queue_depth,
            seconds=ingest_seconds + combine_seconds,
            ingest_seconds=ingest_seconds,
            combine_seconds=combine_seconds,
            space=space,
        )

    def run(
        self,
        source: Any,
        report_kwargs: Optional[Mapping[str, Any]] = None,
    ) -> PipelinedRunResult:
        """Replay ``source`` through the queue, then merge and report.

        ``source`` is anything :class:`ChunkProducer` accepts — a stream-file path
        (the motivating case: disk reads and ``int`` parsing overlap the sketch
        updates), a ``Stream``, an array, an iterable, or an
        :class:`~repro.pipeline.producer.ArrayBatchSource` of pre-built batches
        (the network ingest case).  A producer-side exception propagates out of
        this call as itself; the producer thread is joined on every exit path.

        Raises:
            RuntimeError: if this executor already ran (or was driven through
                :meth:`ingest_chunk`) — the sketches hold that prefix, so
                re-running would double-count.
        """
        with self._lock:
            # Check-and-claim atomically: two threads racing run() must see
            # exactly one winner, or both would ingest into the same sketches.
            if self._started or self._finished:
                # _started alone (no _finished) means a previous run died mid-ingest;
                # the sketches hold that run's prefix, so re-running would double-count.
                raise RuntimeError(
                    "this PipelinedExecutor has already run; build a fresh one per run"
                )
            self._started = True
        producer = ChunkProducer(
            source,
            chunk_size=self.chunk_size,
            queue_depth=self.queue_depth,
            registry=self._registry,
            tracer=self._tracer,
        )
        if not isinstance(source, ArrayBatchSource):
            # Replay sources (paths, streams, iterables): the producer starts
            # parsing immediately, so the ingest span begins now.  Push-driven
            # sources are paced by remote clients — idle time waiting for the
            # first batch is not ingest work, so the stamp waits for the first
            # chunk (ingest_chunk sets it lazily, under the same lock).
            with self._lock:
                self._ingest_started_at = time.perf_counter()
        try:
            for chunk in producer:
                self.ingest_chunk(chunk)
        finally:
            producer.close()
        self._max_queue_depth = producer.max_queue_depth
        return self.finalize(report_kwargs)

    # -- mid-ingest queries -------------------------------------------------------------

    def snapshot(
        self, report_kwargs: Optional[Mapping[str, Any]] = None
    ) -> PipelineSnapshot:
        """A consistent copy of the current state, merged, with its prefix report.

        Takes the ingestion lock, deep-copies the sketch (or the whole shard group
        in one pass, so shared hash functions stay shared in the copy), releases
        the lock, and merges/reports on the copy — ingestion is paused only for
        the copy, not for the report.  The copy reflects a chunk-aligned prefix of
        the stream; with a deterministic sketch (or within the (ε,ϕ) guarantee for
        the randomized ones) the report is exactly what a fresh run over that
        prefix would answer.

        Snapshots are **cached by prefix version**: each merged copy is tagged
        with the ``chunks_ingested`` count it reflects, and while no further
        chunk has landed, repeated calls reuse it — a repeated query at a fixed
        prefix costs one small report copy instead of a sketch deepcopy, and a
        call with different ``report_kwargs`` re-reports on the cached merged
        sketch without re-copying.  Once ingestion advances, the next call pays
        the copy again (copy-on-write invalidation).  The consistency rule: a
        cached snapshot is served if and only if it describes exactly the
        current chunk-aligned prefix, so caching is invisible in the answers —
        including under mutation, because every returned ``report`` is a
        private copy.  ``snapshot.sketch`` *is* the shared cached merge: treat
        it as read-only (copying it would be the deepcopy the cache avoids).
        Concurrent snapshot calls are serialized on the cache lock; they never
        extend the ingestion pause beyond the one deep copy.
        """
        observe = self._registry.enabled or self._tracer.enabled
        if not observe:
            return self._snapshot_impl(report_kwargs)
        started = time.perf_counter()
        hits_before = self.snapshot_cache_hits
        snap = self._snapshot_impl(report_kwargs)
        seconds = time.perf_counter() - started
        self._metric_snapshot_seconds.observe(seconds)
        if self._tracer.enabled:
            self._tracer.emit(
                "snapshot",
                seconds=seconds,
                items=snap.items_processed,
                cached=self.snapshot_cache_hits > hits_before,
            )
        return snap

    def _snapshot_impl(
        self, report_kwargs: Optional[Mapping[str, Any]] = None
    ) -> PipelineSnapshot:
        kwargs = dict(report_kwargs or {})
        try:
            key: Optional[Tuple[Tuple[str, Any], ...]] = tuple(sorted(kwargs.items()))
            hash(key)  # an unhashable kwarg *value* only surfaces here
        except TypeError:  # unhashable report kwargs: skip the report-level cache
            key = None
        with self._snapshot_lock:
            copies: Optional[List[Any]] = None
            with self._lock:
                if self._finished:
                    raise RuntimeError(
                        "ingestion has finished and the shards are merged; "
                        "use the run result's report"
                    )
                version = self._chunks_ingested
                items = self.items_processed
                cache = self._snapshot_cache
                if cache is not None and cache["version"] == version:
                    cached_report = cache["reports"].get(key) if key is not None else None
                    if cached_report is not None:
                        self.snapshot_cache_hits += 1
                        self._metric_cache_hits.inc()
                        # Deep-copy the handed-out report (it is small — the
                        # reported heavy hitters): a caller mutating its answer
                        # must never change what later queries are served.  The
                        # merged sketch stays shared — copying it would be the
                        # very deepcopy the cache exists to avoid — so treat
                        # snapshot.sketch as read-only.
                        return PipelineSnapshot(
                            report=copy.deepcopy(cached_report),
                            sketch=cache["sketch"],
                            items_processed=cache["items"],
                        )
                else:
                    cache = None
                    if self.executor is None:
                        copies = [copy.deepcopy(self.sketch)]
                    else:
                        copies = copy.deepcopy(self.executor.sketches)
            # Merge and report outside the ingestion lock: ingestion continues.
            if cache is None:
                assert copies is not None  # cleared and copied together under the lock
                self.snapshot_cache_misses += 1
                self._metric_cache_misses.inc()
                cache = {
                    "version": version,
                    "items": items,
                    "sketch": merge_all(copies),
                    "reports": {},
                }
                with self._lock:
                    # A finalize() racing this merge already cleared the cache;
                    # storing ours would resurrect a merged copy nobody can ever
                    # read again (snapshots refuse after finish).
                    if not self._finished:
                        self._snapshot_cache = cache
            else:
                # Same prefix, new report kwargs: reuse the merged copy, only
                # the report is recomputed — still no deepcopy.
                self.snapshot_cache_hits += 1
                self._metric_cache_hits.inc()
            report = cache["sketch"].report(**kwargs)
            if key is not None:
                cache["reports"][key] = report
            return PipelineSnapshot(
                report=copy.deepcopy(report),
                sketch=cache["sketch"],
                items_processed=cache["items"],
            )

    # -- checkpoint / restore -----------------------------------------------------------

    def sink_state(self) -> SinkState:
        """Capture a chunk-aligned copy of the ingestion state for checkpointing.

        Takes the ingestion lock and deep-copies the un-merged sink — the single
        sketch, or the whole shard group *and* its router in one pass (so hash
        functions shared across shards stay shared in the copy) — then releases the
        lock; ingestion is paused only for the copy.  Unlike :meth:`snapshot`, the
        copies are **not** merged: a checkpoint must be resumable, and the merge
        consumes shard state.  See :class:`SinkState` for the randomness caveat.

        Returns:
            A :class:`SinkState` reflecting a chunk-aligned prefix of the stream.

        Raises:
            RuntimeError: after :meth:`finalize`/:meth:`run` — the merge has
                consumed the shard state, so there is nothing left to checkpoint.
        """
        with self._lock:
            if self._finished:
                raise RuntimeError(
                    "ingestion has finished and the shards are merged; "
                    "there is no resumable state left to checkpoint"
                )
            if self.executor is None:
                sketches, router, kind = [copy.deepcopy(self.sketch)], None, "single"
            else:
                sketches, router = copy.deepcopy(
                    (self.executor.sketches, self.executor.router)
                )
                kind = "sharded"
            return SinkState(
                kind=kind,
                sketches=list(sketches),
                router=router,
                items_processed=self.items_processed,
                shard_sizes=list(self.shard_sizes),
                chunks=self._chunks_ingested,
            )

    @classmethod
    def from_sink_state(
        cls,
        state: SinkState,
        chunk_size: int = DEFAULT_CHUNK_ITEMS,
        queue_depth: int = DEFAULT_QUEUE_DEPTH,
        registry: Optional[MetricRegistry] = None,
        tracer: Optional[Tracer] = None,
    ) -> "PipelinedExecutor":
        """Rebuild an executor around a captured :class:`SinkState` and resume.

        The state's sketches/router are adopted as-is (not copied) — restore from
        a pickled checkpoint, or pass a fresh :meth:`sink_state` capture to fork a
        run in-process.  The returned executor continues exactly where the capture
        left off: ``items_processed``/``shard_sizes`` carry over, and one
        :meth:`run` (or :meth:`ingest_chunk` loop + :meth:`finalize`) over the
        remaining stream produces a result whose report covers the whole stream.

        Args:
            state: a capture from :meth:`sink_state` (typically via
                :class:`~repro.service.Checkpointer`).
            chunk_size: chunk granularity for the resumed ingestion — use the
                original run's value to keep resumed chunk boundaries aligned
                with an uninterrupted replay.
            queue_depth: producer queue bound for the resumed ingestion.

        Raises:
            ValueError: if the state's ``kind`` is unknown.
        """
        if state.kind == "single":
            resumed = cls(
                sketch=state.sketches[0],
                chunk_size=chunk_size,
                queue_depth=queue_depth,
                registry=registry,
                tracer=tracer,
            )
        elif state.kind == "sharded":
            resumed = cls(
                executor=ShardedExecutor.from_shards(state.sketches, state.router),
                chunk_size=chunk_size,
                queue_depth=queue_depth,
                registry=registry,
                tracer=tracer,
            )
        else:
            raise ValueError(f"unknown sink state kind {state.kind!r}")
        resumed.items_processed = state.items_processed
        resumed.shard_sizes = list(state.shard_sizes)
        resumed._chunks_ingested = state.chunks
        # _started stays False: the adopted prefix is accounted for, and the one
        # permitted run()/finalize() on this instance is the resumed tail.
        return resumed
