"""Serial and process-parallel drivers for sharded ingestion (split → sketch → merge).

:class:`ShardedExecutor` owns the full sharded pipeline: a
:class:`~repro.sharding.router.ShardRouter` hash-partitions the stream, ``k``
independent sketch instances ingest their shards through the ``insert_many`` fast
path, the instances are folded back together with their ``merge`` implementations
(:mod:`repro.sharding.mergeable`), and one report is produced from the merged sketch —
so the (ε,ϕ) filter of Definition 1 is applied once, against the combined stream
length, never against per-shard lengths.

Two drivers share that pipeline:

* **serial** — one process, shards consumed round-robin chunk by chunk.  Useful as the
  semantics baseline and whenever the workload is too small to amortize process
  startup.
* **parallel** — a ``multiprocessing`` pool, one task per shard.  Each worker receives
  its (still-empty) sketch and its whole shard, consumes it, and ships the sketch
  back for the merge.

Determinism caveats (per-shard RNG seeding)
-------------------------------------------

Each shard's sketch owns its randomness (the factory receives the shard index, so give
every shard a distinct seed): shard j's draws are the same whether shards run
round-robin in one process or concurrently in k processes, which makes the *serial*
sharded driver bit-for-bit reproducible under a fixed seed.  The *parallel* driver is
also reproducible run-to-run, but does not replay the serial driver bit for bit: a
:class:`~repro.primitives.rng.RandomSource` re-seeds (deterministically) when it
crosses a process boundary — see the pickling note in :mod:`repro.primitives.rng`.
Sharded runs never replay a *single-instance* run bit for bit in any mode; the
merge property tests (``tests/property/test_property_merge.py``) check that their
reports agree within the (ε,ϕ) guarantee, which is the equivalence the
mergeability analysis actually promises.
"""

from __future__ import annotations

import gc
import multiprocessing
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, List, Mapping, Optional, Sequence

import numpy as np

from repro.core.base import StreamingAlgorithm
from repro.primitives.batching import iter_chunks
from repro.primitives.rng import RandomSource
from repro.primitives.space import SpaceMeter
from repro.sharding.mergeable import merge_all, share_hash_functions
from repro.sharding.router import ShardRouter, chunk_stream


def _consume_shard(payload):
    """Pool worker: consume one shard's items into its sketch and return the sketch.

    Must live at module level so it pickles; the sketch travels to the worker empty
    (cheap) and back full (bounded by the summary size, not the shard size).
    """
    sketch, items, batch_size = payload
    if batch_size is None:
        if len(items):
            sketch.insert_many(items)
    else:
        for chunk in iter_chunks(items, batch_size):
            sketch.insert_many(chunk)
    return sketch


@dataclass
class ShardedRunResult:
    """Everything a sharded run produces: the merged sketch, its report, and accounting.

    ``seconds`` is the whole run (kept for compatibility); it splits into
    ``ingest_seconds`` (partition materialization + routing + ``insert_many``, i.e.
    everything up to the last item landing in a shard sketch) and
    ``combine_seconds`` (merge + space accounting + report construction), so the
    driver's cost is attributed to the phase that actually paid it.
    """

    sketch: Any
    report: Any
    num_shards: int
    shard_sizes: List[int]
    parallel: bool
    seconds: float
    ingest_seconds: float = 0.0
    combine_seconds: float = 0.0
    space: SpaceMeter = field(default_factory=SpaceMeter)

    @property
    def items_processed(self) -> int:
        return sum(self.shard_sizes)

    def space_bits(self) -> int:
        """Combined space across the router and every shard's sketch, in bits."""
        return self.space.total_bits()


class ShardedExecutor:
    """Run one logical sketch as ``k`` hash-routed shards with a merge at the end.

    ``factory(shard_index)`` must build a fresh sketch for one shard, parameterized
    exactly as a single-instance run would be (in particular, length-parameterized
    sketches take the *full* stream length — the sampling rate is a global quantity).
    Give each shard a distinct seed, e.g. ``rng.spawn(shard_index)``; see the module
    docstring for what that buys.  ``align_hash_functions`` (default on) copies the
    first shard's hash functions to the others so the merge step lines up — see
    :func:`repro.sharding.mergeable.share_hash_functions`.
    """

    def __init__(
        self,
        factory: Callable[[int], StreamingAlgorithm],
        num_shards: int,
        universe_size: int,
        rng: Optional[RandomSource] = None,
        align_hash_functions: bool = True,
    ) -> None:
        if num_shards <= 0:
            raise ValueError("num_shards must be positive")
        rng = rng if rng is not None else RandomSource()
        self.num_shards = num_shards
        self.router = ShardRouter(num_shards, universe_size, rng=rng.spawn(1))
        self.sketches: List[StreamingAlgorithm] = [
            factory(shard) for shard in range(num_shards)
        ]
        # Fail before ingesting anything, not after: a non-mergeable sketch type
        # would otherwise consume the whole stream and then die in the combine step.
        if num_shards > 1 and not hasattr(self.sketches[0], "merge"):
            raise TypeError(
                f"{type(self.sketches[0]).__name__} does not implement merge(); "
                "sharded execution requires a Mergeable sketch"
            )
        if align_hash_functions:
            share_hash_functions(self.sketches)
        self._started = False
        self._finished = False

    @classmethod
    def from_shards(cls, sketches: Sequence[StreamingAlgorithm], router: ShardRouter) -> "ShardedExecutor":
        """Rebuild an executor around already-ingested shard sketches and their router.

        The restore half of checkpointing (see
        :meth:`repro.pipeline.PipelinedExecutor.from_sink_state`): the sketches and
        router are adopted as-is — no factory call, no hash realignment, no fresh
        randomness — so routing and per-shard state continue exactly where the
        capture left off.  The executor comes back *started* (its sketches hold a
        stream prefix), so :meth:`run`/:meth:`run_chunks` refuse; drive it with
        :meth:`ingest_chunk` + :meth:`combine`, or through a pipelined executor.

        Args:
            sketches: the shard group, in shard order (index ``j`` receives what
                ``router`` routes to shard ``j``).
            router: the :class:`~repro.sharding.router.ShardRouter` the prefix was
                routed with.

        Raises:
            ValueError: if ``sketches`` is empty or its length does not match the
                router's shard count.
        """
        if not sketches:
            raise ValueError("cannot restore an executor from an empty shard group")
        if router.num_shards != len(sketches):
            raise ValueError(
                f"router routes to {router.num_shards} shards but "
                f"{len(sketches)} sketches were given"
            )
        restored = cls.__new__(cls)
        restored.num_shards = len(sketches)
        restored.router = router
        restored.sketches = list(sketches)
        restored._started = True
        restored._finished = False
        return restored

    # -- drivers ------------------------------------------------------------------------

    def run(
        self,
        stream,
        batch_size: Optional[int] = None,
        parallel: bool = False,
        processes: Optional[int] = None,
        report_kwargs: Optional[Mapping[str, Any]] = None,
    ) -> ShardedRunResult:
        """Ingest a whole stream, merge the shards, and report.

        ``stream`` may be a :class:`~repro.streams.stream.Stream`, a numpy array, or
        any iterable of items; ``batch_size`` bounds the chunk granularity of the
        serial driver and of each worker's ingestion (``None`` = one ``insert_many``
        call per shard).  The executor is single-shot: the merge consumes the shard
        sketches, so build a fresh executor per run.
        """
        return self.run_chunks(
            chunk_stream(stream, batch_size),
            batch_size=batch_size,
            parallel=parallel,
            processes=processes,
            report_kwargs=report_kwargs,
        )

    def run_chunks(
        self,
        chunks: Iterable[Sequence[int]],
        batch_size: Optional[int] = None,
        parallel: bool = False,
        processes: Optional[int] = None,
        report_kwargs: Optional[Mapping[str, Any]] = None,
    ) -> ShardedRunResult:
        """Ingest an iterable of pre-chunked batches (the out-of-core entry point).

        This is what the CLI replay path feeds with
        :func:`repro.streams.io.iterate_stream_file_chunks`: the serial driver routes
        each chunk as it arrives (memory stays bounded by the chunk size plus the
        summaries); the parallel driver must materialize per-shard arrays first, so
        its working set is the partitioned stream.
        """
        if self._started or self._finished:
            raise RuntimeError(
                "this ShardedExecutor has already ingested a stream; "
                "build a fresh executor per run"
            )
        self._started = True
        start = time.perf_counter()
        if parallel:
            shard_sizes = self._consume_parallel(chunks, batch_size, processes)
        else:
            shard_sizes = [0] * self.num_shards
            for chunk in chunks:
                for shard, delivered in enumerate(self.ingest_chunk(chunk)):
                    shard_sizes[shard] += delivered
        ingest_seconds = time.perf_counter() - start
        merged, report, space = self.combine(report_kwargs)
        combine_seconds = time.perf_counter() - start - ingest_seconds
        return ShardedRunResult(
            sketch=merged,
            report=report,
            num_shards=self.num_shards,
            shard_sizes=shard_sizes,
            parallel=parallel,
            seconds=ingest_seconds + combine_seconds,
            ingest_seconds=ingest_seconds,
            combine_seconds=combine_seconds,
            space=space,
        )

    def ingest_chunk(self, chunk: Sequence[int]) -> List[int]:
        """Route one chunk into the shard sketches; returns per-shard arrival counts.

        The single-chunk unit of the serial driver, exposed so an external loop (the
        pipelined executor's queue consumer) can drive ingestion chunk by chunk —
        e.g. holding a lock per chunk so a concurrent snapshot sees shard states that
        all correspond to the same stream prefix.  Call :meth:`combine` when the
        stream is exhausted.
        """
        if self._finished:
            raise RuntimeError("this ShardedExecutor has already merged its shards")
        self._started = True  # claim the executor: run_chunks on top would double-ingest
        return self.router.route_chunks([chunk], self.sketches)

    def combine(self, report_kwargs: Optional[Mapping[str, Any]] = None):
        """Merge the shards, account combined space, and report — single-shot.

        Returns ``(merged_sketch, report, space_meter)``.  The merge consumes the
        shard sketches, so the executor cannot ingest or combine again afterwards.
        """
        if self._finished:
            raise RuntimeError(
                "this ShardedExecutor has already run and merged its shards; "
                "build a fresh executor per run"
            )
        self._finished = True
        merged, space = self._merge_and_account()
        report = merged.report(**dict(report_kwargs or {}))
        return merged, report, space

    def _consume_parallel(
        self,
        chunks: Iterable[Sequence[int]],
        batch_size: Optional[int],
        processes: Optional[int],
    ) -> List[int]:
        pieces: List[List[np.ndarray]] = [[] for _ in range(self.num_shards)]
        for chunk in chunks:
            for shard, part in enumerate(self.router.partition(chunk)):
                if part.size:
                    pieces[shard].append(part)
        arrays = []
        for shard in range(self.num_shards):
            parts = pieces[shard]
            arrays.append(np.concatenate(parts) if parts else np.empty(0, dtype=np.int64))
            parts.clear()  # drop the fragments as we go: one stream copy, not two
        del pieces
        worker_count = min(processes or self.num_shards, self.num_shards)
        payloads = list(zip(self.sketches, arrays, [batch_size] * self.num_shards))
        # Freeze the GC generations around the fork: without this, the workers'
        # first collection touches (and copy-on-write-copies) every object the
        # parent ever allocated, which can dwarf the actual shard work.
        gc.freeze()
        try:
            with multiprocessing.Pool(processes=worker_count) as pool:
                self.sketches = pool.map(_consume_shard, payloads)
        finally:
            gc.unfreeze()
        return [int(array.size) for array in arrays]

    # -- combine ------------------------------------------------------------------------

    def _merge_and_account(self):
        """Fold the shards into one sketch and build the combined space meter.

        The combined meter answers the question the paper's Table 1 asks of a
        *deployment*: how many bits does the whole sharded system hold?  Each shard's
        declared components fold in under a ``shard<j>/`` prefix
        (:meth:`~repro.primitives.space.SpaceMeter.merge`), plus the router's hash
        description — the price of sharding is k times the summary space plus O(log n)
        routing bits, exactly the trade the mergeability analysis expects.
        """
        space = SpaceMeter()
        space.set_component("router", self.router.description_bits())
        for shard, sketch in enumerate(self.sketches):
            sketch.refresh_space()
            space.merge(sketch.space, prefix=f"shard{shard}/")
        merged = merge_all(self.sketches)
        return merged, space
