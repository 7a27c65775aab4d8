"""Async pipelined ingestion: stream parsing overlaps sketch updates via a chunk queue.

This package is the third rung of the scaling ladder in ROADMAP.md — **batching**
(PR 1: ``insert_many`` makes one consumer fast) → **sharding** (PR 2: one stream
spread across ``k`` mergeable sketches) → **async** (this: replay and compute no
longer alternate).  Replaying an on-disk trace serially spends its wall-clock in two
strictly alternating phases: parse a chunk (file IO, ``int`` conversion, numpy
materialization — work that releases the GIL in its numpy parts), then ingest it
(``insert_many`` — Python/numpy compute).  The pipeline runs the two concurrently:

* :class:`ChunkProducer` — a background thread that reads any chunk source (a trace
  path, a ``Stream``, an array, an iterable) into a **bounded** queue of contiguous
  int64 chunks;
* :class:`PipelinedExecutor` — the consumer loop that drains the queue into a single
  sketch's ``insert_many`` or a :class:`~repro.sharding.ShardedExecutor`'s router
  fan-out, merges at end of stream, and can answer heavy-hitter queries *mid-ingest*
  through :meth:`~PipelinedExecutor.snapshot`.

The contract, in three clauses
------------------------------

**Backpressure.**  The queue holds at most ``queue_depth`` chunks of ``chunk_size``
items; a slow consumer blocks the producer in ``put`` rather than letting it buffer
the stream, so a pipelined replay costs O(``queue_depth`` × ``chunk_size``) memory
beyond the sketches — the same out-of-core guarantee as the serial chunked replay,
one constant factor deeper.

**Ordering and determinism.**  The queue is FIFO and the consumer is a single loop:
chunks are ingested in source order, and the concatenation of ingested chunks is
exactly the source's item sequence.  Pipelining therefore changes *when* parsing
happens, never *what* the sketches see: with the same seeds and the same chunk size,
a pipelined run is **bit-for-bit identical** to the serial
:meth:`~repro.sharding.ShardedExecutor.run_chunks` replay of the same source — the
(ε,ϕ) guarantee of Definition 1 rides along untouched, and the pipeline tests
(``tests/property/test_property_pipeline.py``) check exactly this equality
rather than assuming it.

**Failure and shutdown.**  An exception raised while parsing (corrupt trace line,
failing generator) is captured on the producer thread and re-raised, as itself, from
the consumer's call site; every exit path — completion, producer error, consumer
error, abandonment — joins the producer thread, so no run leaves a live thread
behind.

Mid-ingest queries.  Chunk ingestion is atomic under the executor's lock, so
:meth:`PipelinedExecutor.snapshot` (from any thread) deep-copies shard states that
all correspond to the same chunk-aligned stream prefix, merges the copies, and
reports against the prefix length — Definition 1 semantics on the stream so far,
while ingestion continues on the originals.

Quickstart::

    from repro.pipeline import PipelinedExecutor
    from repro.sharding import ShardedExecutor

    executor = PipelinedExecutor(
        executor=ShardedExecutor(factory, num_shards=4, universe_size=n),
        chunk_size=1 << 16, queue_depth=4,
    )
    result = executor.run("trace.txt")          # parse ‖ ingest, then merge
    print(result.report.reported_items(), result.ingest_seconds)
"""

from repro.pipeline.executor import (
    PipelinedExecutor,
    PipelinedRunResult,
    PipelineSnapshot,
    SinkState,
)
from repro.pipeline.producer import ArrayBatchSource, ChunkProducer

__all__ = [
    "ArrayBatchSource",
    "ChunkProducer",
    "PipelinedExecutor",
    "PipelinedRunResult",
    "PipelineSnapshot",
    "SinkState",
]
