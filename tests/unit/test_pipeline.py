"""Unit tests for the async pipelined ingestion subsystem (repro.pipeline)."""

import os
import threading
import time

import numpy as np
import pytest

from repro.baselines.exact import ExactCounter
from repro.baselines.misra_gries import MisraGries
from repro.core.heavy_hitters_optimal import OptimalListHeavyHitters
from repro.pipeline import ChunkProducer, PipelinedExecutor
from repro.primitives.rng import RandomSource
from repro.sharding import ShardedExecutor
from repro.streams.generators import zipfian_stream
from repro.streams.io import iterate_stream_file_chunks, save_stream
from repro.streams.truth import exact_frequencies


def _saved_trace(tmp_path, length=20_000, universe=1024, seed=1):
    stream = zipfian_stream(length, universe, skew=1.2, rng=RandomSource(seed))
    path = os.path.join(tmp_path, "trace.txt")
    save_stream(stream, path)
    return stream, path


class TestChunkProducer:
    def test_file_replay_concatenates_to_the_trace(self, tmp_path):
        stream, path = _saved_trace(tmp_path)
        chunks = list(ChunkProducer(path, chunk_size=997))
        assert all(isinstance(chunk, np.ndarray) and chunk.dtype == np.int64 for chunk in chunks)
        assert all(chunk.size <= 997 for chunk in chunks)
        assert np.concatenate(chunks).tolist() == list(stream)

    def test_iterable_and_stream_sources(self):
        items = [3, 1, 4, 1, 5, 9, 2, 6]
        assert np.concatenate(list(ChunkProducer(iter(items), chunk_size=3))).tolist() == items
        stream = zipfian_stream(500, 64, skew=1.1, rng=RandomSource(2))
        assert np.concatenate(list(ChunkProducer(stream, chunk_size=64))).tolist() == list(stream)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            ChunkProducer([1], chunk_size=0)
        with pytest.raises(ValueError):
            ChunkProducer([1], queue_depth=0)

    def test_backpressure_bounds_the_queue(self):
        # A stalled consumer must cap the producer's read-ahead at queue_depth
        # chunks — the producer blocks in put() instead of buffering the stream.
        producer = ChunkProducer(iter(range(10_000)), chunk_size=100, queue_depth=3)
        producer.start()
        time.sleep(0.15)
        try:
            assert producer._queue.qsize() <= 3
            assert producer.is_alive  # blocked on backpressure, not finished
            assert producer.chunks_produced < 100
        finally:
            producer.close()
        assert not producer.is_alive

    def test_producer_exception_propagates_to_consumer(self):
        def bad_source():
            yield from range(250)
            raise ValueError("corrupt trace")

        consumed = []
        producer = ChunkProducer(bad_source(), chunk_size=100, queue_depth=2)
        with pytest.raises(ValueError, match="corrupt trace"):
            for chunk in producer:
                consumed.append(chunk)
        # Everything before the failure was delivered, then the thread wound down.
        assert sum(chunk.size for chunk in consumed) == 200
        assert not producer.is_alive

    def test_close_mid_stream_leaves_no_live_thread(self):
        producer = ChunkProducer(iter(range(1_000_000)), chunk_size=10, queue_depth=2)
        iterator = iter(producer)
        next(iterator)
        producer.close()
        assert not producer.is_alive
        with pytest.raises(RuntimeError):
            producer.start()

    def test_context_manager_joins_thread(self):
        before = threading.active_count()
        with ChunkProducer(iter(range(1000)), chunk_size=10, queue_depth=2) as producer:
            assert producer.is_alive or producer.chunks_produced >= 0
        assert not producer.is_alive
        assert threading.active_count() == before

    def test_abandoning_iteration_early(self, tmp_path):
        _, path = _saved_trace(tmp_path)
        producer = ChunkProducer(path, chunk_size=100, queue_depth=2)
        for index, _ in enumerate(producer):
            if index == 2:
                break
        producer.close()
        assert not producer.is_alive


class TestPipelinedExecutor:
    def test_requires_exactly_one_sink(self):
        with pytest.raises(ValueError):
            PipelinedExecutor()
        with pytest.raises(ValueError):
            PipelinedExecutor(
                sketch=ExactCounter(8),
                executor=ShardedExecutor(lambda s: ExactCounter(8), 1, 8),
            )

    def test_single_sketch_equals_eager_replay(self, tmp_path):
        stream, path = _saved_trace(tmp_path)
        eager = ExactCounter(1024)
        eager.insert_many(stream.array)
        executor = PipelinedExecutor(sketch=ExactCounter(1024), chunk_size=777, queue_depth=2)
        result = executor.run(path)
        assert result.sketch.frequencies() == eager.frequencies()
        assert result.items_processed == len(stream)
        assert result.shard_sizes == [len(stream)]
        assert result.num_shards == 1
        assert result.space_bits() > 0

    def test_sharded_pipelined_is_bit_identical_to_serial_run_chunks(self, tmp_path):
        stream, path = _saved_trace(tmp_path)

        def build():
            return ShardedExecutor(
                factory=lambda shard: OptimalListHeavyHitters(
                    epsilon=0.02, phi=0.05, universe_size=1024,
                    stream_length=len(stream), rng=RandomSource(50 + shard),
                ),
                num_shards=3,
                universe_size=1024,
                rng=RandomSource(99),
            )

        serial = build().run_chunks(iterate_stream_file_chunks(path, 1000))
        pipelined = PipelinedExecutor(executor=build(), chunk_size=1000, queue_depth=3)
        result = pipelined.run(path)
        assert dict(result.report.items) == dict(serial.report.items)
        assert result.shard_sizes == serial.shard_sizes
        assert result.space_bits() == serial.space_bits()

    def test_result_timing_split_is_consistent(self, tmp_path):
        _, path = _saved_trace(tmp_path)
        executor = PipelinedExecutor(sketch=MisraGries(0.01, 1024), chunk_size=1000)
        result = executor.run(path, report_kwargs={"phi": 0.05})
        assert result.ingest_seconds >= 0.0
        assert result.combine_seconds >= 0.0
        assert result.seconds == pytest.approx(result.ingest_seconds + result.combine_seconds)
        assert 0 <= result.max_queue_depth <= result.queue_depth
        assert result.chunks == 20

    def test_executor_is_single_shot(self, tmp_path):
        _, path = _saved_trace(tmp_path)
        executor = PipelinedExecutor(sketch=ExactCounter(1024))
        executor.run(path)
        with pytest.raises(RuntimeError):
            executor.run(path)
        with pytest.raises(RuntimeError):
            executor.snapshot()

    def test_concurrent_runs_have_exactly_one_winner(self):
        # Regression for the lock-discipline sweep: the started-flag check and
        # claim in run() must be one atomic step under the ingestion lock, or
        # two threads racing run() both pass the check and ingest into the
        # same sketches.  Whatever the interleaving, exactly one run() wins.
        for _ in range(10):
            executor = PipelinedExecutor(
                sketch=ExactCounter(1024), chunk_size=64, queue_depth=2
            )
            barrier = threading.Barrier(2)
            outcomes = []

            def attempt():
                barrier.wait()
                try:
                    result = executor.run(iter(range(512)))
                except RuntimeError:
                    outcomes.append("refused")
                else:
                    outcomes.append(result.items_processed)

            threads = [threading.Thread(target=attempt) for _ in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert outcomes.count("refused") == 1
            assert 512 in outcomes  # the winner saw every item exactly once

    def test_producer_exception_propagates_through_run(self):
        def bad_source():
            yield from range(100)
            raise OSError("disk went away")

        executor = PipelinedExecutor(sketch=ExactCounter(1024), chunk_size=10, queue_depth=2)
        before = threading.active_count()
        with pytest.raises(OSError, match="disk went away"):
            executor.run(bad_source())
        assert threading.active_count() == before
        # A failed run consumed the executor: its sketch holds the pre-failure
        # prefix, so a retry on the same instance would double-count.
        with pytest.raises(RuntimeError, match="already run"):
            executor.run(iter(range(10)))

    def test_sharded_executor_not_reusable_after_mid_ingest_failure(self):
        def bad_chunks():
            yield np.arange(10, dtype=np.int64)
            raise ValueError("corrupt trace")

        executor = ShardedExecutor(
            factory=lambda shard: ExactCounter(64), num_shards=2,
            universe_size=64, rng=RandomSource(8),
        )
        with pytest.raises(ValueError, match="corrupt trace"):
            executor.run_chunks(bad_chunks())
        with pytest.raises(RuntimeError, match="already ingested"):
            executor.run_chunks([np.arange(10, dtype=np.int64)])

    def test_run_leaves_no_live_threads(self, tmp_path):
        _, path = _saved_trace(tmp_path)
        before = threading.active_count()
        PipelinedExecutor(sketch=ExactCounter(1024), chunk_size=500).run(path)
        assert threading.active_count() == before

    def test_snapshot_during_ingest_satisfies_definition_on_the_prefix(self):
        stream = zipfian_stream(40_000, 512, skew=1.3, rng=RandomSource(4))

        def slow_source():
            for start in range(0, len(stream), 800):
                time.sleep(0.002)  # stretch ingestion so the snapshot lands mid-stream
                yield from stream[start:start + 800].tolist()

        executor = PipelinedExecutor(
            executor=ShardedExecutor(
                factory=lambda shard: MisraGries(0.01, 512),
                num_shards=2, universe_size=512, rng=RandomSource(5),
            ),
            chunk_size=800, queue_depth=2,
        )
        outcome = {}
        thread = threading.Thread(
            target=lambda: outcome.update(result=executor.run(slow_source(),
                                                              report_kwargs={"phi": 0.05}))
        )
        thread.start()
        time.sleep(0.03)
        snapshot = executor.snapshot(report_kwargs={"phi": 0.05})
        thread.join()
        assert 0 < snapshot.items_processed <= len(stream)
        # Chunk ingestion is atomic, so the snapshot state is exactly the first
        # items_processed stream items; Misra-Gries is deterministic, so its merged
        # report must satisfy Definition 1 against that prefix's exact frequencies.
        prefix = stream.prefix(snapshot.items_processed)
        assert snapshot.report.stream_length == snapshot.items_processed
        assert snapshot.report.satisfies_definition(exact_frequencies(prefix))
        # The snapshot is a copy: the full run is unaffected and reports on the
        # whole stream.
        result = outcome["result"]
        assert result.items_processed == len(stream)
        assert result.report.satisfies_definition(exact_frequencies(stream))

    def test_snapshot_before_ingest_is_empty(self):
        executor = PipelinedExecutor(sketch=MisraGries(0.05, 64))
        snapshot = executor.snapshot(report_kwargs={"phi": 0.2})
        assert snapshot.items_processed == 0
        assert len(snapshot.report) == 0


class TestSnapshotCache:
    """The versioned snapshot cache: O(1) repeats, copy-on-write invalidation."""

    def _executor(self) -> PipelinedExecutor:
        return PipelinedExecutor(sketch=MisraGries(0.02, 512), chunk_size=1000)

    def test_repeated_snapshot_at_fixed_prefix_hits_the_cache(self):
        executor = self._executor()
        executor.ingest_chunk(np.arange(1000) % 512)
        first = executor.snapshot(report_kwargs={"phi": 0.1})
        assert (executor.snapshot_cache_misses, executor.snapshot_cache_hits) == (1, 0)
        for _ in range(5):
            repeat = executor.snapshot(report_kwargs={"phi": 0.1})
            # same merged sketch (no deepcopy), same answer — but the report is
            # a private copy, so a caller mutating it cannot poison the cache
            assert repeat.sketch is first.sketch
            assert repeat.report is not first.report
            assert dict(repeat.report.items) == dict(first.report.items)
            assert repeat.items_processed == first.items_processed
        assert (executor.snapshot_cache_misses, executor.snapshot_cache_hits) == (1, 5)

    def test_mutating_a_served_report_does_not_poison_the_cache(self):
        executor = self._executor()
        executor.ingest_chunk(np.zeros(1000, dtype=np.int64))
        tampered = executor.snapshot(report_kwargs={"phi": 0.1})
        assert 0 in tampered.report
        tampered.report.items[499] = 999.0  # a hostile/buggy caller
        clean = executor.snapshot(report_kwargs={"phi": 0.1})
        assert 499 not in clean.report.items

    def test_ingestion_advancing_invalidates_the_cache(self):
        executor = self._executor()
        executor.ingest_chunk(np.zeros(1000, dtype=np.int64))
        stale = executor.snapshot(report_kwargs={"phi": 0.1})
        executor.ingest_chunk(np.ones(1000, dtype=np.int64))
        fresh = executor.snapshot(report_kwargs={"phi": 0.1})
        assert executor.snapshot_cache_misses == 2
        assert fresh.items_processed == 2000
        assert stale.items_processed == 1000  # the old snapshot is unperturbed
        assert fresh.report is not stale.report

    def test_new_report_kwargs_reuse_the_merged_copy(self):
        executor = self._executor()
        executor.ingest_chunk(np.zeros(1000, dtype=np.int64))
        low = executor.snapshot(report_kwargs={"phi": 0.1})
        high = executor.snapshot(report_kwargs={"phi": 0.9})
        # second call re-reports on the cached merged sketch: a hit, not a copy
        assert executor.snapshot_cache_misses == 1
        assert executor.snapshot_cache_hits == 1
        assert high.sketch is low.sketch
        assert high.report is not low.report
        # and both kwargs are now report-cached: further calls are hits
        assert dict(executor.snapshot(report_kwargs={"phi": 0.1}).report.items) == dict(
            low.report.items
        )
        assert dict(executor.snapshot(report_kwargs={"phi": 0.9}).report.items) == dict(
            high.report.items
        )
        assert executor.snapshot_cache_misses == 1
        assert executor.snapshot_cache_hits == 3

    def test_unhashable_report_kwargs_bypass_the_report_cache(self):
        """Unhashable kwarg values degrade gracefully: re-report, never crash."""

        class UnhashablePhi:  # numeric enough for report(), but not hashable
            __hash__ = None

            def __sub__(self, other):
                return 0.1 - other

        executor = self._executor()
        executor.ingest_chunk(np.zeros(1000, dtype=np.int64))
        weird = {"phi": UnhashablePhi()}
        first = executor.snapshot(report_kwargs=weird)
        again = executor.snapshot(report_kwargs=weird)
        assert dict(first.report.items) == dict(again.report.items)
        # merged sketch was still reused (one miss), reports recomputed each time
        assert executor.snapshot_cache_misses == 1

    def test_cached_snapshot_answers_match_a_fresh_run_on_the_prefix(self):
        stream = zipfian_stream(8_000, 256, skew=1.3, rng=RandomSource(9))
        executor = PipelinedExecutor(sketch=MisraGries(0.02, 256), chunk_size=2000)
        for start in range(0, 4000, 2000):
            executor.ingest_chunk(stream.array[start:start + 2000])
        cached = [executor.snapshot(report_kwargs={"phi": 0.05}) for _ in range(3)][-1]
        reference = MisraGries(0.02, 256)
        for start in range(0, 4000, 2000):
            reference.insert_many(stream.array[start:start + 2000])
        assert dict(cached.report.items) == dict(reference.report(phi=0.05).items)

    def test_cache_is_dropped_on_finalize(self):
        executor = self._executor()
        executor.ingest_chunk(np.zeros(1000, dtype=np.int64))
        executor.snapshot(report_kwargs={"phi": 0.1})
        assert executor._snapshot_cache is not None
        executor.finalize(report_kwargs={"phi": 0.1})
        assert executor._snapshot_cache is None
        with pytest.raises(RuntimeError):
            executor.snapshot(report_kwargs={"phi": 0.1})


class TestShardedTimingSplit:
    def test_ingest_and_combine_seconds_sum_to_total(self):
        stream = zipfian_stream(10_000, 256, skew=1.2, rng=RandomSource(6))
        executor = ShardedExecutor(
            factory=lambda shard: MisraGries(0.02, 256),
            num_shards=2, universe_size=256, rng=RandomSource(7),
        )
        result = executor.run(stream, report_kwargs={"phi": 0.05})
        assert result.ingest_seconds >= 0.0
        assert result.combine_seconds >= 0.0
        assert result.seconds == pytest.approx(
            result.ingest_seconds + result.combine_seconds
        )
