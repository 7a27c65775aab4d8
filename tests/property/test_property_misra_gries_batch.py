"""Property tests for the Misra–Gries batch merge behind every batched ingest.

``MisraGriesTable.update_many`` folds one chunk's exact ``(key, count)`` summary
into the table with the mergeable-summaries combine that ``merge`` applies: add,
then subtract the ``(k+1)``-th largest count and drop the non-positive keys.  It
runs under the Misra–Gries baseline and under ``T1`` of both paper algorithms,
so these tests sweep skew from uniform to Zipf(2) and chunk sizes from 1 to
65536 and check, after every chunk:

* no estimate overcounts, and every undercount is at most ``m/(k+1)``;
* at most ``k`` keys are kept;
* ``update_many(chunk)`` equals ``merge`` of the chunk's exact summary and a
  plain-dict rendering of the combine, bit for bit;
* Algorithm 1's ``T2`` holds exactly the top ``id_table_capacity`` hashed keys of
  its ``T1`` (as a set after every arrival on the per-item path, too).

A Misra–Gries checkpoint written before the batch merge existed (format 3, a
plain counter dict) must restore and resume.
"""

import copy
import os
import pickle

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.misra_gries import MisraGries, MisraGriesTable
from repro.core.heavy_hitters_simple import SimpleListHeavyHitters
from repro.primitives.batching import aggregate_counts, iter_chunks
from repro.primitives.rng import RandomSource
from repro.service.checkpoint import Checkpointer
from repro.streams.generators import uniform_stream, zipfian_stream

UNIVERSE = 4096
FIXTURE = os.path.join(os.path.dirname(__file__), os.pardir, "data", "misra_gries_format3.ckpt")

skews = st.sampled_from((None, 0.5, 1.0, 1.2, 1.5, 2.0))  # None: uniform


@st.composite
def chunked_streams(draw, max_items=150_000):
    """A (stream, chunk size) pair: up to 40 chunks of 1..65536 items plus a tail."""
    largest = min(65536, max_items)
    chunk_size = draw(
        st.one_of(st.integers(1, 64), st.integers(1, largest), st.sampled_from((1, largest)))
    )
    chunks = draw(st.integers(1, max(1, min(40, max_items // chunk_size))))
    length = chunk_size * chunks + draw(st.integers(0, chunk_size - 1))
    skew = draw(skews)
    rng = RandomSource(draw(st.integers(0, 2**16)))
    if skew is None:
        stream = uniform_stream(length, UNIVERSE, rng=rng)
    else:
        stream = zipfian_stream(length, UNIVERSE, skew=skew, rng=rng)
    return stream.array, chunk_size


def _reference_combine(counters, decrements, capacity, keys, counts):
    """The combine over plain dicts: add, then cut at the (capacity+1)-th largest."""
    merged = dict(counters)
    for key, count in zip(keys, counts):
        merged[key] = merged.get(key, 0) + count
    if len(merged) > capacity:
        cutoff = sorted(merged.values(), reverse=True)[capacity]
        merged = {key: count - cutoff for key, count in merged.items() if count > cutoff}
        decrements += cutoff
    return merged, decrements


@settings(max_examples=40, deadline=None)
@given(data=chunked_streams(), capacity=st.integers(1, 200))
def test_batch_merge_keeps_the_misra_gries_guarantee(data, capacity):
    stream, chunk_size = data
    table = MisraGriesTable(capacity)
    truth = np.zeros(UNIVERSE, dtype=np.int64)
    seen = 0
    for chunk in iter_chunks(stream, chunk_size):
        table.update_many(*aggregate_counts(chunk))
        truth += np.bincount(chunk, minlength=UNIVERSE)
        seen += chunk.size
        assert len(table) <= capacity
        estimates = np.zeros(UNIVERSE, dtype=np.int64)
        estimates[list(table.counters)] = list(table.counters.values())
        undercount = truth - estimates
        assert undercount.min() >= 0
        assert undercount.max() <= table.total_decrements <= seen / (capacity + 1)


@settings(max_examples=40, deadline=None)
@given(data=chunked_streams(max_items=70_000), capacity=st.integers(1, 60))
def test_update_many_equals_merge_of_the_exact_chunk_summary(data, capacity):
    stream, chunk_size = data
    table = MisraGriesTable(capacity)
    unaggregated = MisraGriesTable(capacity)
    for chunk in iter_chunks(stream, chunk_size):
        keys, counts = aggregate_counts(chunk)
        expected = _reference_combine(
            table.counters, table.total_decrements, capacity, keys.tolist(), counts.tolist()
        )
        summary = MisraGriesTable(capacity)
        summary.counters = dict(zip(keys.tolist(), counts.tolist()))  # exact, uncapped
        merged = copy.deepcopy(table)
        merged.merge(summary)
        table.update_many(keys, counts)
        unaggregated.update_many(chunk, np.ones(chunk.size, dtype=np.int64))
        assert (table.counters, table.total_decrements) == expected
        assert pickle.dumps(table) == pickle.dumps(merged) == pickle.dumps(unaggregated)


@settings(max_examples=30, deadline=None)
@given(
    data=chunked_streams(max_items=70_000),
    epsilon=st.sampled_from((0.02, 0.05, 0.1)),
    seed=st.integers(0, 2**16),
)
def test_thm1_id_table_is_the_top_of_t1_after_every_chunk(data, epsilon, seed):
    stream, chunk_size = data
    algo = SimpleListHeavyHitters(
        epsilon=epsilon, phi=2.5 * epsilon, universe_size=UNIVERSE,
        stream_length=stream.size, rng=RandomSource(seed),
    )
    for chunk in iter_chunks(stream, chunk_size):
        algo.insert_many(chunk)
        counters = algo.t1.counters
        ranked = sorted(counters, key=lambda hashed: (-counters[hashed], hashed))
        assert list(algo.t2) == ranked[: algo.id_table_capacity]
        assert all(algo.hash_function(item) == hashed for hashed, item in algo.t2.items())


@settings(max_examples=30, deadline=None)
@given(data=chunked_streams(max_items=600), seed=st.integers(0, 2**16))
def test_thm1_id_table_is_the_top_of_t1_after_every_insert(data, seed):
    stream, _ = data
    algo = SimpleListHeavyHitters(
        epsilon=0.1, phi=0.25, universe_size=UNIVERSE, stream_length=stream.size,
        rng=RandomSource(seed),
    )
    for item in stream.tolist():
        algo.insert(item)
        counters = algo.t1.counters
        ranked = sorted(counters, key=lambda hashed: (-counters[hashed], hashed))
        assert set(algo.t2) == set(ranked[: algo.id_table_capacity])


def test_checkpoint_written_before_the_batch_merge_restores_and_resumes():
    """The fixture holds MisraGries(0.1, 64) after 4 chunks of 500 items of the
    stream below, written by the per-id update path with checkpoint format 3."""
    stream = zipfian_stream(4000, 64, skew=1.1, rng=RandomSource(21)).array
    checkpointer = Checkpointer()
    state, manifest = checkpointer.load(FIXTURE)
    assert manifest["format"] == 3 and manifest["items_processed"] == 2000
    table = state.sketches[0].table
    assert table.counters == {0: 389, 1: 92, 2: 23, 53: 1, 57: 2, 58: 1, 59: 1, 61: 2, 62: 1}
    assert table.total_decrements == 124

    reports = []
    for _ in range(2):
        executor, _ = checkpointer.restore_pipeline(FIXTURE)
        for start in range(2000, 4000, 500):
            executor.ingest_chunk(stream[start:start + 500])
        result = executor.finalize(report_kwargs={"phi": 0.2})
        reports.append(dict(result.report.items))
    assert reports[0] == reports[1]

    resumed = MisraGries(0.1, 64)
    resumed.table.counters = dict(table.counters)
    resumed.table.total_decrements = table.total_decrements
    resumed.items_processed = 2000
    truth = np.bincount(stream, minlength=64)
    for start in range(2000, 4000, 500):
        resumed.insert_many(stream[start:start + 500])
    assert dict(resumed.report(phi=0.2).items) == reports[0]
    bound = stream.size / (resumed.table.num_counters + 1)
    for item in range(64):
        assert truth[item] - bound <= resumed.estimate(item) <= truth[item]
