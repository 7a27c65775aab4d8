"""Sharded ingestion: hash-partitioned routing, mergeable summaries, parallel shards.

This package is the scaling seam between a single fast consumer (PR 1's batched
``insert_many`` path) and a multi-consumer deployment: it spreads one logical stream
across ``k`` independent sketch instances and recombines them into a single answer
without degrading the paper's (ε,ϕ) guarantee.  The pipeline is **split → sketch →
merge**:

1. **Split** — :class:`ShardRouter` assigns every item to a shard with one
   Carter–Wegman hash of its *id* (universal family of Section 2.4), so all
   occurrences of an item land in the same shard and each shard sees an honest
   sub-stream of ``~m/k`` arrivals in expectation.  Chunks are partitioned into
   contiguous per-shard arrays that feed each sketch's ``insert_many`` fast path.
2. **Sketch** — ``k`` instances of any of the package's heavy-hitter summaries ingest
   their shards, serially or in parallel (:class:`ShardedExecutor`'s
   ``multiprocessing`` driver, one worker per shard).
3. **Merge** — the instances fold back together through the :class:`Mergeable`
   protocol: Misra–Gries and Space-Saving merge losslessly (error bounds add, within
   ε(m₁+m₂)); Count-Min and CountSketch add their linear-sketch tables exactly; the
   paper's Algorithm 1 merges its hashed Misra–Gries core; Algorithm 2 combines its
   T2/T3 accelerated counters additively — unbiased in expectation, summed variance
   (see :meth:`repro.primitives.accelerated.EpochAcceleratedCounter.merge`).  One
   report is produced from the merged sketch, so the Definition 1 threshold is
   applied against the *combined* stream length.

Merge guarantees, in one line per family: deterministic counter summaries keep their
deterministic additive bound for the concatenated stream; linear sketches merge
bit-for-bit exactly; the sampled/accelerated algorithms keep the (ε,ϕ) guarantee with
the same confidence parameter, because sampling rates are global (shards are built
with the full stream length) and per-bucket estimators are additive in expectation.
The combine step is not assumed correct — the merge property tests
(``tests/property/test_property_merge.py``) compare sharded against
single-instance reports on the same stream.

Determinism: each shard owns its randomness (seed the factory per shard index), so
serial sharded runs are reproducible bit for bit; the parallel driver is reproducible
run-to-run but re-seeds sketch RNGs (deterministically) at process boundaries — see
:mod:`repro.sharding.executor` for the full caveats.

Quickstart::

    from repro import OptimalListHeavyHitters, RandomSource, zipfian_stream
    from repro.sharding import ShardedExecutor

    stream = zipfian_stream(1_000_000, 1 << 16, skew=1.2, rng=RandomSource(7))
    rng = RandomSource(11)
    executor = ShardedExecutor(
        factory=lambda shard: OptimalListHeavyHitters(
            epsilon=0.01, phi=0.05, universe_size=stream.universe_size,
            stream_length=len(stream), rng=rng.spawn(shard),
        ),
        num_shards=4,
        universe_size=stream.universe_size,
        rng=rng,
    )
    result = executor.run(stream, parallel=True)
    print(result.report.reported_items(), result.space_bits())
"""

from repro.sharding.mergeable import Mergeable, merge_all, share_hash_functions
from repro.sharding.router import ShardRouter
from repro.sharding.executor import ShardedExecutor, ShardedRunResult

__all__ = [
    "Mergeable",
    "merge_all",
    "share_hash_functions",
    "ShardRouter",
    "ShardedExecutor",
    "ShardedRunResult",
]
