"""Algorithm 1 / Theorem 1 — the simpler, near-optimal (ε,ϕ)-List heavy hitters.

Space: ``O(ε⁻¹ (log ε⁻¹ + log log δ⁻¹) + ϕ⁻¹ log n + log log m)`` bits.

The idea (paper Section 3.1.1):

1. Sample ``O(ε⁻² log(1/δ))`` stream items uniformly (Bernoulli rate ``~ ℓ/m``); by
   Lemma 3 every relative frequency is preserved to within ``±ε/2`` in the sample.
2. Hash the ids of the sampled items into a space of size ``poly(ε⁻¹, δ⁻¹)``; by
   Lemma 2 the sampled items have distinct hashed ids, so counting hashed ids is as
   good as counting the items themselves — but a hashed id needs only
   ``O(log ε⁻¹ + log δ⁻¹)`` bits instead of ``log n``.
3. Feed the hashed ids to a Misra–Gries table ``T1`` with ``O(1/ε)`` counters.
4. Separately remember the *actual* ids of the items whose hashes currently hold the
   top ``O(1/ϕ)`` counters (table ``T2``), because the answer must name real items.
5. At reporting time, return the items of ``T2`` whose (rescaled) counter exceeds
   ``(ϕ − ε/2) m``.

This implementation follows the paper's structure exactly; the only liberties taken are
constant factors (we split the error budget evenly between the sampling error and the
Misra–Gries error so that the end-to-end ``±εm`` guarantee of Definition 1 actually
holds, which the paper's constant-free prose glosses over).
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Sequence

import numpy as np

from repro.baselines.misra_gries import MisraGriesTable
from repro.core.base import FrequencyEstimator
from repro.core.results import HeavyHittersReport, MaximumResult
from repro.primitives.batching import aggregate_counts, as_item_array, validate_universe
from repro.primitives.hashing import UniversalHashFamily, UniversalHashFunction
from repro.primitives.rng import RandomSource
from repro.primitives.sampling import CoinFlipSampler
from repro.primitives.space import bits_for_value


class SimpleListHeavyHitters(FrequencyEstimator):
    """Algorithm 1 of the paper: sampled, hashed Misra–Gries with an id side-table."""

    def __init__(
        self,
        epsilon: float,
        phi: float,
        universe_size: int,
        stream_length: int,
        delta: float = 0.1,
        rng: Optional[RandomSource] = None,
    ) -> None:
        super().__init__()
        if not 0.0 < epsilon < 1.0:
            raise ValueError("epsilon must be in (0, 1)")
        if not epsilon < phi <= 1.0:
            raise ValueError("phi must satisfy epsilon < phi <= 1")
        if universe_size <= 0:
            raise ValueError("universe_size must be positive")
        if stream_length <= 0:
            raise ValueError("stream_length must be positive (use the unknown-length wrapper otherwise)")
        if not 0.0 < delta < 1.0:
            raise ValueError("delta must be in (0, 1)")

        self.epsilon = epsilon
        self.phi = phi
        self.delta = delta
        self.universe_size = universe_size
        self.stream_length = stream_length
        rng = rng if rng is not None else RandomSource()

        # Split the ±εm budget: ε/2 for the sampling error (Lemma 3), ε/2 for the
        # Misra–Gries error on the sample.
        self._sampling_epsilon = epsilon / 2.0
        # Line 2 of Algorithm 1: the target sample size.
        self.target_sample_size = int(
            math.ceil(6.0 * math.log(6.0 / delta) / (self._sampling_epsilon ** 2))
        )
        # Line 8: sample each arrival with probability p = 6 l / m (capped at 1,
        # rounded to a power-of-two reciprocal per footnote 3 — CoinFlipSampler does so).
        probability = min(1.0, 6.0 * self.target_sample_size / stream_length)
        self._sampler = CoinFlipSampler(probability, rng=rng.spawn(1))
        self.sample_size = 0

        # Line 3: the id hash.  The hash range is poly(l, 1/delta) so that, by Lemma 2,
        # the at most ~11 l sampled items collide with probability at most ~delta.
        self.hash_range = int(math.ceil(10.0 * (self.target_sample_size ** 2) / delta))
        family = UniversalHashFamily(universe_size, self.hash_range, rng=rng.spawn(2))
        self.hash_function: UniversalHashFunction = family.draw()

        # Line 4: T1, the Misra–Gries table over hashed ids, with O(1/eps) counters.
        self.table_capacity = int(math.ceil(2.0 / epsilon)) + 1
        self.t1 = MisraGriesTable(num_counters=self.table_capacity)

        # Line 5: T2, the ids of the items whose hashes hold the top O(1/phi) counters.
        self.id_table_capacity = int(math.ceil(1.0 / max(phi - epsilon, epsilon))) + 1
        self.t2: Dict[int, int] = {}  # hashed id -> actual id

    # -- stream interface ---------------------------------------------------------------

    def insert(self, item: int) -> None:
        if not 0 <= item < self.universe_size:
            raise ValueError(f"item {item} outside universe [0, {self.universe_size})")
        self.items_processed += 1
        # Line 8: sample.
        if not self._sampler.decide():
            return
        self.sample_size += 1
        hashed = self.hash_function(item)
        # Line 9: Misra–Gries update on the hashed id.
        self.t1.update(hashed)
        # Lines 10-16: keep T2 the ids of the top-1/phi hashed keys of T1.  A tracked
        # hash was only incremented (Misra–Gries decrements only for a new key), so
        # it stays in the top.
        if hashed in self.t2:
            self.t2[hashed] = item
        else:
            self._keep_top_ids({**self.t2, hashed: item})

    def insert_many(self, items: Sequence[int]) -> None:
        """Batched ingestion (statistically equivalent to sequential insertion).

        Three batch tricks, in the order of Algorithm 1's lines:

        * line 8 — the Lemma 1 sampler skips ahead geometrically, touching the RNG only
          ``O(p * batch + 1)`` times instead of once per arrival;
        * line 9 — the sampled ids are pre-aggregated and hashed *per distinct id* with
          one vectorized Carter–Wegman pass (the id-hash prime is huge, so hashing
          distinct ids with multiplicities is what keeps the big-int work small), and
          ``T1`` absorbs them with one Misra–Gries batch merge;
        * lines 10-16 — the ``T2`` id side-table is synchronized once per batch, to the
          top ``id_table_capacity`` of (old ``T2`` ∪ the batch's hashed ids) by ``T1``
          count: the rule :meth:`insert` and :meth:`merge` apply.

        RNG consumption order and Misra–Gries decrements differ from the per-item path,
        so runs with the same seed diverge bit-wise; the estimator, the (ε, ϕ)
        guarantee and the space accounting are identical.
        """
        array = as_item_array(items)
        validate_universe(array, self.universe_size)
        if array.size == 0:
            return
        self.items_processed += int(array.size)
        # Line 8: skip-ahead sampling.
        sampled = self._sampler.accepted(array)
        if sampled.size == 0:
            return
        self.sample_size += int(sampled.size)
        values, counts = aggregate_counts(sampled)
        # Line 9: one vectorized hash pass over the distinct sampled ids, one merge.
        hashed = self.hash_function.hash_many(values)
        self.t1.update_many(hashed, counts)
        # Lines 10-16: only batch ids still in T1 can enter T2 (on a hash collision
        # the largest id wins).
        stored = np.fromiter(self.t1.counters, dtype=np.int64, count=len(self.t1))
        fresh = np.isin(hashed, stored)
        candidates = dict(self.t2)
        candidates.update(zip(hashed[fresh].tolist(), values[fresh].tolist()))
        self._keep_top_ids(candidates)

    def merge(self, other: "SimpleListHeavyHitters") -> None:
        """Fold another shard's Algorithm 1 state into this one.

        Requires identical parameters and a *shared* id hash function (the sharded
        executor arranges this), so hashed ids are comparable across instances.  ``T1``
        (Misra–Gries over hashed ids) merges losslessly; the merged ``T2`` id
        side-table keeps the actual ids of the highest-valued hashed keys of the
        merged ``T1``, the invariant every update maintains; sample and stream
        counts add.
        """
        if not isinstance(other, SimpleListHeavyHitters):
            raise TypeError(
                f"cannot merge SimpleListHeavyHitters with {type(other).__name__}"
            )
        if (
            other.epsilon != self.epsilon
            or other.phi != self.phi
            or other.universe_size != self.universe_size
            or other.hash_range != self.hash_range
            or other.table_capacity != self.table_capacity
            or other.id_table_capacity != self.id_table_capacity
            # The sampling rate is derived from the (full) stream length, so a
            # mismatch would silently combine samples drawn at different rates.
            or other.stream_length != self.stream_length
        ):
            raise ValueError("cannot merge Algorithm 1 instances with different parameters")
        if other.hash_function != self.hash_function:
            raise ValueError(
                "cannot merge Algorithm 1 instances with different id hash functions; "
                "build the shards with shared hash functions (see repro.sharding)"
            )
        self.t1.merge(other.t1)
        combined = dict(other.t2)
        combined.update(self.t2)  # on collision both map hash -> some occurrence's id
        self._keep_top_ids(combined)
        self.sample_size += other.sample_size
        self.items_processed += other.items_processed

    def _keep_top_ids(self, candidates: Dict[int, int]) -> None:
        """Lines 10-16: set T2 to the ``id_table_capacity`` candidates with the largest
        T1 counts (ties by hashed id; a hash that left T1 is dropped).

        ``candidates`` maps hashed id -> actual id: the old T2 plus every hash T1 just
        incremented.  That is enough to keep T2 the top of all of T1, because a
        Misra–Gries decrement lowers every counter by the same amount.  The cost is
        O(1/phi log 1/phi) per sampled arrival of an untracked hash, or per batch;
        the paper spreads the same O(1/phi) work over the next O(1/eps) arrivals to
        get O(1) worst-case update time.
        """
        counters = self.t1.counters
        ranked = sorted((-counters[hashed], hashed) for hashed in candidates if hashed in counters)
        self.t2 = {hashed: candidates[hashed] for _, hashed in ranked[: self.id_table_capacity]}

    # -- queries ------------------------------------------------------------------------

    def _scale(self) -> float:
        """Factor converting sample counts to absolute stream frequencies."""
        if self.sample_size == 0:
            return 0.0
        return self.items_processed / self.sample_size

    def estimate(self, item: int) -> float:
        """Estimated absolute frequency of an item (0 for items not tracked)."""
        return self.t1.get(self.hash_function(item)) * self._scale()

    def report(self) -> HeavyHittersReport:
        """Lines 18-19 plus the Definition 1 filter at threshold (ϕ − ε/2)·m."""
        threshold = (self.phi - self.epsilon / 2.0) * self.items_processed
        items: Dict[int, float] = {}
        scale = self._scale()
        for hashed, item in self.t2.items():
            estimated = self.t1.get(hashed) * scale
            if estimated > threshold:
                items[item] = estimated
        return HeavyHittersReport(
            items=items,
            stream_length=self.items_processed,
            epsilon=self.epsilon,
            phi=self.phi,
        )

    def report_maximum(self) -> MaximumResult:
        """The ε-Maximum variant (Theorem 3): the id with the largest counter in T1."""
        scale = self._scale()
        best_item, best_estimate = -1, -1.0
        for hashed, item in self.t2.items():
            estimated = self.t1.get(hashed) * scale
            if estimated > best_estimate:
                best_item, best_estimate = item, estimated
        if best_item < 0:
            best_item, best_estimate = 0, 0.0
        return MaximumResult(
            item=best_item,
            estimated_frequency=best_estimate,
            stream_length=self.items_processed,
            epsilon=self.epsilon,
        )

    # -- space accounting ----------------------------------------------------------------

    def refresh_space(self) -> None:
        # Sampler state (Lemma 1): O(log log m).
        self.space.set_component("sampler", self._sampler.space_bits())
        # Hash function description: O(log n).
        self.space.set_component("hash_function", self.hash_function.description_bits())
        # T1: eps^-1 entries, each a hashed key of O(log eps^-1 + log delta^-1) bits and
        # a counter of O(log sample_size) bits.
        key_bits = bits_for_value(self.hash_range - 1)
        value_bits = bits_for_value(max(1, 11 * self.target_sample_size))
        self.space.set_component("T1", self.t1.space_bits(key_bits, value_bits))
        # T2: phi^-1 ids of log n bits each.
        id_bits = bits_for_value(self.universe_size - 1)
        self.space.set_component("T2", self.id_table_capacity * id_bits)
