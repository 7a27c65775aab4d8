"""Algorithm 2 / Theorem 2 — the space-optimal (ε,ϕ)-List heavy hitters.

Space: ``O(ε⁻¹ log ϕ⁻¹ + ϕ⁻¹ log n + log log m)`` bits — the paper's headline result,
matching the lower bound of Theorems 9 and 14 up to constants.

Structure (paper Section 3.1.2, Algorithm 2):

* Sample ``ℓ = O(ε⁻²)`` stream items (line 10); solve the problem on the sample.
* ``T1`` — a Misra–Gries table over the *actual* ids with ``O(1/ϕ)`` counters
  (line 11): it produces the candidate set, every ϕ-heavy item of the sample is in it.
* For each of ``O(log ϕ⁻¹)`` independent repetitions ``j``, hash the universe into
  ``O(1/ε)`` buckets (line 13) and maintain per bucket an *accelerated counter*:

  - ``T2[i, j]`` counts an ε-rate subsample of the bucket's arrivals (line 14) and
    provides a running factor-4 approximation of the bucket's sampled frequency
    (Claim 1);
  - ``T3[i, j, t]`` counts arrivals assigned to epoch ``t = ⌊log(c·T2[i,j]²)⌋`` and
    accepted with probability ``min(ε·2ᵗ, 1)`` (lines 15–17).

  The bucket frequency estimate is ``Σ_t T3[i,j,t] / min(ε·2ᵗ,1)`` (line 23), which is
  unbiased with variance ``O(ε⁻²)`` (Claim 2).
* At reporting time, each candidate's frequency is the **median** over the ``j``
  repetitions of its bucket's estimate (line 24), and candidates above
  ``(ϕ − ε/2)·s`` are returned (lines 25–26).

State is held in the paper's table form: ``t2`` (repetitions × buckets) and ``t3``
(repetitions × buckets × epochs) are int64 arrays, and a ``touched`` mask records
which counters an arrival has reached, which is what the space accounting charges.
Its randomness lives in three :class:`~repro.primitives.rng.RandomSource` children
(sampler, per-item coins, batch generator; the hash functions are fixed once drawn),
so ``copy.deepcopy`` and ``pickle`` copy a few arrays and re-seed those sources (see
:mod:`repro.primitives.rng`), and :meth:`OptimalListHeavyHitters.merge` is an array
addition.  :class:`~repro.primitives.accelerated.EpochAcceleratedCounter` is the
per-counter reference one (repetition, bucket) slice of the tables follows.

The numerical constants in the paper (ℓ = 10⁵ ε⁻², 200 log(12/ϕ) repetitions,
100/ε buckets, epoch scale 10⁻⁶) are chosen for convenience of the analysis, not for
practice; they are exposed as constructor parameters with practical defaults (in
particular ``epoch_scale`` defaults to 1.0, matched to the smaller sample this
reproduction uses — see :mod:`repro.primitives.accelerated`), and the benchmark in
``benchmarks/bench_table1_heavy_hitters.py`` reports the measured behaviour.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.baselines.misra_gries import MisraGriesTable
from repro.core.base import FrequencyEstimator
from repro.core.results import HeavyHittersReport
from repro.primitives.accelerated import (
    absorb_given_successes,
    cells_space_bits,
    epoch_of,
    epoch_probabilities,
    epoch_probability,
    epochs_of,
)
from repro.primitives.batching import aggregate_counts, as_item_array, validate_universe
from repro.primitives.hashing import UniversalHashFamily, UniversalHashFunction
from repro.primitives.rng import RandomSource
from repro.primitives.sampling import CoinFlipSampler
from repro.primitives.space import bits_for_value


class OptimalListHeavyHitters(FrequencyEstimator):
    """Algorithm 2 of the paper: Misra–Gries candidates + hashed accelerated counters."""

    def __init__(
        self,
        epsilon: float,
        phi: float,
        universe_size: int,
        stream_length: int,
        delta: float = 0.1,
        rng: Optional[RandomSource] = None,
        repetitions: Optional[int] = None,
        buckets_per_repetition: Optional[int] = None,
        sample_size_constant: float = 6.0,
        epoch_scale: float = 1.0,
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

        # Error budget split as in Algorithm 1: half for sampling, half for counting.
        self._sampling_epsilon = epsilon / 2.0
        # Line 2: the sampled-stream length l = Theta(eps^-2).
        self.target_sample_size = int(
            math.ceil(
                sample_size_constant
                * math.log(6.0 / delta)
                / (self._sampling_epsilon ** 2)
            )
        )
        probability = min(1.0, 6.0 * self.target_sample_size / stream_length)
        self._sampler = CoinFlipSampler(probability, rng=rng.spawn(1))
        self.sample_size = 0

        # Line 5: T1, the candidate filter — Misra–Gries over actual ids, O(1/phi) slots.
        self.candidate_capacity = int(math.ceil(2.0 / phi)) + 1
        self.t1 = MisraGriesTable(num_counters=self.candidate_capacity)

        # Line 4: the per-repetition bucket hashes into O(1/eps) buckets.
        self.repetitions = (
            repetitions
            if repetitions is not None
            else max(3, int(math.ceil(4.0 * math.log2(max(2.0, 1.0 / phi)))) | 1)
        )
        if self.repetitions % 2 == 0:
            self.repetitions += 1  # odd, so the median is a single repetition's value
        self.num_buckets = (
            buckets_per_repetition
            if buckets_per_repetition is not None
            else int(math.ceil(16.0 / epsilon))
        )
        family = UniversalHashFamily(universe_size, self.num_buckets, rng=rng.spawn(2))
        self.hash_functions: List[UniversalHashFunction] = family.draw_many(self.repetitions)

        # Lines 6-7: the tables T2 and T3 as arrays indexed [repetition, bucket] and
        # [repetition, bucket, epoch], plus which cells an arrival has touched, so the
        # space accounting charges exactly the counters the paper allocates.  T3's
        # epoch axis grows by doubling when a larger epoch first appears.
        self.epoch_scale = epoch_scale
        shape = (self.repetitions, self.num_buckets)
        self.t2 = np.zeros(shape, dtype=np.int64)
        self.t3 = np.zeros(shape + (1,), dtype=np.int64)
        self.touched = np.zeros(shape, dtype=bool)
        # The per-item path's coins; the batched path draws from its own source.
        self._item_source = rng.spawn(3)
        self._batch_source = rng.spawn(4)

    # -- stream interface ---------------------------------------------------------------

    def insert(self, item: int) -> None:
        if not 0 <= item < self.universe_size:
            raise ValueError(f"item {item} outside universe [0, {self.universe_size})")
        self.items_processed += 1
        # Line 10: sample with rate l/m.
        if not self._sampler.decide():
            return
        self.sample_size += 1
        # Line 11: Misra–Gries update of the candidate table with the actual id.
        self.t1.update(item)
        # Lines 12-17: one accelerated-counter step in every repetition's bucket.
        coins = self._item_source
        for repetition, hash_function in enumerate(self.hash_functions):
            bucket = hash_function(item)
            self.touched[repetition, bucket] = True
            # Line 14: with probability eps, increment T2.
            subsample = int(self.t2[repetition, bucket]) + coins.bernoulli(self.epsilon)
            self.t2[repetition, bucket] = subsample
            # Lines 15-17: the arrival's epoch, then its probabilistic T3 increment.
            epoch = epoch_of(subsample, self.epoch_scale)
            if epoch >= 0 and coins.bernoulli(epoch_probability(epoch, self.epsilon)):
                self._reserve_epochs(epoch + 1)
                self.t3[repetition, bucket, epoch] += 1

    def insert_many(self, items: Sequence[int]) -> None:
        """Batched ingestion (statistically equivalent to sequential insertion).

        The three batch tricks of the fast path, matched to Algorithm 2's lines:

        * line 10 — geometric skip-ahead sampling: RNG work proportional to the number
          of *sampled* arrivals, not the batch length (none at all when every arrival
          is sampled);
        * lines 12-13 — one vectorized Carter–Wegman pass per repetition over the
          distinct sampled ids, then one ``bincount`` groups the whole batch by
          (repetition, bucket) cell;
        * lines 14-17 — one vectorized binomial draws every cell's number of ``T2``
          increments.  A cell whose ``T2`` does not move (the common, light case)
          sees one epoch, so its ``T3`` credit is one more binomial.  The heavy cells
          absorb their group with :func:`~repro.primitives.accelerated.absorb_given_successes`,
          one vectorized step per epoch, which has the law of replaying the cell's
          arrivals one by one.  Occurrence order across cells does not matter: a
          counter's law depends only on its own occurrence count.

        ``T1`` (line 11) absorbs the batch's exact ``(id, count)`` summary with one
        Misra–Gries batch merge (:meth:`~repro.baselines.misra_gries.MisraGriesTable.update_many`).
        RNG consumption order and Misra–Gries decrements differ from the per-item path
        (same seed diverges bit-wise); estimator, (ε, ϕ) guarantee and space
        accounting are identical.
        """
        array = as_item_array(items)
        validate_universe(array, self.universe_size)
        if array.size == 0:
            return
        self.items_processed += int(array.size)
        # Line 10: skip-ahead sampling.
        sampled = self._sampler.accepted(array)
        if sampled.size == 0:
            return
        self.sample_size += int(sampled.size)
        values, counts = aggregate_counts(sampled)
        # Line 11: one Misra–Gries batch merge of the sampled ids.
        self.t1.update_many(values, counts)
        # Lines 12-13: the (repetition, bucket) cell of every distinct id, grouped.
        cells = np.empty((self.repetitions, values.size), dtype=np.int64)
        for repetition, hash_function in enumerate(self.hash_functions):
            cells[repetition] = hash_function.hash_many(values)
        cells += np.arange(self.repetitions)[:, None] * self.num_buckets
        per_cell = np.bincount(
            cells.ravel(),
            weights=np.tile(counts.astype(np.float64), self.repetitions),
            minlength=self.repetitions * self.num_buckets,
        )
        occupied = np.flatnonzero(per_cell)
        occurrences = per_cell[occupied].astype(np.int64)
        repetitions, buckets = np.divmod(occupied, self.num_buckets)
        self.touched[repetitions, buckets] = True
        generator = self._batch_source.numpy_generator()
        epsilon, scale = self.epsilon, self.epoch_scale
        # Line 14: how many of each cell's occurrences increment T2.
        t2_increments = generator.binomial(occurrences, epsilon)
        subsamples = self.t2[repetitions, buckets]
        self._reserve_epochs(int(epochs_of(subsamples + t2_increments, scale).max()) + 1)
        # Lines 15-17, light cells: T2 stays put, so one epoch and one binomial each.
        light = np.flatnonzero(t2_increments == 0)
        epochs = epochs_of(subsamples[light], scale)
        active = epochs >= 0
        light, epochs = light[active], epochs[active]
        self.t3[repetitions[light], buckets[light], epochs] += generator.binomial(
            occurrences[light], epoch_probabilities(epochs, epsilon)
        )
        # Heavy cells: T2 moves mid-group; one vectorized step per epoch crossed.
        heavy = np.flatnonzero(t2_increments)
        for epoch, credits in absorb_given_successes(
            self._batch_source,
            subsamples[heavy],
            occurrences[heavy],
            t2_increments[heavy],
            epsilon,
            scale,
        ):
            self.t3[repetitions[heavy], buckets[heavy], epoch] += credits
        self.t2[repetitions, buckets] += t2_increments

    def _reserve_epochs(self, epochs: int) -> None:
        """Grow T3's epoch axis, by doubling, until it holds epochs ``0 … epochs-1``."""
        size = self.t3.shape[2]
        if epochs <= size:
            return
        while size < epochs:
            size *= 2
        grown = np.zeros(self.t2.shape + (size,), dtype=np.int64)
        grown[:, :, : self.t3.shape[2]] = self.t3
        self.t3 = grown

    def merge(self, other: "OptimalListHeavyHitters") -> None:
        """Fold another shard's Algorithm 2 state into this one.

        Requirements (the sharded executor arranges both): identical parameters
        (ε, ϕ, repetitions, buckets, epoch scale) and *shared* bucket hash functions,
        so that bucket ``i`` of repetition ``j`` means the same slice of the universe
        in both instances.  The combine is then:

        * ``T1`` — the Misra–Gries candidate tables merge losslessly
          (:meth:`~repro.baselines.misra_gries.MisraGriesTable.merge`), so every item
          that is ϕ-heavy in the concatenated sample survives as a candidate;
        * ``T2``/``T3`` — the tables add cell by cell, and the touched masks OR, which
          is :meth:`~repro.primitives.accelerated.EpochAcceleratedCounter.merge` for
          every (repetition, bucket) counter at once: the bucket estimate is unbiased
          for the summed occurrence count, with summed (not inflated) variance — see
          that method for the expectation/variance caveats;
        * sample and stream counts add, so the sample-to-stream rescaling factor is the
          combined one.

        Each shard must have been built with the *full* stream length (the sampling
        rate is global), which :class:`repro.sharding.ShardedExecutor` does.
        """
        if not isinstance(other, OptimalListHeavyHitters):
            raise TypeError(
                f"cannot merge OptimalListHeavyHitters with {type(other).__name__}"
            )
        if (
            other.epsilon != self.epsilon
            or other.phi != self.phi
            or other.universe_size != self.universe_size
            or other.repetitions != self.repetitions
            or other.num_buckets != self.num_buckets
            or other.epoch_scale != self.epoch_scale
            # The sampling rate is derived from the (full) stream length, so a
            # mismatch would silently combine samples drawn at different rates.
            or other.stream_length != self.stream_length
        ):
            raise ValueError("cannot merge Algorithm 2 instances with different parameters")
        if other.hash_functions != self.hash_functions:
            raise ValueError(
                "cannot merge Algorithm 2 instances with different bucket hash "
                "functions; build the shards with shared hash functions "
                "(see repro.sharding)"
            )
        self.t1.merge(other.t1)
        self._reserve_epochs(other.t3.shape[2])
        self.t2 += other.t2
        self.t3[:, :, : other.t3.shape[2]] += other.t3
        self.touched |= other.touched
        self.sample_size += other.sample_size
        self.items_processed += other.items_processed

    # -- queries ------------------------------------------------------------------------

    def _scale(self) -> float:
        if self.sample_size == 0:
            return 0.0
        return self.items_processed / self.sample_size

    def _sampled_estimates(self, items: Sequence[int]) -> np.ndarray:
        """Lines 23-24 for each item: the median over repetitions of its bucket's
        ``Σ_t T3[j, i, t] / min(ε·2ᵗ, 1)``."""
        array = np.asarray(items, dtype=np.int64)
        buckets = np.stack([h.hash_many(array) for h in self.hash_functions])
        cells = self.t3[np.arange(self.repetitions)[:, None], buckets]
        probabilities = epoch_probabilities(np.arange(self.t3.shape[2]), self.epsilon)
        return np.median((cells / probabilities).sum(axis=-1), axis=0)

    def estimate(self, item: int) -> float:
        """Estimated absolute frequency of ``item`` in the stream seen so far."""
        return float(self._sampled_estimates([item])[0]) * self._scale()

    def report(self) -> HeavyHittersReport:
        """Lines 20-27: estimate every candidate, keep those above (ϕ − ε/2)·m."""
        threshold = (self.phi - self.epsilon / 2.0) * self.items_processed
        scale = self._scale()
        candidates = list(self.t1.counters)
        items: Dict[int, float] = {}
        estimates = self._sampled_estimates(candidates).tolist()
        for candidate, sampled_estimate in zip(candidates, estimates):
            estimated = sampled_estimate * scale
            if estimated > threshold:
                items[candidate] = estimated
        return HeavyHittersReport(
            items=items,
            stream_length=self.items_processed,
            epsilon=self.epsilon,
            phi=self.phi,
        )

    # -- space accounting ----------------------------------------------------------------

    def refresh_space(self) -> None:
        # Sampler (Lemma 1): O(log log m) bits.
        self.space.set_component("sampler", self._sampler.space_bits())
        # T1: O(1/phi) slots of (log n + log sample-size) bits — the phi^-1 log n term.
        id_bits = bits_for_value(self.universe_size - 1)
        value_bits = bits_for_value(max(1, 11 * self.target_sample_size))
        self.space.set_component("T1", self.t1.space_bits(id_bits, value_bits))
        # Hash function descriptions: O(log n) bits each, O(log phi^-1) of them.
        self.space.set_component(
            "hash_functions",
            sum(h.description_bits() for h in self.hash_functions),
        )
        # T2/T3: the touched accelerated counters — the eps^-1 log phi^-1 term.
        self.space.set_component(
            "T2_T3", cells_space_bits(self.t2[self.touched], self.t3[self.touched])
        )
