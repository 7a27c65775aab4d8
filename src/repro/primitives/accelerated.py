"""Accelerated (epoch-based probabilistic) counters — the heart of Algorithm 2.

The optimal heavy hitters algorithm needs to count the sampled frequency of each of
``O(1/eps)`` hashed ids with additive error ``O(eps * s)`` using only ``O(1)`` bits per
id in expectation.  The paper's device is the *accelerated counter*: increment a counter
with a probability that grows (accelerates) with the running estimate of the count, and
correct for the probability when reading the counter back.

Two classes and the array form of the second are provided:

* :class:`AcceleratedCounter` — a single fixed-probability probabilistic counter
  (increment with probability ``p``; estimate is ``count / p``).  This is the
  pedagogical building block described in the overview of Section 3.1.2; its estimate is
  unbiased with variance ``f / p``.
* :class:`EpochAcceleratedCounter` — the full epoch-structured counter of Algorithm 2
  lines 14–17 and 23, i.e. the per-(bucket, repetition) slice of the paper's tables
  ``T2`` and ``T3``:

  - ``subsample_count`` (the paper's ``T2[i, j]``) counts an ``eps``-rate subsample of
    the bucket's arrivals (line 14); ``subsample_count / eps`` is a running constant-
    factor approximation of the bucket's frequency (Claim 1).
  - ``epoch_counts[t]`` (the paper's ``T3[i, j, t]``) counts arrivals assigned to epoch
    ``t = floor(log2(epoch_scale * T2[i,j]^2))`` and accepted with probability
    ``min(eps * 2^t, 1)`` (lines 15–17).  Arrivals whose epoch is negative are not
    recorded at all — exactly as in the paper, this loses only the first
    ``O(1/(eps * sqrt(epoch_scale)))`` occurrences, which is within the error budget.

  The frequency estimate is ``sum_t epoch_counts[t] / min(eps * 2^t, 1)`` (line 23).

* :func:`epochs_of`, :func:`epoch_probabilities`, :func:`absorb_given_successes` and
  :func:`cells_space_bits` — the same counter held as table cells (``T2`` an int
  array, ``T3`` an int array with an epoch axis), which is how
  :class:`~repro.core.heavy_hitters_optimal.OptimalListHeavyHitters` stores all of its
  counters.  :class:`EpochAcceleratedCounter` stays the per-counter reference the
  tests compare the array form against.

The paper sets ``epoch_scale = 1e-6`` because its sampled stream has
``l = 1e5 * eps^-2`` items; with the practically sized samples this reproduction uses
(``~1e2 * eps^-2``), the same role is played by ``epoch_scale = 1.0`` (the default
here), which keeps the uncounted prefix at ``O(1/eps)`` arrivals — well within the
``O(eps * sample)`` additive budget.  Both settings are exercised by the tests.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.primitives.rng import RandomSource
from repro.primitives.space import bits_for_value


def epoch_of(subsample_count: int, epoch_scale: float) -> int:
    """The line-15 epoch ``floor(log2(epoch_scale * T2^2))`` of a ``T2`` value; -1 if inactive."""
    if subsample_count <= 0:
        return -1
    value = epoch_scale * float(subsample_count) ** 2
    if value < 1.0:
        return -1
    return int(math.floor(math.log2(value)))


def epoch_probability(epoch: int, epsilon: float) -> float:
    """The line-15 acceptance probability ``min(eps * 2^t, 1)`` of epoch ``t`` (0 if inactive)."""
    if epoch < 0:
        return 0.0
    return min(epsilon * (2.0 ** epoch), 1.0)


class AcceleratedCounter:
    """Increment with a fixed probability ``p``; estimate the true count as ``c / p``."""

    def __init__(self, probability: float, rng: Optional[RandomSource] = None) -> None:
        if not 0.0 < probability <= 1.0:
            raise ValueError("probability must be in (0, 1]")
        self.probability = probability
        self.count = 0
        self._rng = rng if rng is not None else RandomSource()

    def offer(self) -> None:
        """Register one occurrence of the item."""
        if self._rng.bernoulli(self.probability):
            self.count += 1

    def offer_many(self, occurrences: int) -> None:
        """Register many occurrences at once: one binomial draw replaces the coin flips.

        Distributionally identical to calling :meth:`offer` ``occurrences`` times (the
        counter's law depends only on the number of occurrences), but O(1) RNG work.
        """
        if occurrences < 0:
            raise ValueError("occurrences must be non-negative")
        self.count += self._rng.binomial(occurrences, self.probability)

    def estimate(self) -> float:
        """Unbiased estimate of the number of occurrences offered."""
        return self.count / self.probability

    def space_bits(self) -> int:
        return max(1, bits_for_value(self.count))


class EpochAcceleratedCounter:
    """The epoch-structured accelerated counter of Algorithm 2 (T2/T3 for one bucket)."""

    def __init__(
        self,
        epsilon: float,
        rng: Optional[RandomSource] = None,
        epoch_scale: float = 1.0,
    ) -> None:
        if not 0.0 < epsilon < 1.0:
            raise ValueError("epsilon must be in (0, 1)")
        if epoch_scale <= 0.0:
            raise ValueError("epoch_scale must be positive")
        self.epsilon = epsilon
        self.epoch_scale = epoch_scale
        self.subsample_count = 0
        self.epoch_counts: Dict[int, int] = {}
        self._rng = rng if rng is not None else RandomSource()

    def current_epoch(self) -> int:
        """Epoch assigned to an arriving occurrence (Algorithm 2 line 15); -1 if inactive."""
        return epoch_of(self.subsample_count, self.epoch_scale)

    def increment_probability(self, epoch: int) -> float:
        """The acceptance probability of epoch ``t`` (Algorithm 2 line 15)."""
        return epoch_probability(epoch, self.epsilon)

    def offer(self) -> None:
        """Register one occurrence of the hashed id (Algorithm 2 lines 14-17)."""
        # Line 14: with probability eps, increment T2[i, j].
        if self._rng.bernoulli(self.epsilon):
            self.subsample_count += 1
        # Lines 15-17: epoch assignment and probabilistic increment of T3[i, j, t].
        epoch = self.current_epoch()
        if epoch < 0:
            return
        if self._rng.bernoulli(self.increment_probability(epoch)):
            self.epoch_counts[epoch] = self.epoch_counts.get(epoch, 0) + 1

    def offer_many(self, occurrences: int) -> None:
        """Register a run of occurrences at once (batched Algorithm 2 lines 14-17).

        The per-occurrence process is a Markov chain whose epoch only changes when the
        ``T2`` subsample counter increments, so a batch decomposes into runs ending at a
        ``T2`` increment: the run length is geometric with rate ``eps``, the ``T3``
        increments within a run are binomial at the run's (fixed) epoch probability, and
        the occurrence that bumps ``T2`` is re-evaluated at the *new* epoch — exactly
        the order :meth:`offer` uses.  The result is distributionally identical to
        ``occurrences`` calls of :meth:`offer` while doing ``O(eps * occurrences + 1)``
        RNG work.
        """
        if occurrences < 0:
            raise ValueError("occurrences must be non-negative")
        remaining = occurrences
        while remaining > 0:
            gap = self._rng.geometric(self.epsilon)
            if gap > remaining:
                # No T2 increment in the rest of the batch: every remaining occurrence
                # sees the current epoch.
                self._record_run(self.current_epoch(), remaining)
                return
            # gap - 1 occurrences at the old epoch, then the occurrence whose T2 coin
            # came up heads, whose T3 coin is tossed at the updated epoch.
            self._record_run(self.current_epoch(), gap - 1)
            self.subsample_count += 1
            epoch = self.current_epoch()
            if epoch >= 0 and self._rng.bernoulli(self.increment_probability(epoch)):
                self.epoch_counts[epoch] = self.epoch_counts.get(epoch, 0) + 1
            remaining -= gap

    def offer_many_given_successes(self, occurrences: int, successes: int) -> None:
        """Absorb ``occurrences`` arrivals of which exactly ``successes`` increment T2.

        The per-counter reference for :func:`absorb_given_successes`, the form
        Algorithm 2's batched ingestion runs: the caller has already drawn the binomial
        number of T2 increments, so this method simulates the rest of the
        per-occurrence process *conditioned* on that count.  Given the count, the
        T2-increment positions are uniform among the ``occurrences`` trials (binomial
        thinning); the failure runs between them are credited at their run's epoch and
        each incrementing occurrence re-evaluates its T3 coin at the updated epoch,
        exactly as :meth:`offer` orders the steps.
        """
        if occurrences < 0 or not 0 <= successes <= occurrences:
            raise ValueError("need 0 <= successes <= occurrences")
        if successes == 0:
            self._record_run(self.current_epoch(), occurrences)
            return
        positions = sorted(self._rng.sample(range(occurrences), successes))
        previous = -1
        for position in positions:
            self._record_run(self.current_epoch(), position - previous - 1)
            self.subsample_count += 1
            epoch = self.current_epoch()
            if epoch >= 0 and self._rng.bernoulli(self.increment_probability(epoch)):
                self.epoch_counts[epoch] = self.epoch_counts.get(epoch, 0) + 1
            previous = position
        self._record_run(self.current_epoch(), occurrences - 1 - previous)

    def _record_run(self, epoch: int, run_length: int) -> None:
        """Credit ``run_length`` same-epoch occurrences to ``T3`` with one binomial."""
        if run_length <= 0 or epoch < 0:
            return
        accepted = self._rng.binomial(run_length, self.increment_probability(epoch))
        if accepted:
            self.epoch_counts[epoch] = self.epoch_counts.get(epoch, 0) + accepted

    def merge(self, other: "EpochAcceleratedCounter") -> None:
        """Additively combine another counter's T2/T3 state into this one.

        ``subsample_count`` and the per-epoch ``T3`` counts simply add.  This is sound
        because the estimator (line 23) credits every accepted arrival ``1/p_t`` for
        the probability ``p_t`` it was accepted at — unbiasedness holds arrival by
        arrival, regardless of which counter instance accepted it, so the merged
        estimate is unbiased for the *total* occurrence count (additive in
        expectation).  Two caveats, documented rather than hidden:

        * **Variance**: each input ran its own epoch schedule over a smaller count, so
          its arrivals were accepted at *lower* epochs (higher probabilities) than a
          single counter over the concatenation would have used.  Merged variance is
          the sum of the inputs' variances, which is at most — typically less than —
          the single-run variance bound of Claim 2; the guarantee is preserved.
        * **Uncounted prefix**: each input independently skipped its first
          ``O(1/(eps*sqrt(epoch_scale)))`` occurrences (negative epochs), so the merged
          counter can miss up to k such prefixes for k-way merges.  With the default
          ``epoch_scale`` and practical shard counts this stays within the
          ``O(eps * sample)`` additive budget.

        After the merge the counter continues at the epoch implied by the combined
        ``subsample_count``, exactly as a single counter at that count would.
        """
        if other.epsilon != self.epsilon or other.epoch_scale != self.epoch_scale:
            raise ValueError("cannot merge accelerated counters with different parameters")
        self.subsample_count += other.subsample_count
        for epoch, count in other.epoch_counts.items():
            self.epoch_counts[epoch] = self.epoch_counts.get(epoch, 0) + count

    def estimate(self) -> float:
        """Estimate of the number of occurrences offered (Algorithm 2 line 23)."""
        total = 0.0
        for epoch, count in self.epoch_counts.items():
            total += count / self.increment_probability(epoch)
        return total

    def approximate_running_frequency(self) -> float:
        """The running approximation ``T2[i,j] / eps`` used for epoch selection (Claim 1)."""
        return self.subsample_count / self.epsilon

    def space_bits(self) -> int:
        """Bits used: the subsample counter plus one small counter per active epoch."""
        bits = max(1, bits_for_value(self.subsample_count))
        for count in self.epoch_counts.values():
            bits += max(1, bits_for_value(count))
        return bits


# -- the array form: many counters as T2/T3 table cells ---------------------------------


def epochs_of(subsample_counts: np.ndarray, epoch_scale: float) -> np.ndarray:
    """Vectorized :meth:`EpochAcceleratedCounter.current_epoch`: the line-15 epoch of
    each ``T2`` value, ``-1`` where the counter is inactive."""
    squared = epoch_scale * np.asarray(subsample_counts, dtype=np.float64) ** 2
    epochs = np.full(squared.shape, -1, dtype=np.int64)
    active = squared >= 1.0
    epochs[active] = np.floor(np.log2(squared[active])).astype(np.int64)
    return epochs


def epoch_probabilities(epochs: np.ndarray, epsilon: float) -> np.ndarray:
    """Vectorized :meth:`EpochAcceleratedCounter.increment_probability` (0 if inactive)."""
    epochs = np.asarray(epochs, dtype=np.int64)
    return np.where(
        epochs >= 0, np.minimum(epsilon * np.exp2(epochs.astype(np.float64)), 1.0), 0.0
    )


def _first_value_at_epoch(epoch: int, epoch_scale: float) -> int:
    """Smallest ``T2`` value whose :func:`epochs_of` epoch is at least ``epoch``."""
    if epoch < 0:
        return 0
    value = max(1, math.ceil(math.sqrt(2.0 ** epoch / epoch_scale)))
    # The square root is rounded; step onto the exact boundary epochs_of draws.
    while value > 1 and epochs_of(np.array([value - 1]), epoch_scale)[0] >= epoch:
        value -= 1
    while epochs_of(np.array([value]), epoch_scale)[0] < epoch:
        value += 1
    return value


def absorb_given_successes(
    source: RandomSource,
    subsample_counts: np.ndarray,
    occurrences: np.ndarray,
    successes: np.ndarray,
    epsilon: float,
    epoch_scale: float,
) -> List[Tuple[int, np.ndarray]]:
    """:meth:`EpochAcceleratedCounter.offer_many_given_successes` for many counters at once.

    Counter ``c`` starts at ``T2 = subsample_counts[c]`` and absorbs
    ``occurrences[c]`` arrivals of which ``successes[c]`` increment ``T2``; the draws
    come from ``source``'s numpy generator.  Returns
    ``(epoch, credits)`` for every active epoch the counters pass through, where
    ``credits[c]`` is counter ``c``'s ``T3`` increment at that epoch; the caller adds
    ``successes`` to ``T2`` itself.

    Given ``k`` successes among ``n`` arrivals, the success positions are a uniform
    ``k``-subset, so the ``k + 1`` failure runs (before the first success, between
    successes, after the last) form a uniform composition of ``n - k``.  Run ``j`` is
    seen at ``T2 = T2₀ + j``, and so is success ``j`` (its T3 coin is tossed after the
    increment).  Grouping the ``T2`` values ``T2₀ … T2₀ + k`` by epoch, an epoch
    holding ``w`` of them receives a Dirichlet-multinomial share of the failures with
    weight ``w``, drawn here as a beta-binomial chain over the epochs in order, plus
    ``w`` successes (``w - 1`` for the epoch of ``T2₀``, which has no success).  Every
    arrival of an epoch is accepted independently with that epoch's probability, so
    its ``T3`` credit is one binomial — the same law as the per-counter replay, with
    one loop iteration per epoch instead of per success.
    """
    credits: List[Tuple[int, np.ndarray]] = []
    first = np.asarray(subsample_counts, dtype=np.int64)
    if first.size == 0:
        return credits
    generator = source.numpy_generator()
    last = first + successes
    low, high = epochs_of(first, epoch_scale), epochs_of(last, epoch_scale)
    failures_left = np.asarray(occurrences, dtype=np.int64) - successes
    weight_left = np.asarray(successes, dtype=np.int64) + 1
    begin_value = _first_value_at_epoch(int(low.min()), epoch_scale)
    for epoch in range(int(low.min()), int(high.max()) + 1):
        end_value = _first_value_at_epoch(epoch + 1, epoch_scale)
        weight = np.maximum(
            np.minimum(last + 1, end_value) - np.maximum(first, begin_value), 0
        )
        begin_value = end_value
        rest = weight_left - weight
        # The last epoch group takes every failure left; earlier ones a beta-binomial
        # share of it (the next link of the Dirichlet-multinomial chain).
        failures = np.where(rest == 0, failures_left, 0)
        split = np.flatnonzero((weight > 0) & (rest > 0) & (failures_left > 0))
        if split.size:
            share = generator.beta(weight[split], rest[split])
            failures[split] = generator.binomial(failures_left[split], share)
        failures_left -= failures
        weight_left = rest
        if epoch < 0:
            continue  # inactive: line 15 records nothing
        trials = failures + weight - (low == epoch)
        credits.append((epoch, generator.binomial(trials, epoch_probability(epoch, epsilon))))
    return credits


def cells_space_bits(subsample_counts: np.ndarray, epoch_counts: np.ndarray) -> int:
    """Sum of :meth:`EpochAcceleratedCounter.space_bits` over counters held as cells.

    ``subsample_counts`` holds one ``T2`` value per counter and ``epoch_counts`` the
    matching ``T3`` rows (any shape ending in the epoch axis); a zero ``T3`` cell is
    an epoch the counter never recorded, so it costs nothing.
    """
    recorded = epoch_counts[epoch_counts > 0]
    return int(_bits_for_values(subsample_counts).sum() + _bits_for_values(recorded).sum())


def _bits_for_values(values: np.ndarray) -> np.ndarray:
    """Vectorized ``max(1, bits_for_value(v))``."""
    return np.maximum(1, np.ceil(np.log2(values.astype(np.float64) + 1.0))).astype(np.int64)
