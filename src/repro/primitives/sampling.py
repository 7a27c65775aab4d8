"""Stream samplers (paper Lemma 1 and Lemma 3).

Lemma 1 of the paper shows that choosing an item with probability ``1/m`` (``m`` a power
of two) can be done with ``O(log log m)`` bits of state: draw ``log2 m`` random bits and
select the item iff they are all zero.  :class:`CoinFlipSampler` implements exactly this,
and only stores the *number* of bits to draw, which needs ``ceil(log2 log2 m)`` bits.

Lemma 3 (a DKW-style uniform-convergence statement) says that if we sample each stream
position independently with rate ``r/m`` for ``r >= 2 eps^-2 log(2/delta)``, then with
probability ``1 - delta`` every item's relative frequency in the sample is within ``eps``
of its relative frequency in the stream.  :class:`BernoulliSampler` is the per-item
sampler the algorithms use for this, and :class:`FixedSizeSampler`/
:class:`ReservoirSampler` are the classic alternatives used by tests and baselines.
"""

from __future__ import annotations

import math
from typing import Generic, Iterable, List, Optional, Sequence, TypeVar

import numpy as np

from repro.primitives.rng import RandomSource
from repro.primitives.space import bits_for_value

T = TypeVar("T")


def round_down_to_power_of_two_probability(probability: float) -> float:
    """Replace ``p`` by the largest ``p' <= p`` with ``1/p'`` a power of two.

    The paper (footnote 3) assumes without loss of generality that every sampling
    probability has a power-of-two reciprocal; this helper performs that rounding.
    Probabilities ``>= 1`` are returned as ``1.0``; non-positive probabilities raise.
    """
    if probability <= 0.0:
        raise ValueError("probability must be positive")
    if probability >= 1.0:
        return 1.0
    exponent = math.ceil(math.log2(1.0 / probability))
    return 1.0 / (2 ** exponent)


class CoinFlipSampler:
    """Select an event with probability ``2^-k`` using ``O(log k)`` bits of state.

    This is the sampler of Lemma 1: to decide whether the current stream item is
    sampled, draw ``k`` fair coins and accept iff all come up heads.  The only state
    kept between stream items is ``k`` itself, i.e. ``O(log log m)`` bits when the
    probability is ``1/m``.
    """

    def __init__(self, probability: float, rng: Optional[RandomSource] = None) -> None:
        if probability <= 0.0 or probability > 1.0:
            raise ValueError("probability must be in (0, 1]")
        rounded = round_down_to_power_of_two_probability(probability)
        self.probability = rounded
        self.num_coins = 0 if rounded >= 1.0 else int(round(math.log2(1.0 / rounded)))
        self._rng = rng if rng is not None else RandomSource()

    def decide(self) -> bool:
        """Return ``True`` iff the current item is selected."""
        if self.num_coins == 0:
            return True
        return self._rng.random_bits(self.num_coins) == 0

    def next_accepted(self, batch_len: int) -> Optional[int]:
        """Offset in ``[0, batch_len)`` of the first accepted item among the next
        ``batch_len`` arrivals, or ``None`` if all of them are rejected.

        Distributionally equivalent to calling :meth:`decide` once per arrival and
        returning the index of the first ``True``, but costs a single geometric draw
        (Lemma 1's coins, skipped ahead in one jump).  Because Bernoulli trials are
        memoryless, rejecting a whole batch carries no state into the next call.  Note
        the RNG *consumption order* differs from per-item :meth:`decide` calls, so
        batched and per-item runs of the same seed diverge (by design; see the
        ``insert_many`` contract in :mod:`repro.core.base`).
        """
        if batch_len <= 0:
            return None
        if self.num_coins == 0:
            return 0
        gap = self._rng.geometric(self.probability)
        return gap - 1 if gap <= batch_len else None

    def accepted_indices(self, batch_len: int) -> List[int]:
        """Indices of all accepted items among the next ``batch_len`` arrivals.

        Built on :meth:`next_accepted`, so the expected RNG work is
        ``O(probability * batch_len + 1)`` — for the paper's ``l/m`` sampling rates this
        is what turns the O(1) amortized update claim into practice: almost every
        arrival is skipped without touching the generator.
        """
        indices: List[int] = []
        if batch_len <= 0:
            return indices
        if self.num_coins == 0:
            return list(range(batch_len))
        position = 0
        while position < batch_len:
            offset = self.next_accepted(batch_len - position)
            if offset is None:
                break
            position += offset
            indices.append(position)
            position += 1
        return indices

    def accepted(self, batch: np.ndarray) -> np.ndarray:
        """The accepted items of ``batch`` (the next ``len(batch)`` arrivals).

        Selects :meth:`accepted_indices` from the array, with the same RNG
        consumption.  With probability 1 every arrival is accepted, so the batch
        itself is returned: no index list is built and nothing is copied.
        """
        if self.num_coins == 0:
            return batch
        return batch[self.accepted_indices(len(batch))]

    def space_bits(self) -> int:
        """Bits of state kept between items: the counter length ``k``."""
        return max(1, bits_for_value(self.num_coins))


class BernoulliSampler(Generic[T]):
    """Sample each stream item independently with a fixed rate and retain the sample.

    The retained sample is what Algorithm 1 and Algorithm 3 call ``S`` / ``S1``/``S2``/
    ``S3``.  The sampler charges space for the decision state (via an internal
    :class:`CoinFlipSampler`) but *not* for the retained items — the caller decides how
    the sampled items are stored (hashed ids, counters, bit vector, ...) and accounts
    for that storage itself.
    """

    def __init__(
        self,
        probability: float,
        rng: Optional[RandomSource] = None,
        keep_items: bool = True,
    ) -> None:
        self._coin = CoinFlipSampler(probability, rng=rng)
        self.probability = self._coin.probability
        self.keep_items = keep_items
        self.items: List[T] = []
        self.sample_size = 0
        self.stream_length = 0

    def offer(self, item: T) -> bool:
        """Present one stream item; returns ``True`` iff it was sampled."""
        self.stream_length += 1
        if self._coin.decide():
            self.sample_size += 1
            if self.keep_items:
                self.items.append(item)
            return True
        return False

    def extend(self, items: Iterable[T]) -> int:
        """Offer every item of an iterable; returns the number sampled."""
        before = self.sample_size
        for item in items:
            self.offer(item)
        return self.sample_size - before

    def offer_many(self, items: Sequence[T]) -> List[T]:
        """Offer a whole batch at once and return the items that were sampled.

        Uses the coin sampler's geometric skip (:meth:`CoinFlipSampler.accepted_indices`)
        so the cost is proportional to the number of *sampled* items, not the batch
        length.  Statistically equivalent to :meth:`extend`, but consumes the RNG in a
        different order.
        """
        self.stream_length += len(items)
        sampled = [items[index] for index in self._coin.accepted_indices(len(items))]
        self.sample_size += len(sampled)
        if self.keep_items:
            self.items.extend(sampled)
        return sampled

    def expected_sample_size(self, stream_length: int) -> float:
        """Expected number of sampled items for a stream of the given length."""
        return self.probability * stream_length

    def decision_space_bits(self) -> int:
        """Bits of state used purely to make sampling decisions (Lemma 1)."""
        return self._coin.space_bits()


class ReservoirSampler(Generic[T]):
    """Classic reservoir sampling of a fixed number of items (uniform without replacement).

    Not used by the paper's algorithms directly (they prefer Bernoulli sampling so the
    sample size concentrates by Chernoff), but used by baselines and by tests as an
    alternative way of producing a representative sample.
    """

    def __init__(self, capacity: int, rng: Optional[RandomSource] = None) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.reservoir: List[T] = []
        self.stream_length = 0
        self._rng = rng if rng is not None else RandomSource()

    def offer(self, item: T) -> None:
        """Present one stream item."""
        self.stream_length += 1
        if len(self.reservoir) < self.capacity:
            self.reservoir.append(item)
            return
        slot = self._rng.randint(0, self.stream_length - 1)
        if slot < self.capacity:
            self.reservoir[slot] = item

    def extend(self, items: Iterable[T]) -> None:
        for item in items:
            self.offer(item)


class FixedSizeSampler(Generic[T]):
    """Draw a uniform sample of a target size from a stream of *known* length.

    Used by the Borda / Maximin algorithms, which fix the sample size ``l`` up front
    (Theorems 5 and 6) and sample each vote with probability ``~ l / m``.
    """

    def __init__(
        self,
        target_size: int,
        stream_length: int,
        rng: Optional[RandomSource] = None,
        oversample_factor: float = 6.0,
    ) -> None:
        if target_size <= 0:
            raise ValueError("target_size must be positive")
        if stream_length <= 0:
            raise ValueError("stream_length must be positive")
        probability = min(1.0, oversample_factor * target_size / stream_length)
        self.target_size = target_size
        self.sampler: BernoulliSampler[T] = BernoulliSampler(probability, rng=rng)

    def offer(self, item: T) -> bool:
        return self.sampler.offer(item)

    @property
    def items(self) -> List[T]:
        return self.sampler.items

    @property
    def sample_size(self) -> int:
        return self.sampler.sample_size

    def decision_space_bits(self) -> int:
        return self.sampler.decision_space_bits()


def recommended_sample_size(epsilon: float, delta: float) -> int:
    """Sample size from Lemma 3: ``r >= 2 eps^-2 log(2/delta)`` preserves all frequencies.

    The algorithms use ``6 eps^-2 log(6/delta)`` for slack in the union bounds; we expose
    the same constant so callers match the paper's parameterization.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must be in (0, 1)")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must be in (0, 1)")
    return int(math.ceil(6.0 * math.log(6.0 / delta) / (epsilon * epsilon)))
