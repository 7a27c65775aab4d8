"""The Misra–Gries / Frequent algorithm [MG82], rediscovered by [DLOM02] and [KSP03].

This is the main prior-art baseline the paper improves upon: with ``k = ceil(1/eps)``
counters it guarantees, deterministically, that every item's estimated frequency is
within ``m/k <= eps*m`` of the truth (underestimates only), and therefore solves the
(ε,ϕ)-Heavy Hitters problem in ``O(eps^-1 (log n + log m))`` bits of space.

The same data structure is also used *inside* the paper's Algorithm 1 (on hashed ids of
sampled items) and Algorithm 2 (as the candidate filter ``T1``), so this implementation
doubles as the substrate for the core algorithms.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.base import FrequencyEstimator
from repro.core.results import HeavyHittersReport
from repro.primitives.batching import aggregate_counts, as_item_array, validate_universe
from repro.primitives.space import bits_for_value


class MisraGriesTable:
    """The bare Misra–Gries summary over an abstract key space.

    Kept separate from the :class:`MisraGries` baseline so the paper's algorithms can
    run it over *hashed* ids with their own space accounting.
    """

    def __init__(self, num_counters: int) -> None:
        if num_counters <= 0:
            raise ValueError("num_counters must be positive")
        self.num_counters = num_counters
        self.counters: Dict[int, int] = {}
        self.total_decrements = 0

    def update(self, key: int, weight: int = 1) -> None:
        """Standard Misra–Gries update with an integer weight (default one)."""
        if weight <= 0:
            raise ValueError("weight must be positive")
        if key in self.counters:
            self.counters[key] += weight
            return
        if len(self.counters) < self.num_counters:
            self.counters[key] = weight
            return
        # Table full: decrement every counter by the largest amount that keeps all
        # counters non-negative (at most `weight`), then insert any remainder.
        decrement = min(weight, min(self.counters.values()))
        self.total_decrements += decrement
        for existing_key in list(self.counters):
            self.counters[existing_key] -= decrement
            if self.counters[existing_key] == 0:
                del self.counters[existing_key]
        remainder = weight - decrement
        if remainder > 0 and len(self.counters) < self.num_counters:
            self.counters[key] = remainder

    def update_many(self, keys: Sequence[int], weights: Sequence[int]) -> None:
        """Fold a batch's exact summary into the table (the mergeable-summaries combine).

        Adds each weight to its key's counter (keys may repeat), then, if more than
        ``num_counters`` keys remain, subtracts the ``(num_counters + 1)``-th largest
        count from every counter and drops the non-positive ones [ACHPWY12].  Each
        subtraction removes ``num_counters + 1`` times itself from the total count, so
        every undercount stays at most ``total weight / (num_counters + 1)``.  One
        decrement per batch, not per new key, is why batched ingestion is statistically
        rather than bitwise equivalent to per-arrival :meth:`update`.
        """
        size = len(self.counters)
        keys = np.concatenate((np.fromiter(self.counters, np.int64, size), np.asarray(keys, np.int64)))
        weights = np.concatenate(
            (np.fromiter(self.counters.values(), np.int64, size), np.asarray(weights, np.int64))
        )
        if weights.size and int(weights.min()) <= 0:
            raise ValueError("weight must be positive")
        keys, slots = np.unique(keys, return_inverse=True)
        counts = np.zeros(keys.size, dtype=np.int64)
        np.add.at(counts, slots, weights)
        excess = counts.size - self.num_counters
        if excess > 0:
            cutoff = np.partition(counts, excess - 1)[excess - 1]  # (k+1)-th largest
            kept = counts > cutoff
            keys, counts = keys[kept], counts[kept] - cutoff
            self.total_decrements += int(cutoff)
        self.counters = dict(zip(keys.tolist(), counts.tolist()))

    def merge(self, other: "MisraGriesTable") -> None:
        """Fold another Misra–Gries summary into this one: :meth:`update_many` of its
        counters.  The undercounts of the two inputs add, so the εm guarantee holds for
        the concatenated stream, which is what makes hash-sharded ingestion sound.
        """
        if other.num_counters != self.num_counters:
            raise ValueError(
                "cannot merge Misra-Gries tables of different capacities "
                f"({self.num_counters} vs {other.num_counters})"
            )
        self.total_decrements += other.total_decrements
        self.update_many(list(other.counters), list(other.counters.values()))

    def get(self, key: int) -> int:
        """The (under-)estimate of ``key``'s frequency stored in the table."""
        return self.counters.get(key, 0)

    def __contains__(self, key: int) -> bool:
        return key in self.counters

    def __len__(self) -> int:
        return len(self.counters)

    def items_by_count(self) -> List[Tuple[int, int]]:
        """All (key, counter) pairs sorted by decreasing counter value."""
        return sorted(self.counters.items(), key=lambda pair: (-pair[1], pair[0]))

    def top_keys(self, count: int) -> List[int]:
        """The keys of the ``count`` largest counters."""
        return [key for key, _ in self.items_by_count()[:count]]

    def space_bits(self, key_bits: int, value_bits: int) -> int:
        """Declared space for a table of this capacity with the given field widths."""
        return self.num_counters * (key_bits + value_bits)


class MisraGries(FrequencyEstimator):
    """The classic deterministic baseline for (ε,ϕ)-Heavy Hitters.

    Guarantee: for every item, ``f_i - eps*m <= estimate(i) <= f_i``.  Reporting every
    stored item whose counter exceeds ``(phi - eps) * m`` therefore returns all
    ϕ-heavy items and no (ϕ−ε)-light ones... *if* the counter error is at most εm, which
    holds because the table has ``ceil(1/eps)`` counters.
    """

    def __init__(self, epsilon: float, universe_size: int, stream_length_hint: Optional[int] = None) -> None:
        super().__init__()
        if not 0.0 < epsilon < 1.0:
            raise ValueError("epsilon must be in (0, 1)")
        if universe_size <= 0:
            raise ValueError("universe_size must be positive")
        self.epsilon = epsilon
        self.universe_size = universe_size
        self.stream_length_hint = stream_length_hint
        self.table = MisraGriesTable(num_counters=int(1.0 / epsilon) + 1)

    def insert(self, item: int) -> None:
        if not 0 <= item < self.universe_size:
            raise ValueError(f"item {item} outside universe [0, {self.universe_size})")
        self.items_processed += 1
        self.table.update(item)

    def insert_many(self, items: Sequence[int]) -> None:
        """Batched ingestion: aggregate the batch exactly, then merge it in once.

        Statistically equivalent to sequential insertion: the deterministic εm
        undercount guarantee holds (see :meth:`MisraGriesTable.update_many`), but the
        batch is decremented once, not once per arrival.
        """
        array = as_item_array(items)
        validate_universe(array, self.universe_size)
        self.items_processed += int(array.size)
        self.table.update_many(*aggregate_counts(array))

    def merge(self, other: "MisraGries") -> None:
        """Fold another shard's summary into this one (lossless mergeable combine).

        Both summaries must share ε and the universe; the merged table satisfies the
        deterministic εm undercount guarantee for the *concatenated* stream (see
        :meth:`MisraGriesTable.merge`), so a hash-partitioned run merges back into a
        summary as good as a single-instance run.
        """
        if not isinstance(other, MisraGries):
            raise TypeError(f"cannot merge MisraGries with {type(other).__name__}")
        if other.epsilon != self.epsilon or other.universe_size != self.universe_size:
            raise ValueError("cannot merge Misra-Gries summaries with different parameters")
        self.table.merge(other.table)
        self.items_processed += other.items_processed

    def estimate(self, item: int) -> float:
        return float(self.table.get(item))

    def report(self, phi: Optional[float] = None) -> HeavyHittersReport:
        """Report all stored items above the (ϕ−ε)·m threshold (ϕ defaults to ε)."""
        phi_value = phi if phi is not None else self.epsilon
        threshold = (phi_value - self.epsilon) * self.items_processed
        items = {
            item: float(count)
            for item, count in self.table.counters.items()
            if count > threshold
        }
        return HeavyHittersReport(
            items=items,
            stream_length=self.items_processed,
            epsilon=self.epsilon,
            phi=phi_value,
        )

    def refresh_space(self) -> None:
        # The classic accounting: each of the ceil(1/eps) slots stores an id of
        # ceil(log2 n) bits and a counter of ceil(log2 (m+1)) bits.
        length = self.stream_length_hint or max(1, self.items_processed)
        id_bits = bits_for_value(self.universe_size - 1)
        count_bits = bits_for_value(length)
        self.space.set_component("table", self.table.space_bits(id_bits, count_bits))
