"""Common protocol for all streaming algorithms in the package.

The paper's model (Section 2.1) is a single pass over an insertion-only stream; the
algorithm keeps a small state between items, and at the end of the stream reports its
answer.  Every algorithm and baseline in this package therefore exposes the same
operations:

* ``insert(item)`` — process one stream insertion,
* ``insert_many(items)`` — process a batch of insertions (see the contract below),
* ``report()`` — produce the algorithm's answer (type depends on the problem),
* ``space_bits()`` — the number of bits of state the algorithm currently holds, as
  accounted by its :class:`~repro.primitives.space.SpaceMeter`.

Item streams use non-negative integer ids in ``[0, n)`` (the paper's universe ``[n]``);
ranking streams use :class:`~repro.voting.rankings.Ranking` objects.

The ``insert`` / ``insert_many`` contract
-----------------------------------------

``insert`` is the reference semantics: one arrival, processed exactly as the paper's
pseudocode says, and it never changes behavior because a batched path exists.  Use it
when arrivals trickle in one at a time, when bit-for-bit reproducibility against a
recorded RNG schedule matters, or in adversarial-order experiments where the item
granularity is the point.

``insert_many(items)`` is the ingestion fast path.  The base-class default simply loops
over ``insert`` — so every algorithm supports it, exactly — while the heavy-hitter
sketches override it with vectorized implementations (geometric skip-ahead sampling,
numpy Carter–Wegman hashing, pre-aggregated counter merges).  Use it whenever items are
already available in chunks (file replay, benchmark streams, upstream network buffers):
it is the entry point that makes the paper's O(1)-amortized-update claim visible in
Python instead of being drowned by interpreter overhead.

Every override preserves three invariants:

* the algorithm's estimation guarantee (same estimator, same ε/ϕ/δ guarantees);
* the space accounting — batching is a *time* optimization only, ``space_bits()`` is
  charged identically;
* ``items_processed`` and report semantics match sequential consumption.

What an override may change is the RNG *consumption order* (a geometric skip draws one
uniform where m coin flips drew m) and, for the deterministic counter sketches, the
tie-breaking order of evictions (a Misra–Gries batch is merged in with one decrement
rather than one per arrival).  Each override documents whether it is
**exactly** equal to sequential insertion or **statistically** equivalent (same output
distribution, identical guarantees).  The default loop implementation is always exact.
"""

from __future__ import annotations

import abc
from typing import Any, Dict, Iterable, Mapping, Optional, Sequence

from repro.primitives.space import SpaceMeter


class StreamingAlgorithm(abc.ABC):
    """A one-pass algorithm over an insertion-only stream of integer items."""

    def __init__(self) -> None:
        self.space = SpaceMeter()
        self.items_processed = 0

    @abc.abstractmethod
    def insert(self, item: int) -> None:
        """Process one stream insertion."""

    def insert_many(self, items: Sequence[int]) -> None:
        """Process a batch of stream insertions (see the module docstring contract).

        This default loops over :meth:`insert` and is therefore exactly equivalent to
        sequential insertion; subclasses override it with vectorized fast paths.
        """
        # repro: lint-ignore[hot-path] -- reference semantics: the per-item loop IS the contract subclasses' vectorized overrides are property-tested against
        for item in items:
            self.insert(item)

    @abc.abstractmethod
    def report(self) -> Any:
        """Produce the algorithm's answer after the stream has been consumed."""

    def consume(self, stream: Iterable[int], batch_size: Optional[int] = None) -> "StreamingAlgorithm":
        """Insert every item of an iterable stream; returns ``self`` for chaining.

        With ``batch_size`` set, the stream is consumed in chunks through
        :meth:`insert_many` (the batched fast path); otherwise items are inserted one
        at a time (the reference path).
        """
        if batch_size is None:
            for item in stream:
                self.insert(item)
            return self
        from repro.primitives.batching import iter_chunks

        for chunk in iter_chunks(stream, batch_size):
            self.insert_many(chunk)
        return self

    def space_bits(self) -> int:
        """Current working-memory footprint in bits (see :class:`SpaceMeter`)."""
        self.refresh_space()
        return self.space.total_bits()

    def peak_space_bits(self) -> int:
        """Peak working-memory footprint in bits observed so far."""
        self.refresh_space()
        return self.space.peak_bits()

    def space_breakdown(self) -> Mapping[str, int]:
        """Per-component view of the current space usage."""
        self.refresh_space()
        return self.space.breakdown()

    def refresh_space(self) -> None:
        """Recompute the space meter from the live data structures.

        Subclasses that keep the meter up to date incrementally may leave this as a
        no-op; subclasses that prefer to recompute on demand override it.
        """

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(items_processed={self.items_processed})"


class FrequencyEstimator(StreamingAlgorithm):
    """A streaming algorithm that can additionally estimate individual frequencies.

    All heavy-hitter baselines (Misra–Gries, Count-Min, CountSketch, Space-Saving,
    Lossy Counting, Sticky Sampling) satisfy this richer interface, as do the paper's
    heavy-hitter algorithms.
    """

    @abc.abstractmethod
    def estimate(self, item: int) -> float:
        """Estimate the absolute frequency of ``item`` in the stream seen so far."""

    def estimates(self, items: Iterable[int]) -> Dict[int, float]:
        """Estimate the frequency of several items at once."""
        return {item: self.estimate(item) for item in items}


class RankingStreamingAlgorithm(abc.ABC):
    """A one-pass algorithm over an insertion-only stream of rankings (votes).

    Used by the Borda and Maximin problems, whose stream items are total orders over the
    candidate set rather than single ids (paper Definitions 6–9).
    """

    def __init__(self) -> None:
        self.space = SpaceMeter()
        self.votes_processed = 0

    @abc.abstractmethod
    def insert(self, ranking: Any) -> None:
        """Process one vote (a ranking of all candidates)."""

    def insert_many(self, rankings: Iterable[Any]) -> None:
        """Process a batch of votes (default: exact sequential loop over insert)."""
        # repro: lint-ignore[hot-path] -- reference semantics: votes are rankings (small objects), no vectorized path exists for them yet
        for ranking in rankings:
            self.insert(ranking)

    @abc.abstractmethod
    def report(self) -> Any:
        """Produce the algorithm's answer after the stream has been consumed."""

    def consume(self, stream: Iterable[Any]) -> "RankingStreamingAlgorithm":
        for ranking in stream:
            self.insert(ranking)
        return self

    def space_bits(self) -> int:
        self.refresh_space()
        return self.space.total_bits()

    def peak_space_bits(self) -> int:
        self.refresh_space()
        return self.space.peak_bits()

    def space_breakdown(self) -> Mapping[str, int]:
        self.refresh_space()
        return self.space.breakdown()

    def refresh_space(self) -> None:
        """Recompute the space meter from the live data structures (see above)."""
