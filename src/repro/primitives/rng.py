"""Seeded randomness shared by all randomized data structures.

Every randomized structure in the package receives a :class:`RandomSource` (or derives a
child from one) instead of touching the global :mod:`random` state.  This keeps the
whole reproduction deterministic under a fixed seed, which matters for tests, for the
benchmark harness, and for the lower-bound reductions where Alice and Bob must share
public randomness.
"""

from __future__ import annotations

import math
import random
from typing import Iterable, List, Optional, Sequence, TypeVar

T = TypeVar("T")


class RandomSource:
    """A thin, seedable wrapper around :class:`random.Random`.

    The wrapper exists for three reasons:

    * child generators (:meth:`spawn`) let a parent algorithm hand independent,
      reproducible randomness to each of its sub-structures (hash functions, samplers,
      repetitions) without them interfering with one another;
    * convenience helpers used throughout the code base (:meth:`bernoulli`,
      :meth:`random_bits`, :meth:`choice_index`) keep call sites short and explicit;
    * it gives a single choke point if one ever wants to swap the underlying generator.
    """

    def __init__(self, seed: Optional[int] = None) -> None:
        self._seed = seed
        self._random: Optional[random.Random] = None
        self._numpy_rng = None

    @property
    def _rng(self) -> random.Random:
        # Seeding a Mersenne Twister costs ~15us, and many sources are never drawn
        # from (e.g. a sketch's per-item coin source when it only ingests batches),
        # so the generator is built on first use.
        generator = self._random
        if generator is None:
            generator = self._random = random.Random(self._seed)
        return generator

    @property
    def seed(self) -> Optional[int]:
        """The seed this source was created with (``None`` if unseeded)."""
        return self._seed

    # -- pickling ----------------------------------------------------------------
    #
    # A RandomSource pickles as a fresh *seed*, not as the full generator state: an
    # initialized Mersenne Twister weighs ~2.5 KB, which would outweigh a small
    # sketch shipped to a worker process (repro.sharding's parallel driver) or
    # written to a checkpoint.
    # The copy's seed is derived by hashing the generator's current state — a pure
    # read, so serialization never perturbs the source object: pickling the same
    # source twice yields identical bytes, and the original's future draws are
    # unaffected.  The unpickled copy is deterministic given the original's state and
    # draws a fresh, well-distributed stream — but it does NOT replay the original's
    # future draws bit for bit (two copies of the same state are identical to each
    # other, not to the original's continuation).  The same applies to
    # copy.deepcopy, which dispatches through these hooks: a deepcopied source is a
    # re-seeded sibling, not a bit-exact snapshot.  Every use in this package (ship
    # to a shard worker, ingest, ship back, merge) only needs distributional
    # correctness, which this preserves.

    def __getstate__(self) -> dict:
        if self._random is None:
            return {"seed": self._seed}
        # Hash only the Mersenne Twister word tuple (state[1]): it determines the
        # generator completely, and a tuple of ints hashes identically in every
        # process.  The full getstate() tuple must NOT be hashed — it ends with
        # gauss_next, which can be None, and hash(None) varies per process under
        # ASLR on CPython < 3.12, which would silently break run-to-run
        # reproducibility of the parallel sharded driver.
        return {"seed": hash(self._rng.getstate()[1]) & ((1 << 62) - 1)}

    def __setstate__(self, state: dict) -> None:
        self._seed = state["seed"]
        self._random = None
        self._numpy_rng = None

    def spawn(self, salt: int = 0) -> "RandomSource":
        """Return a new, independent :class:`RandomSource` derived from this one.

        The child is seeded from the parent's stream, offset by ``salt`` so multiple
        children spawned in a loop are distinct even if spawned from the same state.
        """
        child_seed = self._rng.getrandbits(62) ^ (salt * 0x9E3779B97F4A7C15 & ((1 << 62) - 1))
        return RandomSource(child_seed)

    # -- basic draws -------------------------------------------------------------

    def random(self) -> float:
        """Uniform float in ``[0, 1)``."""
        return self._rng.random()

    def bernoulli(self, probability: float) -> bool:
        """Return ``True`` with the given probability."""
        if probability <= 0.0:
            return False
        if probability >= 1.0:
            return True
        return self._rng.random() < probability

    def random_bits(self, num_bits: int) -> int:
        """Return a uniformly random integer with ``num_bits`` bits."""
        if num_bits <= 0:
            return 0
        return self._rng.getrandbits(num_bits)

    def randint(self, low: int, high: int) -> int:
        """Uniform integer in the inclusive range ``[low, high]``."""
        return self._rng.randint(low, high)

    def geometric(self, probability: float) -> int:
        """Number of Bernoulli(``probability``) trials up to and including the first success.

        The support is ``{1, 2, ...}``: a return of ``g`` means ``g - 1`` failures then a
        success.  Implemented by inverse-CDF from one uniform draw, so a batch of ``m``
        trials at rate ``p`` costs ``O(p*m)`` RNG work instead of ``m`` — the geometric
        skip behind the batched samplers.  ``probability >= 1`` returns ``1`` without
        consuming randomness (matching :meth:`bernoulli`).
        """
        if probability >= 1.0:
            return 1
        if probability <= 0.0:
            raise ValueError("geometric requires a positive probability")
        uniform = self._rng.random()
        return 1 + int(math.log1p(-uniform) / math.log1p(-probability))

    def binomial(self, trials: int, probability: float) -> int:
        """Number of successes among ``trials`` Bernoulli(``probability``) draws.

        Degenerate probabilities consume no randomness; small trial counts use the
        Python generator directly, larger ones a numpy generator derived from this
        source (see :meth:`numpy_generator`), so one call replaces up to ``trials``
        individual coin flips.
        """
        if trials <= 0 or probability <= 0.0:
            return 0
        if probability >= 1.0:
            return trials
        if trials < 32:
            random_draw = self._rng.random
            return sum(random_draw() < probability for _ in range(trials))
        return int(self.numpy_generator().binomial(trials, probability))

    def numpy_generator(self):
        """A numpy :class:`~numpy.random.Generator` seeded from this source, lazily built.

        Bulk draws (vectorized stream generation, binomial counter updates) go through
        this generator; it is created on first use from the Python stream, so the whole
        hierarchy remains deterministic under a fixed seed.
        """
        if self._numpy_rng is None:
            import numpy

            self._numpy_rng = numpy.random.default_rng(self._rng.getrandbits(64))
        return self._numpy_rng

    def choice_index(self, length: int) -> int:
        """Uniform index into a sequence of the given length."""
        if length <= 0:
            raise ValueError("cannot choose an index from an empty sequence")
        return self._rng.randrange(length)

    def choice(self, items: Sequence[T]) -> T:
        """Uniformly choose one element of ``items``."""
        return items[self.choice_index(len(items))]

    def sample(self, items: Sequence[T], k: int) -> List[T]:
        """Sample ``k`` distinct elements of ``items`` uniformly without replacement."""
        if isinstance(items, (range, list, tuple)):
            return self._rng.sample(items, k)
        return self._rng.sample(list(items), k)

    def shuffle(self, items: Iterable[T]) -> List[T]:
        """Return a uniformly shuffled copy of ``items``."""
        out = list(items)
        self._rng.shuffle(out)
        return out

    def permutation(self, n: int) -> List[int]:
        """Return a uniformly random permutation of ``range(n)``."""
        return self.shuffle(range(n))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RandomSource(seed={self._seed!r})"
