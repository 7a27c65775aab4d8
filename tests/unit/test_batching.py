"""Unit tests for the batched-ingestion primitives.

Covers the geometric skip-ahead sampler API (Lemma 1, batched), the bulk RNG helpers,
vectorized Carter–Wegman hashing, the batched accelerated counters, and the batch
normalization helpers.
"""

import numpy as np
import pytest

from repro.primitives.accelerated import AcceleratedCounter, EpochAcceleratedCounter
from repro.primitives.batching import (
    aggregate_counts,
    as_item_array,
    iter_chunks,
    rechunk_arrays,
    validate_universe,
)
from repro.primitives.hashing import UniversalHashFamily, UniversalHashFunction
from repro.primitives.rng import RandomSource
from repro.primitives.sampling import BernoulliSampler, CoinFlipSampler
from repro.streams.stream import Stream


class TestBulkRandomHelpers:
    def test_geometric_support_and_mean(self):
        rng = RandomSource(1)
        draws = [rng.geometric(0.125) for _ in range(20_000)]
        assert min(draws) >= 1
        assert abs(sum(draws) / len(draws) - 8.0) < 0.35

    def test_geometric_probability_one_consumes_nothing(self):
        rng = RandomSource(2)
        reference = RandomSource(2)
        assert rng.geometric(1.0) == 1
        assert rng.random() == reference.random()

    def test_geometric_invalid(self):
        with pytest.raises(ValueError):
            RandomSource(3).geometric(0.0)

    def test_binomial_edges(self):
        rng = RandomSource(4)
        assert rng.binomial(0, 0.5) == 0
        assert rng.binomial(10, 0.0) == 0
        assert rng.binomial(10, 1.0) == 10

    @pytest.mark.parametrize("trials", [10, 500])
    def test_binomial_mean(self, trials):
        rng = RandomSource(5)
        draws = [rng.binomial(trials, 0.25) for _ in range(4_000)]
        mean = sum(draws) / len(draws)
        assert abs(mean - 0.25 * trials) < 0.05 * trials
        assert all(0 <= draw <= trials for draw in draws)

    def test_numpy_generator_deterministic_per_seed(self):
        a = RandomSource(6).numpy_generator().integers(0, 1000, size=5)
        b = RandomSource(6).numpy_generator().integers(0, 1000, size=5)
        assert list(a) == list(b)


class TestSkipAheadSampler:
    def test_probability_one_accepts_first(self):
        sampler = CoinFlipSampler(1.0, rng=RandomSource(1))
        assert sampler.next_accepted(10) == 0
        assert sampler.accepted_indices(5) == [0, 1, 2, 3, 4]

    def test_probability_one_returns_the_batch_itself(self):
        sampler = CoinFlipSampler(1.0, rng=RandomSource(1))
        batch = np.arange(65_536, dtype=np.int64)
        assert sampler.accepted(batch) is batch

    @pytest.mark.parametrize("probability", [1.0, 1 / 4])
    def test_accepted_selects_accepted_indices_with_the_same_draws(self, probability):
        by_array = CoinFlipSampler(probability, rng=RandomSource(9))
        by_index = CoinFlipSampler(probability, rng=RandomSource(9))
        batch = np.arange(1000, 2000, dtype=np.int64)
        for _ in range(3):
            expected = batch[by_index.accepted_indices(batch.size)]
            assert np.array_equal(by_array.accepted(batch), expected)
        assert by_array._rng.random() == by_index._rng.random()

    def test_empty_batch(self):
        sampler = CoinFlipSampler(0.5, rng=RandomSource(1))
        assert sampler.next_accepted(0) is None
        assert sampler.accepted_indices(0) == []

    def test_rate_matches_per_item_decisions(self):
        """Skip-ahead acceptance rate must match Lemma 1's per-item coin flips."""
        batched = CoinFlipSampler(1 / 8, rng=RandomSource(2))
        accepted = len(batched.accepted_indices(80_000))
        assert 0.10 < accepted / 80_000 < 0.15

    def test_indices_strictly_increasing_and_in_range(self):
        sampler = CoinFlipSampler(1 / 4, rng=RandomSource(3))
        indices = sampler.accepted_indices(10_000)
        assert indices == sorted(set(indices))
        assert all(0 <= index < 10_000 for index in indices)

    def test_space_accounting_unchanged_by_batch_api(self):
        sampler = CoinFlipSampler(1 / 1024, rng=RandomSource(4))
        before = sampler.space_bits()
        sampler.accepted_indices(100_000)
        assert sampler.space_bits() == before

    def test_bernoulli_offer_many_matches_extend_statistics(self):
        batched = BernoulliSampler(0.25, rng=RandomSource(5))
        kept = batched.offer_many(list(range(40_000)))
        assert batched.stream_length == 40_000
        assert batched.sample_size == len(kept) == len(batched.items)
        assert 0.22 * 40_000 < len(kept) < 0.28 * 40_000
        assert kept == sorted(kept)


class TestVectorizedHashing:
    def test_hash_many_matches_scalar(self):
        family = UniversalHashFamily(100_000, 997, rng=RandomSource(1))
        function = family.draw()
        items = np.array([0, 1, 2, 999, 99_999, 12_345], dtype=np.int64)
        assert function.hash_many(items).tolist() == [function(int(x)) for x in items]

    def test_hash_many_big_prime_path_matches_scalar(self):
        # Algorithm 1's id hash uses primes far beyond the int64-safe product range.
        function = UniversalHashFunction(
            multiplier=10**14 + 37, offset=10**13 + 1, prime=10**14 + 31, range_size=10**9
        )
        items = np.array([0, 5, 123_456, 10**6], dtype=np.int64)
        assert function.hash_many(items).tolist() == [function(int(x)) for x in items]

    def test_hash_many_rejects_negatives(self):
        function = UniversalHashFamily(1000, 10, rng=RandomSource(2)).draw()
        with pytest.raises(ValueError):
            function.hash_many(np.array([3, -1], dtype=np.int64))

    def test_hash_many_empty(self):
        function = UniversalHashFamily(1000, 10, rng=RandomSource(3)).draw()
        assert function.hash_many(np.array([], dtype=np.int64)).size == 0


class TestBatchedAcceleratedCounters:
    def test_fixed_probability_counter_offer_many_unbiased(self):
        estimates = []
        for seed in range(200):
            counter = AcceleratedCounter(0.125, rng=RandomSource(seed))
            counter.offer_many(4_000)
            estimates.append(counter.estimate())
        mean = sum(estimates) / len(estimates)
        assert abs(mean - 4_000) < 0.05 * 4_000

    def test_offer_many_negative_raises(self):
        counter = AcceleratedCounter(0.5, rng=RandomSource(1))
        with pytest.raises(ValueError):
            counter.offer_many(-1)
        epoch_counter = EpochAcceleratedCounter(0.1, rng=RandomSource(1))
        with pytest.raises(ValueError):
            epoch_counter.offer_many(-1)
        with pytest.raises(ValueError):
            epoch_counter.offer_many_given_successes(5, 9)

    def test_epoch_counter_offer_many_matches_sequential_distribution(self):
        """Batched offers must estimate the same frequency as per-occurrence offers."""
        occurrences = 5_000
        sequential_estimates, batched_estimates = [], []
        for seed in range(60):
            sequential = EpochAcceleratedCounter(0.05, rng=RandomSource(seed))
            for _ in range(occurrences):
                sequential.offer()
            sequential_estimates.append(sequential.estimate())
            batched = EpochAcceleratedCounter(0.05, rng=RandomSource(1_000 + seed))
            batched.offer_many(occurrences)
            batched_estimates.append(batched.estimate())
        sequential_mean = sum(sequential_estimates) / len(sequential_estimates)
        batched_mean = sum(batched_estimates) / len(batched_estimates)
        assert abs(batched_mean - sequential_mean) < 0.1 * occurrences
        assert abs(batched_mean - occurrences) < 0.1 * occurrences

    def test_epoch_counter_conditional_replay_matches_unconditional(self):
        """offer_many_given_successes with a binomial success count is the same law as
        offer_many (binomial thinning)."""
        occurrences = 2_000
        unconditional, conditional = [], []
        for seed in range(60):
            direct = EpochAcceleratedCounter(0.05, rng=RandomSource(seed))
            direct.offer_many(occurrences)
            unconditional.append(direct.subsample_count)
            split_rng = RandomSource(2_000 + seed)
            successes = split_rng.binomial(occurrences, 0.05)
            replayed = EpochAcceleratedCounter(0.05, rng=split_rng)
            replayed.offer_many_given_successes(occurrences, successes)
            conditional.append(replayed.subsample_count)
        mean_unconditional = sum(unconditional) / len(unconditional)
        mean_conditional = sum(conditional) / len(conditional)
        assert abs(mean_unconditional - 0.05 * occurrences) < 0.1 * 0.05 * occurrences * 3
        assert abs(mean_conditional - 0.05 * occurrences) < 0.1 * 0.05 * occurrences * 3


class TestBatchNormalizationHelpers:
    def test_as_item_array_passthrough(self):
        array = np.array([1, 2, 3], dtype=np.int64)
        assert as_item_array(array) is array

    def test_as_item_array_converts(self):
        result = as_item_array([3, 1, 2])
        assert result.dtype == np.int64
        assert result.tolist() == [3, 1, 2]

    def test_validate_universe_message_matches_sequential(self):
        with pytest.raises(ValueError, match=r"item 7 outside universe \[0, 5\)"):
            validate_universe(np.array([1, 7, 2], dtype=np.int64), 5)
        validate_universe(np.array([], dtype=np.int64), 5)  # empty is fine

    def test_aggregate_counts(self):
        values, counts = aggregate_counts(np.array([5, 3, 5, 5, 3, 1], dtype=np.int64))
        assert values.tolist() == [1, 3, 5]
        assert counts.tolist() == [1, 2, 3]

    def test_iter_chunks_over_stream_and_iterable(self):
        stream = Stream(items=list(range(10)), universe_size=10)
        chunks = [chunk.tolist() for chunk in iter_chunks(stream, 4)]
        assert chunks == [[0, 1, 2, 3], [4, 5, 6, 7], [8, 9]]
        lazy = [chunk.tolist() for chunk in iter_chunks(iter(range(5)), 2)]
        assert lazy == [[0, 1], [2, 3], [4]]
        with pytest.raises(ValueError):
            list(iter_chunks([1], 0))


class TestStreamArrayBacking:
    def test_sequence_facade(self):
        stream = Stream(items=[4, 2, 4], universe_size=5)
        assert isinstance(stream.array, np.ndarray)
        assert stream.array.dtype == np.int64
        assert list(stream) == [4, 2, 4]
        assert all(isinstance(item, int) for item in stream)
        assert stream[1] == 2
        assert stream.tolist() == [4, 2, 4]

    def test_vectorized_validation_message(self):
        with pytest.raises(ValueError, match=r"stream item 9 outside universe"):
            Stream(items=[1, 9], universe_size=5)

    def test_empty_stream(self):
        stream = Stream(items=[], universe_size=3)
        assert len(stream) == 0
        assert list(stream) == []


class TestRingRechunking:
    """rechunk_arrays' staging-buffer implementation: exactness and aliasing rules."""

    def test_chunks_survive_deferred_consumption(self):
        """Queued chunks must stay valid after later batches arrive (no reuse bugs)."""
        rng = np.random.default_rng(3)
        batches = [rng.integers(0, 100, size=rng.integers(1, 50)).astype(np.int64)
                   for _ in range(40)]
        expected = np.concatenate(batches)
        # materialize lazily, as the producer queue does: collect every yielded
        # chunk first, verify the concatenation only afterwards
        chunks = list(rechunk_arrays(iter(batches), 16))
        np.testing.assert_array_equal(np.concatenate(chunks), expected)
        assert all(len(chunk) == 16 for chunk in chunks[:-1])

    def test_assembled_chunks_do_not_alias_each_other(self):
        """Boundary-straddling chunks are distinct buffers, not one reused ring slot."""
        batches = [np.arange(i * 10, i * 10 + 10) for i in range(8)]  # 10 never divides 16
        chunks = list(rechunk_arrays(iter(batches), 16))
        for a in range(len(chunks)):
            for b in range(a + 1, len(chunks)):
                assert not np.shares_memory(chunks[a], chunks[b])

    def test_aligned_whole_chunks_are_zero_copy_views(self):
        """With empty staging, a whole in-batch chunk passes through uncopied."""
        big = np.arange(64, dtype=np.int64)
        chunks = list(rechunk_arrays(iter([big]), 16))
        assert len(chunks) == 4
        for chunk in chunks:
            assert np.shares_memory(chunk, big)

    def test_mixed_views_and_staged_chunks(self):
        """A straddling fragment lands in staging; realigned tails stream as views."""
        batches = [np.arange(0, 10), np.arange(10, 42)]  # 10 then 32 items, chunk 16
        chunks = list(rechunk_arrays(iter(batches), 16))
        np.testing.assert_array_equal(np.concatenate(chunks), np.arange(42))
        assert [len(chunk) for chunk in chunks] == [16, 16, 10]
        # chunk 0 straddles the batch boundary: staged, aliases neither input
        assert not np.shares_memory(chunks[0], batches[1])
        # chunk 1 is wholly inside batch 1 and starts with empty staging: a view
        assert np.shares_memory(chunks[1], batches[1])

    def test_read_only_inputs_are_accepted(self):
        """Frames decoded zero-copy arrive read-only; staging copies must not care."""
        batch = np.arange(30, dtype=np.int64)
        batch.flags.writeable = False
        chunks = list(rechunk_arrays(iter([batch, batch]), 16))
        np.testing.assert_array_equal(
            np.concatenate(chunks), np.concatenate([np.arange(30), np.arange(30)])
        )
