"""Unit tests for repro.primitives.accelerated (the Algorithm 2 counters)."""

import statistics

import numpy as np
import pytest

from repro.primitives.accelerated import (
    AcceleratedCounter,
    EpochAcceleratedCounter,
    absorb_given_successes,
    cells_space_bits,
    epoch_probabilities,
    epochs_of,
)
from repro.primitives.rng import RandomSource


class TestAcceleratedCounter:
    def test_probability_one_is_exact(self):
        counter = AcceleratedCounter(1.0, rng=RandomSource(1))
        for _ in range(137):
            counter.offer()
        assert counter.estimate() == 137

    def test_estimate_is_roughly_unbiased(self):
        """Averaged over repetitions, count/p tracks the true count."""
        estimates = []
        for seed in range(40):
            counter = AcceleratedCounter(0.1, rng=RandomSource(seed))
            for _ in range(2000):
                counter.offer()
            estimates.append(counter.estimate())
        assert abs(statistics.mean(estimates) - 2000) < 200

    def test_space_grows_slower_than_count(self):
        counter = AcceleratedCounter(0.01, rng=RandomSource(2))
        for _ in range(10000):
            counter.offer()
        # Roughly 100 increments: ~7 bits, far fewer than log2(10000) * anything big.
        assert counter.space_bits() <= 10

    def test_invalid_probability(self):
        with pytest.raises(ValueError):
            AcceleratedCounter(0.0)
        with pytest.raises(ValueError):
            AcceleratedCounter(1.5)


class TestEpochAcceleratedCounter:
    def test_zero_offers_zero_estimate(self):
        counter = EpochAcceleratedCounter(epsilon=0.1, rng=RandomSource(1))
        assert counter.estimate() == 0.0
        assert counter.current_epoch() == -1

    def test_estimate_tracks_count_within_additive_error(self):
        """The end-to-end additive error stays O(1/eps) (Lemma 4's role in Algorithm 2)."""
        epsilon = 0.05
        true_count = 4000
        errors = []
        for seed in range(15):
            counter = EpochAcceleratedCounter(epsilon=epsilon, rng=RandomSource(seed))
            for _ in range(true_count):
                counter.offer()
            errors.append(abs(counter.estimate() - true_count))
        # The median error should be a small multiple of 1/eps = 20.
        assert statistics.median(errors) <= 30 / epsilon

    def test_epoch_grows_with_count(self):
        counter = EpochAcceleratedCounter(epsilon=0.05, rng=RandomSource(3))
        epochs = []
        for _ in range(5000):
            counter.offer()
            epochs.append(counter.current_epoch())
        assert epochs[-1] > epochs[0]
        assert epochs[-1] >= 1

    def test_increment_probability_caps_at_one(self):
        counter = EpochAcceleratedCounter(epsilon=0.05, rng=RandomSource(4))
        assert counter.increment_probability(-1) == 0.0
        assert counter.increment_probability(0) == pytest.approx(0.05)
        assert counter.increment_probability(10) == 1.0

    def test_space_stays_small(self):
        """Counting 10^4 arrivals uses polylogarithmically many bits (one small counter
        per epoch), far fewer than the ~14 bits/arrival an exact per-item table of
        10^4 ids would need in aggregate."""
        counter = EpochAcceleratedCounter(epsilon=0.02, rng=RandomSource(5))
        for _ in range(10000):
            counter.offer()
        assert counter.space_bits() <= 200

    def test_paper_epoch_scale_counts_little(self):
        """With the paper's 1e-6 scale and a small stream, epochs never activate."""
        counter = EpochAcceleratedCounter(epsilon=0.05, rng=RandomSource(6), epoch_scale=1e-6)
        for _ in range(2000):
            counter.offer()
        assert counter.current_epoch() == -1
        assert counter.estimate() == 0.0

    def test_running_frequency_approximation(self):
        counter = EpochAcceleratedCounter(epsilon=0.1, rng=RandomSource(7))
        for _ in range(3000):
            counter.offer()
        approx = counter.approximate_running_frequency()
        assert 3000 / 4 <= approx <= 3000 * 4

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            EpochAcceleratedCounter(epsilon=0.0)
        with pytest.raises(ValueError):
            EpochAcceleratedCounter(epsilon=0.1, epoch_scale=0.0)


class TestArrayForm:
    @pytest.mark.parametrize("epoch_scale", [1.0, 0.3, 1e-6])
    def test_epochs_match_the_reference_counter(self, epoch_scale):
        values = np.arange(0, 5000)
        reference = []
        for value in values.tolist():
            counter = EpochAcceleratedCounter(epsilon=0.05, epoch_scale=epoch_scale)
            counter.subsample_count = value
            reference.append(counter.current_epoch())
        assert epochs_of(values, epoch_scale).tolist() == reference

    def test_probabilities_match_the_reference_counter(self):
        counter = EpochAcceleratedCounter(epsilon=0.05)
        epochs = np.arange(-1, 12)
        assert epoch_probabilities(epochs, 0.05).tolist() == [
            counter.increment_probability(epoch) for epoch in epochs.tolist()
        ]

    def test_cells_space_bits_is_the_sum_over_counters(self):
        subsamples = np.array([0, 1, 7, 8, 1000])
        epoch_counts = np.array(
            [[0, 0, 0], [3, 0, 0], [0, 5, 1], [2, 0, 255], [0, 0, 0]]
        )
        total = 0
        for subsample, row in zip(subsamples.tolist(), epoch_counts.tolist()):
            counter = EpochAcceleratedCounter(epsilon=0.05)
            counter.subsample_count = subsample
            counter.epoch_counts = {t: c for t, c in enumerate(row) if c}
            total += counter.space_bits()
        assert cells_space_bits(subsamples, epoch_counts) == total


class TestAbsorbGivenSuccessesLaw:
    """The vectorized epoch-group draw against the per-counter replay it replaces.

    For fixed (T2₀, n, k, ε, epoch_scale), 4,000 seeded draws of each: identical
    final T2, identical per-epoch T3 support, the line-23 estimate's mean within 4
    standard errors and its variance within ±15%, and every epoch's mean credit
    within 4 standard errors.
    """

    DRAWS = 4000

    @pytest.mark.parametrize(
        "start, occurrences, successes, epsilon, epoch_scale",
        [
            (0, 400, 12, 0.05, 1.0),  # inactive -> epoch 0 boundary
            (3, 2000, 40, 0.05, 1.0),  # epochs 3 .. 10
            (990, 3000, 60, 0.02, 1e-6),  # the paper's scale, crossing into epoch 0
            (2, 60, 60, 0.001, 1.0),  # every arrival increments T2
        ],
    )
    def test_matches_offer_many_given_successes(
        self, start, occurrences, successes, epsilon, epoch_scale
    ):
        reference = []
        for seed in range(self.DRAWS):
            counter = EpochAcceleratedCounter(
                epsilon=epsilon, rng=RandomSource(seed), epoch_scale=epoch_scale
            )
            counter.subsample_count = start
            counter.offer_many_given_successes(occurrences, successes)
            assert counter.subsample_count == start + successes
            reference.append(counter.epoch_counts)
        vectorized = absorb_given_successes(
            RandomSource(1),
            np.full(self.DRAWS, start),
            np.full(self.DRAWS, occurrences),
            np.full(self.DRAWS, successes),
            epsilon,
            epoch_scale,
        )
        epochs = sorted({epoch for counts in reference for epoch in counts})
        assert len(epochs) >= 1
        assert [epoch for epoch, credits in vectorized if credits.any()] == epochs
        assert epochs_of(np.array([start + successes]), epoch_scale)[0] == epochs[-1]

        def summary(samples):
            samples = np.asarray(samples, dtype=np.float64)
            return samples.mean(), samples.var(ddof=1)

        def close(first, second):
            (mean_a, var_a), (mean_b, var_b) = summary(first), summary(second)
            return abs(mean_a - mean_b) <= 4.0 * np.sqrt((var_a + var_b) / self.DRAWS)

        credits_by_epoch = dict(vectorized)
        for epoch in epochs:
            expected = [counts.get(epoch, 0) for counts in reference]
            assert close(credits_by_epoch[epoch], expected), epoch
        probabilities = {epoch: min(epsilon * 2.0 ** epoch, 1.0) for epoch in epochs}
        reference_estimates = [
            sum(count / probabilities[epoch] for epoch, count in counts.items())
            for counts in reference
        ]
        vectorized_estimates = sum(
            credits_by_epoch[epoch] / probabilities[epoch] for epoch in epochs
        )
        assert close(vectorized_estimates, reference_estimates)
        ratio = summary(vectorized_estimates)[1] / summary(reference_estimates)[1]
        assert 0.85 <= ratio <= 1.15
