"""Tests for Algorithm 2 (OptimalListHeavyHitters, Theorem 2)."""

import copy
import pickle

import numpy as np
import pytest

from repro.core.heavy_hitters_optimal import OptimalListHeavyHitters
from repro.pipeline import PipelinedExecutor
from repro.primitives.accelerated import EpochAcceleratedCounter
from repro.primitives.rng import RandomSource
from repro.service import CHECKPOINT_FORMAT, Checkpointer
from repro.sharding import share_hash_functions
from repro.streams.generators import (
    adversarial_block_stream,
    planted_heavy_hitters_stream,
    zipfian_stream,
)
from repro.streams.truth import exact_frequencies


def make_algo(epsilon, phi, universe_size, stream_length, seed=0, **kwargs):
    return OptimalListHeavyHitters(
        epsilon=epsilon,
        phi=phi,
        universe_size=universe_size,
        stream_length=stream_length,
        rng=RandomSource(seed),
        **kwargs,
    )


class TestParameterValidation:
    def test_epsilon_below_phi(self):
        with pytest.raises(ValueError):
            make_algo(0.2, 0.1, 10, 100)

    def test_bad_delta(self):
        with pytest.raises(ValueError):
            make_algo(0.01, 0.1, 10, 100, delta=1.0)

    def test_repetitions_forced_odd(self):
        algo = make_algo(0.05, 0.2, 100, 1000, repetitions=4)
        assert algo.repetitions % 2 == 1

    def test_out_of_universe_item(self):
        algo = make_algo(0.05, 0.2, 8, 100)
        with pytest.raises(ValueError):
            algo.insert(-1)


class TestDefinitionGuarantee:
    def test_planted_stream_satisfies_definition(self):
        stream = planted_heavy_hitters_stream(
            30000, 5000, {1: 0.2, 2: 0.1, 3: 0.06, 4: 0.051}, rng=RandomSource(1)
        )
        truth = exact_frequencies(stream)
        algo = make_algo(0.02, 0.05, 5000, len(stream), seed=2)
        algo.consume(stream)
        report = algo.report()
        assert report.satisfies_definition(truth)
        for heavy in (1, 2, 3):
            assert heavy in report

    def test_zipfian_stream(self):
        stream = zipfian_stream(30000, 2000, skew=1.4, rng=RandomSource(3))
        truth = exact_frequencies(stream)
        algo = make_algo(0.02, 0.05, 2000, len(stream), seed=4)
        algo.consume(stream)
        report = algo.report()
        assert report.contains_all_heavy(truth)
        assert report.excludes_all_light(truth)

    def test_adversarial_block_order(self):
        stream = adversarial_block_stream(
            20000, 3000, {10: 0.2, 20: 0.1}, rng=RandomSource(5)
        )
        truth = exact_frequencies(stream)
        algo = make_algo(0.03, 0.08, 3000, len(stream), seed=6)
        algo.consume(stream)
        assert algo.report().satisfies_definition(truth)

    def test_estimates_within_eps_m(self):
        stream = planted_heavy_hitters_stream(
            25000, 1000, {1: 0.3, 2: 0.15}, rng=RandomSource(7)
        )
        truth = exact_frequencies(stream)
        algo = make_algo(0.02, 0.1, 1000, len(stream), seed=8)
        algo.consume(stream)
        report = algo.report()
        assert report.max_frequency_error(truth) <= 0.02 * len(stream)

    def test_estimate_interface_tracks_heavy_item(self):
        stream = planted_heavy_hitters_stream(
            20000, 500, {3: 0.4}, rng=RandomSource(9)
        )
        algo = make_algo(0.05, 0.2, 500, len(stream), seed=10)
        algo.consume(stream)
        assert abs(algo.estimate(3) - 0.4 * len(stream)) <= 0.1 * len(stream)

    def test_candidate_set_bounded_by_phi(self):
        """T1 never holds more than O(1/phi) candidates."""
        stream = zipfian_stream(20000, 3000, skew=1.1, rng=RandomSource(11))
        algo = make_algo(0.05, 0.1, 3000, len(stream), seed=12)
        algo.consume(stream)
        assert len(algo.t1.counters) <= algo.candidate_capacity

    def test_paper_constants_mode_still_has_recall(self):
        """With the paper's epoch scale (1e-6) the estimator undercounts wildly on small
        streams (epochs never activate), but the candidate filter still finds the heavy
        items; this documents the constant-factor gap between theory and practice."""
        stream = planted_heavy_hitters_stream(
            20000, 500, {3: 0.4}, rng=RandomSource(13)
        )
        algo = make_algo(0.05, 0.2, 500, len(stream), seed=14, epoch_scale=1e-6)
        algo.consume(stream)
        assert 3 in algo.t1.counters


class TestSpaceAccounting:
    def test_breakdown_components(self):
        algo = make_algo(0.05, 0.2, 1000, 10000, seed=15)
        algo.insert(1)
        assert set(algo.space_breakdown()) == {"sampler", "T1", "hash_functions", "T2_T3"}

    def test_candidate_table_scales_with_inverse_phi_and_log_n(self):
        small = make_algo(0.05, 0.2, 2**10, 10000, seed=16)
        large_universe = make_algo(0.05, 0.2, 2**30, 10000, seed=16)
        small_phi = make_algo(0.05, 0.1, 2**10, 10000, seed=16)
        for algo in (small, large_universe, small_phi):
            algo.insert(1)
        assert large_universe.space_breakdown()["T1"] > small.space_breakdown()["T1"]
        assert small_phi.space_breakdown()["T1"] > small.space_breakdown()["T1"]

    def test_counter_space_does_not_depend_on_universe(self):
        """The eps^-1 log phi^-1 term is universe-independent: the counter structure
        (bucket count x repetitions) is the same for any universe size, so the measured
        bits differ only by random fluctuation, not systematically with n."""
        stream = zipfian_stream(10000, 1000, skew=1.3, rng=RandomSource(17))
        small = make_algo(0.05, 0.2, 2**10, len(stream), seed=18)
        large = make_algo(0.05, 0.2, 2**30, len(stream), seed=18)
        assert small.num_buckets == large.num_buckets
        assert small.repetitions == large.repetitions
        small.consume(stream)
        large.consume(stream)
        small_bits = small.space_breakdown()["T2_T3"]
        large_bits = large.space_breakdown()["T2_T3"]
        assert abs(small_bits - large_bits) <= 0.2 * small_bits

    def test_repetitions_grow_with_log_inverse_phi(self):
        coarse = make_algo(0.001, 0.5, 100, 1000, seed=19)
        fine = make_algo(0.001, 0.5 / 64, 100, 1000, seed=19)
        assert fine.repetitions > coarse.repetitions


def _zipf_items(length, seed, universe=3000):
    return np.asarray(zipfian_stream(length, universe, skew=1.3, rng=RandomSource(seed)).items)


def _state(algo):
    """Everything a query reads: the report's items and the space accounting."""
    return dict(algo.report().items), algo.space_bits()


class TestArrayState:
    """T2/T3 live in arrays, so copies, pickles and merges are array operations."""

    def _ingested(self, seed=4, length=20000):
        algo = make_algo(0.05, 0.2, 3000, 2 * length, seed=seed)
        algo.insert_many(_zipf_items(length, seed))
        return algo

    def test_pickle_and_deepcopy_preserve_report_and_space(self):
        algo = self._ingested()
        for clone in (pickle.loads(pickle.dumps(algo)), copy.deepcopy(algo)):
            assert _state(clone) == _state(algo)
            assert np.array_equal(clone.t3, algo.t3)

    def test_deepcopy_is_independent_of_the_original(self):
        algo = self._ingested()
        before = _state(algo)
        clone = copy.deepcopy(algo)
        clone.insert_many(_zipf_items(5000, 11))
        assert _state(algo) == before
        algo.insert_many(_zipf_items(5000, 12))
        assert _state(clone) != _state(algo)
        clone_state = _state(clone)
        algo.insert_many(_zipf_items(5000, 13))
        assert _state(clone) == clone_state

    @pytest.mark.parametrize("batched", [True, False])
    def test_space_bits_equals_the_reference_counters(self, batched):
        algo = make_algo(0.05, 0.2, 3000, 40000, seed=5)
        items = _zipf_items(3000, 5)
        if batched:
            algo.insert_many(items)
        else:
            for item in items.tolist():
                algo.insert(item)
        algo.space_bits()
        total = 0
        for repetition, bucket in zip(*np.nonzero(algo.touched)):
            counter = EpochAcceleratedCounter(algo.epsilon, epoch_scale=algo.epoch_scale)
            counter.subsample_count = int(algo.t2[repetition, bucket])
            counter.epoch_counts = {
                epoch: int(count)
                for epoch, count in enumerate(algo.t3[repetition, bucket])
                if count
            }
            total += counter.space_bits()
        # Touched buckets whose T2 never moved still cost their one bit.
        assert (algo.t2[algo.touched] == 0).sum() > 0
        assert not algo.t2[~algo.touched].any() and not algo.t3[~algo.touched].any()
        assert algo.space_breakdown()["T2_T3"] == total

    def test_merge_does_not_alias_the_other_sketch(self):
        a = make_algo(0.05, 0.2, 3000, 40000, seed=6)
        other = make_algo(0.05, 0.2, 3000, 40000, seed=7)
        share_hash_functions([a, other])
        a.insert_many(_zipf_items(8000, 6))
        other.insert_many(_zipf_items(8000, 7))
        a.merge(other)
        merged = _state(a)
        other.insert_many(_zipf_items(8000, 8))
        for item in _zipf_items(500, 9).tolist():
            other.insert(item)
        assert _state(a) == merged

    def test_merge_adds_the_tables(self):
        a = make_algo(0.05, 0.2, 3000, 40000, seed=6)
        other = make_algo(0.05, 0.2, 3000, 40000, seed=7)
        share_hash_functions([a, other])
        a.insert_many(_zipf_items(8000, 6))
        other.insert_many(_zipf_items(30000, 7))
        t2, touched = a.t2 + other.t2, a.touched | other.touched
        epochs = max(a.t3.shape[2], other.t3.shape[2])
        t3 = np.zeros(a.t2.shape + (epochs,), dtype=np.int64)
        t3[:, :, : a.t3.shape[2]] += a.t3
        t3[:, :, : other.t3.shape[2]] += other.t3
        a.merge(other)
        assert np.array_equal(a.t2, t2) and np.array_equal(a.touched, touched)
        assert np.array_equal(a.t3[:, :, :epochs], t3) and not a.t3[:, :, epochs:].any()

    def test_format3_checkpoint_restores_and_resumes(self, tmp_path):
        items = _zipf_items(40000, 10)
        chunk = 4096

        def resumed_report():
            executor = PipelinedExecutor(
                sketch=make_algo(0.05, 0.2, 3000, items.size, seed=10), chunk_size=chunk
            )
            for start in range(0, 5 * chunk, chunk):
                executor.ingest_chunk(items[start:start + chunk])
            capture = executor.sink_state()
            path = str(tmp_path / "thm2.ckpt")
            manifest = Checkpointer().save(path, capture)
            assert manifest["format"] == CHECKPOINT_FORMAT == 3
            restored, _ = Checkpointer().restore_pipeline(path, chunk_size=chunk)
            assert _state(restored.sketch) == _state(capture.sketches[0])
            for start in range(5 * chunk, items.size, chunk):
                restored.ingest_chunk(items[start:start + chunk])
            return restored.finalize().report

        first, second = resumed_report(), resumed_report()
        assert first.stream_length == items.size
        assert first.items == second.items
        assert first.satisfies_definition(exact_frequencies(items.tolist()))
