"""Unit tests for repro.analysis.metrics and repro.analysis.harness."""

import pytest

from repro.analysis.harness import (
    ExperimentRow,
    format_table,
    run_algorithm_on_stream,
    run_heavy_hitter_comparison,
    run_space_scaling_experiment,
)
from repro.analysis.metrics import (
    evaluate_heavy_hitters,
    frequency_error_statistics,
    score_error_statistics,
    winner_is_approximate,
)
from repro.baselines.misra_gries import MisraGries
from repro.core.results import HeavyHittersReport, ScoreReport
from repro.primitives.rng import RandomSource
from repro.streams.generators import planted_heavy_hitters_stream, uniform_stream


class TestHeavyHitterMetrics:
    def make_report(self, items):
        return HeavyHittersReport(items=items, stream_length=1000, epsilon=0.05, phi=0.1)

    def test_perfect_report(self):
        truth = {1: 300, 2: 150, 3: 20}
        accuracy = evaluate_heavy_hitters(self.make_report({1: 300.0, 2: 150.0}), truth)
        assert accuracy.recall == 1.0
        assert accuracy.precision == 1.0
        assert accuracy.f1 == 1.0
        assert accuracy.max_frequency_error == 0.0
        assert accuracy.satisfies_definition

    def test_missing_heavy_item_lowers_recall(self):
        truth = {1: 300, 2: 150}
        accuracy = evaluate_heavy_hitters(self.make_report({1: 300.0}), truth)
        assert accuracy.recall == 0.5
        assert not accuracy.satisfies_definition

    def test_light_item_lowers_precision(self):
        truth = {1: 300, 9: 10}
        accuracy = evaluate_heavy_hitters(self.make_report({1: 300.0, 9: 10.0}), truth)
        assert accuracy.precision == 0.5

    def test_empty_report_and_no_heavy_items(self):
        truth = {5: 20}
        accuracy = evaluate_heavy_hitters(self.make_report({}), truth)
        assert accuracy.recall == 1.0
        assert accuracy.precision == 1.0

    def test_frequency_error_statistics(self):
        stats = frequency_error_statistics({1: 95.0, 2: 50.0}, {1: 100, 2: 40}, stream_length=1000)
        assert stats["max_abs_error"] == pytest.approx(10.0)
        assert stats["mean_abs_error"] == pytest.approx(7.5)
        assert stats["max_relative_error"] == pytest.approx(0.01)

    def test_empty_estimates(self):
        stats = frequency_error_statistics({}, {}, stream_length=10)
        assert stats["max_abs_error"] == 0.0


class TestScoreMetrics:
    def test_score_error_statistics(self):
        report = ScoreReport(scores={0: 10.0, 1: 20.0}, stream_length=5, epsilon=0.1)
        stats = score_error_statistics(report, {0: 12.0, 1: 20.0}, normalizer=100.0)
        assert stats["max_abs_error"] == pytest.approx(2.0)
        assert stats["max_normalized_error"] == pytest.approx(0.02)

    def test_winner_is_approximate(self):
        assert winner_is_approximate(1, {0: 100.0, 1: 99.0}, tolerance=5.0)
        assert not winner_is_approximate(1, {0: 100.0, 1: 50.0}, tolerance=5.0)
        assert winner_is_approximate(3, {}, tolerance=1.0)


class TestHarness:
    def test_run_algorithm_on_stream_measurements(self):
        stream = uniform_stream(2000, 100, rng=RandomSource(1))
        algo = MisraGries(epsilon=0.05, universe_size=100)
        measurements = run_algorithm_on_stream(algo, stream)
        assert measurements["space_bits"] > 0
        assert measurements["total_seconds"] >= 0
        assert measurements["updates_per_second"] > 0

    def test_run_heavy_hitter_comparison(self):
        stream = planted_heavy_hitters_stream(
            5000, 200, {1: 0.3, 2: 0.1}, rng=RandomSource(2)
        )
        rows = run_heavy_hitter_comparison(
            {
                "misra-gries": lambda: MisraGries(epsilon=0.02, universe_size=200),
            },
            stream,
            phi=0.08,
        )
        assert len(rows) == 1
        row = rows[0]
        assert row.label == "misra-gries"
        assert row.measurements["recall"] == 1.0
        assert row.parameters["m"] == 5000

    def test_run_space_scaling_experiment(self):
        grid = [{"epsilon": 0.1}, {"epsilon": 0.05}]
        rows = run_space_scaling_experiment(
            factory=lambda p: MisraGries(epsilon=p["epsilon"], universe_size=100),
            stream_factory=lambda p: uniform_stream(500, 100, rng=RandomSource(3)),
            parameter_grid=grid,
        )
        assert len(rows) == 2
        assert rows[1].measurements["space_bits"] > rows[0].measurements["space_bits"]

    def test_format_table(self):
        rows = [
            ExperimentRow(label="a", parameters={"eps": 0.1}, measurements={"bits": 12.0}),
            ExperimentRow(label="b", parameters={"eps": 0.2}, measurements={"bits": 24.0}),
        ]
        table = format_table(rows)
        assert "| label | eps | bits |" in table
        assert "| a | 0.1 | 12 |" in table
        assert format_table([]) == "(no rows)"
