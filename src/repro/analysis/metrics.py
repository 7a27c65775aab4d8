"""Accuracy metrics for heavy-hitter reports and score estimates.

These implement the success criteria of Definition 1 (and its ranking analogues) as
measurable quantities: recall over the truly ϕ-heavy items, precision against the
(ϕ−ε)-light items, and the distribution of the additive estimation error.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping

from repro.core.results import HeavyHittersReport, ScoreReport


@dataclass(frozen=True)
class HeavyHitterAccuracy:
    """Accuracy of one heavy-hitters report against exact frequencies."""

    true_heavy_count: int
    reported_count: int
    recalled_heavy_count: int
    false_light_count: int
    max_frequency_error: float
    mean_frequency_error: float
    satisfies_definition: bool

    @property
    def recall(self) -> float:
        """Fraction of truly ϕ-heavy items that were reported."""
        if self.true_heavy_count == 0:
            return 1.0
        return self.recalled_heavy_count / self.true_heavy_count

    @property
    def precision(self) -> float:
        """Fraction of reported items that are not (ϕ−ε)-light."""
        if self.reported_count == 0:
            return 1.0
        return 1.0 - self.false_light_count / self.reported_count

    @property
    def f1(self) -> float:
        if self.precision + self.recall == 0.0:
            return 0.0
        return 2.0 * self.precision * self.recall / (self.precision + self.recall)


def evaluate_heavy_hitters(
    report: HeavyHittersReport,
    true_frequencies: Mapping[int, int],
) -> HeavyHitterAccuracy:
    """Score a heavy-hitters report against the exact frequency table."""
    stream_length = report.stream_length
    heavy_threshold = report.phi * stream_length
    light_threshold = (report.phi - report.epsilon) * stream_length

    true_heavy = {
        item for item, frequency in true_frequencies.items() if frequency > heavy_threshold
    }
    recalled = {item for item in true_heavy if item in report}
    false_light = {
        item
        for item in report
        if true_frequencies.get(item, 0) <= light_threshold
    }
    errors = [
        abs(estimate - true_frequencies.get(item, 0))
        for item, estimate in report.items.items()
    ]
    return HeavyHitterAccuracy(
        true_heavy_count=len(true_heavy),
        reported_count=len(report),
        recalled_heavy_count=len(recalled),
        false_light_count=len(false_light),
        max_frequency_error=max(errors) if errors else 0.0,
        mean_frequency_error=(sum(errors) / len(errors)) if errors else 0.0,
        satisfies_definition=report.satisfies_definition(true_frequencies),
    )


def frequency_error_statistics(
    estimates: Mapping[int, float],
    true_frequencies: Mapping[int, int],
    stream_length: int,
) -> Dict[str, float]:
    """Absolute and relative (to m) error statistics of a set of frequency estimates."""
    if not estimates:
        return {"max_abs_error": 0.0, "mean_abs_error": 0.0, "max_relative_error": 0.0}
    errors = [
        abs(estimate - true_frequencies.get(item, 0))
        for item, estimate in estimates.items()
    ]
    return {
        "max_abs_error": max(errors),
        "mean_abs_error": sum(errors) / len(errors),
        "max_relative_error": max(errors) / max(1, stream_length),
    }


def score_error_statistics(
    report: ScoreReport,
    true_scores: Mapping[int, float],
    normalizer: float,
) -> Dict[str, float]:
    """Error statistics of a Borda / maximin score report.

    ``normalizer`` is the paper's scale for the additive guarantee: ``m·n`` for Borda
    scores and ``m`` for maximin scores.
    """
    if not report.scores:
        return {"max_abs_error": 0.0, "mean_abs_error": 0.0, "max_normalized_error": 0.0}
    errors = [
        abs(report.scores[candidate] - true_scores.get(candidate, 0.0))
        for candidate in report.scores
    ]
    return {
        "max_abs_error": max(errors),
        "mean_abs_error": sum(errors) / len(errors),
        "max_normalized_error": max(errors) / max(1.0, normalizer),
    }


def winner_is_approximate(
    reported_winner: int,
    true_scores: Mapping[int, float],
    tolerance: float,
) -> bool:
    """True iff the reported winner's true score is within ``tolerance`` of the best."""
    if not true_scores:
        return True
    best = max(true_scores.values())
    return best - true_scores.get(reported_winner, 0.0) <= tolerance
