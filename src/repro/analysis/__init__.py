"""Evaluation machinery: accuracy metrics, theory curves and the experiment harness.

* :mod:`repro.analysis.metrics` — precision/recall/F1 of reported heavy-hitter sets and
  error statistics of frequency / score estimates.
* :mod:`repro.analysis.theory` — helpers for comparing measured space against the
  Table 1 formulas (scaling-shape checks, crossover points against Misra–Gries).
* :mod:`repro.analysis.harness` — the experiment runner used by the paper-table
  scripts under ``benchmarks/`` and by ``examples/``.
"""

from repro.analysis.metrics import (
    HeavyHitterAccuracy,
    evaluate_heavy_hitters,
    frequency_error_statistics,
    score_error_statistics,
)
from repro.analysis.theory import (
    scaling_exponent,
    space_ratio_to_bound,
    heavy_hitters_crossover_universe_size,
)
from repro.analysis.harness import (
    ExperimentRow,
    run_heavy_hitter_comparison,
    run_space_scaling_experiment,
    format_table,
)
from repro.analysis.tail import (
    residual_mass,
    tail_error_bound,
    achieved_tail_error,
    counter_summary_residual_bound,
    guarantee_comparison,
)

__all__ = [
    "HeavyHitterAccuracy",
    "evaluate_heavy_hitters",
    "frequency_error_statistics",
    "score_error_statistics",
    "scaling_exponent",
    "space_ratio_to_bound",
    "heavy_hitters_crossover_universe_size",
    "ExperimentRow",
    "run_heavy_hitter_comparison",
    "run_space_scaling_experiment",
    "format_table",
    "residual_mass",
    "tail_error_bound",
    "achieved_tail_error",
    "counter_summary_residual_bound",
    "guarantee_comparison",
]
