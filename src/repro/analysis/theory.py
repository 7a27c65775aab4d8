"""Comparing measured space against the Table 1 formulas.

The reproduction cannot match the paper's constant factors (there are none to match —
the paper states asymptotic bounds), so the meaningful checks are about *shape*:

* when one parameter is swept with the others fixed, the measured space should grow with
  the same exponent as the bound (``scaling_exponent`` estimates it by log-log
  regression);
* the ratio of measured space to the bound formula should stay within a bounded band
  across the sweep (``space_ratio_to_bound``);
* the paper's algorithm should beat Misra–Gries once ``log n`` is large compared to
  ``log ϕ⁻¹`` — ``heavy_hitters_crossover_universe_size`` computes where the two
  formulas cross, and the benchmark checks the measured crossover is in the same
  regime.
"""

from __future__ import annotations

import math
from typing import Dict, Sequence

from repro.lowerbounds.bounds import (
    heavy_hitters_upper_bound_bits,
    misra_gries_bound_bits,
)


def scaling_exponent(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Least-squares slope of log(y) against log(x).

    An exponent near 1 means linear scaling, near 0 means (poly)logarithmic or constant
    scaling — precise enough to distinguish the ``1/ε`` from the ``1/ε²`` terms of
    Table 1 in the space-scaling experiments.
    """
    if len(xs) != len(ys) or len(xs) < 2:
        raise ValueError("need at least two (x, y) points with matching lengths")
    log_x = [math.log(x) for x in xs]
    log_y = [math.log(max(y, 1e-12)) for y in ys]
    n = len(log_x)
    mean_x = sum(log_x) / n
    mean_y = sum(log_y) / n
    covariance = sum((lx - mean_x) * (ly - mean_y) for lx, ly in zip(log_x, log_y))
    variance = sum((lx - mean_x) ** 2 for lx in log_x)
    if variance == 0.0:
        raise ValueError("all x values are identical")
    return covariance / variance


def space_ratio_to_bound(
    measured_bits: Sequence[float],
    bound_bits: Sequence[float],
) -> Dict[str, float]:
    """Min / max / spread of the measured-to-bound ratio across a sweep.

    A bounded spread (max/min not exploding across the sweep) is what "the measured
    space tracks the bound's shape" means quantitatively.
    """
    if len(measured_bits) != len(bound_bits) or not measured_bits:
        raise ValueError("need matching, non-empty sequences")
    ratios = [m / max(b, 1e-12) for m, b in zip(measured_bits, bound_bits)]
    return {
        "min_ratio": min(ratios),
        "max_ratio": max(ratios),
        "spread": max(ratios) / max(min(ratios), 1e-12),
    }


def heavy_hitters_crossover_universe_size(
    epsilon: float,
    phi: float,
    m: int,
    max_log_n: int = 60,
) -> int:
    """The smallest universe size at which the paper's bound beats Misra–Gries.

    Both formulas are evaluated literally (no constants); the crossover illustrates the
    paper's point that the gap between ``ε⁻¹ log ϕ⁻¹ + ϕ⁻¹ log n`` and
    ``ε⁻¹ (log n + log m)`` grows with ``log n``.
    """
    for log_n in range(1, max_log_n + 1):
        n = 2 ** log_n
        ours = heavy_hitters_upper_bound_bits(epsilon, phi, n, m)
        theirs = misra_gries_bound_bits(epsilon, n, m)
        if ours < theirs:
            return n
    return 2 ** max_log_n


def improvement_factor(epsilon: float, phi: float, n: int, m: int) -> float:
    """How many times smaller the paper's bound is than Misra–Gries for given parameters."""
    ours = heavy_hitters_upper_bound_bits(epsilon, phi, n, m)
    theirs = misra_gries_bound_bits(epsilon, n, m)
    return theirs / max(ours, 1e-12)
