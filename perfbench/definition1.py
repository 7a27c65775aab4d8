"""The (ε, ϕ) guarantee of Definition 1, checked against exact counts.

A served report passes when, for a stream (or prefix) of length ``m``:

* every item with true frequency above ``ϕ·m`` is reported (recall);
* no reported item has true frequency at or below ``(ϕ−ε)·m`` (precision);
* every reported estimate is within ``ε·m`` of the true frequency.

The checker is written against the wire shape of a report (item ids as
strings), not against the library's report class, so it judges the served
answer exactly as a client receives it.
"""

from __future__ import annotations

from typing import List, Mapping

import numpy as np


def exact_counts(items: np.ndarray, universe: int) -> np.ndarray:
    """Frequency of every item id in ``[0, universe)``."""
    return np.bincount(items, minlength=universe)


def violations(
    report: Mapping[str, object], counts: np.ndarray, expected_length: int
) -> List[str]:
    """Every way ``report`` breaks Definition 1 on ``counts``; empty when it holds."""
    problems: List[str] = []
    length = int(report["stream_length"])  # type: ignore[arg-type]
    epsilon = float(report["epsilon"])  # type: ignore[arg-type]
    phi = float(report["phi"])  # type: ignore[arg-type]
    if length != expected_length:
        problems.append(f"report covers {length} items, expected {expected_length}")
    if int(counts.sum()) != expected_length:
        problems.append(f"exact counts cover {int(counts.sum())} items, expected {expected_length}")
    estimates = {int(item): float(value) for item, value in report["items"].items()}  # type: ignore[union-attr]
    for item in np.flatnonzero(counts > phi * expected_length).tolist():
        if item not in estimates:
            problems.append(f"heavy item {item} (f={int(counts[item])}) not reported")
    for item, estimate in estimates.items():
        frequency = int(counts[item]) if 0 <= item < counts.size else 0
        if frequency <= (phi - epsilon) * expected_length:
            problems.append(f"light item {item} (f={frequency}) reported")
        if abs(estimate - frequency) > epsilon * expected_length:
            problems.append(
                f"item {item} estimate {estimate} off true {frequency} by more than εm"
            )
    return problems
