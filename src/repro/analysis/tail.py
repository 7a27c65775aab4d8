"""Residual ("tail") error guarantees, in the style of Berinde et al. [BICS10].

The paper's introduction contrasts its results with the stronger *tail* guarantee of
Berinde, Indyk, Cormode and Strauss: using ``O(k ε⁻¹ log(mn))`` bits one can estimate
every frequency within ``(ε/k) · F₁^res(k)``, where ``F₁^res(k)`` is the total frequency
mass excluding the ``k`` largest items.  On skewed streams ``F₁^res(k) ≪ m``, so the tail
guarantee is much stronger than the ``± εm`` guarantee of Definition 1; the paper opts
for the classical formulation and the optimal space for it.

This module provides the tail quantities so experiments can report both guarantees side
by side: the residual mass, the tail error achieved by a set of estimates, and the
Zipf-skew regime where the two guarantees genuinely differ.  It also classifies
counter-based summaries (Misra–Gries, Space-Saving) against their known residual-error
bound ``F₁^res(k)/(capacity − k + 1)``.
"""

from __future__ import annotations

from typing import Dict, Mapping, Tuple


def residual_mass(true_frequencies: Mapping[int, int], k: int) -> int:
    """``F₁^res(k)``: the total frequency excluding the ``k`` most frequent items."""
    if k < 0:
        raise ValueError("k must be non-negative")
    ordered = sorted(true_frequencies.values(), reverse=True)
    return sum(ordered[k:])


def top_k_mass(true_frequencies: Mapping[int, int], k: int) -> int:
    """The total frequency of the ``k`` most frequent items."""
    if k < 0:
        raise ValueError("k must be non-negative")
    ordered = sorted(true_frequencies.values(), reverse=True)
    return sum(ordered[:k])


def tail_error_bound(true_frequencies: Mapping[int, int], k: int, epsilon: float) -> float:
    """The Berinde-et-al. target: ``(ε/k) · F₁^res(k)``."""
    if k <= 0:
        raise ValueError("k must be positive")
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    return (epsilon / k) * residual_mass(true_frequencies, k)


def achieved_tail_error(
    estimates: Mapping[int, float],
    true_frequencies: Mapping[int, int],
) -> float:
    """The largest absolute estimation error over the estimated items."""
    if not estimates:
        return 0.0
    return max(
        abs(estimate - true_frequencies.get(item, 0)) for item, estimate in estimates.items()
    )


def counter_summary_residual_bound(
    true_frequencies: Mapping[int, int],
    capacity: int,
    k: int,
) -> float:
    """The classical residual bound for counter summaries with ``capacity`` counters.

    Misra–Gries / Space-Saving with ``capacity`` counters guarantee an estimation error
    of at most ``F₁^res(k) / (capacity − k)`` for any ``k < capacity`` — the tail-aware
    refinement of the usual ``m / capacity`` bound ([BICS10], Berinde et al.).
    """
    if not 0 <= k < capacity:
        raise ValueError("need 0 <= k < capacity")
    return residual_mass(true_frequencies, k) / (capacity - k)


def guarantee_comparison(
    true_frequencies: Mapping[int, int],
    stream_length: int,
    epsilon: float,
    k: int,
) -> Dict[str, float]:
    """Put the Definition 1 guarantee and the tail guarantee on the same scale.

    Returns the two error budgets (``eps * m`` and ``(eps/k) * F_res(k)``) and their
    ratio; a ratio well below 1 means the workload is skewed enough for the tail
    guarantee to be meaningfully stronger (the regime [BICS10] targets), while a ratio
    near 1 means the classical guarantee — the one this paper optimizes — is just as
    good.
    """
    classical = epsilon * stream_length
    tail = tail_error_bound(true_frequencies, k, epsilon)
    return {
        "classical_budget": classical,
        "tail_budget": tail,
        "tail_over_classical": tail / classical if classical > 0 else 0.0,
        "residual_fraction": residual_mass(true_frequencies, k) / max(1, stream_length),
    }


def head_tail_split(
    true_frequencies: Mapping[int, int], k: int
) -> Tuple[Dict[int, int], Dict[int, int]]:
    """Split the frequency table into the top-``k`` head and the residual tail."""
    ordered = sorted(true_frequencies.items(), key=lambda pair: (-pair[1], pair[0]))
    head = dict(ordered[:k])
    tail = dict(ordered[k:])
    return head, tail
