"""Vote-stream generators.

The ranking-based benchmarks need elections with known structure:

* **Impartial culture** — every vote is an independent uniformly random permutation; the
  null model, no candidate is systematically favored.
* **Mallows model** — votes concentrate around a reference ranking; the dispersion
  parameter controls how strong the consensus is.  This is the standard model for
  "rank aggregation on the web" style data the paper cites.
* **Planted Borda winner** — a designated candidate is moved to the front of a fraction
  of the votes, so the true Borda/maximin winner (and its margin) is known by
  construction.
* **Clickstream orderings** — orderings derived from a preference weight per "page",
  mimicking the website-visit-order motivation in Section 1.2 (Plackett–Luce sampling).
"""

from __future__ import annotations

from typing import List, Optional

from repro.primitives.rng import RandomSource
from repro.voting.rankings import Ranking


def impartial_culture(
    num_votes: int,
    num_candidates: int,
    rng: Optional[RandomSource] = None,
) -> List[Ranking]:
    """``num_votes`` independent uniformly random rankings."""
    if num_votes < 0:
        raise ValueError("num_votes must be non-negative")
    if num_candidates <= 0:
        raise ValueError("num_candidates must be positive")
    rng = rng if rng is not None else RandomSource()
    return [Ranking(rng.permutation(num_candidates)) for _ in range(num_votes)]


def mallows_votes(
    num_votes: int,
    num_candidates: int,
    dispersion: float = 0.7,
    reference: Optional[Ranking] = None,
    rng: Optional[RandomSource] = None,
) -> List[Ranking]:
    """Votes from the Mallows model around a reference ranking.

    Uses the repeated-insertion construction: the candidate at reference position ``i``
    is inserted into one of the ``i + 1`` available slots with probability proportional
    to ``dispersion^(i - slot)``.  ``dispersion = 1`` recovers impartial culture;
    ``dispersion -> 0`` concentrates on the reference ranking.
    """
    if not 0.0 < dispersion <= 1.0:
        raise ValueError("dispersion must be in (0, 1]")
    rng = rng if rng is not None else RandomSource()
    if reference is None:
        reference = Ranking.identity(num_candidates)
    if reference.num_candidates != num_candidates:
        raise ValueError("reference ranking has the wrong number of candidates")
    votes: List[Ranking] = []
    for _ in range(num_votes):
        order: List[int] = []
        for index, candidate in enumerate(reference.order):
            weights = [dispersion ** (index - slot) for slot in range(index + 1)]
            total = sum(weights)
            target = rng.random() * total
            running = 0.0
            chosen_slot = index
            for slot, weight in enumerate(weights):
                running += weight
                if target <= running:
                    chosen_slot = slot
                    break
            order.insert(chosen_slot, candidate)
        votes.append(Ranking(order))
    return votes


def planted_borda_winner(
    num_votes: int,
    num_candidates: int,
    winner: int,
    boost_fraction: float = 0.5,
    rng: Optional[RandomSource] = None,
) -> List[Ranking]:
    """Impartial-culture votes where the planted winner is promoted to first place in a
    ``boost_fraction`` fraction of the votes.

    The promoted candidate's expected Borda score exceeds every other candidate's by
    roughly ``boost_fraction * num_votes * (num_candidates - 1) / 2``, so for reasonable
    parameters the planted candidate is the true Borda winner with overwhelming
    probability — which the generator's tests verify.
    """
    if not 0 <= winner < num_candidates:
        raise ValueError("winner must be a valid candidate")
    if not 0.0 <= boost_fraction <= 1.0:
        raise ValueError("boost_fraction must be in [0, 1]")
    rng = rng if rng is not None else RandomSource()
    votes: List[Ranking] = []
    for index in range(num_votes):
        order = rng.permutation(num_candidates)
        if rng.bernoulli(boost_fraction):
            order.remove(winner)
            order.insert(0, winner)
        votes.append(Ranking(order))
    return votes


def clickstream_orderings(
    num_sessions: int,
    num_pages: int,
    popularity_skew: float = 1.0,
    rng: Optional[RandomSource] = None,
) -> List[Ranking]:
    """Plackett–Luce orderings with Zipfian page popularities.

    Each "session" orders all pages by repeatedly choosing the next page proportionally
    to its popularity weight (``1 / (page + 1)^popularity_skew``), mimicking the order in
    which a user visits the parts of a website (paper Section 1.2).
    """
    if num_sessions < 0:
        raise ValueError("num_sessions must be non-negative")
    if num_pages <= 0:
        raise ValueError("num_pages must be positive")
    rng = rng if rng is not None else RandomSource()
    base_weights = [1.0 / ((page + 1) ** popularity_skew) for page in range(num_pages)]
    sessions: List[Ranking] = []
    for _ in range(num_sessions):
        remaining = list(range(num_pages))
        weights = [base_weights[page] for page in remaining]
        order: List[int] = []
        while remaining:
            total = sum(weights)
            target = rng.random() * total
            running = 0.0
            chosen_index = len(remaining) - 1
            for index, weight in enumerate(weights):
                running += weight
                if target <= running:
                    chosen_index = index
                    break
            order.append(remaining.pop(chosen_index))
            weights.pop(chosen_index)
        sessions.append(Ranking(order))
    return sessions
