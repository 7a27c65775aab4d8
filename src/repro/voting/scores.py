"""Exact scoring rules over a collection of votes (rankings).

These are the ground-truth oracles for the ranking-based problems:

* **Borda score** of candidate ``i``: the sum over votes of the number of candidates
  ranked behind ``i`` (paper Definition 6/7 preamble).
* **Maximin score** of candidate ``i``: the minimum over opponents ``j`` of the number
  of votes that rank ``i`` ahead of ``j`` (paper Definition 8/9 preamble).
* **Plurality score**: number of votes whose top choice is ``i`` (the ε-Maximum problem
  on the induced item stream of top choices).
* **Veto score**: number of votes whose bottom choice is ``i`` (the ε-Minimum problem's
  "number of dislikes").
"""

from __future__ import annotations

from typing import Dict, Iterable, List

from repro.voting.rankings import Ranking


def _materialize(votes: Iterable[Ranking]) -> List[Ranking]:
    votes_list = list(votes)
    if not votes_list:
        raise ValueError("scores require at least one vote")
    num_candidates = votes_list[0].num_candidates
    for vote in votes_list:
        if vote.num_candidates != num_candidates:
            raise ValueError("all votes must rank the same number of candidates")
    return votes_list


def borda_scores(votes: Iterable[Ranking]) -> Dict[int, int]:
    """Exact Borda score of every candidate."""
    votes_list = _materialize(votes)
    num_candidates = votes_list[0].num_candidates
    scores = {candidate: 0 for candidate in range(num_candidates)}
    for vote in votes_list:
        for candidate in range(num_candidates):
            scores[candidate] += vote.candidates_beaten_by(candidate)
    return scores


def pairwise_defeats(votes: Iterable[Ranking]) -> List[List[int]]:
    """Matrix ``D`` with ``D[i][j]`` = number of votes ranking ``i`` ahead of ``j``."""
    votes_list = _materialize(votes)
    num_candidates = votes_list[0].num_candidates
    matrix = [[0] * num_candidates for _ in range(num_candidates)]
    for vote in votes_list:
        order = vote.order
        for position, winner in enumerate(order):
            for loser in order[position + 1 :]:
                matrix[winner][loser] += 1
    return matrix


def maximin_scores(votes: Iterable[Ranking]) -> Dict[int, int]:
    """Exact maximin score of every candidate."""
    votes_list = _materialize(votes)
    num_candidates = votes_list[0].num_candidates
    if num_candidates == 1:
        return {0: len(votes_list)}
    matrix = pairwise_defeats(votes_list)
    return {
        candidate: min(
            matrix[candidate][opponent]
            for opponent in range(num_candidates)
            if opponent != candidate
        )
        for candidate in range(num_candidates)
    }


def plurality_scores(votes: Iterable[Ranking]) -> Dict[int, int]:
    """Number of votes whose most preferred candidate is each candidate."""
    votes_list = _materialize(votes)
    num_candidates = votes_list[0].num_candidates
    scores = {candidate: 0 for candidate in range(num_candidates)}
    for vote in votes_list:
        scores[vote.top()] += 1
    return scores


def veto_scores(votes: Iterable[Ranking]) -> Dict[int, int]:
    """Number of votes whose least preferred candidate is each candidate."""
    votes_list = _materialize(votes)
    num_candidates = votes_list[0].num_candidates
    scores = {candidate: 0 for candidate in range(num_candidates)}
    for vote in votes_list:
        scores[vote.bottom()] += 1
    return scores


def borda_winner(votes: Iterable[Ranking]) -> int:
    """The candidate with the highest Borda score (ties to the smallest id)."""
    scores = borda_scores(votes)
    return min(scores, key=lambda candidate: (-scores[candidate], candidate))


def maximin_winner(votes: Iterable[Ranking]) -> int:
    """The candidate with the highest maximin score (ties to the smallest id)."""
    scores = maximin_scores(votes)
    return min(scores, key=lambda candidate: (-scores[candidate], candidate))
