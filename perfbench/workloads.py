"""Workload plans and their seeded inputs.

Every workload is a fixed amount of work counted in items and operations,
never a duration, so two runs with the same seed do identical work.  The
program under test receives only the generated inputs; the seed stays here.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

import numpy as np

UNIVERSE = 1 << 20
EPSILON = 0.01
PHI = 0.05
ITEM_SKEW = 1.2


@dataclass(frozen=True)
class Plan:
    """One workload: server flags plus the fixed operation counts it runs."""

    name: str
    algorithm: str
    wal: bool
    #: Default-stream workloads run ``rounds`` identical rounds.  Each pushes
    #: ``segment_items`` with a windowed ``push_stream`` and flushes (the
    #: timed ingest), runs one query and one checkpoint, then sends
    #: ``acks_per_round`` closed-loop single ``push`` round trips.
    rounds: int = 0
    segment_items: int = 0
    frame_items: int = 0
    window: int = 0
    acks_per_round: int = 0
    ack_frame_items: int = 64
    #: Named-stream tenancy: pre-created streams, a closed-loop pusher, and a
    #: second connection sending queries on an open-loop schedule.
    streams: int = 0
    max_live_streams: int = 0
    stream_skew: float = 0.0
    tenant_pushes: int = 0
    tenant_frame_items: int = 0
    push_block: int = 0
    queries: int = 0
    query_interval_s: float = 0.0
    #: Named streams (half hot, half cold) checkpointed ``checkpoints_per_sample``
    #: times each by the pusher, spread over its pushes, then sealed and checked.
    sample_streams: int = 0
    checkpoints_per_sample: int = 0
    #: Server boots per run; ``setup_s`` is their median.
    setup_spawns: int = 3
    #: The server's re-chunk size.
    chunk_items: int = 1 << 16

    @property
    def tenants(self) -> bool:
        return self.streams > 0

    @property
    def round_items(self) -> int:
        return self.segment_items + self.acks_per_round * self.ack_frame_items

    @property
    def total_items(self) -> int:
        if self.tenants:
            return self.tenant_pushes * self.tenant_frame_items
        return self.rounds * self.round_items


PLANS: Dict[str, Plan] = {
    plan.name: plan
    for plan in (
        Plan(
            name="thm2-ingest", algorithm="optimal", wal=False,
            rounds=16, segment_items=1 << 17, frame_items=16384, window=16,
            acks_per_round=32,
        ),
        Plan(
            name="mg-wal-frames", algorithm="misra-gries", wal=True,
            rounds=64, segment_items=1 << 17, frame_items=1024, window=16,
            acks_per_round=480,
        ),
        Plan(
            name="tenants-mixed", algorithm="misra-gries", wal=False,
            streams=4096, max_live_streams=256, stream_skew=1.3,
            tenant_pushes=6000, tenant_frame_items=1024, push_block=250,
            queries=300, query_interval_s=0.02, sample_streams=16, checkpoints_per_sample=16,
        ),
    )
}


def tiny(plan: Plan) -> Plan:
    """A seconds-long version of ``plan`` with the same shape (self-tests)."""
    if plan.tenants:
        return replace(
            plan, streams=64, max_live_streams=8, tenant_pushes=300,
            tenant_frame_items=256, push_block=50, queries=20, query_interval_s=0.005,
            sample_streams=4, checkpoints_per_sample=2, setup_spawns=2, chunk_items=1024,
        )
    frame = plan.frame_items // 4
    return replace(
        plan, rounds=4, segment_items=4 * frame, frame_items=frame, acks_per_round=8,
        setup_spawns=2, chunk_items=frame,
    )


def server_seed(seed: int) -> int:
    """The server's ``--seed``, derived from the workload seed."""
    return zlib.crc32(f"perfbench-server-{seed}".encode()) & 0x7FFFFFFF


def zipf_ranks(rng: np.random.Generator, support: int, skew: float, size: int) -> np.ndarray:
    """``size`` draws of a Zipf(``skew``) rank over ``[0, support)`` (rank 0 hottest)."""
    weights = np.arange(1, support + 1, dtype=np.float64) ** -skew
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    ranks = np.searchsorted(cdf, rng.random(size), side="right")
    return np.minimum(ranks, support - 1).astype(np.int64)


@dataclass
class Inputs:
    """Everything a run sends, generated from the workload seed."""

    items: np.ndarray
    #: Tenants only: the stream of each push and of each scheduled query,
    #: and the checkpointed, sealed and checked sample.
    push_streams: Optional[np.ndarray] = None
    query_streams: Optional[np.ndarray] = None
    sample: Optional[List[int]] = None


def stream_name(index: int) -> str:
    return f"t{index:05d}"


def make_inputs(plan: Plan, seed: int) -> Inputs:
    """The run's inputs; the same ``(plan, seed)`` always gives the same arrays."""
    rng = np.random.default_rng(seed)
    # Hot items get random ids, so heavy hitters differ between seeds.
    labels = rng.permutation(UNIVERSE).astype(np.int64)
    items = labels[zipf_ranks(rng, UNIVERSE, ITEM_SKEW, plan.total_items)]
    if not plan.tenants:
        return Inputs(items=items)
    push_streams = zipf_ranks(rng, plan.streams, plan.stream_skew, plan.tenant_pushes)
    pushes = np.bincount(push_streams, minlength=plan.streams)
    pushed = np.flatnonzero(pushes)
    half = plan.sample_streams // 2
    # Hot: the most-pushed streams.  Cold: pushed streams with the fewest
    # pushes, so each is evicted and restored between its uses.
    by_heat = pushed[np.argsort(-pushes[pushed], kind="stable")]
    sample = sorted(set(by_heat[:half].tolist()) | set(by_heat[-half:].tolist()))
    query_streams = zipf_ranks(rng, plan.streams, plan.stream_skew, plan.queries)
    return Inputs(
        items=items, push_streams=push_streams, query_streams=query_streams, sample=sample,
    )


def checkpoint_positions(plan: Plan) -> np.ndarray:
    """Tenants: the push index before which each sample checkpoint is taken."""
    count = plan.sample_streams * plan.checkpoints_per_sample
    return ((np.arange(count) + 0.5) * plan.tenant_pushes / count).astype(int)


def rounds(plan: Plan) -> List[Tuple[range, range]]:
    """Item ranges ``(segment, acks)`` of each round of a default-stream plan."""
    out = []
    for index in range(plan.rounds):
        start = index * plan.round_items
        middle = start + plan.segment_items
        out.append((range(start, middle), range(middle, start + plan.round_items)))
    return out
