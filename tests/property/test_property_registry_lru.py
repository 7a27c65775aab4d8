"""Property tests: the registry's running live count and LRU order match a recount.

:class:`~repro.service.StreamRegistry` keeps the streams with a resident sink in
an LRU-ordered map instead of scanning every stream per push.  After every step
of a random create/push/query/seal/delete sequence (pushes and queries past the
cap evict), the map must equal both a brute-force recount over all streams and
an independent model of the documented LRU rule: every create, push, query of
an unsealed stream and seal marks the stream most recently used, and while more
than ``max_live_streams`` streams are resident the least recently used one
other than the stream in hand is evicted.  A restart on the same WAL directory
must recover a consistent count too.
"""

import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.misra_gries import MisraGries
from repro.pipeline import PipelinedExecutor
from repro.service import StreamRegistry

UNIVERSE = 32
CHUNK = 4
NAMES = ("a", "b", "c", "d", "e")

steps = st.lists(
    st.tuples(
        st.sampled_from(("create", "push", "query", "seal", "delete")),
        st.sampled_from(NAMES),
        st.integers(0, 3 * CHUNK),
    ),
    max_size=40,
)


def _registry(wal_dir: str, max_live) -> StreamRegistry:
    return StreamRegistry(
        lambda name: PipelinedExecutor(sketch=MisraGries(0.2, UNIVERSE), chunk_size=CHUNK),
        chunk_size=CHUNK,
        max_live_streams=max_live,
        wal_dir=wal_dir,
        wal_fsync="off",
    )


class _Model:
    """The LRU rule written out over plain lists and sets."""

    def __init__(self, max_live) -> None:
        self.max_live = max_live
        self.existing = set()
        self.sealed = set()
        self.live = []  # least recently used first

    def touch(self, name: str) -> None:
        if name in self.live:
            self.live.remove(name)
        self.live.append(name)
        while self.max_live is not None and len(self.live) > self.max_live:
            self.live.remove(next(other for other in self.live if other != name))

    def apply(self, registry: StreamRegistry, command: str, name: str, size: int) -> None:
        """Run one step on the registry and the model; both must agree on errors."""
        if command == "create":
            if name in self.existing:
                _expect_error(ValueError, registry.create, name)
                return
            registry.create(name)
            self.existing.add(name)
            self.touch(name)
        elif command == "push":
            items = np.arange(size, dtype=np.int64) % UNIVERSE
            if name in self.sealed:
                _expect_error(RuntimeError, registry.push, name, items)
                return
            registry.push(name, items)
            self.existing.add(name)
            self.touch(name)
        elif name not in self.existing:
            method = {"query": registry.query, "seal": registry.seal,
                      "delete": registry.delete}[command]
            _expect_error(KeyError, method, name)
        elif command == "query":
            registry.query(name)
            if name not in self.sealed:
                self.touch(name)
        elif command == "seal":
            registry.seal(name)
            if name not in self.sealed:
                self.touch(name)
                self.live.remove(name)
                self.sealed.add(name)
        else:
            registry.delete(name)
            self.existing.discard(name)
            self.sealed.discard(name)
            if name in self.live:
                self.live.remove(name)


def _expect_error(error, method, *args) -> None:
    try:
        method(*args)
    except error:
        return
    raise AssertionError(f"{method.__name__}{args} did not raise {error.__name__}")


def _brute_force_live(registry: StreamRegistry):
    return {
        name for name, state in registry._streams.items()
        if state.sink is not None and not state.sealed
    }


@settings(max_examples=40, deadline=None)
@given(steps=steps, max_live=st.one_of(st.none(), st.integers(1, 3)))
def test_live_count_and_lru_order_match_a_recount(steps, max_live):
    with tempfile.TemporaryDirectory() as wal_dir:
        registry = _registry(wal_dir, max_live)
        model = _Model(max_live)
        try:
            for command, name, size in steps:
                model.apply(registry, command, name, size)
                assert list(registry._live) == model.live
                assert set(model.live) == _brute_force_live(registry)
                assert registry.live_count == len(model.live)
                assert registry.stream_count == len(model.existing)
        finally:
            registry.close()
        recovered = _registry(wal_dir, max_live)
        try:
            live = _brute_force_live(recovered)
            assert set(recovered._live) == live
            assert recovered.live_count == len(live)
            assert max_live is None or len(live) <= max_live
            assert recovered.stream_count == len(model.existing)
        finally:
            recovered.close()
