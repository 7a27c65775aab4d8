"""Tests for multi-stream tenancy: StreamRegistry, stream commands, eviction races.

Three layers: the :class:`~repro.service.StreamRegistry` in isolation (lifecycle,
LRU checkpoint-eviction, bit-for-bit restore), the wire protocol's ``stream``
key and lifecycle commands through a real server, and barrier-synchronized
stress tests on the eviction path — concurrent push/query/evict/restore must
never lose an acked chunk and never serve a stale snapshot.
"""

import errno
import json
import os
import pickle
import threading
from collections import Counter

import numpy as np
import pytest

from repro.baselines.exact import ExactCounter
from repro.baselines.misra_gries import MisraGries
from repro.core.heavy_hitters_simple import SimpleListHeavyHitters
from repro.observability import MetricRegistry
from repro.pipeline import PipelinedExecutor
from repro.primitives.rng import RandomSource
from repro.service import (
    CheckpointError,
    Checkpointer,
    IngestServer,
    ServiceClient,
    ServiceError,
    StreamRegistry,
    derive_stream_seed,
)

UNIVERSE = 500
LENGTH = 8_000
CHUNK = 256


def make_sketch(seed=1):
    return SimpleListHeavyHitters(
        epsilon=0.02, phi=0.1, universe_size=UNIVERSE, stream_length=LENGTH,
        rng=RandomSource(seed),
    )


def make_stream(seed=3, length=LENGTH):
    rng = RandomSource(seed).numpy_generator()
    heavy = np.full(length // 2, 7, dtype=np.int64)
    rest = rng.integers(0, UNIVERSE, size=length - len(heavy))
    items = np.concatenate([heavy, rest])
    rng.shuffle(items)
    return items.astype(np.int64)


@pytest.fixture
def registry(tmp_path):
    instance = StreamRegistry(
        lambda name: PipelinedExecutor(sketch=ExactCounter(UNIVERSE), chunk_size=CHUNK),
        chunk_size=CHUNK,
        max_live_streams=2,
        spill_dir=str(tmp_path / "spill"),
    )
    yield instance
    instance.close()


class TestStreamRegistryLifecycle:
    def test_create_list_delete(self, registry):
        info = registry.create("alpha")
        assert info["stream"] == "alpha" and info["live"] is True
        registry.create("beta")
        names = [entry["stream"] for entry in registry.list_streams()]
        assert names == ["alpha", "beta"]  # sorted
        deleted = registry.delete("alpha")
        assert deleted["deleted"] is True
        assert [entry["stream"] for entry in registry.list_streams()] == ["beta"]

    def test_duplicate_create_rejected(self, registry):
        registry.create("alpha")
        with pytest.raises(ValueError, match="already exists"):
            registry.create("alpha")

    @pytest.mark.parametrize("bad", ["", None, 7, "default"])
    def test_bad_names_rejected(self, registry, bad):
        with pytest.raises(ValueError):
            registry.create(bad)

    def test_push_creates_implicitly(self, registry):
        received = registry.push("implicit", np.arange(10, dtype=np.int64))
        assert received == 10
        assert registry.stream_info("implicit")["items_received"] == 10

    def test_seal_is_idempotent_but_rejects_new_kwargs(self, registry):
        registry.push("alpha", np.arange(100, dtype=np.int64))
        first = registry.seal("alpha", report_kwargs={"phi": 0.1})
        again = registry.seal("alpha", report_kwargs={"phi": 0.1})
        assert again is first
        with pytest.raises(ValueError, match="already sealed"):
            registry.seal("alpha", report_kwargs={"phi": 0.2})
        with pytest.raises(RuntimeError, match="sealed"):
            registry.push("alpha", np.arange(3, dtype=np.int64))
        with pytest.raises(ValueError, match="sealed"):
            registry.query("alpha", report_kwargs={"phi": 0.2})

    def test_unknown_stream_raises(self, registry):
        with pytest.raises(KeyError):
            registry.stream_info("ghost")
        with pytest.raises(KeyError):
            registry.seal("ghost")

    def test_seal_ingests_the_remainder(self, registry):
        registry.push("alpha", np.arange(CHUNK + 37, dtype=np.int64) % UNIVERSE)
        assert registry.flush_info("alpha")["flushed_to"] == CHUNK
        result = registry.seal("alpha")
        assert result.items_processed == CHUNK + 37

    def test_sealed_stream_survives_checkpoint_refusal(self, registry):
        registry.push("alpha", np.arange(16, dtype=np.int64))
        registry.seal("alpha")
        with pytest.raises(RuntimeError, match="no resumable state"):
            registry.checkpoint_state("alpha")


class TestEvictionRestore:
    def test_lru_eviction_keeps_cap_and_restores_lazily(self, registry):
        for index in range(4):
            registry.push(f"s{index}", np.full(CHUNK, index, dtype=np.int64))
        assert registry.live_count <= 2
        infos = {entry["stream"]: entry for entry in registry.list_streams()}
        assert infos["s0"]["spilled"] and infos["s1"]["spilled"]
        # Touching a spilled stream restores it (and evicts another).
        final, snapshot = registry.query("s0")
        assert final is False
        assert snapshot.sketch.frequencies() == {0: CHUNK}
        assert registry.stream_info("s0")["restores"] == 1
        assert registry.live_count <= 2

    def test_eviction_boundaries_are_chunk_aligned(self, registry):
        registry.push("subject", np.arange(CHUNK * 2 + 10, dtype=np.int64) % UNIVERSE)
        registry.push("a", np.zeros(1, dtype=np.int64))
        registry.push("b", np.zeros(1, dtype=np.int64))  # evicts "subject"
        info = registry.stream_info("subject")
        assert info["spilled"] is True
        assert info["eviction_boundaries"] == [CHUNK * 2]

    def test_acked_remainder_survives_eviction(self, registry):
        # 100 items — less than one chunk, so eviction spills an *empty* sink
        # while the remainder rides along in memory.
        registry.push("subject", np.full(100, 9, dtype=np.int64))
        registry.push("a", np.zeros(1, dtype=np.int64))
        registry.push("b", np.zeros(1, dtype=np.int64))
        assert registry.stream_info("subject")["spilled"] is True
        registry.push("subject", np.full(CHUNK, 9, dtype=np.int64))
        result = registry.seal("subject")
        assert result.sketch.frequencies() == {9: 100 + CHUNK}

    def test_deterministic_sketch_evict_restore_equals_uninterrupted_run(self, tmp_path):
        items = make_stream(5)
        registry = StreamRegistry(
            lambda name: PipelinedExecutor(
                sketch=MisraGries(0.02, UNIVERSE), chunk_size=CHUNK
            ),
            chunk_size=CHUNK,
            max_live_streams=1,
            spill_dir=str(tmp_path / "spill"),
        )
        try:
            for start in range(0, len(items), 512):
                registry.push("subject", items[start:start + 512])
                registry.push("decoy", np.zeros(1, dtype=np.int64))  # evicts subject
            served = registry.seal("subject", report_kwargs={"phi": 0.1})
            assert registry.stream_info("subject")["evictions"] > 0
        finally:
            registry.close()
        solo = PipelinedExecutor(
            sketch=MisraGries(0.02, UNIVERSE), chunk_size=CHUNK
        ).run(iter(items.tolist()), report_kwargs={"phi": 0.1})
        assert dict(served.report.items) == dict(solo.report.items)

    def test_randomized_sketch_evict_restore_equals_round_trip_replay(self, tmp_path):
        """The registry docstring's contract, verified for a seeded sketch.

        Evict→restore re-seeds the RNG (the serialize contract), so the
        reference is an offline replay that round-trips its state through the
        same Checkpointer at the recorded eviction boundaries — after which
        the equality is bit-for-bit, not statistical.
        """
        items = make_stream(11)
        seed = derive_stream_seed(42, "subject")

        def build(name):
            stream_seed = derive_stream_seed(42, name)
            return PipelinedExecutor(
                sketch=SimpleListHeavyHitters(
                    epsilon=0.02, phi=0.1, universe_size=UNIVERSE,
                    stream_length=LENGTH, rng=RandomSource(stream_seed),
                ),
                chunk_size=CHUNK,
            )

        registry = StreamRegistry(
            build, chunk_size=CHUNK, max_live_streams=1,
            spill_dir=str(tmp_path / "spill"),
        )
        try:
            for start in range(0, len(items), 1024):
                registry.push("subject", items[start:start + 1024])
                registry.push("decoy", np.zeros(1, dtype=np.int64))
            boundaries = registry.stream_info("subject")["eviction_boundaries"]
            assert boundaries  # evictions really happened
            served = registry.seal("subject", report_kwargs={})
        finally:
            registry.close()

        replay = PipelinedExecutor(
            sketch=SimpleListHeavyHitters(
                epsilon=0.02, phi=0.1, universe_size=UNIVERSE,
                stream_length=LENGTH, rng=RandomSource(seed),
            ),
            chunk_size=CHUNK,
        )
        pending = list(boundaries)
        ckpt = os.path.join(tmp_path, "replay.ckpt")
        for start in range(0, len(items), CHUNK):
            while pending and replay.items_processed == pending[0]:
                pending.pop(0)
                Checkpointer().save(ckpt, replay.sink_state())
                replay, _ = Checkpointer().restore_pipeline(ckpt, chunk_size=CHUNK)
            replay.ingest_chunk(items[start:start + CHUNK])
        while pending and replay.items_processed == pending[0]:
            pending.pop(0)
            Checkpointer().save(ckpt, replay.sink_state())
            replay, _ = Checkpointer().restore_pipeline(ckpt, chunk_size=CHUNK)
        solo = replay.finalize(report_kwargs={})
        assert dict(served.report.items) == dict(solo.report.items)

    def test_checkpoint_state_does_not_restore_a_spilled_stream(self, registry):
        registry.push("subject", np.full(CHUNK, 3, dtype=np.int64))
        registry.push("a", np.zeros(1, dtype=np.int64))
        registry.push("b", np.zeros(1, dtype=np.int64))
        assert registry.stream_info("subject")["spilled"] is True
        state = registry.checkpoint_state("subject")
        assert state.items_processed == CHUNK
        assert registry.stream_info("subject")["spilled"] is True  # still idle

    def test_per_stream_metrics_families(self, tmp_path):
        metrics = MetricRegistry()
        registry = StreamRegistry(
            lambda name: PipelinedExecutor(
                sketch=ExactCounter(UNIVERSE), chunk_size=CHUNK
            ),
            chunk_size=CHUNK,
            max_live_streams=1,
            spill_dir=str(tmp_path / "spill"),
            registry=metrics,
        )
        try:
            registry.push("a", np.zeros(CHUNK, dtype=np.int64))
            registry.push("b", np.zeros(CHUNK, dtype=np.int64))  # evicts a
            registry.push("a", np.zeros(10, dtype=np.int64))     # restores a
            families = metrics.snapshot()["metrics"]

            def series(name):
                return {
                    tuple(sorted(entry["labels"].items())): entry["value"]
                    for entry in families[name]["series"]
                }

            assert series("repro_service_stream_pushes_total")[
                (("stream", "a"),)
            ] == 2
            assert series("repro_service_stream_items_total")[
                (("stream", "a"),)
            ] == CHUNK + 10
            assert series("repro_service_stream_evictions_total")[
                (("stream", "a"),)
            ] == 1
            assert series("repro_service_stream_restores_total")[
                (("stream", "a"),)
            ] == 1
            live = families["repro_service_live_streams"]["series"][0]["value"]
            assert live <= 1
        finally:
            registry.close()

    def test_derive_stream_seed_is_stable_and_name_dependent(self):
        assert derive_stream_seed(7, "a") == derive_stream_seed(7, "a")
        assert derive_stream_seed(7, "a") != derive_stream_seed(7, "b")
        assert derive_stream_seed(7, "a") != derive_stream_seed(8, "a")
        assert 0 <= derive_stream_seed(None, "a") < (1 << 62)


def open_journaled_registry(tmp_path):
    return StreamRegistry(
        lambda name: PipelinedExecutor(
            sketch=make_sketch(derive_stream_seed(9, name)), chunk_size=CHUNK
        ),
        chunk_size=CHUNK,
        max_live_streams=1,
        spill_dir=str(tmp_path / "spill"),
        wal_dir=str(tmp_path / "wal"),
        wal_fsync="off",
    )


class TestSealedJournaledStreamRestart:
    def test_sealed_stream_stays_sealed_after_restart(self, tmp_path):
        def open_registry():
            return open_journaled_registry(tmp_path)

        items = make_stream(5, length=2 * CHUNK + 10)
        kwargs = {}
        registry = open_registry()
        registry.push("a", items[:10])
        registry.push("b", items[:CHUNK])  # evicts a: its spill joins the journal
        registry.push("a", items[10:])
        sealed = registry.seal("a", report_kwargs=kwargs)
        registry.close()
        (stream_dir,) = [
            path for path in (tmp_path / "wal").iterdir()
            if (path / "sealed.result").exists()
        ]
        assert sorted(entry.name for entry in stream_dir.iterdir()) == [
            "meta.json", "sealed.result",
        ]

        reborn = open_registry()
        try:
            info = reborn.stream_info("a")
            assert info["sealed"] is True and info["live"] is False
            assert info["items_received"] == info["items_processed"] == items.size
            with pytest.raises(RuntimeError, match="sealed"):
                reborn.push("a", items[:3])
            final, result = reborn.query("a", report_kwargs=kwargs)
            assert final is True
            assert result.report == sealed.report
            assert result.items_processed == sealed.items_processed == items.size
            assert reborn.seal("a", report_kwargs=kwargs) is result
            with pytest.raises(ValueError, match="already sealed"):
                reborn.seal("a", report_kwargs={"phi": 0.2})
            assert reborn.stream_info("b")["sealed"] is False
            reborn.delete("a")
        finally:
            reborn.close()
        third = open_registry()
        try:
            assert [entry["stream"] for entry in third.list_streams()] == ["b"]
        finally:
            third.close()

    @staticmethod
    def _fail_seal_records(monkeypatch):
        """Make every seal-record write raise ENOSPC; spills still save."""
        real = Checkpointer.write_atomically

        def write_atomically(path, payload):
            if os.path.basename(path) == "sealed.result":
                raise OSError(errno.ENOSPC, "No space left on device", path)
            return real(path, payload)

        monkeypatch.setattr(Checkpointer, "write_atomically", staticmethod(write_atomically))

    def _seal_that_fails(self, tmp_path, monkeypatch):
        """Push to a, evict it (compacting its journal), push more, fail its seal."""
        items = make_stream(6, length=2 * CHUNK + 10)
        registry = open_journaled_registry(tmp_path)
        registry.push("a", items[:CHUNK + 5])
        registry.push("b", items[:CHUNK])  # evicts a: the spill covers its journal
        registry.push("a", items[CHUNK + 5:])
        self._fail_seal_records(monkeypatch)
        with pytest.raises(OSError, match="No space"):
            registry.seal("a")
        (stream_dir,) = [
            path for path in (tmp_path / "wal").iterdir()
            if json.loads((path / "meta.json").read_text())["stream"] == "a"
        ]
        assert (stream_dir / "spill.ckpt").exists()
        assert not (stream_dir / "sealed.result").exists()
        with pytest.raises(RuntimeError, match="sealed"):
            registry.push("a", items[:3])
        return registry, items, registry.query("a")[1]

    def test_failed_seal_record_leaves_stream_recoverable_unsealed(
        self, tmp_path, monkeypatch
    ):
        registry, items, unacked = self._seal_that_fails(tmp_path, monkeypatch)
        registry.close()
        monkeypatch.undo()
        reborn = open_journaled_registry(tmp_path)
        try:
            info = reborn.stream_info("a")
            assert info["sealed"] is False
            assert info["items_received"] == items.size
            assert reborn.seal("a").report == unacked.report
        finally:
            reborn.close()

    def test_failed_seal_record_is_written_by_the_retried_seal(
        self, tmp_path, monkeypatch
    ):
        registry, items, unacked = self._seal_that_fails(tmp_path, monkeypatch)
        monkeypatch.undo()
        try:
            assert registry.seal("a") is unacked
            with pytest.raises(ValueError, match="already sealed"):
                registry.seal("a", report_kwargs={"phi": 0.2})
        finally:
            registry.close()
        reborn = open_journaled_registry(tmp_path)
        try:
            info = reborn.stream_info("a")
            assert info["sealed"] is True
            assert info["items_processed"] == items.size
            assert reborn.query("a")[1].report == unacked.report
        finally:
            reborn.close()

    @pytest.mark.parametrize("damage", ["garbage", "wrong_shape"])
    def test_unreadable_seal_record_refuses_to_open(self, tmp_path, damage):
        registry = open_journaled_registry(tmp_path)
        registry.push("a", make_stream(7, length=10))
        registry.seal("a")
        registry.close()
        (record,) = (tmp_path / "wal").glob("stream-*/sealed.result")
        if damage == "garbage":
            record.write_bytes(b"not a record")
        else:
            Checkpointer.write_atomically(str(record), pickle.dumps({"result": 1}))
        with pytest.raises(CheckpointError):
            open_journaled_registry(tmp_path)


def tenancy_server(boot, *, max_live=2, seed=42, tcp=False):
    def factory(name):
        return PipelinedExecutor(
            sketch=SimpleListHeavyHitters(
                epsilon=0.02, phi=0.1, universe_size=UNIVERSE,
                stream_length=LENGTH,
                rng=RandomSource(derive_stream_seed(seed, name)),
            ),
            chunk_size=CHUNK,
        )

    return boot(
        PipelinedExecutor(sketch=make_sketch(), chunk_size=CHUNK),
        tcp=tcp,
        universe_size=UNIVERSE,
        stream_factory=factory,
        max_live_streams=max_live,
    )


class TestServerStreamCommands:
    def test_lifecycle_round_trip(self, service_server):
        server = tenancy_server(service_server)
        with ServiceClient(server.endpoint) as client:
            created = client.stream_create("alpha")
            assert created["stream"] == "alpha" and created["live"] is True
            with pytest.raises(ServiceError, match="already exists"):
                client.stream_create("alpha")
            client.push(np.arange(CHUNK, dtype=np.int64), stream="alpha")
            sealed = client.stream_seal("alpha")
            assert sealed["items_processed"] == CHUNK
            listing = client.stream_list()
            assert [entry["stream"] for entry in listing["streams"]] == ["alpha"]
            assert listing["max_live_streams"] == 2
            deleted = client.stream_delete("alpha")
            assert deleted["deleted"] is True
            assert client.stream_list()["streams"] == []

    def test_named_and_default_streams_are_isolated(self, service_server):
        server = tenancy_server(service_server)
        with ServiceClient(server.endpoint) as client:
            client.push(np.asarray([1, 1, 2], dtype=np.int64), stream="named")
            client.push(np.asarray([3, 3, 3], dtype=np.int64))
            flushed = client.flush(stream="named")
            assert flushed["items_received"] == 3
            client.finish()
            assert client.query().items_processed == 3
            client.stream_seal("named")
            named = client.query(stream="named")
            assert named.final and named.items_processed == 3

    def test_push_stream_resumes_per_stream_cursor(self, service_server):
        server = tenancy_server(service_server)
        items = make_stream(9, length=4_000)
        batches = [items[start:start + 700] for start in range(0, len(items), 700)]
        with ServiceClient(server.endpoint) as client:
            received = client.push_stream(iter(batches), window=4, stream="alpha")
            assert received == len(items)
            assert client.config(stream="alpha")["items_received"] == len(items)
            assert client.config()["items_received"] == 0  # default untouched

    def test_queries_served_across_evictions_match_solo_replay(
        self, service_server, tmp_path
    ):
        server = tenancy_server(service_server, max_live=1)
        streams = {f"s{index}": make_stream(20 + index, length=4_000)
                   for index in range(3)}
        with ServiceClient(server.endpoint) as client:
            for start in range(0, 4_000, 1_000):
                for name, items in streams.items():
                    client.push(items[start:start + 1_000], stream=name)
            for name, items in streams.items():
                client.stream_seal(name)
                served = client.query(stream=name)
                stats = client.stats(stream=name)
                assert stats["evictions"] > 0  # the cap forced real churn
                solo = PipelinedExecutor(
                    sketch=SimpleListHeavyHitters(
                        epsilon=0.02, phi=0.1, universe_size=UNIVERSE,
                        stream_length=LENGTH,
                        rng=RandomSource(derive_stream_seed(42, name)),
                    ),
                    chunk_size=CHUNK,
                )
                path = str(tmp_path / f"{name}.rt.ckpt")
                pending = list(stats["eviction_boundaries"])

                def round_trip_due(replay):
                    while pending and replay.items_processed == pending[0]:
                        pending.pop(0)
                        Checkpointer().save(path, replay.sink_state())
                        replay, _ = Checkpointer().restore_pipeline(
                            path, chunk_size=CHUNK
                        )
                    return replay

                for start in range(0, len(items), CHUNK):
                    solo = round_trip_due(solo)
                    solo.ingest_chunk(items[start:start + CHUNK])
                solo = round_trip_due(solo)
                reference = solo.finalize(report_kwargs={})
                assert dict(served.report.items) == dict(reference.report.items)

    def test_stream_commands_without_registry_are_refused(self, service_server):
        server = service_server(
            PipelinedExecutor(sketch=make_sketch(), chunk_size=CHUNK),
            universe_size=UNIVERSE,
        )
        with ServiceClient(server.endpoint) as client:
            with pytest.raises(ServiceError, match="without named-stream support"):
                client.stream_create("alpha")
            with pytest.raises(ServiceError, match="without named-stream support"):
                client.push(np.asarray([1, 2, 3], dtype=np.int64), stream="alpha")

    def test_default_stream_name_is_refused_on_lifecycle_commands(self, service_server):
        server = tenancy_server(service_server)
        with ServiceClient(server.endpoint) as client:
            with pytest.raises(ServiceError, match="implicit stream"):
                client.stream_create("default")
            with pytest.raises(ServiceError, match="requires a 'stream' name"):
                client.stream_seal("")

    def test_commands_that_do_not_accept_a_stream_are_refused(self, service_server):
        server = tenancy_server(service_server)
        with ServiceClient(server.endpoint) as client:
            client.push(np.asarray([1], dtype=np.int64), stream="alpha")
            with pytest.raises(ServiceError, match="does not accept a stream"):
                client._round_trip({"cmd": "metrics", "stream": "alpha"})

    def test_max_live_streams_requires_a_factory(self):
        with pytest.raises(ValueError, match="stream_factory"):
            IngestServer(
                PipelinedExecutor(sketch=make_sketch(), chunk_size=CHUNK),
                port=0, universe_size=UNIVERSE, max_live_streams=2,
            )

    def test_stream_checkpoint_restores_as_default_pipeline(self, service_server, tmp_path):
        server = tenancy_server(service_server)
        items = make_stream(33, length=2_048)
        path = str(tmp_path / "alpha.ckpt")
        with ServiceClient(server.endpoint) as client:
            client.push(items[:1024], stream="alpha")
            reply = client.checkpoint(path, stream="alpha")
            assert reply["stream"] == "alpha"
            assert reply["items_processed"] == 1024
        restored, manifest = Checkpointer().restore_pipeline(path, chunk_size=CHUNK)
        assert manifest["config"]["stream"] == "alpha"
        resumed = service_server(restored, universe_size=UNIVERSE)
        with ServiceClient(resumed.endpoint) as client:
            client.push(items[1024:])
            client.finish()
            assert client.query().items_processed == len(items)

    def test_config_reports_stream_counts(self, service_server):
        server = tenancy_server(service_server)
        with ServiceClient(server.endpoint) as client:
            config = client.config()
            assert config["max_live_streams"] == 2
            assert config["streams"] == 0
            client.push([1], stream="alpha")
            assert client.config()["streams"] == 1


class TestEvictionConcurrencyStress:
    def test_concurrent_pushers_with_forced_eviction_lose_nothing(self, tmp_path):
        """Barrier-released pushers to distinct streams under max_live=1.

        Every push either fully ingests (ack covers its chunks) or raises —
        whatever the evict/restore interleaving, the sealed exact counts must
        equal each stream's pushed items exactly.
        """
        registry = StreamRegistry(
            lambda name: PipelinedExecutor(
                sketch=ExactCounter(UNIVERSE), chunk_size=64
            ),
            chunk_size=64,
            max_live_streams=1,
            spill_dir=str(tmp_path / "spill"),
        )
        workers = 4
        batches_per_worker = 20
        barrier = threading.Barrier(workers)
        errors = []

        def pusher(index):
            rng = RandomSource(100 + index).numpy_generator()
            barrier.wait()
            try:
                for _ in range(batches_per_worker):
                    batch = rng.integers(0, UNIVERSE, size=37).astype(np.int64)
                    registry.push(f"w{index}", batch)
            except Exception as exc:  # pragma: no cover - failure diagnostics
                errors.append(exc)

        try:
            threads = [
                threading.Thread(target=pusher, args=(index,))
                for index in range(workers)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert errors == []
            for index in range(workers):
                rng = RandomSource(100 + index).numpy_generator()
                expected = Counter()
                for _ in range(batches_per_worker):
                    expected.update(
                        rng.integers(0, UNIVERSE, size=37).astype(np.int64).tolist()
                    )
                result = registry.seal(f"w{index}")
                assert result.sketch.frequencies() == dict(expected)
                info = registry.stream_info(f"w{index}")
                assert info["items_received"] == batches_per_worker * 37
            total_evictions = sum(
                entry["evictions"] for entry in registry.list_streams()
            )
            assert total_evictions > 0
        finally:
            registry.close()

    def test_concurrent_push_query_never_serves_stale_or_torn_state(self, tmp_path):
        """A reader racing a writer sees chunk-aligned, monotonic prefixes only.

        The registry lock makes push/evict/restore/query atomic: every observed
        snapshot must be an exact multiple of the chunk size, itemwise-exact for
        that prefix, and never regress while pushes continue.
        """
        chunk = 64
        registry = StreamRegistry(
            lambda name: PipelinedExecutor(
                sketch=ExactCounter(UNIVERSE), chunk_size=chunk
            ),
            chunk_size=chunk,
            max_live_streams=1,
            spill_dir=str(tmp_path / "spill"),
        )
        total_batches = 60
        barrier = threading.Barrier(3)
        stop = threading.Event()
        churned = threading.Event()
        failures = []

        def writer():
            barrier.wait()
            try:
                for index in range(total_batches):
                    churned.clear()
                    registry.push(
                        "subject", np.full(37, index % UNIVERSE, dtype=np.int64)
                    )
                    # Without a pause the writer can re-take the lock for all
                    # its pushes before churn runs once, and nothing is evicted.
                    churned.wait(timeout=1.0)
            except Exception as exc:  # pragma: no cover - failure diagnostics
                failures.append(("writer", exc))
            finally:
                stop.set()

        def churn():
            # Competes for the single live slot, forcing subject evictions.
            barrier.wait()
            index = 0
            try:
                while not stop.is_set():
                    registry.push(
                        f"churn{index % 2}", np.zeros(1, dtype=np.int64)
                    )
                    churned.set()
                    index += 1
            except Exception as exc:  # pragma: no cover - failure diagnostics
                failures.append(("churn", exc))

        def reader():
            barrier.wait()
            seen = 0
            try:
                while not stop.is_set():
                    try:
                        final, snapshot = registry.query("subject")
                    except KeyError:
                        continue  # not created yet
                    assert final is False
                    processed = snapshot.items_processed
                    assert processed % chunk == 0
                    assert processed >= seen, "snapshot regressed"
                    seen = processed
            except Exception as exc:  # pragma: no cover - failure diagnostics
                failures.append(("reader", exc))

        try:
            threads = [
                threading.Thread(target=target)
                for target in (writer, churn, reader)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert failures == []
            result = registry.seal("subject")
            expected = Counter()
            for index in range(total_batches):
                expected.update([index % UNIVERSE] * 37)
            assert result.sketch.frequencies() == dict(expected)
            assert registry.stream_info("subject")["evictions"] > 0
        finally:
            registry.close()

    def test_concurrent_clients_on_distinct_streams_over_the_wire(self, service_server):
        """Whole-stack race: N clients, N streams, one live slot, TCP framing."""
        server = tenancy_server(service_server, max_live=1, tcp=True)
        workers = 3
        length = 1_500
        barrier = threading.Barrier(workers)
        failures = []

        def client_worker(index):
            items = make_stream(50 + index, length=length)
            try:
                with ServiceClient(server.endpoint) as client:
                    barrier.wait()
                    for start in range(0, length, 250):
                        client.push(items[start:start + 250], stream=f"c{index}")
                    sealed = client.stream_seal(f"c{index}")
                    assert sealed["items_processed"] == length
            except Exception as exc:  # pragma: no cover - failure diagnostics
                failures.append((index, exc))

        threads = [
            threading.Thread(target=client_worker, args=(index,))
            for index in range(workers)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert failures == []
        with ServiceClient(server.endpoint) as client:
            listing = client.stream_list()
            assert listing["live_streams"] <= 1
            for entry in listing["streams"]:
                assert entry["sealed"] is True
                assert entry["items_received"] == length
