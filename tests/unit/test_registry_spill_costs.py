"""Cost and byte guards for the stream registry's evict and restore paths.

Evicting or restoring one named stream must not cost more as the stream count
grows, and a spill that no restart reads must not be synced to disk.  These
tests pin both by counting system calls, and pin that the cheaper spill still
writes the exact bytes :meth:`~repro.service.Checkpointer.save` would, so
evict→restore stays bit-for-bit.
"""

import os

import numpy as np
import pytest

from repro.baselines.misra_gries import MisraGries
from repro.core.heavy_hitters_optimal import OptimalListHeavyHitters
from repro.durability.wal import WriteAheadLog
from repro.pipeline import PipelinedExecutor
from repro.primitives.rng import RandomSource
from repro.service import Checkpointer, StreamRegistry, derive_stream_seed

UNIVERSE = 64
CHUNK = 8


def make_registry(tmp_path, max_live, wal=False):
    return StreamRegistry(
        lambda name: PipelinedExecutor(sketch=MisraGries(0.2, UNIVERSE), chunk_size=CHUNK),
        chunk_size=CHUNK,
        max_live_streams=max_live,
        spill_dir=str(tmp_path / "spill"),
        wal_dir=str(tmp_path / "wal") if wal else None,
        wal_fsync="off",
    )


def items(count, offset=0):
    return (np.arange(count, dtype=np.int64) + offset) % UNIVERSE


def count_calls(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


def test_cold_push_on_4096_streams_lists_no_directory(tmp_path, monkeypatch):
    registry = make_registry(tmp_path, max_live=16)
    try:
        for index in range(4096):
            registry.create(f"s{index:04d}")
        registry.push("s0000", items(CHUNK + 3))  # restores s0000, evicts another
        registry.push("s4095", items(CHUNK))
        assert registry.stream_count == 4096 and registry.live_count == 16
        listdir = count_calls(monkeypatch, os, "listdir")
        scandir = count_calls(monkeypatch, os, "scandir")
        assert registry.stream_info("s0001")["spilled"] is True
        registry.push("s0001", items(2 * CHUNK))
        info = registry.stream_info("s0001")
        assert info["restores"] == 1 and info["items_processed"] == 2 * CHUNK
        assert listdir == [] and scandir == []
    finally:
        registry.close()


def test_non_journaled_eviction_does_not_fsync(tmp_path, monkeypatch):
    registry = make_registry(tmp_path, max_live=1)
    try:
        registry.push("a", items(3 * CHUNK))
        fsyncs = count_calls(monkeypatch, os, "fsync")
        registry.push("b", items(CHUNK))  # evicts a
        assert registry.stream_info("a")["spilled"] is True
        registry.push("a", items(CHUNK))  # restores a, evicts b
        assert registry.stream_info("b")["spilled"] is True
        assert fsyncs == []
        assert len(os.listdir(tmp_path / "spill")) == 2
    finally:
        registry.close()


def test_journaled_eviction_fsyncs_the_spill_before_compaction(tmp_path, monkeypatch):
    registry = StreamRegistry(
        lambda name: PipelinedExecutor(sketch=MisraGries(0.2, UNIVERSE), chunk_size=CHUNK),
        chunk_size=CHUNK,
        max_live_streams=1,
        spill_dir=str(tmp_path / "spill"),
        wal_dir=str(tmp_path / "wal"),
        wal_fsync="off",
        wal_segment_bytes=64,  # a few records per segment, so compaction deletes some
    )
    try:
        for offset in range(6):
            registry.push("a", items(CHUNK, offset))
        segments_before = len(registry._streams["a"].wal.segment_paths())
        events = []
        original_fsync = os.fsync
        original_compact = WriteAheadLog.compact

        def fsync(fd):
            events.append(("fsync", os.fstat(fd).st_ino))
            return original_fsync(fd)

        def compact(self, position):
            events.append(("compact", position))
            return original_compact(self, position)

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(WriteAheadLog, "compact", compact)
        registry.push("b", items(CHUNK))  # evicts a
        state = registry._streams["a"]
        assert state.spilled is True
        spill_inode = os.stat(state.spill_path).st_ino
        compacted_at = events.index(("compact", 6 * CHUNK))
        assert ("fsync", spill_inode) in events[:compacted_at]
        assert len(state.wal.segment_paths()) < segments_before
    finally:
        registry.close()


def test_opening_a_spill_dir_sweeps_stale_temp_files(tmp_path):
    first = make_registry(tmp_path, max_live=1)
    first.push("a", items(CHUNK))
    first.push("b", items(CHUNK))  # spills a
    spill = first._streams["a"].spill_path
    first.close()  # a given spill dir is not removed on close
    stale = tmp_path / "spill" / "leftover.ckpt.tmp"
    stale.write_bytes(b"half a checkpoint")
    other = tmp_path / "spill" / "notes.txt"
    other.write_text("not ours")

    second = make_registry(tmp_path, max_live=1)
    try:
        assert not stale.exists()
        assert os.path.exists(spill) and other.exists()
    finally:
        second.close()


def test_spill_bytes_equal_checkpointer_save(tmp_path):
    registry = make_registry(tmp_path, max_live=1)
    try:
        registry.push("a", items(5 * CHUNK + 3))
        captured = registry.checkpoint_state("a")
        registry.push("b", items(CHUNK))  # evicts a
        spill = registry._streams["a"].spill_path
        reference = str(tmp_path / "reference.ckpt")
        Checkpointer().save(
            reference, captured,
            config={"stream": "a", "chunk_size": CHUNK, "queue_depth": 4},
        )
        with open(spill, "rb") as handle, open(reference, "rb") as expected:
            assert handle.read() == expected.read()
        state, manifest = Checkpointer().load(spill)
        assert manifest["wal_position"] is None
        assert state.items_processed == 5 * CHUNK
    finally:
        registry.close()


def test_thm2_evict_restore_finish_report_is_pinned(tmp_path):
    """A Theorem 2 stream's report through 14 evictions equals a pinned value.

    The estimates were recorded from the registry as it was before spills were
    written in place, so any change to spill bytes or restore order that moves
    a single bit of the report fails here.
    """
    universe, length, chunk = 1000, 20_000, 512

    def build(name):
        return PipelinedExecutor(
            sketch=OptimalListHeavyHitters(
                epsilon=0.05, phi=0.1, universe_size=universe, stream_length=length,
                rng=RandomSource(derive_stream_seed(5, name)),
            ),
            chunk_size=chunk,
        )

    rng = np.random.default_rng(21)
    stream = rng.integers(0, universe, size=length)
    stream[rng.random(length) < 0.3] = 17
    stream[rng.random(length) < 0.15] = 404
    stream = stream.astype(np.int64)
    registry = StreamRegistry(
        build, chunk_size=chunk, max_live_streams=1, spill_dir=str(tmp_path / "spill")
    )
    try:
        for start in range(0, length, 1500):
            registry.push("thm2", stream[start:start + 1500])
            registry.push("decoy", np.zeros(1, dtype=np.int64))  # evicts thm2
        info = registry.stream_info("thm2")
        result = registry.seal("thm2", report_kwargs={})
    finally:
        registry.close()
    assert info["eviction_boundaries"] == [
        1024, 2560, 4096, 5632, 7168, 8704, 10240, 11776, 13312, 14848, 16384,
        17920, 19456, 19968,
    ]
    assert info["restores"] == 13
    assert result.items_processed == result.report.stream_length == length
    assert {item: float(estimate).hex() for item, estimate in result.report.items.items()} == {
        17: "0x1.3d38000000000p+12",
        404: "0x1.72a8000000000p+11",
    }


@pytest.mark.parametrize("wal", [False, True])
def test_failed_spill_write_keeps_the_stream_resident(tmp_path, monkeypatch, wal):
    registry = make_registry(tmp_path, max_live=1, wal=wal)
    try:
        registry.push("a", items(2 * CHUNK))

        def refuse(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(Checkpointer, "save" if wal else "save_in_place", refuse)
        with pytest.raises(OSError, match="disk full"):
            registry.push("b", items(CHUNK))
        monkeypatch.undo()
        info = registry.stream_info("a")
        assert info["live"] is True and info["spilled"] is False
        _, snapshot = registry.query("a")
        assert snapshot.items_processed == 2 * CHUNK
    finally:
        registry.close()


@pytest.mark.parametrize("wal", [False, True], ids=["spill", "journaled"])
@pytest.mark.parametrize("admit", ["create", "restore"])
def test_failed_eviction_admits_nothing(tmp_path, monkeypatch, admit, wal):
    """Room is made before a stream is admitted, so a failed eviction changes nothing.

    ``create`` pushes to a new stream at the cap; ``restore`` pushes to a
    spilled one.  Either way the eviction the push needs raises, and the
    registry must stay within its cap with the incoming stream unregistered or
    still spilled.  The retry then evicts the same victim, once.
    """
    registry = make_registry(tmp_path, max_live=1, wal=wal)
    acked = {"a": 2 * CHUNK}
    try:
        registry.push("a", items(2 * CHUNK))
        if admit == "restore":
            registry.push("b", items(CHUNK, offset=5))  # evicts "a"
            acked["b"] = CHUNK
        incoming, resident = ("b", "a") if admit == "create" else ("a", "b")
        before = {info["stream"]: info for info in registry.list_streams()}

        def refuse(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(Checkpointer, "save" if wal else "save_in_place", refuse)
        with pytest.raises(OSError, match="disk full"):
            registry.push(incoming, items(CHUNK, offset=9))
        monkeypatch.undo()

        assert registry.live_count <= registry.max_live_streams
        after = {info["stream"]: info for info in registry.list_streams()}
        assert after == before
        if admit == "create":
            assert incoming not in after
        else:
            assert after[incoming]["spilled"] is True
        assert after[resident]["live"] is True

        registry.push(incoming, items(CHUNK, offset=9))
        acked[incoming] = acked.get(incoming, 0) + CHUNK
        assert registry.live_count == 1
        assert registry.stream_info(resident)["evictions"] == 1
        assert registry.stream_info(resident)["spilled"] is True
        assert registry.stream_info(incoming)["live"] is True
        for name, count in acked.items():
            assert registry.items_received(name) == count
            _, snapshot = registry.query(name)
            assert snapshot.items_processed == count
    finally:
        registry.close()
    if wal:
        reopened = make_registry(tmp_path, max_live=2, wal=True)
        try:
            for name, count in acked.items():
                assert reopened.items_received(name) == count
        finally:
            reopened.close()
