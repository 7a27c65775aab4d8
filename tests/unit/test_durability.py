"""Unit tests for the crash-durability layer: WAL, recovery, and the temp-file sweep."""

import glob
import os

import numpy as np
import pytest

from repro.baselines.misra_gries import MisraGries
from repro.core.heavy_hitters_simple import SimpleListHeavyHitters
from repro.durability import (
    WalError,
    WriteAheadLog,
    find_checkpoint,
    list_segments,
    recover_sink,
    replay,
    tear_tail,
)
from repro.pipeline import PipelinedExecutor
from repro.primitives.rng import RandomSource
from repro.replication import FaultPlan
from repro.service import Checkpointer

UNIVERSE = 300
LENGTH = 8_000
CHUNK = 512


def make_sketch(seed=1):
    return SimpleListHeavyHitters(
        epsilon=0.05, phi=0.1, universe_size=UNIVERSE, stream_length=LENGTH,
        rng=RandomSource(seed),
    )


def make_items(length=LENGTH, seed=3):
    rng = RandomSource(seed).numpy_generator()
    return rng.integers(0, UNIVERSE, size=length).astype(np.int64)


def replayed_items(directory, start=0):
    pieces = [items for _, items in replay(str(directory), start)]
    return np.concatenate(pieces) if pieces else np.empty(0, dtype=np.int64)


# -- WAL append / replay ----------------------------------------------------------------


def test_append_replay_round_trip(tmp_path):
    items = make_items(3_000)
    with WriteAheadLog(str(tmp_path), fsync="off") as wal:
        for offset in range(0, items.size, 700):
            wal.append(items[offset:offset + 700])
        assert wal.position == items.size
    np.testing.assert_array_equal(replayed_items(tmp_path), items)


def test_replay_slices_the_straddling_record(tmp_path):
    items = make_items(1_000)
    with WriteAheadLog(str(tmp_path), fsync="off") as wal:
        wal.append(items)
    # Resuming mid-record must yield exactly the un-covered suffix.
    np.testing.assert_array_equal(replayed_items(tmp_path, start=137), items[137:])
    assert replayed_items(tmp_path, start=items.size).size == 0


def test_empty_append_is_a_no_op(tmp_path):
    with WriteAheadLog(str(tmp_path), fsync="off") as wal:
        wal.append(np.empty(0, dtype=np.int64))
        wal.append(np.array([5, 6], dtype=np.int64))
        assert wal.position == 2


def test_reopen_adopts_existing_segments(tmp_path):
    items = make_items(2_000)
    with WriteAheadLog(str(tmp_path), fsync="off") as wal:
        wal.append(items[:1_200])
    with WriteAheadLog(str(tmp_path), fsync="off") as wal:
        assert wal.position == 1_200
        wal.append(items[1_200:])
    np.testing.assert_array_equal(replayed_items(tmp_path), items)


def test_segment_rotation_and_ordering(tmp_path):
    items = make_items(4_000)
    with WriteAheadLog(str(tmp_path), fsync="off", segment_bytes=4_096) as wal:
        for offset in range(0, items.size, 400):
            wal.append(items[offset:offset + 400])
    segments = list_segments(str(tmp_path))
    assert len(segments) > 1
    starts = [segment.start_items for segment in segments]
    assert starts == sorted(starts) and starts[0] == 0
    np.testing.assert_array_equal(replayed_items(tmp_path), items)


def test_missing_middle_segment_raises(tmp_path):
    with WriteAheadLog(str(tmp_path), fsync="off", segment_bytes=2_048) as wal:
        for offset in range(0, 3_000, 200):
            wal.append(make_items(3_000)[offset:offset + 200])
    segments = list_segments(str(tmp_path))
    assert len(segments) >= 3
    os.unlink(segments[1].path)
    with pytest.raises(WalError, match="gap"):
        list_segments(str(tmp_path))


def test_compaction_keeps_the_uncovered_suffix(tmp_path):
    items = make_items(4_000)
    with WriteAheadLog(str(tmp_path), fsync="off", segment_bytes=2_048) as wal:
        for offset in range(0, items.size, 200):
            wal.append(items[offset:offset + 200])
        before = len(list_segments(str(tmp_path)))
        wal.compact(2_000)
        after = list_segments(str(tmp_path))
        assert len(after) < before
        # Everything past the compaction point must still replay.
        np.testing.assert_array_equal(replayed_items(tmp_path, 2_000), items[2_000:])
        # Compaction never deletes the live tail segment.
        wal.compact(items.size)
        assert list_segments(str(tmp_path))


# -- torn tails and corruption ----------------------------------------------------------


def test_torn_tail_is_truncated_silently(tmp_path):
    items = make_items(900)
    with WriteAheadLog(str(tmp_path), fsync="off") as wal:
        wal.append(items[:600])
        wal.append(items[600:])
    tear_tail(str(tmp_path), 5)
    # The torn final record disappears; the intact prefix survives.
    np.testing.assert_array_equal(replayed_items(tmp_path), items[:600])
    removed = WriteAheadLog.repair(str(tmp_path))
    assert removed > 0
    np.testing.assert_array_equal(replayed_items(tmp_path), items[:600])
    assert WriteAheadLog.repair(str(tmp_path)) == 0  # idempotent


def test_tear_tail_zero_flips_the_last_byte(tmp_path):
    items = make_items(400)
    with WriteAheadLog(str(tmp_path), fsync="off") as wal:
        wal.append(items)
    size_before = os.path.getsize(list_segments(str(tmp_path))[-1].path)
    tear_tail(str(tmp_path), 0)
    assert os.path.getsize(list_segments(str(tmp_path))[-1].path) == size_before
    # CRC catches the flip; the (single) record is treated as torn.
    assert replayed_items(tmp_path).size == 0


def test_corruption_before_the_tail_raises(tmp_path):
    items = make_items(900)
    with WriteAheadLog(str(tmp_path), fsync="off") as wal:
        wal.append(items[:600])
        wal.append(items[600:])
    segment = list_segments(str(tmp_path))[-1].path
    with open(segment, "r+b") as handle:
        handle.seek(40)  # inside the first record's payload
        byte = handle.read(1)
        handle.seek(40)
        handle.write(bytes([byte[0] ^ 0xFF]))
    with pytest.raises(WalError, match="checksum"):
        replayed_items(tmp_path)


def test_crash_fault_tears_the_journal_mid_append(tmp_path, monkeypatch):
    exits = []

    def fake_exit(code):
        exits.append(code)
        raise SystemExit(code)

    monkeypatch.setattr(os, "_exit", fake_exit)
    plan = FaultPlan.parse(["crash:after_chunk=2"])
    wal = WriteAheadLog(str(tmp_path), fsync="off", fault_plan=plan)
    first = make_items(200)
    wal.append(first)
    with pytest.raises(SystemExit):
        wal.append(make_items(200, seed=5))
    assert exits == [137]
    # The journal is torn exactly where a real kill -9 would leave it.
    assert WriteAheadLog.repair(str(tmp_path)) > 0
    np.testing.assert_array_equal(replayed_items(tmp_path), first)


# -- fsync policy and positions ---------------------------------------------------------


def test_parse_fsync_policy():
    assert WriteAheadLog.parse_fsync_policy("always") == 1
    assert WriteAheadLog.parse_fsync_policy("off") is None
    assert WriteAheadLog.parse_fsync_policy("interval:16") == 16
    for bad in ("sometimes", "interval:0", "interval:-3", "interval:x", ""):
        with pytest.raises(ValueError):
            WriteAheadLog.parse_fsync_policy(bad)


def test_advance_to_numbers_future_records_from_the_checkpoint(tmp_path):
    with WriteAheadLog(str(tmp_path), fsync="off") as wal:
        wal.append(make_items(100))
        wal.advance_to(500)
        assert wal.position == 500
        wal.append(np.array([1, 2, 3], dtype=np.int64))
    np.testing.assert_array_equal(
        replayed_items(tmp_path, 500), np.array([1, 2, 3], dtype=np.int64)
    )


def test_append_after_close_raises(tmp_path):
    wal = WriteAheadLog(str(tmp_path), fsync="off")
    wal.close()
    with pytest.raises(WalError):
        wal.append(np.array([1], dtype=np.int64))


# -- checkpoint format 3 and the temp-file sweep ----------------------------------------


def test_checkpoint_carries_wal_position(tmp_path):
    executor = PipelinedExecutor(sketch=make_sketch(), chunk_size=CHUNK)
    executor.ingest_chunk(make_items(CHUNK))
    path = str(tmp_path / "a.ckpt")
    checkpointer = Checkpointer()
    manifest = checkpointer.save(path, executor.sink_state(), wal_position=CHUNK)
    assert manifest["format"] == 3
    assert manifest["wal_position"] == CHUNK
    _, loaded = checkpointer.load(path)
    assert loaded["wal_position"] == CHUNK


def test_format2_checkpoints_still_load(tmp_path, monkeypatch):
    executor = PipelinedExecutor(sketch=make_sketch(), chunk_size=CHUNK)
    executor.ingest_chunk(make_items(CHUNK))
    path = str(tmp_path / "old.ckpt")
    monkeypatch.setattr("repro.service.checkpoint.CHECKPOINT_FORMAT", 2)
    Checkpointer().save(path, executor.sink_state())
    monkeypatch.undo()
    state, manifest = Checkpointer().load(path)
    assert manifest["format"] == 2
    assert state.items_processed == CHUNK


def test_sweep_stale_temp_files_removes_only_ckpt_tmp(tmp_path):
    stale = tmp_path / "spill.ckpt.tmp"
    stale.write_bytes(b"half-written")
    keeper = tmp_path / "notes.txt"
    keeper.write_text("keep me")
    real = tmp_path / "real.ckpt"
    real.write_bytes(b"whatever")
    swept = Checkpointer.sweep_stale_temp_files(str(tmp_path))
    assert swept == [str(stale)]
    assert not stale.exists() and keeper.exists() and real.exists()


def test_restore_pipeline_sweeps_stale_temp_files(tmp_path):
    executor = PipelinedExecutor(sketch=make_sketch(), chunk_size=CHUNK)
    executor.ingest_chunk(make_items(CHUNK))
    path = str(tmp_path / "good.ckpt")
    Checkpointer().save(path, executor.sink_state())
    stale = tmp_path / "good.ckpt.tmp"
    stale.write_bytes(b"crashed mid-save")
    restored, _ = Checkpointer().restore_pipeline(path, chunk_size=CHUNK)
    assert restored.items_processed == CHUNK
    assert not stale.exists()


# -- recovery ---------------------------------------------------------------------------


def test_recover_fresh_directory(tmp_path):
    recovered = recover_sink(
        str(tmp_path / "wal"), lambda: PipelinedExecutor(
            sketch=make_sketch(), chunk_size=CHUNK),
        chunk_size=CHUNK, fsync="off",
    )
    assert recovered.source == "fresh"
    assert recovered.recovered_items == 0 and recovered.tail.size == 0
    recovered.wal.close()


@pytest.mark.parametrize("fsync", ["off", "interval:8", "always"])
def test_recover_from_wal_matches_plain_replay(tmp_path, fsync):
    """Journaling under any fsync policy leaves the live and recovered reports unchanged."""
    items = make_items(3 * CHUNK + 100)
    journaled = PipelinedExecutor(sketch=make_sketch(), chunk_size=CHUNK)
    with WriteAheadLog(str(tmp_path / "wal"), fsync=fsync) as wal:
        for offset in range(0, items.size, 300):
            wal.append(items[offset:offset + 300])
        for offset in range(0, 3 * CHUNK, CHUNK):
            journaled.ingest_chunk(items[offset:offset + CHUNK])

    recovered = recover_sink(
        str(tmp_path / "wal"), lambda: PipelinedExecutor(
            sketch=make_sketch(), chunk_size=CHUNK),
        chunk_size=CHUNK, fsync="off",
    )
    recovered.wal.close()
    assert recovered.source == "wal"
    assert recovered.recovered_chunks == 3
    assert recovered.sink.items_processed == 3 * CHUNK
    np.testing.assert_array_equal(recovered.tail, items[3 * CHUNK:])

    reference = PipelinedExecutor(sketch=make_sketch(), chunk_size=CHUNK)
    for offset in range(0, 3 * CHUNK, CHUNK):
        reference.ingest_chunk(items[offset:offset + CHUNK])
    expected = dict(reference.snapshot().report.items)
    assert dict(journaled.snapshot().report.items) == expected
    assert dict(recovered.sink.snapshot().report.items) == expected


def test_recover_checkpoint_plus_wal(tmp_path):
    wal_dir = tmp_path / "wal"
    items = make_items(4 * CHUNK)
    executor = PipelinedExecutor(
        sketch=MisraGries(0.05, UNIVERSE), chunk_size=CHUNK)
    with WriteAheadLog(str(wal_dir), fsync="off") as wal:
        for offset in range(0, 2 * CHUNK, CHUNK):
            wal.append(items[offset:offset + CHUNK])
            executor.ingest_chunk(items[offset:offset + CHUNK])
        Checkpointer().save(str(wal_dir / "mid.ckpt"), executor.sink_state(),
                            wal_position=2 * CHUNK)
        for offset in range(2 * CHUNK, items.size, CHUNK):
            wal.append(items[offset:offset + CHUNK])

    recovered = recover_sink(
        str(wal_dir), lambda: PipelinedExecutor(
            sketch=MisraGries(0.05, UNIVERSE), chunk_size=CHUNK),
        chunk_size=CHUNK, fsync="off",
    )
    recovered.wal.close()
    assert recovered.source == "checkpoint+wal"
    assert recovered.checkpoint_path == str(wal_dir / "mid.ckpt")
    assert recovered.recovered_chunks == 2
    assert recovered.sink.items_processed == items.size

    reference = PipelinedExecutor(
        sketch=MisraGries(0.05, UNIVERSE), chunk_size=CHUNK)
    for offset in range(0, items.size, CHUNK):
        reference.ingest_chunk(items[offset:offset + CHUNK])
    kwargs = {"phi": 0.1}
    assert (dict(recovered.sink.snapshot(report_kwargs=kwargs).report.items)
            == dict(reference.snapshot(report_kwargs=kwargs).report.items))


def test_recover_skips_corrupt_checkpoint_for_an_older_good_one(tmp_path):
    wal_dir = tmp_path / "wal"
    wal_dir.mkdir()
    executor = PipelinedExecutor(
        sketch=MisraGries(0.05, UNIVERSE), chunk_size=CHUNK)
    items = make_items(2 * CHUNK)
    executor.ingest_chunk(items[:CHUNK])
    Checkpointer().save(str(wal_dir / "old.ckpt"), executor.sink_state(),
                        wal_position=CHUNK)
    executor.ingest_chunk(items[CHUNK:])
    Checkpointer().save(str(wal_dir / "new.ckpt"), executor.sink_state(),
                        wal_position=2 * CHUNK)
    with open(wal_dir / "new.ckpt", "r+b") as handle:
        handle.truncate(20)
    assert find_checkpoint(str(wal_dir)) == str(wal_dir / "old.ckpt")


def test_recover_refuses_a_journal_compacted_past_the_checkpoint(tmp_path):
    wal_dir = tmp_path / "wal"
    items = make_items(4 * CHUNK)
    with WriteAheadLog(str(wal_dir), fsync="off", segment_bytes=2_048) as wal:
        for offset in range(0, items.size, 256):
            wal.append(items[offset:offset + 256])
        wal.compact(3 * CHUNK)
    # No checkpoint at all: recovery must resume at 0, which is gone.
    with pytest.raises(WalError, match="compacted"):
        recover_sink(
            str(wal_dir), lambda: PipelinedExecutor(
                sketch=make_sketch(), chunk_size=CHUNK),
            chunk_size=CHUNK, fsync="off",
        )


def test_recover_repairs_a_torn_tail_and_counts_it(tmp_path):
    wal_dir = tmp_path / "wal"
    items = make_items(CHUNK + 64)
    with WriteAheadLog(str(wal_dir), fsync="off") as wal:
        wal.append(items[:CHUNK])
        wal.append(items[CHUNK:])
    tear_tail(str(wal_dir), 7)
    recovered = recover_sink(
        str(wal_dir), lambda: PipelinedExecutor(
            sketch=make_sketch(), chunk_size=CHUNK),
        chunk_size=CHUNK, fsync="off",
    )
    recovered.wal.close()
    assert recovered.torn_bytes > 0
    assert recovered.recovered_items == CHUNK
    # The repaired journal accepts new appends where the torn record was.
    assert recovered.wal.position == CHUNK


# -- the registry's per-stream journals -------------------------------------------------


def make_registry(tmp_path, wal=True):
    from repro.service import StreamRegistry, derive_stream_seed

    def build(name):
        return PipelinedExecutor(
            sketch=make_sketch(derive_stream_seed(7, name)), chunk_size=CHUNK)

    return StreamRegistry(
        build, chunk_size=CHUNK, spill_dir=str(tmp_path / "spill"),
        wal_dir=str(tmp_path / "streams") if wal else None, wal_fsync="off",
    )


def test_stream_registry_recovers_streams_after_restart(tmp_path):
    items = make_items(2 * CHUNK + 50)
    registry = make_registry(tmp_path)
    registry.create("alpha")
    registry.push("alpha", items)
    _, snapshot = registry.query("alpha")
    report = dict(snapshot.report.items)
    registry.close()

    reborn = make_registry(tmp_path)
    assert [info["stream"] for info in reborn.list_streams()] == ["alpha"]
    assert reborn.items_received("alpha") == items.size
    _, reborn_snapshot = reborn.query("alpha")
    assert dict(reborn_snapshot.report.items) == report
    reborn.close()


def test_stream_delete_removes_spill_and_wal(tmp_path):
    registry = make_registry(tmp_path)
    registry.create("doomed")
    registry.push("doomed", make_items(CHUNK))
    stream_dirs = glob.glob(str(tmp_path / "streams" / "stream-*"))
    assert len(stream_dirs) == 1
    registry.delete("doomed")
    assert glob.glob(str(tmp_path / "streams" / "stream-*")) == []
    registry.close()
    # A restart after delete must not resurrect the stream.
    reborn = make_registry(tmp_path)
    assert reborn.list_streams() == []
    reborn.close()


# -- fault-plan grammar -----------------------------------------------------------------


def test_fault_plan_crash_and_torn_grammar():
    plan = FaultPlan.parse(["crash:after_chunk=3", "torn:bytes=9"])
    kinds = {spec.kind for spec in plan.specs}
    assert kinds == {"crash-process", "torn-write"}
    assert plan.pop_torn_bytes() == 9
    assert plan.pop_torn_bytes() is None  # one-shot
    for bad in ("crash:after_chunk=0", "torn:bytes=-1", "crash:bytes=3"):
        with pytest.raises(ValueError):
            FaultPlan.parse([bad])
