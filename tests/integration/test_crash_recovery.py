"""End-to-end crash recovery: kill -9 a served ingest, restart it, same answer.

These tests exercise the real process boundary: a ``repro serve`` subprocess
with ``--wal-dir``, real socket pushes, an un-catchable SIGKILL (or the
in-process ``crash:after_chunk`` torn-record fault), and a restart on the same
journal directory.  The acceptance criteria are the durability contract's two
halves (docs/DURABILITY.md): no acked item is lost, and the recovered answer
is bit-for-bit an uninterrupted replay of the same prefix.
"""

import os
import signal

import numpy as np
import pytest

from repro.analysis.harness import (
    _spawn_served_process,
    run_crash_comparison,
)
from repro.primitives.rng import RandomSource
from repro.service import ServiceClient
from repro.streams.generators import zipfian_stream
from repro.streams.io import save_stream

UNIVERSE = 800
LENGTH = 24_000
CHUNK = 2_048
BATCH = 1_024


@pytest.fixture(scope="module")
def trace(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("crash") / "trace.txt")
    save_stream(zipfian_stream(LENGTH, UNIVERSE, skew=1.2, rng=RandomSource(23)),
                path)
    return path


def serve_args(wal_dir, ready, extra=()):
    return [
        "serve", "--port", "0", "--universe", str(UNIVERSE),
        "--stream-length", str(LENGTH), "--epsilon", "0.02", "--phi", "0.1",
        "--seed", "42", "--chunk-size", str(CHUNK), "--wal-dir", wal_dir,
        "--wal-fsync", "always", "--ready-file", ready, *extra,
    ]


class TestCrashComparison:
    """The chaos-sweep harness, asserted end to end over both kill shapes."""

    @pytest.fixture(scope="class")
    def sigkill_rows(self, trace):
        return run_crash_comparison(
            trace, phi=0.1, epsilon=0.02, chunk_size=CHUNK, push_batch=BATCH,
            kill_after_batches=(2, 5), mode="sigkill",
        )

    @pytest.fixture(scope="class")
    def crash_rows(self, trace):
        return run_crash_comparison(
            trace, phi=0.1, epsilon=0.02, chunk_size=CHUNK, push_batch=BATCH,
            kill_after_batches=(2, 5), mode="crash",
        )

    def test_sigkill_legs_lose_nothing(self, sigkill_rows):
        assert [row.label for row in sigkill_rows] == [
            "sigkill:after_batch=2", "sigkill:after_batch=5",
        ]
        for row in sigkill_rows:
            assert row.measurements["no_acked_loss"] == 1.0
            # fsync=always: every acked batch survives exactly.
            assert (row.measurements["recovered_items"]
                    >= row.measurements["acked_items"] > 0)

    def test_sigkill_reports_equal_offline_replay(self, sigkill_rows):
        for row in sigkill_rows:
            assert row.measurements["identical_report"] == 1.0
            assert row.measurements["restart_seconds"] > 0.0

    def test_torn_record_crash_recovers_the_acked_prefix(self, crash_rows):
        for row, kill_after in zip(crash_rows, (2, 5)):
            # The fault tears append K mid-write: K-1 batches were acked, and
            # the half-written record must vanish, not resurrect.
            assert row.measurements["acked_items"] == (kill_after - 1) * BATCH
            assert row.measurements["no_acked_loss"] == 1.0
            assert row.measurements["identical_report"] == 1.0


class TestServedRecoveryLifecycle:
    """Direct subprocess scenarios beyond the sweep: clean stops, named streams."""

    def test_graceful_shutdown_then_restart_resumes_from_checkpoint(
        self, trace, tmp_path
    ):
        wal_dir = str(tmp_path / "wal")
        ready = str(tmp_path / "ready")
        from repro.streams.io import iterate_stream_file_chunks

        pieces = []
        for chunk in iterate_stream_file_chunks(trace, BATCH):
            pieces.append(chunk)
            if len(pieces) == 5:
                break
        items = np.concatenate(pieces)

        process, endpoint = _spawn_served_process(serve_args(wal_dir, ready), ready)
        with ServiceClient(endpoint) as client:
            for offset in range(0, items.size, BATCH):
                client.push(items[offset:offset + BATCH])
            client.flush(timeout=60.0)
            first = client.query()
            client.shutdown()
        process.wait(timeout=60)
        # The clean stop checkpointed into the WAL directory and compacted.
        assert any(name.endswith(".ckpt") for name in
                   os.listdir(os.path.join(wal_dir, "default")))

        process, endpoint = _spawn_served_process(serve_args(wal_dir, ready), ready)
        with ServiceClient(endpoint) as client:
            assert int(client.config()["items_received"]) == items.size
            second = client.query()
            client.shutdown()
        process.wait(timeout=60)
        assert dict(second.report.items) == dict(first.report.items)
        assert second.items_processed == first.items_processed

    def test_named_streams_survive_kill_minus_nine(self, trace, tmp_path):
        wal_dir = str(tmp_path / "wal")
        ready = str(tmp_path / "ready")
        rng = RandomSource(5).numpy_generator()
        per_stream = {
            "ads": rng.integers(0, UNIVERSE, size=3 * CHUNK + 17).astype(np.int64),
            "web": rng.integers(0, UNIVERSE, size=CHUNK + 3).astype(np.int64),
        }

        process, endpoint = _spawn_served_process(serve_args(wal_dir, ready), ready)
        with ServiceClient(endpoint) as client:
            for name, items in per_stream.items():
                for offset in range(0, items.size, BATCH):
                    client.push(items[offset:offset + BATCH], stream=name)
            before = {name: client.query(stream=name) for name in per_stream}
        process.send_signal(signal.SIGKILL)
        process.wait(timeout=60)

        process, endpoint = _spawn_served_process(serve_args(wal_dir, ready), ready)
        with ServiceClient(endpoint) as client:
            for name, items in per_stream.items():
                assert int(client.config(stream=name)["items_received"]) == items.size
                after = client.query(stream=name)
                assert dict(after.report.items) == dict(before[name].report.items)
                assert after.items_processed == before[name].items_processed
            # A recovered stream keeps accepting pushes and stays consistent.
            total = client.push(per_stream["web"][:10], stream="web")
            assert total == per_stream["web"].size + 10
            client.shutdown()
        process.wait(timeout=60)
