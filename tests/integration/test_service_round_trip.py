"""Service round-trip equivalence: served == offline, and checkpoint → resume == replay.

These are the acceptance tests of the service layer's headline guarantees (see
repro/service/__init__.py): with identical seeds and chunk size, the report served
over a real socket — pushed one round trip per batch or through a credit window —
equals the offline ``run_chunks`` replay bit for bit, and a checkpoint → restart →
resume run equals the offline replay that round-trips its state through the same
Checkpointer at the same chunk boundary.
"""

import os
import threading

import pytest

from repro.baselines.misra_gries import MisraGries
from repro.cli import main
from repro.core.heavy_hitters_simple import SimpleListHeavyHitters
from repro.pipeline import PipelinedExecutor
from repro.primitives.batching import iter_chunks
from repro.primitives.rng import RandomSource
from repro.service import Checkpointer, ServiceClient
from repro.sharding import ShardedExecutor
from repro.streams.generators import zipfian_stream
from repro.streams.io import save_stream
from repro.streams.truth import exact_frequencies

UNIVERSE = 2_000
LENGTH = 40_000
CHUNK = 2_048
ROUTER_SEED = 77


def sketch_factory(index: int) -> SimpleListHeavyHitters:
    return SimpleListHeavyHitters(
        epsilon=0.02, phi=0.05, universe_size=UNIVERSE, stream_length=LENGTH,
        rng=RandomSource(900 + index),
    )


def build_executor(shards: int) -> ShardedExecutor:
    return ShardedExecutor(
        factory=sketch_factory, num_shards=shards, universe_size=UNIVERSE,
        rng=RandomSource(ROUTER_SEED),
    )


@pytest.fixture(scope="module")
def stream():
    return zipfian_stream(LENGTH, UNIVERSE, skew=1.2, rng=RandomSource(6))


@pytest.mark.parametrize("shards", [1, 3, 4])
def test_served_equals_offline_bit_for_bit(stream, shards, service_server):
    offline = build_executor(shards).run_chunks(iter_chunks(stream.array, CHUNK))
    server = service_server(
        PipelinedExecutor(executor=build_executor(shards), chunk_size=CHUNK),
        universe_size=UNIVERSE,
    )
    with ServiceClient(server.endpoint) as client:
        # push in batches deliberately misaligned with the chunk size
        for start in range(0, LENGTH, 1_111):
            client.push(stream.array[start:start + 1_111])
        client.finish()
        served = client.query()
    assert served.items_processed == offline.items_processed == LENGTH
    assert dict(served.report.items) == dict(offline.report.items)
    assert served.report.contains_all_heavy(exact_frequencies(stream))


def test_served_equals_offline_misra_gries(stream, service_server):
    offline = MisraGries(epsilon=0.02, universe_size=UNIVERSE, stream_length_hint=LENGTH)
    offline.consume(stream, batch_size=CHUNK)
    offline_report = offline.report(phi=0.05)
    server = service_server(
        PipelinedExecutor(
            sketch=MisraGries(epsilon=0.02, universe_size=UNIVERSE, stream_length_hint=LENGTH),
            chunk_size=CHUNK,
        ),
        universe_size=UNIVERSE, report_kwargs={"phi": 0.05},
    )
    with ServiceClient(server.endpoint) as client:
        client.push(stream.array)
        client.finish()
        served = client.query()
    assert dict(served.report.items) == dict(offline_report.items)


@pytest.mark.parametrize("shards", [1, 3, 4])
def test_checkpoint_restart_resume_bit_for_bit(stream, shards, tmp_path, service_server):
    """Resume == offline replay that round-trips state at the same boundary."""
    half = (LENGTH // (2 * CHUNK)) * CHUNK
    ckpt = os.path.join(tmp_path, "served.ckpt")

    server = service_server(
        PipelinedExecutor(executor=build_executor(shards), chunk_size=CHUNK),
        universe_size=UNIVERSE,
    )
    with ServiceClient(server.endpoint) as client:
        client.push(stream.array[:half])
        client.flush()
        info = client.checkpoint(ckpt)
        assert info["items_processed"] == half
        client.shutdown()

    restored, manifest = Checkpointer().restore_pipeline(ckpt)
    assert manifest["items_processed"] == half
    server = service_server(restored, universe_size=UNIVERSE)
    with ServiceClient(server.endpoint) as client:
        client.push(stream.array[half:])
        client.finish()
        resumed = client.query()
    assert resumed.items_processed == LENGTH

    # the offline reference: same seeds, same boundary, same Checkpointer round-trip
    replay = PipelinedExecutor(executor=build_executor(shards), chunk_size=CHUNK)
    for chunk in iter_chunks(stream.array[:half], CHUNK):
        replay.ingest_chunk(chunk)
    offline_ckpt = os.path.join(tmp_path, "offline.ckpt")
    Checkpointer().save(offline_ckpt, replay.sink_state())
    replay_resumed, _ = Checkpointer().restore_pipeline(offline_ckpt, chunk_size=CHUNK)
    for chunk in iter_chunks(stream.array[half:], CHUNK):
        replay_resumed.ingest_chunk(chunk)
    reference = replay_resumed.finalize()
    assert dict(resumed.report.items) == dict(reference.report.items)


def test_two_restores_of_one_checkpoint_are_identical(stream, tmp_path):
    half = 8 * CHUNK
    ckpt = os.path.join(tmp_path, "fork.ckpt")
    original = PipelinedExecutor(executor=build_executor(2), chunk_size=CHUNK)
    for chunk in iter_chunks(stream.array[:half], CHUNK):
        original.ingest_chunk(chunk)
    Checkpointer().save(ckpt, original.sink_state())
    reports = []
    for _ in range(2):
        resumed, _ = Checkpointer().restore_pipeline(ckpt)
        for chunk in iter_chunks(stream.array[half:], CHUNK):
            resumed.ingest_chunk(chunk)
        reports.append(dict(resumed.finalize().report.items))
    assert reports[0] == reports[1]


def test_deterministic_sketch_resumes_identical_to_uninterrupted(stream, tmp_path):
    """Misra–Gries holds the stronger property: resume == never-interrupted run."""
    uninterrupted = MisraGries(epsilon=0.02, universe_size=UNIVERSE)
    uninterrupted.consume(stream, batch_size=CHUNK)
    expected = uninterrupted.report(phi=0.05)

    half = 9 * CHUNK
    ckpt = os.path.join(tmp_path, "mg.ckpt")
    first = PipelinedExecutor(sketch=MisraGries(epsilon=0.02, universe_size=UNIVERSE),
                              chunk_size=CHUNK)
    for chunk in iter_chunks(stream.array[:half], CHUNK):
        first.ingest_chunk(chunk)
    Checkpointer().save(ckpt, first.sink_state())
    resumed, _ = Checkpointer().restore_pipeline(ckpt)
    for chunk in iter_chunks(stream.array[half:], CHUNK):
        resumed.ingest_chunk(chunk)
    result = resumed.finalize(report_kwargs={"phi": 0.05})
    assert dict(result.report.items) == dict(expected.items)


@pytest.mark.parametrize("shards", [1, 2, 4])
def test_push_stream_served_equals_offline(stream, shards, service_server):
    """push_stream with a deep window reproduces the offline replay bit for bit.

    Between the pushes and ``finish``, repeated queries at the flushed prefix
    must build the merged snapshot once and answer the rest from the cache.
    """
    offline = build_executor(shards).run_chunks(iter_chunks(stream.array, CHUNK))
    server = service_server(
        PipelinedExecutor(executor=build_executor(shards), chunk_size=CHUNK),
        universe_size=UNIVERSE, push_queue_depth=16,
    )
    with ServiceClient(server.endpoint) as client:
        batches = (stream.array[start:start + 1_111]
                   for start in range(0, LENGTH, 1_111))
        received = client.push_stream(batches, window=64)  # capped to 16 credits
        assert received == LENGTH
        client.flush()
        for _ in range(4):
            client.query()
        assert server.pipeline.snapshot_cache_misses == 1
        assert server.pipeline.snapshot_cache_hits >= 3
        client.finish()
        served = client.query()
    assert served.items_processed == offline.items_processed == LENGTH
    assert dict(served.report.items) == dict(offline.report.items)


class TestServiceCLI:
    """The serve / push / query / checkpoint commands, driven in-process."""

    def _serve_in_thread(self, tmp_path, extra_args=(), name="ready.txt"):
        ready = os.path.join(tmp_path, name)
        args = ["serve", "--port", "0", "--ready-file", ready, *extra_args]
        thread = threading.Thread(target=main, args=(args,), daemon=True)
        thread.start()
        for _ in range(200):
            if os.path.exists(ready) and os.path.getsize(ready):
                break
            threading.Event().wait(0.05)
        else:
            raise AssertionError("server never wrote its ready file")
        with open(ready, "r", encoding="utf-8") as handle:
            return thread, handle.read().strip()

    def test_cli_round_trip_matches_offline(self, tmp_path, capsys, stream):
        trace = os.path.join(tmp_path, "trace.txt")
        save_stream(stream, trace)
        assert main(["heavy-hitters", trace, "--epsilon", "0.02", "--phi", "0.05",
                     "--seed", "5", "--batch-size", str(CHUNK)]) == 0
        offline_lines = [line for line in capsys.readouterr().out.splitlines()
                         if line.startswith(("item\t", "item ", "reported:"))]
        thread, endpoint = self._serve_in_thread(
            tmp_path,
            extra_args=["--universe", str(UNIVERSE), "--stream-length", str(LENGTH),
                        "--epsilon", "0.02", "--phi", "0.05", "--seed", "5",
                        "--chunk-size", str(CHUNK)],
        )
        assert main(["push", trace, "--connect", endpoint,
                     "--batch-size", "3000", "--finish"]) == 0
        capsys.readouterr()
        assert main(["query", "--connect", endpoint, "--shutdown"]) == 0
        served_out = capsys.readouterr().out
        served_lines = [line for line in served_out.splitlines()
                        if line.startswith(("item\t", "item ", "reported:"))]
        assert "final: true" in served_out
        assert served_lines == offline_lines
        thread.join(timeout=10.0)
        assert not thread.is_alive()

    def test_cli_checkpoint_restore_flow(self, tmp_path, capsys, stream):
        trace = os.path.join(tmp_path, "trace.txt")
        save_stream(stream, trace)
        ckpt = os.path.join(tmp_path, "state.ckpt")
        half = (LENGTH // (2 * CHUNK)) * CHUNK
        thread, endpoint = self._serve_in_thread(
            tmp_path,
            extra_args=["--universe", str(UNIVERSE), "--stream-length", str(LENGTH),
                        "--seed", "5", "--chunk-size", str(CHUNK)],
        )
        assert main(["push", trace, "--connect", endpoint, "--limit", str(half)]) == 0
        assert main(["checkpoint", ckpt, "--connect", endpoint, "--shutdown"]) == 0
        thread.join(timeout=10.0)
        out = capsys.readouterr().out
        assert f"items_processed: {half}" in out
        thread, endpoint = self._serve_in_thread(
            tmp_path, extra_args=["--restore", ckpt], name="ready2.txt"
        )
        assert main(["push", trace, "--connect", endpoint, "--skip", str(half),
                     "--finish"]) == 0
        capsys.readouterr()
        assert main(["query", "--connect", endpoint, "--shutdown"]) == 0
        out = capsys.readouterr().out
        assert f"items_processed: {LENGTH}" in out
        assert "final: true" in out
        thread.join(timeout=10.0)

    def test_serve_requires_sizing_flags(self, capsys):
        with pytest.raises(SystemExit, match="stream-length"):
            main(["serve", "--port", "0"])

    def test_push_rejects_negative_slice_flags(self, tmp_path):
        trace = os.path.join(tmp_path, "t.txt")
        with pytest.raises(SystemExit):
            main(["push", trace, "--connect", "127.0.0.1:1", "--skip", "-1"])
        with pytest.raises(SystemExit):
            main(["push", trace, "--connect", "127.0.0.1:1", "--limit", "-2"])

    def test_push_rejects_non_positive_window(self, tmp_path):
        trace = os.path.join(tmp_path, "t.txt")
        with pytest.raises(SystemExit, match="window"):
            main(["push", trace, "--connect", "127.0.0.1:1", "--window", "0"])

    def test_cli_windowed_push_matches_offline(self, tmp_path, capsys, stream):
        """push --window W must diff clean against the offline CLI replay."""
        trace = os.path.join(tmp_path, "trace.txt")
        save_stream(stream, trace)
        assert main(["heavy-hitters", trace, "--epsilon", "0.02", "--phi", "0.05",
                     "--seed", "5", "--batch-size", str(CHUNK)]) == 0
        offline_lines = [line for line in capsys.readouterr().out.splitlines()
                         if line.startswith(("item\t", "item ", "reported:"))]
        thread, endpoint = self._serve_in_thread(
            tmp_path,
            extra_args=["--universe", str(UNIVERSE), "--stream-length", str(LENGTH),
                        "--epsilon", "0.02", "--phi", "0.05", "--seed", "5",
                        "--chunk-size", str(CHUNK)],
            name="ready_window.txt",
        )
        assert main(["push", trace, "--connect", endpoint,
                     "--batch-size", "3000", "--window", "8", "--finish"]) == 0
        capsys.readouterr()
        assert main(["query", "--connect", endpoint, "--shutdown"]) == 0
        served_lines = [line for line in capsys.readouterr().out.splitlines()
                        if line.startswith(("item\t", "item ", "reported:"))]
        assert served_lines == offline_lines
        thread.join(timeout=10.0)

    def test_explicit_zero_sizes_rejected_not_defaulted(self, tmp_path):
        """An explicit 0 must error, never silently become the default."""
        trace = os.path.join(tmp_path, "t.txt")
        with pytest.raises(SystemExit, match="chunk-size"):
            main(["serve", "--universe", "10", "--stream-length", "10",
                  "--chunk-size", "0"])
        with pytest.raises(SystemExit, match="queue-depth"):
            main(["serve", "--restore", "nope.ckpt", "--queue-depth", "0"])
        with pytest.raises(SystemExit, match="batch-size"):
            main(["push", trace, "--connect", "127.0.0.1:1", "--batch-size", "0"])
        with pytest.raises(SystemExit, match="batch-size"):
            main(["heavy-hitters", trace, "--batch-size", "0"])
