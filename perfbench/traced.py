"""The traced pass: the run's inputs replayed in-process through each layer.

The replay calls the same public functions the served path goes through —
``encode_items``/``send_frame`` and ``recv_frame``/``decode_items`` over a
socket pair, ``WriteAheadLog.append``, ``rechunk_arrays``,
``PipelinedExecutor.ingest_chunk``/``snapshot``/``sink_state``,
``Checkpointer.save``/``load``, ``StreamRegistry.create``/``push``/``query``
and the sketches' ``insert_many``/``report`` — with spans recorded around
each call by :mod:`spans`.  It runs on one thread, after the served pass.
"""

from __future__ import annotations

import contextlib
import os
import socket
from typing import Dict, List, Tuple

import numpy as np

from repro.baselines.misra_gries import MisraGries
from repro.core.heavy_hitters_optimal import OptimalListHeavyHitters
from repro.durability.wal import WriteAheadLog
from repro.observability.metrics import MetricRegistry
from repro.pipeline import PipelinedExecutor
from repro.primitives.batching import rechunk_arrays
from repro.primitives.rng import RandomSource
from repro.service import protocol
from repro.service.checkpoint import Checkpointer
from repro.service.registry import StreamRegistry
from spans import SpanRecorder
from workloads import (
    EPSILON, PHI, UNIVERSE, Inputs, Plan, checkpoint_positions, rounds, server_seed, stream_name,
)

#: Spans whose self time counts toward the served ingest path.
INGEST_PHASE = "ingest"


def _wrap_all(recorder: SpanRecorder) -> contextlib.ExitStack:
    """Wrap every traced method for the duration of the returned stack."""
    stack = contextlib.ExitStack()
    for owner, attribute, name in (
        (OptimalListHeavyHitters, "insert_many", "core.insert_many"),
        (OptimalListHeavyHitters, "report", "core.report"),
        (MisraGries, "insert_many", "baselines.insert_many"),
        (MisraGries, "report", "baselines.report"),
        (PipelinedExecutor, "ingest_chunk", "pipeline.ingest_chunk"),
        (PipelinedExecutor, "snapshot", "pipeline.snapshot"),
        (PipelinedExecutor, "sink_state", "pipeline.sink_state"),
        (Checkpointer, "save", "checkpoint.save"),
        (Checkpointer, "load", "checkpoint.load"),
        (WriteAheadLog, "append", "wal.append"),
        (StreamRegistry, "create", "registry.create"),
        (StreamRegistry, "push", "registry.push"),
        (StreamRegistry, "query", "registry.query"),
    ):
        stack.enter_context(recorder.patched(owner, attribute, name))
    return stack


def _sketch(plan: Plan, seed: int):
    """The sketch ``repro serve`` builds for ``plan`` (same constructor arguments)."""
    if plan.algorithm == "optimal":
        return OptimalListHeavyHitters(
            epsilon=EPSILON, phi=PHI, universe_size=UNIVERSE,
            stream_length=plan.total_items, rng=RandomSource(server_seed(seed)),
        )
    return MisraGries(epsilon=EPSILON, universe_size=UNIVERSE, stream_length_hint=plan.total_items)


def _report_kwargs(plan: Plan) -> Dict[str, float]:
    return {"phi": PHI} if plan.algorithm == "misra-gries" else {}


class _Wire:
    """Frames pushed through a local socket pair with the protocol's functions."""

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        self.client, self.server = socket.socketpair(socket.AF_UNIX, socket.SOCK_STREAM)
        # One thread sends a whole frame before receiving it, so the socket
        # buffers must hold the largest frame; a timeout turns a too-small
        # buffer into an error instead of a hang.
        for end, option in ((self.client, socket.SO_SNDBUF), (self.server, socket.SO_RCVBUF)):
            end.setsockopt(socket.SOL_SOCKET, option, 1 << 20)
            end.settimeout(30.0)
        self.bytes = 0
        self.items = 0

    def _count(self, size: int) -> None:
        self.bytes += size

    def carry(self, frame: np.ndarray, stream: str = "") -> np.ndarray:
        """Encode, send, receive and decode one push frame."""
        header = {"cmd": "push"}
        if stream:
            header["stream"] = stream
        with self.recorder.span("protocol.encode"):
            count, payload = protocol.encode_items(frame)
            header["items"] = count
            protocol.send_frame(self.client, header, payload, on_bytes=self._count)
        with self.recorder.span("protocol.decode"):
            request, body = protocol.recv_frame(self.server)
            items = protocol.decode_items(request, body)
        self.items += count
        return items

    def close(self) -> None:
        self.client.close()
        self.server.close()


def _per_item(totals: Dict[str, Tuple[int, float]], name: str, items: int) -> float:
    return 1e6 * totals.get(name, (0, 0.0))[1] / items if items else 0.0


def _mean(totals: Dict[str, Tuple[int, float]], name: str, scale: float) -> float:
    count, seconds = totals.get(name, (0, 0.0))
    return scale * seconds / count if count else 0.0


def _sum_counter(metrics, name: str) -> float:
    family = metrics.snapshot()["metrics"].get(name)
    if family is None:
        return 0.0
    return float(sum(series.get("value", series.get("count", 0)) for series in family["series"]))


def run(plan: Plan, inputs: Inputs, run_dir: str, seed: int) -> Dict[str, float]:
    """Replay the run's inputs and return every per-layer value it measures.

    Besides the per-layer metrics the result carries ``_ingest_self_seconds``:
    the summed self time of every span on the ingest path, which the caller
    compares with the served ingest time.
    """
    recorder = SpanRecorder()
    wire = _Wire(recorder)
    try:
        with _wrap_all(recorder):
            if plan.tenants:
                values = _tenants(plan, inputs, run_dir, recorder, wire)
            else:
                values = _default_stream(plan, inputs, run_dir, seed, recorder, wire)
    finally:
        wire.close()
    totals = recorder.by_name()
    values.update({
        "protocol.encode_us_per_frame": _mean(totals, "protocol.encode", 1e6),
        "protocol.decode_us_per_frame": _mean(totals, "protocol.decode", 1e6),
        "protocol.wire_bytes_per_item": wire.bytes / wire.items,
        "pipeline.snapshot_ms": _mean(totals, "pipeline.snapshot", 1e3),
        "pipeline.sink_state_ms": _mean(totals, "pipeline.sink_state", 1e3),
        "checkpoint.save_ms": _mean(totals, "checkpoint.save", 1e3),
        "checkpoint.load_ms": _mean(totals, "checkpoint.load", 1e3),
        "core.report_ms": _mean(totals, "core.report", 1e3),
        "_ingest_self_seconds": sum(
            seconds for _, seconds in recorder.by_name((INGEST_PHASE,)).values()
        ),
    })
    recorder.write(os.path.join(run_dir, "spans.jsonl.gz"))
    return values


def _default_stream(plan: Plan, inputs: Inputs, run_dir: str, seed: int,
                    recorder: SpanRecorder, wire: _Wire) -> Dict[str, float]:
    metrics = MetricRegistry()
    sketch = _sketch(plan, seed)
    executor = PipelinedExecutor(sketch=sketch, chunk_size=plan.chunk_items,
                                        registry=metrics)
    wal = None
    if plan.wal:
        wal = WriteAheadLog(os.path.join(run_dir, "traced-wal"), registry=metrics)
    checkpointer = Checkpointer(registry=metrics)
    kwargs = _report_kwargs(plan)
    items = inputs.items
    checkpoint_bytes = []
    carry = np.empty(0, dtype=np.int64)
    try:
        for index, (segment, acks) in enumerate(rounds(plan)):
            frames = [items[start:start + plan.frame_items]
                      for start in range(segment.start, segment.stop, plan.frame_items)]
            carry = _ingest(frames, carry, recorder, wire, wal, executor, INGEST_PHASE,
                            plan.chunk_items)
            recorder.new_trace("query")
            executor.snapshot(report_kwargs=kwargs)
            recorder.new_trace("checkpoint")
            path = os.path.join(run_dir, "ckpt", f"traced{index}.ckpt")
            checkpointer.save(path, executor.sink_state(), config={"traced": True})
            checkpoint_bytes.append(os.path.getsize(path))
            checkpointer.load(path)
            os.unlink(path)
            frames = [items[start:start + plan.ack_frame_items]
                      for start in range(acks.start, acks.stop, plan.ack_frame_items)]
            carry = _ingest(frames, carry, recorder, wire, wal, executor, "ack",
                            plan.chunk_items)
        recorder.new_trace("finish")
        if carry.size:
            executor.ingest_chunk(carry)
        space_bits = float(sketch.space_bits())
        executor.finalize(report_kwargs=kwargs)
    finally:
        if wal is not None:
            wal.close()
    totals = recorder.by_name()
    ingested = plan.total_items
    return {
        "core.insert_many_us_per_item": _per_item(totals, "core.insert_many", ingested),
        "core.space_bits": space_bits if plan.algorithm == "optimal" else 0.0,
        "baselines.insert_many_us_per_item": _per_item(totals, "baselines.insert_many", ingested),
        "pipeline.ingest_chunk_us_per_item": _per_item(totals, "pipeline.ingest_chunk", ingested),
        "pipeline.rechunk_us_per_item": _per_item(totals, "pipeline.rechunk", ingested),
        "checkpoint.bytes": float(np.mean(checkpoint_bytes)),
        "wal.append_us_per_frame": _mean(totals, "wal.append", 1e6),
        "wal.fsyncs": _sum_counter(metrics, "repro_wal_fsync_seconds"),
        "wal.bytes_per_item": (
            _sum_counter(metrics, "repro_wal_bytes_total") / ingested if plan.wal else 0.0
        ),
        "registry.push_us_warm": 0.0,
        "registry.push_us_cold": 0.0,
        "registry.evictions": 0.0,
        "registry.restores": 0.0,
        "registry.query_ms": 0.0,
        "registry.create_ms_per_stream": 0.0,
    }


def _ingest(frames: List[np.ndarray], carry: np.ndarray, recorder: SpanRecorder,
            wire: _Wire, wal, executor, phase: str, chunk_items: int) -> np.ndarray:
    """Default-stream pushes: wire and journal each frame, then ingest whole chunks.

    Returns the items past the last whole chunk; like the server's
    re-chunker, they wait for the next frames (or the end of the stream).
    """
    decoded = [carry] if carry.size else []
    for frame in frames:
        recorder.new_trace(phase)
        items = wire.carry(frame)
        if wal is not None:
            wal.append(items)
        decoded.append(items)
    recorder.new_trace(phase)
    chunks = rechunk_arrays(decoded, chunk_items)
    while True:
        with recorder.span("pipeline.rechunk"):
            chunk = next(chunks, None)
        if chunk is None:
            return np.empty(0, dtype=np.int64)
        if chunk.size < chunk_items:
            return chunk
        executor.ingest_chunk(chunk)


def _tenants(plan: Plan, inputs: Inputs, run_dir: str,
             recorder: SpanRecorder, wire: _Wire) -> Dict[str, float]:
    metrics = MetricRegistry()
    kwargs = _report_kwargs(plan)

    def build_sink(name: str):
        return PipelinedExecutor(
            sketch=_sketch(plan, 0), chunk_size=plan.chunk_items, registry=metrics
        )

    registry = StreamRegistry(
        build_sink, plan.chunk_items, max_live_streams=plan.max_live_streams,
        spill_dir=os.path.join(run_dir, "traced-spill"), registry=metrics,
    )
    names = [stream_name(index) for index in range(plan.streams)]
    frames = inputs.items.reshape(plan.tenant_pushes, plan.tenant_frame_items)
    checkpointer = Checkpointer(registry=metrics)
    try:
        recorder.new_trace("setup")
        for name in names:
            registry.create(name)
        before = _residency_counts(registry)
        # The served schedule runs beside the pusher; here its queries are
        # spread evenly over the push sequence.
        query_after = np.linspace(0, plan.tenant_pushes, plan.queries, endpoint=False).astype(int)
        next_query = 0
        checkpoint_at = checkpoint_positions(plan).tolist()
        checkpoint_streams = np.resize(inputs.sample, len(checkpoint_at)).tolist()
        checkpoint_bytes = []
        for push_index in range(plan.tenant_pushes):
            while next_query < plan.queries and query_after[next_query] == push_index:
                recorder.new_trace("query")
                registry.query(names[int(inputs.query_streams[next_query])], report_kwargs=kwargs)
                next_query += 1
            while checkpoint_at and checkpoint_at[0] == push_index:
                checkpoint_at.pop(0)
                name = names[checkpoint_streams.pop(0)]
                recorder.new_trace("checkpoint")
                path = os.path.join(run_dir, "ckpt", f"traced-{name}.ckpt")
                checkpointer.save(path, registry.checkpoint_state(name), config={"stream": name})
                checkpoint_bytes.append(os.path.getsize(path))
            name = names[int(inputs.push_streams[push_index])]
            recorder.new_trace(INGEST_PHASE)
            items = wire.carry(frames[push_index], stream=name)
            live = registry.stream_info(name)["live"]
            registry.push(name, items)
            recorder.spans[-1].attrs["cold"] = not live
        after = _residency_counts(registry)
    finally:
        registry.close()
    totals = recorder.by_name()
    self_time = recorder.self_times()
    pushes = [span for span in recorder.spans if span.name == "registry.push"]
    warm = [self_time[span.span_id] for span in pushes if not span.attrs["cold"]]
    cold = [self_time[span.span_id] for span in pushes if span.attrs["cold"]]
    ingested = plan.total_items
    return {
        "core.insert_many_us_per_item": 0.0,
        "core.space_bits": 0.0,
        "baselines.insert_many_us_per_item": _per_item(totals, "baselines.insert_many", ingested),
        "pipeline.ingest_chunk_us_per_item": _per_item(totals, "pipeline.ingest_chunk", ingested),
        "pipeline.rechunk_us_per_item": 0.0,
        "checkpoint.bytes": float(np.mean(checkpoint_bytes)),
        "wal.append_us_per_frame": 0.0,
        "wal.fsyncs": 0.0,
        "wal.bytes_per_item": 0.0,
        "registry.push_us_warm": 1e6 * float(np.mean(warm)) if warm else 0.0,
        "registry.push_us_cold": 1e6 * float(np.mean(cold)) if cold else 0.0,
        "registry.evictions": float(after[0] - before[0]),
        "registry.restores": float(after[1] - before[1]),
        "registry.query_ms": _mean(totals, "registry.query", 1e3),
        "registry.create_ms_per_stream": _mean(totals, "registry.create", 1e3),
    }


def _residency_counts(registry) -> Tuple[int, int]:
    """Total (evictions, restores) over every stream so far."""
    records = registry.list_streams()
    return (sum(r["evictions"] for r in records), sum(r["restores"] for r in records))

