"""The long-running heavy-hitter server: network ingest, live queries, checkpoints.

:class:`IngestServer` is the process boundary the scaling ladder (batching →
sharding → async → **service**) crosses: item batches arrive from
:class:`~repro.service.client.ServiceClient` peers over TCP or a Unix socket, flow
through a bounded push queue into a :class:`~repro.pipeline.PipelinedExecutor`
(single sketch or sharded fan-out — the server is sink-agnostic, exactly like the
pipeline), and Definition 1 heavy-hitter queries are answered **mid-ingest** from
chunk-aligned snapshots while ingestion continues.  A :class:`QueryHandler` owns
the read-only commands; the server owns the ingestion lifecycle (push → flush →
finish) and checkpointing via :class:`~repro.service.checkpoint.Checkpointer`.

Equivalence contract
--------------------

The server re-chunks pushed batches to exact ``chunk_size`` boundaries
(:class:`~repro.pipeline.producer.ArrayBatchSource`), so the sketches see the same
chunk sequence an offline ``run_chunks`` replay of the concatenated pushes would
see.  With identical seeds and chunk size, the final served report is therefore
**bit-for-bit identical** to the offline replay — measured, not assumed, by
the service round-trip tests.  The guarantee is stated for a single pusher (or externally ordered
pushes): concurrent pushers interleave batches nondeterministically, which keeps
the (ε,ϕ) guarantee but not bit-for-bit replayability.

Lifecycle
---------

``start()`` binds the socket and launches three kinds of thread: one acceptor, one
ingestion loop (the pipeline's ``run`` over the push queue), and one handler per
connection.  ``finish`` (the command) closes the push queue, waits for the
end-of-stream merge, and leaves the final report serving; ``shutdown`` (the
command) or :meth:`IngestServer.close` stops everything, joining every thread on
every path.  A server whose ingestion failed (e.g. a sketch raised) keeps
answering control commands with the failure message instead of hanging its
clients.
"""

from __future__ import annotations

import logging
import os
import queue
import socket
import threading
import time
from typing import Dict, Mapping, Optional, Tuple

import numpy as np

from repro.observability.metrics import MetricRegistry, resolve_registry
from repro.observability.tracing import resolve_tracer
from repro.pipeline import ArrayBatchSource, PipelinedExecutor
from repro.replication import ReplicaGroup
from repro.sharding.mergeable import merge_all
from repro.service.checkpoint import Checkpointer
from repro.service.registry import DEFAULT_STREAM, StreamRegistry
from repro.service.protocol import (
    PROTOCOL_VERSION,
    STATS_SCHEMA_VERSION,
    ProtocolError,
    decode_items,
    recv_frame,
    report_to_payload,
    send_frame,
)

logger = logging.getLogger("repro.service")

_FINISH = object()  # push-queue sentinel: no more batches will arrive

#: How long ``flush``/``finish`` wait by default before giving up (seconds).
DEFAULT_WAIT_TIMEOUT = 60.0


class QueryHandler:
    """Answers the read-only service commands: ``config``, ``query``, ``stats``.

    Mid-ingest queries go through :meth:`PipelinedExecutor.snapshot` — a
    chunk-aligned deep copy merged and reported on while ingestion continues — so
    a served answer is exactly what a fresh run over the already-ingested prefix
    would report (Definition 1 semantics on the prefix).  Once the server has
    finished, the final run result answers instead, at zero copying cost.
    """

    def __init__(self, server: "IngestServer") -> None:
        self._server = server

    def config(self) -> Dict[str, object]:
        """The server's parameters and live counters (the ``config`` reply)."""
        server = self._server
        reply: Dict[str, object] = {
            "ok": True,
            "protocol": PROTOCOL_VERSION,
            "chunk_size": server.pipeline.chunk_size,
            "queue_depth": server.pipeline.queue_depth,
            "num_shards": server.pipeline.num_shards,
            # The credit grant for pipelined pushes (ServiceClient.push_stream):
            # the client may keep this many un-acked push frames in flight, which
            # is exactly the bound on batches the server will buffer ahead of
            # ingestion, so pipelining never outruns the backpressure contract.
            "push_credits": server.push_queue_depth,
            "items_received": server.items_received,
            "items_processed": server.pipeline.items_processed,
            "finished": server.finished,
            "replicas": server.num_replicas,
            "degraded": server.degraded,
        }
        streams = server.streams
        if streams is not None:
            reply["max_live_streams"] = streams.max_live_streams
            reply["streams"] = streams.stream_count
            reply["live_streams"] = streams.live_count
        reply.update(server.config)
        return reply

    def query(self, request: Mapping[str, object]) -> Dict[str, object]:
        """A heavy-hitter report: mid-ingest snapshot or final result.

        ``request["phi"]``, when present, is forwarded to the sketch's
        ``report()`` — only meaningful for sketches that take the threshold at
        report time (Misra–Gries and friends); the paper's algorithms fix ϕ at
        construction and reject the override.
        """
        server = self._server
        kwargs = dict(server.report_kwargs)
        if "phi" in request:
            kwargs["phi"] = float(request["phi"])  # type: ignore[arg-type]

        def final_reply(result) -> Dict[str, object]:
            if kwargs != dict(server.report_kwargs):
                raise ValueError(
                    "cannot re-report a finished run with different report "
                    "arguments; query without overrides"
                )
            return {
                "ok": True,
                "final": True,
                "items_processed": result.items_processed,
                "space_bits": result.space_bits(),
                "degraded": bool(getattr(result, "degraded", False)),
                "report": report_to_payload(result.report),
            }

        result = server.result
        if result is not None:
            return final_reply(result)
        server.raise_if_failed()
        try:
            snapshot = server.pipeline.snapshot(report_kwargs=kwargs)
        except RuntimeError:
            # Lost the race with finalize: the final result is (about to be) set.
            return final_reply(server.wait_result(timeout=DEFAULT_WAIT_TIMEOUT))
        # A single-sink snapshot carries the merged sketch; a replicated
        # GroupSnapshot carries the summed footprint directly.
        sketch = getattr(snapshot, "sketch", None)
        space_bits = int(sketch.space_bits()) if sketch is not None else snapshot.space_bits
        return {
            "ok": True,
            "final": False,
            "items_processed": snapshot.items_processed,
            "space_bits": space_bits,
            "degraded": bool(getattr(snapshot, "degraded", False)),
            "report": report_to_payload(snapshot.report),
        }

    def _stats_common(self) -> Dict[str, object]:
        """The schema-v2 keys every ``stats`` reply carries, whatever its shape.

        ``stats_schema`` versions the reply the way ``protocol`` versions the
        frame layer (:data:`~repro.service.protocol.STATS_SCHEMA_VERSION`);
        ``pipeline`` surfaces the ingestion seam's own accounting — chunking
        parameters and the snapshot-cache hit/miss counters — uniformly for
        single and replicated sinks (a :class:`~repro.replication.ReplicaGroup`
        sums its replicas' cache counters).
        """
        server = self._server
        pipeline = server.pipeline
        return {
            "stats_schema": STATS_SCHEMA_VERSION,
            "pipeline": {
                "chunk_size": pipeline.chunk_size,
                "queue_depth": pipeline.queue_depth,
                "push_queue_depth": server.push_queue_depth,
                "snapshot_cache_hits": int(pipeline.snapshot_cache_hits),
                "snapshot_cache_misses": int(pipeline.snapshot_cache_misses),
            },
        }

    def stats(self) -> Dict[str, object]:
        """Space accounting and progress counters (the ``stats`` reply).

        Mid-ingest, the space numbers come from a merged copy of the sink state
        (:meth:`~repro.pipeline.PipelinedExecutor.sink_state` + merge, no report
        — a stats poll should not pay for heavy-hitter reporting it discards);
        after ``finish`` they come from the final result's combined
        :class:`~repro.primitives.space.SpaceMeter`.

        Every reply follows stats schema v2: it tags itself with
        ``stats_schema``, always carries ``degraded`` (``False`` for a
        single-executor server) and a ``pipeline`` section, and replicated
        final replies list per-replica ``space_bits`` exactly like the
        mid-ingest shape.  See docs/OBSERVABILITY.md for the full schema.
        """
        server = self._server

        def final_reply(result) -> Dict[str, object]:
            reply = {
                "ok": True,
                "final": True,
                "degraded": bool(getattr(result, "degraded", False)),
                "items_received": server.items_received,
                "items_processed": result.items_processed,
                "chunks": result.chunks,
                "shard_sizes": result.shard_sizes,
                "space_bits": result.space_bits(),
                "space_breakdown": {k: int(v) for k, v in result.space.breakdown().items()},
                "ingest_seconds": result.ingest_seconds,
                "combine_seconds": result.combine_seconds,
            }
            reply.update(self._stats_common())
            group = server.group
            if group is not None:
                replicas = group.replica_status_payload()
                # Schema v2: the final shape lists per-replica space like the
                # mid-ingest shape, so a dashboard reads one key either way.
                replica_results = getattr(result, "replica_results", None)
                if replica_results is not None:
                    for index, replica_result in enumerate(replica_results):
                        if replica_result is not None:
                            replicas[index]["space_bits"] = replica_result.space_bits()
                reply["replicas"] = replicas
                reply["live_replicas"] = getattr(result, "live_replicas", group.live_replicas)
                reply["num_replicas"] = group.num_replicas
                reply["events"] = group.events_payload()
            return reply

        result = server.result
        if result is not None:
            return final_reply(result)
        server.raise_if_failed()
        group = server.group
        if group is not None:
            # The group owns the per-replica accounting (health, events,
            # per-replica space under a replica<i>/ prefix).
            try:
                live = group.live_stats()
            except RuntimeError:
                return final_reply(server.wait_result(timeout=DEFAULT_WAIT_TIMEOUT))
            live.update({"ok": True, "final": False,
                         "items_received": server.items_received})
            live.update(self._stats_common())
            return live
        try:
            state = server.pipeline.sink_state()
        except RuntimeError:
            # Same race as query(): finalize won; answer from the final result.
            return final_reply(server.wait_result(timeout=DEFAULT_WAIT_TIMEOUT))
        sketch = merge_all(state.sketches)
        reply = {
            "ok": True,
            "final": False,
            "degraded": False,
            "items_received": server.items_received,
            "items_processed": state.items_processed,
            "chunks": state.chunks,
            "shard_sizes": list(state.shard_sizes),
            "space_bits": int(sketch.space_bits()),
            "space_breakdown": {k: int(v) for k, v in sketch.space_breakdown().items()},
        }
        reply.update(self._stats_common())
        return reply


class IngestServer:
    """Serve a heavy-hitter sketch over a socket: push batches, query live, checkpoint.

    Args:
        pipeline: a fresh (or checkpoint-restored) :class:`PipelinedExecutor`
            — or a :class:`~repro.replication.ReplicaGroup`, which exposes the
            same ingestion surface; the server claims its one permitted run.
            With a group, query/stats replies carry ``degraded`` and
            per-replica health, and checkpoints capture the whole quorum.
        host / port: TCP endpoint (``port=0`` binds an ephemeral port, reread it
            from :attr:`address` after :meth:`start`).  Ignored when
            ``unix_socket`` is given.
        unix_socket: filesystem path for an ``AF_UNIX`` endpoint instead of TCP.
        universe_size: upper bound for eager validation of pushed items; invalid
            batches are rejected at the socket instead of poisoning the
            ingestion thread.  Inferred from the sink when omitted (the router's
            universe, or the sketch's ``universe_size`` attribute).
        config: parameter manifest echoed in ``config`` replies and stored in
            checkpoints (ε, ϕ, algorithm name, seed, stream length, …).
        report_kwargs: forwarded to every ``report()`` call — snapshot queries
            and the final merge alike (e.g. ``{"phi": 0.05}`` for Misra–Gries).
        push_queue_depth: bound on the queue of not-yet-ingested pushed batches;
            a pusher outrunning ingestion blocks in its push round-trip once the
            queue is full (backpressure over the socket), so server memory stays
            at most this many batches plus the pipeline's chunk queue.
        registry: the :class:`~repro.observability.MetricRegistry` recording the
            ``repro_service_*`` instruments (per-command latency and errors,
            bytes in/out, in-flight connections, push-queue depth); defaults to
            the process-wide registry — which the ``metrics`` command and the
            ``--metrics-port`` sidecar expose, so pass the *same* registry the
            pipeline uses for one unified catalog.
        tracer: a :class:`~repro.observability.Tracer` receiving one ``command``
            span per dispatched frame; ``None`` disables tracing.
        stream_factory: factory called with a stream name to build a fresh sink
            for that *named* stream (see :class:`~repro.service.StreamRegistry`);
            enables the ``stream`` frame key and the ``stream_create`` /
            ``stream_seal`` / ``stream_delete`` / ``stream_list`` commands.
            ``None`` (the default) refuses named streams — the implicit
            ``"default"`` stream always works either way.
        max_live_streams: bound on named streams with a resident sink; beyond
            it the least-recently-used stream is checkpoint-evicted to
            ``stream_spill_dir`` and lazily restored on its next push/query.
        stream_spill_dir: directory for eviction spill files; a private
            temporary directory when omitted.

    Raises:
        ValueError: if ``pipeline`` was already run or finalized.
    """

    def __init__(
        self,
        pipeline: "PipelinedExecutor | ReplicaGroup",
        host: str = "127.0.0.1",
        port: int = 0,
        unix_socket: Optional[str] = None,
        universe_size: Optional[int] = None,
        config: Optional[Mapping[str, object]] = None,
        report_kwargs: Optional[Mapping[str, object]] = None,
        push_queue_depth: int = 64,
        registry: Optional[MetricRegistry] = None,
        tracer=None,
        stream_factory=None,
        max_live_streams: Optional[int] = None,
        stream_spill_dir: Optional[str] = None,
        wal=None,
        wal_tail=None,
        stream_wal_dir: Optional[str] = None,
        wal_fsync: str = "always",
        wal_segment_bytes: Optional[int] = None,
    ) -> None:
        if pipeline._started or pipeline._finished:
            raise ValueError("IngestServer needs a fresh (or restored) PipelinedExecutor")
        if push_queue_depth <= 0:
            raise ValueError("push_queue_depth must be positive")
        self._registry = resolve_registry(registry)
        self._tracer = resolve_tracer(tracer)
        self._metric_commands = self._registry.counter(
            "repro_service_commands_total",
            "Frames dispatched, by command.",
            labels=("command",),
        )
        self._metric_command_errors = self._registry.counter(
            "repro_service_command_errors_total",
            "Frames answered with an error reply, by command.",
            labels=("command",),
        )
        self._metric_command_seconds = self._registry.histogram(
            "repro_service_command_seconds",
            "Per-command dispatch latency (request decode to reply built).",
            labels=("command",),
        )
        self._metric_bytes_in = self._registry.counter(
            "repro_service_bytes_received_total",
            "Wire bytes received across all connections (prefix + header + payload).",
        )
        self._metric_bytes_out = self._registry.counter(
            "repro_service_bytes_sent_total",
            "Wire bytes sent across all connections (prefix + header + payload).",
        )
        self._metric_connections = self._registry.gauge(
            "repro_service_connections_in_flight",
            "Currently served client connections.",
        )
        self._metric_push_queue_depth = self._registry.gauge(
            "repro_service_push_queue_depth",
            "Accepted batches waiting in the bounded push queue (credit-window "
            "occupancy: the credit grant equals the queue bound).",
        )
        self.pipeline = pipeline
        self.config: Dict[str, object] = dict(config or {})
        self.report_kwargs: Dict[str, object] = dict(report_kwargs or {})
        self._host, self._port = host, port
        self._unix_socket = unix_socket
        self._group: Optional[ReplicaGroup] = (
            pipeline if isinstance(pipeline, ReplicaGroup) else None
        )
        if universe_size is None:
            if self._group is not None:
                universe_size = self._group.infer_universe_size()
            elif pipeline.executor is not None:
                universe_size = pipeline.executor.router.universe_size
            else:
                universe_size = getattr(pipeline.sketch, "universe_size", None)
        self.universe_size = universe_size

        # Bounded: a client pushing faster than ingestion blocks in its push
        # round-trip (see _enqueue) instead of growing server memory without
        # limit.  Worst-case buffering is push_queue_depth batches of whatever
        # size clients chose, plus the pipeline's queue_depth chunks.  The same
        # number is the credit grant for pipelined pushes (config reply).
        self.push_queue_depth = push_queue_depth
        self._push_queue: "queue.Queue" = queue.Queue(maxsize=push_queue_depth)
        self._push_lock = threading.Lock()
        self._items_received = pipeline.items_processed  # restored prefix counts
        self._ingest_base = pipeline.items_processed  # where this run's re-chunking starts
        self._finishing = False
        self._draining = False  # graceful_stop in progress: refuse new pushes
        self._stopping = threading.Event()
        self._finished_event = threading.Event()
        self._result = None
        self._run_error: Optional[BaseException] = None
        self._listen_sock: Optional[socket.socket] = None
        self._unix_inode: Optional[Tuple[int, int]] = None
        self._accept_thread: Optional[threading.Thread] = None
        self._run_thread: Optional[threading.Thread] = None
        self._connections: set = set()
        self._connections_lock = threading.Lock()
        self._close_lock = threading.Lock()
        self._closed = False
        self.query_handler = QueryHandler(self)
        self.checkpointer = Checkpointer(registry=self._registry)
        # The default stream's write-ahead log: when set, _handle_push journals
        # every batch under the push lock *before* enqueueing, so the ack that
        # follows is a durability promise (see repro.durability).  The server
        # adopts the journal (closes it in close()); a recovery tail — acked
        # items recover_sink replayed that had not filled a chunk — is enqueued
        # here exactly once and never re-journaled (it is already on disk).
        self._wal = wal
        self._shutdown_checkpoint_written = False
        if wal_tail is not None:
            tail = np.ascontiguousarray(wal_tail, dtype=np.int64)
            if tail.size:
                self._push_queue.put(tail)
                self._items_received += int(tail.size)
        self.streams: Optional[StreamRegistry] = None
        if stream_factory is not None:
            self.streams = StreamRegistry(
                stream_factory,
                chunk_size=pipeline.chunk_size,
                queue_depth=pipeline.queue_depth,
                max_live_streams=max_live_streams,
                spill_dir=stream_spill_dir,
                registry=self._registry,
                wal_dir=stream_wal_dir,
                wal_fsync=wal_fsync,
                wal_segment_bytes=wal_segment_bytes,
            )
        elif max_live_streams is not None or stream_spill_dir is not None:
            raise ValueError(
                "max_live_streams/stream_spill_dir need a stream_factory: "
                "without one the server serves only the default stream"
            )
        elif stream_wal_dir is not None:
            raise ValueError(
                "stream_wal_dir needs a stream_factory: without one the "
                "server serves only the default stream"
            )

    # -- lifecycle ----------------------------------------------------------------------

    def start(self) -> "IngestServer":
        """Bind the endpoint and launch the acceptor and ingestion threads."""
        if self._listen_sock is not None:
            raise RuntimeError("this IngestServer has already been started")
        if self._unix_socket is not None:
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            if os.path.exists(self._unix_socket):
                os.unlink(self._unix_socket)
            sock.bind(self._unix_socket)
            # Remember which file *we* created: teardown may run long after a
            # successor server re-bound the same path, and must only ever
            # unlink its own socket file (see close()).
            stat = os.stat(self._unix_socket)
            self._unix_inode = (stat.st_dev, stat.st_ino)
        else:
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            sock.bind((self._host, self._port))
            self._host, self._port = sock.getsockname()[:2]
        sock.listen(16)
        # Accept with a timeout: closing a listening socket from another thread
        # does not reliably unblock a blocked accept() on Linux, so the acceptor
        # polls the stop flag instead of trusting close() to wake it.
        sock.settimeout(0.1)
        self._listen_sock = sock
        self._run_thread = threading.Thread(
            target=self._run, name="repro-service-ingest", daemon=True
        )
        self._run_thread.start()
        self._accept_thread = threading.Thread(
            target=self._accept, name="repro-service-accept", daemon=True
        )
        self._accept_thread.start()
        return self

    @property
    def address(self) -> Tuple[str, int]:
        """The bound TCP endpoint (host, port); meaningless for Unix sockets."""
        return self._host, self._port

    @property
    def endpoint(self) -> str:
        """The connect string clients use: ``host:port`` or ``unix:/path``."""
        if self._unix_socket is not None:
            return f"unix:{self._unix_socket}"
        return f"{self._host}:{self._port}"

    def serve_forever(self) -> None:
        """Block until a ``shutdown`` command (or :meth:`close`) stops the server."""
        self._stopping.wait()
        self.close()

    def close(self, join_timeout: float = 10.0) -> None:
        """Stop serving and join every thread; idempotent, safe from any thread.

        An unfinished ingestion run is finalized on whatever prefix arrived (the
        merge result is discarded); established connections are closed, which
        unblocks their handler threads.
        """
        with self._close_lock:
            if self._closed:
                return
            self._closed = True
        # Capture before the stop signal: once the run thread drains out it
        # finalizes the pipeline, and a finalized sink has no resumable state.
        self._write_shutdown_checkpoint()
        self._stopping.set()
        if self._listen_sock is not None:
            try:
                self._listen_sock.close()
            except OSError:
                pass
        # Unlink the Unix-socket path only if it is still the file this server
        # bound: a successor re-binding the same path during a delayed teardown
        # must not have its live socket deleted out from under it.
        if self._unix_socket is not None and self._unix_inode is not None:
            try:
                stat = os.stat(self._unix_socket)
                if (stat.st_dev, stat.st_ino) == self._unix_inode:
                    os.unlink(self._unix_socket)
            except OSError:
                pass
        if self._run_thread is not None:
            self._run_thread.join(timeout=join_timeout)
        with self._connections_lock:
            connections = list(self._connections)
        for conn in connections:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                conn.close()
            except OSError:
                pass
        if self._accept_thread is not None and threading.current_thread() is not self._accept_thread:
            self._accept_thread.join(timeout=join_timeout)
        if self.streams is not None:
            self.streams.close()
        if self._wal is not None:
            self._wal.close()

    def _write_shutdown_checkpoint(self) -> None:
        """Leave a checkpoint inside the journal directory on any clean stop.

        Every :meth:`close` is by definition clean (a crash never runs it), so
        the restart can restore this checkpoint instead of replaying the whole
        journal — and compaction reclaims the covered segments.  Written at
        most once; skipped after a run error (the journal alone is the truth
        then) or once the stream finished (nothing resumable remains).
        """
        if self._wal is None or self._run_error is not None:
            return
        if self._shutdown_checkpoint_written:
            return
        self._shutdown_checkpoint_written = True
        shutdown_path = os.path.join(self._wal.directory, "shutdown.ckpt")
        try:
            state = self.pipeline.sink_state()
            self.checkpointer.save(
                shutdown_path, state, config=self._manifest_config(),
                wal_position=self._wal_position_for(state),
            )
            self._maybe_compact_wal(shutdown_path, state.items_processed)
        except RuntimeError:
            pass  # finished stream: the WAL still holds the full history

    def graceful_stop(
        self,
        checkpoint_path: Optional[str] = None,
        drain_timeout: float = 30.0,
    ) -> Optional[Dict[str, object]]:
        """Stop cleanly: refuse new work, drain acked batches, checkpoint, close.

        The signal-handler path of ``repro serve``: every batch a client was
        told ``ok`` for is ingested (up to the chunk-aligned flush target)
        before the final checkpoint is taken, so the checkpoint never loses
        acked data.  New pushes are refused with an error reply the moment the
        drain starts; the listener stops accepting as part of :meth:`close`.

        Args:
            checkpoint_path: when set, write a final atomic checkpoint of the
                sink (single executor or whole replica group) after draining.
                Skipped silently if the stream already finished (a finished
                sink has no resumable state — the final report stands instead).
            drain_timeout: bound on waiting for the push queue to drain; on
                expiry whatever was ingested so far is checkpointed.

        Returns:
            The checkpoint manifest when one was written, else ``None``.
        """
        with self._push_lock:
            self._draining = True
        deadline = time.monotonic() + drain_timeout
        target = self._flush_target()
        while (self.pipeline.items_processed < target
               and not self._finished_event.is_set()
               and self._run_error is None
               and time.monotonic() < deadline):
            time.sleep(0.002)
        manifest: Optional[Dict[str, object]] = None
        if checkpoint_path is not None and self._run_error is None:
            try:
                state = self.pipeline.sink_state()
                manifest = self.checkpointer.save(
                    checkpoint_path, state, config=self._manifest_config(),
                    wal_position=self._wal_position_for(state),
                )
                logger.info("final checkpoint written to %s (%d items)",
                            checkpoint_path, state.items_processed)
                self._maybe_compact_wal(checkpoint_path, state.items_processed)
            except RuntimeError:
                pass  # already finished: the final result stands, nothing to resume
        self._write_shutdown_checkpoint()
        self.close()
        return manifest

    def __enter__(self) -> "IngestServer":
        return self.start()

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()

    # -- ingestion loop -----------------------------------------------------------------

    def _batch_source(self):
        """Drain the push queue; ends on the finish sentinel or server stop."""
        while True:
            try:
                batch = self._push_queue.get(timeout=0.05)
            except queue.Empty:
                if self._stopping.is_set():
                    return
                continue
            if batch is _FINISH:
                return
            yield batch

    def _run(self) -> None:
        try:
            self._result = self.pipeline.run(
                ArrayBatchSource(self._batch_source()),
                report_kwargs=self.report_kwargs,
            )
        except BaseException as exc:  # noqa: BLE001 - reported to clients
            self._run_error = exc
        finally:
            self._finished_event.set()

    # -- shared state accessors ---------------------------------------------------------

    @property
    def items_received(self) -> int:
        """Total items accepted over the socket (plus any restored prefix)."""
        with self._push_lock:
            return self._items_received

    @property
    def group(self) -> Optional[ReplicaGroup]:
        """The replicated sink, or ``None`` for a single-executor server."""
        return self._group

    @property
    def num_replicas(self) -> int:
        """Replica count behind the push queue (1 for a single-executor server)."""
        return 1 if self._group is None else self._group.num_replicas

    @property
    def degraded(self) -> bool:
        """True while a replicated sink is serving with a quarantined replica."""
        if self._group is not None:
            return self._group.degraded
        result = self._result
        return bool(getattr(result, "degraded", False))

    @property
    def finished(self) -> bool:
        """Whether the end-of-stream merge has completed (or failed)."""
        return self._finished_event.is_set()

    @property
    def result(self):
        """The final :class:`~repro.pipeline.PipelinedRunResult`, or ``None``."""
        return self._result

    def raise_if_failed(self) -> None:
        """Surface an ingestion-thread failure to the calling command handler."""
        if self._run_error is not None:
            raise RuntimeError(f"ingestion failed: {self._run_error!r}")

    def wait_result(self, timeout: float = DEFAULT_WAIT_TIMEOUT):
        """Wait for the final run result (used when a query races finalization)."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self._result is not None:
                return self._result
            self.raise_if_failed()
            if not self._finished_event.wait(timeout=0.05):
                continue
        if self._result is not None:
            return self._result
        self.raise_if_failed()
        raise TimeoutError("timed out waiting for the final run result")

    # -- command implementations --------------------------------------------------------

    def _enqueue(self, batch) -> None:
        """Put one batch (or the finish sentinel) with backpressure.

        Blocks while the bounded push queue is full — that stalls the pushing
        client's round-trip, which is the backpressure propagating to the socket
        — but keeps checking for an ingestion failure or shutdown so a dead
        consumer turns into an error reply instead of a hung handler thread.
        """
        while True:
            try:
                self._push_queue.put(batch, timeout=0.05)
                return
            except queue.Full:
                self.raise_if_failed()
                if self._stopping.is_set():
                    raise RuntimeError("the server is shutting down")

    def _validated_items(self, request: Mapping[str, object], payload: bytes) -> np.ndarray:
        """Decode a push payload and validate it against the universe eagerly.

        Shared by the default stream's queued path and the named-stream path:
        an invalid batch is rejected at the socket either way, before it can
        reach any sink.
        """
        items = decode_items(dict(request), payload)
        if self.universe_size is not None and items.size:
            low, high = int(items.min()), int(items.max())
            if low < 0 or high >= self.universe_size:
                offending = low if low < 0 else high
                raise ValueError(
                    f"pushed batch contains item {offending} outside the universe "
                    f"[0, {self.universe_size})"
                )
        return items

    def _handle_push(self, request: Mapping[str, object], payload: bytes) -> Dict[str, object]:
        items = self._validated_items(request, payload)
        with self._push_lock:
            if self._finishing:
                raise RuntimeError("the stream has been finished; no further pushes")
            if self._draining:
                raise RuntimeError("the server is draining for shutdown; push rejected")
            if self._stopping.is_set():
                # Refuse rather than ack-and-drop: after shutdown begins the
                # ingestion thread may already have drained and exited, so an
                # enqueued batch would silently never ingest.
                raise RuntimeError("the server is shutting down; push rejected")
            self.raise_if_failed()
            if self._wal is not None:
                # Journal before enqueue, inside the lock: the WAL sees acked
                # batches in ack order, and a failed append turns into an error
                # reply before the batch can reach the pipeline — the client
                # retries against a server that never claimed durability.
                self._wal.append(items)
            self._enqueue(items)
            self._items_received += items.size
            received = self._items_received
        # qsize is advisory (the ingest loop drains concurrently) — exactly what
        # a credit-window occupancy gauge wants to show.
        self._metric_push_queue_depth.set(self._push_queue.qsize())
        return {"ok": True, "items": int(items.size), "items_received": received}

    def _flush_target(self) -> int:
        """Items guaranteed ingestable right now: received, minus the re-chunk remainder.

        Pushed items past the last exact ``chunk_size`` boundary sit in the
        re-chunk buffer until more arrive (or ``finish`` flushes them), so a
        flush can only wait for the complete-chunk prefix.  The re-chunker
        counts from this run's starting point (``_ingest_base`` — nonzero for a
        checkpoint-restored server, whose restored prefix need not be aligned to
        the *current* chunk size), not from item zero.
        """
        received = self.items_received
        return received - (received - self._ingest_base) % self.pipeline.chunk_size

    def _handle_flush(self, request: Mapping[str, object], payload: bytes) -> Dict[str, object]:
        timeout = float(request.get("timeout", DEFAULT_WAIT_TIMEOUT))
        target = self._flush_target()
        deadline = time.monotonic() + timeout
        while self.pipeline.items_processed < target and not self._finished_event.is_set():
            self.raise_if_failed()
            if time.monotonic() > deadline:
                raise TimeoutError(
                    f"flush timed out: {self.pipeline.items_processed} of {target} "
                    "items ingested"
                )
            time.sleep(0.002)
        self.raise_if_failed()
        return {
            "ok": True,
            "items_received": self.items_received,
            "items_processed": self.pipeline.items_processed,
            "flushed_to": target,
        }

    def _handle_finish(self, request: Mapping[str, object], payload: bytes) -> Dict[str, object]:
        timeout = float(request.get("timeout", DEFAULT_WAIT_TIMEOUT))
        with self._push_lock:
            if not self._finishing:
                self._finishing = True
                self._enqueue(_FINISH)
        result = self.wait_result(timeout=timeout)
        return {
            "ok": True,
            "items_processed": result.items_processed,
            "chunks": result.chunks,
            "seconds": result.seconds,
            "ingest_seconds": result.ingest_seconds,
            "combine_seconds": result.combine_seconds,
            "space_bits": result.space_bits(),
        }

    def _handle_checkpoint(self, request: Mapping[str, object], payload: bytes) -> Dict[str, object]:
        path = request.get("path")
        if not isinstance(path, str) or not path:
            raise ValueError("checkpoint requires a server-side 'path'")
        state = self.pipeline.sink_state()  # raises after finish: nothing resumable
        manifest = self.checkpointer.save(
            path, state, config=self._manifest_config(),
            wal_position=self._wal_position_for(state),
        )
        self._maybe_compact_wal(path, state.items_processed)
        return {
            "ok": True,
            "path": path,
            "items_processed": state.items_processed,
            "chunks": state.chunks,
            "kind": state.kind,
            "format": manifest["format"],
        }

    def _wal_position_for(self, state) -> Optional[int]:
        """The journal position a checkpoint of ``state`` covers, or ``None``.

        The WAL numbers records in absolute stream items — the same currency as
        ``SinkState.items_processed`` — so the position a checkpoint covers is
        simply the item count of the state it holds.  Recording the journal's
        *current* end instead would be wrong: batches acked after the state was
        captured would be skipped by replay and lost.
        """
        if self._wal is None:
            return None
        return int(state.items_processed)

    def _maybe_compact_wal(self, path: str, position: int) -> None:
        """Compact the journal after a checkpoint *recovery can find*.

        Only checkpoints written inside the WAL directory drive compaction:
        recovery scans ``{wal_dir}/*.ckpt``, so deleting segments on the
        strength of a checkpoint saved anywhere else could strand the only
        copy of acked data behind a path no restart will look at.
        """
        if self._wal is None:
            return
        if os.path.dirname(os.path.abspath(path)) == self._wal.directory:
            self._wal.compact(position)

    def _manifest_config(self) -> Dict[str, object]:
        config = dict(self.config)
        config.setdefault("chunk_size", self.pipeline.chunk_size)
        config.setdefault("queue_depth", self.pipeline.queue_depth)
        config.setdefault("num_shards", self.pipeline.num_shards)
        config.setdefault("replicas", self.num_replicas)
        if self.universe_size is not None:
            config.setdefault("universe_size", self.universe_size)
        if self.report_kwargs:
            config.setdefault("report_kwargs", dict(self.report_kwargs))
        return config

    def _handle_shutdown(self, request: Mapping[str, object], payload: bytes) -> Dict[str, object]:
        # The reply is sent by the dispatch loop; close() runs from a helper
        # thread after a grace period so the reply usually beats the teardown
        # (clients also tolerate EOF here — the teardown *is* the answer).
        def _close_soon() -> None:
            time.sleep(0.05)
            self.close()

        threading.Thread(target=_close_soon, name="repro-service-shutdown", daemon=True).start()
        return {"ok": True, "stopping": True}

    # -- connection plumbing ------------------------------------------------------------

    def _accept(self) -> None:
        while not self._stopping.is_set():
            try:
                conn, _ = self._listen_sock.accept()
            except socket.timeout:  # poll the stop flag (it subclasses OSError)
                continue
            except OSError:
                return  # listening socket closed by close()
            if conn.family == socket.AF_INET:
                # Ack frames are tiny and sent back-to-back under pipelined
                # pushes; Nagle + delayed ACK would serialize them at ~40ms
                # each.  Every frame is one vectored send, so there is nothing
                # for Nagle to coalesce anyway.
                try:
                    conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                except OSError:
                    pass
            with self._connections_lock:
                self._connections.add(conn)
            threading.Thread(
                target=self._serve_connection,
                args=(conn,),
                name="repro-service-conn",
                daemon=True,
            ).start()

    def _serve_connection(self, conn: socket.socket) -> None:
        # Counter.inc/Gauge.inc short-circuit on a disabled registry, so wiring
        # the byte hooks unconditionally costs one no-op call per frame.
        self._metric_connections.inc()
        on_bytes_in = self._metric_bytes_in.inc
        on_bytes_out = self._metric_bytes_out.inc
        try:
            while not self._stopping.is_set():
                try:
                    frame = recv_frame(conn, on_bytes=on_bytes_in)
                except ProtocolError as exc:
                    # Log-and-drop: a truncated, oversized, or undecodable frame
                    # (including a disconnect mid-way through a pipelined push
                    # window) kills only this connection.  Complete frames
                    # received before the fault were already dispatched, so the
                    # sink holds exactly the fully-received batches — never a
                    # partial one.
                    logger.warning("dropping connection after protocol error: %s", exc)
                    return
                except OSError:
                    return
                if frame is None:
                    return
                request, payload = frame
                reply = self._dispatch(request, payload)
                try:
                    send_frame(conn, reply, on_bytes=on_bytes_out)
                except (ProtocolError, OSError):
                    return
        finally:
            self._metric_connections.dec()
            with self._connections_lock:
                self._connections.discard(conn)
            try:
                conn.close()
            except OSError:
                pass

    #: Label values for the per-command instruments; an unrecognized ``cmd``
    #: records as ``"invalid"`` so a misbehaving peer cannot grow the label set.
    _KNOWN_COMMANDS = frozenset(
        {"push", "flush", "query", "stats", "metrics", "config",
         "checkpoint", "finish", "shutdown",
         "stream_create", "stream_seal", "stream_delete", "stream_list"}
    )

    # -- named streams ------------------------------------------------------------------

    def _require_streams(self) -> StreamRegistry:
        if self.streams is None:
            raise RuntimeError(
                "this server was started without named-stream support "
                "(no stream_factory); only the default stream is served"
            )
        return self.streams

    @staticmethod
    def _stream_name(request: Mapping[str, object]) -> str:
        name = request.get("stream")
        if not isinstance(name, str) or not name:
            raise ValueError("this command requires a 'stream' name")
        if name == DEFAULT_STREAM:
            raise ValueError(
                f"{DEFAULT_STREAM!r} is the implicit stream; lifecycle "
                "commands apply to named streams only"
            )
        return name

    def _stream_report_kwargs(self, request: Mapping[str, object]) -> Dict[str, object]:
        kwargs = dict(self.report_kwargs)
        if "phi" in request:
            kwargs["phi"] = float(request["phi"])  # type: ignore[arg-type]
        return kwargs

    def _handle_stream_create(self, request: Mapping[str, object], payload: bytes) -> Dict[str, object]:
        info = self._require_streams().create(self._stream_name(request))
        reply: Dict[str, object] = {"ok": True}
        reply.update(info)
        return reply

    def _handle_stream_seal(self, request: Mapping[str, object], payload: bytes) -> Dict[str, object]:
        name = self._stream_name(request)
        result = self._require_streams().seal(
            name, report_kwargs=self._stream_report_kwargs(request)
        )
        return {
            "ok": True,
            "stream": name,
            "items_processed": result.items_processed,
            "chunks": result.chunks,
            "seconds": result.seconds,
            "ingest_seconds": result.ingest_seconds,
            "combine_seconds": result.combine_seconds,
            "space_bits": result.space_bits(),
        }

    def _handle_stream_delete(self, request: Mapping[str, object], payload: bytes) -> Dict[str, object]:
        info = self._require_streams().delete(self._stream_name(request))
        reply: Dict[str, object] = {"ok": True}
        reply.update(info)
        return reply

    def _handle_stream_list(self, request: Mapping[str, object], payload: bytes) -> Dict[str, object]:
        streams = self._require_streams()
        return {
            "ok": True,
            "streams": streams.list_streams(),
            "max_live_streams": streams.max_live_streams,
            "live_streams": streams.live_count,
        }

    def _dispatch_stream(
        self, command: object, name: str, request: Dict[str, object], payload: bytes
    ) -> Dict[str, object]:
        """Route a data command addressed to a *named* stream.

        Named streams ingest synchronously on the handler thread (see
        :class:`~repro.service.StreamRegistry`): the push ack covers every
        complete chunk, so ``flush`` never waits and replies instantly.
        Replies mirror the default stream's shapes, plus a ``stream`` echo.
        """
        streams = self._require_streams()
        if command == "push":
            items = self._validated_items(request, payload)
            received = streams.push(name, items)
            return {
                "ok": True,
                "stream": name,
                "items": int(items.size),
                "items_received": received,
            }
        if command == "flush":
            reply: Dict[str, object] = {"ok": True, "stream": name}
            reply.update(streams.flush_info(name))
            return reply
        if command == "query":
            final, answer = streams.query(
                name, report_kwargs=self._stream_report_kwargs(request)
            )
            if final:
                return {
                    "ok": True,
                    "final": True,
                    "stream": name,
                    "items_processed": answer.items_processed,
                    "space_bits": answer.space_bits(),
                    "degraded": bool(getattr(answer, "degraded", False)),
                    "report": report_to_payload(answer.report),
                }
            sketch = getattr(answer, "sketch", None)
            space_bits = (
                int(sketch.space_bits()) if sketch is not None else answer.space_bits
            )
            return {
                "ok": True,
                "final": False,
                "stream": name,
                "items_processed": answer.items_processed,
                "space_bits": space_bits,
                "degraded": bool(getattr(answer, "degraded", False)),
                "report": report_to_payload(answer.report),
            }
        if command == "stats":
            reply = {"ok": True, "stats_schema": STATS_SCHEMA_VERSION}
            reply.update(streams.stream_info(name))
            return reply
        if command == "config":
            reply = self.query_handler.config()
            # Stream-scoped counters so push_stream's resume cursor (and its
            # credit warm-up) works per stream exactly as it does globally.
            reply["stream"] = name
            reply["items_received"] = streams.items_received(name)
            return reply
        if command == "checkpoint":
            path = request.get("path")
            if not isinstance(path, str) or not path:
                raise ValueError("checkpoint requires a server-side 'path'")
            state = streams.checkpoint_state(name)
            config = self._manifest_config()
            config["stream"] = name
            manifest = self.checkpointer.save(
                path, state, config=config,
                wal_position=streams.wal_position_for(name, state),
            )
            return {
                "ok": True,
                "stream": name,
                "path": path,
                "items_processed": state.items_processed,
                "chunks": state.chunks,
                "kind": state.kind,
                "format": manifest["format"],
            }
        if command == "finish":
            result = streams.seal(
                name, report_kwargs=self._stream_report_kwargs(request)
            )
            return {
                "ok": True,
                "stream": name,
                "items_processed": result.items_processed,
                "chunks": result.chunks,
                "seconds": result.seconds,
                "ingest_seconds": result.ingest_seconds,
                "combine_seconds": result.combine_seconds,
                "space_bits": result.space_bits(),
            }
        raise ValueError(f"command {command!r} does not accept a stream")

    def _handle_metrics(self, request: Mapping[str, object], payload: bytes) -> Dict[str, object]:
        """The ``metrics`` command: the registry snapshot as a JSON-safe reply.

        The same shape the sidecar's ``/metrics.json`` serves;
        :meth:`~repro.service.client.ServiceClient.metrics` returns it verbatim
        and ``repro metrics`` renders it with the shared Prometheus renderer.
        """
        reply: Dict[str, object] = {"ok": True}
        reply.update(self._registry.snapshot())
        return reply

    def _dispatch(self, request: Dict[str, object], payload: bytes) -> Dict[str, object]:
        command = request.get("cmd")
        observe = self._registry.enabled or self._tracer.enabled
        started = time.perf_counter() if observe else 0.0
        reply = self._dispatch_inner(command, request, payload)
        if observe:
            seconds = time.perf_counter() - started
            name = command if command in self._KNOWN_COMMANDS else "invalid"
            ok = bool(reply.get("ok", False))
            self._metric_commands.labels(command=name).inc()
            self._metric_command_seconds.labels(command=name).observe(seconds)
            if not ok:
                self._metric_command_errors.labels(command=name).inc()
            if self._tracer.enabled:
                self._tracer.emit("command", seconds=seconds, command=name, ok=ok)
        return reply

    def _dispatch_inner(
        self, command: object, request: Dict[str, object], payload: bytes
    ) -> Dict[str, object]:
        try:
            if command == "stream_create":
                return self._handle_stream_create(request, payload)
            if command == "stream_seal":
                return self._handle_stream_seal(request, payload)
            if command == "stream_delete":
                return self._handle_stream_delete(request, payload)
            if command == "stream_list":
                return self._handle_stream_list(request, payload)
            stream = request.get("stream", DEFAULT_STREAM)
            if not isinstance(stream, str) or not stream:
                raise ValueError("stream must be a non-empty string")
            if stream != DEFAULT_STREAM and command in self._KNOWN_COMMANDS:
                return self._dispatch_stream(command, stream, request, payload)
            if command == "push":
                return self._handle_push(request, payload)
            if command == "flush":
                return self._handle_flush(request, payload)
            if command == "query":
                return self.query_handler.query(request)
            if command == "stats":
                return self.query_handler.stats()
            if command == "metrics":
                return self._handle_metrics(request, payload)
            if command == "config":
                return self.query_handler.config()
            if command == "checkpoint":
                return self._handle_checkpoint(request, payload)
            if command == "finish":
                return self._handle_finish(request, payload)
            if command == "shutdown":
                return self._handle_shutdown(request, payload)
            raise ValueError(f"unknown command {command!r}")
        except Exception as exc:  # noqa: BLE001 - every command error becomes a reply
            return {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
