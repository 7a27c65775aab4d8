"""Crash recovery: newest valid checkpoint + WAL replay = the acked prefix.

:func:`recover_sink` is the single entry point a restarting server (or the
offline chaos harness) uses to rebuild ingest state from a WAL directory:

1. **sweep** stale ``*.ckpt.tmp`` files a crash stranded between the
   checkpointer's temp-write and its rename;
2. **repair** the journal — truncate a torn tail (partial or checksum-failing
   final record) left by a mid-append crash;
3. **restore** the newest *valid* checkpoint found in the directory, skipping
   corrupted ones (an interrupted checkpoint must never mask a good older one);
4. **replay** journal records strictly past the checkpoint's recorded WAL
   position, re-chunked at the original ``chunk_size`` so the rebuilt pipeline
   sees the same chunk boundaries the uninterrupted run would have;
5. **reopen** the journal for appending, so the recovered server keeps the
   same durability promise from its first post-restart ack.

The sub-chunk remainder of the replay — acked items that had not yet filled a
chunk — comes back as :attr:`RecoveredSink.tail` for the server to re-enqueue
(already journaled, so it must *not* be re-appended).  Because replay feeds
:meth:`~repro.pipeline.PipelinedExecutor.ingest_chunk` exactly ``chunk_size``
items at a time from the same item sequence, the recovered state equals an
offline replay round-tripped through the checkpointer at the same boundaries,
bit for bit, under the RNG contract (see docs/DURABILITY.md).
"""

from __future__ import annotations

import glob
import logging
import os
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.durability.wal import (
    DEFAULT_SEGMENT_BYTES,
    WalError,
    WriteAheadLog,
    list_segments,
    replay,
)
from repro.observability.metrics import MetricRegistry, resolve_registry
from repro.service.checkpoint import Checkpointer, CheckpointError

logger = logging.getLogger("repro.durability.recovery")


@dataclass
class RecoveredSink:
    """What :func:`recover_sink` hands back to the restarting server."""

    #: The rebuilt sink (``PipelinedExecutor`` or ``ReplicaGroup``), restored
    #: from the checkpoint (if any) and fed every complete replayed chunk.
    sink: object
    #: The journal, repaired and reopened for appending.
    wal: WriteAheadLog
    #: Replayed items that had not yet filled a chunk (``< chunk_size``).
    #: Already journaled — re-enqueue into the pipeline, never re-append.
    tail: np.ndarray
    #: Where the rebuilt state came from: ``"fresh"``, ``"checkpoint"``,
    #: ``"wal"``, or ``"checkpoint+wal"``.
    source: str
    #: Path of the checkpoint that was restored, if any.
    checkpoint_path: Optional[str] = None
    #: The restored checkpoint's manifest, if any.
    manifest: Optional[Dict[str, object]] = None
    #: Items replayed out of the journal (chunks + tail).
    recovered_items: int = 0
    #: Complete chunks replayed into the sink.
    recovered_chunks: int = 0
    #: Bytes truncated off a torn journal tail (0 when the tail was clean).
    torn_bytes: int = 0
    #: Stale ``*.ckpt.tmp`` files swept (satellite: the temp-file leak).
    swept_temp_files: List[str] = field(default_factory=list)

    @property
    def items_recovered_total(self) -> int:
        """Absolute item count the rebuilt server resumes at (sink + tail)."""
        return int(self.sink.items_processed) + int(self.tail.size)


def find_checkpoint(
    directory: str, checkpointer: Optional[Checkpointer] = None
) -> Optional[str]:
    """The path of the newest *valid* ``*.ckpt`` in ``directory``, or ``None``.

    "Newest" means highest ``items_processed`` (ties broken by name, so the
    choice is deterministic across runs).  Files that fail the checkpointer's
    integrity checks — truncated, flipped, wrong format — are skipped with a
    warning rather than aborting recovery: a crash *during* a checkpoint save
    cannot happen (the write is atomic), but a hand-damaged file must never
    mask an older good one.
    """
    checkpointer = checkpointer or Checkpointer()
    best_path: Optional[str] = None
    best_items = -1
    for path in sorted(glob.glob(os.path.join(directory, "*.ckpt"))):
        try:
            _, manifest = checkpointer.load(path)
        except (CheckpointError, OSError) as exc:
            logger.warning("recovery skipping unreadable checkpoint %r: %s",
                           path, exc)
            continue
        items = int(manifest.get("items_processed", 0))
        if items > best_items:
            best_items = items
            best_path = path
    return best_path


def recover_sink(
    directory: str,
    build_sink: Callable[[], object],
    chunk_size: int,
    checkpointer: Optional[Checkpointer] = None,
    fsync: str = "always",
    segment_bytes: Optional[int] = None,
    queue_depth: Optional[int] = None,
    registry: Optional[MetricRegistry] = None,
    tracer=None,
    fault_plan=None,
) -> RecoveredSink:
    """Rebuild ingest state from a WAL directory and reopen the journal.

    Args:
        directory: the WAL directory (created if missing).  Checkpoints are
            discovered *inside it* (``*.ckpt``); only those may drive journal
            compaction, because only they are guaranteed findable here.
        build_sink: zero-argument factory for a fresh sink, used when no valid
            checkpoint exists; must embed the run's full construction recipe
            (sketch, seed, chunk size, registry, tracer) so a fresh recovery
            is constructed exactly like a fresh serve.
        chunk_size: the pipeline chunk size; replay feeds the sink exactly
            this many items per ``ingest_chunk`` call so recovered chunk
            boundaries match the uninterrupted run's.
        checkpointer: shared :class:`Checkpointer` (metrics continuity);
            a private one is built when omitted.
        fsync / segment_bytes / fault_plan: forwarded to the reopened
            :class:`WriteAheadLog`.
        queue_depth / tracer: forwarded to the checkpoint restore so the
            rebuilt sink is instrumented like a fresh one.
        registry: records ``repro_wal_*`` recovery instruments.

    Raises:
        WalError: if the journal is corrupted beyond its tail, or if it was
            compacted past the only recoverable position (records the
            checkpoint does not cover are missing).
    """
    if chunk_size <= 0:
        raise ValueError("chunk_size must be positive")
    directory = os.path.abspath(directory)
    os.makedirs(directory, exist_ok=True)
    checkpointer = checkpointer or Checkpointer(registry=registry)
    metric_registry = resolve_registry(registry)
    metric_recovered = metric_registry.counter(
        "repro_wal_recovered_chunks_total",
        "Complete chunks replayed out of the write-ahead log during recovery.",
    )

    swept = Checkpointer.sweep_stale_temp_files(directory)
    torn_bytes = WriteAheadLog.repair(directory, registry=metric_registry)

    checkpoint_path = find_checkpoint(directory, checkpointer)
    if checkpoint_path is not None:
        # The directory was swept above, so skip restore_pipeline's sweep.
        sink, manifest = checkpointer.restore(
            checkpoint_path, chunk_size=chunk_size, queue_depth=queue_depth,
            registry=registry, tracer=tracer,
        )
        wal_position = manifest.get("wal_position")
        if wal_position is None:
            # Format-2 checkpoint (or one saved without a WAL): its item count
            # and its journal position are the same currency by construction.
            wal_position = int(manifest.get("items_processed", 0))
        resume = int(wal_position)
        source = "checkpoint"
    else:
        sink = build_sink()
        manifest = None
        resume = 0
        source = "fresh"

    segments = list_segments(directory)
    if segments and segments[0].start_items > resume:
        raise WalError(
            f"WAL in {directory!r} starts at item {segments[0].start_items} "
            f"but recovery must resume at item {resume}; the journal was "
            f"compacted past the newest restorable checkpoint"
        )

    pending: List[np.ndarray] = []
    pending_count = 0
    recovered_chunks = 0
    for _, items in replay(directory, resume):
        pending.append(items)
        pending_count += int(items.size)
        while pending_count >= chunk_size:
            buffer = np.concatenate(pending) if len(pending) > 1 else pending[0]
            cut = (pending_count // chunk_size) * chunk_size
            for offset in range(0, cut, chunk_size):
                sink.ingest_chunk(buffer[offset:offset + chunk_size])
                recovered_chunks += 1
                metric_recovered.inc()
            pending = [buffer[cut:]] if cut < pending_count else []
            pending_count -= cut
    if pending:
        tail = np.concatenate(pending) if len(pending) > 1 else pending[0]
        tail = np.ascontiguousarray(tail, dtype="<i8")
    else:
        tail = np.empty(0, dtype="<i8")

    recovered_items = recovered_chunks * chunk_size + int(tail.size)
    if recovered_items:
        source = "checkpoint+wal" if checkpoint_path is not None else "wal"
    if recovered_chunks:
        # Replaying through ingest_chunk claimed the sink's one permitted run;
        # re-arm it so the server's queue-driven run can cover the tail (the
        # adopted prefix stays accounted, exactly like a checkpoint restore).
        sink.resume_after_ingest()

    wal = WriteAheadLog(
        directory,
        fsync=fsync,
        segment_bytes=(segment_bytes if segment_bytes is not None
                       else DEFAULT_SEGMENT_BYTES),
        base_items=resume,
        registry=registry,
        fault_plan=fault_plan,
    )
    if wal.position < resume:
        # Possible only after an un-fsynced journal lost records a durable
        # checkpoint still covers (fsync=off + power loss): the checkpoint is
        # the truth, so future records must number from its position.
        wal.advance_to(resume)

    if source != "fresh" or torn_bytes or swept:
        logger.info(
            "recovered sink from %s: %d chunk(s) + %d tail item(s) replayed, "
            "%d torn byte(s) truncated, %d stale temp file(s) swept",
            source, recovered_chunks, int(tail.size), torn_bytes, len(swept),
        )
    return RecoveredSink(
        sink=sink,
        wal=wal,
        tail=tail,
        source=source,
        checkpoint_path=checkpoint_path,
        manifest=manifest,
        recovered_items=recovered_items,
        recovered_chunks=recovered_chunks,
        torn_bytes=torn_bytes,
        swept_temp_files=swept,
    )
