"""Named streams for the service layer: per-stream sinks with LRU checkpoint-eviction.

:class:`StreamRegistry` maps a stream name to its own pipelined sink (a
:class:`~repro.pipeline.PipelinedExecutor` or a
:class:`~repro.replication.ReplicaGroup` — anything exposing the
``ingest_chunk``/``snapshot``/``finalize``/``sink_state`` surface), so one
:class:`~repro.service.server.IngestServer` process serves many independent
logical streams.  The implicit ``"default"`` stream keeps the server's original
queue-backed ingestion path; named streams never touch it, which is what keeps
every pre-tenancy client and test byte-compatible.

Ingestion model
---------------

Named streams are ingested *synchronously on the handler thread*: a push is
re-chunked against the stream's remainder buffer and every complete
``chunk_size`` chunk goes through ``ingest_chunk`` before the push is acked.
There is no per-stream ingestion thread — ``ingest_chunk``-driven ingestion is
proven bit-for-bit equal to a queue-backed ``run`` by the pipeline tests, and a
synchronous ack means ``flush`` is trivially satisfied for named streams.  The
cost is that a push round-trip pays sketch-update latency; the default stream
remains the high-throughput pipelined path.

Eviction contract
-----------------

With ``max_live_streams`` set, at most that many named streams keep a resident
sink.  Pushing or querying a stream beyond the cap evicts the least-recently-used
idle stream: its chunk-aligned sink state is written through
:class:`~repro.service.checkpoint.Checkpointer` to a per-stream spill file and
the sink is dropped; the next push/query lazily restores it.  Neither step
depends on how many streams exist: the victim is the head of an LRU map, and a
restore reads one file by its digest-keyed name without listing the spill
directory (stale ``*.ckpt.tmp`` files are swept once, when the registry opens
it).

How a spill is written depends on whether anything can ever read it back after
a crash.  Without a ``wal_dir``, spills are process-private scratch: a crash
loses the resident sinks and remainder buffers anyway, and no restart recovers
named streams, so the spill is written in place with no temp file, fsync or
rename (:meth:`~repro.service.checkpoint.Checkpointer.save_in_place`).  With a
``wal_dir``, the spill is the stream's recovery checkpoint and its save lets
the journal prefix it covers be deleted, so it is written atomically and
durably (:meth:`~repro.service.checkpoint.Checkpointer.save`) before the
journal is compacted.  Either way the bytes are the same checksummed envelope,
and a load verifies the format tag and the SHA-256 digest.  A failed write
raises before the sink is dropped, so the stream stays resident.  Room is made
before a stream is admitted (created, restored or recovered), so a failed
eviction also leaves the incoming stream unregistered or still spilled, and the
live count never exceeds the cap.  Because a
:class:`~repro.primitives.rng.RandomSource` serializes as a deterministically
re-seeded sibling (see :mod:`repro.primitives.rng`), an evict→restore cycle is
bit-for-bit equivalent to an *offline replay that round-trips its state through
the same Checkpointer at the same chunk boundary* — and for deterministic
sketches (Misra–Gries and friends) it is bit-for-bit equivalent to the
uninterrupted run outright.  Each stream records its eviction boundaries
(``items_processed`` at every evict) so harnesses can replay the exact
round-trip schedule offline and assert identity.

The remainder buffer (pushed items past the last chunk boundary) always stays
in memory — it is bounded by ``chunk_size`` items per stream — so eviction never
loses acked items and restore needs no partial-chunk bookkeeping.

Sealing a journaled stream durably writes its result and report arguments to
``sealed.result`` in the stream's directory and deletes its journal and spill,
so a restart registers the stream as sealed: pushes stay refused and ``query``
returns the same result.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import pickle
import shutil
import tempfile
import threading
from collections import OrderedDict
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.observability.metrics import MetricRegistry, resolve_registry
from repro.service.checkpoint import Checkpointer, CheckpointError

logger = logging.getLogger("repro.service.registry")

#: The implicit stream every pre-tenancy frame addresses; the server routes it
#: to its original push-queue path, so the registry never manages it.
DEFAULT_STREAM = "default"

#: The stream lifecycle commands the service protocol carries.  The
#: ``protocol-surface`` lint rule cross-checks this set against the server's
#: ``_KNOWN_COMMANDS``, its dispatch chain, the client's methods, and the docs,
#: so a lifecycle command cannot silently drop out of any layer.
_LIFECYCLE_COMMANDS = frozenset(
    {"stream_create", "stream_seal", "stream_delete", "stream_list"}
)

#: A sealed journaled stream's result record, next to its ``meta.json``.
_SEALED_RECORD = "sealed.result"
#: The files a sealed journaled stream keeps; its journal and spill are deleted.
_SEALED_KEEP = frozenset({"meta.json", _SEALED_RECORD})


def derive_stream_seed(seed: Optional[int], name: str) -> int:
    """A stable 62-bit seed for one named stream, derived from the server seed.

    Hash-based (not drawn from an RNG stream) so the seed for a stream depends
    only on ``(seed, name)`` — a solo offline replay of one stream can rebuild
    the exact sketch the server built for it without knowing which other
    streams existed or in what order they were created.
    """
    digest = hashlib.sha256(f"{seed}:{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") & ((1 << 62) - 1)


class _StreamState:
    """One named stream's record; every field is guarded by the registry lock."""

    __slots__ = (
        "name", "sink", "remainder", "items_received", "items_processed",
        "chunks", "sealed", "seal_kwargs", "result", "spilled", "spill_path",
        "evictions", "restores", "eviction_boundaries", "wal", "wal_dir",
    )

    def __init__(self, name: str, sink: Any, spill_path: str) -> None:
        self.name = name
        self.sink = sink  # PipelinedExecutor | ReplicaGroup | None when spilled/sealed
        self.remainder = np.empty(0, dtype=np.int64)
        self.items_received = 0
        self.items_processed = 0
        self.chunks = 0
        self.sealed = False
        self.seal_kwargs: Optional[Dict[str, Any]] = None
        self.result = None  # PipelinedRunResult | GroupRunResult after seal
        self.spilled = False
        self.spill_path = spill_path
        self.evictions = 0
        self.restores = 0
        self.eviction_boundaries: List[int] = []
        self.wal = None  # WriteAheadLog | None when the registry journals
        self.wal_dir: Optional[str] = None


class StreamRegistry:
    """Name → sink map with create/seal/delete lifecycle and LRU checkpoint-eviction.

    Args:
        build_sink: factory called with the stream name to build a fresh,
            unconsumed sink for it.  Seed it deterministically from the name
            (see :func:`derive_stream_seed`) so a solo offline replay of the
            stream can reproduce the served report bit for bit.
        chunk_size: re-chunk granularity for every named stream — use the same
            value as the offline replay to keep chunk boundaries (and therefore
            eviction boundaries and reports) aligned.
        queue_depth: producer bound handed to restored executors (named streams
            never run a producer, so this only matters for API symmetry).
        max_live_streams: bound on named streams with a resident sink;
            ``None`` disables eviction.  Must be >= 1 when set — the stream
            being pushed or queried always needs its sink resident.
        spill_dir: directory for eviction spill files of non-journaled
            streams; a private temporary directory (removed by :meth:`close`)
            when omitted.  Stale ``*.ckpt.tmp`` files in a given directory are
            swept here, once.
        registry: metric registry for the ``repro_service_stream_*`` families
            (per-stream labeled counters and the live-streams gauge).

    Thread safety: one registry lock serializes every operation.  Named-stream
    pushes are synchronous sketch updates, so cross-stream parallelism is not a
    goal here; the lock is what makes push/evict/restore/query atomic with
    respect to each other — a query acked after a push always reflects it.
    """

    def __init__(
        self,
        build_sink: Callable[[str], Any],
        chunk_size: int,
        queue_depth: int = 4,
        max_live_streams: Optional[int] = None,
        spill_dir: Optional[str] = None,
        registry: Optional[MetricRegistry] = None,
        wal_dir: Optional[str] = None,
        wal_fsync: str = "always",
        wal_segment_bytes: Optional[int] = None,
    ) -> None:
        if chunk_size <= 0:
            raise ValueError("chunk_size must be positive")
        if max_live_streams is not None and max_live_streams < 1:
            raise ValueError("max_live_streams must be >= 1 (or None to disable)")
        self._build_sink = build_sink
        self._chunk_size = chunk_size
        self._queue_depth = queue_depth
        self._max_live = max_live_streams
        self._metrics = resolve_registry(registry)
        self._checkpointer = Checkpointer(registry=self._metrics)
        self._lock = threading.Lock()
        self._streams: Dict[str, _StreamState] = {}
        # The streams with a resident, unsealed sink, least recently used first:
        # its length is the live count and its head the next eviction victim, so
        # neither needs a scan over every stream.
        self._live: "OrderedDict[str, _StreamState]" = OrderedDict()
        self._closed = False
        # Per-stream durability: with a wal_dir, each named stream gets its own
        # journal under {wal_dir}/stream-{digest}/ (plus a meta.json mapping
        # the digest back to the client-chosen name), pushes are journaled
        # before ingest, eviction spills double as WAL checkpoints (driving
        # compaction), and construction recovers every stream found on disk.
        self._wal_dir = os.path.abspath(wal_dir) if wal_dir is not None else None
        self._wal_fsync = wal_fsync
        self._wal_segment_bytes = wal_segment_bytes
        if spill_dir is None:
            self._spill_dir = tempfile.mkdtemp(prefix="repro-stream-spill-")
            self._owns_spill_dir = True
        else:
            os.makedirs(spill_dir, exist_ok=True)
            Checkpointer.sweep_stale_temp_files(spill_dir)
            self._spill_dir = spill_dir
            self._owns_spill_dir = False
        self._metric_pushes = self._metrics.counter(
            "repro_service_stream_pushes_total",
            "Push frames accepted, by named stream.",
            labels=("stream",),
        )
        self._metric_items = self._metrics.counter(
            "repro_service_stream_items_total",
            "Items accepted, by named stream.",
            labels=("stream",),
        )
        self._metric_evictions = self._metrics.counter(
            "repro_service_stream_evictions_total",
            "LRU checkpoint-evictions of a resident stream sink, by stream.",
            labels=("stream",),
        )
        self._metric_restores = self._metrics.counter(
            "repro_service_stream_restores_total",
            "Lazy restores of a spilled stream sink, by stream.",
            labels=("stream",),
        )
        self._metric_live = self._metrics.gauge(
            "repro_service_live_streams",
            "Named streams with a resident (unspilled, unsealed) sink.",
        )
        if self._wal_dir is not None:
            os.makedirs(self._wal_dir, exist_ok=True)
            with self._lock:
                self._locked_recover_streams()

    # -- properties ---------------------------------------------------------------------

    @property
    def chunk_size(self) -> int:
        return self._chunk_size

    @property
    def max_live_streams(self) -> Optional[int]:
        return self._max_live

    @property
    def stream_count(self) -> int:
        """Named streams currently registered (live, spilled, or sealed)."""
        with self._lock:
            return len(self._streams)

    @property
    def live_count(self) -> int:
        """Named streams with a resident, unsealed sink."""
        with self._lock:
            return len(self._live)

    # -- lifecycle ----------------------------------------------------------------------

    def create(self, name: str) -> Dict[str, object]:
        """Explicitly create a named stream; errors if it already exists."""
        self._check_name(name)
        with self._lock:
            if name in self._streams:
                raise ValueError(f"stream {name!r} already exists")
            state = self._locked_create(name)
            return self._locked_info(state)

    def seal(
        self, name: str, report_kwargs: Optional[Mapping[str, Any]] = None
    ) -> Any:
        """Finalize a stream: ingest its remainder, merge, report; idempotent.

        A second seal with the same ``report_kwargs`` returns the stored
        result (mirroring the default stream's idempotent ``finish``); a seal
        with different kwargs is refused, exactly like re-reporting a finished
        run.  A journaled stream's seal is recorded durably and its journal
        reclaimed, so it survives a restart sealed.
        """
        kwargs = dict(report_kwargs or {})
        with self._lock:
            state = self._locked_get(name)
            if state.sealed:
                if kwargs != state.seal_kwargs:
                    raise ValueError(
                        f"stream {name!r} is already sealed; cannot re-report "
                        "with different report arguments"
                    )
                if state.wal is not None:
                    # An earlier seal failed to write its record; finish it.
                    self._locked_record_seal(state)
                return state.result
            self._locked_ensure_live(state)
            if state.remainder.size:
                state.sink.ingest_chunk(state.remainder)
                state.remainder = np.empty(0, dtype=np.int64)
            state.result = state.sink.finalize(report_kwargs=kwargs)
            state.items_processed = state.result.items_processed
            state.chunks = state.result.chunks
            state.sealed = True
            state.seal_kwargs = kwargs
            state.sink = None  # the merge consumed it; the result stands
            del self._live[name]
            self._metric_live.set(len(self._live))
            if state.wal is None:
                self._locked_remove_spill(state)
            else:
                # The spill and journal stay until the record is durable.
                state.spilled = False
                self._locked_record_seal(state)
            return state.result

    def delete(self, name: str) -> Dict[str, object]:
        """Drop a stream entirely: sink, spill file, journal, result, accounting.

        Disk is reclaimed, not leaked: the eviction spill file is unlinked and,
        for a journaled stream, the WAL is closed and its whole directory
        (segments, spill, meta.json) is removed — a deleted stream must not be
        resurrected by the next restart's recovery scan.
        """
        with self._lock:
            state = self._locked_get(name)
            info = self._locked_info(state)
            self._locked_remove_spill(state)
            if state.wal is not None:
                state.wal.close()
                state.wal = None
            if state.wal_dir is not None:
                shutil.rmtree(state.wal_dir, ignore_errors=True)
            del self._streams[name]
            self._live.pop(name, None)
            self._metric_live.set(len(self._live))
            info["deleted"] = True
            return info

    def close(self) -> None:
        """Drop every stream; remove the spill directory if this registry owns it."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            for state in self._streams.values():
                if state.wal is not None:
                    state.wal.close()
            self._streams.clear()
            self._live.clear()
            if self._owns_spill_dir:
                shutil.rmtree(self._spill_dir, ignore_errors=True)

    # -- ingestion and queries ----------------------------------------------------------

    def push(self, name: str, items: np.ndarray) -> int:
        """Ingest one pushed batch synchronously; returns the stream's item total.

        Creates the stream implicitly on first push (``stream_create`` remains
        for callers that want existence errors).  The batch is re-chunked
        against the stream's remainder buffer; every complete ``chunk_size``
        chunk is ingested before this call returns, so the ack covers it.
        """
        batch = np.ascontiguousarray(items, dtype=np.int64)
        with self._lock:
            state = self._streams.get(name)
            if state is None:
                self._check_name(name)
                state = self._locked_create(name)
            if state.sealed:
                raise RuntimeError(f"stream {name!r} has been sealed; no further pushes")
            self._locked_ensure_live(state)
            if state.wal is not None:
                # Journal before ingest: a crash mid-update leaves the batch
                # recoverable, and the ack this push returns covers it.
                state.wal.append(batch)
            combined = (
                np.concatenate([state.remainder, batch])
                if state.remainder.size else batch
            )
            cut = combined.size - combined.size % self._chunk_size
            for start in range(0, cut, self._chunk_size):
                state.sink.ingest_chunk(combined[start:start + self._chunk_size])
            state.remainder = combined[cut:].copy()
            state.items_received += batch.size
            state.items_processed = state.sink.items_processed
            state.chunks += cut // self._chunk_size
            received = state.items_received
        self._metric_pushes.labels(stream=name).inc()
        self._metric_items.labels(stream=name).inc(int(batch.size))
        return received

    def query(self, name: str, report_kwargs: Optional[Mapping[str, Any]] = None
              ) -> Tuple[bool, Any]:
        """``(final, result_or_snapshot)`` for one stream; restores it if spilled.

        Mid-ingest the answer is a chunk-aligned
        :class:`~repro.pipeline.executor.PipelineSnapshot` (the remainder
        buffer is not included — exactly the default stream's mid-ingest
        semantics); after seal it is the stored run result.
        """
        kwargs = dict(report_kwargs or {})
        with self._lock:
            state = self._locked_get(name)
            if state.sealed:
                if kwargs != state.seal_kwargs:
                    raise ValueError(
                        f"stream {name!r} is sealed; cannot re-report with "
                        "different report arguments"
                    )
                return True, state.result
            self._locked_ensure_live(state)
            return False, state.sink.snapshot(report_kwargs=kwargs)

    def flush_info(self, name: str) -> Dict[str, object]:
        """The ``flush`` reply for a named stream — trivially already flushed.

        Named-stream pushes ingest synchronously before acking, so everything
        up to the last chunk boundary is always processed; only the remainder
        (< ``chunk_size`` items) waits for more data or ``stream_seal``.
        """
        with self._lock:
            state = self._locked_get(name)
            return {
                "items_received": state.items_received,
                "items_processed": state.items_processed,
                "flushed_to": state.items_received - int(state.remainder.size),
            }

    def items_received(self, name: str) -> int:
        """The stream's accepted-item count (0 for a not-yet-created stream)."""
        with self._lock:
            state = self._streams.get(name)
            return 0 if state is None else state.items_received

    def wal_position_for(self, name: str, state: Any) -> Optional[int]:
        """The journal position a checkpoint of ``state`` covers, or ``None``.

        Same currency argument as the server's default stream: WAL positions
        are absolute stream items, so a chunk-aligned sink state at item ``N``
        is covered by journal position ``N`` exactly.
        """
        with self._lock:
            stream = self._streams.get(name)
            if stream is None or stream.wal is None:
                return None
            return int(state.items_processed)

    def checkpoint_state(self, name: str) -> Any:
        """A chunk-aligned :class:`SinkState` copy of one stream, for checkpointing.

        A spilled stream is read straight from its spill file — checkpointing
        an idle stream must not force it resident.
        """
        with self._lock:
            state = self._locked_get(name)
            if state.sealed:
                raise RuntimeError(
                    f"stream {name!r} is sealed; there is no resumable state left"
                )
            if state.spilled:
                return self._checkpointer.load(state.spill_path)[0]
            return state.sink.sink_state()

    # -- introspection ------------------------------------------------------------------

    def stream_info(self, name: str) -> Dict[str, object]:
        with self._lock:
            return self._locked_info(self._locked_get(name))

    def list_streams(self) -> List[Dict[str, object]]:
        with self._lock:
            return [
                self._locked_info(state)
                for _, state in sorted(self._streams.items())
            ]

    def _locked_info(self, state: _StreamState) -> Dict[str, object]:
        return {
            "stream": state.name,
            "live": state.sink is not None and not state.sealed,
            "spilled": state.spilled,
            "sealed": state.sealed,
            "items_received": state.items_received,
            "items_processed": state.items_processed,
            "chunks": state.chunks,
            "remainder_items": int(state.remainder.size),
            "evictions": state.evictions,
            "restores": state.restores,
            "eviction_boundaries": list(state.eviction_boundaries),
        }

    # -- internals (registry lock held) -------------------------------------------------

    @staticmethod
    def _check_name(name: str) -> None:
        if not isinstance(name, str) or not name:
            raise ValueError("stream name must be a non-empty string")
        if name == DEFAULT_STREAM:
            raise ValueError(
                f"{DEFAULT_STREAM!r} is the implicit stream; it cannot be "
                "created, sealed, or deleted"
            )

    def _locked_get(self, name: str) -> _StreamState:
        state = self._streams.get(name)
        if state is None:
            raise KeyError(f"unknown stream {name!r}")
        return state

    def _locked_create(self, name: str) -> _StreamState:
        # Spill files are keyed by a digest of the name: stream names are
        # client-chosen and must never become path components.
        digest = hashlib.sha256(name.encode("utf-8")).hexdigest()[:16]
        self._locked_make_room()
        if self._wal_dir is not None:
            state = self._locked_create_journaled(name, digest)
        else:
            spill_path = os.path.join(self._spill_dir, f"stream-{digest}.ckpt")
            state = _StreamState(name, self._build_sink(name), spill_path)
        self._streams[name] = state
        self._locked_touch(state)
        self._metric_live.set(len(self._live))
        return state

    def _locked_create_journaled(self, name: str, digest: str) -> _StreamState:
        """Create (or crash-recover) one journaled stream's state.

        The stream's WAL directory doubles as its spill directory, so an
        eviction checkpoint is exactly what :func:`repro.durability.recover_sink`
        restores after a crash — one file, one discovery rule, and the spill
        save drives journal compaction for free.
        """
        from repro.durability import recover_sink

        stream_dir = os.path.join(self._wal_dir, f"stream-{digest}")
        recovered = recover_sink(
            stream_dir,
            lambda: self._build_sink(name),
            chunk_size=self._chunk_size,
            checkpointer=self._checkpointer,
            fsync=self._wal_fsync,
            segment_bytes=self._wal_segment_bytes,
            queue_depth=self._queue_depth,
            registry=self._metrics,
        )
        self._write_stream_meta(stream_dir, name)
        state = _StreamState(
            name, recovered.sink, os.path.join(stream_dir, "spill.ckpt")
        )
        state.wal = recovered.wal
        state.wal_dir = stream_dir
        state.items_processed = int(recovered.sink.items_processed)
        state.chunks = state.items_processed // self._chunk_size
        if recovered.tail.size:
            state.remainder = np.ascontiguousarray(recovered.tail, dtype=np.int64)
        state.items_received = state.items_processed + int(state.remainder.size)
        return state

    @staticmethod
    def _write_stream_meta(stream_dir: str, name: str) -> None:
        """Record the stream's client-chosen name next to its digest-keyed WAL.

        Without it a restart could replay the journal but not know *which*
        stream it belongs to.  Written once, durably (data then directory), on
        first creation; create-then-crash without the meta only loses an empty
        journal.
        """
        meta_path = os.path.join(stream_dir, "meta.json")
        if os.path.exists(meta_path):
            return
        with open(meta_path, "w", encoding="utf-8") as handle:
            json.dump({"stream": name}, handle)
            handle.flush()
            os.fsync(handle.fileno())
        Checkpointer._fsync_directory(stream_dir)

    def _locked_record_seal(self, state: _StreamState) -> None:
        """Durably record a journaled stream's seal, then reclaim its journal.

        The record is written atomically before the journal, spill or anything
        else is deleted, so a crash at any point leaves either the unsealed
        journal and its checkpoint (the seal was never acked) or the record,
        which recovery adopts and reclaims again.  If the write raises, the
        stream keeps its WAL handle: it stays sealed in memory, every acked
        item stays journaled on disk, and the next :meth:`seal` retries the
        record.
        """
        record = {"seal_kwargs": state.seal_kwargs, "result": state.result}
        Checkpointer.write_atomically(
            os.path.join(state.wal_dir, _SEALED_RECORD),
            pickle.dumps(record, protocol=pickle.HIGHEST_PROTOCOL),
        )
        state.wal.close()
        state.wal = None
        self._reclaim_sealed_dir(state.wal_dir)

    @staticmethod
    def _reclaim_sealed_dir(stream_dir: str) -> None:
        """Delete a sealed stream's journal segments, spill and temp files."""
        for entry in os.listdir(stream_dir):
            if entry not in _SEALED_KEEP:
                try:
                    os.unlink(os.path.join(stream_dir, entry))
                except OSError:
                    pass

    def _recover_sealed(self, name: str, stream_dir: str) -> _StreamState:
        """Rebuild a sealed stream from its record.

        Raises:
            CheckpointError: if the record is unreadable or malformed.  The
                journal it replaced is gone, so skipping the stream would lose
                its result — and, once the name is reused, make every later
                restart skip the new stream's journal — so the registry
                refuses to open instead, as recovery does for a journal
                compacted past its checkpoint.
        """
        path = os.path.join(stream_dir, _SEALED_RECORD)
        record = self._checkpointer.read_envelope(path)
        try:
            seal_kwargs, result = record["seal_kwargs"], record["result"]
            items, chunks = int(result.items_processed), int(result.chunks)
        except (TypeError, KeyError, AttributeError, ValueError) as exc:
            raise CheckpointError(
                f"{path!r} is not a sealed-stream record for {name!r}"
            ) from exc
        state = _StreamState(name, None, os.path.join(stream_dir, "spill.ckpt"))
        state.wal_dir = stream_dir
        state.sealed = True
        state.seal_kwargs = seal_kwargs
        state.result = result
        state.items_received = state.items_processed = items
        state.chunks = chunks
        self._reclaim_sealed_dir(stream_dir)
        return state

    def _locked_recover_streams(self) -> None:
        """Re-register every journaled stream found in the WAL directory.

        Runs once, at construction: each ``stream-*/meta.json`` names a stream
        that existed before the crash (or clean stop).  A sealed stream comes
        back from its seal record; any other is created through the normal
        path, which replays its checkpoint + journal.  Either way a restarted
        server answers ``stream_list``/``query`` for it without waiting for a
        push.
        """
        for entry in sorted(os.listdir(self._wal_dir)):
            meta_path = os.path.join(self._wal_dir, entry, "meta.json")
            if not (entry.startswith("stream-") and os.path.isfile(meta_path)):
                continue
            try:
                with open(meta_path, "r", encoding="utf-8") as handle:
                    name = json.load(handle)["stream"]
            except (OSError, ValueError, KeyError) as exc:
                logger.warning("skipping unreadable stream meta %r: %s",
                               meta_path, exc)
                continue
            if name in self._streams:
                continue
            stream_dir = os.path.join(self._wal_dir, entry)
            if os.path.exists(os.path.join(stream_dir, _SEALED_RECORD)):
                self._streams[name] = self._recover_sealed(name, stream_dir)
                continue
            self._locked_make_room()
            self._streams[name] = state = self._locked_create_journaled(
                name, entry[len("stream-"):]
            )
            self._locked_touch(state)
        self._metric_live.set(len(self._live))

    def _locked_touch(self, state: _StreamState) -> None:
        """Mark a stream with a resident sink as the most recently used one."""
        self._live[state.name] = state
        self._live.move_to_end(state.name)

    def _locked_ensure_live(self, state: _StreamState) -> None:
        """Restore an unsealed stream's spilled sink if needed and mark it most recently used."""
        if state.sink is None:
            self._locked_make_room()
            sink, _ = self._checkpointer.restore(
                state.spill_path,
                chunk_size=self._chunk_size,
                queue_depth=self._queue_depth,
                registry=self._metrics,
            )
            state.sink = sink
            state.spilled = False
            state.restores += 1
            self._metric_restores.labels(stream=state.name).inc()
        self._locked_touch(state)
        self._metric_live.set(len(self._live))

    def _locked_make_room(self) -> None:
        """Evict least-recently-used streams until one more resident sink fits the cap.

        Called before a stream is admitted, so an eviction that raises leaves
        the incoming stream unregistered (or still spilled) and the live count
        within the cap.
        """
        if self._max_live is None:
            return
        while len(self._live) >= self._max_live:
            self._locked_evict(next(iter(self._live.values())))
            self._metric_live.set(len(self._live))

    def _locked_evict(self, state: _StreamState) -> None:
        sink_state = state.sink.sink_state()
        config = {
            "stream": state.name,
            "chunk_size": self._chunk_size,
            "queue_depth": self._queue_depth,
        }
        if state.wal is None:
            # No restart reads this spill (see "Eviction contract").
            self._checkpointer.save_in_place(state.spill_path, sink_state, config)
        else:
            position = int(sink_state.items_processed)
            self._checkpointer.save(
                state.spill_path, sink_state, config, wal_position=position
            )
            # The spill lives inside the stream's WAL directory, so recovery
            # can restore it — which makes the journal's covered prefix safe
            # to reclaim right now.
            state.wal.compact(position)
        state.sink = None
        del self._live[state.name]
        state.spilled = True
        state.evictions += 1
        state.eviction_boundaries.append(state.items_processed)
        self._metric_evictions.labels(stream=state.name).inc()

    def _locked_remove_spill(self, state: _StreamState) -> None:
        state.spilled = False
        try:
            os.unlink(state.spill_path)
        except OSError:
            pass
