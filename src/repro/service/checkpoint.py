"""Checkpoint persistence: full sketch/shard state to disk, restore, resume.

A checkpoint is one pickle file holding a manifest and a
:class:`~repro.pipeline.SinkState` — the chunk-aligned, un-merged copy of a
pipelined run's ingestion state that :meth:`repro.pipeline.PipelinedExecutor.sink_state`
captures.  :class:`Checkpointer` adds exactly three things on top of the pipeline
layer's capture/restore:

* **a versioned, checksummed on-disk format** — a ``format`` tag and the package
  version, so a reader can refuse a checkpoint it does not understand instead of
  unpickling garbage into a half-built server, plus a SHA-256 digest over the
  pickled state so *any* flipped or truncated byte is rejected deterministically
  (a corrupted pickle does not reliably fail to parse: a flip inside a sketch's
  array buffer would otherwise be adopted silently);
* **a config manifest** — the sketch parameters the serving layer needs to rebuild
  a compatible server (ε, ϕ, universe, stream length, chunk size, shard count)
  without re-specifying them on restart;
* **atomic writes** — the file is written to a temp sibling and ``os.replace``-d
  into place, so a crash mid-checkpoint never leaves a truncated file where a
  previous good checkpoint used to be.  The one exception is
  :meth:`Checkpointer.save_in_place`, for scratch files no restart reads.

Determinism contract (what "resume bit-for-bit" means here)
-----------------------------------------------------------

Saving is a pure read: capturing and pickling never perturbs the live run.  A
:class:`~repro.primitives.rng.RandomSource` serializes as a deterministically
re-seeded sibling (see :mod:`repro.primitives.rng`), so restoring the same
checkpoint file twice and resuming the same tail produces **identical** final
reports — and a resumed run equals, bit for bit, an *offline* replay that
round-trips its state through this same save/load at the same chunk boundary
(``tests/integration/test_service_round_trip.py`` checks exactly this).
What a resumed randomized sketch does *not* replay is the uninterrupted original's
future random draws; deterministic sketches (Misra–Gries, Space-Saving, Lossy
Counting) resume bit-for-bit identical to the uninterrupted run as well.
"""

from __future__ import annotations

import hashlib
import logging
import os
import pickle
import tempfile
import time
from typing import Dict, Optional, Tuple

from repro.observability.metrics import (
    DEFAULT_SIZE_BUCKETS,
    MetricRegistry,
    resolve_registry,
)
from repro.pipeline import PipelinedExecutor, SinkState
from repro.replication import GroupSinkState, ReplicaGroup

logger = logging.getLogger("repro.service.checkpoint")

#: On-disk format version; bump on incompatible layout changes.
#: Format 2 wraps the pickled ``{manifest, state}`` payload in a small outer
#: envelope carrying a SHA-256 digest of the payload bytes.  Format 3 adds a
#: ``wal_position`` field to the manifest — the absolute item position in the
#: write-ahead log this checkpoint covers (``None`` when no WAL was active) —
#: so recovery knows where journal replay must resume.  Readers accept both.
CHECKPOINT_FORMAT = 3

#: Format versions :meth:`Checkpointer.load` accepts.  Format 2 (PR 6–9
#: checkpoints, no WAL position) restores exactly as before; recovery treats
#: its missing ``wal_position`` as "replay from the checkpoint's item count".
COMPATIBLE_FORMATS = frozenset({2, CHECKPOINT_FORMAT})


class CheckpointError(RuntimeError):
    """An unreadable, unversioned, or incompatible checkpoint file."""


class Checkpointer:
    """Serialize and restore a pipelined run's full sketch/shard state.

    The server's ``checkpoint`` command, the CLI, and the offline half of the
    service-equivalence tests all go through this class, so every path that
    claims "same checkpoint semantics" provably shares them.  The only state it
    carries is observability: a :class:`~repro.observability.MetricRegistry`
    recording checkpoint duration, size, and fsync time (``repro_checkpoint_*``
    — ``None`` means the process-wide default), and integrity rejections are
    both counted and logged under ``repro.service.checkpoint``.
    """

    def __init__(self, registry: Optional[MetricRegistry] = None) -> None:
        self._registry = resolve_registry(registry)
        self._metric_seconds = self._registry.histogram(
            "repro_checkpoint_seconds",
            "End-to-end checkpoint save latency (pickle + write + fsync + rename).",
        )
        self._metric_bytes = self._registry.histogram(
            "repro_checkpoint_bytes",
            "Pickled checkpoint payload size.",
            buckets=DEFAULT_SIZE_BUCKETS,
        )
        self._metric_fsync_seconds = self._registry.histogram(
            "repro_checkpoint_fsync_seconds",
            "Time spent in fsync (data file + directory entry) per checkpoint.",
        )
        self._metric_integrity_rejections = self._registry.counter(
            "repro_checkpoint_integrity_rejections_total",
            "Checkpoint loads rejected as corrupt, truncated, or incompatible.",
        )

    def save(
        self,
        path: str,
        state: "SinkState | GroupSinkState",
        config: Optional[Dict[str, object]] = None,
        wal_position: Optional[int] = None,
    ) -> Dict[str, object]:
        """Write one checkpoint file atomically and durably.

        Every caller gets both guarantees except the stream registry's spills
        on a registry without a write-ahead log: those go through
        :meth:`save_in_place`, because no restart ever reads them — the sinks
        and remainder buffers they belong to live only in the crashed process.

        Args:
            path: destination file; parent directories are created as needed.
            state: a capture from
                :meth:`repro.pipeline.PipelinedExecutor.sink_state` or
                :meth:`repro.replication.ReplicaGroup.sink_state`.
            config: sketch/server parameters to carry in the manifest (stored
                as-is; must be picklable).
            wal_position: the write-ahead log's absolute item position this
                state covers, when a WAL is active — recovery replays the
                journal strictly past it.  ``None`` (no WAL) restores exactly
                like a pre-WAL checkpoint.

        Returns:
            The manifest dict that was stored next to the state (``format``,
            ``package_version``, ``kind``, ``items_processed``,
            ``wal_position``, ``config``).
        """
        # Checkpoints are rare (seconds apart at most), so the clock reads are
        # unconditional — unlike the per-chunk hot paths, nothing to shave here.
        save_started = time.perf_counter()
        manifest, payload = self._encode(state, config, wal_position)
        fsync_seconds = self.write_atomically(path, payload)
        self._metric_seconds.observe(time.perf_counter() - save_started)
        self._metric_bytes.observe(float(len(payload)))
        self._metric_fsync_seconds.observe(fsync_seconds)
        return manifest

    def save_in_place(
        self,
        path: str,
        state: "SinkState | GroupSinkState",
        config: Optional[Dict[str, object]] = None,
    ) -> Dict[str, object]:
        """Write the same bytes as :meth:`save`, straight to ``path``.

        No temp file, no fsync, no rename: for process-private scratch that no
        restart reads, where a crash loses the owning process's memory anyway.
        :meth:`load` still verifies the format tag and the digest, so a torn
        file is rejected, never adopted.  A failed write raises before the
        caller drops its in-memory copy.
        """
        save_started = time.perf_counter()
        manifest, payload = self._encode(state, config, None)
        with open(path, "wb") as handle:
            pickle.dump(self._envelope(payload), handle, protocol=pickle.HIGHEST_PROTOCOL)
        self._metric_seconds.observe(time.perf_counter() - save_started)
        self._metric_bytes.observe(float(len(payload)))
        return manifest

    @staticmethod
    def _encode(
        state: "SinkState | GroupSinkState",
        config: Optional[Dict[str, object]],
        wal_position: Optional[int],
    ) -> Tuple[Dict[str, object], bytes]:
        """``(manifest, pickled payload)`` of one checkpoint."""
        from repro import __version__

        manifest: Dict[str, object] = {
            "format": CHECKPOINT_FORMAT,
            "package_version": __version__,
            "kind": state.kind,
            "items_processed": state.items_processed,
            "wal_position": wal_position,
            "config": dict(config or {}),
        }
        payload = pickle.dumps({"manifest": manifest, "state": state},
                               protocol=pickle.HIGHEST_PROTOCOL)
        return manifest, payload

    @staticmethod
    def _envelope(payload: bytes) -> Dict[str, object]:
        """The format-tagged, digested outer record a file holds, pickled."""
        return {
            "format": CHECKPOINT_FORMAT,
            "sha256": hashlib.sha256(payload).hexdigest(),
            "payload": payload,
        }

    @classmethod
    def write_atomically(cls, path: str, payload: bytes) -> float:
        """Write pickled ``payload`` in its envelope, atomically and durably.

        The envelope goes to a temp sibling that is fsynced, ``os.replace``-d
        into place, and made durable with a directory fsync, so a reader sees
        the old file or the new one and a crash after return keeps the new
        one.  :meth:`read_envelope` reads it back.  Returns the fsync seconds.
        """
        fsync_seconds = 0.0
        directory = os.path.dirname(os.path.abspath(path))
        os.makedirs(directory, exist_ok=True)
        fd, temp_path = tempfile.mkstemp(dir=directory, suffix=".ckpt.tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                pickle.dump(cls._envelope(payload), handle, protocol=pickle.HIGHEST_PROTOCOL)
                handle.flush()
                # Durability, not just atomicity: the rename below only
                # guarantees readers see old-or-new; without fsyncing the data
                # first, a power loss can surface a *new* name holding zeroes.
                fsync_started = time.perf_counter()
                os.fsync(handle.fileno())
                fsync_seconds += time.perf_counter() - fsync_started
            os.replace(temp_path, path)
            fsync_started = time.perf_counter()
            cls._fsync_directory(directory)
            fsync_seconds += time.perf_counter() - fsync_started
        except BaseException:
            try:
                os.unlink(temp_path)
            except OSError:
                pass
            raise
        return fsync_seconds

    @staticmethod
    def _fsync_directory(directory: str) -> None:
        """Persist the rename itself: fsync the parent directory entry.

        ``os.replace`` makes the swap atomic for concurrent readers, but the
        new directory entry still lives in the page cache until the directory
        inode is flushed — a crash right after "checkpoint ok" was reported
        could otherwise roll the file back to the previous version (or to
        nothing).  Platforms whose directories cannot be opened or fsynced
        (e.g. Windows) skip this silently; they get atomicity without the
        rename-durability guarantee.
        """
        try:
            fd = os.open(directory, os.O_RDONLY)
        except OSError:
            return
        try:
            os.fsync(fd)
        except OSError:
            pass
        finally:
            os.close(fd)

    @staticmethod
    def sweep_stale_temp_files(directory: str) -> list:
        """Unlink orphaned ``*.ckpt.tmp`` files a crash left behind.

        :meth:`save` writes to a ``mkstemp``-named ``*.ckpt.tmp`` sibling and
        renames it into place; its exception handler unlinks the temp on
        failure, but a hard crash (``kill -9``, power loss) between the write
        and the rename skips the handler and leaks the temp file forever.
        Recovery and restore call this to reclaim them.  Only the
        ``.ckpt.tmp`` suffix is swept — never live checkpoints, never files
        this module did not create.  Returns the unlinked paths.
        """
        removed = []
        try:
            names = os.listdir(directory)
        except OSError:
            return removed
        for name in sorted(names):
            if not name.endswith(".ckpt.tmp"):
                continue
            path = os.path.join(directory, name)
            try:
                os.unlink(path)
            except OSError:
                continue
            logger.warning("swept stale checkpoint temp file %r", path)
            removed.append(path)
        return removed

    def _reject(self, message: str, cause: Optional[BaseException] = None) -> None:
        """Refuse a checkpoint: count it, log it, raise the typed error.

        Every load-side rejection funnels through here so the failure is never
        silent — it surfaces as a ``repro.service.checkpoint`` WARNING and as
        the ``repro_checkpoint_integrity_rejections_total`` counter, on top of
        the :class:`CheckpointError` the caller handles.
        """
        self._metric_integrity_rejections.inc()
        logger.warning("checkpoint rejected: %s", message)
        raise CheckpointError(message) from cause

    def load(self, path: str) -> Tuple[SinkState, Dict[str, object]]:
        """Read a checkpoint file back.

        Returns:
            ``(state, manifest)`` — the restorable :class:`SinkState` and the
            manifest stored by :meth:`save`.

        Raises:
            CheckpointError: if the file is not a checkpoint, is corrupted or
                truncated (the envelope's SHA-256 digest no longer matches the
                payload), carries an unknown format version, or its state is
                neither a :class:`SinkState` nor a
                :class:`~repro.replication.GroupSinkState`.
            FileNotFoundError: if ``path`` does not exist.
        """
        payload = self.read_envelope(path)
        if not isinstance(payload, dict) or "manifest" not in payload or "state" not in payload:
            self._reject(f"{path!r} is not a checkpoint file")
        manifest = payload["manifest"]
        state = payload["state"]
        if not isinstance(state, (SinkState, GroupSinkState)):
            self._reject(
                f"{path!r} holds a {type(state).__name__}, not a sink state"
            )
        return state, manifest

    def read_envelope(self, path: str) -> object:
        """Read a file :meth:`write_atomically` wrote and unpickle its payload.

        Raises:
            CheckpointError: if the file is not an envelope, carries an unknown
                format version, or its payload no longer matches the recorded
                SHA-256 digest.
            FileNotFoundError: if ``path`` does not exist.
        """
        with open(path, "rb") as handle:
            try:
                envelope = pickle.load(handle)
            except Exception as exc:
                # A flipped byte in a pickle stream can raise nearly anything
                # (UnpicklingError, EOFError, UnicodeDecodeError, ValueError,
                # MemoryError from a corrupted length, ...).  Whatever the
                # mode, the caller's contract is the same: a clean typed
                # rejection, never garbage adopted into a half-built server.
                self._reject(
                    f"{path!r} is not a readable checkpoint: "
                    f"{type(exc).__name__}: {exc}",
                    cause=exc,
                )
        if (
            not isinstance(envelope, dict)
            or not isinstance(envelope.get("payload"), bytes)
            or "sha256" not in envelope
        ):
            self._reject(f"{path!r} is not a checkpoint file")
        if envelope.get("format") not in COMPATIBLE_FORMATS:
            self._reject(
                f"{path!r} has checkpoint format {envelope.get('format')!r}; "
                f"this version reads formats "
                f"{sorted(COMPATIBLE_FORMATS)}"
            )
        digest = hashlib.sha256(envelope["payload"]).hexdigest()
        if digest != envelope["sha256"]:
            # The structural checks above only catch corruption that breaks
            # the pickle grammar; a flip inside an array buffer would parse
            # fine and silently change counts.  The digest catches every byte.
            self._reject(
                f"{path!r} is corrupted: payload SHA-256 {digest} does not "
                f"match the recorded {envelope['sha256']}"
            )
        try:
            return pickle.loads(envelope["payload"])
        except Exception as exc:
            self._reject(
                f"{path!r} is not a readable checkpoint: "
                f"{type(exc).__name__}: {exc}",
                cause=exc,
            )

    def restore_pipeline(
        self,
        path: str,
        chunk_size: Optional[int] = None,
        queue_depth: Optional[int] = None,
        registry: Optional[MetricRegistry] = None,
        tracer=None,
    ) -> Tuple["PipelinedExecutor | ReplicaGroup", Dict[str, object]]:
        """Sweep the checkpoint's directory, then :meth:`restore` it.

        The sweep reclaims ``*.ckpt.tmp`` files a crash stranded there (see
        :meth:`sweep_stale_temp_files`); callers that restore many times from
        one directory sweep it once themselves and call :meth:`restore`.
        """
        self.sweep_stale_temp_files(os.path.dirname(os.path.abspath(path)))
        return self.restore(path, chunk_size=chunk_size, queue_depth=queue_depth,
                            registry=registry, tracer=tracer)

    def restore(
        self,
        path: str,
        chunk_size: Optional[int] = None,
        queue_depth: Optional[int] = None,
        registry: Optional[MetricRegistry] = None,
        tracer=None,
    ) -> Tuple["PipelinedExecutor | ReplicaGroup", Dict[str, object]]:
        """Load a checkpoint and rebuild a resumable sink.

        ``chunk_size``/``queue_depth`` default to the manifest's recorded values
        (falling back to the pipeline defaults), so a plain restore keeps the
        resumed chunk boundaries aligned with the original run.
        ``registry``/``tracer`` are handed to the rebuilt sink so a restored
        server is instrumented exactly like a fresh one.

        Returns:
            ``(sink, manifest)`` — a :class:`PipelinedExecutor` for a
            single-sink checkpoint, or a full-strength
            :class:`~repro.replication.ReplicaGroup` for a ``"replicated"``
            one (quarantined slots are re-seeded from a healthy capture during
            restore).  Either way, the sink's one permitted run covers the
            remaining stream tail.
        """
        state, manifest = self.load(path)
        config = manifest.get("config", {})
        if chunk_size is None:
            chunk_size = int(config.get("chunk_size", 1 << 16))
        if queue_depth is None:
            queue_depth = int(config.get("queue_depth", 4))
        if isinstance(state, GroupSinkState):
            group = ReplicaGroup.from_sink_state(
                state, chunk_size=chunk_size, queue_depth=queue_depth,
                registry=registry, tracer=tracer,
            )
            return group, manifest
        executor = PipelinedExecutor.from_sink_state(
            state, chunk_size=chunk_size, queue_depth=queue_depth,
            registry=registry, tracer=tracer,
        )
        return executor, manifest
