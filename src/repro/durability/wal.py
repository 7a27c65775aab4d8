"""The write-ahead chunk journal: acked batches made durable before the ack.

A :class:`WriteAheadLog` is a directory of append-only **segment** files.  Every
batch the service acknowledges is appended as one length-prefixed, CRC-framed
record *before* the ack is sent, so "the server said ok" becomes a durability
promise instead of a liveness hint: after a ``kill -9`` (or power loss, under
``fsync='always'``), :mod:`repro.durability.recovery` replays the journal past
the newest checkpoint and rebuilds exactly the acked stream prefix, bit for bit
under the repo's RNG contract (see docs/DURABILITY.md).

On-disk format
--------------

Each segment starts with a 24-byte header::

    8 bytes   magic  b"REPROWAL"
    4 bytes   format version (little-endian uint32; currently 1)
    4 bytes   checksum algorithm id (0 = zlib.crc32, 1 = CRC32C)
    8 bytes   start_items: items recorded before this segment (uint64)

followed by records::

    4 bytes   payload length L (little-endian uint32)
    4 bytes   checksum over the payload (little-endian uint32)
    L bytes   payload: the batch as contiguous little-endian int64
              (exactly :func:`repro.service.protocol.encode_items` bytes)

The checksum is CRC32C (Castagnoli) when the optional ``crc32c`` module is
importable, else the stdlib's C-speed ``zlib.crc32`` — the header records which,
so a reader always verifies with the writer's algorithm and the repo needs no
new dependency.  Positions are **absolute item counts**: ``start_items`` plus
the payload lengths walked so far.  Items are the one currency shared with
checkpoints (``SinkState.items_processed``) and the re-chunker, so a checkpoint
boundary may fall *inside* a record and recovery replays just that record's
tail.

Torn tails
----------

A crash mid-append leaves the final record partial (short header, short
payload, or a checksum mismatch).  That is not corruption — it is the expected
shape of an interrupted write — and it is always un-acked data, because the ack
only follows a completed append.  :meth:`WriteAheadLog.repair` (run by recovery
and by the constructor before appending) truncates the torn tail and counts it
in ``repro_wal_torn_tails_total``.  A checksum failure *before* the final
record of the final segment, by contrast, is real corruption and raises
:class:`WalError` — silently skipping a middle record would desynchronize every
item position after it.

Durability policies
-------------------

``fsync='always'`` fsyncs after every append: an acked batch survives power
loss.  ``'interval:N'`` fsyncs every N appends (and on close/rotation): bounded
loss window, most of the throughput back.  ``'off'`` never fsyncs explicitly:
survives process crashes (the page cache persists) but not power loss.  No
policy changes what is replayed; the served cost of ``'always'`` is what the
``mg-wal-frames`` perfbench workload measures.
"""

from __future__ import annotations

import os
import struct
import time
import zlib
from typing import Iterator, List, Optional, Tuple

import numpy as np

from repro.observability.metrics import MetricRegistry, resolve_registry
from repro.service.protocol import MAX_PAYLOAD_BYTES, encode_items

try:  # pragma: no cover - exercised only where the optional wheel exists
    from crc32c import crc32c as _crc32c
except ImportError:  # the container ships no crc32c wheel; zlib.crc32 stands in
    _crc32c = None

#: Segment-file magic; a file without it is not a WAL segment.
WAL_MAGIC = b"REPROWAL"

#: On-disk segment format version; bump on incompatible layout changes.
WAL_FORMAT = 1

#: Checksum algorithm ids recorded in the segment header.
CHECKSUM_CRC32 = 0
CHECKSUM_CRC32C = 1

_HEADER = struct.Struct("<8sIIQ")   # magic, format, checksum id, start_items
_RECORD = struct.Struct("<II")      # payload length, checksum

#: Default segment rotation threshold (bytes); ``serve --wal-segment-bytes``.
DEFAULT_SEGMENT_BYTES = 64 * 1024 * 1024

_ITEM_BYTES = 8  # the payload dtype is <i8, exactly protocol.ITEM_DTYPE


class WalError(RuntimeError):
    """An unreadable or corrupted write-ahead log (never a mere torn tail)."""


def _checksum(algorithm: int, payload) -> int:
    if algorithm == CHECKSUM_CRC32C:
        if _crc32c is None:
            raise WalError(
                "this WAL was written with CRC32C but no crc32c module is "
                "importable here; install it or rebuild the journal"
            )
        return _crc32c(bytes(payload)) & 0xFFFFFFFF
    return zlib.crc32(payload) & 0xFFFFFFFF


def _preferred_checksum() -> int:
    return CHECKSUM_CRC32C if _crc32c is not None else CHECKSUM_CRC32


def _segment_name(sequence: int) -> str:
    return f"wal-{sequence:08d}.seg"


def _fsync_directory(directory: str) -> None:
    """Persist directory-entry changes (new segment, truncation, unlink)."""
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


class _SegmentInfo:
    """One on-disk segment: path, sequence number, and validated header."""

    __slots__ = ("path", "sequence", "checksum_algorithm", "start_items")

    def __init__(self, path: str, sequence: int, checksum_algorithm: int,
                 start_items: int) -> None:
        self.path = path
        self.sequence = sequence
        self.checksum_algorithm = checksum_algorithm
        self.start_items = start_items


def _read_segment_header(path: str) -> Tuple[int, int]:
    """``(checksum_algorithm, start_items)`` from a segment file's header."""
    with open(path, "rb") as handle:
        header = handle.read(_HEADER.size)
    if len(header) < _HEADER.size:
        raise WalError(f"{path!r} is too short to be a WAL segment")
    magic, fmt, algorithm, start_items = _HEADER.unpack(header)
    if magic != WAL_MAGIC:
        raise WalError(f"{path!r} is not a WAL segment (bad magic)")
    if fmt != WAL_FORMAT:
        raise WalError(
            f"{path!r} has WAL format {fmt}; this version reads format {WAL_FORMAT}"
        )
    if algorithm not in (CHECKSUM_CRC32, CHECKSUM_CRC32C):
        raise WalError(f"{path!r} records unknown checksum algorithm {algorithm}")
    return algorithm, start_items


def list_segments(directory: str) -> List[_SegmentInfo]:
    """The directory's WAL segments in sequence order, headers validated.

    Raises:
        WalError: on an unreadable header or a sequence gap *before* the end
            (compaction only ever deletes a prefix, so a hole in the middle
            means someone deleted a segment by hand — positions after it would
            be wrong).
    """
    entries = []
    for name in sorted(os.listdir(directory)):
        if name.startswith("wal-") and name.endswith(".seg"):
            try:
                sequence = int(name[4:-4])
            except ValueError:
                continue
            entries.append((sequence, os.path.join(directory, name)))
    segments: List[_SegmentInfo] = []
    previous: Optional[int] = None
    for sequence, path in entries:
        if previous is not None and sequence != previous + 1:
            raise WalError(
                f"WAL segment sequence gap in {directory!r}: "
                f"{previous} is followed by {sequence}"
            )
        previous = sequence
        algorithm, start_items = _read_segment_header(path)
        segments.append(_SegmentInfo(path, sequence, algorithm, start_items))
    return segments


def _scan_segment(
    segment: _SegmentInfo, is_last: bool
) -> Iterator[Tuple[int, bytes]]:
    """Yield ``(absolute_start_items, payload_bytes)`` per record.

    A partial or checksum-failing **final record of the final segment** ends the
    scan silently (the torn tail; :meth:`WriteAheadLog.repair` truncates it).
    The same damage anywhere else raises :class:`WalError`.
    """
    position = segment.start_items
    with open(segment.path, "rb") as handle:
        handle.seek(_HEADER.size)
        offset = _HEADER.size
        while True:
            header = handle.read(_RECORD.size)
            if not header:
                return
            if len(header) < _RECORD.size:
                if is_last:
                    return  # torn header
                raise WalError(f"{segment.path!r} ends in a partial record header")
            length, checksum = _RECORD.unpack(header)
            if length > MAX_PAYLOAD_BYTES or length % _ITEM_BYTES:
                if is_last:
                    return  # garbage length from a torn header write
                raise WalError(
                    f"{segment.path!r} record at byte {offset} has invalid "
                    f"length {length}"
                )
            payload = handle.read(length)
            if len(payload) < length:
                if is_last:
                    return  # torn payload
                raise WalError(f"{segment.path!r} ends in a partial record payload")
            if _checksum(segment.checksum_algorithm, payload) != checksum:
                tail = is_last and handle.read(1) == b""
                if tail:
                    return  # checksum-failing final record: torn, not corrupt
                raise WalError(
                    f"{segment.path!r} record at byte {offset} fails its checksum"
                )
            yield position, payload
            position += length // _ITEM_BYTES
            offset += _RECORD.size + length


def _good_prefix_bytes(segment: _SegmentInfo, is_last: bool) -> int:
    """The byte length of the segment's valid record prefix."""
    offset = _HEADER.size
    for _, payload in _scan_segment(segment, is_last):
        offset += _RECORD.size + len(payload)
    return offset


def replay(directory: str, start_items: int = 0) -> Iterator[Tuple[int, np.ndarray]]:
    """Yield ``(absolute_start, items)`` for every record at or past ``start_items``.

    A record straddling ``start_items`` (a checkpoint taken mid-record, at a
    chunk boundary inside a pushed batch) is yielded *sliced* to its tail, so
    the caller replays exactly the items the checkpoint does not already hold.
    Run :meth:`WriteAheadLog.repair` first; a torn tail is skipped either way,
    but only repair truncates it on disk and counts it.
    """
    segments = list_segments(directory)
    for index, segment in enumerate(segments):
        is_last = index == len(segments) - 1
        for position, payload in _scan_segment(segment, is_last):
            count = len(payload) // _ITEM_BYTES
            if position + count <= start_items:
                continue
            items = np.frombuffer(payload, dtype="<i8")
            if position < start_items:
                items = items[start_items - position:]
                position = start_items
            yield position, items


def tear_tail(directory: str, bytes_count: int) -> Tuple[str, int]:
    """Damage the journal's tail in place (the ``torn:bytes=B`` fault).

    ``bytes_count > 0`` truncates that many bytes off the final segment;
    ``bytes_count == 0`` flips the final byte instead (a checksum-failing but
    complete record).  Returns ``(segment_path, resulting_size)``.  Chaos
    tooling only: recovery must turn either shape into a clean truncation.
    """
    segments = list_segments(directory)
    if not segments:
        raise WalError(f"no WAL segments in {directory!r} to tear")
    path = segments[-1].path
    size = os.path.getsize(path)
    if bytes_count > 0:
        new_size = max(_HEADER.size, size - bytes_count)
        with open(path, "r+b") as handle:
            handle.truncate(new_size)
        return path, new_size
    if size <= _HEADER.size:
        raise WalError(f"{path!r} holds no record bytes to flip")
    with open(path, "r+b") as handle:
        handle.seek(size - 1)
        byte = handle.read(1)
        handle.seek(size - 1)
        handle.write(bytes([byte[0] ^ 0xFF]))
    return path, size


class WriteAheadLog:
    """Segmented append-only journal of acked item batches.

    Args:
        directory: the journal directory (created if missing).  Existing
            segments are adopted: the constructor repairs any torn tail and
            resumes appending at the recorded position.
        fsync: ``"always"`` / ``"interval:N"`` / ``"off"`` (see module
            docstring).  Parsed by :meth:`parse_fsync_policy`.
        segment_bytes: rotate to a new segment once the current one reaches
            this size.
        base_items: absolute item position of the journal's first record —
            only meaningful for a fresh directory (e.g. a WAL started for a
            server restored from an older checkpoint); an existing journal
            keeps its own positions.
        registry: records the ``repro_wal_*`` instruments.
        fault_plan: a :class:`~repro.replication.FaultPlan` whose
            ``crash:after_chunk=C`` spec makes append ``C`` write half its
            record and ``os._exit`` — a deterministic kill -9 mid-append.

    Thread safety: appends are serialized by the caller (the server's push
    lock / the stream registry's lock), matching the acked-batch order the
    journal must preserve.
    """

    def __init__(
        self,
        directory: str,
        fsync: str = "always",
        segment_bytes: int = DEFAULT_SEGMENT_BYTES,
        base_items: int = 0,
        registry: Optional[MetricRegistry] = None,
        fault_plan=None,
    ) -> None:
        if segment_bytes <= _HEADER.size:
            raise ValueError(f"segment_bytes must exceed {_HEADER.size}")
        self._fsync_every = self.parse_fsync_policy(fsync)
        self.fsync_policy = fsync
        self._segment_bytes = segment_bytes
        self._directory = os.path.abspath(directory)
        self._fault_plan = fault_plan
        self._failed = False
        self._closed = False
        self._appends_since_sync = 0
        self._appends_total = 0
        self._registry = resolve_registry(registry)
        self._metric_appends = self._registry.counter(
            "repro_wal_appends_total", "Batches journaled to the write-ahead log."
        )
        self._metric_bytes = self._registry.counter(
            "repro_wal_bytes_total", "Record bytes appended to the write-ahead log."
        )
        self._metric_fsync_seconds = self._registry.histogram(
            "repro_wal_fsync_seconds", "Time spent in fsync per WAL append."
        )
        self._metric_torn = self._registry.counter(
            "repro_wal_torn_tails_total",
            "Torn (partial or checksum-failing) WAL tails truncated on open/recovery.",
        )
        os.makedirs(self._directory, exist_ok=True)
        self.repair(self._directory, registry=self._registry)
        segments = list_segments(self._directory)
        if segments:
            tail = segments[-1]
            self._sequence = tail.sequence
            self._checksum_algorithm = tail.checksum_algorithm
            self._position = tail.start_items
            self._handle = open(tail.path, "r+b")
            self._handle.seek(0, os.SEEK_END)
            self._segment_size = self._handle.tell()
            for position, payload in _scan_segment(tail, is_last=True):
                self._position = position + len(payload) // _ITEM_BYTES
        else:
            self._sequence = -1
            self._checksum_algorithm = _preferred_checksum()
            self._position = base_items
            self._handle = None
            self._segment_size = 0
            self._open_segment()

    # -- configuration ------------------------------------------------------------------

    @staticmethod
    def parse_fsync_policy(policy: str) -> Optional[int]:
        """``"always"`` → 1, ``"interval:N"`` → N, ``"off"`` → ``None``.

        Raises:
            ValueError: on anything else (shared by the CLI flag validation).
        """
        if policy == "always":
            return 1
        if policy == "off":
            return None
        head, separator, tail = policy.partition(":")
        if head == "interval" and separator:
            try:
                every = int(tail)
            except ValueError:
                every = 0
            if every > 0:
                return every
        raise ValueError(
            f"invalid fsync policy {policy!r}; expected always, interval:N, or off"
        )

    @property
    def directory(self) -> str:
        return self._directory

    @property
    def position(self) -> int:
        """Absolute item count the journal covers (base + appended items)."""
        return self._position

    @property
    def appends(self) -> int:
        """Records appended by *this* instance (the crash fault's counter)."""
        return self._appends_total

    def segment_paths(self) -> List[str]:
        """The current segment files, oldest first (for tests and accounting)."""
        return [segment.path for segment in list_segments(self._directory)]

    # -- repair -------------------------------------------------------------------------

    @classmethod
    def repair(cls, directory: str, registry: Optional[MetricRegistry] = None) -> int:
        """Truncate a torn tail off the final segment; returns bytes removed.

        Idempotent and safe on a clean journal (returns 0).  Damage anywhere
        but the tail raises :class:`WalError` via the underlying scan.  The
        truncation is made durable (file + directory fsync) so a crash during
        recovery cannot resurrect the torn bytes.
        """
        segments = list_segments(directory)
        if not segments:
            return 0
        tail = segments[-1]
        size = os.path.getsize(tail.path)
        good = _good_prefix_bytes(tail, is_last=True)
        removed = size - good
        if removed <= 0:
            return 0
        with open(tail.path, "r+b") as handle:
            handle.truncate(good)
            handle.flush()
            os.fsync(handle.fileno())
        _fsync_directory(directory)
        resolve_registry(registry).counter(
            "repro_wal_torn_tails_total",
            "Torn (partial or checksum-failing) WAL tails truncated on open/recovery.",
        ).inc()
        return removed

    # -- appending ----------------------------------------------------------------------

    def append(self, items) -> int:
        """Journal one acked batch; returns the new absolute item position.

        The record is written and flushed to the OS before this returns, and
        fsynced per the policy — only then may the caller ack.  Any failure
        poisons the journal (further appends refuse) because a partially
        written record would desynchronize every position after it.
        """
        if self._closed:
            raise WalError("this WriteAheadLog is closed")
        if self._failed:
            raise WalError(
                "this WriteAheadLog failed a previous append; the segment tail "
                "is suspect — restart and recover before journaling more"
            )
        count, payload = encode_items(items)
        record = _RECORD.pack(
            len(payload), _checksum(self._checksum_algorithm, payload)
        )
        self._appends_total += 1
        try:
            if self._fault_plan is not None and self._fault_plan.fire_crash(
                self._appends_total
            ):
                # The scripted kill -9: half the record reaches the OS, then
                # the process dies without flushing, acking, or cleaning up.
                torn = (bytes(record) + bytes(payload))[: (len(record) + len(payload)) // 2]
                self._handle.write(torn)
                self._handle.flush()
                os._exit(137)
            self._handle.write(record)
            self._handle.write(payload)
            self._handle.flush()
            self._appends_since_sync += 1
            if (self._fsync_every is not None
                    and self._appends_since_sync >= self._fsync_every):
                self.sync()
        except WalError:
            raise
        except Exception as exc:
            self._failed = True
            raise WalError(f"WAL append failed: {type(exc).__name__}: {exc}") from exc
        self._segment_size += len(record) + len(payload)
        self._position += count
        self._metric_appends.inc()
        self._metric_bytes.inc(len(record) + len(payload))
        if self._segment_size >= self._segment_bytes:
            self._rotate()
        return self._position

    def sync(self) -> None:
        """fsync the current segment (and time it)."""
        started = time.perf_counter()
        os.fsync(self._handle.fileno())
        self._metric_fsync_seconds.observe(time.perf_counter() - started)
        self._appends_since_sync = 0

    def _open_segment(self) -> None:
        self._sequence += 1
        path = os.path.join(self._directory, _segment_name(self._sequence))
        handle = open(path, "wb")
        try:
            handle.write(_HEADER.pack(
                WAL_MAGIC, WAL_FORMAT, self._checksum_algorithm, self._position
            ))
            handle.flush()
            if self._fsync_every is not None:
                # The header and the directory entry must be durable before any
                # record relies on them; with fsync off, neither is promised.
                os.fsync(handle.fileno())
                _fsync_directory(self._directory)
        except BaseException:
            handle.close()
            raise
        self._handle = handle
        self._segment_size = _HEADER.size

    def _rotate(self) -> None:
        if self._fsync_every is not None:
            self.sync()
        self._handle.close()
        self._open_segment()

    def advance_to(self, position: int) -> None:
        """Jump the journal's position forward to ``position`` (never back).

        Used by recovery when a durable checkpoint covers more items than the
        journal holds (possible only under ``fsync='off'`` plus power loss):
        the checkpoint is the truth, so the journal rotates to a fresh segment
        whose header numbers future records from the checkpoint's position.
        """
        if position <= self._position:
            return
        self._position = position
        self._rotate()

    # -- compaction ---------------------------------------------------------------------

    def compact(self, position: int) -> List[str]:
        """Delete segments a checkpoint at ``position`` made obsolete.

        A segment is obsolete when its *successor's* ``start_items`` is at or
        below ``position`` — every record it holds is then covered by the
        checkpoint.  The active (final) segment is never deleted.  Returns the
        deleted paths.
        """
        segments = list_segments(self._directory)
        deleted: List[str] = []
        for index in range(len(segments) - 1):
            if segments[index + 1].start_items <= position:
                os.unlink(segments[index].path)
                deleted.append(segments[index].path)
            else:
                break
        if deleted and self._fsync_every is not None:
            _fsync_directory(self._directory)
        return deleted

    # -- lifecycle ----------------------------------------------------------------------

    def close(self) -> None:
        """Flush, fsync (per policy), and close the active segment; idempotent."""
        if self._closed:
            return
        self._closed = True
        if self._handle is not None:
            try:
                self._handle.flush()
                if self._fsync_every is not None and not self._failed:
                    os.fsync(self._handle.fileno())
            except (OSError, ValueError):
                pass
            self._handle.close()

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()
