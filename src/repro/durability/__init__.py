"""Crash durability: the write-ahead chunk journal and its recovery path.

This package makes the ingest server's ack a durability promise: every acked
batch is journaled to a segmented, CRC-framed write-ahead log *before* the ack
is sent (:mod:`repro.durability.wal`), and a restarting server rebuilds the
acked prefix — newest valid checkpoint plus journal replay past its recorded
position, torn tail truncated — bit for bit against the offline replay at the
same chunk boundaries (:mod:`repro.durability.recovery`).  The guarantee is
enforced, not assumed: the kill -9 chaos sweep in
:func:`repro.analysis.harness.run_crash_comparison` records ``no_acked_loss``
from live SIGKILLed servers, and ``tests/integration/test_crash_recovery.py``
fails unless every leg holds.
See docs/DURABILITY.md for the ack contract and the on-disk format.
"""

from repro.durability.recovery import RecoveredSink, find_checkpoint, recover_sink
from repro.durability.wal import (
    DEFAULT_SEGMENT_BYTES,
    WAL_FORMAT,
    WAL_MAGIC,
    WalError,
    WriteAheadLog,
    list_segments,
    replay,
    tear_tail,
)

__all__ = [
    "DEFAULT_SEGMENT_BYTES",
    "RecoveredSink",
    "WAL_FORMAT",
    "WAL_MAGIC",
    "WalError",
    "WriteAheadLog",
    "find_checkpoint",
    "list_segments",
    "recover_sink",
    "replay",
    "tear_tail",
]
