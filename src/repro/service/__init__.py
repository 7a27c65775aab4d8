"""The heavy-hitter service layer: network ingest + live queries + checkpoint/restore.

This package is the fourth rung of the scaling ladder in ROADMAP.md — **batching**
(one consumer made fast) → **sharding** (one stream across k mergeable sketches) →
**async** (parsing overlaps compute) → **service** (this: the system crosses a
process boundary).  The paper frames heavy hitters as a query answered *about* a
stream; here the stream arrives from network clients and the query is answered by
a long-running server, mid-ingest, with the same Definition 1 semantics as an
offline run:

* :mod:`repro.service.protocol` — length-prefixed JSON + raw-int64 frames; the
  only hot-path command (``push``) moves item batches as numpy buffers;
* :class:`IngestServer` / :class:`QueryHandler`
  (:mod:`repro.service.server`) — accepts TCP or Unix-socket connections, feeds a
  :class:`~repro.pipeline.PipelinedExecutor` (single sketch or sharded fan-out)
  through a re-chunking push queue, and answers ``query``/``stats`` from
  chunk-aligned snapshots while ingestion continues;
* :class:`ServiceClient` (:mod:`repro.service.client`) — the blocking peer:
  ``push`` / ``flush`` / ``query`` / ``stats`` / ``checkpoint`` / ``finish`` /
  ``shutdown``; connects and idempotent commands retry with exponential
  backoff + jitter (:class:`RetryPolicy`), ``push_stream`` survives dropped
  connections by resuming from the server's acked count, and expired command
  deadlines surface as the typed :class:`ServiceTimeout`;
* :class:`Checkpointer` (:mod:`repro.service.checkpoint`) — full sketch/shard
  state to disk (atomic, versioned), so a restarted server resumes where it left
  off; see that module for the exact bit-for-bit resumption contract.

One server can host many independent *named streams*
(:class:`StreamRegistry`, :mod:`repro.service.registry`): every data command
accepts a ``stream`` frame key (absent ⇒ the implicit ``"default"`` stream, so
pre-tenancy clients keep working), streams are created/sealed/deleted with the
``stream_create`` / ``stream_seal`` / ``stream_delete`` / ``stream_list``
commands, and ``--max-live-streams`` bounds resident sinks with LRU
checkpoint-eviction — an evicted stream spills through the
:class:`Checkpointer` and lazily restores bit-for-bit on its next push/query.

For fault tolerance beyond one process, put a
:class:`~repro.replication.ReplicaGroup` behind the server (``repro serve
--replicas R``): every pushed chunk fans out to R independently-seeded
replicas, queries answer by quorum/median, a crashed replica is quarantined
and re-seeded from a survivor, and degraded-window replies carry
``degraded: true`` — see :mod:`repro.replication`.

The headline guarantee — **served equals offline** — is measured rather than
assumed: with identical seeds and chunk size, the report served over the socket is
bit-for-bit the offline ``run_chunks`` replay of the same items
(``tests/integration/test_service_round_trip.py`` and CI's served-vs-offline
``diff`` assert it).

Quickstart (in-process; the CLI equivalents are ``repro serve`` / ``push`` /
``query`` / ``checkpoint``)::

    from repro import SimpleListHeavyHitters
    from repro.pipeline import PipelinedExecutor
    from repro.service import IngestServer, ServiceClient

    sketch = SimpleListHeavyHitters(epsilon=0.01, phi=0.05,
                                    universe_size=10_000, stream_length=100_000)
    server = IngestServer(PipelinedExecutor(sketch=sketch), port=0).start()
    with ServiceClient(server.endpoint) as client:
        client.push(items)
        print(client.query().report.reported_items())   # live, mid-ingest
        client.finish()
        client.shutdown()
"""

from repro.service.checkpoint import CheckpointError, Checkpointer, CHECKPOINT_FORMAT
from repro.service.client import (
    NO_RETRY,
    QueryResult,
    RetryPolicy,
    ServiceClient,
    ServiceError,
    ServiceTimeout,
    parse_endpoint,
)
from repro.service.protocol import (
    PROTOCOL_VERSION,
    STATS_SCHEMA_VERSION,
    ProtocolError,
)
from repro.service.registry import DEFAULT_STREAM, StreamRegistry, derive_stream_seed
from repro.service.server import IngestServer, QueryHandler

__all__ = [
    "CHECKPOINT_FORMAT",
    "CheckpointError",
    "Checkpointer",
    "DEFAULT_STREAM",
    "IngestServer",
    "NO_RETRY",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "QueryHandler",
    "QueryResult",
    "RetryPolicy",
    "STATS_SCHEMA_VERSION",
    "ServiceClient",
    "ServiceError",
    "ServiceTimeout",
    "StreamRegistry",
    "derive_stream_seed",
    "parse_endpoint",
]
