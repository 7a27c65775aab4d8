#!/usr/bin/env python3
"""Service quickstart: serve heavy-hitter queries live, checkpoint, restart, resume.

The other examples run an algorithm over a stream they hold in memory; this one runs
it the way a deployment would — a long-lived server (:mod:`repro.service`) ingesting
batches pushed over a real loopback socket, answering Definition 1 queries while the
stream is still arriving, and surviving a restart:

1. start an :class:`~repro.service.IngestServer` over a Misra–Gries sketch,
2. push the first half of a Zipfian trace and ask for a **live** report mid-ingest,
3. write a checkpoint (full sketch state to disk) and stop the server — mid-stream,
4. start a *fresh* server from the checkpoint, push the second half, finish,
5. verify the resumed final report is **identical** to an uninterrupted offline run
   of the same sketch over the same stream.

Misra–Gries is deterministic, so step 5 is exact equality against the uninterrupted
run.  The randomized sketches checkpoint/resume deterministically too, but their
randomness re-seeds across the serialization boundary, so their equality is against
an offline replay that round-trips state at the same boundary — see
``repro/service/checkpoint.py`` and ``tests/integration/test_service_round_trip.py``.

Run:  python examples/service_quickstart.py
"""

import os
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from repro import MisraGries, RandomSource, zipfian_stream
from repro.pipeline import PipelinedExecutor
from repro.service import Checkpointer, IngestServer, ServiceClient


EPSILON = 0.01
PHI = 0.05
UNIVERSE = 10_000
LENGTH = 100_000
CHUNK = 8_192                       # server-side ingestion chunk size
HALF = (LENGTH // (2 * CHUNK)) * CHUNK  # an exact chunk boundary to checkpoint at


def build_sketch() -> MisraGries:
    return MisraGries(epsilon=EPSILON, universe_size=UNIVERSE, stream_length_hint=LENGTH)


def start_server(pipeline: PipelinedExecutor) -> IngestServer:
    return IngestServer(
        pipeline, port=0, universe_size=UNIVERSE, report_kwargs={"phi": PHI}
    ).start()


def main() -> None:
    stream = zipfian_stream(LENGTH, UNIVERSE, skew=1.2, rng=RandomSource(2016))
    items = stream.array

    # --- the uninterrupted reference: same sketch, same items, no server ------------
    reference = build_sketch()
    reference.consume(stream, batch_size=CHUNK)
    reference_report = reference.report(phi=PHI)

    with tempfile.TemporaryDirectory() as tmp:
        ckpt = os.path.join(tmp, "service.ckpt")

        # --- serve, push half, query live, checkpoint, stop -------------------------
        server = start_server(PipelinedExecutor(sketch=build_sketch(), chunk_size=CHUNK))
        print(f"server A listening on {server.endpoint}")
        with ServiceClient(server.endpoint) as client:
            for start in range(0, HALF, 10_000):        # client-chosen batch sizes;
                client.push(items[start:start + 10_000])  # the server re-chunks
            client.flush()
            live = client.query()
            print(f"live query after {live.items_processed} items "
                  f"(final={live.final}): {live.report.reported_items()}")
            info = client.checkpoint(ckpt)
            print(f"checkpoint at {info['items_processed']} items -> {ckpt}")
            client.shutdown()
        server.close()
        print("server A stopped mid-stream\n")

        # --- restart from the checkpoint and resume ---------------------------------
        pipeline, manifest = Checkpointer().restore_pipeline(ckpt)
        print(f"restored checkpoint: kind={manifest['kind']}, "
              f"items_processed={manifest['items_processed']}")
        server = start_server(pipeline)
        print(f"server B listening on {server.endpoint}")
        with ServiceClient(server.endpoint) as client:
            client.push(items[HALF:])
            client.finish()
            resumed = client.query()
            stats = client.stats()
            client.shutdown()
        server.close()

    # --- the verification the restart story rests on --------------------------------
    print(f"\nresumed final report over {resumed.items_processed} items "
          f"({stats['space_bits']} bits of state):")
    print(f"{'item':>8}  {'estimate':>10}  {'share':>8}")
    for item in resumed.report.reported_items():
        estimate = resumed.report.estimated_frequency(item)
        print(f"{item:>8}  {estimate:>10.0f}  {estimate / LENGTH:>7.2%}")

    identical = dict(resumed.report.items) == dict(reference_report.items)
    print(f"\nresumed report identical to the uninterrupted run: {identical}")
    if not identical:
        raise SystemExit("checkpoint/restore equivalence FAILED")


if __name__ == "__main__":
    main()
