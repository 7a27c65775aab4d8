"""The experiment harness: run algorithms on workloads and tabulate the results.

The paper-table scripts under ``benchmarks/`` and the example scripts use these
helpers, so the tables in docs/BENCHMARKS.md come from exactly the code a user
would run themselves.  The replication and crash comparisons are the experiments
``tests/integration/test_failover.py`` and ``test_crash_recovery.py`` gate on.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence

import numpy as np

from repro.analysis.metrics import HeavyHitterAccuracy, evaluate_heavy_hitters
from repro.core.base import FrequencyEstimator
from repro.pipeline import PipelinedExecutor
from repro.primitives.batching import iter_chunks
from repro.primitives.rng import RandomSource
from repro.replication import FaultPlan, ReplicaGroup, ReplicaSupervisor
from repro.service import RetryPolicy, ServiceClient
from repro.service.protocol import report_to_payload
from repro.streams.io import iterate_stream_file, iterate_stream_file_chunks, stream_file_metadata
from repro.streams.stream import Stream
from repro.streams.truth import exact_frequencies


@dataclass
class ExperimentRow:
    """One row of an experiment table: a label, parameters and measured quantities."""

    label: str
    parameters: Dict[str, object] = field(default_factory=dict)
    measurements: Dict[str, float] = field(default_factory=dict)

    def as_flat_dict(self) -> Dict[str, object]:
        flat: Dict[str, object] = {"label": self.label}
        flat.update(self.parameters)
        flat.update(self.measurements)
        return flat


def run_algorithm_on_stream(
    algorithm,
    stream: Stream,
    batch_size: Optional[int] = None,
) -> Dict[str, float]:
    """Consume a stream, timing the updates, and return space/time measurements.

    With ``batch_size`` set, the stream is fed in chunks through the algorithm's
    ``insert_many`` fast path (see :mod:`repro.core.base`); otherwise items are
    inserted one at a time, as the paper's per-arrival model describes.
    """
    if batch_size is not None and batch_size <= 0:
        raise ValueError("batch_size must be positive")
    start = time.perf_counter()
    if batch_size is None:
        for item in stream:
            algorithm.insert(item)
    else:
        for chunk in iter_chunks(stream, batch_size):
            algorithm.insert_many(chunk)
    elapsed = time.perf_counter() - start
    length = max(1, len(stream))
    return {
        "total_seconds": elapsed,
        "seconds_per_update": elapsed / length,
        "updates_per_second": length / elapsed if elapsed > 0 else float("inf"),
        "space_bits": float(algorithm.space_bits()),
    }


def run_heavy_hitter_comparison(
    algorithms: Mapping[str, Callable[[], FrequencyEstimator]],
    stream: Stream,
    phi: float,
    batch_size: Optional[int] = None,
) -> List[ExperimentRow]:
    """Run several heavy-hitter algorithms on the same stream and tabulate accuracy/space.

    ``algorithms`` maps a label to a zero-argument factory (so each algorithm starts
    fresh); the factory's product must expose ``insert``, ``report`` and ``space_bits``.
    ``batch_size`` switches ingestion to the chunked ``insert_many`` fast path.
    """
    truth = exact_frequencies(stream)
    rows: List[ExperimentRow] = []
    for label, factory in algorithms.items():
        algorithm = factory()
        timing = run_algorithm_on_stream(algorithm, stream, batch_size=batch_size)
        report = algorithm.report()
        accuracy: Optional[HeavyHitterAccuracy] = None
        try:
            accuracy = evaluate_heavy_hitters(report, truth)
        except AttributeError:
            accuracy = None
        measurements = dict(timing)
        if accuracy is not None:
            measurements.update(
                {
                    "recall": accuracy.recall,
                    "precision": accuracy.precision,
                    "max_error_fraction_of_m": accuracy.max_frequency_error / max(1, len(stream)),
                    "reported": float(accuracy.reported_count),
                }
            )
        rows.append(
            ExperimentRow(
                label=label,
                parameters={
                    "stream": stream.name,
                    "m": len(stream),
                    "n": stream.universe_size,
                    "phi": phi,
                },
                measurements=measurements,
            )
        )
    return rows


def _heavy_hitter_measurements(
    report,
    true_frequencies: Mapping[int, int],
    stream_length: int,
    elapsed: float,
    space_bits: float,
) -> Dict[str, float]:
    """The accuracy measurement set of every replication comparison row."""
    accuracy = evaluate_heavy_hitters(report, true_frequencies)
    return {
        "total_seconds": elapsed,
        "space_bits": space_bits,
        "recall": accuracy.recall,
        "precision": accuracy.precision,
        "max_error_fraction_of_m": accuracy.max_frequency_error / max(1, stream_length),
        "reported": float(accuracy.reported_count),
        "satisfies_definition": float(accuracy.satisfies_definition),
    }


def run_replication_comparison(
    factory: Callable[[int], FrequencyEstimator],
    path: str,
    phi: float,
    replicas: int = 3,
    chunk_size: int = 1 << 16,
    kill_replica: Optional[int] = 1,
    kill_after_chunk: Optional[int] = None,
    heal_after_chunks: int = 2,
    report_kwargs: Optional[Mapping[str, object]] = None,
    true_frequencies: Optional[Mapping[int, int]] = None,
    universe_size: Optional[int] = None,
) -> List[ExperimentRow]:
    """The replication-survives-failure experiment: quorum groups vs one sketch.

    Three legs over the same trace (two with ``kill_replica=None``):

    * ``single`` — one :class:`~repro.pipeline.PipelinedExecutor` over
      ``factory(0)``, the unreplicated reference;
    * ``replicated(r=R)`` — a fault-free :class:`~repro.replication.ReplicaGroup`
      over ``factory(0..R-1)``.  Replica 0 shares the single leg's seed and
      sees the identical chunk sequence, so its individual report must equal
      the single run **bit for bit** (``replica0_identical_to_single``) — the
      fan-out provably does not perturb any replica.  ``shape_ok`` checks the
      quorum-merged report carries the same (ε, ϕ, m) contract as the single
      report, and ``ingest_overhead_vs_single`` records the R× fan-out cost;
    * ``failover(r=R)`` — the same group, but a scripted
      :class:`~repro.replication.FaultPlan` kills replica ``kill_replica``
      mid-ingest.  While the group is degraded, every chunk boundary is
      queried and each answer is checked against the exact frequencies of the
      ingested *prefix* (``degraded_queries_valid``: Definition 1 holds on the
      survivors, with the reply flagged ``degraded``).  After the supervisor
      re-seeds the replacement from a survivor at chunk boundary ``H``, the
      run completes and the replacement's final report is compared bit for bit
      (``identical_report``) against an **uninterrupted equal-seed reference**:
      a fresh run with the donor's seed whose state is round-tripped through
      ``sink_state()``/``from_sink_state`` at the same boundary ``H`` — by the
      re-seed determinism contract (see :mod:`repro.replication.supervisor`)
      that reference is exactly what the clone must replay.
      ``identical_to_donor`` additionally compares against the donor's own
      uninterrupted report (equal only for sketches that draw no randomness
      after construction).  ``failover_seconds`` is the quarantine-to-re-admit
      wall clock from the group's event log.

    ``factory(instance_index)`` builds a fresh sketch, seeded per index as in
    the other comparisons.  ``kill_after_chunk`` defaults to roughly a third
    of the trace, clamped so the heal lands before the stream ends.
    """
    metadata = stream_file_metadata(path)
    length = metadata["length"]
    universe = universe_size if universe_size is not None else metadata["universe_size"]
    truth = (
        true_frequencies
        if true_frequencies is not None
        else exact_frequencies(iterate_stream_file(path))
    )
    kwargs = dict(report_kwargs or {})
    chunks = list(iterate_stream_file_chunks(path, chunk_size))
    name = os.path.basename(path)
    parameters = {
        "stream": name, "m": length, "n": universe, "phi": phi,
        "replicas": replicas, "chunk_size": chunk_size,
    }

    def make_row(label: str, result, extra: Optional[Dict[str, float]] = None) -> ExperimentRow:
        measurements = _heavy_hitter_measurements(
            result.report, truth, length, result.seconds, float(result.space_bits())
        )
        measurements["ingest_seconds"] = result.ingest_seconds
        measurements["combine_seconds"] = result.combine_seconds
        measurements.update(extra or {})
        return ExperimentRow(label=label, parameters=dict(parameters),
                             measurements=measurements)

    def run_group(fault_plan, observe: bool):
        """Ingest the trace into a fresh group; optionally query degraded windows."""
        group = ReplicaGroup(
            [PipelinedExecutor(sketch=factory(index), chunk_size=chunk_size)
             for index in range(replicas)],
            chunk_size=chunk_size,
            supervisor=ReplicaSupervisor(heal_after_chunks=heal_after_chunks),
            fault_plan=fault_plan,
        )
        prefix_truth: Counter = Counter()
        degraded_queries = 0
        degraded_valid = True
        for chunk in chunks:
            group.ingest_chunk(chunk)
            if observe:
                values, counts = np.unique(chunk, return_counts=True)
                prefix_truth.update(dict(zip(values.tolist(), counts.tolist())))
                if group.degraded:
                    snapshot = group.snapshot(report_kwargs=kwargs)
                    degraded_queries += 1
                    degraded_valid = (
                        degraded_valid
                        and snapshot.degraded
                        and snapshot.report.satisfies_definition(prefix_truth)
                    )
        return group.finalize(report_kwargs=kwargs), degraded_queries, degraded_valid

    # -- single-instance reference ------------------------------------------------------
    single = PipelinedExecutor(sketch=factory(0), chunk_size=chunk_size)
    for chunk in chunks:
        single.ingest_chunk(chunk)
    single_result = single.finalize(report_kwargs=kwargs)
    rows = [make_row("single", single_result)]
    single_items = dict(single_result.report.items)

    # -- fault-free replicated run ------------------------------------------------------
    replicated_result, _, _ = run_group(fault_plan=None, observe=False)
    replica0 = replicated_result.replica_report(0)
    quorum_report = replicated_result.report
    shape_ok = (
        quorum_report.stream_length == single_result.report.stream_length
        and abs(quorum_report.epsilon - single_result.report.epsilon) <= 1e-12
        and abs(quorum_report.phi - single_result.report.phi) <= 1e-12
    )
    single_ingest = max(single_result.ingest_seconds, 1e-9)
    rows.append(
        make_row(
            f"replicated(r={replicas})", replicated_result,
            extra={
                "shape_ok": 1.0 if shape_ok else 0.0,
                "replica0_identical_to_single": (
                    1.0 if dict(replica0.items) == single_items else 0.0
                ),
                "report_symmetric_difference": float(
                    len(set(quorum_report.items).symmetric_difference(single_items))
                ),
                "ingest_overhead_vs_single": (
                    replicated_result.ingest_seconds / single_ingest
                ),
                "quorum": float(replicated_result.quorum),
            },
        )
    )
    if kill_replica is None:
        return rows

    # -- failover run -------------------------------------------------------------------
    if not 0 <= kill_replica < replicas:
        raise ValueError(f"kill_replica must be in [0, {replicas}), got {kill_replica}")
    if kill_after_chunk is None:
        # Leave room for the heal AND a post-heal tail; a heal that never
        # happens would make the identical_report comparison meaningless.
        kill_after_chunk = max(0, min(len(chunks) // 3,
                                      len(chunks) - heal_after_chunks - 2))
    failover_result, degraded_queries, degraded_valid = run_group(
        fault_plan=FaultPlan.kill_replica(kill_replica, after_chunk=kill_after_chunk),
        observe=True,
    )
    heals = [event for event in failover_result.events
             if event["event"] == "replica-healed" and event["replica"] == kill_replica]
    if not heals:
        raise RuntimeError(
            f"the killed replica never healed (kill at chunk {kill_after_chunk}, "
            f"heal_after_chunks={heal_after_chunks}, {len(chunks)} chunks); "
            "use a longer trace or an earlier kill"
        )
    heal = heals[0]
    heal_chunk = int(heal["chunk"])
    donor = int(heal["donor"])

    # The uninterrupted equal-seed reference: the donor's seed, state
    # round-tripped at exactly the heal boundary — what the re-seeded
    # replacement must replay bit for bit.
    reference = PipelinedExecutor(sketch=factory(donor), chunk_size=chunk_size)
    for chunk in chunks[:heal_chunk]:
        reference.ingest_chunk(chunk)
    resumed = PipelinedExecutor.from_sink_state(reference.sink_state(),
                                                chunk_size=chunk_size)
    for chunk in chunks[heal_chunk:]:
        resumed.ingest_chunk(chunk)
    reference_report = resumed.finalize(report_kwargs=kwargs).report

    replacement_report = failover_result.replica_report(kill_replica)
    donor_report = failover_result.replica_report(donor)
    rows.append(
        make_row(
            f"failover(r={replicas})", failover_result,
            extra={
                "identical_report": (
                    1.0 if dict(replacement_report.items) == dict(reference_report.items)
                    else 0.0
                ),
                "identical_to_donor": (
                    1.0 if dict(replacement_report.items) == dict(donor_report.items)
                    else 0.0
                ),
                "kill_chunk": float(kill_after_chunk),
                "heal_chunk": float(heal_chunk),
                "failover_seconds": float(heal["failover_seconds"]),
                "degraded_queries": float(degraded_queries),
                "degraded_queries_valid": 1.0 if degraded_valid else 0.0,
                "quorum": float(failover_result.quorum),
            },
        )
    )
    return rows


def run_space_scaling_experiment(
    factory: Callable[[Dict[str, float]], object],
    stream_factory: Callable[[Dict[str, float]], Stream],
    parameter_grid: Sequence[Dict[str, float]],
    label: str = "algorithm",
) -> List[ExperimentRow]:
    """Sweep a parameter grid, measuring the algorithm's space on each configuration.

    ``factory(params)`` builds the algorithm for one grid point, ``stream_factory(params)``
    the workload; each grid point contributes one row with the measured peak space.
    """
    rows: List[ExperimentRow] = []
    for params in parameter_grid:
        stream = stream_factory(params)
        algorithm = factory(params)
        for item in stream:
            algorithm.insert(item)
        rows.append(
            ExperimentRow(
                label=label,
                parameters=dict(params),
                measurements={
                    "space_bits": float(algorithm.space_bits()),
                    "peak_space_bits": float(
                        getattr(algorithm, "peak_space_bits", algorithm.space_bits)()
                    ),
                },
            )
        )
    return rows


def _spawn_served_process(
    args: Sequence[str], ready_file: str, timeout: float = 60.0
) -> "tuple[subprocess.Popen, str]":
    """Start ``python -m repro serve ...`` and wait for its ready-file endpoint.

    The child inherits this interpreter and a ``PYTHONPATH`` that resolves the
    same ``repro`` package the harness imported, so in-tree runs and installed
    runs both spawn the code under test.
    """
    package_root = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH", "")) if p
    )
    if os.path.exists(ready_file):
        os.unlink(ready_file)
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", *args],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
    )
    deadline = time.monotonic() + timeout
    while True:
        if os.path.exists(ready_file):
            with open(ready_file, "r", encoding="utf-8") as handle:
                endpoint = handle.read().strip()
            if endpoint:
                return process, endpoint
        if process.poll() is not None:
            output = process.stdout.read().decode("utf-8", "replace") if process.stdout else ""
            raise RuntimeError(
                f"served process exited with {process.returncode} before "
                f"becoming ready:\n{output}"
            )
        if time.monotonic() > deadline:
            process.kill()
            process.wait()
            raise RuntimeError("served process never became ready")
        time.sleep(0.02)


def _reap(process: "subprocess.Popen") -> None:
    """Wait for a served subprocess, escalating to SIGKILL if it lingers."""
    try:
        process.wait(timeout=60)
    except subprocess.TimeoutExpired:
        process.kill()
        process.wait()


def _offline_prefix_payload(
    path: str,
    algorithm: str,
    epsilon: float,
    phi: float,
    universe: int,
    length: int,
    seed: int,
    chunk_size: int,
    items: int,
) -> Dict[str, object]:
    """The report payload of an uninterrupted replay of the trace's first ``items``.

    Built exactly as ``repro serve`` builds its single sink (same
    ``_sketch_builder`` recipe, same ``RandomSource(seed)``, same chunk
    boundaries), so under the RNG contract this payload is the bit-for-bit
    reference a crash-recovered server must reproduce.  ``items`` must be a
    multiple of ``chunk_size`` — that is all a served query can have processed.
    """
    from repro.cli import _sketch_builder  # runtime import: cli pulls in argparse wiring

    if items % chunk_size:
        raise ValueError("offline replay needs a whole number of chunks")
    build = _sketch_builder(algorithm, epsilon, phi, universe, length)
    executor = PipelinedExecutor(sketch=build(RandomSource(seed)), chunk_size=chunk_size)
    remaining = items
    for chunk in iterate_stream_file_chunks(path, chunk_size):
        if remaining <= 0:
            break
        executor.ingest_chunk(chunk[:remaining] if chunk.size > remaining else chunk)
        remaining -= min(int(chunk.size), remaining)
    report_kwargs = {"phi": phi} if algorithm == "misra-gries" else {}
    snapshot = executor.snapshot(report_kwargs=report_kwargs)
    return report_to_payload(snapshot.report)


def run_crash_comparison(
    path: str,
    phi: float,
    epsilon: float = 0.01,
    algorithm: str = "simple",
    seed: int = 42,
    chunk_size: int = 1 << 12,
    push_batch: int = 1 << 10,
    kill_after_batches: Sequence[int] = (1, 3, 7),
    wal_fsync: str = "always",
    mode: str = "sigkill",
    universe_size: Optional[int] = None,
) -> List[ExperimentRow]:
    """The kill-9 chaos sweep: crash a served ingest, restart it, diff the answer.

    For each kill point ``K`` in ``kill_after_batches``, one leg:

    1. serve a fresh :class:`~repro.service.IngestServer` as a **subprocess**
       with ``--wal-dir`` (fsync policy ``wal_fsync``), push ``K`` batches of
       ``push_batch`` items from the trace, counting the server's authoritative
       acks;
    2. kill it — ``mode="sigkill"`` sends an un-catchable ``SIGKILL`` after the
       ``K``-th ack, ``mode="crash"`` arms ``--fault crash:after_chunk=K`` so
       the server dies *inside* the ``K``-th journal append, leaving a torn
       half-record for recovery to truncate (the ``K``-th batch is then never
       acked, and must not be required after restart);
    3. restart on the same WAL directory (timing ``restart_seconds``), flush,
       and query.

    Two verdicts per leg, the acceptance gates of the durability experiment:

    * ``no_acked_loss`` — the restarted server's ``items_received`` covers
      every item whose push was acked before the kill (recovery may hold
      *more*: a batch journaled but killed before its ack is a legitimate
      superset, never a loss);
    * ``identical_report`` — the restarted server's query payload equals, bit
      for bit, an uninterrupted in-process replay of the same trace prefix at
      the same chunk boundaries (:func:`_offline_prefix_payload`), per the
      recovery equivalence contract in docs/DURABILITY.md.

    Every leg ends with a graceful shutdown so the sweep leaves no orphans.
    """
    if mode not in ("sigkill", "crash"):
        raise ValueError(f"mode must be 'sigkill' or 'crash', got {mode!r}")
    if push_batch <= 0 or chunk_size <= 0:
        raise ValueError("push_batch and chunk_size must be positive")
    metadata = stream_file_metadata(path)
    length = int(metadata["length"])
    universe = int(universe_size if universe_size is not None else metadata["universe_size"])
    batches = list(iterate_stream_file_chunks(path, push_batch))
    parameters = {
        "stream": os.path.basename(path), "m": length, "n": universe,
        "phi": phi, "epsilon": epsilon, "algorithm": algorithm,
        "chunk_size": chunk_size, "push_batch": push_batch,
        "wal_fsync": wal_fsync, "mode": mode,
    }

    rows: List[ExperimentRow] = []
    for kill_after in kill_after_batches:
        if not 1 <= kill_after <= len(batches):
            raise ValueError(
                f"kill_after_batches entry {kill_after} outside [1, {len(batches)}]"
            )
        with tempfile.TemporaryDirectory(prefix="repro-crash-") as tmp:
            wal_dir = os.path.join(tmp, "wal")
            ready = os.path.join(tmp, "ready")
            serve_args = [
                "serve", "--port", "0", "--universe", str(universe),
                "--stream-length", str(length), "--epsilon", str(epsilon),
                "--phi", str(phi), "--seed", str(seed), "--algorithm", algorithm,
                "--chunk-size", str(chunk_size), "--wal-dir", wal_dir,
                "--wal-fsync", wal_fsync, "--ready-file", ready,
            ]
            first_args = list(serve_args)
            if mode == "crash":
                first_args += ["--fault", f"crash:after_chunk={kill_after}"]
            process, endpoint = _spawn_served_process(first_args, ready)
            acked_items = 0
            no_retry = RetryPolicy(attempts=1)
            try:
                with ServiceClient(endpoint, retry=no_retry) as client:
                    for index in range(kill_after):
                        try:
                            acked_items = client.push(batches[index])
                        except Exception:
                            if mode != "crash" or index != kill_after - 1:
                                raise
                            # The armed fault killed the server mid-append of
                            # this batch: it was never acked, by design.
                            break
                if mode == "sigkill":
                    process.send_signal(signal.SIGKILL)
            finally:
                _reap(process)

            restart_started = time.perf_counter()
            process, endpoint = _spawn_served_process(serve_args, ready)
            try:
                with ServiceClient(endpoint) as client:
                    recovered_items = int(client.config()["items_received"])
                    restart_seconds = time.perf_counter() - restart_started
                    client.flush(timeout=120.0)
                    result = client.query()
                    client.shutdown()
            finally:
                _reap(process)

            served_payload = report_to_payload(result.report)
            offline_payload = _offline_prefix_payload(
                path, algorithm, epsilon, phi, universe, length, seed,
                chunk_size, int(result.items_processed),
            )
            rows.append(
                ExperimentRow(
                    label=f"{mode}:after_batch={kill_after}",
                    parameters=dict(parameters, kill_after_batches=kill_after),
                    measurements={
                        "acked_items": float(acked_items),
                        "recovered_items": float(recovered_items),
                        "items_processed": float(result.items_processed),
                        "no_acked_loss": 1.0 if recovered_items >= acked_items else 0.0,
                        "identical_report": 1.0 if served_payload == offline_payload else 0.0,
                        "restart_seconds": restart_seconds,
                    },
                )
            )
    return rows


def format_table(rows: Iterable[ExperimentRow], columns: Optional[Sequence[str]] = None) -> str:
    """Render experiment rows as a GitHub-flavoured markdown table."""
    rows = list(rows)
    if not rows:
        return "(no rows)"
    if columns is None:
        columns = list(rows[0].as_flat_dict().keys())
    header = "| " + " | ".join(columns) + " |"
    divider = "| " + " | ".join("---" for _ in columns) + " |"
    lines = [header, divider]
    for row in rows:
        flat = row.as_flat_dict()
        cells = []
        for column in columns:
            value = flat.get(column, "")
            if isinstance(value, float):
                cells.append(f"{value:.4g}")
            else:
                cells.append(str(value))
        lines.append("| " + " | ".join(cells) + " |")
    return "\n".join(lines)
