"""The served pass: a fresh ``python -m repro serve`` per run, driven over a Unix socket.

This pass produces the end-to-end metrics.  The server is a child process;
everything is timed from the client side or read from ``/proc``.  At most
two client threads and two connections are used (the tenants workload's
pusher and its open-loop querier).
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

import definition1
import hostenv
from repro.service.client import NO_RETRY, ServiceClient, ServiceError
from workloads import (
    EPSILON, PHI, UNIVERSE, Inputs, Plan, checkpoint_positions, rounds, server_seed, stream_name,
)

#: Longest a server may take to answer its first ``config``.
BOOT_TIMEOUT_S = 60.0


class BenchError(RuntimeError):
    """The benchmark could not run (as opposed to the program answering wrongly)."""


@dataclass
class Tally:
    """Operations attempted and failed; a failure is an error or a wrong answer."""

    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def attempt(self) -> None:
        with self._lock:
            self.attempted += 1

    def fail(self, message: str) -> None:
        with self._lock:
            self.failed += 1
            if len(self.problems) < 50:
                self.problems.append(message)


class Server:
    """One ``repro serve`` child process on a Unix socket inside the run directory."""

    def __init__(self, root: str, run_dir: str, plan: Plan, seed: int, index: int) -> None:
        self.run_dir = run_dir
        self.socket_path = os.path.join(os.path.relpath(run_dir, root), f"s{index}.sock")
        self.root = root
        self.index = index
        self.args = [
            sys.executable, "-m", "repro", "serve",
            "--socket", self.socket_path,
            "--algorithm", plan.algorithm,
            "--epsilon", str(EPSILON), "--phi", str(PHI),
            "--universe", str(UNIVERSE),
            "--stream-length", str(plan.total_items),
            "--seed", str(server_seed(seed)),
            "--chunk-size", str(plan.chunk_items),
        ]
        if plan.wal:
            self.args += ["--wal-dir", os.path.join(run_dir, f"wal{index}")]
        if plan.tenants:
            self.args += [
                "--max-live-streams", str(plan.max_live_streams),
                "--stream-spill-dir", os.path.join(run_dir, f"spill{index}"),
            ]
        self.process: Optional[subprocess.Popen] = None
        self._logs: List[object] = []

    @property
    def endpoint(self) -> str:
        return "unix:" + self.socket_path

    @property
    def pid(self) -> int:
        assert self.process is not None
        return self.process.pid

    def boot(self) -> Tuple[ServiceClient, float]:
        """Spawn the server and wait for its first ``config`` reply.

        Returns ``(client, seconds)``: a connected client and the time from
        spawn to that reply.
        """
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(self.root, "src")
        env["PYTHONHASHSEED"] = "0"
        stdout = open(os.path.join(self.run_dir, f"server{self.index}.out"), "wb")
        stderr = open(os.path.join(self.run_dir, f"server{self.index}.err"), "wb")
        self._logs = [stdout, stderr]
        started = time.perf_counter()
        self.process = subprocess.Popen(
            self.args, cwd=self.root, env=env, stdout=stdout, stderr=stderr,
            stdin=subprocess.DEVNULL,
        )
        deadline = started + BOOT_TIMEOUT_S
        while True:
            client = ServiceClient(self.endpoint, retry=NO_RETRY)
            try:
                client.connect()
                client.config()
                return client, time.perf_counter() - started
            except OSError:
                client.close()
            if self.process.poll() is not None:
                raise BenchError(
                    f"server exited with code {self.process.returncode} during boot; "
                    f"see {self.run_dir}/server{self.index}.err"
                )
            if time.perf_counter() > deadline:
                raise BenchError(f"server did not answer config within {BOOT_TIMEOUT_S}s")
            time.sleep(0.002)

    def stop(self, client=None) -> None:
        """Ask the server to shut down, then make sure the process has ended."""
        if client is not None:
            client.shutdown()
        if self.process is not None:
            try:
                self.process.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        for handle in self._logs:
            handle.close()
        self._logs = []


def percentile(samples: List[float], q: float) -> float:
    return float(np.percentile(np.asarray(samples, dtype=np.float64), q))


def command_seconds(snapshot: Dict[str, object]) -> Dict[str, List[float]]:
    """``{command: [count, sum_seconds]}`` from a server ``metrics`` reply."""
    family = snapshot["metrics"].get("repro_service_command_seconds", {"series": []})  # type: ignore[union-attr]
    totals: Dict[str, List[float]] = {}
    for series in family["series"]:
        totals[series["labels"]["command"]] = [series["count"], series["sum"]]
    return totals


def command_mean_ms(before: Dict[str, List[float]], after: Dict[str, List[float]], command: str) -> float:
    """Mean server-side dispatch time of ``command`` between two snapshots."""
    count = after.get(command, [0, 0.0])[0] - before.get(command, [0, 0.0])[0]
    total = after.get(command, [0, 0.0])[1] - before.get(command, [0, 0.0])[1]
    return 1e3 * total / count if count else 0.0


@dataclass
class ServedResult:
    """What the served pass measured, before it is turned into metrics."""

    setup_s: List[float] = field(default_factory=list)
    ingest_items: int = 0
    ingest_seconds: float = 0.0
    ingest_cpu_seconds: float = 0.0
    segment_rates: List[float] = field(default_factory=list)
    ack_ms: List[float] = field(default_factory=list)
    query_ms: List[float] = field(default_factory=list)
    checkpoint_ms: List[float] = field(default_factory=list)
    flush_ms: List[float] = field(default_factory=list)
    #: How late the open-loop schedule sent each query (tenants only).
    query_lateness_ms: List[float] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    #: Mid-run answers that missed Definition 1 on their prefix (not failures).
    prefix_misses: List[str] = field(default_factory=list)
    #: Traced runs only: mean server-side dispatch time per command (ms).
    server_command_ms: Dict[str, float] = field(default_factory=dict)
    tally: Tally = field(default_factory=Tally)


class ServedRun:
    """Runs one workload against fresh server processes."""

    def __init__(self, root: str, run_dir: str, plan: Plan, seed: int, inputs: Inputs,
                 traced: bool) -> None:
        self.root = root
        self.run_dir = run_dir
        self.plan = plan
        self.seed = seed
        self.inputs = inputs
        self.traced = traced
        self.result = ServedResult()
        self._push_count = 0
        self._push_seconds = 0.0

    # -- helpers --------------------------------------------------------------------

    def _call(self, description: str, call):
        """Run one client call, counting it; ``None`` when the server refused it."""
        tally = self.result.tally
        tally.attempt()
        try:
            return call()
        except ServiceError as exc:
            tally.fail(f"{description}: {exc}")
            return None

    def _check(self, description: str, reply, counts: np.ndarray, length: int,
               final: bool = True) -> None:
        """Judge a query reply against Definition 1 on the ``length`` items it covers.

        A final report (a finished default stream, a sealed named stream) that
        breaks Definition 1 or covers the wrong number of items counts as a
        failed operation.  A mid-run answer fails only on the wrong length: the
        sketches are sized for the declared stream length, so their (ε, ϕ)
        promise is about the whole stream, and a prefix that misses it is
        recorded in ``prefix_misses`` instead.
        """
        if reply is None:
            return
        if reply.items_processed != length:
            self.result.tally.fail(
                f"{description}: items_processed {reply.items_processed} != {length}"
            )
            return
        problems = definition1.violations(
            {"items": {str(k): v for k, v in reply.report.items.items()},
             "stream_length": reply.report.stream_length,
             "epsilon": reply.report.epsilon, "phi": reply.report.phi},
            counts, length,
        )
        if not problems:
            return
        message = f"{description}: " + "; ".join(problems[:3])
        if final:
            self.result.tally.fail(message)
        else:
            self.result.prefix_misses.append(message)

    def _boot(self) -> Tuple[Server, ServiceClient]:
        """Boot ``setup_spawns`` servers in turn; keep the last one running."""
        server = client = None
        for index in range(self.plan.setup_spawns):
            if server is not None:
                server.stop(client)
            server = Server(self.root, self.run_dir, self.plan, self.seed, index)
            try:
                client, seconds = server.boot()
                if self.plan.tenants:
                    seconds += self._precreate(client)
            except BaseException:
                server.stop()
                raise
            self.result.setup_s.append(seconds)
        return server, client

    def _precreate(self, client) -> float:
        started = time.perf_counter()
        for index in range(self.plan.streams):
            self._call("stream_create", lambda: client.stream_create(stream_name(index)))
        return time.perf_counter() - started

    def _metrics(self, client) -> Dict[str, List[float]]:
        return command_seconds(client.metrics()) if self.traced else {}

    # -- the pass ------------------------------------------------------------------------

    def run(self) -> ServedResult:
        server, client = self._boot()
        try:
            if self.plan.tenants:
                self._tenants(server, client)
            else:
                self._default_stream(server, client)
            self.result.peak_rss_mb = hostenv.process_peak_rss_mb(server.pid)
        finally:
            server.stop(client)
        return self.result

    def _default_stream(self, server: Server, client) -> None:
        """Rounds of: windowed ingest + flush, query, checkpoint, closed-loop acks.

        Spreading every kind of sample over the whole run, instead of one
        block per kind, keeps a few seconds of host noise from landing on a
        single metric.
        """
        plan, items, result = self.plan, self.inputs.items, self.result
        counts = np.zeros(UNIVERSE, dtype=np.int64)
        counted = 0
        before = self._metrics(client)
        for index, (segment, acks) in enumerate(rounds(plan)):
            frames = [items[start:start + plan.frame_items]
                      for start in range(segment.start, segment.stop, plan.frame_items)]
            cpu_before = hostenv.process_cpu_seconds(server.pid)
            started = time.perf_counter()
            self._call("push_stream", lambda: client.push_stream(frames, window=plan.window))
            flush_started = time.perf_counter()
            flushed = self._call("flush", lambda: client.flush(timeout=120.0))
            ended = time.perf_counter()
            result.ingest_cpu_seconds += hostenv.process_cpu_seconds(server.pid) - cpu_before
            result.ingest_seconds += ended - started
            result.ingest_items += len(segment)
            result.segment_rates.append(len(segment) / (ended - started))
            result.flush_ms.append((ended - flush_started) * 1e3)
            # The flush covers every whole chunk pushed so far; the query
            # answers on exactly that prefix.
            prefix = segment.stop - segment.stop % plan.chunk_items
            if flushed is not None and flushed["flushed_to"] != prefix:
                result.tally.fail(f"flush covered {flushed['flushed_to']} of {prefix} items")
            counts += np.bincount(items[counted:prefix], minlength=UNIVERSE)
            counted = prefix
            started = time.perf_counter()
            reply = self._call("query", client.query)
            result.query_ms.append((time.perf_counter() - started) * 1e3)
            self._check(f"query at prefix {prefix}", reply, counts, prefix, final=False)
            path = os.path.join(self.run_dir, "ckpt", f"round{index}.ckpt")
            started = time.perf_counter()
            self._call("checkpoint", lambda: client.checkpoint(path))
            result.checkpoint_ms.append((time.perf_counter() - started) * 1e3)
            push_before = self._metrics(client)
            for start in range(acks.start, acks.stop, plan.ack_frame_items):
                frame = items[start:start + plan.ack_frame_items]
                started = time.perf_counter()
                self._call("push", lambda: client.push(frame))
                result.ack_ms.append((time.perf_counter() - started) * 1e3)
            self._accumulate_push(push_before, self._metrics(client))
        middle = self._metrics(client)
        self._call("finish", lambda: client.finish(timeout=120.0))
        counts += np.bincount(items[counted:], minlength=UNIVERSE)
        self._check("final query", self._call("query", client.query), counts, plan.total_items)
        if self.traced:
            for command in ("query", "flush", "checkpoint"):
                result.server_command_ms[command] = command_mean_ms(before, middle, command)
            result.server_command_ms["push"] = 1e3 * self._push_seconds / self._push_count

    def _accumulate_push(self, before: Dict[str, List[float]], after: Dict[str, List[float]]) -> None:
        """Server-side time of the closed-loop pushes only (not the windowed ones)."""
        if self.traced:
            self._push_count += after["push"][0] - before["push"][0]
            self._push_seconds += after["push"][1] - before["push"][1]

    def _tenants(self, server: Server, client) -> None:
        """A closed-loop pusher (with sample checkpoints) beside an open-loop query schedule."""
        plan, inputs, result = self.plan, self.inputs, self.result
        frames = inputs.items.reshape(plan.tenant_pushes, plan.tenant_frame_items)
        names = [stream_name(index) for index in range(plan.streams)]
        sent = np.zeros(plan.streams, dtype=np.int64)
        before = self._metrics(client)
        scheduler = _OpenLoopSchedule(self, server.endpoint, names)
        scheduler.start()
        # The sample checkpoints ride on the pusher's connection, spread over
        # the pushes, so they sample the whole phase rather than one moment.
        checkpoint_at = checkpoint_positions(plan).tolist()
        checkpoint_streams = np.resize(inputs.sample, len(checkpoint_at)).tolist()
        try:
            cpu_before = hostenv.process_cpu_seconds(server.pid)
            started = block_started = time.perf_counter()
            scheduler.go(started)
            for index in range(plan.tenant_pushes):
                while checkpoint_at and checkpoint_at[0] == index:
                    checkpoint_at.pop(0)
                    name = names[checkpoint_streams.pop(0)]
                    path = os.path.join(self.run_dir, "ckpt", f"{name}-{index}.ckpt")
                    checkpoint_started = time.perf_counter()
                    self._call("checkpoint", lambda: client.checkpoint(path, stream=name))
                    checkpoint_ms = (time.perf_counter() - checkpoint_started) * 1e3
                    result.checkpoint_ms.append(checkpoint_ms)
                    block_started += checkpoint_ms / 1e3  # not push time
                stream = int(inputs.push_streams[index])
                pushed_at = time.perf_counter()
                self._call("push", lambda: client.push(frames[index], stream=names[stream]))
                acked_at = time.perf_counter()
                result.ack_ms.append((acked_at - pushed_at) * 1e3)
                sent[stream] += plan.tenant_frame_items
                if (index + 1) % plan.push_block == 0:
                    block_items = plan.push_block * plan.tenant_frame_items
                    result.segment_rates.append(block_items / (acked_at - block_started))
                    block_started = acked_at
            ended = time.perf_counter()
            result.ingest_cpu_seconds = hostenv.process_cpu_seconds(server.pid) - cpu_before
        finally:
            scheduler.join()
        result.ingest_items = plan.total_items
        result.ingest_seconds = ended - started - sum(result.checkpoint_ms) / 1e3
        middle = self._metrics(client)
        for stream in inputs.sample:
            self._call("finish", lambda: client.finish(stream=names[stream]))
            reply = self._call("query", lambda: client.query(stream=names[stream]))
            stream_items = frames[inputs.push_streams == stream].reshape(-1)
            self._check(
                f"sealed stream {names[stream]}", reply,
                definition1.exact_counts(stream_items, UNIVERSE), int(sent[stream]),
            )
        scheduler.check(frames, inputs.push_streams)
        if self.traced:
            for command in ("push", "query", "checkpoint"):
                result.server_command_ms[command] = command_mean_ms(before, middle, command)
            result.server_command_ms["flush"] = 0.0


class _OpenLoopSchedule:
    """The tenants workload's second connection: queries on a fixed schedule.

    Query ``j`` is due at ``start + j * interval``; its latency is measured
    from when it was due, so a stall also charges the queries queued behind
    it.  How late the generator itself sent each query is kept as well.
    """

    def __init__(self, run: ServedRun, endpoint: str, names: List[str]) -> None:
        self.run = run
        self.names = names
        self.replies: List[tuple] = []
        self._start = threading.Event()
        self._t0 = 0.0
        self._error: Optional[BaseException] = None
        self._thread = threading.Thread(target=self._loop, name="perfbench-schedule")
        self._client = ServiceClient(endpoint, retry=NO_RETRY)

    def start(self) -> None:
        self._client.connect()
        self._thread.start()

    def go(self, t0: float) -> None:
        self._t0 = t0
        self._start.set()

    def _loop(self) -> None:
        run, plan, result = self.run, self.run.plan, self.run.result
        try:
            self._start.wait()
            for index, stream in enumerate(run.inputs.query_streams.tolist()):
                due = self._t0 + index * plan.query_interval_s
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                result.query_lateness_ms.append((time.perf_counter() - due) * 1e3)
                name = self.names[stream]
                reply = run._call("query", lambda: self._client.query(stream=name))
                result.query_ms.append((time.perf_counter() - due) * 1e3)
                if reply is not None:
                    self.replies.append((stream, reply))
        except BaseException as exc:  # re-raised on the main thread by join()
            self._error = exc
        finally:
            self._client.close()

    def join(self) -> None:
        self._start.set()
        self._thread.join()
        if self._error is not None:
            raise self._error

    def check(self, frames: np.ndarray, push_streams: np.ndarray) -> None:
        """Each mid-run answer must cover a prefix; Definition 1 on it is recorded."""
        for stream, reply in self.replies:
            length = reply.items_processed
            stream_items = frames[push_streams == stream].reshape(-1)[:length]
            self.run._check(
                f"query of {self.names[stream]}", reply,
                definition1.exact_counts(stream_items, UNIVERSE), length, final=False,
            )
