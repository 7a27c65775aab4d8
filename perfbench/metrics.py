"""Turns what the passes measured into the named metrics and the result line."""

from __future__ import annotations

import statistics
from typing import Dict, List, Optional, Tuple

from served import ServedResult, percentile

#: The commands whose server-side time traced runs read back.
TRACED_COMMANDS = ("push", "query", "flush", "checkpoint")

#: (name, unit) of every end-to-end metric; each run reports all of them.
END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("ingest_items_per_s", "items/s"),
    ("push_ack_ms_p50", "ms"),
    ("push_ack_ms_p90", "ms"),
    ("query_ms_p50", "ms"),
    ("query_ms_p90", "ms"),
    ("checkpoint_ms_p50", "ms"),
    ("server_cpu_us_per_item", "us/item"),
    ("peak_rss_mb", "MiB"),
)

#: (name, unit) of every per-layer metric, reported by traced runs.  Layers a
#: workload does not exercise report 0.
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("core.insert_many_us_per_item", "us/item"),
    ("core.report_ms", "ms"),
    ("core.space_bits", "bits"),
    ("baselines.insert_many_us_per_item", "us/item"),
    ("pipeline.ingest_chunk_us_per_item", "us/item"),
    ("pipeline.rechunk_us_per_item", "us/item"),
    ("pipeline.snapshot_ms", "ms"),
    ("pipeline.sink_state_ms", "ms"),
    ("checkpoint.save_ms", "ms"),
    ("checkpoint.load_ms", "ms"),
    ("checkpoint.bytes", "bytes"),
    ("protocol.encode_us_per_frame", "us/frame"),
    ("protocol.decode_us_per_frame", "us/frame"),
    ("protocol.wire_bytes_per_item", "bytes/item"),
    ("wal.append_us_per_frame", "us/frame"),
    ("wal.fsyncs", "count"),
    ("wal.bytes_per_item", "bytes/item"),
    ("registry.push_us_warm", "us"),
    ("registry.push_us_cold", "us"),
    ("registry.evictions", "count"),
    ("registry.restores", "count"),
    ("registry.query_ms", "ms"),
    ("registry.create_ms_per_stream", "ms"),
) + tuple(
    (f"server.command_ms.{command}", "ms") for command in TRACED_COMMANDS
) + tuple(
    (f"client.wire_wait_ms.{command}", "ms") for command in TRACED_COMMANDS
) + (
    ("served.unattributed_share", "share"),
    ("host.spin_ms", "ms"),
)


def _mean(samples: List[float]) -> float:
    return statistics.fmean(samples) if samples else 0.0


def end_to_end(served: ServedResult) -> Dict[str, float]:
    return {
        "setup_s": statistics.median(served.setup_s),
        # Median over equal fixed-work segments (rounds, or push blocks on
        # the tenants workload), so one stalled second cannot move it.
        "ingest_items_per_s": statistics.median(served.segment_rates),
        "push_ack_ms_p50": percentile(served.ack_ms, 50),
        "push_ack_ms_p90": percentile(served.ack_ms, 90),
        "query_ms_p50": percentile(served.query_ms, 50),
        "query_ms_p90": percentile(served.query_ms, 90),
        "checkpoint_ms_p50": percentile(served.checkpoint_ms, 50),
        "server_cpu_us_per_item": 1e6 * served.ingest_cpu_seconds / served.ingest_items,
        "peak_rss_mb": served.peak_rss_mb,
    }


def client_command_ms(served: ServedResult) -> Dict[str, float]:
    """Mean client-side round trip per command, over the same calls the server timed."""
    return {
        "push": _mean(served.ack_ms),
        "query": _mean(served.query_ms),
        "flush": _mean(served.flush_ms),
        "checkpoint": _mean(served.checkpoint_ms),
    }


def per_layer(served: ServedResult, layers: Dict[str, float], env: Dict[str, object]) -> Dict[str, float]:
    values = dict(layers)
    client = client_command_ms(served)
    for command in TRACED_COMMANDS:
        server_ms = served.server_command_ms.get(command, 0.0)
        values[f"server.command_ms.{command}"] = server_ms
        values[f"client.wire_wait_ms.{command}"] = client[command] - server_ms if client[command] else 0.0
    self_seconds = values.pop("_ingest_self_seconds")
    values["served.unattributed_share"] = (
        (served.ingest_seconds - self_seconds) / served.ingest_seconds
    )
    values["host.spin_ms"] = float(env["host.spin_ms"])  # type: ignore[arg-type]
    return values


def build(served: ServedResult, layers: Optional[Dict[str, float]],
          env: Dict[str, object], trace: int) -> Dict[str, object]:
    """The result object: correctness, operation counts and the metrics."""
    if trace:
        assert layers is not None
        values = per_layer(served, layers, env)
        table = PER_LAYER
    else:
        values = end_to_end(served)
        table = END_TO_END
    tally = served.tally
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in table},
    }


def human_lines(result: Dict[str, object], served: ServedResult) -> List[str]:
    """One ``name value unit`` line per metric, then sample and failure counts."""
    lines = [f"{name:40s} {entry['value']:.6g} {entry['unit']}"
             for name, entry in result["metrics"].items()]  # type: ignore[union-attr]
    lines.append(
        f"samples: {len(served.setup_s)} boots, {len(served.segment_rates)} ingest segments, "
        f"{len(served.ack_ms)} acks, {len(served.query_ms)} queries, "
        f"{len(served.checkpoint_ms)} checkpoints"
    )
    if served.query_lateness_ms:
        lines.append(f"{'schedule_lateness_ms_p90':40s} "
                     f"{percentile(served.query_lateness_ms, 90):.6g} ms")
    ratio = result["failed"] / result["attempted"]  # type: ignore[operator]
    lines.append(f"{'failed_op_ratio':40s} {ratio:.6g} ratio "
                 f"({result['failed']} of {result['attempted']} operations)")
    lines.append(f"{'prefix_def1_misses':40s} {len(served.prefix_misses)} count")
    return lines
