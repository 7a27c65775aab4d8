"""Host-side measurements the benchmark takes around the system under test.

Nothing here touches the repository's code: a fixed pure-Python spin loop
(the host-noise control), an environment record, and readers for a child
process's CPU time and peak resident memory from ``/proc``.
"""

from __future__ import annotations

import os
import platform
import statistics
import time
from typing import Dict

#: Iterations of the spin loop; about 0.1 s on a 2-core cloud VM.
SPIN_ITERATIONS = 1_000_000
SPIN_REPEATS = 5


def _spin_once(iterations: int) -> float:
    started = time.perf_counter()
    total = 0
    for value in range(iterations):
        total += value ^ (value >> 3)
    return (time.perf_counter() - started) * 1e3


def spin_ms(iterations: int = SPIN_ITERATIONS, repeats: int = SPIN_REPEATS) -> float:
    """Median wall time of a fixed pure-Python loop, in milliseconds.

    No code in the repository can move this number: when it shifts between
    two sets of runs, the host drifted, not the program.
    """
    return statistics.median(_spin_once(iterations) for _ in range(repeats))


def filesystem_type(path: str) -> str:
    """The type of the filesystem holding ``path``, from ``/proc/mounts``."""
    target = os.path.realpath(path)
    best, best_type = "", "unknown"
    try:
        with open("/proc/mounts", encoding="utf-8") as handle:
            for line in handle:
                fields = line.split()
                if len(fields) < 3:
                    continue
                mount_point = fields[1].replace("\\040", " ")
                inside = target == mount_point or target.startswith(mount_point.rstrip("/") + "/")
                if inside and len(mount_point) > len(best):
                    best, best_type = mount_point, fields[2]
    except OSError:
        pass
    return best_type


def environment(workdir: str) -> Dict[str, object]:
    """What a reader needs to judge whether two sets ran on comparable hosts."""
    import numpy

    try:
        load = os.getloadavg()
    except OSError:
        load = (float("nan"),) * 3
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "workdir_fs": filesystem_type(workdir),
        "loadavg_1m": load[0],
        "loadavg_5m": load[1],
    }


_CLOCK_TICKS = os.sysconf("SC_CLK_TCK") if hasattr(os, "sysconf") else 100


def process_cpu_seconds(pid: int) -> float:
    """User plus system CPU time of process ``pid`` (all its threads)."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        # The command name may contain spaces; fields after it are fixed.
        fields = handle.read().rsplit(")", 1)[1].split()
    utime, stime = int(fields[11]), int(fields[12])
    return (utime + stime) / _CLOCK_TICKS


def process_peak_rss_mb(pid: int) -> float:
    """Peak resident set size (``VmHWM``) of process ``pid``, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")
