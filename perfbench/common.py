"""Metric catalogue and child-process plumbing shared by the workloads."""

from __future__ import annotations

import os
import subprocess
import time
from pathlib import Path
from typing import Dict, List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: (name, unit) of every end-to-end metric, printed with ``--trace 0``.
END_TO_END: List[Tuple[str, str]] = [
    ("setup_s", "s"),
    ("requests_per_s", "1/s"),
    ("latency_p50_s", "s"),
    ("latency_tail_s", "s"),
    ("configs_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("max_rate_rps", "1/s"),
]

#: (name, unit) of every per-layer metric, printed with ``--trace 1``.
#: Times are self seconds per request unless perfbench/README.md says
#: otherwise; a layer a workload never enters reads 0.
PER_LAYER: List[Tuple[str, str]] = [
    ("api.execute_s", "s"),
    ("api.fingerprint_s", "s"),
    ("kernel.explore_s", "s"),
    ("kernel.configs", "count"),
    ("kernel.expansions", "count"),
    ("explorer.safety_s", "s"),
    ("explorer.solo_s", "s"),
    ("explorer.livelock_s", "s"),
    ("explorer.reduced_s", "s"),
    ("explorer.reduced_configs", "count"),
    ("cache.get_s", "s"),
    ("cache.digest_s", "s"),
    ("cache.adopt_s", "s"),
    ("cache.put_s", "s"),
    ("cache.to_portable_s", "s"),
    ("cache.bytes_written", "bytes"),
    ("cache.hit_ratio", "ratio"),
    ("fuzz.campaign_s", "s"),
    ("fuzz.executions", "count"),
    ("reports.encode_s", "s"),
    ("reports.bytes", "bytes"),
    ("obs.trace_bytes", "bytes"),
    ("obs.trace_records", "count"),
    ("serve.intake_s", "s"),
    ("serve.cached_s", "s"),
    ("serve.queue_wait_s", "s"),
    ("serve.engine_s", "s"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.coalesce_ratio", "ratio"),
    ("serve.engine_runs", "count"),
    ("serve.rejected", "count"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.self_time_coverage", "ratio"),
]

#: Environment knobs that would move the program off its defaults.
_SCRUBBED = (
    "REPRO_KERNEL",
    "REPRO_KERNEL_TABLES",
    "REPRO_KERNEL_THREADS",
    "REPRO_CACHE_DIR",
    "REPRO_TRACE",
    "REPRO_PROFILE",
)


def calibrate() -> float:
    """Best of five timings of a fixed pure-Python loop, in seconds.

    Recorded before and after each run, so a run measured while other
    tenants slowed the machine can be told from a slower program.
    """
    best = float("inf")
    for _ in range(5):
        start = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i
        best = min(best, time.perf_counter() - start)
    return best


def cpu_ticks() -> Tuple[int, int]:
    """(all, steal) ticks of the machine's CPUs from ``/proc/stat``."""
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            fields = [int(v) for v in handle.readline().split()[1:]]
    except (OSError, ValueError):
        return (0, 0)
    return (sum(fields), fields[7] if len(fields) > 7 else 0)


def steal_share(before: Tuple[int, int], after: Tuple[int, int]) -> float:
    """Share of CPU time the hypervisor gave to others between two reads."""
    total = after[0] - before[0]
    return (after[1] - before[1]) / total if total > 0 else 0.0


def layer_metrics_template() -> Dict[str, float]:
    return {name: 0.0 for name, _ in PER_LAYER}


def default_env(work: Path) -> None:
    """Pin this process to the program's defaults and the work dir."""
    for name in _SCRUBBED:
        os.environ.pop(name, None)
    os.environ["TMPDIR"] = str(work)


def child_env(work: Path) -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["TMPDIR"] = str(work)
    return env


def spawn_ready(argv: List[str], env: Dict[str, str], timeout: float = 60.0) -> Tuple[float, str]:
    """Run ``argv`` to completion; seconds from spawn to its first line."""
    start = time.monotonic()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    try:
        line = proc.stdout.readline()
        elapsed = time.monotonic() - start
        proc.stdout.read()
        code = proc.wait(timeout=timeout)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if code != 0 or not line.startswith("ready"):
        raise RuntimeError(f"{argv[1:]} failed (exit {code}): {line!r}")
    return elapsed, line.strip()


def rss_mb_of_tree(pid: int) -> float:
    """Summed peak resident memory (VmHWM) of ``pid`` and its children."""
    total_kb = 0
    for member in [pid] + _children(pid):
        try:
            with open(f"/proc/{member}/status", encoding="ascii") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        except OSError:
            pass
    return total_kb / 1024.0


def _children(pid: int) -> List[int]:
    found: List[int] = []
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return found
    for tid in tasks:
        try:
            with open(f"/proc/{pid}/task/{tid}/children", encoding="ascii") as handle:
                kids = [int(k) for k in handle.read().split()]
        except OSError:
            continue
        for kid in kids:
            found.append(kid)
            found.extend(_children(kid))
    return found
