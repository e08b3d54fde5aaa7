"""Closed-loop, in-process workloads: ``verify-cold`` and ``cache-warm``.

One caller runs whole decks of requests back to back through
``repro.api.execute`` until the run's seconds are spent. Latency is
request to Report; every Report is checked against the known-answer
table. The traced run alternates whole decks without and with the
layer wrappers installed, so drift within the run (memos warming,
memory growing) weighs on both sides of the tracing overhead equally.
"""

from __future__ import annotations

import gc
import math
import resource
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import layers
import stats
from common import calibrate, child_env, cpu_ticks, spawn_ready, steal_share
from spans import SpanRecorder, self_time_by_name
from workloads import decks, check, load_known_answers

#: Set-up repeats per run (the median is reported).
SETUP_REPEATS = {"verify-cold": 9, "cache-warm": 3}

#: Decks whose sample count fixes the percentile of ``latency_tail_s``
#: (see ``stats.window_tail``).
TAIL_WINDOW_DECKS = 4

#: Allowed gap between the layers' summed self time and the traced wall
#: time (the gap is the loop's own work: building and checking requests).
COVERAGE_TOLERANCE = 0.05

#: Largest share of the traced wall time that may stay in
#: ``api.execute``'s own self time: work no layer wrapper accounts for.
UNATTRIBUTED_LIMIT = 0.10


def _dir_bytes(root: Path) -> int:
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


def _setup(workload: str, work: Path) -> Dict[str, Any]:
    samples = []
    backends = set()
    cache_dir = None
    for attempt in range(SETUP_REPEATS[workload]):
        argv = [sys.executable, str(Path(__file__).with_name("probe.py")), workload]
        if workload == "cache-warm":
            cache_dir = work / f"cache-{attempt}"
            argv.append(str(cache_dir))
        seconds, line = spawn_ready(argv, child_env(work))
        samples.append(seconds)
        backends.add(line.split()[1])
    return {"samples": samples, "backends": sorted(backends), "cache_dir": cache_dir}


class _Loop:
    """The closed loop: whole decks until ``seconds`` have passed."""

    def __init__(self, workload: str, seed: int, options: Dict[str, Any]) -> None:
        self.stream = decks(workload, seed)
        self.options = options
        self.table = load_known_answers()
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.hits = 0
        self.cache_root = Path(options["cache_dir"]) if options else None

    def run(self, seconds: float, recorder: Optional[SpanRecorder] = None) -> List[Dict[str, Any]]:
        """One record per deck. With a ``recorder``, every second deck
        runs with the layer wrappers installed (``traced``)."""
        records: List[Dict[str, Any]] = []
        start = time.perf_counter()
        while time.perf_counter() - start < seconds:
            traced = recorder is not None and len(records) % 2 == 1
            if traced:
                bytes_before = _dir_bytes(self.cache_root) if self.cache_root else 0
                uninstall = layers.install(recorder)
                try:
                    record = self._deck()
                finally:
                    uninstall()
                bytes_after = _dir_bytes(self.cache_root) if self.cache_root else 0
                record["cache_bytes"] = bytes_after - bytes_before
            else:
                record = self._deck()
            record["traced"] = traced
            records.append(record)
        return records

    def _deck(self) -> Dict[str, Any]:
        # Looked up per deck: the traced decks wrap this attribute.
        execute_module = sys.modules["repro.api.execute"]
        latencies: List[float] = []
        configs = 0
        counters = {"explorer.configurations": 0, "explorer.expansions": 0, "fuzz.executions": 0}
        wall = 0.0
        for payload in next(self.stream):
            # Untimed: a collection owed to earlier requests' garbage does
            # not land on this one at random. Collections this request's
            # own allocations set off still do.
            gc.collect()
            t0 = time.perf_counter()
            report, problem = self._execute(execute_module, payload)
            elapsed = time.perf_counter() - t0
            wall += elapsed
            if problem is not None:
                latencies.append(math.inf)
                self.fail(f"{payload!r}: {problem}")
                continue
            latencies.append(elapsed)
            data = report.data
            configs += data.get("total_configurations") or data.get("configurations") or 0
            if data.get("cache_hit") or (data.get("cache") or {}).get("misses") == 0:
                self.hits += 1
            snapshot = (report.metrics or {}).get("counters", {})
            for name in counters:
                counters[name] += snapshot.get(name, 0)
        return {
            "wall": wall,
            "latencies": latencies,
            "configs": configs,
            "counters": counters,
        }

    def _execute(self, execute_module: Any, payload: Dict[str, Any]) -> Tuple[Any, Optional[str]]:
        """Request to checked Report: (report, None), or (None, what failed)."""
        from repro.api import request_from_dict

        self.attempted += 1
        try:
            report = execute_module.execute(
                request_from_dict({**payload, "options": self.options})
            )
        except Exception as exc:  # a failed request is counted, not fatal
            return None, f"{type(exc).__name__}: {exc}"
        return report, check(self.table, payload, report.status, report.data)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(message)


def _end_to_end(records: List[Dict[str, Any]]) -> Dict[str, Any]:
    # Rates are medians over decks (every deck holds the same request
    # kinds), so a burst of load from outside skews few of them. The
    # median latency is taken over every sample, and the tail at the
    # percentile of a fixed number of decks, so both sit on a fixed
    # request kind.
    size = len(records[0]["latencies"])
    latencies = [value for record in records for value in record["latencies"]]
    tail = stats.window_tail(latencies, TAIL_WINDOW_DECKS * size)
    return {
        "requests_per_s": stats.median([size / r["wall"] for r in records]),
        "latency_p50_s": stats.median(latencies),
        "latency_tail_s": tail["value"],
        "configs_per_s": stats.median([r["configs"] / r["wall"] for r in records]),
        "tail": tail,
        "samples": len(latencies),
    }


def run(workload: str, seed: int, seconds: int, trace: bool, work: Path) -> Dict[str, Any]:
    setup = _setup(workload, work)
    options: Dict[str, Any] = {}
    if workload == "cache-warm":
        options = {"cache": True, "cache_dir": str(setup["cache_dir"])}
    from repro.analysis.kernel import select
    from repro.api import VerifyRequest, execute

    # Imports and first-use memos of this process are set-up, not load.
    execute(VerifyRequest(n=2))
    loop = _Loop(workload, seed, options)
    if setup["backends"] != [select()]:
        loop.fail(f"set-up probes resolved {setup['backends']}, this process {select()!r}")
    detail: Dict[str, Any] = {
        "setup_samples_s": setup["samples"],
        "setup_backends": setup["backends"],
    }
    recorder = SpanRecorder() if trace else None
    calibration = [calibrate()]
    ticks, cpu_start, wall_start = cpu_ticks(), time.process_time(), time.perf_counter()
    records = loop.run(seconds, recorder)
    cpu_s, steal = time.process_time() - cpu_start, steal_share(ticks, cpu_ticks())
    loop_s = time.perf_counter() - wall_start
    calibration.append(calibrate())
    walls = [r["wall"] for r in records]
    detail.update(
        deck_walls_s=walls,
        calibration_s=calibration,
        steal_share=steal,
        cpu_per_wall=cpu_s / loop_s,
    )
    if not trace:
        summary = _end_to_end(records)
        metrics = {
            name: summary[name]
            for name in ("requests_per_s", "latency_p50_s", "latency_tail_s", "configs_per_s")
        }
        metrics["setup_s"] = stats.median(setup["samples"])
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        # One caller back to back is the highest rate this mix sustains.
        metrics["max_rate_rps"] = metrics["requests_per_s"]
        detail.update(
            samples=summary["samples"],
            tail_percentile=summary["tail"]["percentile"],
            request_hit_share=loop.hits / max(1, loop.attempted),
        )
    else:
        traced = [r for r in records if r["traced"]]
        untraced = [r for r in records if not r["traced"]]
        metrics, shares = _layer_metrics(recorder.spans, traced)
        metrics["trace.overhead_ratio"] = (
            _end_to_end(traced)["latency_p50_s"] / _end_to_end(untraced)["latency_p50_s"]
            if traced
            else 0.0
        )
        detail.update(
            samples=sum(len(r["latencies"]) for r in traced),
            untraced_samples=sum(len(r["latencies"]) for r in untraced),
            coverage_tolerance=COVERAGE_TOLERANCE,
            unattributed_limit=UNATTRIBUTED_LIMIT,
            **shares,
        )
        if not traced:
            loop.fail("the run was too short for a traced deck")
        elif abs(1.0 - shares["coverage"]) > COVERAGE_TOLERANCE:
            loop.fail(
                f"layer self times cover {shares['coverage']:.3f} of traced wall time "
                f"(tolerance {COVERAGE_TOLERANCE})"
            )
        elif shares["unattributed"] > UNATTRIBUTED_LIMIT:
            loop.fail(
                f"{shares['unattributed']:.3f} of traced wall time is in no layer "
                f"but api.execute's own (limit {UNATTRIBUTED_LIMIT})"
            )
    detail["failures"] = loop.failures
    return {
        "metrics": metrics,
        "detail": detail,
        "attempted": loop.attempted,
        "failed": loop.failed,
    }


def _layer_metrics(spans: List[Dict[str, Any]], traced: List[Dict[str, Any]]):
    count = max(1, sum(len(r["latencies"]) for r in traced))
    wall = sum(r["wall"] for r in traced)
    metrics = layers.per_request(spans, count)
    lookups = [s["attrs"].get("hit") for s in spans if s["name"] == "cache.get"]
    metrics["cache.hit_ratio"] = sum(map(bool, lookups)) / len(lookups) if lookups else 0.0
    metrics["cache.bytes_written"] = sum(r.get("cache_bytes", 0) for r in traced) / count
    for metric, counter in (
        ("kernel.configs", "explorer.configurations"),
        ("kernel.expansions", "explorer.expansions"),
        ("fuzz.executions", "fuzz.executions"),
    ):
        metrics[metric] = sum(r["counters"][counter] for r in traced) / count
    own = self_time_by_name(spans)
    shares = {
        "coverage": sum(own.values()) / wall if wall > 0 else 0.0,
        "unattributed": own.get("api.execute", 0.0) / wall if wall > 0 else 0.0,
    }
    metrics["trace.self_time_coverage"] = shares["coverage"]
    return metrics, shares
