"""Open-loop workload against ``repro serve``: ``serve-open``.

The server runs in its own process with its default configuration
(process pool of 2 workers, result cache 256). One generator process
sends a seeded deck mix at fixed offered rates over at most ``nproc``
keep-alive connections, one thread per connection. Each request is
timed from its due time, so a stall also charges the requests queued
behind it; the generator's own lateness (time between a free
connection and the actual send) is reported, and a run whose
generator fell behind is flagged.

The run has three parts. A light step at a fixed 20 requests per
second gives the latency metrics. A saturating step offers far more
than the server answers, so both connections stay busy; the rate it
completes is the throughput. Load steps then offer fixed shares of
that throughput; ``max_rate_rps`` is the achieved rate of the highest
one whose tail meets ``LATENCY_LIMIT_S`` without a growing backlog.
The traced run serves half its time from an untraced server and half
from one with the layer wrappers, at the light step's rate.
"""

from __future__ import annotations

import http.client
import itertools
import json
import math
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import layers
import stats
from common import HERE, calibrate, child_env, cpu_ticks, rss_mb_of_tree, steal_share
from spans import clock, load_spans, self_time_by_name
from workloads import SERVE_HOT, check, decks, load_known_answers

#: (offered requests per second, share of the run's seconds) of the
#: light step and of the saturating step.
LIGHT = (20.0, 0.5)
SATURATE = (250.0, 0.25)

#: Offered rates of the load steps as shares of the saturating step's
#: achieved rate, each for ``LOAD_SHARE`` of the run. A program that
#: answers faster raises every step; one whose tail grows under load
#: passes a lower one.
LOAD_FRACTIONS = (0.5, 0.7, 0.85)
LOAD_SHARE = 0.25 / len(LOAD_FRACTIONS)

#: A step meets the limit when its tail latency (from due time) is at
#: most this; a request refused or answered wrongly misses it.
LATENCY_LIMIT_S = 0.5

#: A step whose next request is already this late has a growing
#: backlog: it fails and sends nothing more.
BACKLOG_ABORT_S = 3 * LATENCY_LIMIT_S

#: Generator lateness (p99) above which the run is flagged as behind.
LATENESS_FLAG_S = 0.02

#: Server starts per run for ``setup_s`` (the last one serves).
SETUP_REPEATS = 7

#: Allowed gap between the service time of engine-run requests and
#: the intake, queue wait and engine spans that account for it (the
#: gap is HTTP parsing, result transfer from the worker and encoding).
COVERAGE_TOLERANCE = 0.15

#: Largest share of the engine spans' time that may stay in the own
#: self time of ``run_job_worker`` and ``api.execute``: work inside a
#: pool worker that no layer wrapper accounts for.
UNATTRIBUTED_LIMIT = 0.10

_FAILED = math.inf


class Server:
    """One ``repro serve --port 0`` process, ready once healthz answers."""

    def __init__(self, work: Path, span_dir: Optional[Path] = None) -> None:
        spool = work / f"spool-{time.monotonic_ns()}"
        options = ["--port", "0", "--spool-dir", str(spool)]
        if span_dir is None:
            argv = [sys.executable, "-m", "repro", "serve", *options]
        else:
            argv = [sys.executable, str(HERE / "serve_host.py"), str(span_dir), *options]
        start = time.monotonic()
        self.proc = subprocess.Popen(
            argv, stdout=subprocess.PIPE, text=True, env=child_env(work), cwd=work
        )
        try:
            line = self.proc.stdout.readline()
            if "listening on" not in line:
                raise RuntimeError(f"server did not start: {line!r}")
            self.port = int(line.rsplit(":", 1)[1])
            while self.get("/v1/healthz").get("status") != "ok":
                time.sleep(0.005)
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.monotonic() - start

    def get(self, path: str) -> Dict[str, Any]:
        connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            connection.request("GET", path)
            return json.loads(connection.getresponse().read())
        finally:
            connection.close()

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def _send(connection: http.client.HTTPConnection, payload: Dict[str, Any]):
    body = json.dumps(payload).encode()
    connection.request(
        "POST", f"/v1/{payload['command']}", body=body, headers={"Content-Type": "application/json"}
    )
    response = connection.getresponse()
    raw = response.read()
    headers = (response.getheader("X-Repro-Disposition"), response.getheader("X-Repro-Job"))
    return (response.status, *headers, raw)


def open_loop(
    port: int,
    schedule: List[Tuple[float, Dict[str, Any]]],
    table: Dict[str, Any],
    saturate: float = 0.0,
) -> Dict[str, Any]:
    """Send ``schedule`` (offset seconds, payload) and collect outcomes.

    A step whose backlog passes ``BACKLOG_ABORT_S`` stops sending. With
    ``saturate`` seconds, the backlog is meant to grow: the step instead
    sends until that many seconds have passed, and what is still unsent
    then is dropped, not attempted.
    """
    connections = max(1, min(2, os.cpu_count() or 1))
    lock = threading.Lock()
    cursor = iter(range(len(schedule)))
    records: List[Dict[str, Any]] = []
    aborted = threading.Event()
    start = clock() + 0.05

    def worker() -> None:
        connection = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
        try:
            while not aborted.is_set():
                with lock:
                    index = next(cursor, None)
                if index is None:
                    return
                offset, payload = schedule[index]
                due = start + offset
                free = clock()
                if saturate and free - start > saturate:
                    return
                if not saturate and free - due > BACKLOG_ABORT_S:
                    aborted.set()
                    return
                if due > free:
                    time.sleep(due - free)
                sent = clock()
                late = sent - max(due, free)
                record = {"due": due, "sent": sent, "late": late, "payload": payload}
                try:
                    status, disposition, job, raw = _send(connection, payload)
                except (OSError, http.client.HTTPException) as exc:
                    record.update(done=clock(), problem=f"{type(exc).__name__}: {exc}")
                    connection.close()
                    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
                else:
                    record.update(done=clock(), status=status, disposition=disposition, job=job)
                    record["bytes"] = len(raw)
                    record["problem"], record["configs"], record["counters"] = _verify(
                        table, payload, status, raw
                    )
                with lock:
                    records.append(record)
        finally:
            connection.close()

    threads = [threading.Thread(target=worker) for _ in range(connections)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return {
        "records": records,
        "start": start,
        "end": max((r["done"] for r in records), default=start),
        "aborted": aborted.is_set(),
        "scheduled": len(schedule),
    }


def _verify(table: Dict[str, Any], payload: Dict[str, Any], status: int, raw: bytes):
    if status != 200:
        return f"HTTP {status}", 0, {}
    try:
        report = json.loads(raw)
    except ValueError:
        return "response is not JSON", 0, {}
    problem = check(table, payload, report.get("status"), report.get("data"))
    data = report.get("data") or {}
    configs = data.get("total_configurations") or data.get("configurations") or 0
    return problem, configs, (report.get("metrics") or {}).get("counters", {})


def _schedule(stream, rate: float, seconds: float) -> List[Tuple[float, Dict[str, Any]]]:
    count = max(1, int(round(rate * seconds)))
    payloads = itertools.islice(itertools.chain.from_iterable(stream), count)
    return [(index / rate, payload) for index, payload in enumerate(payloads)]


def _latency(record: Dict[str, Any]) -> float:
    return _FAILED if record.get("problem") else record["done"] - record["due"]


def _saturated_rate(step: Dict[str, Any]) -> float:
    """Completed requests per second of a saturating step: the median
    over its whole one-second windows, so a burst of load from outside
    skews few of them."""
    done = [r["done"] - step["start"] for r in step["records"] if not r.get("problem")]
    windows = int(max(done, default=0.0))
    if windows == 0:
        return _step_summary(step)["rate"]
    counts = [0] * windows
    for offset in done:
        if offset < windows:
            counts[int(offset)] += 1
    return stats.median(counts)


def _step_summary(step: Dict[str, Any]) -> Dict[str, Any]:
    records = step["records"]
    latencies = [_latency(r) for r in records]
    wall = step["end"] - step["start"]
    ok = [r for r in records if not r.get("problem")]
    tail = stats.tail(latencies)
    lateness = sorted(r["late"] for r in records)
    return {
        "wall": wall,
        "rate": len(ok) / wall if wall > 0 else 0.0,
        "configs": sum(r["configs"] for r in ok),
        "p50": stats.median(latencies),
        "tail": tail,
        "meets_limit": (
            not step["aborted"]
            and len(records) == step["scheduled"]
            and tail["value"] <= LATENCY_LIMIT_S
        ),
        "late_p99": lateness[int(0.99 * (len(lateness) - 1))] if lateness else 0.0,
        "late_max": lateness[-1] if lateness else 0.0,
    }


def _warm(server: Server, table: Dict[str, Any]) -> List[Dict[str, Any]]:
    """Answer each hot request once before timing: it fills the LRU and
    starts the lazily forked pool workers."""
    return open_loop(server.port, [(0.0, payload) for payload in SERVE_HOT], table)["records"]


def _failures(records: List[Dict[str, Any]]) -> List[str]:
    return [f"{r['payload']!r}: {r['problem']}" for r in records if r.get("problem")][:5]


def _step_detail(offered: float, summary: Dict[str, Any]) -> Dict[str, Any]:
    return {
        "offered_rps": offered,
        "achieved_rps": summary["rate"],
        "tail_s": summary["tail"]["value"],
        "tail_percentile": summary["tail"]["percentile"],
        "meets_limit": summary["meets_limit"],
        "generator_late_p99_s": summary["late_p99"],
        "generator_late_max_s": summary["late_max"],
    }


def run(seed: int, seconds: int, trace: bool, work: Path) -> Dict[str, Any]:
    table = load_known_answers()
    stream = decks("serve-open", seed)
    if trace:
        return _run_traced(stream, seconds, table, work)
    setups = []
    for _ in range(SETUP_REPEATS - 1):
        probe = Server(work)
        setups.append(probe.setup_s)
        probe.stop()
    server = Server(work)
    setups.append(server.setup_s)
    calibration = [calibrate()]
    ticks = cpu_ticks()
    try:
        warm = _warm(server, table)
        rate, share = LIGHT
        light = open_loop(server.port, _schedule(stream, rate, seconds * share), table)
        rate, share = SATURATE
        busy = seconds * share
        saturated = open_loop(server.port, _schedule(stream, rate, busy), table, saturate=busy)
        capacity = _saturated_rate(saturated)
        loads = []
        for fraction in LOAD_FRACTIONS:
            offered = fraction * capacity
            step = open_loop(server.port, _schedule(stream, offered, seconds * LOAD_SHARE), table)
            loads.append((offered, step, _step_summary(step)))
            if not loads[-1][2]["meets_limit"]:
                break
        rss = rss_mb_of_tree(server.proc.pid)
        counters = server.get("/v1/metrics")["counters"]
    finally:
        server.stop()
    steal = steal_share(ticks, cpu_ticks())
    calibration.append(calibrate())
    base, full = _step_summary(light), _step_summary(saturated)
    ladder = [(LIGHT[0], base)] + [(offered, summary) for offered, _, summary in loads]
    passing = [summary for _, summary in ladder if summary["meets_limit"]]
    steps = [light, saturated] + [step for _, step, _ in loads]
    records = warm + [r for step in steps for r in step["records"]]
    metrics = {
        "setup_s": stats.median(setups),
        "requests_per_s": capacity,
        "latency_p50_s": base["p50"],
        "latency_tail_s": base["tail"]["value"],
        # Configurations per request of the saturating step, at its rate.
        "configs_per_s": capacity * full["configs"] / max(1, len(saturated["records"])),
        "peak_rss_mb": rss,
        "max_rate_rps": passing[-1]["rate"] if passing else 0.0,
    }
    behind = max(summary["late_p99"] for _, summary in ladder) > LATENESS_FLAG_S
    detail = {
        "setup_samples_s": setups,
        "samples": base["tail"]["samples"],
        "tail_percentile": base["tail"]["percentile"],
        "latency_limit_s": LATENCY_LIMIT_S,
        "saturated": {
            "window_median_rps": capacity,
            "achieved_rps": full["rate"],
            "samples": len(saturated["records"]),
        },
        "ladder": [_step_detail(offered, summary) for offered, summary in ladder],
        "generator_behind": behind,
        "server_counters": counters,
        "calibration_s": calibration,
        "steal_share": steal,
        "failures": _failures(records),
    }
    if behind:
        print("perfbench: the load generator fell behind its schedule", file=sys.stderr)
    failed = sum(1 for r in records if r.get("problem"))
    return {"metrics": metrics, "detail": detail, "attempted": len(records), "failed": failed}


def _run_traced(stream, seconds: int, table: Dict[str, Any], work: Path) -> Dict[str, Any]:
    rate = LIGHT[0]
    server = Server(work)
    try:
        warm = _warm(server, table)
        untraced = open_loop(server.port, _schedule(stream, rate, seconds / 2), table)
    finally:
        server.stop()
    span_dir = work / "spans"
    span_dir.mkdir()
    server = Server(work, span_dir)
    try:
        warm += _warm(server, table)
        before = server.get("/v1/metrics")["counters"]
        traced = open_loop(server.port, _schedule(stream, rate, seconds / 2), table)
        after = server.get("/v1/metrics")["counters"]
    finally:
        server.stop()
    # Only the timed phase counts: the warm-up's spans and counters are dropped.
    spans = [s for s in load_spans(str(span_dir)) if s["start"] >= traced["start"]]
    counters = {name: after[name] - before.get(name, 0) for name in after}
    metrics, shares = _layer_metrics(spans, traced["records"], counters)
    metrics["trace.overhead_ratio"] = _step_summary(traced)["p50"] / _step_summary(untraced)["p50"]
    records = warm + untraced["records"] + traced["records"]
    failures = _failures(records)
    failed = sum(1 for r in records if r.get("problem"))
    if abs(1.0 - shares["coverage"]) > COVERAGE_TOLERANCE:
        failed += 1
        failures.append(
            f"layer spans cover {shares['coverage']:.3f} of engine-run service time "
            f"(tolerance {COVERAGE_TOLERANCE})"
        )
    if shares["unattributed"] > UNATTRIBUTED_LIMIT:
        failed += 1
        failures.append(
            f"{shares['unattributed']:.3f} of engine time is in no layer but "
            f"run_job_worker's and api.execute's own (limit {UNATTRIBUTED_LIMIT})"
        )
    detail = {
        "samples": len(traced["records"]),
        "untraced_samples": len(untraced["records"]),
        "coverage_tolerance": COVERAGE_TOLERANCE,
        "unattributed_limit": UNATTRIBUTED_LIMIT,
        **shares,
        "spans": len(spans),
        "failures": failures,
    }
    return {"metrics": metrics, "detail": detail, "attempted": len(records), "failed": failed}


def _layer_metrics(
    spans: List[Dict[str, Any]], records: List[Dict[str, Any]], counters: Dict[str, int]
):
    count = max(1, len(records))
    metrics = layers.per_request(spans, count)

    intake = {
        s["attrs"]["job"]: s
        for s in spans
        if s["name"] == "serve.intake" and s["attrs"].get("disposition") == "new"
    }
    engine = {s["attrs"]["job"]: s for s in spans if s["name"] == "serve.engine"}
    runs = [job for job in engine if job in intake]
    per_run = max(1, len(runs))
    waits = [engine[j]["start"] - intake[j]["end"] for j in runs]
    metrics["serve.queue_wait_s"] = sum(waits) / per_run
    metrics["serve.engine_s"] = sum(engine[j]["end"] - engine[j]["start"] for j in runs) / per_run
    for metric in ("trace_bytes", "trace_records"):
        metrics[f"obs.{metric}"] = sum(engine[j]["attrs"].get(metric, 0) for j in runs) / per_run

    cached = [r["done"] - r["sent"] for r in records if r.get("disposition") == "cached"]
    metrics["serve.cached_s"] = sum(cached) / len(cached) if cached else 0.0
    ok = [r for r in records if not r.get("problem")]
    metrics["reports.bytes"] = sum(r["bytes"] for r in ok) / max(1, len(ok))
    fresh = [r for r in ok if r.get("disposition") == "new"]
    for metric, counter in (
        ("kernel.configs", "explorer.configurations"),
        ("kernel.expansions", "explorer.expansions"),
        ("fuzz.executions", "fuzz.executions"),
    ):
        metrics[metric] = sum(r["counters"].get(counter, 0) for r in fresh) / count

    submitted = max(1, counters.get("submitted", 0))
    metrics["serve.cache_hit_ratio"] = counters.get("cache_hits", 0) / submitted
    metrics["serve.coalesce_ratio"] = counters.get("coalesced", 0) / submitted
    metrics["serve.engine_runs"] = counters.get("started", 0)
    metrics["serve.rejected"] = counters.get("rejected", 0)

    # Intake, queue wait and engine run back to back, so together they
    # span intake start to engine end; compare with the client's view.
    by_job = {r["job"]: r for r in fresh}
    served = [job for job in runs if job in by_job]
    accounted = sum(engine[j]["end"] - intake[j]["start"] for j in served)
    observed = sum(by_job[j]["done"] - by_job[j]["sent"] for j in served)
    coverage = accounted / observed if observed > 0 else 0.0
    metrics["trace.self_time_coverage"] = coverage
    # Inside the workers every span nests in serve.engine; what its own
    # and api.execute's self time keep is work no layer accounts for.
    own = self_time_by_name(spans)
    busy = sum(s["end"] - s["start"] for s in spans if s["name"] == "serve.engine")
    leftover = own.get("serve.engine", 0.0) + own.get("api.execute", 0.0)
    unattributed = leftover / busy if busy > 0 else 0.0
    return metrics, {"coverage": coverage, "unattributed": unattributed}
