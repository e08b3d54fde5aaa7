"""Where the benchmark's spans go: one wrapper per layer boundary.

Each wrapper times a public function of one layer of ``repro`` from
outside; nothing in the program is edited. Span names are the layer
metric names without their ``_s`` suffix.
"""

from __future__ import annotations

import os
import sys
from typing import Any, Callable, Dict, List, Tuple

from common import layer_metrics_template
from spans import SpanRecorder, self_time_by_name


def _explore_name(args: Any, kwargs: Dict[str, Any]) -> str:
    # Explorer.explore(self, initial, max_configurations, strict, symmetry)
    reduced = kwargs.get("symmetry", args[4] if len(args) > 4 else None)
    return "kernel.explore" if reduced is None else "explorer.reduced"


def _explore_attrs(args: Any, kwargs: Dict[str, Any], result: Any) -> Dict[str, Any]:
    if _explore_name(args, kwargs) == "explorer.reduced" and result is not None:
        return {"configs": len(result)}
    return {}


def _get_attrs(args: Any, kwargs: Dict[str, Any], result: Any) -> Dict[str, Any]:
    return {"hit": result is not None}


def _job_id(trace_path: Any) -> Any:
    if not trace_path:
        return None
    return os.path.basename(str(trace_path)).rsplit(".", 1)[0]


def _submit_attrs(args: Any, kwargs: Dict[str, Any], result: Any) -> Dict[str, Any]:
    if result is None:
        return {"job": None, "disposition": "refused"}
    job, disposition = result
    return {"job": job.id, "disposition": disposition}


def _engine_attrs(args: Any, kwargs: Dict[str, Any], result: Any) -> Dict[str, Any]:
    trace_path = args[1] if len(args) > 1 else kwargs.get("trace_path")
    attrs: Dict[str, Any] = {"job": _job_id(trace_path)}
    try:
        with open(trace_path, "rb") as handle:
            data = handle.read()
        attrs["trace_bytes"] = len(data)
        attrs["trace_records"] = data.count(b"\n")
    except (OSError, TypeError):
        pass
    return attrs


def install(recorder: SpanRecorder) -> Callable[[], None]:
    """Wrap every layer boundary the per-layer metrics are read from;
    the returned function puts the original functions back."""
    import repro.analysis.cache as cache
    import repro.fuzz.engine as fuzz_engine
    import repro.serve.jobs as jobs
    from repro.analysis.explorer import ExplorationResult, Explorer
    from repro.api.requests import Request
    from repro.reports import Report

    api_execute = sys.modules["repro.api.execute"]
    originals: List[Tuple[Any, str, Any]] = []

    def wrap(owner: Any, attr: str, name: Any, attrs: Any = None) -> None:
        original = owner.__dict__[attr]
        originals.append((owner, attr, original))
        setattr(owner, attr, recorder.wrap(original, name, attrs))

    wrap(api_execute, "execute", "api.execute")
    wrap(Request, "fingerprint", "api.fingerprint")
    wrap(cache, "fingerprint", "api.fingerprint")

    wrap(Explorer, "explore", _explore_name, _explore_attrs)
    wrap(Explorer, "check_safety", "explorer.safety")
    wrap(Explorer, "solo_termination", "explorer.solo")
    wrap(Explorer, "find_livelock", "explorer.livelock")

    wrap(cache.ExplorationCache, "get", "cache.get", _get_attrs)
    wrap(cache.ExplorationCache, "put", "cache.put")
    wrap(cache, "graph_digest", "cache.digest")
    wrap(Explorer, "adopt_portable", "cache.adopt")
    wrap(ExplorationResult, "to_portable", "cache.to_portable")

    wrap(fuzz_engine, "fuzz_campaign", "fuzz.campaign")

    wrap(Report, "to_dict", "reports.encode")
    wrap(Report, "to_json", "reports.encode")

    wrap(jobs.JobManager, "submit", "serve.intake", _submit_attrs)
    # Pickled by qualified name: the pool's forked workers resolve the
    # module attribute, which is this wrapper.
    wrap(jobs, "run_job_worker", "serve.engine", _engine_attrs)

    def uninstall() -> None:
        for owner, attr, original in reversed(originals):
            setattr(owner, attr, original)

    return uninstall


def per_request(spans: List[Dict[str, Any]], requests: int) -> Dict[str, float]:
    """Every per-layer metric at 0, then each span name's self seconds
    and the reduced configurations, per request."""
    count = max(1, requests)
    metrics = layer_metrics_template()
    for name, seconds in self_time_by_name(spans).items():
        metrics[f"{name}_s"] = seconds / count
    metrics["explorer.reduced_configs"] = (
        sum(s["attrs"].get("configs", 0) for s in spans if s["name"] == "explorer.reduced") / count
    )
    return metrics
