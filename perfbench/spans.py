"""Benchmark-owned spans: in-memory, parent-linked, written at exit.

A :class:`SpanRecorder` wraps public functions of the program from the
outside; each call becomes one span ``(id, parent, name, start, end,
attrs)`` whose parent is the span open when it began. Spans stay in
memory and are written as JSON lines when the process ends. After a
fork the child drops the spans it inherited and writes its own.

A layer's self time is its span's duration minus the part of that
interval its child spans cover (:func:`self_times`).
"""

from __future__ import annotations

import functools
import json
import multiprocessing.util
import os
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

clock = time.monotonic  # system-wide on Linux: comparable across processes


class SpanRecorder:
    def __init__(self, out_dir: Optional[str] = None) -> None:
        self.out_dir = out_dir
        self.spans: List[Dict[str, Any]] = []
        self._stack: List[int] = []
        self._next = 1
        self._pid = os.getpid()

    def _check_fork(self) -> None:
        if os.getpid() == self._pid:
            return
        self._pid = os.getpid()
        self.spans = []
        self._stack = []
        if self.out_dir is not None:
            # Pool workers leave through multiprocessing's exit hooks,
            # which skip atexit but run registered finalizers.
            multiprocessing.util.Finalize(self, self.dump, exitpriority=10)

    def open(self, name: str) -> Dict[str, Any]:
        self._check_fork()
        span = {
            "pid": self._pid,
            "id": self._next,
            "parent": self._stack[-1] if self._stack else None,
            "name": name,
            "start": clock(),
            "end": None,
            "attrs": {},
        }
        self._next += 1
        self._stack.append(span["id"])
        return span

    def close(self, span: Dict[str, Any]) -> None:
        span["end"] = clock()
        if self._stack and self._stack[-1] == span["id"]:
            self._stack.pop()
        self.spans.append(span)

    def wrap(
        self,
        fn: Callable,
        name: Any,
        attrs: Optional[Callable[..., Dict[str, Any]]] = None,
    ) -> Callable:
        """``fn`` recorded as a span; ``name`` may be a function of the
        call's ``(args, kwargs)``; ``attrs(args, kwargs, result)``
        annotates the closed span."""

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            span = self.open(name(args, kwargs) if callable(name) else name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self.close(span)
                if attrs is not None:
                    span["attrs"] = attrs(args, kwargs, result)

        return wrapper

    def dump(self) -> None:
        if self.out_dir is None or not self.spans:
            return
        path = os.path.join(self.out_dir, f"spans-{self._pid}.jsonl")
        with open(path, "a", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
        self.spans = []


def load_spans(out_dir: str) -> List[Dict[str, Any]]:
    spans: List[Dict[str, Any]] = []
    for entry in sorted(os.listdir(out_dir)):
        if entry.startswith("spans-") and entry.endswith(".jsonl"):
            with open(os.path.join(out_dir, entry), encoding="utf-8") as fh:
                spans.extend(json.loads(line) for line in fh if line.strip())
    return spans


def _covered(intervals: Iterable[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: Iterable[Dict[str, Any]]) -> Dict[Tuple[int, int], float]:
    """``(pid, id)`` → duration minus the time its children cover."""
    spans = list(spans)
    children: Dict[Tuple[int, int], List[Tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span["parent"] is not None:
            children[(span["pid"], span["parent"])].append(
                (span["start"], span["end"])
            )
    result = {}
    for span in spans:
        key = (span["pid"], span["id"])
        duration = span["end"] - span["start"]
        result[key] = duration - _covered(
            children.get(key, ()), span["start"], span["end"]
        )
    return result


def self_time_by_name(spans: Iterable[Dict[str, Any]]) -> Dict[str, float]:
    spans = list(spans)
    own = self_times(spans)
    totals: Dict[str, float] = defaultdict(float)
    for span in spans:
        totals[span["name"]] += own[(span["pid"], span["id"])]
    return dict(totals)
