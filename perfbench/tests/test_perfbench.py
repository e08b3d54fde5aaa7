"""Tests of the benchmark's own code (no program run needed).

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

import stats  # noqa: E402
from common import END_TO_END, PER_LAYER  # noqa: E402
from spans import SpanRecorder, _covered, self_time_by_name, self_times  # noqa: E402
from inproc import TAIL_WINDOW_DECKS  # noqa: E402
from serve_open import _saturated_rate  # noqa: E402
from workloads import (  # noqa: E402
    SERVE_HOT,
    WORKING_SET,
    WORKLOADS,
    check,
    decks,
    load_known_answers,
    requests,
)


def test_same_seed_gives_identical_requests():
    for workload in WORKLOADS:
        first = requests(workload, 7, 200)
        assert first == requests(workload, 7, 200)
        assert first != requests(workload, 8, 200)


def test_novel_requests_never_repeat_within_a_run():
    repeated = {json.dumps(p, sort_keys=True) for p in WORKING_SET + SERVE_HOT}
    for workload in ("cache-warm", "serve-open"):
        keys = [json.dumps(p, sort_keys=True) for p in requests(workload, 3, 600)]
        novel = [key for key in keys if key not in repeated]
        assert novel and len(novel) == len(set(novel))


def test_serve_cold_requests_sit_at_fixed_places():
    stream = decks("serve-open", 5)
    for _ in range(20):
        deck = next(stream)
        cold = [i for i, p in enumerate(deck) if p not in SERVE_HOT]
        assert len(deck) == 24 and cold == [0, 6, 12, 18]
        assert [deck[i]["command"] for i in cold] == ["fuzz", "explore"] * 2


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    tail = stats.tail([float(v) for v in range(1, 101)])
    assert tail["value"] == 90.0
    assert tail["percentile"] == 90.0
    assert sum(v > tail["value"] for v in range(1, 101)) == 10
    tail = stats.tail([float(v) for v in range(1, 1001)])
    assert tail["value"] == 990.0 and tail["percentile"] == 99.0


def test_window_tail_keeps_the_percentile_of_one_window():
    window = 40
    for n in (40, 80, 123, 400):
        values = [float(v) for v in range(1, n + 1)]
        tail = stats.window_tail(values, window)
        assert tail["percentile"] == 75.0 and tail["samples"] == n
        beyond = sum(v > tail["value"] for v in values)
        assert beyond >= 10 and beyond == n - 30 * n // 40
    assert stats.window_tail([float(v) for v in range(1, 41)], 40) == stats.tail(
        [float(v) for v in range(1, 41)]
    )
    assert stats.window_tail([2.0, 1.0], 40) == stats.tail([2.0, 1.0])


def _kind(payload):
    if payload["command"] in ("verify", "refute", "fuzz"):
        return (payload["command"], payload.get("n"), bool(payload.get("symmetry")))
    novel = "inputs" in payload and payload["inputs"] != [1] + [0] * (payload["n"] - 1)
    return ("explore", payload["n"], bool(payload.get("symmetry")), novel)


#: Latency order of each workload's request kinds (fastest first), as
#: measured on 2 CPUs; kinds in one tuple overlap and count as one block.
SLOWNESS = {
    "cache-warm": [
        ("verify", 4, False), ("verify", 5, False),
        ("explore", 6, False, False), ("explore", 6, False, True),
        ("explore", 7, False, False), ("explore", 8, False, False),
    ],
    "verify-cold": [
        ("refute", None, False), ("explore", 6, False, False), ("verify", 4, False),
        ("explore", 7, False, False), ("explore", 5, True, False), ("fuzz", None, False),
        (("explore", 8, False, False), ("verify", 4, True), ("verify", 5, False)),
    ],
}


def _blocks(workload, count):
    """(block, rank within block) of each sample of ``count`` decks,
    with latencies ordered by ``SLOWNESS``; samples of a kind keep
    their order of arrival."""
    levels = {}
    for level, entry in enumerate(SLOWNESS[workload]):
        for kind in entry if isinstance(entry[0], tuple) else (entry,):
            levels[kind] = level
    stream = decks(workload, 11)
    flat = [p for _ in range(count) for p in next(stream)]
    seen = {}
    samples = []
    for index, payload in enumerate(flat):
        level = levels[_kind(payload)]
        seen[level] = seen.get(level, 0) + 1
        samples.append(level * 1e6 + index)
    return samples, seen, len(flat) // count


def _locate(value, samples, totals):
    level = int(value // 1e6)
    within = sorted(v for v in samples if int(v // 1e6) == level)
    return level, within.index(value) / totals[level]


def test_median_and_tail_stay_on_one_kind_for_any_deck_count():
    for workload, median_level, tail_level in (("cache-warm", 2, 4), ("verify-cold", 3, 6)):
        for count in range(TAIL_WINDOW_DECKS, 41):
            samples, totals, size = _blocks(workload, count)
            ordered = sorted(samples)
            median = ordered[(len(ordered) - 1) // 2]
            tail = stats.window_tail(samples, TAIL_WINDOW_DECKS * size)["value"]
            assert _locate(median, samples, totals)[0] == median_level, (workload, count)
            assert _locate(tail, samples, totals)[0] == tail_level, (workload, count)
            if workload == "cache-warm":
                # Mid n=6 hit block, and mid n=7 hit block.
                assert 0.3 <= _locate(median, samples, totals)[1] <= 0.7
                assert 0.3 <= _locate(tail, samples, totals)[1] <= 0.7


def test_saturated_rate_is_the_median_of_whole_second_windows():
    start = 100.0
    done = [0.1, 0.5, 0.9, 1.2, 1.4, 2.1, 2.2, 2.3, 2.4, 3.05]
    step = {"start": start, "records": [{"done": start + d} for d in done]}
    step["records"].append({"done": start + 0.2, "problem": "HTTP 500"})
    assert _saturated_rate(step) == 3


def test_tail_with_too_few_samples_is_the_maximum():
    tail = stats.tail([3.0, 1.0, 2.0])
    assert tail == {"value": 3.0, "percentile": 100.0, "samples": 3}


def test_failed_samples_push_the_tail_past_any_limit():
    values = [0.01] * 89 + [math.inf] * 11
    assert stats.tail(values)["value"] == math.inf
    assert stats.median([1.0, 2.0, 4.0]) == 2.0


def _span(pid, ident, parent, name, start, end):
    return {"pid": pid, "id": ident, "parent": parent, "name": name,
            "start": start, "end": end, "attrs": {}}


def test_self_time_is_duration_minus_child_coverage():
    spans = [
        _span(1, 1, None, "api.execute", 0.0, 10.0),
        _span(1, 2, 1, "explorer.safety", 1.0, 5.0),
        _span(1, 3, 2, "kernel.explore", 2.0, 4.0),
        _span(1, 4, 1, "kernel.explore", 6.0, 7.0),
        _span(1, 5, 1, "cache.get", 7.5, 9.0),
        # Same ids in another process are another tree.
        _span(2, 1, None, "api.execute", 0.0, 3.0),
    ]
    own = self_times(spans)
    assert own[(1, 1)] == 10.0 - (4.0 + 1.0 + 1.5)
    assert own[(1, 2)] == 2.0
    assert own[(2, 1)] == 3.0
    by_name = self_time_by_name(spans)
    assert by_name["kernel.explore"] == 3.0
    # Self times partition the root spans' wall time.
    assert math.isclose(sum(by_name.values()), 10.0 + 3.0)


def test_child_coverage_counts_overlap_once_and_clips_to_the_parent():
    assert _covered([(1.0, 3.0), (2.0, 5.0), (9.0, 12.0)], 0.0, 10.0) == 5.0
    assert _covered([], 0.0, 10.0) == 0.0


def test_recorder_links_nested_calls():
    recorder = SpanRecorder()

    def inner():
        return 1

    wrapped_inner = recorder.wrap(inner, "inner")
    outer = recorder.wrap(lambda: wrapped_inner() + 1, "outer", lambda a, k, r: {"r": r})
    assert outer() == 2
    spans = {s["name"]: s for s in recorder.spans}
    assert spans["inner"]["parent"] == spans["outer"]["id"]
    assert spans["outer"]["parent"] is None
    assert spans["outer"]["attrs"] == {"r": 2}


def test_known_answer_check_rejects_a_wrong_count():
    table = load_known_answers()
    verify = {"command": "verify", "n": 4}
    assert check(table, verify, "ok", {"total_configurations": 4482}) is None
    assert check(table, verify, "ok", {"total_configurations": 4481}) is not None
    assert check(table, verify, "violation", {"total_configurations": 4482}) is not None
    explore = {"command": "explore", "n": 8}
    assert check(table, explore, "ok", {"configurations": 38059, "complete": True}) is None
    assert check(table, explore, "ok", {"configurations": 38058, "complete": True}) is not None
    assert check(table, explore, "ok", {"configurations": 38059, "complete": False}) is not None


def test_known_answer_check_rejects_a_wrong_verdict():
    table = load_known_answers()
    outcomes = [
        {"name": c["name"], "expected": c["expected"], "outcome": c["expected"]}
        for c in table["refute"]
    ]
    assert check(table, {"command": "refute"}, "ok", {"outcomes": outcomes}) is None
    outcomes[0] = dict(outcomes[0], outcome="none")
    assert check(table, {"command": "refute"}, "ok", {"outcomes": outcomes}) is not None
    fuzz = {"command": "fuzz", "algorithm2_n": 3, "seed": 5}
    targets = [{"observed": "none", "executions": 300}] * 8
    assert check(table, fuzz, "ok", {"targets": targets}) is None
    targets[3] = {"observed": "safety", "executions": 300}
    assert check(table, fuzz, "ok", {"targets": targets}) is not None


def test_known_answers_pin_the_stated_figures():
    table = load_known_answers()
    assert table["verify"]["4"] == 4482 and table["verify"]["5"] == 33374
    paper = ("6:1,0,0,0,0,0", "7:1,0,0,0,0,0,0", "8:1,0,0,0,0,0,0,0")
    assert [table["explore"][k] for k in paper] == [3369, 11406, 38059]


def test_benchmark_json_names_the_printed_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
