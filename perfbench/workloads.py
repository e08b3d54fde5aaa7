"""Seeded request generation and the known-answer check.

Requests are wire-form dicts (``Request.to_dict`` shape), so the same
generator feeds the in-process caller and the HTTP client. Each
workload is a fixed multiset of request kinds (a *deck*) replayed in a
seed-shuffled order; the seed also picks fuzz campaign seeds and the
novel explore inputs. A fixed deck keeps the median and the tail on
the same request kind on every seed, so runs compare.
"""

from __future__ import annotations

import itertools
import json
import random
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

Payload = Dict[str, Any]

KNOWN_ANSWERS = Path(__file__).with_name("known_answers.json")

#: Input values of the novel explores, by n (the pools they draw from).
NOVEL_VALUES = {5: 4, 6: 3}


def paper_inputs(n: int) -> List[int]:
    return [1] + [0] * (n - 1)


def explore_key(n: int, inputs: Sequence[int]) -> str:
    return f"{n}:" + ",".join(str(v) for v in inputs)


def explore_instances() -> List[Tuple[int, Tuple[int, ...]]]:
    """Explore instances whose counts the table pins: paper inputs at
    n=5..8 and every input of the novel-input pools."""
    instances = [(n, tuple(paper_inputs(n))) for n in (5, 6, 7, 8)]
    for n, values in NOVEL_VALUES.items():
        instances += [(n, inputs) for inputs in itertools.product(range(values), repeat=n)]
    seen = set()
    return [i for i in instances if not (i in seen or seen.add(i))]


# -- verify-cold -------------------------------------------------------------

def _fuzz(rng: random.Random, n: int) -> Payload:
    return {"command": "fuzz", "algorithm2_n": n, "seed": rng.randrange(1, 2**31)}


def _verify_cold_decks(rng: random.Random) -> Iterator[List[Payload]]:
    # Counts place the median inside the n=7 explore block and the tail
    # (11th largest) inside the n=5 verify block for any run of >= 4 decks.
    while True:
        deck: List[Payload] = []
        deck += [{"command": "refute"}] * 2
        deck += [{"command": "explore", "n": 6}] * 3
        deck += [{"command": "verify", "n": 4}] * 3
        deck += [{"command": "explore", "n": 7}] * 3
        deck += [{"command": "explore", "n": 5, "symmetry": True}]
        deck += [_fuzz(rng, 3), _fuzz(rng, 3)]
        deck += [{"command": "explore", "n": 8}]
        deck += [{"command": "verify", "n": 4, "symmetry": True}]
        deck += [{"command": "verify", "n": 5}] * 3
        rng.shuffle(deck)
        yield deck


# -- cache-warm --------------------------------------------------------------

WORKING_SET: Tuple[Payload, ...] = (
    {"command": "verify", "n": 4},
    {"command": "verify", "n": 5},
    {"command": "explore", "n": 6, "inputs": paper_inputs(6)},
    {"command": "explore", "n": 7, "inputs": paper_inputs(7)},
    {"command": "explore", "n": 8, "inputs": paper_inputs(8)},
)

#: Repeats of each ``WORKING_SET`` entry per cache-warm deck.
WORKING_SET_COUNTS = (3, 2, 4, 3, 1)


def _novel_inputs(
    rng: random.Random, n: int, exclude: Sequence[Sequence[int]]
) -> Iterator[List[int]]:
    """Pool inputs of size ``n`` in seeded order, each used once before
    the pool is reshuffled and used again."""
    taken = {tuple(inputs) for inputs in exclude}
    pool = [p for p in itertools.product(range(NOVEL_VALUES[n]), repeat=n) if p not in taken]
    while True:
        rng.shuffle(pool)
        yield from (list(p) for p in pool)


def _cache_warm_decks(rng: random.Random) -> Iterator[List[Payload]]:
    # Per deck 13 working-set hits and 1 miss (93% hits). As many
    # requests are faster than the n=6 hits as are slower, so the median
    # sits in the middle of the n=6 hit block; the tail (see
    # inproc.TAIL_WINDOW_DECKS) sits in the middle of the n=7 hit block.
    novel = _novel_inputs(rng, 6, [paper_inputs(6)])
    while True:
        deck = [dict(p) for p, k in zip(WORKING_SET, WORKING_SET_COUNTS) for _ in range(k)]
        deck.append({"command": "explore", "n": 6, "inputs": next(novel)})
        rng.shuffle(deck)
        yield deck


# -- serve-open --------------------------------------------------------------

#: Executions per cold fuzz campaign on ``serve-open``: a real engine
#: run, short enough that few hot requests wait behind it.
SERVE_FUZZ_BUDGET = 100

SERVE_HOT: Tuple[Payload, ...] = (
    {"command": "verify", "n": 3},
    {"command": "verify", "n": 4},
    {"command": "refute"},
    {"command": "explore", "n": 5},
    {"command": "fuzz", "algorithm2_n": 2, "seed": 7, "budget": 100},
)


def _serve_decks(rng: random.Random) -> Iterator[List[Payload]]:
    # 20 hot repeats (LRU hits or coalesced) and 4 cold novel requests
    # (two fresh n=5 explore inputs, two fuzz campaigns with fresh
    # seeds) per deck of 24. The seed orders the hot requests; the cold
    # ones sit at fixed, evenly spaced places, so how many hot requests
    # wait behind a running engine does not change with the seed. The
    # median sits among the hot requests that meet no engine run, and
    # the tail in the middle of the fuzz block, the heaviest kind.
    novel = _novel_inputs(rng, 5, [paper_inputs(5)])
    while True:
        hot = [dict(p) for p in SERVE_HOT for _ in range(4)]
        rng.shuffle(hot)
        cold = []
        for _ in range(2):
            cold.append({**_fuzz(rng, 3), "budget": SERVE_FUZZ_BUDGET})
            cold.append({"command": "explore", "n": 5, "inputs": next(novel)})
        deck: List[Payload] = []
        for index, payload in enumerate(cold):
            deck.append(payload)
            deck += hot[5 * index : 5 * index + 5]
        yield deck


# -- public entry points -----------------------------------------------------

WORKLOADS = ("verify-cold", "cache-warm", "serve-open")


def decks(workload: str, seed: int) -> Iterator[List[Payload]]:
    """An endless stream of shuffled decks; equal seeds, equal streams."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "verify-cold":
        return _verify_cold_decks(rng)
    if workload == "cache-warm":
        return _cache_warm_decks(rng)
    if workload == "serve-open":
        return _serve_decks(rng)
    raise ValueError(f"unknown workload {workload!r}")


def requests(workload: str, seed: int, count: int) -> List[Payload]:
    """The first ``count`` requests of a workload (flattened decks)."""
    return list(itertools.islice(itertools.chain.from_iterable(decks(workload, seed)), count))


# -- known answers -----------------------------------------------------------

def load_known_answers() -> Dict[str, Any]:
    return json.loads(KNOWN_ANSWERS.read_text(encoding="utf-8"))


def check(table: Dict[str, Any], payload: Payload, status: Any, data: Any) -> Optional[str]:
    """None when the Report matches the table, else what differs."""
    command = payload["command"]
    if status != "ok":
        return f"status {status!r}, expected 'ok'"
    if not isinstance(data, dict):
        return "report carries no data"
    if command == "verify":
        key = f"{payload['n']}" + ("/symmetry" if payload.get("symmetry") else "")
        want = table["verify"].get(key)
        got = data.get("total_configurations")
    elif command == "explore":
        n = payload["n"]
        if payload.get("symmetry"):
            want = table["explore_symmetry"].get(str(n))
        else:
            inputs = payload.get("inputs") or paper_inputs(n)
            want = table["explore"].get(explore_key(n, inputs))
        got = data.get("configurations") if data.get("complete") else None
    elif command == "refute":
        got = [(o["name"], o["expected"], o["outcome"]) for o in data.get("outcomes", ())]
        want = [(c["name"], c["expected"], c["expected"]) for c in table["refute"]]
    elif command == "fuzz":
        spec = table["fuzz"].get(f"algorithm2_n={payload.get('algorithm2_n')}")
        if spec is None:
            return "no known answer for this fuzz target"
        budget = payload.get("budget", spec["default_budget"])
        targets = data.get("targets", ())
        got = [(t["observed"], t["executions"]) for t in targets]
        want = [(spec["observed"], budget)] * spec["targets"]
    else:
        return f"unknown command {command!r}"
    if want is None:
        return f"no known answer for {payload!r}"
    if got != want:
        return f"expected {want!r}, got {got!r}"
    return None
