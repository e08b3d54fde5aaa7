"""Persistent content-addressed cache for exploration results.

Every test/bench/CLI invocation re-explores the same small instances:
the candidate suite, the Algorithm 2 input sweeps, the E01–E18 battery.
The graphs are pure functions of (protocol, n, inputs, explorer
options, code version), so they can be stored once and rehydrated on
every later run.

Keying
------

:func:`fingerprint` hashes a *canonical* rendering of the caller's
key components together with :func:`code_salt` — a digest over every
``.py`` file in the installed ``repro`` package. Any source edit
anywhere in the library therefore busts every entry; a cache hit always
means "the exact same code answered the exact same question before".
Components are canonicalized structurally (mappings and sets become
sorted tuples) and rendered with ``repr``, never pickled and never
hashed with ``hash()`` — the fingerprint is independent of
``PYTHONHASHSEED`` and of pickle's internal ordering.

Storage
-------

One entry = one file under ``<root>/<fp[:2]>/<fp>.pkl`` holding a
sha256 digest plus the pickled payload. Writes are atomic
(temp + ``os.replace``); a corrupt or digest-mismatched file is deleted
and reported as a miss, never returned. ``<root>`` defaults to
``$REPRO_CACHE_DIR`` or ``.repro-cache`` under the working directory.

Exploration entries
-------------------

:func:`explore_cached` stores a graph in the kernel's own packed form
(:meth:`~repro.analysis.explorer.ExplorationResult.to_portable`): the
encoder's code tables, the edge table, every interned row as one
32-bit array, and the recorded flat adjacency with its offsets, plus
``complete`` and the walk budget. Order and parents are not stored. A
hit loads the entry into the caller's *fresh* explorer in bulk
(:meth:`~repro.analysis.explorer.Explorer.adopt_portable`) and replays
the ordinary kernel BFS over the loaded adjacency, which rebuilds them
byte for byte without a single protocol hook call.

Warm-hit validation
-------------------

Each entry carries a :func:`graph_digest`: sha256 over the arrays'
bytes plus a ``repr`` rendering of the small tables, which is
independent of ``PYTHONHASHSEED``. Every hit recomputes it, and the
bulk load then checks the entry against the explorer's protocol (code
ranges, edge and id bounds, the initial configuration, a replay that
stays inside the loaded adjacency). A stale, corrupt or foreign entry
raises :class:`CacheIntegrityError` instead of silently changing a
verdict.
"""

from __future__ import annotations

import hashlib
import os
import pickle
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    Mapping,
    Optional,
    Tuple,
    TYPE_CHECKING,
)

from .. import obs
from ..errors import AnalysisError, CacheIntegrityError
from ..types import Value

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .explorer import ExplorationResult, Explorer

__all__ = [
    "CACHE_SCHEMA",
    "CacheIntegrityError",
    "CacheStats",
    "ExplorationCache",
    "canonicalize",
    "code_salt",
    "explore_cached",
    "fingerprint",
    "graph_digest",
]


#: Bumped whenever the payload layout changes; part of every fingerprint.
#: 2: exploration entries hold the packed kernel form.
CACHE_SCHEMA = 2

_PACKAGE_ROOT = Path(__file__).resolve().parent.parent

#: Memoized code salt (one filesystem walk per process).
_code_salt: Optional[str] = None


def code_salt() -> str:
    """sha256 over every ``.py`` file of the installed ``repro`` package.

    Included in every fingerprint, so *any* source change invalidates
    the whole cache — coarse, but it makes staleness structurally
    impossible rather than a matter of careful dependency tracking.
    """
    global _code_salt
    if _code_salt is None:
        blob = hashlib.sha256()
        for path in sorted(_PACKAGE_ROOT.rglob("*.py")):
            blob.update(str(path.relative_to(_PACKAGE_ROOT)).encode())
            blob.update(path.read_bytes())
        _code_salt = blob.hexdigest()
    return _code_salt


def _canonical(value: Any) -> Any:
    """A deterministically ``repr``-able rendering of ``value``.

    Mappings become name-tagged sorted item tuples, sets become sorted
    tuples (sorted by ``repr`` — pure string comparison, hash-seed
    independent), sequences recurse. Everything else must already have
    a deterministic ``repr`` (numbers, strings, sentinels, tuples).
    """
    if isinstance(value, Mapping):
        items = [(_canonical(k), _canonical(v)) for k, v in value.items()]
        items.sort(key=repr)
        return ("mapping",) + tuple(items)
    if isinstance(value, (set, frozenset)):
        rendered = [_canonical(v) for v in sorted(value, key=repr)]
        return ("set",) + tuple(rendered)
    if isinstance(value, (list, tuple)):
        return tuple(_canonical(v) for v in value)
    return value


#: Public name for the canonical rendering — the request objects in
#: :mod:`repro.api.requests` canonicalize through exactly this function
#: so their fingerprints and the exploration cache's agree structurally.
canonicalize = _canonical


def fingerprint(**components: Any) -> str:
    """Content address for one cacheable question.

    Keyword arguments name the question's parts (protocol factory
    identity, ``n``, inputs, explorer options, …); the code salt and
    schema version are always mixed in.
    """
    rendered = repr(
        (
            CACHE_SCHEMA,
            code_salt(),
            _canonical(components),
        )
    )
    return hashlib.sha256(rendered.encode()).hexdigest()


@dataclass(frozen=True)
class CacheStats:
    """Point-in-time shape of one cache directory."""

    root: str
    entries: int
    total_bytes: int


class ExplorationCache:
    """Content-addressed on-disk store for verification results.

    One instance also counts its own ``hits`` / ``misses`` / ``stores``
    so sweeps can report warm-vs-cold behaviour.
    """

    def __init__(self, root: Optional[os.PathLike] = None) -> None:
        if root is None:
            root = os.environ.get("REPRO_CACHE_DIR") or ".repro-cache"
        self.root = Path(root)
        self.hits = 0
        self.misses = 0
        self.stores = 0

    # -- low-level entry I/O --------------------------------------------

    def _entry_path(self, fp: str) -> Path:
        return self.root / fp[:2] / f"{fp}.pkl"

    def get(self, fp: str) -> Optional[Any]:
        """The payload stored under fingerprint ``fp``, or None.

        A corrupt entry (unreadable, truncated, digest mismatch) is
        deleted and counted as a miss.
        """
        path = self._entry_path(fp)
        try:
            raw = path.read_bytes()
            digest, payload_bytes = pickle.loads(raw)
            if hashlib.sha256(payload_bytes).hexdigest() != digest:
                raise ValueError("payload digest mismatch")
            payload = pickle.loads(payload_bytes)
        except FileNotFoundError:
            self.misses += 1
            obs.counter("cache.misses")
            obs.event("cache.get", fp=fp[:12], hit=False)
            return None
        except Exception:
            # Unreadable or tampered entry: drop it, report a miss. The
            # caller recomputes — a broken cache can cost time, never
            # correctness.
            try:
                path.unlink()
            except OSError:
                pass
            self.misses += 1
            obs.counter("cache.misses")
            obs.counter("cache.corrupt_entries")
            obs.event("cache.get", fp=fp[:12], hit=False, corrupt=True)
            return None
        self.hits += 1
        obs.counter("cache.hits")
        obs.event("cache.get", fp=fp[:12], hit=True)
        return payload

    def put(self, fp: str, payload: Any) -> None:
        """Store ``payload`` under ``fp`` (atomic write)."""
        payload_bytes = pickle.dumps(payload, protocol=4)
        digest = hashlib.sha256(payload_bytes).hexdigest()
        path = self._entry_path(fp)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        tmp.write_bytes(pickle.dumps((digest, payload_bytes), protocol=4))
        os.replace(tmp, path)
        self.stores += 1
        obs.counter("cache.stores")
        obs.event("cache.put", fp=fp[:12], bytes=len(payload_bytes))

    def get_or_compute(
        self, components: Mapping[str, Any], compute: Callable[[], Any]
    ) -> Tuple[Any, bool]:
        """``(payload, was_hit)`` for the question named by ``components``.

        On a miss, ``compute()`` runs and its result is stored before
        being returned.
        """
        fp = fingerprint(**components)
        payload = self.get(fp)
        if payload is not None:
            return payload, True
        payload = compute()
        self.put(fp, payload)
        return payload, False

    # -- maintenance -----------------------------------------------------

    def _entry_files(self):
        if not self.root.is_dir():
            return []
        return sorted(self.root.glob("*/*.pkl"))

    def stats(self) -> CacheStats:
        files = self._entry_files()
        total = 0
        for path in files:
            try:
                total += path.stat().st_size
            except OSError:
                pass
        return CacheStats(
            root=str(self.root), entries=len(files), total_bytes=total
        )

    def clear(self) -> int:
        """Delete every entry; returns the number removed."""
        removed = 0
        for path in self._entry_files():
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed


# -- exploration-graph caching ----------------------------------------------


def graph_digest(portable: Mapping[str, Any]) -> str:
    """sha256 over a packed exploration entry.

    The small tables (code tables, edges, operations, ``complete``,
    budget) are plain tuples of values with deterministic ``repr``, so
    their rendering is bit-stable across interpreter runs and
    ``PYTHONHASHSEED`` values; the row and adjacency arrays are hashed
    as their bytes, each prefixed by its length.
    """
    blob = hashlib.sha256(
        repr(
            (
                portable["complete"],
                portable["budget"],
                portable["locals"],
                portable["statuses"],
                portable["objects"],
                portable["edges"],
                portable["operations"],
            )
        ).encode()
    )
    for name in ("rows", "adjacency", "offsets"):
        data = portable[name]
        blob.update(b"%d:" % len(data))
        blob.update(data)
    return blob.hexdigest()


def explore_cached(
    explorer: "Explorer",
    cache: Optional[ExplorationCache],
    components: Mapping[str, Any],
    max_configurations: int = 200_000,
    include_decision_table: bool = False,
) -> Tuple["ExplorationResult", bool]:
    """Explore via ``explorer``, or load a cached graph into it.

    ``components`` must identify the *instance* (factory identity, n,
    inputs, options); explorer options that change the graph belong in
    there too. Returns ``(result, was_hit)``. With
    ``include_decision_table`` the backward decision fixpoint is
    computed on the miss path and its table rides along in the entry,
    so warm hits answer valency queries without any traversal.

    ``explorer`` must be fresh: a hit bulk-loads the entry into it.
    On a hit the stored :func:`graph_digest` is recomputed from the
    payload, and the load checks the entry against the explorer's
    protocol; a mismatch or a failed check raises
    :class:`CacheIntegrityError` (stale entries must fail loudly, not
    alter verdicts).
    """
    if cache is None:
        result = explorer.explore(max_configurations=max_configurations)
        if include_decision_table:
            explorer.decision_table(exploration=result)
        return result, False

    full_components = dict(components)
    full_components["max_configurations"] = max_configurations
    full_components["include_decision_table"] = include_decision_table
    fp = fingerprint(**full_components)
    payload = cache.get(fp)
    if payload is not None:
        try:
            if graph_digest(payload["portable"]) != payload["graph_digest"]:
                raise ValueError("graph digest mismatch")
            result = explorer.adopt_portable(payload["portable"])
            decision_sets = payload["decision_sets"]
            if decision_sets is not None:
                _install_decision_sets(explorer, result, decision_sets)
        except (AnalysisError, LookupError, TypeError, ValueError) as exc:
            obs.counter("cache.integrity_failures")
            obs.event("cache.integrity_failure", fp=fp[:12])
            raise CacheIntegrityError(
                f"cached exploration graph failed validation (entry "
                f"{fp[:12]}…): stale or corrupt entry: {exc}"
            ) from exc
        return result, True

    result = explorer.explore(max_configurations=max_configurations)
    portable = result.to_portable()
    payload = {
        "portable": portable,
        "graph_digest": graph_digest(portable),
        "decision_sets": None,
    }
    if include_decision_table:
        table = explorer.decision_table(exploration=result)
        payload["decision_sets"] = [
            sorted(table[cid], key=repr) for cid in result.order_ids
        ]
    cache.put(fp, payload)
    return result, False


def _install_decision_sets(
    explorer: "Explorer",
    result: "ExplorationResult",
    decision_sets,
) -> None:
    """Seed the explorer's shared decision-set table from a cached
    per-position list (aligned with ``result.order_ids``)."""
    if len(decision_sets) != len(result.order_ids):
        raise ValueError("decision sets do not match the graph's order")
    table: Dict[int, FrozenSet[Value]] = explorer._decision_sets
    for cid, values in zip(result.order_ids, decision_sets):
        table[cid] = frozenset(values)
