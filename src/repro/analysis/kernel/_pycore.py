"""Pure-Python flat kernel: big-int words, dict-free hot loop.

Each interned configuration is one arbitrary-precision integer — the
packed row of :mod:`~repro.analysis.kernel.encoding` folded as
``sum(code << FIELD_BITS*slot)``. The BFS hot loop then touches only:

* one list (``_words``, cid -> word),
* one dict (``_ids``, word -> cid) hit once per *generated* successor,
* per-``(pid, local, object-state)`` **delta tables**: a transition is
  applied as a single integer add (the precomputed signed adjustment of
  the three affected fields), not dataclass construction.

Protocol semantics stay in Python land: when a ``(pid, local)`` or
``(pid, local, obj)`` key misses its table the kernel calls back into
the explorer (``resolve_invoke`` / ``compute_deltas``) exactly once,
then replays the memoized result forever after. The compiled backend
mirrors this contract byte-for-byte — same ids, same edge order — and
the same ``export_graph``/``load_graph`` buffers, so an exploration
cache entry written by one backend loads into the other.
"""

from __future__ import annotations

import sys
from array import array
from itertools import accumulate, chain
from typing import Callable, List, Optional, Sequence, Tuple

from .encoding import FIELD_BITS, MAX_CODE

#: Backend name reported through ``Explorer.kernel``/benches.
NAME = "python"

_MASK = (1 << FIELD_BITS) - 1

#: Bytes of one packed field inside a big-int word.
_FIELD_BYTES = FIELD_BITS // 8


def _le_bytes(values: array) -> bytes:
    """The little-endian bytes of a 32-bit array (the entry byte order)."""
    if sys.byteorder == "big":
        values.byteswap()
    return values.tobytes()


def _from_le(typecode: str, data) -> array:
    """A 32-bit array read from little-endian bytes."""
    values = array(typecode)
    values.frombytes(data)
    if sys.byteorder == "big":
        values.byteswap()
    return values


class PyKernel:
    """Flat exploration core over packed big-int configuration words.

    ``resolve_invoke(pid, local_code) -> obj_index`` names the object a
    running process is poised at; ``compute_deltas(pid, local_code,
    obj_index, obj_code) -> ((edge_id, new_local, new_status,
    new_obj), ...)`` enumerates its outcomes. Both are called only on
    table misses, in deterministic (pid-ascending, outcome-order)
    sequence, so edge-id allocation is identical across backends.
    """

    __slots__ = (
        "n_fields",
        "n_processes",
        "_resolve_invoke",
        "_compute_deltas",
        "_ids",
        "_words",
        "_adjacency",
        "_invoke",
        "_deltas",
    )

    def __init__(
        self,
        n_fields: int,
        n_processes: int,
        resolve_invoke: Callable[[int, int], int],
        compute_deltas: Callable[
            [int, int, int, int], Tuple[Tuple[int, int, int, int], ...]
        ],
    ) -> None:
        self.n_fields = n_fields
        self.n_processes = n_processes
        self._resolve_invoke = resolve_invoke
        self._compute_deltas = compute_deltas
        self._ids: dict = {}
        self._words: List[int] = []
        #: cid -> flat [eid, tid, eid, tid, ...] or None if unexpanded.
        self._adjacency: List[Optional[List[int]]] = []
        #: (pid << FIELD_BITS | local) -> object index.
        self._invoke: dict = {}
        #: ((pid << F | local) << F | obj_code) -> ((eid, adjustment), ...).
        self._deltas: dict = {}

    # -- interning ------------------------------------------------------------

    def intern_row(self, codes: Sequence[int]) -> int:
        """The cid of a code row, interning it if new."""
        word = 0
        for slot, code in enumerate(codes):
            word |= code << (slot * FIELD_BITS)
        cid = self._ids.get(word)
        if cid is None:
            cid = len(self._words)
            self._ids[word] = cid
            self._words.append(word)
            self._adjacency.append(None)
        return cid

    def find_row(self, codes: Sequence[int]) -> Optional[int]:
        """The cid of a code row, or None — never interns."""
        word = 0
        for slot, code in enumerate(codes):
            word |= code << (slot * FIELD_BITS)
        return self._ids.get(word)

    def row(self, cid: int) -> Tuple[int, ...]:
        """The code row of an interned cid."""
        word = self._words[cid]
        return tuple(
            (word >> (slot * FIELD_BITS)) & _MASK
            for slot in range(self.n_fields)
        )

    def __len__(self) -> int:
        return len(self._words)

    # -- expansion ------------------------------------------------------------

    def _expand_new(self, cid: int) -> List[int]:
        """Compute, intern, and record the full adjacency of ``cid``."""
        word = self._words[cid]
        n = self.n_processes
        words = self._words
        ids = self._ids
        adjacency = self._adjacency
        invoke = self._invoke
        delta_tables = self._deltas
        entries: List[int] = []
        for pid in range(n):
            if (word >> ((n + pid) * FIELD_BITS)) & _MASK:
                continue  # status != RUNNING(0): nothing enabled
            local = (word >> (pid * FIELD_BITS)) & _MASK
            ikey = (pid << FIELD_BITS) | local
            obj_index = invoke.get(ikey)
            if obj_index is None:
                obj_index = self._resolve_invoke(pid, local)
                invoke[ikey] = obj_index
            obj_code = (word >> ((2 * n + obj_index) * FIELD_BITS)) & _MASK
            dkey = (ikey << FIELD_BITS) | obj_code
            deltas = delta_tables.get(dkey)
            if deltas is None:
                deltas = self._make_deltas(pid, local, obj_index, obj_code)
                delta_tables[dkey] = deltas
            for eid, adjustment in deltas:
                tword = word + adjustment
                tid = ids.get(tword)
                if tid is None:
                    tid = len(words)
                    ids[tword] = tid
                    words.append(tword)
                    adjacency.append(None)
                entries.append(eid)
                entries.append(tid)
        adjacency[cid] = entries
        return entries

    def _make_deltas(
        self, pid: int, local: int, obj_index: int, obj_code: int
    ) -> Tuple[Tuple[int, int, int], ...]:
        """Precompute (eid, signed word adjustment) for one miss.

        The expanding pid's status is always code 0 (RUNNING), so the
        adjustment covers all three touched fields exactly:
        local += nl-local, status += ns-0, object += no-obj_code.
        """
        n = self.n_processes
        lshift = pid * FIELD_BITS
        sshift = (n + pid) * FIELD_BITS
        oshift = (2 * n + obj_index) * FIELD_BITS
        return tuple(
            (
                eid,
                ((nl - local) << lshift)
                + (ns << sshift)
                + ((no - obj_code) << oshift),
            )
            for eid, nl, ns, no in self._compute_deltas(
                pid, local, obj_index, obj_code
            )
        )

    def expand(self, cid: int) -> List[int]:
        """Flat [eid, tid, ...] adjacency of ``cid`` (computed once)."""
        adj = self._adjacency[cid]
        if adj is None:
            adj = self._expand_new(cid)
        return adj

    def adjacency(self, cid: int) -> Optional[List[int]]:
        """The recorded adjacency of ``cid``, or None — never expands."""
        return self._adjacency[cid]

    def expand_pid(self, cid: int, pid: int) -> List[int]:
        """Flat [eid, tid, ...] for one pid; does NOT record adjacency.

        Backs ``Explorer.step``'s targeted expansion, which must not
        populate the full-expansion cache (pinned by the targeted-step
        tests).
        """
        word = self._words[cid]
        n = self.n_processes
        entries: List[int] = []
        if (word >> ((n + pid) * FIELD_BITS)) & _MASK:
            return entries
        local = (word >> (pid * FIELD_BITS)) & _MASK
        ikey = (pid << FIELD_BITS) | local
        obj_index = self._invoke.get(ikey)
        if obj_index is None:
            obj_index = self._resolve_invoke(pid, local)
            self._invoke[ikey] = obj_index
        obj_code = (word >> ((2 * n + obj_index) * FIELD_BITS)) & _MASK
        dkey = (ikey << FIELD_BITS) | obj_code
        deltas = self._deltas.get(dkey)
        if deltas is None:
            deltas = self._make_deltas(pid, local, obj_index, obj_code)
            self._deltas[dkey] = deltas
        ids = self._ids
        words = self._words
        adjacency = self._adjacency
        for eid, adjustment in deltas:
            tword = word + adjustment
            tid = ids.get(tword)
            if tid is None:
                tid = len(words)
                ids[tword] = tid
                words.append(tword)
                adjacency.append(None)
            entries.append(eid)
            entries.append(tid)
        return entries

    # -- batch traversal --------------------------------------------------------

    def run_bfs(
        self,
        start_id: int,
        max_configurations: int,
        on_round: Optional[Callable[[int, int, int], None]] = None,
        threads: int = 1,
    ) -> Tuple[List[int], List[int], bool, int, int]:
        """Breadth-first expansion of the whole reachable graph.

        Returns ``(order, parents, complete, expansions, rounds)``:
        ``order`` is every distinct configuration in discovery order
        (``start_id`` first); ``parents`` is a flat ``[tid, src, eid,
        ...]`` triple list over the non-root entries of ``order``;
        ``complete`` is False when the ``max_configurations`` budget
        truncated the walk. ``on_round(depth, width, seen)`` fires once
        per frontier before it is scanned (tracing hook).

        ``threads`` is accepted for backend-signature parity and
        ignored: the GIL serializes this backend anyway, and results
        are byte-identical across thread counts by contract, so the
        serial walk *is* the threaded walk's observable behavior.

        Truncation replicates the object-level loop exactly: the budget
        is charged per *newly discovered* successor, the truncating
        configuration's adjacency is already recorded, and the walk
        stops mid-scan (later frontier members stay unexpanded).
        """
        del threads  # byte-identical by contract; nothing to vary
        words = self._words
        adjacency = self._adjacency
        seen = bytearray(len(words))
        seen[start_id] = 1
        seen_count = 1
        order = [start_id]
        parents: List[int] = []
        frontier = [start_id]
        expansions = 0
        rounds = 0
        depth = 0
        while frontier:
            if on_round is not None:
                on_round(depth, len(frontier), seen_count)
            next_frontier: List[int] = []
            for cid in frontier:
                expansions += 1
                adj = adjacency[cid]
                if adj is None:
                    adj = self._expand_new(cid)
                    if len(seen) < len(words):
                        seen.extend(bytes(len(words) - len(seen)))
                # Iterate a C-built slice of the target ids: on warm
                # replay this loop is the whole walk, and slicing beats
                # stride-2 indexing by a wide margin.
                for index, tid in enumerate(adj[1::2]):
                    if not seen[tid]:
                        if seen_count >= max_configurations:
                            return order, parents, False, expansions, rounds
                        seen[tid] = 1
                        seen_count += 1
                        order.append(tid)
                        parents.append(tid)
                        parents.append(cid)
                        parents.append(adj[index * 2])
                        next_frontier.append(tid)
            rounds += 1
            depth += 1
            frontier = next_frontier
        return order, parents, True, expansions, rounds

    # -- bulk export and load (the exploration cache's packed entry) ----------

    def export_graph(self, expanded: int) -> Tuple[bytes, bytes, bytes]:
        """``(rows, adjacency, offsets)`` as little-endian 32-bit bytes.

        ``rows`` holds every interned row in cid order; ``adjacency``
        the recorded flat ``[eid, tid, ...]`` runs of cids
        ``0..expanded-1`` back to back, and ``offsets`` their
        ``expanded + 1`` boundaries. :meth:`load_graph` reads it back.
        """
        if not 0 <= expanded <= len(self._words):
            raise ValueError(f"expanded count {expanded} out of range")
        runs = self._adjacency[:expanded]
        if None in runs:
            raise ValueError(f"configuration {runs.index(None)} was never expanded")
        # Each word's little-endian bytes are its fields, three bytes
        # apiece; widening every field to four bytes is a strided copy.
        width = _FIELD_BYTES * self.n_fields
        packed = b"".join(word.to_bytes(width, "little") for word in self._words)
        rows = bytearray(len(packed) // _FIELD_BYTES * 4)
        for byte in range(_FIELD_BYTES):
            rows[byte::4] = packed[byte::_FIELD_BYTES]
        offsets = array("i", [0])
        offsets.extend(accumulate(map(len, runs)))
        flat = array("i", chain.from_iterable(runs))
        return bytes(rows), _le_bytes(flat), _le_bytes(offsets)

    def load_graph(
        self,
        rows,
        limits: Sequence[int],
        adjacency,
        offsets,
        n_edges: int,
    ) -> None:
        """Load :meth:`export_graph` buffers into this empty kernel.

        Row ``i`` becomes cid ``i``, and cids ``0..len(offsets)-2`` get
        their adjacency recorded, so a BFS over them calls no hook.
        Every slot code must lie below its slot's entry of ``limits``,
        every eid below ``n_edges`` and every tid below the row count;
        the offsets must be monotone, even, and span ``adjacency``. Any
        violation raises ValueError before the kernel changes.
        """
        if self._words:
            raise ValueError("load_graph needs an empty kernel")
        n_fields = self.n_fields
        if len(limits) != n_fields or not all(
            0 <= limit <= MAX_CODE for limit in limits
        ):
            raise ValueError(f"expected {n_fields} slot limits within MAX_CODE")
        codes = _from_le("I", rows)
        if len(codes) % n_fields:
            raise ValueError("row buffer is not a whole number of rows")
        n_rows = len(codes) // n_fields
        for slot, limit in enumerate(limits):
            column = codes[slot::n_fields]
            if column and max(column) >= limit:
                raise ValueError(
                    f"code {max(column)} outside the table of slot {slot}"
                )
        flat = _from_le("i", adjacency)
        bounds = _from_le("i", offsets)
        if (
            not bounds
            or len(bounds) - 1 > n_rows
            or bounds[0] != 0
            or bounds[-1] != len(flat)
            or any(end < begin for begin, end in zip(bounds, bounds[1:]))
            or any(bound & 1 for bound in bounds)
        ):
            raise ValueError("adjacency offsets are not monotone pairs")
        eids, tids = flat[0::2], flat[1::2]
        if flat and (
            min(eids) < 0
            or max(eids) >= n_edges
            or min(tids) < 0
            or max(tids) >= n_rows
        ):
            raise ValueError("adjacency entry out of range")
        # Codes sit below MAX_CODE, so each field's fourth byte is zero
        # and the word is the three low bytes of every field in order.
        raw = bytes(rows)
        packed = bytearray(len(raw) // 4 * _FIELD_BYTES)
        for byte in range(_FIELD_BYTES):
            packed[byte::_FIELD_BYTES] = raw[byte::4]
        width = _FIELD_BYTES * n_fields
        words = [
            int.from_bytes(packed[at : at + width], "little")
            for at in range(0, len(packed), width)
        ]
        ids = dict(zip(words, range(n_rows)))
        if len(ids) != n_rows:
            raise ValueError("row buffer repeats a row")
        recorded: List[Optional[List[int]]] = [
            flat[begin:end].tolist() for begin, end in zip(bounds, bounds[1:])
        ]
        recorded.extend([None] * (n_rows - len(recorded)))
        self._ids = ids
        self._words = words
        self._adjacency = recorded

    # -- status access ----------------------------------------------------------

    def status_key(self, cid: int) -> Tuple[int, ...]:
        """The P status codes of ``cid`` — the safety-relevant segment.

        Configurations sharing a status key share decisions, aborts,
        and enabled sets, so verdict memoization keys on this tuple.
        """
        word = self._words[cid]
        n = self.n_processes
        return tuple(
            (word >> ((n + pid) * FIELD_BITS)) & _MASK for pid in range(n)
        )
