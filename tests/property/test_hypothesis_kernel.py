"""Property-based tests (hypothesis) for the packed-state kernel.

Three families:

* **encode/decode round-trip** — for arbitrary hashable slot values,
  ``decode(encode(x)) == x`` and re-encoding is stable (codes are
  first-seen and never reassigned);
* **hash-seed independence** — the packed row of a configuration triple
  is a pure function of *insertion order*, never of ``hash()`` values,
  re-checked in subprocesses under varied ``PYTHONHASHSEED`` (the R001
  replayability contract extended down to the slot-code layer);
* **backend equivalence** — for every registered protocol family (the
  doomed-candidate suite plus Algorithm 2), arbitrary exploration
  budgets, and frontier thread counts 1 and 2, the python and compiled
  backends produce identical orders, parents, and truncation verdicts
  (skipped when the extension is not built).
"""

import hashlib
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.explorer import ABORTED, HALTED, RUNNING, Explorer
from repro.analysis.kernel import PackedEncoder, compiled_available
from repro.core.pac import NPacSpec
from repro.protocols.candidates import all_candidates
from repro.protocols.dac_from_pac import algorithm2_processes

SEED_STATUSES = (RUNNING, HALTED, ABORTED)

#: Hashable-but-varied slot values: ints, strings, nested tuples.
slot_values = st.recursive(
    st.integers(min_value=-5, max_value=5) | st.text(max_size=3),
    lambda inner: st.tuples(inner, inner),
    max_leaves=4,
)

statuses = st.sampled_from(SEED_STATUSES) | st.tuples(
    st.just("decided"), st.integers(min_value=0, max_value=3)
)


def configuration_triples(n_processes, n_objects, max_count=6):
    """Strategy: lists of (states, statuses, objects) triples for one
    fixed-shape encoder."""
    triple = st.tuples(
        st.tuples(*[slot_values] * n_processes),
        st.tuples(*[statuses] * n_processes),
        st.tuples(*[slot_values] * n_objects),
    )
    return st.lists(triple, min_size=1, max_size=max_count)


class TestEncodeDecodeRoundTrip:
    @given(configuration_triples(2, 2))
    @settings(max_examples=200, deadline=None)
    def test_decode_encode_identity(self, triples):
        encoder = PackedEncoder(2, 2, seed_statuses=SEED_STATUSES)
        for states, stats, objects in triples:
            row = encoder.encode(states, stats, objects)
            assert len(row) == encoder.n_fields
            decoded = encoder.decode(row)
            assert decoded == (tuple(states), tuple(stats), tuple(objects))

    @given(configuration_triples(3, 1))
    @settings(max_examples=200, deadline=None)
    def test_re_encoding_is_stable(self, triples):
        encoder = PackedEncoder(3, 1, seed_statuses=SEED_STATUSES)
        first = [encoder.encode(*triple) for triple in triples]
        again = [encoder.encode(*triple) for triple in triples]
        assert first == again
        # peek agrees with encode once every value is allocated.
        for triple, row in zip(triples, first):
            assert encoder.peek(*triple) == row

    @given(configuration_triples(2, 1))
    @settings(max_examples=100, deadline=None)
    def test_codes_depend_on_insertion_order_only(self, triples):
        """Two encoders fed the same sequence allocate identical rows —
        the in-process face of hash-seed independence."""
        one = PackedEncoder(2, 1, seed_statuses=SEED_STATUSES)
        two = PackedEncoder(2, 1, seed_statuses=SEED_STATUSES)
        assert [one.encode(*t) for t in triples] == [
            two.encode(*t) for t in triples
        ]


def interned_id_digest():
    """A digest over packed rows, interned ids, and BFS order for one
    Algorithm 2 instance — any hash-order dependence changes it."""
    explorer = Explorer(
        {"PAC": NPacSpec(3)}, algorithm2_processes((1, 0, 0))
    )
    result = explorer.explore()
    backend = explorer._backend
    hasher = hashlib.sha256()
    for cid in result.order_ids:
        hasher.update(repr((cid, backend.row(cid))).encode())
    hasher.update(repr(result.parent_ids).encode())
    return hasher.hexdigest()


class TestHashSeedIndependence:
    def test_interned_ids_stable_across_hash_seeds(self):
        here = os.path.abspath(__file__)
        program = (
            "import runpy; "
            f"module = runpy.run_path({here!r}); "
            "print(module['interned_id_digest']())"
        )
        digests = set()
        for seed in ("0", "31337"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            env["PYTHONPATH"] = os.pathsep.join(
                p for p in (env.get("PYTHONPATH"), *sys.path) if p
            )
            output = subprocess.run(
                [sys.executable, "-c", program],
                capture_output=True,
                text=True,
                env=env,
                check=True,
            ).stdout.strip()
            digests.add(output)
        assert len(digests) == 1, "interned ids drift with PYTHONHASHSEED"
        assert interned_id_digest() in digests


@pytest.mark.skipif(
    not compiled_available(),
    reason="compiled kernel extension not built (run `make kernel-ext`)",
)
class TestBackendEquivalenceProperty:
    @given(
        st.integers(min_value=0, max_value=len(all_candidates()) + 1),
        st.integers(min_value=1, max_value=400),
        st.sampled_from((1, 2)),
    )
    @settings(max_examples=30, deadline=None)
    def test_bfs_identical_at_any_budget(self, family, budget, threads):
        candidates = all_candidates()
        observed = {}
        for kernel in ("python", "compiled"):
            if family < len(candidates):
                objects = candidates[family].objects
                processes = candidates[family].processes
            else:
                inputs = (1,) + (0,) * (family - len(candidates) + 1)
                objects = {"PAC": NPacSpec(len(inputs))}
                processes = algorithm2_processes(inputs)
            explorer = Explorer(objects, processes, kernel=kernel)
            start = explorer.intern_id(explorer.initial_configuration())
            order, parents, *rest = explorer._backend.run_bfs(
                start, budget, None, threads
            )
            observed[kernel] = (list(order), list(parents), *rest)
        assert observed["python"] == observed["compiled"]
