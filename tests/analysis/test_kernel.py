"""Unit tests for the packed-state exploration kernel.

Covers the three layers of :mod:`repro.analysis.kernel`:

* :class:`PackedEncoder` — structural integer encoding: allocation,
  side-effect-free peeking, first-seen decoding, overflow policy;
* backend selection — explicit argument beats ``REPRO_KERNEL`` beats
  ``auto``; requesting an absent compiled backend is a hard error;
* backend equivalence — every observable of the python and compiled
  backends (interning, rows, adjacency, targeted expansion, BFS with
  and without truncation, round events) is byte-identical. The
  compiled half skips gracefully when the extension is not built;
* the threads knob — ``select_threads`` / ``kernel_env`` and
  thread-count byte-identity of the compiled BFS;
* the lazy miss path — on cold Algorithm 2 explorations each hook key
  misses once, each miss asks the object spec once, each process step
  is resolved once, and both backends see the same hook calls.
"""

from collections import Counter

import pytest

from repro.analysis import kernel as kernel_mod
from repro.analysis.explorer import ABORTED, HALTED, RUNNING, Explorer
from repro.analysis.kernel import (
    KERNEL_CHOICES,
    MAX_CODE,
    PackedEncoder,
    PyKernel,
    compiled_available,
    kernel_env,
    make_backend,
    select,
    select_threads,
)
from repro.core.pac import NPacSpec
from repro.errors import AnalysisError
from repro.protocols.dac_from_pac import algorithm2_processes

needs_compiled = pytest.mark.skipif(
    not compiled_available(),
    reason="compiled kernel extension not built (run `make kernel-ext`)",
)


def _algorithm2_protocol(n):
    inputs = tuple([1] + [0] * (n - 1))
    return {"PAC": NPacSpec(n)}, algorithm2_processes(inputs)


def _algorithm2_explorer(n, kernel=None, **kwargs):
    objects, processes = _algorithm2_protocol(n)
    return Explorer(objects, processes, kernel=kernel, **kwargs)


class TestPackedEncoder:
    def test_row_layout_and_roundtrip(self):
        encoder = PackedEncoder(
            2, 1, seed_statuses=(RUNNING, HALTED, ABORTED)
        )
        states = ("s0", "s1")
        statuses = (RUNNING, ("decided", 7))
        objects = ({"x": 1},)
        row = encoder.encode(states, statuses, [("obj", 0)])
        assert len(row) == encoder.n_fields == 2 * 2 + 1
        # Slot order: locals, then statuses, then objects.
        assert row[2] == 0  # RUNNING is pre-seeded as status code 0
        decoded = encoder.decode(row)
        assert decoded[0] == states
        assert decoded[1] == (RUNNING, ("decided", 7))
        # Statuses decode to the *seeded singleton*, identity included.
        assert decoded[1][0] is RUNNING

    def test_codes_are_first_seen_and_stable(self):
        encoder = PackedEncoder(1, 1, seed_statuses=(RUNNING,))
        first = encoder.encode(("a",), (RUNNING,), ("x",))
        second = encoder.encode(("b",), (RUNNING,), ("y",))
        again = encoder.encode(("a",), (RUNNING,), ("x",))
        assert first == again
        assert second[0] == first[0] + 1
        assert encoder.slot_sizes() == ((2,), 1, (2,))

    def test_peek_never_allocates(self):
        encoder = PackedEncoder(1, 1, seed_statuses=(RUNNING,))
        assert encoder.peek(("a",), (RUNNING,), ("x",)) is None
        assert encoder.slot_sizes() == ((0,), 1, (0,))
        row = encoder.encode(("a",), (RUNNING,), ("x",))
        assert encoder.peek(("a",), (RUNNING,), ("x",)) == row
        assert encoder.peek(("a",), (RUNNING,), ("unseen",)) is None

    def test_overflow_raises(self):
        encoder = PackedEncoder(1, 0, seed_statuses=())
        # Simulate a full local slot instead of allocating 2**24 codes.
        encoder._local_values[0].extend(range(MAX_CODE))
        with pytest.raises(AnalysisError, match="overflow"):
            encoder.local_code(0, "one-too-many")


class TestKernelSelection:
    def test_choices(self):
        assert KERNEL_CHOICES == ("auto", "python", "compiled")

    def test_unknown_kernel_rejected(self):
        with pytest.raises(AnalysisError, match="unknown kernel"):
            select("turbo")
        with pytest.raises(AnalysisError, match="unknown kernel"):
            Explorer({"PAC": NPacSpec(2)}, algorithm2_processes((1, 0)),
                     kernel="turbo")

    def test_explicit_beats_environment(self, monkeypatch):
        monkeypatch.setenv(kernel_mod.ENV_VAR, "python")
        assert select("python") == "python"
        monkeypatch.setenv(kernel_mod.ENV_VAR, "bogus")
        # Explicit argument never consults the (invalid) environment.
        assert select("python") == "python"

    def test_env_and_auto(self, monkeypatch):
        monkeypatch.delenv(kernel_mod.ENV_VAR, raising=False)
        assert select(None) in ("python", "compiled")
        monkeypatch.setenv(kernel_mod.ENV_VAR, "python")
        assert select(None) == "python"

    def test_compiled_request_fails_loudly_when_absent(self, monkeypatch):
        monkeypatch.setattr(kernel_mod, "compiled_available", lambda: False)
        with pytest.raises(AnalysisError, match="not built"):
            select("compiled")
        # auto silently falls back instead.
        assert select("auto") == "python"

    def test_compiled_absent_error_includes_build_log(self, monkeypatch):
        """When a build was attempted and failed, the selection error
        carries both the remedy and the captured compiler output."""
        from repro.analysis.kernel import _build

        monkeypatch.setattr(kernel_mod, "compiled_available", lambda: False)
        monkeypatch.setattr(
            _build, "last_build_error", lambda: "compile failed (exit 1):\nboom"
        )
        with pytest.raises(AnalysisError) as excinfo:
            select("compiled")
        message = str(excinfo.value)
        assert "make kernel-ext" in message
        assert "last build attempt failed with" in message
        assert "boom" in message

        # No recorded failure: the remedy alone, no trailing noise.
        monkeypatch.setattr(_build, "last_build_error", lambda: None)
        with pytest.raises(AnalysisError) as excinfo:
            select("compiled")
        assert "last build attempt" not in str(excinfo.value)

    def test_kernel_env_pins_and_restores(self, monkeypatch):
        monkeypatch.delenv(kernel_mod.ENV_VAR, raising=False)
        with kernel_env("python"):
            import os

            assert os.environ[kernel_mod.ENV_VAR] == "python"
        import os

        assert kernel_mod.ENV_VAR not in os.environ
        with pytest.raises(AnalysisError, match="unknown kernel"):
            with kernel_env("bogus"):
                pass

    def test_make_backend_python(self):
        backend, name = make_backend(
            "python", 4, 1, lambda pid, local: 0, lambda *a: ()
        )
        assert name == "python"
        assert isinstance(backend, PyKernel)


class TestPyKernelContract:
    """Backend API behaviors both implementations must satisfy,
    checked against the always-available python backend."""

    def test_intern_find_row(self):
        explorer = _algorithm2_explorer(2, kernel="python")
        backend = explorer._backend
        initial = explorer.initial_configuration()
        cid = explorer.intern_id(initial)
        row = backend.row(cid)
        assert backend.find_row(list(row)) == cid
        assert backend.intern_row(list(row)) == cid
        unseen = [code + 1 for code in row]
        assert backend.find_row(unseen) is None

    def test_expand_pid_does_not_record_adjacency(self):
        explorer = _algorithm2_explorer(2, kernel="python")
        backend = explorer._backend
        cid = explorer.intern_id(explorer.initial_configuration())
        entries = backend.expand_pid(cid, 0)
        assert entries  # pid 0 is running initially
        assert backend.adjacency(cid) is None
        full = backend.expand(cid)
        assert backend.adjacency(cid) == full

    def test_status_key_zero_means_running(self):
        explorer = _algorithm2_explorer(2, kernel="python")
        cid = explorer.intern_id(explorer.initial_configuration())
        assert explorer._backend.status_key(cid) == (0, 0)


def _bfs_observables(kernel, n=3, max_configurations=200_000):
    """Everything run_bfs and the row tables expose, for one backend."""
    explorer = _algorithm2_explorer(n, kernel=kernel)
    rounds = []
    start = explorer.intern_id(explorer.initial_configuration())
    backend = explorer._backend
    order, parents, complete, expansions, bfs_rounds = backend.run_bfs(
        start,
        max_configurations,
        lambda depth, width, seen: rounds.append((depth, width, seen)),
    )
    rows = [backend.row(cid) for cid in order]
    status_keys = [backend.status_key(cid) for cid in order]
    adjacency = [backend.adjacency(cid) for cid in order]
    return {
        "order": list(order),
        "parents": list(parents),
        "complete": bool(complete),
        "expansions": expansions,
        "rounds": bfs_rounds,
        "round_events": rounds,
        "rows": rows,
        "status_keys": status_keys,
        "adjacency": adjacency,
        "size": len(backend),
    }


@needs_compiled
class TestBackendEquivalence:
    def test_full_bfs_identical(self):
        assert _bfs_observables("python") == _bfs_observables("compiled")

    @pytest.mark.parametrize("budget", [1, 2, 5, 23, 78])
    def test_truncated_bfs_identical(self, budget):
        py = _bfs_observables("python", max_configurations=budget)
        cc = _bfs_observables("compiled", max_configurations=budget)
        assert py == cc
        assert len(py["order"]) <= budget

    def test_exploration_results_identical(self):
        results = {}
        for kernel in ("python", "compiled"):
            explorer = _algorithm2_explorer(3, kernel=kernel)
            assert explorer.kernel == kernel
            result = explorer.explore()
            results[kernel] = (
                result.order_ids,
                result.parent_ids,
                dict(result.successor_ids),
                list(result.successor_ids),
                result.expansions,
                result.complete,
                result.to_portable(),
            )
        assert results["python"] == results["compiled"]

    def test_step_and_successors_identical(self):
        pex = _algorithm2_explorer(2, kernel="python")
        cex = _algorithm2_explorer(2, kernel="compiled")
        pinit = pex.initial_configuration()
        cinit = cex.initial_configuration()
        assert pinit == cinit
        assert pex.step(pinit, 0, 0) == cex.step(cinit, 0, 0)
        psucc = pex.successors(pinit)
        csucc = cex.successors(cinit)
        assert [(edge, config) for edge, config in psucc] == [
            (edge, config) for edge, config in csucc
        ]


class TestThreadsSelection:
    def test_select_threads_defaults_and_validation(self, monkeypatch):
        monkeypatch.delenv(kernel_mod.THREADS_ENV_VAR, raising=False)
        assert select_threads() == 1
        assert select_threads(4) == 4
        monkeypatch.setenv(kernel_mod.THREADS_ENV_VAR, "3")
        assert select_threads() == 3
        assert select_threads(2) == 2
        monkeypatch.setenv(kernel_mod.THREADS_ENV_VAR, "many")
        with pytest.raises(AnalysisError, match="positive integer"):
            select_threads()
        for bad in (0, -1, True, 1.5, "2"):
            with pytest.raises(AnalysisError, match="positive integer"):
                select_threads(bad)

    def test_kernel_env_pins_kernel_and_threads(self, monkeypatch):
        import os

        for var in (kernel_mod.ENV_VAR, kernel_mod.THREADS_ENV_VAR):
            monkeypatch.delenv(var, raising=False)
        with kernel_env("python", threads=2):
            assert os.environ[kernel_mod.ENV_VAR] == "python"
            assert os.environ[kernel_mod.THREADS_ENV_VAR] == "2"
        for var in (kernel_mod.ENV_VAR, kernel_mod.THREADS_ENV_VAR):
            assert var not in os.environ
        # None leaves a knob untouched rather than pinning a default.
        monkeypatch.setenv(kernel_mod.THREADS_ENV_VAR, "3")
        with kernel_env("python"):
            assert os.environ[kernel_mod.THREADS_ENV_VAR] == "3"
        with pytest.raises(AnalysisError, match="positive integer"):
            with kernel_env(None, threads=0):
                pass


@needs_compiled
class TestCompiledThreads:
    @pytest.mark.parametrize("threads", [2, 4])
    def test_bfs_byte_identical_across_thread_counts(self, threads):
        """Cold (every key misses and takes the serial commit's hook
        path) and warm (the plan phase reads the filled tables): the
        thread count never moves ids, parents, or round events."""
        objects, processes = _algorithm2_protocol(3)

        def observe(thread_count, budget=200_000, warm=False):
            explorer = Explorer(
                objects, processes, kernel="compiled", threads=thread_count
            )
            if warm:
                explorer.explore()
            start = explorer.intern_id(explorer.initial_configuration())
            rounds = []
            out = explorer._backend.run_bfs(
                start,
                budget,
                lambda depth, width, seen: rounds.append(
                    (depth, width, seen)
                ),
                thread_count,
            )
            return [list(out[0]), list(out[1]), *out[2:], rounds]

        for warm in (False, True):
            assert observe(threads, warm=warm) == observe(1, warm=warm)
            for budget in (1, 3, 17, 50):
                assert observe(threads, budget, warm) == observe(
                    1, budget, warm
                )

    def test_threads_clamped_to_extension_maximum(self):
        from repro.analysis.kernel import _ckernel

        assert _ckernel.MAX_THREADS >= 1
        explorer = _algorithm2_explorer(2, kernel="compiled", threads=999)
        # Way past MAX_THREADS: clamped inside the extension, results
        # unchanged.
        baseline = _algorithm2_explorer(2, kernel="compiled").explore()
        assert explorer.explore().order_ids == baseline.order_ids


def _counted_exploration(monkeypatch, n, kernel):
    """A cold Algorithm 2 exploration at size ``n`` with every call on
    the miss path recorded."""
    objects, processes = _algorithm2_protocol(n)
    calls = {"hook": [], "responses": [], "next_action": [], "transition": []}
    spec = objects["PAC"]
    responses = spec.responses

    def counting_responses(state, operation):
        calls["responses"][-1] += 1  # one counter per hook call
        return responses(state, operation)

    spec.responses = counting_responses
    for auto in processes:

        def next_action(state, pid=auto.pid, inner=auto.cached_next_action):
            calls["next_action"].append((pid, state))
            return inner(state)

        def transition(state, response, pid=auto.pid, inner=auto.cached_transition):
            calls["transition"].append((pid, state, response))
            return inner(state, response)

        auto.cached_next_action = next_action
        auto.cached_transition = transition
    hook = Explorer._compute_delta_codes

    def counting_hook(self, *key):
        calls["responses"].append(0)
        deltas = hook(self, *key)
        calls["hook"].append((key, deltas))
        return deltas

    monkeypatch.setattr(Explorer, "_compute_delta_codes", counting_hook)
    explorer = Explorer(objects, processes, kernel=kernel)
    result = explorer.explore()
    monkeypatch.undo()
    return explorer, result, calls


class TestLazyMissPath:
    @pytest.mark.parametrize("n, size", [(5, 976), (6, 3369)])
    def test_each_step_resolves_once(self, monkeypatch, n, size):
        _, result, calls = _counted_exploration(monkeypatch, n, "python")
        assert result.complete and len(result) == size
        keys = [key for key, _ in calls["hook"]]
        assert len(keys) == len(set(keys)), "a hook key missed twice"
        assert max(calls["responses"]) == 1, "two spec calls in one miss"
        # Process steps: the action of each (pid, local state), and the
        # successor of each (pid, local code, edge) result.
        assert max(Counter(calls["next_action"]).values()) == 1
        results = {
            (key[0], key[1], delta[0])
            for key, deltas in calls["hook"]
            for delta in deltas
        }
        assert len(calls["transition"]) <= len(results)
        assert max(Counter(calls["transition"]).values()) == 1

    @needs_compiled
    @pytest.mark.parametrize("n", [5, 6])
    def test_backends_share_hook_calls_and_graphs(self, monkeypatch, n):
        _, py_result, py_calls = _counted_exploration(monkeypatch, n, "python")
        _, c_result, c_calls = _counted_exploration(monkeypatch, n, "compiled")
        assert py_calls == c_calls
        assert py_result.order_ids == c_result.order_ids
        assert py_result.parent_ids == c_result.parent_ids
        assert py_result.to_portable() == c_result.to_portable()
