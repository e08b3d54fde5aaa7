"""Tests for the persistent content-addressed exploration cache.

The cache's contract (``docs/performance.md``): a hit always means the
exact same code answered the exact same question before (code salt in
every fingerprint); corrupt entries are dropped as misses, never
returned; warm exploration hits are digest-validated against the value
stored at compute time, so a stale entry fails loudly instead of
silently changing a verdict.
"""

import pickle
import struct

import pytest

from repro.analysis.cache import (
    CacheIntegrityError,
    ExplorationCache,
    code_salt,
    explore_cached,
    fingerprint,
    graph_digest,
)
from repro.analysis.explorer import Explorer, RUNNING
from repro.analysis.kernel import compiled_available
from repro.core.pac import NPacSpec
from repro.errors import AnalysisError
from repro.protocols.dac_from_pac import algorithm2_processes
from repro.protocols.tasks import DacDecisionTask


def _explorer(n=2, inputs=(1, 0), kernel=None):
    return Explorer(
        {"PAC": NPacSpec(n)}, algorithm2_processes(inputs), kernel=kernel
    )


class TestFingerprint:
    def test_stable_for_equal_components(self):
        assert fingerprint(n=3, inputs=(0, 1)) == fingerprint(
            n=3, inputs=(0, 1)
        )

    def test_insensitive_to_mapping_order(self):
        assert fingerprint(a=1, b=2) == fingerprint(b=2, a=1)
        assert fingerprint(opts={"x": 1, "y": 2}) == fingerprint(
            opts={"y": 2, "x": 1}
        )

    def test_sensitive_to_every_component(self):
        base = fingerprint(n=3, inputs=(0, 1), symmetry=False)
        assert base != fingerprint(n=4, inputs=(0, 1), symmetry=False)
        assert base != fingerprint(n=3, inputs=(1, 0), symmetry=False)
        assert base != fingerprint(n=3, inputs=(0, 1), symmetry=True)

    def test_sets_canonicalized(self):
        assert fingerprint(values={3, 1, 2}) == fingerprint(values={2, 3, 1})

    def test_code_salt_is_memoized_hex(self):
        salt = code_salt()
        assert salt == code_salt()
        assert len(salt) == 64
        int(salt, 16)


class TestEntryStore:
    def test_round_trip(self, tmp_path):
        cache = ExplorationCache(tmp_path / "c")
        fp = fingerprint(question="round-trip")
        assert cache.get(fp) is None
        cache.put(fp, {"answer": (1, 2, 3)})
        assert cache.get(fp) == {"answer": (1, 2, 3)}
        assert (cache.hits, cache.misses, cache.stores) == (1, 1, 1)

    def test_corrupt_entry_is_dropped_as_miss(self, tmp_path):
        cache = ExplorationCache(tmp_path / "c")
        fp = fingerprint(question="corrupt")
        cache.put(fp, "payload")
        path = cache._entry_path(fp)
        path.write_bytes(b"not a pickle")
        assert cache.get(fp) is None
        assert not path.exists()

    def test_tampered_payload_is_dropped_as_miss(self, tmp_path):
        cache = ExplorationCache(tmp_path / "c")
        fp = fingerprint(question="tamper")
        cache.put(fp, "honest payload")
        path = cache._entry_path(fp)
        digest, _payload_bytes = pickle.loads(path.read_bytes())
        forged = pickle.dumps((digest, pickle.dumps("forged payload")))
        path.write_bytes(forged)
        assert cache.get(fp) is None

    def test_get_or_compute_counts(self, tmp_path):
        cache = ExplorationCache(tmp_path / "c")
        calls = []

        def compute():
            calls.append(1)
            return "value"

        components = {"question": "memo"}
        assert cache.get_or_compute(components, compute) == ("value", False)
        assert cache.get_or_compute(components, compute) == ("value", True)
        assert len(calls) == 1

    def test_stats_and_clear(self, tmp_path):
        cache = ExplorationCache(tmp_path / "c")
        for index in range(3):
            cache.put(fingerprint(index=index), index)
        stats = cache.stats()
        assert stats.entries == 3
        assert stats.total_bytes > 0
        assert cache.clear() == 3
        assert cache.stats().entries == 0

    def test_env_default_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "from-env"))
        assert ExplorationCache().root == tmp_path / "from-env"


class TestExploreCached:
    COMPONENTS = {"protocol": "algorithm2", "n": 2, "inputs": (1, 0)}

    def test_cold_then_warm_round_trip(self, tmp_path):
        cache = ExplorationCache(tmp_path / "c")
        cold_explorer = _explorer()
        cold, hit = explore_cached(cold_explorer, cache, self.COMPONENTS)
        assert hit is False

        warm_explorer = _explorer()
        warm, hit = explore_cached(warm_explorer, cache, self.COMPONENTS)
        assert hit is True
        assert warm.complete == cold.complete
        assert len(warm.order) == len(cold.order)
        assert warm.order == cold.order
        for config in cold.order:
            assert warm_explorer.decision_values(
                config
            ) == cold_explorer.decision_values(config)
            assert warm.schedule_to(config) == cold.schedule_to(config)

    def test_rehydrated_statuses_are_singletons(self, tmp_path):
        cache = ExplorationCache(tmp_path / "c")
        explore_cached(_explorer(), cache, self.COMPONENTS)
        warm_explorer = _explorer()
        warm, _ = explore_cached(warm_explorer, cache, self.COMPONENTS)
        # The calculus compares statuses by identity; rehydration must
        # re-canonicalize them or every ``status is RUNNING`` check
        # silently fails.
        initial = warm.order[0]
        assert all(status is RUNNING for status in initial.statuses)

    def test_safety_verdict_identical_on_warm_graph(self, tmp_path):
        cache = ExplorationCache(tmp_path / "c")
        task = DacDecisionTask(2)
        cold_explorer = _explorer()
        explore_cached(cold_explorer, cache, self.COMPONENTS)
        warm_explorer = _explorer()
        explore_cached(warm_explorer, cache, self.COMPONENTS)
        assert warm_explorer.check_safety(task, (1, 0)) == (
            cold_explorer.check_safety(task, (1, 0))
        )

    def test_decision_table_rides_along(self, tmp_path):
        cache = ExplorationCache(tmp_path / "c")
        cold_explorer = _explorer()
        cold, _ = explore_cached(
            cold_explorer, cache, self.COMPONENTS, include_decision_table=True
        )
        cold_table = cold_explorer.decision_table(exploration=cold)

        warm_explorer = _explorer()
        warm, hit = explore_cached(
            warm_explorer, cache, self.COMPONENTS, include_decision_table=True
        )
        assert hit is True
        # The cached per-position sets pre-seed the fixpoint table.
        assert warm_explorer._decision_sets
        warm_table = warm_explorer.decision_table(exploration=warm)
        assert {
            warm.order[pos]: warm_table[cid]
            for pos, cid in enumerate(warm.order_ids)
        } == {
            cold.order[pos]: cold_table[cid]
            for pos, cid in enumerate(cold.order_ids)
        }

    def test_stale_entry_fails_loudly(self, tmp_path):
        cache = ExplorationCache(tmp_path / "c")
        explore_cached(_explorer(), cache, self.COMPONENTS)
        [path] = cache._entry_files()
        digest, payload_bytes = pickle.loads(path.read_bytes())
        payload = pickle.loads(payload_bytes)
        payload["graph_digest"] = "0" * 64
        cache.put(path.stem, payload)
        with pytest.raises(CacheIntegrityError):
            explore_cached(_explorer(), cache, self.COMPONENTS)

    def test_no_cache_means_plain_exploration(self):
        explorer = _explorer()
        result, hit = explore_cached(explorer, None, self.COMPONENTS)
        assert hit is False
        assert result.complete

    def test_graph_digest_depends_on_graph(self, tmp_path):
        cache = ExplorationCache(tmp_path / "c")
        small, _ = explore_cached(_explorer(), cache, self.COMPONENTS)
        other_components = {"protocol": "algorithm2", "n": 2, "inputs": (0, 0)}
        other, _ = explore_cached(
            _explorer(inputs=(0, 0)), cache, other_components
        )
        assert graph_digest(small.to_portable()) != graph_digest(
            other.to_portable()
        )


# -- the packed entry: hits, cross-backend entries, hostile entries ----------


def _n5_explorer(kernel=None):
    return Explorer(
        {"PAC": NPacSpec(5)}, algorithm2_processes((1, 0, 0, 0, 0)), kernel=kernel
    )


N5_COMPONENTS = {"protocol": "algorithm2", "n": 5, "inputs": (1, 0, 0, 0, 0)}


def _backends():
    kernels = ["python"]
    if compiled_available():
        kernels.append("compiled")
    return kernels


def _le32(values):
    return struct.pack(f"<{len(values)}i", *values)


def _ints(data):
    return list(struct.unpack(f"<{len(data) // 4}i", data))


class TestPackedHit:
    def test_hit_calls_no_hook_and_no_spec(self, tmp_path, monkeypatch):
        cache = ExplorationCache(tmp_path / "c")
        explore_cached(_n5_explorer(), cache, N5_COMPONENTS)
        calls = []
        for name in ("_resolve_invoke_codes", "_compute_delta_codes"):
            original = getattr(Explorer, name)

            def counted(self, *args, _original=original, _name=name):
                calls.append(_name)
                return _original(self, *args)

            monkeypatch.setattr(Explorer, name, counted)
        responses = NPacSpec.responses

        def counted_responses(self, *args):
            calls.append("responses")
            return responses(self, *args)

        monkeypatch.setattr(NPacSpec, "responses", counted_responses)
        warm, hit = explore_cached(_n5_explorer(), cache, N5_COMPONENTS)
        assert hit is True
        assert len(warm) == 976
        assert calls == []

    def test_hit_reproduces_the_cold_graph(self, tmp_path):
        cache = ExplorationCache(tmp_path / "c")
        task = DacDecisionTask(5)
        inputs = (1, 0, 0, 0, 0)
        cold_explorer = _n5_explorer()
        cold, hit = explore_cached(cold_explorer, cache, N5_COMPONENTS)
        assert hit is False
        warm_explorer = _n5_explorer()
        warm, hit = explore_cached(warm_explorer, cache, N5_COMPONENTS)
        assert hit is True
        assert warm.order_ids == cold.order_ids
        assert warm.parent_ids == cold.parent_ids
        assert warm.successor_ids == cold.successor_ids
        assert warm.expansions == cold.expansions
        assert warm.to_portable() == cold.to_portable()
        assert warm_explorer.check_safety(task, inputs) == (
            cold_explorer.check_safety(task, inputs)
        )
        for config in cold.order[::37]:
            assert warm.schedule_to(config) == cold.schedule_to(config)
            assert warm_explorer.decision_values(config) == (
                cold_explorer.decision_values(config)
            )
        # The loaded memo serves later steps without re-deriving edges.
        initial = warm_explorer.initial_configuration()
        assert warm_explorer.successors(initial) == (
            cold_explorer.successors(cold_explorer.initial_configuration())
        )

    def test_truncated_walk_round_trips(self, tmp_path):
        cache = ExplorationCache(tmp_path / "c")
        cold, _ = explore_cached(
            _n5_explorer(), cache, N5_COMPONENTS, max_configurations=100
        )
        warm, hit = explore_cached(
            _n5_explorer(), cache, N5_COMPONENTS, max_configurations=100
        )
        assert hit is True and not warm.complete
        assert warm.order_ids == cold.order_ids
        assert warm.to_portable() == cold.to_portable()

    @pytest.mark.skipif(
        not compiled_available(), reason="compiled kernel extension not built"
    )
    @pytest.mark.parametrize(
        "writer, reader", [("python", "compiled"), ("compiled", "python")]
    )
    def test_entry_is_backend_neutral(self, tmp_path, writer, reader):
        cache = ExplorationCache(tmp_path / "c")
        cold, hit = explore_cached(_n5_explorer(writer), cache, N5_COMPONENTS)
        assert hit is False
        warm_explorer = _n5_explorer(reader)
        warm, hit = explore_cached(warm_explorer, cache, N5_COMPONENTS)
        assert hit is True
        assert warm_explorer.kernel == reader
        assert warm.order_ids == cold.order_ids
        assert warm.parent_ids == cold.parent_ids
        assert warm.to_portable() == cold.to_portable()

    def test_reduced_graph_has_no_portable_form(self):
        from repro.protocols.dac_from_pac import algorithm2_symmetry

        explorer = _explorer(3, (1, 0, 0))
        reduced = explorer.explore(symmetry=algorithm2_symmetry((1, 0, 0)))
        with pytest.raises(AnalysisError):
            reduced.to_portable()

    def test_later_walk_from_elsewhere_has_no_portable_form(self):
        explorer = _explorer()
        first = explorer.explore()
        later = explorer.explore(initial=first.order[3])
        with pytest.raises(AnalysisError):
            later.to_portable()


def _tamper(cache, mutate):
    """Rewrite the one entry in ``cache`` through ``mutate(portable)``,
    with the graph digest recomputed (where the digest can still be
    taken) so only the load can object."""
    [path] = cache._entry_files()
    _digest, payload_bytes = pickle.loads(path.read_bytes())
    payload = pickle.loads(payload_bytes)
    mutate(payload["portable"])
    try:
        payload["graph_digest"] = graph_digest(payload["portable"])
    except (KeyError, TypeError):
        pass
    cache.put(path.stem, payload)


def _set_int(portable, key, index, value):
    values = _ints(portable[key])
    values[index] = value
    portable[key] = _le32(values)


def _repeat_first_row(portable):
    width = 4 * (2 * len(portable["locals"]) + len(portable["objects"]))
    rows = portable["rows"]
    portable["rows"] = rows[:width] * 2 + rows[2 * width :]


HOSTILE_ENTRIES = {
    "rows not whole": lambda p: p.update(rows=p["rows"][:-4]),
    "code outside its slot": lambda p: _set_int(p, "rows", 1, 4000),
    "code past the field width": lambda p: _set_int(p, "rows", 0, 1 << 24),
    "eid out of range": lambda p: _set_int(p, "adjacency", 0, 999),
    "negative eid": lambda p: _set_int(p, "adjacency", 0, -1),
    "tid out of range": lambda p: _set_int(p, "adjacency", 1, 10**6),
    "offsets not monotone": lambda p: _set_int(p, "offsets", 2, 0),
    "offsets overrun": lambda p: _set_int(p, "offsets", -1, 10**6),
    "offsets odd": lambda p: _set_int(p, "offsets", 1, 1),
    "offsets empty": lambda p: p.update(offsets=b""),
    "offsets past the rows": lambda p: p.update(
        offsets=p["offsets"] + p["offsets"] * 2
    ),
    "row repeated": _repeat_first_row,
    "edge repeated": lambda p: p.update(edges=p["edges"] + p["edges"][:1]),
    "edge of an unknown pid": lambda p: p.update(
        edges=((7, 0, "x"),) + p["edges"][1:]
    ),
    "local table missing": lambda p: p.update(locals=p["locals"][:1]),
    "local table repeats": lambda p: p.update(
        locals=(p["locals"][0] * 2,) + p["locals"][1:]
    ),
    "statuses unseeded": lambda p: p.update(statuses=p["statuses"][1:]),
    "local state foreign": lambda p: p.update(
        locals=((("bogus",),) + p["locals"][0][1:],) + p["locals"][1:]
    ),
    "operations missing": lambda p: p.update(operations=()),
    "operation foreign": lambda p: p.update(
        operations=(((0, "propose(7, 1)"),),) + p["operations"][1:]
    ),
    "operation code out of range": lambda p: p.update(
        operations=(((-1, None),),) + p["operations"][1:]
    ),
    "budget not an int": lambda p: p.update(budget="lots"),
    "complete flipped": lambda p: p.update(complete=not p["complete"]),
    "adjacency dropped": lambda p: p.update(offsets=_le32([0]), adjacency=b""),
    "buffer not bytes": lambda p: p.update(rows="rows"),
    "key missing": lambda p: p.pop("edges"),
}


class TestHostileEntries:
    @pytest.mark.parametrize("kernel", _backends())
    @pytest.mark.parametrize("case", sorted(HOSTILE_ENTRIES))
    def test_hostile_entry_raises_integrity_error(self, tmp_path, kernel, case):
        cache = ExplorationCache(tmp_path / "c")
        explore_cached(_explorer(), cache, TestExploreCached.COMPONENTS)
        _tamper(cache, HOSTILE_ENTRIES[case])
        explorer = _explorer(kernel=kernel)
        with pytest.raises(CacheIntegrityError):
            explore_cached(explorer, cache, TestExploreCached.COMPONENTS)
        # A failed load leaves the explorer fresh and fully usable.
        assert explorer.explore().order_ids == _explorer().explore().order_ids

    @pytest.mark.parametrize("kernel", _backends())
    def test_foreign_entry_with_matching_digest(self, tmp_path, kernel):
        """Another instance's entry under this instance's fingerprint:
        the digest matches, the protocol does not."""
        cache = ExplorationCache(tmp_path / "c")
        explore_cached(_explorer(inputs=(0, 1)), cache, {"instance": "other"})
        [other] = cache._entry_files()
        target = fingerprint(
            **TestExploreCached.COMPONENTS,
            max_configurations=200_000,
            include_decision_table=False,
        )
        cache.put(target, cache.get(other.stem))
        with pytest.raises(CacheIntegrityError):
            explore_cached(
                _explorer(kernel=kernel), cache, TestExploreCached.COMPONENTS
            )

    @pytest.mark.parametrize("kernel", _backends())
    def test_wider_instance_entry_is_refused(self, kernel):
        portable = _explorer(3, (1, 0, 0)).explore().to_portable()
        with pytest.raises(ValueError):
            _explorer(kernel=kernel).adopt_portable(portable)

    @pytest.mark.parametrize("kernel", _backends())
    def test_load_into_a_used_explorer_is_refused(self, kernel):
        portable = _explorer().explore().to_portable()
        used = _explorer(kernel=kernel)
        before = used.explore()
        with pytest.raises(AnalysisError):
            used.adopt_portable(portable)
        # The refusal left the explorer's own graph alone.
        assert used.explore().order_ids == before.order_ids


class TestBackendBulkLoad:
    """Each backend's ``load_graph`` checks every buffer itself, before
    touching the kernel (the compiled one must never crash)."""

    def _entry(self):
        source = _explorer()
        portable = source.explore().to_portable()
        return (
            portable,
            source._encoder.slot_limits(),
            len(source._edge_list),
        )

    def _fresh_backend(self, kernel):
        return _explorer(kernel=kernel)._backend

    @pytest.mark.parametrize("kernel", _backends())
    def test_round_trip(self, kernel):
        portable, limits, n_edges = self._entry()
        backend = self._fresh_backend(kernel)
        backend.load_graph(
            portable["rows"], limits, portable["adjacency"],
            portable["offsets"], n_edges,
        )
        assert len(backend) == len(portable["rows"]) // (4 * len(limits))
        expanded = len(portable["offsets"]) // 4 - 1
        assert backend.export_graph(expanded) == (
            portable["rows"], portable["adjacency"], portable["offsets"]
        )

    @pytest.mark.parametrize("kernel", _backends())
    @pytest.mark.parametrize(
        "case",
        sorted(
            name
            for name in HOSTILE_ENTRIES
            if name.split()[0]
            in ("rows", "code", "eid", "negative", "tid", "offsets", "row")
        ),
    )
    def test_hostile_buffers_raise_value_error(self, kernel, case):
        portable, limits, n_edges = self._entry()
        HOSTILE_ENTRIES[case](portable)
        backend = self._fresh_backend(kernel)
        with pytest.raises(ValueError):
            backend.load_graph(
                portable["rows"], limits, portable["adjacency"],
                portable["offsets"], n_edges,
            )
        assert len(backend) == 0

    @pytest.mark.parametrize("kernel", _backends())
    def test_bad_limits_and_used_kernel(self, kernel):
        portable, limits, n_edges = self._entry()
        args = (portable["adjacency"], portable["offsets"], n_edges)
        backend = self._fresh_backend(kernel)
        with pytest.raises(ValueError):
            backend.load_graph(portable["rows"], limits[1:], *args)
        with pytest.raises(ValueError):
            backend.load_graph(portable["rows"], [1 << 25] * len(limits), *args)
        backend.load_graph(portable["rows"], limits, *args)
        with pytest.raises(ValueError):
            backend.load_graph(portable["rows"], limits, *args)
        with pytest.raises(ValueError):
            backend.export_graph(len(backend) + 1)
