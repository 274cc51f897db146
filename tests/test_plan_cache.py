"""Engine-level plan caching: compile-once and the max_rows budget knob."""

import pytest

from repro.dynfo.engine import DynFOEngine
from repro.dynfo.errors import EngineError, UpdateError
from repro.dynfo.requests import Insert
from repro.logic import plan as plan_module
from repro.programs import (
    make_lca_program,
    make_parity_program,
    make_reach_u_arity2_program,
    make_reach_u_program,
)
from repro.workloads import bitflip_script, undirected_script


class TestCompileOnce:
    def test_exactly_one_compile_per_rule_over_1000_updates(self):
        program = make_parity_program()
        engine = DynFOEngine(program, 8, backend="relational")
        script = bitflip_script(8, 1000, seed=3)
        kinds = {type(request).__name__ for request in script}
        assert len(kinds) == 2  # inserts and deletes both exercised
        engine.run(script)
        stats = engine.plan_cache_stats()
        # one rule_plans lookup per request; exactly one compile per rule
        assert stats["misses"] == 2
        assert stats["hits"] == 1000 - 2
        assert stats["compile_ns"] > 0

    def test_queries_compile_once_too(self):
        program = make_parity_program()
        engine = DynFOEngine(program, 8, backend="relational")
        engine.insert("M", 3)
        before = engine.plan_cache_stats()["misses"]
        for _ in range(5):
            assert engine.ask("odd") is True
        stats = engine.plan_cache_stats()
        assert stats["misses"] == before + 1  # the query, compiled once

    def test_engines_sharing_a_program_share_the_cache(self):
        program = make_parity_program()
        first = DynFOEngine(program, 8, backend="relational")
        first.run(bitflip_script(8, 10, seed=1))
        misses = first.plan_cache_stats()["misses"]
        second = DynFOEngine(program, 8, backend="relational")
        second.run(bitflip_script(8, 10, seed=2))
        # the second engine found every plan already compiled
        assert second.plan_cache_stats()["misses"] == misses

    def test_cache_keyed_by_backend_and_n(self):
        program = make_parity_program()
        assert program.compile("relational", 8) is program.compile("relational", 8)
        assert program.compile("relational", 8) is not program.compile("dense", 8)
        assert program.compile("relational", 8) is not program.compile("relational", 9)

    def test_naive_backend_compiles_once_too(self):
        """The naive reference runs the same pipeline: one compiled item set
        per rule, looked up once per request."""
        program = make_parity_program()
        engine = DynFOEngine(program, 6, backend="naive")
        engine.run(bitflip_script(6, 40, seed=0))
        stats = engine.plan_cache_stats()
        assert stats["misses"] == 2
        assert stats["hits"] == 40 - 2

    @pytest.mark.parametrize("backend", ["relational", "dense", "naive"])
    def test_membership_tests_compile_once(self, backend, monkeypatch):
        """holds_in binds its tuple as parameters of one compiled plan."""
        engine = DynFOEngine(make_reach_u_program(), 8, backend=backend)
        engine.run(undirected_script(8, 10, seed=2))
        expected = engine.query("connected")
        before = engine.plan_cache_stats()["misses"]
        compilers = []
        compiler = plan_module._Compiler
        monkeypatch.setattr(
            plan_module, "_Compiler", lambda **kw: compilers.append(kw) or compiler(**kw)
        )
        for a in range(8):
            for b in range(8):
                assert engine.holds_in("connected", a, b) == ((a, b) in expected)
        assert engine.plan_cache_stats()["misses"] <= before + 1
        assert len(compilers) <= 1


class TestOnePlanPerRule:
    """A rule's update formula is fixed (Definition 3.1): the request's
    tuple only binds its parameters, so every request of a rule runs the
    same compiled plans."""

    def test_requests_of_a_rule_share_one_compiled_rule(self):
        engine = DynFOEngine(make_reach_u_program(), 8, backend="relational")
        rule, params, first = engine.plans_for(Insert("E", 0, 1))
        other_rule, other_params, second = engine.plans_for(Insert("E", 5, 3))
        assert rule is other_rule and params != other_params
        assert first is second

    def test_distinct_parameters_compile_nothing(self):
        n = 80
        engine = DynFOEngine(make_reach_u_program(), n, backend="relational")
        # warm-up: a path joins every vertex into one tree
        for a in range(n - 1):
            engine.insert("E", a, a + 1)
        misses = engine.plan_cache_stats()["misses"]
        chords = [(a, a + k) for k in range(2, n) for a in range(n - k)][:300]
        assert len(set(chords)) == 300
        for a, b in chords:
            engine.insert("E", a, b)
        assert engine.plan_cache_stats()["misses"] == misses


class TestMaxRowsKnob:
    def test_update_over_budget_raises_typed_update_error(self):
        program = make_reach_u_program()
        engine = DynFOEngine(program, 16, backend="relational", max_rows=10)
        with pytest.raises(UpdateError):
            engine.insert("E", 0, 1)
        # transactional: the auxiliary structure is untouched and usable
        assert engine.requests_applied == 0

    @pytest.mark.parametrize(
        "make_program,backend,path,read",
        [
            # the connected query is binary: its dense plan needs n^2 = 256
            # cells, far over a 10-cell budget
            (make_reach_u_program, "dense", 0, lambda e: e.query("connected")),
            # on a 16-vertex path, a connected membership still joins the
            # whole component (16 rows) against its root
            (
                make_reach_u_arity2_program,
                "relational",
                16,
                lambda e: e.holds_in("connected", 0, 15),
            ),
            # a ground lca membership still quantifies over the universe
            # (16 cells) under its forall
            (make_lca_program, "dense", 0, lambda e: e.holds_in("lca", 0, 0, 0)),
        ],
        ids=["query", "holds_in-relational", "holds_in-dense"],
    )
    def test_query_over_budget_raises_typed_engine_error(
        self, make_program, backend, path, read
    ):
        engine = DynFOEngine(make_program(), 16, backend=backend)
        for a in range(path - 1):
            engine.insert("E", a, a + 1)
        engine.max_rows = 10  # the budget binds the read alone
        with pytest.raises(EngineError, match="exceeded the evaluation budget"):
            read(engine)

    def test_generous_budget_changes_nothing(self):
        program = make_reach_u_program()
        engine = DynFOEngine(
            program, 8, backend="relational", max_rows=10_000_000
        )
        reference = DynFOEngine(program, 8, backend="relational")
        for request in undirected_script(8, 30, seed=4):
            engine.apply(request)
            reference.apply(request)
        assert engine.aux_snapshot() == reference.aux_snapshot()

    def test_max_rows_requires_plan_backend(self):
        program = make_parity_program()
        with pytest.raises(ValueError, match="max_rows requires"):
            DynFOEngine(program, 6, backend="naive", max_rows=100)

    def test_max_rows_must_be_positive(self):
        program = make_parity_program()
        with pytest.raises(ValueError, match="positive"):
            DynFOEngine(program, 6, backend="relational", max_rows=0)
