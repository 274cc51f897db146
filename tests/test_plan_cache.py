"""Engine-level plan caching: compile-once and the max_rows budget knob."""

import pytest

from repro.dynfo.engine import DynFOEngine
from repro.dynfo.errors import EngineError, UpdateError
from repro.programs import (
    make_lca_program,
    make_parity_program,
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

    def test_naive_backend_keeps_per_request_path(self):
        program = make_parity_program()
        engine = DynFOEngine(program, 6, backend="naive")
        engine.run(bitflip_script(6, 5, seed=0))
        assert engine.plan_cache_stats() == {
            "hits": 0,
            "misses": 0,
            "compile_ns": 0,
        }


class TestMaxRowsKnob:
    def test_update_over_budget_raises_typed_update_error(self):
        program = make_reach_u_program()
        engine = DynFOEngine(program, 16, backend="relational", max_rows=10)
        with pytest.raises(UpdateError):
            engine.insert("E", 0, 1)
        # transactional: the auxiliary structure is untouched and usable
        assert engine.requests_applied == 0

    @pytest.mark.parametrize(
        "make_program,backend,read",
        [
            # the connected query is binary: its dense plan needs n^2 = 256
            # cells, far over a 10-cell budget
            (make_reach_u_program, "dense", lambda e: e.query("connected")),
            # a ground lca membership still quantifies over the universe
            # (16 rows or cells) under its forall
            (make_lca_program, "relational", lambda e: e.holds_in("lca", 0, 0, 0)),
            (make_lca_program, "dense", lambda e: e.holds_in("lca", 0, 0, 0)),
        ],
        ids=["query", "holds_in-relational", "holds_in-dense"],
    )
    def test_query_over_budget_raises_typed_engine_error(
        self, make_program, backend, read
    ):
        engine = DynFOEngine(make_program(), 16, backend=backend, max_rows=10)
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
