"""The relational (join-planning) evaluator: algebra unit tests and planner
edge cases."""

import pytest

from repro.logic import (
    EvaluationError,
    RelationalEvaluator,
    Structure,
    Vocabulary,
)
from repro.logic.dsl import Rel, c, eq, exists, forall, le, lt, neq
from repro.logic.plan import HashJoin, compile_formula
from repro.logic.relational import Relation

E = Rel("E")
U = Rel("U")


@pytest.fixture
def structure():
    voc = Vocabulary.parse("E^2, U^1, s")
    return Structure(
        voc,
        5,
        relations={"E": [(0, 1), (1, 2), (2, 3), (3, 3)], "U": [(1,), (4,)]},
        constants={"s": 2},
    )


def _join_structure(left_rows, right_rows, left_arity, right_arity):
    voc = Vocabulary.parse(f"L^{left_arity}, R^{right_arity}")
    return Structure(voc, 10, relations={"L": left_rows, "R": right_rows})


class TestRelationAlgebra:
    def test_join_shares_columns(self):
        structure = _join_structure([(0, 1), (1, 2)], [(1, 5), (2, 6), (9, 9)], 2, 2)
        formula = Rel("L")("x", "y") & Rel("R")("y", "z")
        plan = compile_formula(formula, ("x", "y", "z"))
        assert isinstance(plan, HashJoin)
        evaluator = RelationalEvaluator(structure)
        assert evaluator.execute(plan) == {(0, 1, 5), (1, 2, 6)}
        assert evaluator.rows(exists("y", formula), ("x", "z")) == {(0, 5), (1, 6)}

    def test_join_disjoint_is_cross_product(self):
        structure = _join_structure([(0,), (1,)], [(5,)], 1, 1)
        plan = compile_formula(Rel("L")("x") & Rel("R")("y"), ("x", "y"))
        assert isinstance(plan, HashJoin)
        assert RelationalEvaluator(structure).execute(plan) == {(0, 5), (1, 5)}

    def test_project_dedups(self):
        rel = Relation(("x", "y"), {(0, 1), (0, 2)})
        assert rel.project(("x",)).rows == {(0,)}

    def test_extend(self):
        rel = Relation(("x",), {(3,)}).extend("w", range(2))
        assert rel.rows == {(3, 0), (3, 1)}


class TestEvaluator:
    def test_atom_with_constant(self, structure):
        rows = RelationalEvaluator(structure).rows(E(c("s"), "y"), ("y",))
        assert rows == {(3,)}

    def test_atom_with_repeated_var(self, structure):
        rows = RelationalEvaluator(structure).rows(E("x", "x"), ("x",))
        assert rows == {(3,)}

    def test_pure_negation_conjunction(self, structure):
        # no positive generator at all: planner must widen by the universe
        formula = ~E("x", "y") & ~U("x")
        rows = RelationalEvaluator(structure).rows(formula, ("x", "y"))
        expected = {
            (x, y)
            for x in range(5)
            for y in range(5)
            if (x, y) not in {(0, 1), (1, 2), (2, 3), (3, 3)} and x not in (1, 4)
        }
        assert rows == expected

    def test_nullary_relation(self):
        voc = Vocabulary.parse("b^0")
        structure = Structure(voc, 3)
        evaluator = RelationalEvaluator(structure)
        assert not evaluator.truth(Rel("b")())
        structure.add("b", ())
        assert RelationalEvaluator(structure).truth(Rel("b")())

    def test_forall_guarded(self, structure):
        sentence = forall("x y", E("x", "y") >> le("x", "y"))
        assert RelationalEvaluator(structure).truth(sentence)
        sentence = forall("x y", E("x", "y") >> lt("x", "y"))
        assert not RelationalEvaluator(structure).truth(sentence)  # (3,3)

    def test_truth_requires_sentence(self, structure):
        with pytest.raises(EvaluationError):
            RelationalEvaluator(structure).truth(E("x", "y"))

    def test_frame_must_cover(self, structure):
        with pytest.raises(EvaluationError):
            RelationalEvaluator(structure).rows(E("x", "y"), ("x",))

    def test_size_guard(self, structure):
        evaluator = RelationalEvaluator(structure, max_rows=10)
        with pytest.raises(EvaluationError):
            evaluator.rows(~E("x", "y") & ~E("y", "z"), ("x", "y", "z"))

    def test_params(self, structure):
        evaluator = RelationalEvaluator(structure, {"a": 1})
        assert evaluator.rows(E(c("a"), "y"), ("y",)) == {(2,)}

    def test_memoization_reuses_results(self, structure):
        evaluator = RelationalEvaluator(structure)
        sub = exists("z", E("x", "z") & E("z", "y"))
        first = evaluator.rows(sub, ("x", "y"))
        second = evaluator.rows(sub, ("x", "y"))
        assert first == second == {(0, 2), (1, 3), (2, 3), (3, 3)}

    def test_distribution_over_wide_or(self, structure):
        # (seg | seg) shape: arms over different 3-variable frames
        formula = exists(
            "u",
            E("u", "x") & ((E("x", "y") & eq("z", "x")) | (E("y", "z") & neq("x", "y"))),
        )
        rows = RelationalEvaluator(structure).rows(formula, ("x", "y", "z"))
        # cross-check against the naive evaluator
        from repro.logic import naive_query

        assert rows == naive_query(formula, structure, ("x", "y", "z"))
