"""Units for the physical-plan IR and compiler (logic/plan.py)."""

import pytest

from repro.dynfo import DynFOEngine, DynFOProgram, EngineError, Query, UpdateRule
from repro.logic import Structure, Vocabulary
from repro.logic.dsl import Rel, bit, c, eq, exists, forall, le, lit
from repro.logic.evaluation import EvaluationError, naive_query
from repro.logic.explain import render_plan
from repro.logic.plan import (
    AtomScan,
    ConstBind,
    EmptyScan,
    Filter,
    HashJoin,
    Plan,
    PlanError,
    Project,
    Union,
    cached_plan,
    compile_formula,
    plan_children,
    plan_depth,
    plan_nodes,
)
from repro.logic.relational import RelationalEvaluator
from repro.logic.syntax import BOT, And, Not

E = Rel("E")
U = Rel("U")
VOCAB = Vocabulary.parse("E^2, U^1, s, t")


def small_structure():
    return Structure(
        VOCAB,
        4,
        relations={"E": [(0, 1), (1, 2), (2, 3)], "U": [(1,), (3,)]},
        constants={"s": 0, "t": 3},
    )


class TestCompile:
    def test_frame_must_cover_free_vars(self):
        with pytest.raises(PlanError):
            compile_formula(E("x", "y"), ("x",))

    def test_plan_columns_match_frame_exactly(self):
        plan = compile_formula(E("x", "y"), ("y", "q", "x"))
        assert plan.columns == ("y", "q", "x")

    def test_false_body_is_an_empty_scan_over_the_frame(self):
        # a ⊥ body (e.g. a Δ⁻ of the frame idiom R | ψ) aligns to the frame
        # without an Extend enumerating n^|frame| rows
        plan = compile_formula(BOT, ("x", "y", "z"))
        assert isinstance(plan, EmptyScan)
        assert plan.columns == ("x", "y", "z")
        assert RelationalEvaluator(small_structure()).execute(plan) == set()

    def test_direct_atom_scan(self):
        plan = compile_formula(E("x", "y"), ("x", "y"))
        assert isinstance(plan, AtomScan)
        assert plan.direct and plan.rel == "E"

    def test_constant_atom_not_direct(self):
        plan = compile_formula(E("x", c("s")), ("x",))
        assert isinstance(plan, AtomScan)
        assert not plan.direct and plan.fixed

    def test_repeated_var_atom_not_direct(self):
        plan = compile_formula(E("x", "x"), ("x",))
        assert isinstance(plan, AtomScan)
        assert not plan.direct and plan.var_cols == (("x", (0, 1)),)

    def test_eq_with_constant_compiles_to_const_bind(self):
        plan = compile_formula(eq("x", lit(2)), ("x",))
        assert isinstance(plan, ConstBind)

    def test_exists_projects(self):
        plan = compile_formula(exists("z", E("x", "z") & E("z", "y")), ("x", "y"))
        assert isinstance(plan, Project)
        assert isinstance(plan.source, HashJoin)

    def test_negated_conjunct_becomes_budgeted_filter(self):
        """The negated conjunct is an antijoin that runs within a
        100k-row budget and agrees with the FO semantics."""
        formula = And.of(E("x", "y"), Not(U("y")))
        plan = compile_formula(formula, ("x", "y"))
        assert isinstance(plan, Filter) and plan.negated
        structure = small_structure()
        rows = RelationalEvaluator(structure, max_rows=100_000).execute(plan)
        assert rows == naive_query(formula, structure, ("x", "y")) == {(1, 2)}

    def test_filter_over_budget_raises(self):
        """A filter whose condition outgrows the budget raises: the work
        cannot slip past ``max_rows`` through per-row evaluation."""
        P, Q = Rel("P"), Rel("Q")
        vocab = Vocabulary.parse("P^1, Q^1")
        formula = And.of(P("x"), Not(Q("x")))
        structure = Structure(
            vocab, 50, relations={"P": [(0,)], "Q": [(x,) for x in range(1, 50)]}
        )
        plan = compile_formula(formula, ("x",))
        with pytest.raises(EvaluationError):
            RelationalEvaluator(structure, max_rows=10).execute(plan)
        # through an engine with the same budget, the error is typed
        mirror = UpdateRule(params=("a",), definitions=())
        program = DynFOProgram(
            name="p_not_q",
            input_vocabulary=vocab,
            aux_vocabulary=vocab,
            initial=lambda n: Structure(vocab, n),
            on_insert={"P": mirror, "Q": mirror},
            queries={"only_p": Query("only_p", formula, frame=("x",))},
        )
        engine = DynFOEngine(program, 50, max_rows=10)
        engine.insert("P", 0)
        for x in range(1, 50):
            engine.insert("Q", x)
        with pytest.raises(EngineError, match="exceeded the evaluation budget"):
            engine.query("only_p")

    def test_shared_subformula_shares_plan_node(self):
        guard = U("x")
        formula = And.of(guard, exists("y", E("x", "y") & guard))
        plan = compile_formula(formula, ("x",))
        nodes = plan_nodes(plan)
        guards = [
            node
            for node in nodes
            if isinstance(node, AtomScan) and node.rel == "U"
        ]
        # one shared node, listed once by the DAG traversal
        assert len(guards) == 1

    def test_distribute_flag_changes_plan_shape(self):
        wide_or = E("x", "y") | E("y", "z") | E("z", "x")
        formula = And.of(E("x", "y"), wide_or)
        dist = compile_formula(formula, ("x", "y", "z"), distribute=True)
        nodist = compile_formula(formula, ("x", "y", "z"), distribute=False)
        assert isinstance(dist, Union)
        # without distribution the conjunction stays one join pipeline
        assert not isinstance(nodist, Union)

    def test_quantifier_projection_keeps_plans_narrow(self):
        # nested sibling quantifiers must not widen the plan to all vars
        formula = exists("u", E("x", "u")) & exists("v", E("v", "y"))
        plan = compile_formula(formula, ("x", "y"))
        widest = max(len(node.columns) for node in plan_nodes(plan))
        assert widest <= 2


class TestTraversal:
    def test_plan_nodes_and_children(self):
        plan = compile_formula(exists("z", E("x", "z") & E("z", "y")), ("x", "y"))
        nodes = plan_nodes(plan)
        assert plan in nodes
        assert all(isinstance(node, Plan) for node in nodes)
        assert plan_children(plan) == (plan.source,)
        assert plan_depth(plan) == 3

    def test_leaves_have_no_children(self):
        plan = compile_formula(E("x", "y"), ("x", "y"))
        assert plan_children(plan) == ()
        assert plan_depth(plan) == 1


class TestCachedPlan:
    def test_identity_memoized(self):
        formula = exists("z", E("x", "z"))
        assert cached_plan(formula, ("x",)) is cached_plan(formula, ("x",))

    def test_distinct_formula_objects_compile_separately(self):
        a, b = E("x", "y"), E("x", "y")
        assert cached_plan(a, ("x", "y")) is not cached_plan(b, ("x", "y"))

    def test_distribute_flag_keys_the_cache(self):
        wide_or = E("x", "y") | E("y", "z") | E("z", "x")
        formula = And.of(E("x", "y"), wide_or)
        frame = ("x", "y", "z")
        with_dist = cached_plan(formula, frame, distribute=True)
        without = cached_plan(formula, frame, distribute=False)
        assert with_dist is not without


class TestExecutableSemantics:
    """Spot checks that specific plan shapes compute the right answers
    (the broad net is tests/test_plan_properties.py)."""

    def test_forall_via_double_negation(self):
        structure = small_structure()
        formula = forall("y", eq("x", "y") | E("x", "y") | E("y", "x") | U("y"))
        plan = compile_formula(formula, ("x",))
        evaluator = RelationalEvaluator(structure)
        expected = {(x,) for x in range(4) if all(
            x == y or (x, y) in {(0, 1), (1, 2), (2, 3)}
            or (y, x) in {(0, 1), (1, 2), (2, 3)} or y in (1, 3)
            for y in range(4)
        )}
        assert evaluator.execute(plan) == expected

    def test_bit_and_order_predicates(self):
        structure = small_structure()
        plan = compile_formula(bit("x", lit(0)) & le("x", lit(2)), ("x",))
        assert RelationalEvaluator(structure).execute(plan) == {(1,)}

    def test_symbolic_params_resolved_per_execution(self):
        structure = small_structure()
        formula = E(c("p"), "y")
        plan = compile_formula(formula, ("y",))
        assert RelationalEvaluator(structure, {"p": 0}).execute(plan) == {(1,)}
        assert RelationalEvaluator(structure, {"p": 1}).execute(plan) == {(2,)}

    def test_sentence_plan(self):
        structure = small_structure()
        plan = compile_formula(exists(("x", "y"), E("x", "y")), ())
        assert plan.columns == ()
        assert RelationalEvaluator(structure).execute(plan) == {()}


class TestRenderPlan:
    def test_render_contains_structure(self):
        plan = compile_formula(exists("z", E("x", "z") & E("z", "y")), ("x", "y"))
        text = render_plan(plan)
        assert "nodes" in text and "depth" in text
        assert "AtomScan E(x, z) [direct]" in text
        assert "HashJoin" in text

    def test_render_marks_shared_nodes(self):
        guard = U("x")
        formula = And.of(guard, Not(And.of(guard, E("x", "x"))))
        plan = compile_formula(formula, ("x",))
        text = render_plan(plan)
        assert "(shared)" in text
