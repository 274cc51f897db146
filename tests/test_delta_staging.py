"""Δ-staging: every update evaluates each definition's change, not its value.

For a definition ``R'(x̄) <-> φ`` the plan backends run
``Δ⁺ = ~R(x̄) & φ|R=false`` and ``Δ⁻ = R(x̄) & ~φ|R=true``
(:func:`repro.logic.transform.deltas`) and stage their rows as edits, with
nothing rebuilt and nothing diffed.  Pinned here to the naive FO semantics:

* the Δ formulas, and their plans compiled together on both executors,
  against ``naive_query`` on random formulas and structures;
* whole engines on both plan backends against a naive-backend engine, request
  by request, on every shipped program;
* the work bound: an insert writes the tuples it changes, not |PV|.
"""

import functools
import itertools
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import mod_counter_dfa, substring_dfa
from repro.dynfo import DynFOEngine
from repro.logic import DenseEvaluator, RelationalEvaluator, naive_query
from repro.logic.dsl import Rel, c, lit
from repro.logic.plan import compile_formulas
from repro.logic.syntax import BOT, Exists, Forall, Not
from repro.logic.transform import atoms_of, cofactor, deltas, free_vars
from repro.programs import PROGRAM_FACTORIES, make_dyck_program, make_regular_program
from repro.workloads import (
    bitflip_script,
    bounded_degree_script,
    dag_script,
    dyck_edit_script,
    forest_script,
    number_bit_script,
    padded_script,
    undirected_script,
    weighted_script,
    word_edit_script,
)

from .formula_gen import UNIVERSE, formulas, structures

E, U = Rel("E"), Rel("U")
PARAMS = ("a", "b")
param_values = st.fixed_dictionaries(
    {name: st.integers(0, UNIVERSE - 1) for name in PARAMS}
)
TARGETS = (("E", ("x", "y")), ("U", ("x",)))
# the frame atoms, and near misses that must not be cofactored: permuted,
# repeated and constant arguments
FRAME_LEAVES = (
    E("x", "y"),
    U("x"),
    E("y", "x"),
    E("x", "x"),
    E("x", c("s")),
    E(lit(0), "y"),
    U("y"),
)


def _assert_exact(name, frame, formula, structure, params):
    new = naive_query(formula, structure, frame, params)
    current = set(structure.relation_view(name))
    plus, minus = deltas(name, frame, formula)
    assert naive_query(plus, structure, frame, params) == new - current
    assert naive_query(minus, structure, frame, params) == current - new
    # the engine's path: both plans from one compiler, run by one evaluator
    for distribute, executor in (
        (True, RelationalEvaluator),
        (False, DenseEvaluator),
    ):
        plans = compile_formulas([(plus, frame), (minus, frame)], distribute=distribute)
        evaluator = executor(structure, params)
        assert evaluator.execute(plans[0]) == new - current
        assert evaluator.execute(plans[1]) == current - new


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(TARGETS),
    formulas(extra_consts=PARAMS, extra_leaves=FRAME_LEAVES),
    structures(),
    param_values,
)
def test_deltas_are_the_exact_change(target, formula, structure, params):
    name, frame = target
    loose = tuple(sorted(free_vars(formula) - set(frame)))
    if loose:
        formula = Exists(loose, formula)
    _assert_exact(name, frame, formula, structure, params)


FRAME = ("x", "y")
CASES = {
    # R(x̄) under quantifiers binding a frame variable denotes other tuples
    "bound_exists": Exists("x", E("x", "y") & U("x")) | E("x", "y"),
    "bound_forall": Forall("y", E("x", "y") >> U("y")) & ~E("x", "y"),
    "permuted_repeated_constant": E("y", "x")
    | (E("x", "x") & ~E("x", "y"))
    | E("x", c("s"))
    | (E(lit(0), "y") & E("x", "y")),
    "absent": U("x") & ~U("y"),
    "nested_not_implies_iff": ~(E("x", "y") >> U("x")).iff(
        E("x", "y").iff(~~U("y"))
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
@settings(max_examples=40, deadline=None)
@given(structure=structures(), params=param_values)
def test_deltas_exact_on_hand_cases(case, structure, params):
    _assert_exact("E", FRAME, CASES[case], structure, params)


@pytest.mark.parametrize(
    "bound",
    [Exists("x", E("x", "y") & U("x")), Forall("y", E("x", "y") >> U("y"))],
    ids=["exists", "forall"],
)
def test_cofactor_skips_occurrences_under_frame_binders(bound):
    atom = E("x", "y")
    formula = bound.iff(atom)
    assert cofactor(formula, atom, True) == bound
    assert cofactor(formula, atom, False) == Not(bound)


def test_absent_relation_gives_plain_differences():
    formula = CASES["absent"]
    plus, minus = deltas("E", FRAME, formula)
    assert atoms_of(plus).count(E("x", "y")) == 1
    assert atoms_of(minus).count(E("x", "y")) == 1


def test_frame_idioms_fold_to_false():
    psi = U("x") & ~U("y")
    assert deltas("E", FRAME, E("x", "y") | psi)[1] == BOT
    assert deltas("E", FRAME, E("x", "y") & ~psi)[0] == BOT


def test_compile_ns_counts_the_delta_derivation(monkeypatch):
    import repro.dynfo.program as program_module

    def slow_deltas(*args):
        time.sleep(0.002)
        return deltas(*args)

    monkeypatch.setattr(program_module, "deltas", slow_deltas)
    engine = DynFOEngine(PROGRAM_FACTORIES["parity"](), 6)
    engine.insert("M", 1)
    definitions = len(engine.program.on_insert["M"].definitions)
    assert engine.plan_cache_stats()["compile_ns"] >= definitions * 2_000_000


# -- whole engines against the naive backend --------------------------------

N = 6
STEPS = 30


def _padded(n, steps, seed):
    batches, _ = padded_script(n, steps, seed=seed)
    return [request for batch in batches for request in batch][:steps]


SCRIPTS = {
    "parity": (PROGRAM_FACTORIES["parity"], bitflip_script),
    "prefix_parity": (PROGRAM_FACTORIES["prefix_parity"], bitflip_script),
    "reach_u": (PROGRAM_FACTORIES["reach_u"], undirected_script),
    "reach_u_arity2": (PROGRAM_FACTORIES["reach_u_arity2"], undirected_script),
    "bipartite": (PROGRAM_FACTORIES["bipartite"], undirected_script),
    "kedge": (PROGRAM_FACTORIES["kedge"], undirected_script),
    "reach_acyclic": (PROGRAM_FACTORIES["reach_acyclic"], dag_script),
    "transitive_reduction": (PROGRAM_FACTORIES["transitive_reduction"], dag_script),
    "msf": (PROGRAM_FACTORIES["msf"], weighted_script),
    "matching": (
        PROGRAM_FACTORIES["matching"],
        lambda n, steps, seed: bounded_degree_script(n, steps, max_degree=3, seed=seed),
    ),
    "lca": (PROGRAM_FACTORIES["lca"], forest_script),
    "multiplication": (PROGRAM_FACTORIES["multiplication"], number_bit_script),
    "pad_reach_a": (PROGRAM_FACTORIES["pad_reach_a"], _padded),
    "dyck(2)": (
        lambda: make_dyck_program(2),
        lambda n, steps, seed: dyck_edit_script(2, n, steps, seed=seed),
    ),
    "regular(mod3)": (
        lambda: make_regular_program(mod_counter_dfa(3)),
        lambda n, steps, seed: word_edit_script(mod_counter_dfa(3), n, steps, seed=seed),
    ),
    "regular(aba)": (
        lambda: make_regular_program(substring_dfa(["a", "b", "a"], ["a", "b"])),
        lambda n, steps, seed: word_edit_script(
            substring_dfa(["a", "b", "a"], ["a", "b"]), n, steps, seed=seed
        ),
    ),
}


def test_every_shipped_program_is_covered():
    assert set(PROGRAM_FACTORIES) <= set(SCRIPTS)


@functools.lru_cache(maxsize=None)
def _naive_run(name):
    """Per request: (request, (tuples_added, tuples_removed), frozen state)."""
    factory, script = SCRIPTS[name]
    engine = DynFOEngine(factory(), N, backend="naive")
    trace = []
    for request in script(N, STEPS, seed=7):
        engine.apply(request)
        stats = engine.last_update_stats
        changed = (stats["tuples_added"], stats["tuples_removed"])
        trace.append((request, changed, engine.structure.freeze()))
    return trace


@pytest.mark.parametrize("backend", ["relational", "dense"])
@pytest.mark.parametrize("name", sorted(SCRIPTS))
def test_engine_changes_match_naive(name, backend):
    engine = DynFOEngine(SCRIPTS[name][0](), N, backend=backend)
    for step, (request, changed, state) in enumerate(_naive_run(name)):
        engine.apply(request)
        stats = engine.last_update_stats
        where = f"{name}/{backend} step {step} ({request})"
        assert (stats["tuples_added"], stats["tuples_removed"]) == changed, where
        assert engine.structure.freeze() == state, where
        # Δ plans emit exactly the tuples they change
        assert stats["tuples_written"] == sum(changed), where


# -- work: an update writes the tuples it changes ---------------------------


def _two_binary_trees(n, seed):
    """Two complete binary trees of n/2 vertices over a seeded labelling, and
    the absent edges inside them (inserting one never merges trees)."""
    rng = random.Random(seed)
    vertices = list(range(n))
    rng.shuffle(vertices)
    trees = (vertices[: n // 2], vertices[n // 2 :])
    edges = [
        tuple(sorted((tree[i], tree[(i - 1) // 2])))
        for tree in trees
        for i in range(1, len(tree))
    ]
    present = set(edges)
    absent = [
        pair
        for tree in trees
        for pair in itertools.combinations(sorted(tree), 2)
        if pair not in present
    ]
    rng.shuffle(absent)
    return edges, absent, trees


def test_non_merging_inserts_fit_a_budget_far_below_pv():
    """At n=80 PV holds ~20k tuples; an insert inside a tree changes two E
    tuples, so its Δ plans fit a 1000-row budget (rebuilding PV' did not)."""
    n = 80
    edges, absent, trees = _two_binary_trees(n, seed=1)
    engine = DynFOEngine(PROGRAM_FACTORIES["reach_u"](), n)
    for a, b in edges:
        engine.insert("E", a, b)
    assert len(engine.structure.relation_view("PV")) > 20 * 1000
    engine.max_rows = 1000
    for a, b in absent[:50]:
        engine.insert("E", a, b)
        stats = engine.last_update_stats
        assert (stats["tuples_added"], stats["tuples_removed"]) == (2, 0)
        assert stats["tuples_written"] == 2
    assert engine.ask("reach", s=trees[0][0], t=trees[0][-1])
    assert not engine.ask("reach", s=trees[0][0], t=trees[1][0])


@pytest.mark.parametrize("backend", ["relational", "dense"])
def test_insert_work_is_bounded_by_the_change(backend):
    """ROADMAP's acceptance bound for reach_u inserts, merging ones too:
    tuples_written <= 2 * (tuples_added + tuples_removed)."""
    engine = DynFOEngine(PROGRAM_FACTORIES["reach_u"](), 12, backend=backend)
    inserts = 0
    for request in undirected_script(12, 80, seed=4):
        engine.apply(request)
        if type(request).__name__ != "Insert":
            continue
        inserts += 1
        stats = engine.last_update_stats
        changed = stats["tuples_added"] + stats["tuples_removed"]
        assert stats["tuples_written"] <= 2 * changed, (request, stats)
    assert inserts > 40
