"""Property tests: compiled-plan execution agrees with the naive oracle.

``naive_query`` is the semantics; :func:`compile_formula` + either executor
must agree with it on random formulas over random structures — including
symbolic update parameters (the engine's ``a``/``b``), vocabulary
constants, ``Bit`` atoms, and both settings of the backend-sensitive
``distribute`` flag.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.logic import (
    And,
    DenseEvaluator,
    Exists,
    Forall,
    Not,
    Or,
    RelationalEvaluator,
    Structure,
    Vocabulary,
    naive_query,
)
from repro.logic.dsl import Rel, c, eq, forall, le, lt
from repro.logic.plan import Complement, compile_formula, plan_nodes
from repro.logic.transform import free_vars

from .formula_gen import UNIVERSE, VARS, formulas, structures

# symbolic update parameters, resolved via the params mapping per execution
PARAMS = ("a", "b")
param_values = st.fixed_dictionaries(
    {name: st.integers(0, UNIVERSE - 1) for name in PARAMS}
)


@settings(max_examples=120, deadline=None)
@given(formulas(extra_consts=PARAMS), structures(), param_values, st.booleans())
def test_compiled_relational_matches_naive(formula, structure, params, distribute):
    frame = tuple(sorted(free_vars(formula)))
    expected = naive_query(formula, structure, frame, params)
    plan = compile_formula(formula, frame, distribute=distribute)
    assert RelationalEvaluator(structure, params).execute(plan) == expected


@settings(max_examples=120, deadline=None)
@given(formulas(extra_consts=PARAMS), structures(), param_values, st.booleans())
def test_compiled_dense_matches_naive(formula, structure, params, distribute):
    frame = tuple(sorted(free_vars(formula)))
    expected = naive_query(formula, structure, frame, params)
    plan = compile_formula(formula, frame, distribute=distribute)
    assert DenseEvaluator(structure, params).execute(plan) == expected


@settings(max_examples=60, deadline=None)
@given(formulas(extra_consts=PARAMS), structures(), structures(), param_values)
def test_one_plan_many_structures(formula, first, second, params):
    """The compile-once property: a single plan object is data independent,
    replaying correctly against different structures and both executors."""
    frame = tuple(sorted(free_vars(formula)))
    plan = compile_formula(formula, frame)
    for structure in (first, second):
        expected = naive_query(formula, structure, frame, params)
        assert RelationalEvaluator(structure, params).execute(plan) == expected
        assert DenseEvaluator(structure, params).execute(plan) == expected


@settings(max_examples=60, deadline=None)
@given(formulas(extra_consts=PARAMS), structures(), param_values)
def test_extended_frame_agreement(formula, structure, params):
    """Extra unconstrained frame columns widen, never change, the answer."""
    frame = tuple(VARS)
    expected = naive_query(formula, structure, frame, params)
    plan = compile_formula(formula, frame)
    assert RelationalEvaluator(structure, params).execute(plan) == expected
    assert DenseEvaluator(structure, params).execute(plan) == expected


# -- correlated filters --------------------------------------------------------
#
# A conjunct whose variables are all bound by the rest of the conjunction
# (``φ ∧ ∀ȳ ψ``, ``φ ∧ ¬∃ȳ ψ``, ``φ ∧ ¬(ψ1 ∨ ψ2)``) is planned seeded by φ's
# rows instead of through a universe complement.  The generator below makes
# φ bind every free variable of the conjunct, often plus columns that the
# conjunct's quantifiers shadow.


@st.composite
def bound_conjunctions(draw):
    """``φ ∧ C`` where φ's generators bind every free variable of ``C``."""
    body = draw(formulas(extra_consts=PARAMS))
    names = tuple(draw(st.lists(st.sampled_from(VARS), min_size=1, max_size=2, unique=True)))
    kind = draw(st.sampled_from(["forall", "not_exists", "not_or"]))
    if kind == "forall":
        conjunct = Forall(names, body)
    elif kind == "not_exists":
        conjunct = Not(Exists(names, body))
    else:
        conjunct = Not(Or((body, draw(formulas(extra_consts=PARAMS)))))
    columns = sorted(free_vars(conjunct))
    # extra φ columns: the quantified names themselves (shadowed inside C)
    # or random ones
    extra = names if draw(st.booleans()) else draw(st.lists(st.sampled_from(VARS), max_size=2))
    columns += [v for v in extra if v not in columns]
    generators = []
    for var in columns:
        shape = draw(st.sampled_from(["U", "E", "le_param"]))
        if shape == "U":
            generators.append(Rel("U")(var))
        elif shape == "E":
            generators.append(Rel("E")(var, draw(st.sampled_from(columns))))
        else:
            generators.append(le(var, c(draw(st.sampled_from(PARAMS)))))
    return And.of(*generators, conjunct)


@settings(max_examples=150, deadline=None)
@given(bound_conjunctions(), structures(), param_values)
def test_correlated_filters_match_naive(formula, structure, params):
    frame = tuple(sorted(free_vars(formula)))
    expected = naive_query(formula, structure, frame, params)
    for distribute in (True, False):
        plan = compile_formula(formula, frame, distribute=distribute)
        assert RelationalEvaluator(structure, params).execute(plan) == expected
        assert DenseEvaluator(structure, params).execute(plan) == expected


CAND = Vocabulary.parse("CandE^2")
CANDE = Rel("CandE")


def _least_tuple(x: str, y: str):
    """Theorem 4.1's replacement-edge choice: the lexicographically least
    CandE tuple, via a universal over every other candidate."""
    minimal = forall(
        "u2 v2",
        CANDE("u2", "v2") >> (lt(x, "u2") | (eq(x, "u2") & le(y, "v2"))),
    )
    return CANDE(x, y) & minimal


@settings(max_examples=60, deadline=None)
@given(st.sets(st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=20))
def test_least_tuple_idiom_is_exact(candidates):
    structure = Structure(CAND, 6, relations={"CandE": candidates})
    expected = {min(candidates)} if candidates else set()
    formula = _least_tuple("x", "y")
    for distribute in (True, False):
        plan = compile_formula(formula, ("x", "y"), distribute=distribute)
        assert RelationalEvaluator(structure).execute(plan) == expected
        assert DenseEvaluator(structure).execute(plan) == expected
    relational_plan = compile_formula(formula, ("x", "y"))
    assert not any(isinstance(node, Complement) for node in plan_nodes(relational_plan))
