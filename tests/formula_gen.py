"""Hypothesis strategies for random formulas and structures.

Used by the property tests that pin the three evaluators to each other and
the parser to the printer.
"""

from __future__ import annotations

from hypothesis import strategies as st

from repro.logic import (
    And,
    Atom,
    Bit,
    Const,
    Eq,
    Exists,
    Forall,
    Iff,
    Implies,
    Le,
    Lit,
    Lt,
    Not,
    Or,
    Structure,
    Vocabulary,
)

VOCAB = Vocabulary.parse("E^2, U^1, s, t")
VARS = ("x", "y", "z", "u", "v")
UNIVERSE = 4  # keep the naive evaluator honest but fast


def terms(
    max_lit: int = UNIVERSE, extra_consts: tuple[str, ...] = ()
) -> st.SearchStrategy:
    names = ("s", "t", "min", "max") + tuple(extra_consts)
    return st.one_of(
        st.sampled_from(VARS).map(lambda name: name),
        st.sampled_from(names).map(Const),
        st.integers(0, max_lit - 1).map(Lit),
    )


def _leaves(extra_consts: tuple[str, ...] = ()) -> st.SearchStrategy:
    term = terms(extra_consts=extra_consts)
    return st.one_of(
        st.builds(lambda a, b: Atom("E", (a, b)), term, term),
        st.builds(lambda a: Atom("U", (a,)), term),
        st.builds(Eq, term, term),
        st.builds(Le, term, term),
        st.builds(Lt, term, term),
        st.builds(Bit, term, term),
    )


def formulas(
    max_depth: int = 4,
    extra_consts: tuple[str, ...] = (),
    extra_leaves: tuple = (),
) -> st.SearchStrategy:
    """Random formulas; free variables are always within VARS.

    ``extra_consts`` adds symbolic constants beyond the vocabulary's —
    e.g. update-parameter names resolved via the evaluators' ``params``
    mapping rather than the structure.  ``extra_leaves`` adds fixed leaf
    formulas, drawn as often as all the random leaves together."""

    def extend(children: st.SearchStrategy) -> st.SearchStrategy:
        quantified = st.builds(
            lambda ctor, names, body: ctor(tuple(names), body),
            st.sampled_from([Exists, Forall]),
            st.lists(st.sampled_from(VARS), min_size=1, max_size=2, unique=True),
            children,
        )
        return st.one_of(
            st.builds(Not, children),
            st.builds(lambda a, b: And((a, b)), children, children),
            st.builds(lambda a, b: Or((a, b)), children, children),
            st.builds(Implies, children, children),
            st.builds(Iff, children, children),
            quantified,
        )

    leaves = _leaves(extra_consts)
    if extra_leaves:
        leaves = st.one_of(leaves, st.sampled_from(extra_leaves))
    return st.recursive(leaves, extend, max_leaves=8)


@st.composite
def structures(draw, vocabulary: Vocabulary = VOCAB, n: int = UNIVERSE):
    structure = Structure(vocabulary, n)
    for rel in vocabulary:
        rows = draw(
            st.sets(
                st.tuples(*([st.integers(0, n - 1)] * rel.arity)),
                max_size=n ** rel.arity,
            )
        )
        structure.set_relation(rel.name, rows)
    for name in vocabulary.constant_names():
        structure.set_constant(name, draw(st.integers(0, n - 1)))
    return structure
