"""Plan-shape regressions: update rules never enumerate a wide universe.

An update should cost work in the tuples it touches, not in ``n^k``.  On the
set-based executor a :class:`Complement` or :class:`Extend` over ``k``
columns materializes ``n^k`` rows whatever the data, so no update-rule plan
of a shipped program may contain one wider than two columns: universals and
negated conjuncts are planned as correlated filters seeded by the rows they
filter (see ``logic/plan.py``).  The plans checked are the ones that run:
each temporary, and each definition's Δ⁺ and Δ⁻ plans.
"""

import itertools
import random

import pytest

from repro.baselines import mod_counter_dfa, substring_dfa
from repro.baselines.graphs import same_component, spanning_forest_is_valid
from repro.dynfo import DynFOEngine
from repro.logic.plan import Complement, Extend, plan_nodes
from repro.programs import PROGRAM_FACTORIES, make_dyck_program, make_regular_program

MAX_WIDTH = 2

PROGRAMS = {
    **PROGRAM_FACTORIES,
    "dyck(2)": lambda: make_dyck_program(2),
    "regular(mod3)": lambda: make_regular_program(mod_counter_dfa(3)),
    "regular(aba)": lambda: make_regular_program(
        substring_dfa(["a", "b", "a"], ["a", "b"])
    ),
}


def _rules(program):
    for kind, table in (
        ("insert", program.on_insert),
        ("delete", program.on_delete),
        ("set", program.on_set),
        ("op", program.on_operation),
    ):
        for rel, rule in sorted(table.items()):
            yield f"{kind}:{rel}", rule


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_no_wide_universe_enumeration_in_update_rules(name):
    program = PROGRAMS[name]()
    compiled = program.compile("relational", 8)
    offending = []
    for tag, rule in _rules(program):
        plans = compiled.rule_plans(rule)
        # the plans that run: the temporaries, then each definition's Δ pair
        runs = list(plans.temporaries)
        for definition, plus, minus in plans.definitions:
            runs += [(f"{definition} Δ+", plus), (f"{definition} Δ-", minus)]
        for definition, plan in runs:
            for node in plan_nodes(plan):
                if isinstance(node, (Complement, Extend)) and len(node.columns) > MAX_WIDTH:
                    offending.append(
                        f"{tag} {definition}: {type(node).__name__} over "
                        f"{node.columns} ({node.label})"
                    )
    assert not offending, f"{name}:\n" + "\n".join(offending)


def _cycle_with_chords(n: int, chords: int, seed: int) -> set[tuple[int, int]]:
    rng = random.Random(seed)
    order = list(range(n))
    rng.shuffle(order)
    edges = {tuple(sorted((order[i - 1], order[i]))) for i in range(n)}
    others = [p for p in itertools.combinations(range(n), 2) if p not in edges]
    return edges | set(rng.sample(others, chords))


def test_forest_delete_needs_no_per_row_fallback():
    """A forest-edge delete at n=64 fits a 100k-row budget by plan shape
    alone: the replacement-edge universal (4 columns, 16.7M rows as a
    complement) must run under it, with no per-row way around the budget."""
    n = 64
    edges = _cycle_with_chords(n, 56, seed=5)
    engine = DynFOEngine(PROGRAM_FACTORIES["reach_u"](), n, max_rows=100_000)
    for a, b in sorted(edges):
        engine.insert("E", a, b)
    rng = random.Random(11)
    for _ in range(3):
        forest = sorted((a, b) for a, b in engine.query("forest") if a < b)
        victim = rng.choice(forest)
        engine.delete("E", *victim)
        edges.discard(victim)
        symmetric = edges | {(b, a) for a, b in edges}
        forest = engine.query("forest")
        assert spanning_forest_is_valid(n, symmetric, forest)
        s, t = victim
        assert engine.ask("reach", s=s, t=t) == same_component(n, edges).connected(s, t)
