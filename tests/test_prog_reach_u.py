"""Theorem 4.1: REACH_u via spanning-forest maintenance."""

import pytest

from repro.dynfo import (
    DynFOEngine,
    FaultPlan,
    FaultyBackend,
    UpdateError,
    verify_program,
)
from repro.dynfo.oracles import connectivity_checker, spanning_forest_checker
from repro.programs import make_reach_u_program
from repro.workloads import undirected_script


@pytest.mark.parametrize("seed,n", [(0, 6), (1, 7), (2, 8)])
def test_randomized_against_oracle(seed, n):
    verify_program(
        make_reach_u_program(),
        n,
        undirected_script(n, 90, seed),
        [connectivity_checker(), spanning_forest_checker()],
    )


def test_dense_insert_delete_churn():
    """Heavier delete rate stresses the reconnection path."""
    verify_program(
        make_reach_u_program(),
        6,
        undirected_script(6, 120, seed=5, p_delete=0.6),
        [connectivity_checker(), spanning_forest_checker()],
    )


def test_hand_case_bridge_deletion():
    engine = DynFOEngine(make_reach_u_program(), 6)
    # triangle 0-1-2 plus pendant 2-3
    for (u, v) in [(0, 1), (1, 2), (0, 2), (2, 3)]:
        engine.insert("E", u, v)
    assert engine.ask("reach", s=0, t=3)
    engine.delete("E", 2, 3)  # bridge: 3 disconnects
    assert not engine.ask("reach", s=0, t=3)
    engine.delete("E", 0, 1)  # cycle edge: connectivity survives
    assert engine.ask("reach", s=0, t=1)


def test_self_loop_is_harmless():
    engine = DynFOEngine(make_reach_u_program(), 4)
    engine.insert("E", 2, 2)
    assert engine.query("forest") == set()
    engine.insert("E", 1, 2)
    assert engine.ask("reach", s=1, t=2)
    engine.delete("E", 2, 2)
    assert engine.ask("reach", s=1, t=2)


def test_forest_invariant_pv_consistent():
    """PV's endpoints-included convention: F(x,y) implies PV(x,y,x) and
    PV(x,y,y) (the paper's stated invariant)."""
    engine = DynFOEngine(make_reach_u_program(), 6)
    engine.run(undirected_script(6, 50, seed=9))
    pv = engine.query("pv")
    for (x, y) in engine.query("forest"):
        if x != y:
            assert (x, y, x) in pv and (x, y, y) in pv


@pytest.mark.parametrize("backend", ["relational", "dense", "naive"])
def test_backends_agree(backend):
    script = undirected_script(5, 25, seed=11)
    engine = DynFOEngine(make_reach_u_program(), 5, backend=backend)
    engine.run(script)
    reference = DynFOEngine(make_reach_u_program(), 5)
    reference.run(script)
    assert engine.aux_snapshot() == reference.aux_snapshot()


def test_request_order_independence_of_answers():
    """The *answers* (not the forest) are history-independent: two
    permutations of the same insert set agree on connectivity."""
    inserts = [(0, 1), (1, 2), (3, 4), (2, 3)]
    a = DynFOEngine(make_reach_u_program(), 6)
    b = DynFOEngine(make_reach_u_program(), 6)
    for (u, v) in inserts:
        a.insert("E", u, v)
    for (u, v) in reversed(inserts):
        b.insert("E", u, v)
    assert a.query("connected") == b.query("connected")


def _chorded_cycle(n, backend="relational"):
    """An engine holding an n-cycle with chords: every edge has a bypass,
    so a forest delete runs the delete rule's whole reconnection path."""
    engine = DynFOEngine(make_reach_u_program(), n, backend=backend)
    for u in range(n):
        engine.insert("E", u, (u + 1) % n)
    for u in range(0, n, 3):
        engine.insert("E", u, (u + 5) % n)
    return engine


def _forest_edge(engine):
    return min((u, v) for (u, v) in engine.structure.relation_view("F") if u < v)


def test_forest_delete_leaves_no_scratch_index_on_the_live_structure():
    """The delete rule's temporaries (TP, CandE, NewE) live only in the
    request's evaluator: no index of theirs reaches the live structure,
    while the indexes a delete builds on the auxiliary relations persist,
    so a second delete builds none.  A relational run builds no tensor."""
    n = 12
    engine = _chorded_cycle(n)
    structure = engine.structure
    aux = {rel.name for rel in engine.program.aux_vocabulary}

    def delete_a_forest_edge():
        engine.delete("E", *_forest_edge(engine))
        assert set(structure._indexes) <= aux
        assert structure._tensors == {}
        return {name: dict(per) for name, per in structure._indexes.items()}

    built = delete_a_forest_edge()
    assert any(built.values())  # the delete does probe indexes on aux relations
    again = delete_a_forest_edge()
    for name, indexes in again.items():
        assert indexes.keys() == built.get(name, {}).keys(), name
        for positions, index in indexes.items():
            assert index is built[name][positions], (name, positions)


def test_dense_forest_delete_caches_no_temporary_tensor():
    """The structure's dense tensors, kept across requests, are of
    auxiliary relations only: a temporary's tensor dies with its request."""
    engine = _chorded_cycle(16, backend="dense")
    engine.delete("E", *_forest_edge(engine))
    assert engine.last_update_stats["temporary_tuples"] > 0
    aux = {rel.name for rel in engine.program.aux_vocabulary}
    assert set(engine.structure._tensors) <= aux


@pytest.mark.parametrize("base", ["relational", "dense"])
def test_out_of_universe_rows_at_any_delete_step_abort_cleanly(base):
    """A wrapper's rows are validated before use, temporaries included: an
    out-of-universe row at any execute() of a forest delete (TP, CandE,
    NewE, then each definition's Δ⁺ and Δ⁻) aborts the request with the
    structure untouched."""
    n = 10
    setup = _chorded_cycle(n)
    edge = _forest_edge(setup)
    rule = setup.program.on_delete["E"]
    compiled = setup.compiled.rule_plans(rule)
    assert [name for name, _ in compiled.temporaries] == ["TP", "CandE", "NewE"]
    steps = len(compiled.temporaries) + 2 * len(compiled.definitions)
    for at in range(1, steps + 1):
        backend = FaultyBackend(base, FaultPlan("corrupt_oob", at=at))
        engine = DynFOEngine(setup.program, n, backend=backend)
        engine.structure = setup.aux_snapshot()
        with pytest.raises(UpdateError):
            engine.delete("E", *edge)
        assert backend.faults_fired == 1 and backend.evaluations <= steps
        assert engine.structure == setup.structure
    probe = FaultyBackend(base, FaultPlan("raise", at=10**9))
    engine = DynFOEngine(setup.program, n, backend=probe)
    engine.structure = setup.aux_snapshot()
    engine.delete("E", *edge)
    assert probe.evaluations == steps
