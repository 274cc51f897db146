"""Delta staging is an optimization, not a semantics change: for any request
script, the plan backends (compiled Δ plans, indexed scans, trusted Δ
staging) must produce the *bit-identical* auxiliary structure the naive
backend produces by evaluating each whole new relation from the FO semantics
and diffing it — and their effect-record journals must carry the change,
not the relation, and replay to the same state physically or logically,
including the whole-relation ``"set"`` records of older journals."""

import functools

import pytest

from repro.dynfo import DynFOEngine
from repro.dynfo.journal import RequestJournal, read_journal_entries, recover
from repro.programs import make_multiplication_program, make_reach_u_program
from repro.programs.dyck import make_dyck_program
from repro.workloads import number_bit_script, undirected_script
from repro.workloads.strings import dyck_edit_script

N = 7
CASES = {
    "reach_u": (make_reach_u_program, lambda seed: undirected_script(N, 40, seed=seed)),
    "dyck": (
        lambda: make_dyck_program(2),
        lambda seed: dyck_edit_script(2, N, 40, seed=seed),
    ),
    "multiplication": (
        make_multiplication_program,
        lambda seed: number_bit_script(N, 40, seed=seed),
    ),
}
BACKENDS = ["relational", "dense"]


def case_grid():
    return [
        pytest.param(name, backend, seed, id=f"{name}-{backend}-s{seed}")
        for name in CASES
        for backend in BACKENDS
        for seed in (3, 17)
    ]


def program_grid():
    return [
        pytest.param(name, backend, id=f"{name}-{backend}")
        for name in CASES
        for backend in BACKENDS
    ]


@functools.lru_cache(maxsize=None)
def _naive_states(name, seed):
    """The naive engine's frozen auxiliary structure after every request."""
    factory, maker = CASES[name]
    engine = DynFOEngine(factory(), N, backend="naive")
    states = []
    for request in maker(seed):
        engine.apply(request)
        states.append(engine.structure.freeze())
    return states


class _EffectCapture:
    """Duck-typed journal keeping each request's effect record in memory."""

    record_effects = True

    def __init__(self):
        self.records = []

    def append(self, seq, request, effects=None):
        self.records.append(effects)


class TestDeltaEqualsFull:
    @pytest.mark.parametrize("name,backend,seed", case_grid())
    def test_random_script_bit_identical(self, name, backend, seed):
        """After every request, the plan backend's auxiliary structure
        equals the naive engine's, which rewrites each redefined relation
        in full from the FO semantics."""
        factory, maker = CASES[name]
        engine = DynFOEngine(factory(), N, backend=backend)
        script = maker(seed)
        for step, (request, state) in enumerate(
            zip(script, _naive_states(name, seed), strict=True)
        ):
            engine.apply(request)
            assert engine.structure.freeze() == state, (
                f"{name}/{backend}: delta and naive diverged after "
                f"step {step} ({request})"
            )

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_delta_stats_account_for_the_symmetric_difference(self, backend):
        """tuples_added/tuples_removed reflect actual state change: an
        update replayed onto an identical state is a no-op delta."""
        program = make_reach_u_program()
        script = undirected_script(N, 30, seed=9)
        engine = DynFOEngine(program, N, backend=backend)
        for request in script:
            engine.apply(request)
        before = engine.aux_snapshot()
        # re-applying the last insert (already present) must stage nothing
        # for the mirrored relation beyond what the rule re-derives
        engine.apply(script[-1])
        again = engine.aux_snapshot()
        if again == before:
            stats = engine.last_update_stats
            assert stats["tuples_added"] == 0
            assert stats["tuples_removed"] == 0


class TestJournalEquivalence:
    @pytest.mark.parametrize("name,backend", program_grid())
    def test_effect_records_carry_the_change(self, tmp_path, name, backend):
        """No record rewrites a whole relation, and each record's edits are
        exactly the tuples its request added and removed."""
        factory, maker = CASES[name]
        path = tmp_path / "journal.ndjson"
        journal = RequestJournal(path, fsync=False, record_effects=True)
        engine = DynFOEngine(factory(), N, backend=backend, journal=journal)
        changed = []
        for request in maker(3):
            engine.apply(request)
            stats = engine.last_update_stats
            changed.append(stats["tuples_added"] + stats["tuples_removed"])
        journal.close()
        records = [fx for _, _, fx in read_journal_entries(path)]
        assert len(records) == len(changed) == 40
        for step, (fx, count) in enumerate(zip(records, changed)):
            assert "set" not in fx, f"{name}/{backend} step {step}"
            assert len(fx.get("edits", ())) == count, f"{name}/{backend} step {step}"

    @pytest.mark.parametrize("name,backend,seed", case_grid())
    def test_physical_and_logical_recovery_agree(
        self, tmp_path, name, backend, seed
    ):
        """Replaying recorded effects directly and re-evaluating every
        update formula reach the same state."""
        factory, maker = CASES[name]
        script = maker(seed)
        path = tmp_path / "journal.ndjson"
        program = factory()
        journal = RequestJournal(path, fsync=False, record_effects=True)
        engine = DynFOEngine(program, N, backend=backend, journal=journal)
        for request in script:
            engine.apply(request)
        journal.close()
        entries = read_journal_entries(path)
        assert entries and all(fx is not None for _, _, fx in entries)
        physical = recover(factory(), path, n=N, backend=backend, attach=False)
        logical = recover(
            factory(), path, n=N, backend=backend, attach=False, physical=False
        )
        assert physical.aux_snapshot() == logical.aux_snapshot()
        assert physical.aux_snapshot() == engine.aux_snapshot()
        assert physical.requests_applied == len(script)

    @pytest.mark.parametrize("name,backend", program_grid())
    def test_whole_relation_set_records_still_recover(self, tmp_path, name, backend):
        """Journals written by the earlier full-rewrite engine carry each
        redefined relation whole under ``"set"`` (the input mirror and
        constants as before).  A journal is input from outside the program,
        so those records must still replay, physically as logically."""
        factory, maker = CASES[name]
        script = maker(17)
        capture = _EffectCapture()
        live = DynFOEngine(factory(), N, backend=backend, journal=capture)
        path = tmp_path / "full-rewrite.ndjson"
        with RequestJournal(path, fsync=False) as journal:
            for seq, request in enumerate(script):
                rule = live.plans_for(request)[0]
                defined = rule.defined_names()
                live.apply(request)
                fx = dict(capture.records[seq])
                fx["set"] = {
                    rel: sorted(list(tup) for tup in live.structure.relation_view(rel))
                    for rel in defined
                }
                edits = [e for e in fx.pop("edits", ()) if e[1] not in defined]
                if edits:
                    fx["edits"] = edits
                journal.append(seq, request, effects=fx)
        physical = recover(factory(), path, n=N, backend=backend, attach=False)
        logical = recover(
            factory(), path, n=N, backend=backend, attach=False, physical=False
        )
        assert physical.aux_snapshot() == logical.aux_snapshot()
        assert physical.aux_snapshot() == live.aux_snapshot()
        assert physical.requests_applied == len(script)
        # the physical path was really taken, with whole-relation records
        assert physical.last_update_stats["relations_redefined"] >= 1
