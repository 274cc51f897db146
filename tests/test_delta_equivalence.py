"""Delta staging is an optimization, not a semantics change: for any request
script, the plan backends (compiled Δ plans, indexed scans, trusted Δ
staging) must produce the *bit-identical* auxiliary structure the naive
backend produces by evaluating each whole new relation from the FO semantics
and diffing it — and their effect-record journals must carry the change,
not the relation, and replay to the same state physically or logically,
including the whole-relation ``"set"`` records and the request-only records
of older journals."""

import functools
import json

import numpy as np
import pytest

from repro.dynfo import DynFOEngine
from repro.dynfo.journal import RequestJournal, read_journal_entries, recover
from repro.dynfo.requests import Insert, request_to_item
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

    def __init__(self):
        self.records = []

    def append(self, seq, request, effects):
        self.records.append(effects)


def _strip_effects(path, keep=lambda seq: False):
    """A copy of the journal at ``path`` whose records drop ``"fx"`` unless
    ``keep(seq)`` — the request-only records older journals wrote, which
    recover replays logically."""
    out = path.with_name(f"{path.stem}-stripped.ndjson")
    items = [json.loads(line) for line in path.read_text().splitlines()]
    for item in items:
        if not keep(item["seq"]):
            del item["fx"]
    out.write_text("".join(json.dumps(item) + "\n" for item in items))
    return out


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
        journal = RequestJournal(path, fsync=False)
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
        journal = RequestJournal(path, fsync=False)
        engine = DynFOEngine(program, N, backend=backend, journal=journal)
        for request in script:
            engine.apply(request)
        journal.close()
        entries = read_journal_entries(path)
        assert entries and all(fx is not None for _, _, fx in entries)
        physical = recover(factory(), path, n=N, backend=backend, attach=False)
        logical = recover(
            factory(), _strip_effects(path), n=N, backend=backend, attach=False
        )
        assert physical.aux_snapshot() == logical.aux_snapshot()
        assert physical.aux_snapshot() == engine.aux_snapshot()
        assert physical.requests_applied == len(script)

    @pytest.mark.parametrize("name,backend", program_grid())
    def test_mixed_journal_recovers(self, tmp_path, name, backend):
        """A journal mixing effect records with request-only records of an
        older engine replays each record its own way — physically or
        logically — to the live engine's state."""
        factory, maker = CASES[name]
        script = maker(5)
        path = tmp_path / "journal.ndjson"
        journal = RequestJournal(path, fsync=False)
        engine = DynFOEngine(factory(), N, backend=backend, journal=journal)
        engine.run(script)
        journal.close()
        mixed = _strip_effects(path, keep=lambda seq: seq % 3 == 0)
        kinds = [fx is None for _, _, fx in read_journal_entries(mixed)]
        assert any(kinds) and not all(kinds)
        recovered = recover(factory(), mixed, n=N, backend=backend, attach=False)
        assert recovered.aux_snapshot() == engine.aux_snapshot()
        assert recovered.requests_applied == len(script)

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
            factory(), _strip_effects(path), n=N, backend=backend, attach=False
        )
        assert physical.aux_snapshot() == logical.aux_snapshot()
        assert physical.aux_snapshot() == live.aux_snapshot()
        assert physical.requests_applied == len(script)
        # the physical path was really taken, with whole-relation records
        assert physical.last_update_stats["relations_redefined"] >= 1


def _apply_sequentially(structure, fx):
    """An effect record applied the way earlier engines committed it: the
    whole-relation ``"set"`` entries, then each edit in order."""
    for name, rows in fx.get("set", {}).items():
        structure.set_relation(name, [tuple(tup) for tup in rows])
    for kind, name, tup in fx.get("edits", ()):
        getattr(structure, kind)(name, tuple(tup))


# Records in the formats of earlier engines that staged tuple by tuple: the
# same tuple edited both ways, and a "set" combined with edits on its relation.
OLDER_RECORDS = [
    (Insert("E", (0, 1)), None),  # request-only: replays logically
    (
        Insert("E", (1, 2)),
        {"edits": [["add", "E", [1, 2]], ["discard", "E", [1, 2]],
                   ["discard", "E", [0, 1]], ["add", "E", [0, 1]],
                   ["add", "E", [2, 1]]]},
    ),
    (
        Insert("E", (2, 3)),
        {"set": {"E": [[2, 3], [3, 2], [0, 1]]},
         "edits": [["add", "E", [1, 0]], ["discard", "E", [2, 3]],
                   ["add", "F", [2, 3]], ["discard", "F", [2, 3]],
                   ["discard", "F", [0, 1]], ["add", "F", [0, 1]]]},
    ),
]


@pytest.mark.parametrize("backend", BACKENDS)
def test_older_records_replay_last_edit_wins(tmp_path, backend):
    """Physical replay of per-tuple records equals applying their edits one
    by one, and leaves the structure's dense tensors consistent for later
    updates."""
    path = tmp_path / "older.ndjson"
    with path.open("w") as out:
        for seq, (request, fx) in enumerate(OLDER_RECORDS):
            item = {"seq": seq, "req": request_to_item(request)}
            if fx is not None:
                item["fx"] = fx
            out.write(json.dumps(item) + "\n")
    expected = DynFOEngine(make_reach_u_program(), N)
    expected.apply(OLDER_RECORDS[0][0])
    for _, fx in OLDER_RECORDS[1:]:
        _apply_sequentially(expected.structure, fx)
    recovered = recover(make_reach_u_program(), path, n=N, backend=backend, attach=False)
    assert recovered.aux_snapshot() == expected.aux_snapshot()
    assert recovered.requests_applied == len(OLDER_RECORDS)
    if backend == "dense":
        # replay patches the tensors the logical record built, in place
        tensors = recovered.structure._tensors
        assert "E" in tensors and "F" in tensors
        for name, array in tensors.items():
            cells = {tuple(int(v) for v in hit) for hit in np.argwhere(array)}
            assert cells == recovered.structure.relation_view(name), name
    for engine in (recovered, expected):
        engine.apply(Insert("E", (3, 4)))
    assert recovered.aux_snapshot() == expected.aux_snapshot()
