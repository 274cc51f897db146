"""Crash recovery of served sessions: a served engine killed mid-batch
recovers to exactly the state an oracle reaches by replaying the ACKed
requests — byte-identical auxiliary structure, not just equal answers.

The scheduler's contract is ACK-implies-durable: a request whose outcome
resolves without error was journaled and fsynced before the acknowledgment.
So after any crash, replaying precisely the ACKed prefix from scratch must
reproduce the recovered state (the engine is memoryless — Definition 3.1).
"""

from __future__ import annotations

import json

import pytest

from repro.dynfo import DynFOEngine
from repro.dynfo.faults import FaultPlan, FaultyBackend
from repro.dynfo.journal import read_journal
from repro.dynfo.persistence import structure_to_dict
from repro.dynfo.requests import Delete, Insert
from repro.programs import PROGRAM_FACTORIES
from repro.service import DynFOService, SessionManager
from repro.service.scheduler import Scheduler


def canonical(engine: DynFOEngine) -> str:
    """The auxiliary structure as deterministic bytes."""
    return json.dumps(structure_to_dict(engine.aux_snapshot()), sort_keys=True)


def oracle_replay(requests, n: int) -> DynFOEngine:
    engine = DynFOEngine(PROGRAM_FACTORIES["reach_u"](), n)
    for request in requests:
        engine.apply(request)
    return engine


SCRIPT = [
    Insert("E", 0, 1),
    Insert("E", 1, 2),
    Insert("E", 2, 3),
    Insert("E", 4, 5),
    Delete("E", 1, 2),
    Insert("E", 3, 4),
    Insert("E", 0, 5),
    Delete("E", 2, 3),
]


def test_mid_batch_kill_recovers_to_oracle_state(tmp_path):
    """Kill the engine mid-batch (injected evaluator fault), abandon the
    session without snapshotting — a crash — then restart and compare the
    recovered structure byte-for-byte against a from-scratch replay of the
    requests that were ACKed."""
    n = 8
    # sabotage one evaluation somewhere inside the batch commit (the script
    # costs 54 execute() calls; 14 lands in request 3 of 8)
    backend = FaultyBackend("relational", FaultPlan("raise", at=14))
    manager = SessionManager(data_dir=tmp_path)
    scheduler = Scheduler(max_batch=64)
    session = manager.open("srv", "reach_u", n=n, backend=backend)

    outcomes = scheduler.apply_script(session, SCRIPT)
    acked = [o.request for o in outcomes if o.error is None]
    failed = [o for o in outcomes if o.error is not None]
    assert failed, "the fault plan must kill at least one request mid-batch"
    assert len(acked) < len(SCRIPT)
    assert session.engine.requests_applied == len(acked)
    before_crash = canonical(session.engine)

    # crash: no snapshot, no graceful close
    session.abandon()
    scheduler.close()

    # only ACKed requests ever reached the journal
    journaled = read_journal(tmp_path / "srv" / "journal.ndjson")
    assert [request for _, request in journaled] == acked

    # restart: a new manager recovers the session from meta + journal
    manager2 = SessionManager(data_dir=tmp_path)
    recovered = manager2.open("srv")
    assert recovered.recovered
    assert recovered.engine.requests_applied == len(acked)
    assert canonical(recovered.engine) == before_crash

    # the decisive check: recovered state == from-scratch oracle replay
    oracle = oracle_replay(acked, n)
    assert canonical(recovered.engine) == canonical(oracle)

    # and the recovered session keeps serving correctly
    scheduler2 = Scheduler()
    scheduler2.apply(recovered, Insert("E", 6, 7))
    oracle.apply(Insert("E", 6, 7))
    assert canonical(recovered.engine) == canonical(oracle)
    manager2.close_all()
    scheduler2.close()


def test_faulted_request_fails_typed_through_the_service(tmp_path):
    """Through the full service stack, a mid-batch engine fault surfaces as
    a typed per-request error while the rest of the script commits."""
    backend = FaultyBackend("relational", FaultPlan("raise", at=14))
    service = DynFOService(data_dir=tmp_path)
    try:
        session = service.sessions.open("srv", "reach_u", n=8, backend=backend)
        outcomes = service.scheduler.apply_script(session, SCRIPT)
        errors = [o.error for o in outcomes if o.error is not None]
        assert errors
        from repro.service.errors import code_for

        assert all(code_for(e) != "INTERNAL_ERROR" for e in errors)
    finally:
        service.close(snapshot=False)


def test_recovery_with_snapshot_plus_journal_tail(tmp_path):
    """A snapshot mid-history plus later journaled requests recovers to the
    same bytes as replaying everything — the served-session version of the
    snapshot+WAL recovery story."""
    manager = SessionManager(data_dir=tmp_path)
    scheduler = Scheduler()
    session = manager.open("srv", "reach_u", n=8)
    scheduler.apply_script(session, SCRIPT[:4])
    session.save()  # snapshot now; the tail stays journal-only
    scheduler.apply_script(session, SCRIPT[4:])
    expected = canonical(session.engine)
    session.abandon()
    scheduler.close()

    manager2 = SessionManager(data_dir=tmp_path)
    recovered = manager2.open("srv")
    assert recovered.recovered
    assert canonical(recovered.engine) == expected
    assert canonical(recovered.engine) == canonical(oracle_replay(SCRIPT, 8))
    manager2.close_all()


@pytest.mark.parametrize("fault_at", [1, 14, 25])
def test_recovery_oracle_identity_across_fault_positions(tmp_path, fault_at):
    """Wherever the fault lands in the batch, recovery equals the oracle on
    the ACKed prefix."""
    backend = FaultyBackend("relational", FaultPlan("raise", at=fault_at))
    manager = SessionManager(data_dir=tmp_path)
    scheduler = Scheduler()
    session = manager.open("srv", "reach_u", n=8, backend=backend)
    outcomes = scheduler.apply_script(session, SCRIPT)
    acked = [o.request for o in outcomes if o.error is None]
    session.abandon()
    scheduler.close()

    manager2 = SessionManager(data_dir=tmp_path)
    recovered = manager2.open("srv")
    assert recovered.engine.requests_applied == len(acked)
    assert canonical(recovered.engine) == canonical(oracle_replay(acked, 8))
    manager2.close_all()
