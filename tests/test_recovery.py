"""Crash-safe persistence: write-ahead journal, recovery, v2 snapshots.

The acceptance bar (ISSUE 1): kill a journaled run mid-script after an
fsync'd append, ``recover()`` the engine, finish the script, and the final
auxiliary structure equals that of an uninterrupted run.
"""

import json

import pytest

from repro.dynfo import (
    DynFOEngine,
    JournalError,
    PersistenceError,
    RequestJournal,
    load_engine,
    read_journal,
    recover,
    save_engine,
)
from repro.programs import make_parity_program, make_reach_u_program
from repro.workloads import undirected_script


class _CrashAfter:
    """A journal wrapper that simulates power loss: after ``k`` appends the
    append itself completes (fsync'd) but the engine 'process' dies before
    commit can be acknowledged any further."""

    def __init__(self, journal: RequestJournal, k: int) -> None:
        self.journal = journal
        self.k = k
        self.appended = 0

    def append(self, seq, request, effects):
        self.journal.append(seq, request, effects)
        self.appended += 1
        if self.appended == self.k:
            self.journal.close()
            raise KeyboardInterrupt("simulated crash after fsync'd append")


class TestJournalRecovery:
    def test_crash_mid_script_then_recover_matches_uninterrupted_run(self, tmp_path):
        program = make_reach_u_program()
        script = undirected_script(6, 40, seed=21)
        journal_path = tmp_path / "run.journal"
        crash_at = 17

        engine = DynFOEngine(program, 6)
        engine.attach_journal(_CrashAfter(RequestJournal(journal_path), crash_at))
        applied = 0
        with pytest.raises(KeyboardInterrupt):
            for request in script:
                engine.apply(request)
                applied += 1
        assert applied == crash_at - 1  # the crashing request never committed

        # recover from nothing but the journal, then finish the script
        restored = recover(program, journal_path, n=6)
        # WAL ordering: the fsync'd append survives, so the crashing request
        # is re-applied during recovery
        assert restored.requests_applied == crash_at
        for request in script[crash_at:]:
            restored.apply(request)
        restored.journal.close()

        uninterrupted = DynFOEngine(program, 6)
        uninterrupted.run(script)
        assert restored.aux_snapshot() == uninterrupted.aux_snapshot()
        assert restored.requests_applied == len(script)

        # and the journal now replays to the same final state again
        replayed = recover(program, journal_path, n=6, attach=False)
        assert replayed.aux_snapshot() == uninterrupted.aux_snapshot()

    def test_recover_with_snapshot_plus_journal_tail(self, tmp_path):
        program = make_reach_u_program()
        script = undirected_script(6, 30, seed=4)
        journal_path = tmp_path / "run.journal"
        snapshot_path = tmp_path / "run.snapshot"

        engine = DynFOEngine(program, 6, journal=RequestJournal(journal_path))
        for request in script[:12]:
            engine.apply(request)
        save_engine(engine, snapshot_path)
        for request in script[12:25]:
            engine.apply(request)
        engine.journal.close()  # crash here

        restored = recover(
            program, journal_path, snapshot_path=snapshot_path, attach=True
        )
        assert restored.requests_applied == 25
        for request in script[25:]:
            restored.apply(request)
        restored.journal.close()

        uninterrupted = DynFOEngine(program, 6)
        uninterrupted.run(script)
        assert restored.aux_snapshot() == uninterrupted.aux_snapshot()

    def test_torn_final_line_is_dropped(self, tmp_path):
        program = make_parity_program()
        journal_path = tmp_path / "run.journal"
        with RequestJournal(journal_path) as journal:
            engine = DynFOEngine(program, 5, journal=journal)
            engine.insert("M", 1)
            engine.insert("M", 2)
        # simulate a crash mid-append: a torn, non-JSON tail
        with open(journal_path, "a", encoding="utf-8") as handle:
            handle.write('{"seq":2,"req":{"op":"ins","rel"')
        entries = read_journal(journal_path)
        assert [seq for seq, _ in entries] == [0, 1]
        restored = recover(program, journal_path, n=5, attach=False)
        assert restored.requests_applied == 2

    def test_mid_file_corruption_is_a_hard_error(self, tmp_path):
        journal_path = tmp_path / "run.journal"
        journal_path.write_text(
            '{"seq":0,"req":{"op":"ins","rel":"M","tup":[1]}}\n'
            "garbage\n"
            '{"seq":1,"req":{"op":"ins","rel":"M","tup":[2]}}\n'
        )
        with pytest.raises(JournalError):
            read_journal(journal_path)

    def test_seq_gap_is_a_hard_error(self, tmp_path):
        journal_path = tmp_path / "run.journal"
        journal_path.write_text(
            '{"seq":5,"req":{"op":"ins","rel":"M","tup":[1]}}\n'
        )
        with pytest.raises(JournalError):
            recover(make_parity_program(), journal_path, n=5)

    def test_recover_without_snapshot_needs_n(self, tmp_path):
        with pytest.raises(JournalError):
            recover(make_parity_program(), tmp_path / "missing.journal")

    def test_append_to_closed_journal_rejected(self, tmp_path):
        journal = RequestJournal(tmp_path / "j")
        journal.close()
        from repro.dynfo import Insert

        with pytest.raises(JournalError):
            journal.append(0, Insert("M", 1), {})


class TestSnapshotV2:
    def test_snapshot_has_checksum_and_roundtrips(self, tmp_path):
        program = make_reach_u_program()
        script = undirected_script(6, 20, seed=9)
        engine = DynFOEngine(program, 6)
        engine.run(script)
        path = tmp_path / "snap.json"
        save_engine(engine, path)
        payload = json.loads(path.read_text())
        assert payload["format"] == "repro.dynfo/2"
        assert len(payload["checksum"]) == 64
        restored = load_engine(make_reach_u_program(), path)
        assert restored.aux_snapshot() == engine.aux_snapshot()

    def test_corrupted_payload_detected(self, tmp_path):
        program = make_reach_u_program()
        engine = DynFOEngine(program, 6)
        engine.run(undirected_script(6, 10, seed=2))
        path = tmp_path / "snap.json"
        save_engine(engine, path)
        payload = json.loads(path.read_text())
        payload["structure"]["constants"]["last_a"] = (
            payload["structure"]["constants"].get("last_a", 0) + 1
        ) % 6
        path.write_text(json.dumps(payload))
        with pytest.raises(PersistenceError, match="checksum"):
            load_engine(make_reach_u_program(), path)

    def test_v1_snapshot_still_loads(self, tmp_path):
        program = make_parity_program()
        engine = DynFOEngine(program, 5)
        engine.insert("M", 1)
        path = tmp_path / "snap.json"
        save_engine(engine, path)
        payload = json.loads(path.read_text())
        payload["format"] = "repro.dynfo/1"
        del payload["checksum"]
        path.write_text(json.dumps(payload))
        restored = load_engine(make_parity_program(), path)
        assert restored.aux_snapshot() == engine.aux_snapshot()

    def test_atomic_save_leaves_no_temp_files(self, tmp_path):
        program = make_parity_program()
        engine = DynFOEngine(program, 5)
        path = tmp_path / "snap.json"
        save_engine(engine, path)
        save_engine(engine, path)  # overwrite goes through os.replace too
        assert [p.name for p in tmp_path.iterdir()] == ["snap.json"]

    def test_audit_baseline_reset_after_load(self, tmp_path):
        """An engine restored from a snapshot audits against the snapshot,
        not against an unreplayable from-scratch history."""
        program = make_reach_u_program()
        script = undirected_script(6, 24, seed=13)
        engine = DynFOEngine(program, 6)
        for request in script[:12]:
            engine.apply(request)
        path = tmp_path / "snap.json"
        save_engine(engine, path)
        restored = load_engine(make_reach_u_program(), path)
        restored.audit_every = 3
        for request in script[12:]:
            restored.apply(request)  # audits pass against the snapshot base
        assert restored.requests_applied == len(script)
