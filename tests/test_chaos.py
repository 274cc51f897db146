"""Chaos tests: fault injection against the transactional engine.

The acceptance bar (ISSUE 1): with a fault injected at *every* evaluation
position of an update, a failed ``apply()`` leaves the auxiliary structure
byte-identical to the pre-update snapshot and a clean retry succeeds; and
silent (in-universe) corruption is caught by the integrity audit, whose
``IntegrityError`` carries a minimized repro script that reproduces the
divergence.
"""

import pytest

from repro.dynfo import (
    DynFOEngine,
    EngineError,
    FaultPlan,
    FaultyBackend,
    InjectedFault,
    IntegrityError,
    UpdateError,
    minimize_script,
)
from repro.logic.relational import RelationalEvaluator
from repro.programs import make_parity_program, make_reach_u_program
from repro.workloads import bitflip_script, undirected_script


def _evaluations_used(program, n, script) -> int:
    probe = FaultyBackend("relational", FaultPlan("raise", at=10**9))
    engine = DynFOEngine(program, n, backend=probe)
    engine.run(script)
    return probe.evaluations


class TestFaultPositions:
    def test_positions_are_the_production_execute_calls(self, monkeypatch):
        """A FaultyBackend counts exactly the execute() calls the production
        pipeline makes — the same compiled plans, in the same order — so a
        fault position names a step production really runs."""
        program = make_reach_u_program()
        script = undirected_script(6, 20, seed=4)
        executed = []
        execute = RelationalEvaluator.execute

        def recording(self, plan):
            executed.append(plan)
            return execute(self, plan)

        monkeypatch.setattr(RelationalEvaluator, "execute", recording)
        DynFOEngine(program, 6).run(script)
        production = list(executed)
        executed.clear()
        probe = FaultyBackend("relational", FaultPlan("raise", at=10**9))
        DynFOEngine(program, 6, backend=probe).run(script)
        assert probe.evaluations == len(production) > len(script)
        assert all(a is b for a, b in zip(executed, production, strict=True))


class TestAtomicity:
    def test_every_evaluation_position_aborts_cleanly(self):
        """Inject an exception at each evaluation position in turn: every
        failed apply must be a perfect no-op, and the retry must succeed and
        land on the fault-free final structure."""
        program = make_reach_u_program()
        script = undirected_script(6, 12, seed=5)
        reference = DynFOEngine(program, 6)
        reference.run(script)
        total = _evaluations_used(program, 6, script)
        assert total > len(script)  # several evaluations per request
        for at in range(1, total + 1):
            backend = FaultyBackend("relational", FaultPlan("raise", at=at))
            engine = DynFOEngine(program, 6, backend=backend)
            failures = 0
            for request in script:
                before = engine.aux_snapshot()
                try:
                    engine.apply(request)
                except UpdateError as error:
                    failures += 1
                    assert isinstance(error.__cause__, InjectedFault)
                    assert engine.aux_snapshot() == before  # untouched
                    engine.apply(request)  # retry without the (one-shot) fault
            assert failures == 1
            assert backend.faults_fired == 1
            assert engine.aux_snapshot() == reference.aux_snapshot()
            assert engine.requests_applied == len(script)

    def test_out_of_universe_corruption_rejected_at_staging(self):
        """A backend emitting out-of-universe rows must not commit anything:
        the staged batch is rejected wholesale."""
        program = make_reach_u_program()
        script = undirected_script(6, 10, seed=1)
        backend = FaultyBackend("relational", FaultPlan("corrupt_oob", at=4))
        engine = DynFOEngine(program, 6, backend=backend)
        failures = 0
        for request in script:
            before = engine.aux_snapshot()
            try:
                engine.apply(request)
            except UpdateError:
                failures += 1
                assert engine.aux_snapshot() == before
                engine.apply(request)
        assert failures == 1
        reference = DynFOEngine(program, 6)
        reference.run(script)
        assert engine.aux_snapshot() == reference.aux_snapshot()


class TestIntegrityAudit:
    def test_silent_corruption_raises_integrity_error(self):
        """Dropped tuples are invisible to validation but caught by the
        audit's from-scratch replay; the attached repro is no longer than
        the audited script and actually reproduces the divergence."""
        program = make_reach_u_program()
        script = undirected_script(6, 30, seed=3)
        backend = FaultyBackend("relational", FaultPlan("drop", at=11, count=2))
        engine = DynFOEngine(program, 6, backend=backend, audit_every=1)
        with pytest.raises(IntegrityError) as excinfo:
            engine.run(script)
        error = excinfo.value
        assert 0 < len(error.repro) <= engine.requests_applied <= len(script)
        assert error.detail
        # the minimized script reproduces the divergence: faulty replay
        # differs from pristine replay
        subject = DynFOEngine(program, 6, backend=backend.fresh())
        pristine = DynFOEngine(program, 6)
        for request in error.repro:
            subject.apply(request)
            pristine.apply(request)
        assert subject.aux_snapshot() != pristine.aux_snapshot()

    def test_corrupt_rows_caught_and_minimized(self):
        program = make_reach_u_program()
        script = undirected_script(6, 30, seed=3)
        backend = FaultyBackend("relational", FaultPlan("corrupt", at=13, seed=7))
        engine = DynFOEngine(program, 6, backend=backend, audit_every=9)
        with pytest.raises(IntegrityError) as excinfo:
            engine.run(script)
        repro = excinfo.value.repro
        assert len(repro) <= engine.requests_applied
        # strictly smaller than the audited prefix for this workload
        assert len(repro) < engine.requests_applied

    def test_clean_run_passes_audit(self):
        program = make_parity_program()
        script = bitflip_script(8, 40, seed=2)
        engine = DynFOEngine(program, 8, backend="relational", audit_every=4)
        engine.run(script)  # no IntegrityError
        assert engine.requests_applied == len(script)

    def test_manual_audit_requires_logging(self):
        engine = DynFOEngine(make_parity_program(), 4)
        with pytest.raises(EngineError):
            engine.audit()

    def test_externally_poked_structure_detected(self):
        """Corruption that did not come from the backend (someone poked the
        structure directly) is still detected; the repro then degrades to
        the full audited script, never longer."""
        program = make_parity_program()
        script = bitflip_script(6, 10, seed=0)
        engine = DynFOEngine(program, 6, audit_every=len(script))
        for request in script[:-1]:
            engine.apply(request)
        engine.structure.add("M", (3,))  # sabotage behind the engine's back
        with pytest.raises(IntegrityError) as excinfo:
            engine.apply(script[-1])
        assert len(excinfo.value.repro) <= len(script)


class TestFaultPlanAndMinimizer:
    def test_bad_plans_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan("explode", at=1)
        with pytest.raises(ValueError):
            FaultPlan("raise", at=0)
        with pytest.raises(ValueError):
            FaultyBackend("quantum", FaultPlan("raise", at=1))

    def test_callable_backend_must_name_its_base(self):
        with pytest.raises(ValueError, match="base"):
            DynFOEngine(make_parity_program(), 4, backend=lambda s, p: None)

    def test_fresh_resets_determinism(self):
        backend = FaultyBackend("relational", FaultPlan("raise", at=1))
        program = make_parity_program()
        engine = DynFOEngine(program, 4, backend=backend)
        with pytest.raises(UpdateError):
            engine.insert("M", 1)
        assert backend.evaluations == 1
        clone = backend.fresh()
        assert clone.evaluations == 0 and clone.plan == backend.plan
        # the fresh copy misbehaves identically on a fresh engine
        engine2 = DynFOEngine(program, 4, backend=clone)
        with pytest.raises(UpdateError):
            engine2.insert("M", 1)

    def test_minimize_script_finds_small_witness(self):
        # predicate: the subsequence contains both 3 and 7
        script = list(range(20))
        result = minimize_script(
            script, lambda s: 3 in s and 7 in s
        )
        assert sorted(result) == [3, 7]

    def test_minimize_script_non_failing_input_unchanged(self):
        script = [1, 2, 3]
        assert minimize_script(script, lambda s: False) == (1, 2, 3)
        assert minimize_script([], lambda s: True) == ()
