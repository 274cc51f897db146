"""Persistence snapshots and the EXPLAIN plan facility."""

import pytest

from repro.dynfo import DynFOEngine
from repro.dynfo.persistence import (
    PersistenceError,
    load_engine,
    save_engine,
    structure_from_dict,
    structure_to_dict,
)
from repro.logic import Structure, Vocabulary
from repro.logic.dsl import Rel, exists
from repro.logic.explain import explain, plan_events
from repro.programs import make_parity_program, make_reach_u_program
from repro.workloads import undirected_script


class TestStructureRoundTrip:
    def test_roundtrip(self):
        voc = Vocabulary.parse("E^2, U^1, s")
        structure = Structure(
            voc, 5, relations={"E": [(0, 1), (2, 3)], "U": [(4,)]}, constants={"s": 3}
        )
        assert structure_from_dict(structure_to_dict(structure)) == structure

    def test_malformed_rejected(self):
        with pytest.raises(PersistenceError):
            structure_from_dict({"n": 3})


class TestEngineSnapshots:
    def test_save_load_continues_run(self, tmp_path):
        program = make_reach_u_program()
        script = undirected_script(6, 40, seed=21)
        engine = DynFOEngine(program, 6)
        for request in script[:25]:
            engine.apply(request)
        path = tmp_path / "reach_u.json"
        save_engine(engine, path)

        restored = load_engine(make_reach_u_program(), path)
        assert restored.aux_snapshot() == engine.aux_snapshot()
        assert restored.requests_applied == engine.requests_applied
        # continuing both runs stays in lock-step
        for request in script[25:]:
            engine.apply(request)
            restored.apply(request)
        assert restored.aux_snapshot() == engine.aux_snapshot()

    def test_wrong_program_rejected(self, tmp_path):
        engine = DynFOEngine(make_parity_program(), 6)
        path = tmp_path / "parity.json"
        save_engine(engine, path)
        with pytest.raises(PersistenceError):
            load_engine(make_reach_u_program(), path)

    def test_not_json_rejected(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("definitely not json {")
        with pytest.raises(PersistenceError):
            load_engine(make_parity_program(), path)

    def test_unknown_format_rejected(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text('{"format": "somebody-else/9"}')
        with pytest.raises(PersistenceError):
            load_engine(make_parity_program(), path)


class TestExplain:
    @pytest.fixture
    def structure(self):
        voc = Vocabulary.parse("E^2")
        return Structure(
            voc, 5, relations={"E": [(0, 1), (1, 2), (2, 3)]}
        )

    def test_events_and_result(self, structure):
        E = Rel("E")
        formula = exists("z", E("x", "z") & E("z", "y"))
        events, rows = plan_events(formula, structure, ("x", "y"))
        assert rows == {(0, 2), (1, 3)}
        kinds = [event for (_, event, _, _) in events]
        assert any(k.startswith("join") for k in kinds)
        assert any("Exists" in k for k in kinds)

    def test_render(self, structure):
        E = Rel("E")
        text = explain(exists("z", E("x", "z") & E("z", "y")), structure, ("x", "y"))
        assert text.startswith("plan for frame ('x', 'y')")
        assert "peak intermediate size" in text
        assert "-> 2 rows" in text

    def test_explain_real_update_formula(self, structure):
        """The PV' insert formula of Theorem 4.1 produces a bounded plan."""
        program = make_reach_u_program()
        rule = program.on_insert["E"]
        pv_def = next(d for d in rule.definitions if d.name == "PV")
        aux = Structure(program.aux_vocabulary, 5)
        aux.add("E", (0, 1))
        aux.add("E", (1, 0))
        aux.add("F", (0, 1))
        aux.add("F", (1, 0))
        text = explain(
            pv_def.formula, aux, pv_def.frame, params={"a": 1, "b": 2}
        )
        assert "peak intermediate size" in text
