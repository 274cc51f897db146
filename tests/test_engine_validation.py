"""Request validation and the typed error taxonomy (ISSUE 1 satellites).

Regression anchor: ``DynFOEngine._dispatch`` used to build params with
``dict(zip(rule.params, request.tup))``, silently dropping components when
the request tuple arity didn't match the rule — ``Insert("E", 1)`` against
a binary rule would bind only ``a`` and quietly evaluate garbage.
"""

import pytest

from repro.dynfo import (
    Delete,
    DynFOEngine,
    EngineError,
    Insert,
    Operation,
    RequestValidationError,
    SetConst,
    UnsupportedRequest,
    UpdateError,
)
from repro.programs import make_parity_program, make_reach_u_program


@pytest.fixture()
def reach_engine():
    return DynFOEngine(make_reach_u_program(), 6)


class TestArityValidation:
    def test_insert_arity_mismatch_rejected(self, reach_engine):
        """The regression from the issue: a 1-tuple against the binary E
        rule must raise, not silently truncate the parameter binding."""
        before = reach_engine.aux_snapshot()
        with pytest.raises(RequestValidationError, match="carries 1 components"):
            reach_engine.apply(Insert("E", 1))
        assert reach_engine.aux_snapshot() == before
        assert reach_engine.requests_applied == 0

    def test_insert_too_many_components_rejected(self, reach_engine):
        with pytest.raises(RequestValidationError, match="expects 2"):
            reach_engine.apply(Insert("E", (0, 1, 2)))

    def test_delete_arity_mismatch_rejected(self, reach_engine):
        with pytest.raises(RequestValidationError):
            reach_engine.apply(Delete("E", 1))

    def test_valid_requests_still_work(self, reach_engine):
        reach_engine.insert("E", 0, 1)
        assert reach_engine.ask("reach", s=0, t=1)


class TestUniverseValidation:
    def test_out_of_range_element_rejected(self, reach_engine):
        with pytest.raises(RequestValidationError, match="outside the universe"):
            reach_engine.insert("E", 0, 6)

    def test_negative_element_rejected(self, reach_engine):
        with pytest.raises(RequestValidationError):
            reach_engine.insert("E", -1, 0)

    def test_non_int_element_rejected(self, reach_engine):
        with pytest.raises(RequestValidationError, match="must be an int"):
            reach_engine.apply(Insert("E", (0, True)))

    def test_set_const_value_range_checked(self):
        engine = DynFOEngine(make_parity_program(), 4)
        # parity has no set rule, so the unknown-rule error fires first;
        # build the range check via a supported request shape instead
        with pytest.raises(UnsupportedRequest):
            engine.apply(SetConst("c", 2))

    def test_operation_args_range_checked(self, reach_engine):
        # reach_u has no operations: unknown-rule error, still validation
        with pytest.raises(UnsupportedRequest):
            reach_engine.apply(Operation("zap", (99,), expansion=()))


@pytest.mark.parametrize("backend", ["relational", "dense", "naive"])
class TestQueryParameterValidation:
    """Query parameters are checked like update parameters, on every
    backend, before anything is evaluated."""

    @pytest.mark.parametrize(
        "params,fragment",
        [
            ({"s": 999, "t": 999}, "outside the universe"),
            ({"s": -1, "t": 0}, "outside the universe"),
            ({"s": True, "t": 0}, "must be an int"),
            ({"s": 1}, r"missing \['t'\]"),
            ({"s": 1, "t": 1, "bogus": 5}, r"unknown \['bogus'\]"),
        ],
        ids=["out-of-universe", "negative", "bool", "missing", "unknown"],
    )
    def test_bad_params_rejected(self, backend, params, fragment):
        engine = DynFOEngine(make_reach_u_program(), 8, backend=backend)
        with pytest.raises(RequestValidationError, match=fragment):
            engine.ask("reach", **params)

    def test_holds_in_frame_values_checked(self, backend):
        engine = DynFOEngine(make_reach_u_program(), 8, backend=backend)
        with pytest.raises(RequestValidationError, match="outside the universe"):
            engine.holds_in("connected", 0, 8)

    def test_valid_params_still_answer(self, backend):
        engine = DynFOEngine(make_reach_u_program(), 8, backend=backend)
        engine.insert("E", 2, 5)
        assert engine.ask("reach", s=5, t=2)
        assert not engine.ask("reach", s=5, t=3)
        assert engine.holds_in("connected", 2, 5)


class TestTaxonomy:
    def test_hierarchy(self):
        assert issubclass(UnsupportedRequest, RequestValidationError)
        assert issubclass(RequestValidationError, EngineError)
        assert issubclass(UpdateError, EngineError)
        assert issubclass(EngineError, ValueError)

    def test_one_clause_catches_everything(self, reach_engine):
        for bad in (Insert("E", 1), Insert("Z", (0, 1)), Insert("E", (0, 9))):
            with pytest.raises(EngineError):
                reach_engine.apply(bad)
        assert reach_engine.requests_applied == 0
