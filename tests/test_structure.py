"""Unit tests for finite structures (database instances)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.logic import Structure, StructureError, Vocabulary


@pytest.fixture
def voc():
    return Vocabulary.parse("E^2, U^1, s")


class TestBasics:
    def test_initial_is_empty(self, voc):
        structure = Structure.initial(voc, 5)
        assert structure.cardinality("E") == 0
        assert structure.constant("s") == 0

    def test_nonpositive_universe_rejected(self, voc):
        with pytest.raises(StructureError):
            Structure(voc, 0)

    def test_add_and_holds(self, voc):
        structure = Structure(voc, 4)
        structure.add("E", (1, 2))
        assert structure.holds("E", (1, 2))
        assert not structure.holds("E", (2, 1))

    def test_discard_is_idempotent(self, voc):
        structure = Structure(voc, 4)
        structure.add("E", (1, 2))
        structure.discard("E", (1, 2))
        structure.discard("E", (1, 2))
        assert structure.cardinality("E") == 0

    def test_out_of_universe_rejected(self, voc):
        structure = Structure(voc, 4)
        with pytest.raises(StructureError):
            structure.add("E", (1, 4))
        with pytest.raises(StructureError):
            structure.add("E", (-1, 0))

    def test_wrong_arity_rejected(self, voc):
        structure = Structure(voc, 4)
        with pytest.raises(StructureError):
            structure.add("E", (1,))

    def test_bool_elements_rejected(self, voc):
        structure = Structure(voc, 4)
        with pytest.raises(StructureError):
            structure.add("U", (True,))

    def test_unknown_relation(self, voc):
        structure = Structure(voc, 4)
        with pytest.raises(StructureError):
            structure.relation("X")
        with pytest.raises(StructureError):
            structure.constant("q")

    def test_set_relation_replaces(self, voc):
        structure = Structure(voc, 4)
        structure.add("E", (0, 1))
        structure.set_relation("E", {(2, 3), (3, 2)})
        assert structure.relation("E") == {(2, 3), (3, 2)}

    def test_set_constant(self, voc):
        structure = Structure(voc, 4)
        structure.set_constant("s", 3)
        assert structure.constant("s") == 3
        with pytest.raises(StructureError):
            structure.set_constant("s", 4)


class TestWholeStructure:
    def test_copy_is_independent(self, voc):
        structure = Structure(voc, 4)
        structure.add("E", (0, 1))
        clone = structure.copy()
        clone.add("E", (1, 2))
        assert structure.cardinality("E") == 1
        assert clone.cardinality("E") == 2

    def test_equality(self, voc):
        a = Structure(voc, 4, relations={"E": [(0, 1)]}, constants={"s": 2})
        b = Structure(voc, 4, relations={"E": [(0, 1)]}, constants={"s": 2})
        assert a == b
        b.add("U", (0,))
        assert a != b

    def test_structures_are_unhashable_but_freeze_hashes(self, voc):
        structure = Structure(voc, 4, relations={"E": [(0, 1)]})
        with pytest.raises(TypeError):
            hash(structure)
        frozen = structure.freeze()
        assert hash(frozen) == hash(structure.freeze())
        assert frozen.thaw() == structure

    def test_restrict(self, voc):
        structure = Structure(voc, 4, relations={"E": [(0, 1)], "U": [(2,)]})
        reduct = structure.restrict(Vocabulary.parse("E^2"))
        assert reduct.relation("E") == {(0, 1)}
        assert not reduct.vocabulary.has_relation("U")

    def test_expand(self, voc):
        structure = Structure(voc, 4, relations={"E": [(0, 1)]})
        bigger = structure.expand(
            voc.extend(relations=[("F", 2)]), relations={"F": [(1, 1)]}
        )
        assert bigger.relation("E") == {(0, 1)}
        assert bigger.relation("F") == {(1, 1)}

    def test_describe_mentions_everything(self, voc):
        structure = Structure(voc, 3, relations={"E": [(0, 1)]}, constants={"s": 2})
        text = structure.describe()
        assert "E = {(0, 1)}" in text
        assert "s = 2" in text
        assert "universe = {0..2}" in text

    def test_direct_edits_keep_a_built_tensor_current(self, voc):
        structure = Structure(voc, 4, relations={"E": [(0, 1)], "U": [(2,)]})
        tensors = {name: structure.tensor(name) for name in ("E", "U")}
        structure.add("E", (2, 3))
        structure.discard("E", (0, 1))
        structure.discard("U", (2,))
        structure.add("U", (3,))
        for name, tensor in tensors.items():
            assert structure.tensor(name) is tensor  # patched in place
            fresh = Structure(voc, 4, relations={name: structure.relation(name)})
            assert np.array_equal(tensor, fresh.tensor(name)), name
        structure.set_relation("E", [(1, 1)])
        assert "E" not in structure._tensors  # dropped, rebuilt on next use
        assert np.argwhere(structure.tensor("E")).tolist() == [[1, 1]]

    def test_repr_summarizes(self, voc):
        structure = Structure(voc, 3, relations={"E": [(0, 1)]})
        assert "E:1" in repr(structure)


# -- bulk commit: one set-speed step per relation, the sequential result ------

BULK_N = 3
BULK_VOC = Vocabulary.parse("E^2, U^1, Z^0, s")
BULK_ARITY = {"E": 2, "U": 1, "Z": 0}
# indexes built before the batch, on several column sets (the empty key too)
BULK_INDEXES = [("E", (0,)), ("E", (1,)), ("E", (1, 0)), ("U", (0,)), ("U", ()), ("Z", ())]


def _rows(name):
    element = st.integers(0, BULK_N - 1)
    return st.tuples(*[element] * BULK_ARITY[name])


_edit = st.sampled_from(sorted(BULK_ARITY)).flatmap(
    lambda name: st.tuples(st.sampled_from(["add", "discard"]), st.just(name), _rows(name))
)
_initial = st.fixed_dictionaries(
    {name: st.sets(_rows(name)) for name in BULK_ARITY}
)


@settings(max_examples=150, deadline=None)
@given(_initial, st.lists(_edit, max_size=20), st.none() | st.integers(0, BULK_N - 1))
def test_bulk_commit_equals_sequential_application(initial, edits, constant):
    """A batch commits each relation's Δ as one set operation; the result
    must be what applying the same edits one by one gives, with every index
    and every tensor built before the batch patched to equal a fresh build."""
    structure = Structure(BULK_VOC, BULK_N, relations=initial)
    for name, positions in BULK_INDEXES:
        structure.index_on(name, positions)
    for name in BULK_ARITY:  # the 0-ary Z included
        structure.tensor(name)
    sequential = structure.copy()
    replayed = structure.copy()
    batch = structure.begin_batch()
    for kind, name, tup in edits:
        getattr(sequential, kind)(name, tup)
        getattr(batch, kind)(name, tup)
    if constant is not None:
        sequential.set_constant("s", constant)
        batch.set_constant("s", constant)
    effects = batch.effects()
    batch.commit()

    assert structure == sequential
    for name, positions in BULK_INDEXES:
        fresh = Structure(BULK_VOC, BULK_N, relations={name: structure.relation(name)})
        assert structure.index_on(name, positions) == fresh.index_on(name, positions)
    for name in BULK_ARITY:
        fresh = Structure(BULK_VOC, BULK_N, relations={name: structure.relation(name)})
        assert np.array_equal(structure._tensors[name], fresh.tensor(name)), name
    replayed.apply_effects(effects)
    assert replayed == structure


class TestBatchUpdate:
    def test_last_edit_of_a_tuple_wins(self, voc):
        structure = Structure(voc, 4, relations={"E": [(0, 1)]})
        batch = structure.begin_batch()
        batch.add("E", (2, 3))
        batch.discard("E", (2, 3))
        batch.discard("E", (0, 1))
        batch.add("E", (0, 1))
        assert batch.deltas == {"E": ({(0, 1)}, {(2, 3)})}
        batch.commit()
        assert structure.relation("E") == {(0, 1)}

    def test_batch_never_aliases_the_rows_it_is_given(self, voc):
        structure = Structure(voc, 4)
        rows = {(0, 1), (1, 2)}
        batch = structure.begin_batch()
        batch.stage_edits_trusted("add", "E", rows)
        batch.commit()
        rows.add((3, 3))
        assert structure.relation("E") == {(0, 1), (1, 2)}
        assert batch.deltas["E"][0] is not structure.relation_view("E")

    def test_a_batch_commits_once(self, voc):
        batch = Structure(voc, 4).begin_batch()
        batch.commit()
        with pytest.raises(StructureError):
            batch.commit()
