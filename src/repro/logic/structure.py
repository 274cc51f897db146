"""Finite relational structures (relational database instances).

A structure ``A = <{0..n-1}, R1 .. Rr, c1 .. cs>`` interprets every relation
symbol of its vocabulary as a set of integer tuples over the universe
``{0, ..., n-1}`` and every constant symbol as a universe element
(paper, Sec. 2).  The numeric predicates ``<=``, ``<``, ``=``, ``BIT`` and the
numeric constants ``min``/``max`` are built into the logic and are *not*
stored here.

Structures are mutable (the whole point of the paper is updating them), but
every mutator validates its arguments, and :meth:`Structure.copy` /
:meth:`Structure.freeze` support snapshotting for verification.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable, Mapping

from .vocabulary import Vocabulary, VocabularyError

__all__ = ["Structure", "StructureError", "FrozenStructure", "BatchUpdate"]


class StructureError(ValueError):
    """Raised on out-of-universe elements or unknown symbols."""


# Version stamps are drawn from one process-wide counter so that a stamp is
# globally unique per relation *state*: equal stamps imply the underlying row
# set has not been mutated since.
_VERSION_COUNTER = itertools.count(1)


def _key_of(positions: tuple[int, ...]):
    """The function mapping a row to its hash-index key over ``positions``."""
    if len(positions) == 1:
        (position,) = positions
        return lambda tup: (tup[position],)
    return itemgetter(*positions) if positions else lambda tup: ()


class Structure:
    """A finite structure over a fixed vocabulary and universe size ``n``."""

    __slots__ = ("vocabulary", "n", "_relations", "_constants", "_indexes", "_versions")

    def __init__(
        self,
        vocabulary: Vocabulary,
        n: int,
        relations: Mapping[str, Iterable[tuple[int, ...]]] | None = None,
        constants: Mapping[str, int] | None = None,
    ) -> None:
        if n <= 0:
            raise StructureError(f"universe size must be positive, got {n}")
        self.vocabulary = vocabulary
        self.n = n
        self._relations: dict[str, set[tuple[int, ...]]] = {
            rel.name: set() for rel in vocabulary
        }
        # Constants default to 0, matching the paper's initial structure A_0^n.
        self._constants: dict[str, int] = {
            name: 0 for name in vocabulary.constant_names()
        }
        # Hash indexes: relation name -> column positions -> key -> row set.
        # Built lazily by index_on(), patched by every change _apply_delta
        # makes, dropped wholesale by set_relation.
        self._indexes: dict[
            str, dict[tuple[int, ...], dict[tuple[int, ...], set[tuple[int, ...]]]]
        ] = {}
        # Lazily-stamped per-relation version counters (see relation_version).
        self._versions: dict[str, int] = {}
        if relations:
            for name, tuples in relations.items():
                self._apply_delta(name, self._check_rows(name, tuples), set())
        if constants:
            for name, value in constants.items():
                self.set_constant(name, value)

    # -- element/tuple validation ---------------------------------------

    def _check_element(self, value: int) -> int:
        if not isinstance(value, int) or isinstance(value, bool):
            raise StructureError(f"universe elements are ints, got {value!r}")
        if not 0 <= value < self.n:
            raise StructureError(
                f"element {value} outside universe {{0..{self.n - 1}}}"
            )
        return value

    def _check_tuple(
        self, name: str, tup: tuple[int, ...], arity: int | None = None
    ) -> tuple[int, ...]:
        """``tup`` checked against ``name``'s arity (or ``arity``, for a
        relation outside the vocabulary) and the universe."""
        if arity is None:
            arity = self.vocabulary.arity(name)
        tup = tuple(tup)
        if len(tup) != arity:
            raise StructureError(
                f"relation {name!r} has arity {arity}, got tuple {tup!r}"
            )
        for value in tup:
            self._check_element(value)
        return tup

    def _check_rows(self, name: str, tuples: Iterable) -> set[tuple[int, ...]]:
        self.relation_view(name)  # raises on unknown name, even with no rows
        return {self._check_tuple(name, tup) for tup in tuples}

    # -- relation access --------------------------------------------------

    def relation(self, name: str) -> frozenset[tuple[int, ...]]:
        """The current interpretation of relation ``name`` (a copy)."""
        try:
            return frozenset(self._relations[name])
        except KeyError:
            raise StructureError(f"unknown relation {name!r}") from None

    def relation_view(self, name: str) -> set[tuple[int, ...]]:
        """Internal mutable set for ``name`` — callers must not mutate it."""
        try:
            return self._relations[name]
        except KeyError:
            raise StructureError(f"unknown relation {name!r}") from None

    def holds(self, name: str, tup: tuple[int, ...]) -> bool:
        return tuple(tup) in self.relation_view(name)

    def add(self, name: str, tup: tuple[int, ...]) -> None:
        self._apply_delta(name, {self._check_tuple(name, tup)}, set())

    def discard(self, name: str, tup: tuple[int, ...]) -> None:
        self._apply_delta(name, set(), {self._check_tuple(name, tup)})

    def set_relation(self, name: str, tuples: Iterable[tuple[int, ...]]) -> None:
        """Replace the whole interpretation of ``name``."""
        self._relations[name] = self._check_rows(name, tuples)
        self._indexes.pop(name, None)
        self._versions[name] = next(_VERSION_COUNTER)

    def _apply_delta(self, name: str, added: set, removed: set) -> None:
        """Apply one relation's change (disjoint, validated sets) at set
        speed: keep its effective part, patch every index on the relation,
        and bump the version once if the rows changed."""
        rows = self._relations[name]
        added = added - rows
        removed = removed & rows
        if not added and not removed:
            return
        rows -= removed
        rows |= added
        for positions, buckets in self._indexes.get(name, {}).items():
            key_of = _key_of(positions)
            for tup in removed:
                key = key_of(tup)
                bucket = buckets[key]
                bucket.discard(tup)
                if not bucket:
                    del buckets[key]
            for tup in added:
                buckets.setdefault(key_of(tup), set()).add(tup)
        self._versions[name] = next(_VERSION_COUNTER)

    # -- hash indexes and version stamps ------------------------------------

    def relation_version(self, name: str) -> int:
        """Monotone stamp bumped once per change that alters ``name``'s rows.

        Equal stamps guarantee the relation's row set is unchanged.  Used
        by evaluator-side caches (e.g. the dense backend's array cache) to
        validate reuse.
        """
        version = self._versions.get(name)
        if version is None:
            self.relation_view(name)  # raises on unknown name
            version = self._versions[name] = next(_VERSION_COUNTER)
        return version

    def index_on(
        self, name: str, positions: tuple[int, ...]
    ) -> dict[tuple[int, ...], set[tuple[int, ...]]]:
        """Hash index over ``name`` keyed by the given column positions.

        Built lazily on first probe (one pass over the relation), then
        patched by every change applied to it (add, discard, a committed
        batch's Δ); :meth:`set_relation` invalidates every index on it.
        Callers must treat the returned buckets as read-only.
        """
        positions = tuple(positions)
        rows = self.relation_view(name)
        per_relation = self._indexes.setdefault(name, {})
        index = per_relation.get(positions)
        if index is None:
            index = {}
            key_of = _key_of(positions)
            for tup in rows:
                index.setdefault(key_of(tup), set()).add(tup)
            per_relation[positions] = index
        return index

    def cardinality(self, name: str) -> int:
        return len(self.relation_view(name))

    # -- constant access --------------------------------------------------

    def constant(self, name: str) -> int:
        try:
            return self._constants[name]
        except KeyError:
            raise StructureError(f"unknown constant {name!r}") from None

    def set_constant(self, name: str, value: int) -> None:
        if name not in self._constants:
            raise StructureError(f"unknown constant {name!r}")
        self._constants[name] = self._check_element(value)

    def constants(self) -> dict[str, int]:
        return dict(self._constants)

    # -- whole-structure operations ----------------------------------------

    @property
    def universe(self) -> range:
        return range(self.n)

    def copy(self) -> "Structure":
        clone = Structure(self.vocabulary, self.n)
        clone._relations = {name: set(rows) for name, rows in self._relations.items()}
        clone._constants = dict(self._constants)
        return clone

    def freeze(self) -> "FrozenStructure":
        return FrozenStructure(
            vocabulary=self.vocabulary,
            n=self.n,
            relations=tuple(
                (name, frozenset(rows)) for name, rows in sorted(self._relations.items())
            ),
            constants=tuple(sorted(self._constants.items())),
        )

    def restrict(self, vocabulary: Vocabulary) -> "Structure":
        """Project onto a sub-vocabulary (a reduct, in logic terms)."""
        out = Structure(vocabulary, self.n)
        for rel in vocabulary:
            if not self.vocabulary.has_relation(rel.name):
                raise VocabularyError(f"{rel.name!r} not present in structure")
            out.set_relation(rel.name, self._relations[rel.name])
        for name in vocabulary.constant_names():
            out.set_constant(name, self.constant(name))
        return out

    def expand(
        self,
        vocabulary: Vocabulary,
        relations: Mapping[str, Iterable[tuple[int, ...]]] | None = None,
        constants: Mapping[str, int] | None = None,
    ) -> "Structure":
        """Expand to a larger vocabulary; new symbols start empty/0 unless
        given.  The expansion is an independent copy: editing it never
        touches this structure.  The naive reference evaluator uses it to
        hold a rule's temporaries."""
        out = Structure(vocabulary, self.n)
        for rel in self.vocabulary:
            out.set_relation(rel.name, self._relations[rel.name])
        for name in self.vocabulary.constant_names():
            out.set_constant(name, self.constant(name))
        if relations:
            for name, tuples in relations.items():
                out.set_relation(name, tuples)
        if constants:
            for name, value in constants.items():
                out.set_constant(name, value)
        return out

    def apply_effects(self, fx: Mapping) -> None:
        """Replay a :meth:`BatchUpdate.effects` record atomically (see
        :meth:`BatchUpdate.stage_effects`)."""
        batch = self.begin_batch()
        batch.stage_effects(fx)
        batch.commit()

    def begin_batch(self) -> "BatchUpdate":
        """Start a staged, all-or-nothing batch of edits (see
        :class:`BatchUpdate`).  Every staging call validates eagerly, so by
        the time :meth:`BatchUpdate.commit` runs nothing can fail and the
        structure is either fully updated or — on any staging error —
        provably untouched."""
        return BatchUpdate(self)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Structure):
            return NotImplemented
        return (
            self.vocabulary == other.vocabulary
            and self.n == other.n
            and self._relations == other._relations
            and self._constants == other._constants
        )

    def __hash__(self) -> int:  # pragma: no cover - mutable, but freeze() hashes
        raise TypeError("Structure is mutable; hash its .freeze() instead")

    def __repr__(self) -> str:
        rels = ", ".join(
            f"{name}:{len(rows)}" for name, rows in sorted(self._relations.items())
        )
        return f"Structure(n={self.n}, {rels})"

    def describe(self) -> str:
        """Multi-line human-readable dump (small structures only)."""
        lines = [f"universe = {{0..{self.n - 1}}}"]
        for name in sorted(self._relations):
            rows = sorted(self._relations[name])
            lines.append(f"{name} = {{{', '.join(map(str, rows))}}}")
        for name, value in sorted(self._constants.items()):
            lines.append(f"{name} = {value}")
        return "\n".join(lines)

    # -- the paper's canonical initial structure ---------------------------

    @staticmethod
    def initial(vocabulary: Vocabulary, n: int) -> "Structure":
        """The initial structure ``A_0^n``: all relations empty, constants 0.

        The paper additionally designates a unary active-domain relation whose
        initial value is {0}; programs that use one set it up themselves.
        """
        return Structure(vocabulary, n)


class BatchUpdate:
    """Staged changes to one :class:`Structure`, committed atomically.

    Each relation's change is a pair of sets, ``deltas[name] = (added,
    removed)``, owned by the batch (it never aliases a live relation's
    rows).  Staging a tuple on one side removes it from the other, so the
    last edit of a tuple wins, as in sequential application.  Staging
    validates against the target's vocabulary and universe; ``commit``
    performs no validation and no allocation that can fail, so an exception
    during staging leaves the structure byte-identical to before.
    """

    __slots__ = ("_structure", "deltas", "_constants", "_committed")

    def __init__(self, structure: Structure) -> None:
        self._structure = structure
        self.deltas: dict[str, tuple[set[tuple[int, ...]], set[tuple[int, ...]]]] = {}
        self._constants: dict[str, int] = {}
        self._committed = False

    def add(self, name: str, tup: tuple[int, ...]) -> None:
        """Stage a single-tuple insertion."""
        self._stage(name, {self._structure._check_tuple(name, tup)}, True)

    def discard(self, name: str, tup: tuple[int, ...]) -> None:
        """Stage a single-tuple removal."""
        self._stage(name, {self._structure._check_tuple(name, tup)}, False)

    def stage_edits_trusted(
        self, kind: str, name: str, tuples: Iterable[tuple[int, ...]]
    ) -> None:
        """Stage pre-validated insertions (``kind="add"``) or removals
        (``"discard"``) of ``tuples`` without per-tuple checks.

        Internal fast path for delta staging: the engine's definition deltas
        are evaluator outputs, whose rows are guaranteed to be in-arity and
        in-universe already (they come from relation rows, the universe
        range, or bounds-checked constant binds)."""
        if kind not in ("add", "discard"):
            raise StructureError(f"unknown edit kind {kind!r}")
        self._stage(name, tuples, kind == "add")

    def _stage(self, name: str, tuples: Iterable[tuple[int, ...]], add: bool) -> None:
        delta = self.deltas.get(name)
        if delta is None:
            self._structure.relation_view(name)  # raises on unknown name
            delta = self.deltas[name] = (set(), set())
        staged, other = delta if add else delta[::-1]
        if not isinstance(tuples, (set, frozenset)):
            tuples = set(tuples)
        if other:
            other -= tuples
        staged |= tuples

    def stage_effects(self, fx: Mapping) -> None:
        """Stage a :meth:`effects` record, re-validating every tuple.  An
        older journal's whole-relation ``"set"`` record is staged as its
        difference from the current rows, before the record's edits."""
        current = self._structure
        for name, rows in fx.get("set", {}).items():
            target = current._check_rows(name, rows)
            self._stage(name, target - current.relation_view(name), True)
            self._stage(name, current.relation_view(name) - target, False)
        for kind, name, tup in fx.get("edits", ()):
            self.stage_edits_trusted(kind, name, {current._check_tuple(name, tup)})
        for name, value in fx.get("const", {}).items():
            self.set_constant(name, value)

    def set_constant(self, name: str, value: int) -> None:
        """Stage a constant write."""
        structure = self._structure
        if name not in structure._constants:
            raise StructureError(f"unknown constant {name!r}")
        self._constants[name] = structure._check_element(value)

    def commit(self) -> None:
        """Apply each relation's Δ in one step, then the constants.
        Infallible by construction; a batch commits at most once."""
        if self._committed:
            raise StructureError("batch already committed")
        self._committed = True
        structure = self._structure
        for name, (added, removed) in self.deltas.items():
            structure._apply_delta(name, added, removed)
        for name, value in self._constants.items():
            structure._constants[name] = value

    def effects(self) -> dict:
        """JSON-serializable description of exactly what :meth:`commit` will
        do: each staged relation's sorted additions, then its sorted
        removals, under ``"edits"`` and constant writes under ``"const"``;
        empty sections are omitted.  The only place a change is sorted, so
        journals stay byte-stable.  Replayable via
        :meth:`Structure.apply_effects`.
        """
        fx: dict = {}
        edits = []
        for name, (added, removed) in self.deltas.items():
            edits.extend(["add", name, list(tup)] for tup in sorted(added))
            edits.extend(["discard", name, list(tup)] for tup in sorted(removed))
        if edits:
            fx["edits"] = edits
        if self._constants:
            fx["const"] = dict(self._constants)
        return fx


@dataclass(frozen=True)
class FrozenStructure:
    """An immutable, hashable snapshot of a :class:`Structure`."""

    vocabulary: Vocabulary
    n: int
    relations: tuple[tuple[str, frozenset[tuple[int, ...]]], ...]
    constants: tuple[tuple[str, int], ...]

    def thaw(self) -> Structure:
        return Structure(
            self.vocabulary,
            self.n,
            relations={name: rows for name, rows in self.relations},
            constants=dict(self.constants),
        )
