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
from typing import Iterable, Mapping

from .vocabulary import Vocabulary, VocabularyError

__all__ = ["Structure", "StructureError", "FrozenStructure", "BatchUpdate"]


class StructureError(ValueError):
    """Raised on out-of-universe elements or unknown symbols."""


# Version stamps are drawn from one process-wide counter so that a stamp is
# globally unique per relation *state*: equal stamps imply the underlying row
# set has not been mutated since, even across borrowed expansions that share
# row sets with their base structure (see :meth:`Structure.expand`).
_VERSION_COUNTER = itertools.count(1)


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
        # Built lazily by index_on(), maintained incrementally by add/discard
        # (and batch edits), dropped wholesale by set_relation.
        self._indexes: dict[
            str, dict[tuple[int, ...], dict[tuple[int, ...], set[tuple[int, ...]]]]
        ] = {}
        # Lazily-stamped per-relation version counters (see relation_version).
        self._versions: dict[str, int] = {}
        if relations:
            for name, tuples in relations.items():
                for tup in tuples:
                    self.add(name, tup)
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

    def _check_tuple(self, name: str, tup: tuple[int, ...]) -> tuple[int, ...]:
        arity = self.vocabulary.arity(name)
        tup = tuple(tup)
        if len(tup) != arity:
            raise StructureError(
                f"relation {name!r} has arity {arity}, got tuple {tup!r}"
            )
        for value in tup:
            self._check_element(value)
        return tup

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
        self._apply_add(name, self._check_tuple(name, tup))

    def discard(self, name: str, tup: tuple[int, ...]) -> None:
        self._apply_discard(name, self._check_tuple(name, tup))

    def set_relation(self, name: str, tuples: Iterable[tuple[int, ...]]) -> None:
        """Replace the whole interpretation of ``name``."""
        checked = {self._check_tuple(name, tuple(tup)) for tup in tuples}
        self.relation_view(name)  # raises on unknown name
        self._relations[name] = checked
        self._indexes.pop(name, None)
        self._versions[name] = next(_VERSION_COUNTER)

    # -- incremental mutation internals (validation already done) -----------

    def _apply_add(self, name: str, tup: tuple[int, ...]) -> None:
        rows = self._relations[name]
        if tup in rows:
            return
        rows.add(tup)
        for positions, buckets in self._indexes.get(name, {}).items():
            buckets.setdefault(tuple(tup[p] for p in positions), set()).add(tup)
        self._versions[name] = next(_VERSION_COUNTER)

    def _apply_discard(self, name: str, tup: tuple[int, ...]) -> None:
        rows = self._relations[name]
        if tup not in rows:
            return
        rows.discard(tup)
        for positions, buckets in self._indexes.get(name, {}).items():
            key = tuple(tup[p] for p in positions)
            bucket = buckets.get(key)
            if bucket is not None:
                bucket.discard(tup)
                if not bucket:
                    del buckets[key]
        self._versions[name] = next(_VERSION_COUNTER)

    # -- hash indexes and version stamps ------------------------------------

    def relation_version(self, name: str) -> int:
        """Monotone stamp bumped on every effective mutation of ``name``.

        Equal stamps guarantee the relation's row set is unchanged, even
        across :meth:`expand` with ``borrow=True`` (stamps are shared along
        with the row sets there).  Used by evaluator-side caches (e.g. the
        dense backend's array cache) to validate reuse.
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

        Built lazily on first probe (one pass over the relation), then kept
        consistent incrementally by :meth:`add`/:meth:`discard` and by batch
        edits; :meth:`set_relation` invalidates every index on the relation.
        Callers must treat the returned buckets as read-only.
        """
        positions = tuple(positions)
        rows = self.relation_view(name)
        per_relation = self._indexes.setdefault(name, {})
        index = per_relation.get(positions)
        if index is None:
            index = {}
            for tup in rows:
                key = tuple(tup[p] for p in positions)
                index.setdefault(key, set()).add(tup)
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
        *,
        borrow: bool = False,
    ) -> "Structure":
        """Expand to a larger vocabulary; new symbols start empty/0 unless given.

        With ``borrow=True`` the expansion *shares* the base structure's row
        sets, hash indexes, and version stamps instead of copying them (an
        O(1) view per inherited relation rather than O(|rows|)).  A borrowed
        expansion is a read-only view of the inherited relations: replacing a
        symbol wholesale via :meth:`set_relation` is safe (it rebinds, never
        mutates, the shared set), but :meth:`add`/:meth:`discard` on an
        inherited symbol would silently mutate the base and must not be used.
        The engine uses this for its per-request scratch structures.
        """
        out = Structure(vocabulary, self.n)
        if borrow:
            for rel in self.vocabulary:
                out._relations[rel.name] = self._relations[rel.name]
            out._indexes = self._indexes
            out._versions = self._versions
            for name in self.vocabulary.constant_names():
                out._constants[name] = self._constants[name]
        else:
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
        """Replay a :meth:`BatchUpdate.effects` record: stage every recorded
        edit (re-validating against this structure) and commit atomically."""
        batch = self.begin_batch()
        for name, rows in fx.get("set", {}).items():
            batch.set_relation(name, (tuple(tup) for tup in rows))
        for kind, name, tup in fx.get("edits", ()):
            if kind == "add":
                batch.add(name, tuple(tup))
            elif kind == "discard":
                batch.discard(name, tuple(tup))
            else:
                raise StructureError(f"unknown effect edit kind {kind!r}")
        for name, value in fx.get("const", {}).items():
            batch.set_constant(name, value)
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
    """Staged edits to one :class:`Structure`, committed atomically.

    Staging methods mirror the structure's mutators but only record the edit
    after validating it against the *target* structure's vocabulary and
    universe; the target is not touched until :meth:`commit`.  ``commit``
    performs no validation and no allocation that can fail, so an exception
    anywhere during staging leaves the structure byte-identical to before.

    Edits are applied in commit order: whole-relation replacements first,
    then single-tuple add/discard edits (in staging order), then constants —
    matching the engine's primed-swap-then-mirror update discipline.
    """

    __slots__ = ("_structure", "_relations", "_edits", "_constants", "_committed")

    def __init__(self, structure: Structure) -> None:
        self._structure = structure
        self._relations: dict[str, set[tuple[int, ...]]] = {}
        self._edits: list[tuple[str, str, tuple[int, ...]]] = []
        self._constants: dict[str, int] = {}
        self._committed = False

    def set_relation(self, name: str, tuples: Iterable[tuple[int, ...]]) -> None:
        """Stage a whole-relation replacement."""
        structure = self._structure
        structure.relation_view(name)  # raises on unknown name
        self._relations[name] = {
            structure._check_tuple(name, tuple(tup)) for tup in tuples
        }

    def add(self, name: str, tup: tuple[int, ...]) -> None:
        """Stage a single-tuple insertion."""
        self._edits.append(("add", name, self._structure._check_tuple(name, tup)))

    def discard(self, name: str, tup: tuple[int, ...]) -> None:
        """Stage a single-tuple removal."""
        self._edits.append(("discard", name, self._structure._check_tuple(name, tup)))

    def stage_edits_trusted(
        self, kind: str, name: str, tuples: Iterable[tuple[int, ...]]
    ) -> None:
        """Stage pre-validated edits without per-tuple checks.

        Internal fast path for delta staging: the engine's definition deltas
        are evaluator outputs, whose rows are guaranteed to be in-arity and
        in-universe already (they come from relation rows, the universe
        range, or bounds-checked constant binds)."""
        if kind not in ("add", "discard"):
            raise StructureError(f"unknown edit kind {kind!r}")
        edits = self._edits
        for tup in tuples:
            edits.append((kind, name, tup))

    def set_constant(self, name: str, value: int) -> None:
        """Stage a constant write."""
        structure = self._structure
        if name not in structure._constants:
            raise StructureError(f"unknown constant {name!r}")
        self._constants[name] = structure._check_element(value)

    def commit(self) -> None:
        """Apply every staged edit.  Infallible by construction; a batch
        commits at most once.  Whole-relation replacements drop that
        relation's hash indexes; single-tuple edits maintain them in place."""
        if self._committed:
            raise StructureError("batch already committed")
        self._committed = True
        structure = self._structure
        for name, rows in self._relations.items():
            structure._relations[name] = rows
            structure._indexes.pop(name, None)
            structure._versions[name] = next(_VERSION_COUNTER)
        for kind, name, tup in self._edits:
            if kind == "add":
                structure._apply_add(name, tup)
            else:
                structure._apply_discard(name, tup)
        for name, value in self._constants.items():
            structure._constants[name] = value

    @property
    def staged_edits(self) -> list[tuple[str, str, tuple[int, ...]]]:
        """The single-tuple edits staged so far, in staging order
        (``(kind, relation, tuple)`` with kind ``"add"``/``"discard"``)."""
        return self._edits

    def effects(self) -> dict:
        """JSON-serializable description of exactly what :meth:`commit` will
        do, in commit order: whole-relation replacements under ``"set"``,
        single-tuple edits (staging order) under ``"edits"``, constant writes
        under ``"const"``.  Empty sections are omitted, so a batch of
        single-tuple edits serializes to just the tuples it changes.
        Replayable via :meth:`Structure.apply_effects`.
        """
        fx: dict = {}
        if self._relations:
            fx["set"] = {
                name: sorted(list(tup) for tup in rows)
                for name, rows in self._relations.items()
            }
        if self._edits:
            fx["edits"] = [[kind, name, list(tup)] for kind, name, tup in self._edits]
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
