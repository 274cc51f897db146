"""Dyn-FO programs: the (f, g) pair of Definition 3.1 in executable form.

A :class:`DynFOProgram` packages

* the input vocabulary ``sigma`` (what users insert into / delete from),
* the auxiliary vocabulary ``tau`` (the data structure ``f(r-bar)``),
* the FO-definable initial auxiliary structure ``f(empty)``,
* one :class:`UpdateRule` per request kind — a set of first-order formulas
  that *simultaneously* redefine auxiliary relations from their pre-update
  values (the primed relations of Section 4), and
* named first-order :class:`Query` objects answered from the auxiliary
  structure alone.

The update formulas may mention the request's components as symbolic
constants (the paper's ``a``, ``b``); the engine binds them per request.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence

from ..logic.evaluation import FormulaItem
from ..logic.plan import Plan, compile_formulas
from ..logic.structure import Structure
from ..logic.syntax import Const, Formula
from ..logic.transform import (
    connective_depth,
    constants_of,
    deltas,
    free_vars,
    quantifier_rank,
    substitute,
)
from ..logic.vocabulary import Vocabulary

__all__ = [
    "RelationDef",
    "UpdateRule",
    "Query",
    "DynFOProgram",
    "CompiledProgram",
    "CompiledRule",
    "ProgramError",
    "inline_temporaries",
    "member_param",
]


class ProgramError(ValueError):
    """Raised on malformed Dyn-FO programs."""


# Guards the per-program (backend, n) -> CompiledProgram map; plan compilation
# itself is serialized by each CompiledProgram's own lock.
_COMPILE_CACHE_LOCK = threading.Lock()


@dataclass(frozen=True)
class RelationDef:
    """``R'(frame) <-> formula`` — one primed auxiliary relation."""

    name: str
    frame: tuple[str, ...]
    formula: Formula

    def __post_init__(self) -> None:
        if len(set(self.frame)) != len(self.frame):
            raise ProgramError(f"repeated variable in frame {self.frame}")


@dataclass(frozen=True)
class UpdateRule:
    """The simultaneous FO update for one request kind.

    ``params`` names the request components (e.g. ``("a", "b")`` for an edge
    insert); they appear in the formulas as symbolic constants.  Auxiliary
    relations without a :class:`RelationDef` are left unchanged, except that
    the engine mirrors the request itself into a same-named auxiliary input
    relation when present (the trivial ``E' = E u {(a,b)}`` maintenance that
    the paper writes out explicitly).

    ``temporaries`` are the paper's scratch relations ("We define a
    temporary relation T ..."): they are evaluated *in order* against the
    pre-update structure, each may reference the previous ones, and the
    primed definitions may reference them all.  Semantically they are mere
    abbreviations — :func:`inline_temporaries` substitutes them away,
    yielding the equivalent pure first-order rule — but evaluating them once
    per update instead of once per candidate tuple is an enormous speedup.
    """

    params: tuple[str, ...]
    definitions: tuple[RelationDef, ...]
    temporaries: tuple[RelationDef, ...] = ()

    def defined_names(self) -> frozenset[str]:
        return frozenset(d.name for d in self.definitions)

    def temporary_names(self) -> frozenset[str]:
        return frozenset(d.name for d in self.temporaries)


def inline_temporaries(rule: UpdateRule) -> UpdateRule:
    """Substitute every temporary away, producing a temporaries-free rule
    defining the same update (used when composing rules symbolically)."""
    from ..logic.transform import substitute_relations

    expanded: dict[str, tuple[tuple[str, ...], "Formula"]] = {}
    for temp in rule.temporaries:
        formula = substitute_relations(temp.formula, expanded)
        expanded[temp.name] = (temp.frame, formula)
    definitions = tuple(
        RelationDef(
            d.name, d.frame, substitute_relations(d.formula, expanded)
        )
        for d in rule.definitions
    )
    return UpdateRule(params=rule.params, definitions=definitions)


def member_param(var: str) -> str:
    """The parameter standing for frame variable ``var`` in a query's
    membership plan (``@`` keeps it apart from every program constant)."""
    return "@" + var


@dataclass(frozen=True)
class CompiledRule:
    """The compiled items of one :class:`UpdateRule`, in evaluation order:
    the temporaries, then one ``(name, Δ⁺, Δ⁻)`` per simultaneous
    definition — the tuples the update adds to and removes from ``name``,
    never the whole new relation.  On the plan backends the items are
    physical plans of :func:`repro.logic.transform.deltas`; on the naive
    reference they are :class:`~repro.logic.evaluation.FormulaItem` objects
    that evaluate the definition's formula whole and diff it."""

    temporaries: tuple[tuple[str, Plan | FormulaItem], ...]
    definitions: tuple[tuple[str, Plan | FormulaItem, Plan | FormulaItem], ...]


class CompiledProgram:
    """Per-(backend, n) plan cache of a :class:`DynFOProgram`.

    A Dyn-FO program's update formulas are *fixed* — only the data changes —
    so each rule is compiled exactly once and every subsequent request
    replays the cached items.  Items for update rules and queries are
    compiled lazily on first use; :meth:`stats` proves the compile-once
    property: across any request script, ``misses`` equals the number of
    distinct rules and queries exercised, while every further lookup is a
    ``hit``.

    Obtained via :meth:`DynFOProgram.compile`, which caches one instance per
    ``(backend, n)``, so the cache key for a plan is effectively
    ``(rule, backend, n)``.  Engines sharing a program instance share its
    compiled plans (and stats).

    Thread-safe: the serving layer fans read queries out across a thread
    pool, so cache lookups — and the hit/miss counters they bump — can race.
    A single lock guards both maps and all counters; :meth:`stats` returns
    an atomic snapshot.
    """

    def __init__(self, program: "DynFOProgram", backend: str, n: int) -> None:
        self.program = program
        self.backend = backend
        self.n = n
        # And-over-Or distribution helps set-based join chains but multiplies
        # tensor work per arm; the dense executor compiles without it
        self._distribute = backend != "dense"
        # id-keyed with the rule pinned so the id stays valid
        self._rules: dict[int, tuple[UpdateRule, CompiledRule]] = {}
        # (query name, membership?) -> compiled item
        self._queries: dict[tuple[str, bool], Plan | FormulaItem] = {}
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.compile_ns = 0

    def _lookup(self, cache: dict, key, compile_item):
        """``cache[key]``, compiling it with ``compile_item()`` on a miss."""
        with self._lock:
            entry = cache.get(key)
            if entry is not None:
                self.hits += 1
                return entry
            self.misses += 1
            started = time.perf_counter_ns()
            entry = cache[key] = compile_item()
            self.compile_ns += time.perf_counter_ns() - started
            return entry

    def rule_plans(self, rule: UpdateRule) -> CompiledRule:
        """The compiled items for ``rule`` — its temporaries and each
        definition's Δ⁺/Δ⁻ — compiling on first request."""
        return self._lookup(self._rules, id(rule), lambda: (rule, self._rule(rule)))[1]

    def _rule(self, rule: UpdateRule) -> CompiledRule:
        if self.backend == "naive":
            # the reference stays independent of transform.deltas: it
            # evaluates each φ whole and diffs it against the relation
            return CompiledRule(
                temporaries=tuple(
                    (d.name, FormulaItem(d.formula, d.frame)) for d in rule.temporaries
                ),
                definitions=tuple(
                    (
                        d.name,
                        FormulaItem(d.formula, d.frame, d.name, "+"),
                        FormulaItem(d.formula, d.frame, d.name, "-"),
                    )
                    for d in rule.definitions
                ),
            )
        # one compiler for the whole rule: a subformula Δ⁺ and Δ⁻ (or two
        # definitions) share becomes one plan node, run once
        items = [(d.formula, d.frame) for d in rule.temporaries]
        for d in rule.definitions:
            items += [(delta, d.frame) for delta in deltas(d.name, d.frame, d.formula)]
        plans = iter(compile_formulas(items, distribute=self._distribute))
        return CompiledRule(
            temporaries=tuple((d.name, next(plans)) for d in rule.temporaries),
            definitions=tuple(
                (d.name, next(plans), next(plans)) for d in rule.definitions
            ),
        )

    def specialized_rule_plans(
        self, rule: UpdateRule, params: Mapping[str, int]
    ) -> CompiledRule:
        """Alias of :meth:`rule_plans`, kept only because ``perfbench``'s
        span installer looks this name up; nothing here calls it.  Goes away
        with ROADMAP item 3."""
        return self.rule_plans(rule)

    def _formula(self, formula: Formula, frame: tuple[str, ...]) -> Plan | FormulaItem:
        if self.backend == "naive":
            return FormulaItem(formula, frame)
        return compile_formulas([(formula, frame)], distribute=self._distribute)[0]

    def query_plan(self, query: "Query") -> Plan | FormulaItem:
        """The compiled item for a named query, compiling on first request."""
        return self._lookup(
            self._queries,
            (query.name, False),
            lambda: self._formula(query.formula, query.frame),
        )

    def membership_plan(self, query: "Query") -> Plan | FormulaItem:
        """The compiled sentence testing one tuple of ``query``'s result:
        each frame variable ``x`` becomes the parameter ``member_param(x)``,
        bound at execute time, so every membership test shares one plan."""
        mapping = {var: Const(member_param(var)) for var in query.frame}
        return self._lookup(
            self._queries,
            (query.name, True),
            lambda: self._formula(substitute(query.formula, mapping), ()),
        )

    def stats(self) -> dict[str, int]:
        """Cache counters: ``hits``, ``misses``, and total ``compile_ns``,
        snapshotted atomically (safe to call from concurrent readers)."""
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "compile_ns": self.compile_ns,
            }


@dataclass(frozen=True)
class Query:
    """A named FO query over the auxiliary structure.

    With an empty frame it is a boolean query (a sentence); with a nonempty
    frame it defines a relation.  ``params`` (if any) are bound per call,
    e.g. ``reach(u, v)`` asked for specific vertices.
    """

    name: str
    formula: Formula
    frame: tuple[str, ...] = ()
    params: tuple[str, ...] = ()


@dataclass
class DynFOProgram:
    """An executable witness that a problem is in Dyn-FO (Definition 3.1)."""

    name: str
    input_vocabulary: Vocabulary
    aux_vocabulary: Vocabulary
    initial: Callable[[int], Structure]
    on_insert: Mapping[str, UpdateRule] = field(default_factory=dict)
    on_delete: Mapping[str, UpdateRule] = field(default_factory=dict)
    on_set: Mapping[str, UpdateRule] = field(default_factory=dict)
    # Note 3.3: an arbitrary extended operation alphabet, keyed by name;
    # each rule's params name the operation's arguments.
    on_operation: Mapping[str, UpdateRule] = field(default_factory=dict)
    queries: Mapping[str, Query] = field(default_factory=dict)
    precomputation: bool = False  # True -> this is a Dyn-FO+ program
    # Binary input relations the program interprets symmetrically: a request
    # ins/del(R, a, b) acts on both (a, b) and (b, a), as in Theorem 4.1
    # ("we maintain the undirected nature of the graph by interpreting
    # insert(E, a, b) ... to do the operation on both (a, b) and (b, a)").
    symmetric_inputs: frozenset[str] = frozenset()
    notes: str = ""

    def __post_init__(self) -> None:
        self.validate()

    # -- static validation -------------------------------------------------

    def validate(self) -> None:
        """Check arities, frames, and that formulas only mention ``tau``
        plus the rule's parameters — i.e., that updates really are
        first-order over the auxiliary structure."""
        for rel in self.input_vocabulary:
            if rel.name not in self.on_insert and rel.arity > 0:
                # a program may choose not to support some requests, but the
                # common case is full support; no error, engines will raise.
                pass
        for kind, rules in (
            ("insert", self.on_insert),
            ("delete", self.on_delete),
            ("set", self.on_set),
        ):
            for key, rule in rules.items():
                if kind in ("insert", "delete"):
                    if not self.input_vocabulary.has_relation(key):
                        raise ProgramError(
                            f"{kind} rule for unknown input relation {key!r}"
                        )
                    arity = self.input_vocabulary.arity(key)
                    if len(rule.params) != arity:
                        raise ProgramError(
                            f"{kind} rule for {key!r} names {len(rule.params)} "
                            f"params but the relation has arity {arity}"
                        )
                else:
                    if not self.input_vocabulary.has_constant(key):
                        raise ProgramError(f"set rule for unknown constant {key!r}")
                    if len(rule.params) != 1:
                        raise ProgramError("set rules take exactly one parameter")
                self._validate_rule(kind, key, rule)
        for key, rule in self.on_operation.items():
            self._validate_rule("operation", key, rule)
        for query in self.queries.values():
            self._validate_formula(
                f"query {query.name!r}",
                query.formula,
                frame=query.frame,
                params=query.params,
            )

    def _validate_rule(self, kind: str, key: str, rule: UpdateRule) -> None:
        temp_arities: dict[str, int] = {}
        for temp in rule.temporaries:
            if temp.name in temp_arities or self.aux_vocabulary.has_relation(
                temp.name
            ):
                raise ProgramError(
                    f"{kind} rule for {key!r}: temporary {temp.name!r} "
                    "shadows another relation"
                )
            self._validate_formula(
                f"{kind}({key}) temporary {temp.name!r}",
                temp.formula,
                frame=temp.frame,
                params=rule.params,
                extra_relations=dict(temp_arities),
            )
            temp_arities[temp.name] = len(temp.frame)
        seen: set[str] = set()
        for definition in rule.definitions:
            if definition.name in seen:
                raise ProgramError(
                    f"{kind} rule for {key!r} defines {definition.name!r} twice"
                )
            seen.add(definition.name)
            if not self.aux_vocabulary.has_relation(definition.name):
                raise ProgramError(
                    f"{kind} rule for {key!r} defines unknown auxiliary "
                    f"relation {definition.name!r}"
                )
            arity = self.aux_vocabulary.arity(definition.name)
            if len(definition.frame) != arity:
                raise ProgramError(
                    f"definition of {definition.name!r} has frame "
                    f"{definition.frame} but arity {arity}"
                )
            self._validate_formula(
                f"{kind}({key}) definition of {definition.name!r}",
                definition.formula,
                frame=definition.frame,
                params=rule.params,
                extra_relations=temp_arities,
            )

    def _validate_formula(
        self,
        where: str,
        formula: Formula,
        frame: Sequence[str],
        params: Sequence[str],
        extra_relations: Mapping[str, int] | None = None,
    ) -> None:
        from ..logic.transform import relations_of

        loose = free_vars(formula) - set(frame)
        if loose:
            raise ProgramError(f"{where}: unbound variables {sorted(loose)}")
        for rel in relations_of(formula):
            if not self.aux_vocabulary.has_relation(rel) and rel not in (
                extra_relations or {}
            ):
                raise ProgramError(
                    f"{where}: mentions relation {rel!r} outside tau"
                )
        allowed = (
            set(params)
            | set(self.aux_vocabulary.constant_names())
            | {"min", "max"}
        )
        for const in constants_of(formula):
            if const not in allowed:
                raise ProgramError(f"{where}: unknown constant {const!r}")

    # -- compilation -----------------------------------------------------------

    def compile(self, backend: str, n: int) -> CompiledProgram:
        """The program's plan cache for ``(backend, n)``.

        Returns the same :class:`CompiledProgram` on every call with the same
        key, so rule plans are compiled exactly once per (rule, backend, n)
        no matter how many requests — or engines — exercise them.  Guarded by
        a lock so concurrent sessions over one program instance can never
        race two caches into existence for the same key.
        """
        with _COMPILE_CACHE_LOCK:
            cache: dict[tuple[str, int], CompiledProgram] | None = getattr(
                self, "_compiled", None
            )
            if cache is None:
                cache = {}
                self._compiled = cache
            key = (backend, n)
            compiled = cache.get(key)
            if compiled is None:
                compiled = CompiledProgram(self, backend, n)
                cache[key] = compiled
            return compiled

    # -- metrics --------------------------------------------------------------

    def max_quantifier_rank(self) -> int:
        """Largest quantifier rank over all update and query formulas."""
        return max(
            (quantifier_rank(f) for f in self._all_formulas()), default=0
        )

    def max_connective_depth(self) -> int:
        """Largest connective depth (parallel time per CRAM step)."""
        return max(
            (connective_depth(f) for f in self._all_formulas()), default=0
        )

    def _all_formulas(self) -> Iterable[Formula]:
        for rules in (
            self.on_insert,
            self.on_delete,
            self.on_set,
            self.on_operation,
        ):
            for rule in rules.values():
                for definition in rule.definitions:
                    yield definition.formula
        for query in self.queries.values():
            yield query.formula

    def aux_arity(self) -> int:
        """Largest auxiliary-relation arity (the resource studied in [DS95])."""
        return max((rel.arity for rel in self.aux_vocabulary), default=0)
