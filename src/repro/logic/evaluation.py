"""Reference (naive) evaluator: direct Tarskian satisfaction.

This module is the *semantics* of the logic.  The optimized engines in
:mod:`repro.logic.relational` and :mod:`repro.logic.dense` are tested against
it.  ``holds`` runs in time ``O(n^{quantifier rank} * size)`` by brute-force
assignment enumeration, which is fine for the small structures used in
property tests and by the engine's ``"naive"`` reference backend
(:class:`NaiveEvaluator`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Mapping

from .structure import Structure, StructureError
from .syntax import (
    And,
    Atom,
    Bit,
    Const,
    Eq,
    Exists,
    FalseF,
    Forall,
    Formula,
    Iff,
    Implies,
    Le,
    Lit,
    Lt,
    Not,
    Or,
    Term,
    TrueF,
    Var,
)

__all__ = [
    "holds",
    "eval_term",
    "naive_query",
    "EvaluationError",
    "FormulaItem",
    "NaiveEvaluator",
]


class EvaluationError(ValueError):
    """Raised on unbound variables or unknown constants."""


def eval_term(
    term: Term,
    structure: Structure,
    assignment: Mapping[str, int],
    params: Mapping[str, int] | None = None,
) -> int:
    """Resolve a term to a universe element.

    Resolution order for :class:`Const`: update parameters, then the
    structure's constants, then the numeric constants ``min``/``max``.
    """
    if isinstance(term, Var):
        try:
            return assignment[term.name]
        except KeyError:
            raise EvaluationError(f"unbound variable {term.name!r}") from None
    if isinstance(term, Lit):
        if not 0 <= term.value < structure.n:
            raise EvaluationError(
                f"literal {term.value} outside universe of size {structure.n}"
            )
        return term.value
    if isinstance(term, Const):
        if params and term.name in params:
            return params[term.name]
        if term.name == "min":
            return 0
        if term.name == "max":
            return structure.n - 1
        try:
            return structure.constant(term.name)
        except StructureError:
            raise EvaluationError(f"unknown constant {term.name!r}") from None
    raise TypeError(f"unknown term {term!r}")  # pragma: no cover


def holds(
    formula: Formula,
    structure: Structure,
    assignment: Mapping[str, int] | None = None,
    params: Mapping[str, int] | None = None,
) -> bool:
    """Does ``structure`` satisfy ``formula`` under ``assignment``?"""
    asgn = dict(assignment) if assignment else {}
    return _holds(formula, structure, asgn, params or {})


def _holds(
    formula: Formula,
    structure: Structure,
    assignment: dict[str, int],
    params: Mapping[str, int],
) -> bool:
    if isinstance(formula, TrueF):
        return True
    if isinstance(formula, FalseF):
        return False
    if isinstance(formula, Atom):
        row = tuple(
            eval_term(arg, structure, assignment, params) for arg in formula.args
        )
        return structure.holds(formula.rel, row)
    if isinstance(formula, Eq):
        return eval_term(formula.left, structure, assignment, params) == eval_term(
            formula.right, structure, assignment, params
        )
    if isinstance(formula, Le):
        return eval_term(formula.left, structure, assignment, params) <= eval_term(
            formula.right, structure, assignment, params
        )
    if isinstance(formula, Lt):
        return eval_term(formula.left, structure, assignment, params) < eval_term(
            formula.right, structure, assignment, params
        )
    if isinstance(formula, Bit):
        number = eval_term(formula.number, structure, assignment, params)
        index = eval_term(formula.index, structure, assignment, params)
        return bool((number >> index) & 1)
    if isinstance(formula, Not):
        return not _holds(formula.body, structure, assignment, params)
    if isinstance(formula, And):
        return all(_holds(p, structure, assignment, params) for p in formula.parts)
    if isinstance(formula, Or):
        return any(_holds(p, structure, assignment, params) for p in formula.parts)
    if isinstance(formula, Implies):
        return not _holds(formula.left, structure, assignment, params) or _holds(
            formula.right, structure, assignment, params
        )
    if isinstance(formula, Iff):
        return _holds(formula.left, structure, assignment, params) == _holds(
            formula.right, structure, assignment, params
        )
    if isinstance(formula, (Exists, Forall)):
        want_any = isinstance(formula, Exists)
        shadowed = {
            name: assignment[name] for name in formula.vars if name in assignment
        }
        try:
            for values in itertools.product(structure.universe, repeat=len(formula.vars)):
                for name, value in zip(formula.vars, values):
                    assignment[name] = value
                result = _holds(formula.body, structure, assignment, params)
                if result == want_any:
                    return want_any
            return not want_any
        finally:
            for name in formula.vars:
                assignment.pop(name, None)
            assignment.update(shadowed)
    raise TypeError(f"unknown formula node {formula!r}")  # pragma: no cover


def naive_query(
    formula: Formula,
    structure: Structure,
    frame: tuple[str, ...],
    params: Mapping[str, int] | None = None,
) -> set[tuple[int, ...]]:
    """All assignments to ``frame`` (a tuple of variable names) satisfying
    ``formula``, by brute-force enumeration.  ``frame`` must cover the free
    variables of ``formula``."""
    from .transform import free_vars

    missing = free_vars(formula) - set(frame)
    if missing:
        raise EvaluationError(f"frame {frame} does not bind {sorted(missing)}")
    result: set[tuple[int, ...]] = set()
    assignment: dict[str, int] = {}
    for values in itertools.product(structure.universe, repeat=len(frame)):
        assignment.update(zip(frame, values))
        if _holds(formula, structure, assignment, params or {}):
            result.add(values)
    return result


@dataclass(frozen=True, eq=False)
class FormulaItem:
    """The naive backend's compiled item: ``formula`` over ``frame``,
    evaluated whole.  With ``delta`` ``"+"`` or ``"-"`` it answers the
    change of the definition ``name(frame) <-> formula``: ``formula - name``
    or ``name - formula``, straight from the FO semantics."""

    formula: Formula
    frame: tuple[str, ...]
    name: str = ""
    delta: str = ""


class NaiveEvaluator:
    """The reference backend: runs :class:`FormulaItem` objects by
    brute-force enumeration against one fixed structure (and params).
    Each formula is evaluated once per evaluator, so a definition's Δ⁺ and
    Δ⁻ items share one evaluation of its formula."""

    def __init__(
        self, structure: Structure, params: Mapping[str, int] | None = None
    ) -> None:
        self.structure = structure
        self.params = dict(params) if params else {}
        # id-keyed; the items pin their formulas for the evaluator's lifetime
        self._whole: dict[tuple[int, tuple[str, ...]], set[tuple[int, ...]]] = {}

    def execute(self, item: FormulaItem) -> set[tuple[int, ...]]:
        key = (id(item.formula), item.frame)
        rows = self._whole.get(key)
        if rows is None:
            rows = naive_query(item.formula, self.structure, item.frame, self.params)
            self._whole[key] = rows
        if not item.delta:
            return set(rows)
        current = self.structure.relation_view(item.name)
        return rows - current if item.delta == "+" else current - rows
