"""Syntactic transformations on formulas.

Free variables, constants, substitution, standardize-apart renaming,
negation normal form, boolean simplification, and the two complexity metrics
the paper leans on: *quantifier rank* (space/variables) and *connective
depth* (parallel time — the depth of the CRAM[1] circuit evaluating the
formula).
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, Mapping

from .syntax import (
    And,
    Atom,
    Bit,
    BOT,
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
    TOP,
    TrueF,
    Var,
)

__all__ = [
    "free_vars",
    "constants_of",
    "atoms_of",
    "relations_of",
    "substitute",
    "substitute_term",
    "substitute_constants",
    "substitute_relations",
    "standardize_apart",
    "to_nnf",
    "to_prenex",
    "quantifier_prefix",
    "simplify",
    "cofactor",
    "deltas",
    "quantifier_rank",
    "connective_depth",
    "formula_size",
    "fresh_names",
]


def _term_free(term: Term) -> frozenset[str]:
    return frozenset({term.name}) if isinstance(term, Var) else frozenset()


# Keyed by id() to avoid re-hashing deep formula trees on every lookup; the
# formula object is pinned in the value so the id stays valid.
_FREE_CACHE: dict[int, tuple[Formula, frozenset[str]]] = {}


def free_vars(formula: Formula) -> frozenset[str]:
    """The set of free variable names of ``formula``."""
    cached = _FREE_CACHE.get(id(formula))
    if cached is not None:
        return cached[1]
    if isinstance(formula, (TrueF, FalseF)):
        result: frozenset[str] = frozenset()
    elif isinstance(formula, Atom):
        result = frozenset().union(*(_term_free(a) for a in formula.args)) if formula.args else frozenset()
    elif isinstance(formula, (Eq, Le, Lt)):
        result = _term_free(formula.left) | _term_free(formula.right)
    elif isinstance(formula, Bit):
        result = _term_free(formula.number) | _term_free(formula.index)
    elif isinstance(formula, Not):
        result = free_vars(formula.body)
    elif isinstance(formula, (And, Or)):
        result = frozenset().union(*(free_vars(p) for p in formula.parts)) if formula.parts else frozenset()
    elif isinstance(formula, (Implies, Iff)):
        result = free_vars(formula.left) | free_vars(formula.right)
    elif isinstance(formula, (Exists, Forall)):
        result = free_vars(formula.body) - set(formula.vars)
    else:  # pragma: no cover
        raise TypeError(f"unknown formula node {formula!r}")
    _FREE_CACHE[id(formula)] = (formula, result)
    return result


def _walk(formula: Formula) -> Iterator[Formula]:
    yield formula
    if isinstance(formula, Not):
        yield from _walk(formula.body)
    elif isinstance(formula, (And, Or)):
        for part in formula.parts:
            yield from _walk(part)
    elif isinstance(formula, (Implies, Iff)):
        yield from _walk(formula.left)
        yield from _walk(formula.right)
    elif isinstance(formula, (Exists, Forall)):
        yield from _walk(formula.body)


def atoms_of(formula: Formula) -> list[Atom]:
    """All relation atoms occurring in ``formula`` (with repetition)."""
    return [node for node in _walk(formula) if isinstance(node, Atom)]


def relations_of(formula: Formula) -> frozenset[str]:
    """Names of relation symbols occurring in ``formula``."""
    return frozenset(atom.rel for atom in atoms_of(formula))


def constants_of(formula: Formula) -> frozenset[str]:
    """Names of symbolic constants occurring in ``formula``."""
    names: set[str] = set()
    for node in _walk(formula):
        terms: tuple[Term, ...]
        if isinstance(node, Atom):
            terms = node.args
        elif isinstance(node, (Eq, Le, Lt)):
            terms = (node.left, node.right)
        elif isinstance(node, Bit):
            terms = (node.number, node.index)
        else:
            continue
        names.update(t.name for t in terms if isinstance(t, Const))
    return frozenset(names)


# ---------------------------------------------------------------------------
# Substitution
# ---------------------------------------------------------------------------


def substitute_term(term: Term, mapping: Mapping[str, Term]) -> Term:
    """Replace free variables in ``term`` according to ``mapping``."""
    if isinstance(term, Var) and term.name in mapping:
        return mapping[term.name]
    return term


def substitute(formula: Formula, mapping: Mapping[str, Term]) -> Formula:
    """Capture-avoiding substitution of terms for free variables.

    When a quantifier would capture a variable occurring in a substituted
    term, the bound variable is renamed to a fresh name.
    """
    if not mapping:
        return formula
    if isinstance(formula, (TrueF, FalseF)):
        return formula
    if isinstance(formula, Atom):
        return Atom(formula.rel, tuple(substitute_term(a, mapping) for a in formula.args))
    if isinstance(formula, Eq):
        return Eq(substitute_term(formula.left, mapping), substitute_term(formula.right, mapping))
    if isinstance(formula, Le):
        return Le(substitute_term(formula.left, mapping), substitute_term(formula.right, mapping))
    if isinstance(formula, Lt):
        return Lt(substitute_term(formula.left, mapping), substitute_term(formula.right, mapping))
    if isinstance(formula, Bit):
        return Bit(substitute_term(formula.number, mapping), substitute_term(formula.index, mapping))
    if isinstance(formula, Not):
        return Not(substitute(formula.body, mapping))
    if isinstance(formula, And):
        return And(tuple(substitute(p, mapping) for p in formula.parts))
    if isinstance(formula, Or):
        return Or(tuple(substitute(p, mapping) for p in formula.parts))
    if isinstance(formula, Implies):
        return Implies(substitute(formula.left, mapping), substitute(formula.right, mapping))
    if isinstance(formula, Iff):
        return Iff(substitute(formula.left, mapping), substitute(formula.right, mapping))
    if isinstance(formula, (Exists, Forall)):
        inner = {k: v for k, v in mapping.items() if k not in formula.vars}
        # variables that substituted terms mention, to avoid capture
        clash_pool: set[str] = set()
        for name in free_vars(formula.body) - set(formula.vars):
            if name in inner:
                term = inner[name]
                if isinstance(term, Var):
                    clash_pool.add(term.name)
        renames: dict[str, Term] = {}
        new_vars: list[str] = []
        taken = (
            set(formula.vars)
            | clash_pool
            | free_vars(formula.body)
            | {t.name for t in inner.values() if isinstance(t, Var)}
        )
        fresh = fresh_names(taken)
        for var in formula.vars:
            if var in clash_pool:
                new_name = next(fresh)
                renames[var] = Var(new_name)
                new_vars.append(new_name)
            else:
                new_vars.append(var)
        body = formula.body
        if renames:
            body = substitute(body, renames)
        body = substitute(body, inner)
        ctor = Exists if isinstance(formula, Exists) else Forall
        return ctor(tuple(new_vars), body)
    raise TypeError(f"unknown formula node {formula!r}")  # pragma: no cover


def substitute_constants(formula: Formula, mapping: Mapping[str, Term]) -> Formula:
    """Replace symbolic constants by terms (e.g. turn update parameters into
    quantifiable variables when composing update formulas)."""

    def map_term(term: Term) -> Term:
        if isinstance(term, Const) and term.name in mapping:
            return mapping[term.name]
        return term

    def rec(node: Formula) -> Formula:
        if isinstance(node, Atom):
            return Atom(node.rel, tuple(map_term(t) for t in node.args))
        if isinstance(node, Eq):
            return Eq(map_term(node.left), map_term(node.right))
        if isinstance(node, Le):
            return Le(map_term(node.left), map_term(node.right))
        if isinstance(node, Lt):
            return Lt(map_term(node.left), map_term(node.right))
        if isinstance(node, Bit):
            return Bit(map_term(node.number), map_term(node.index))
        if isinstance(node, Not):
            return Not(rec(node.body))
        if isinstance(node, And):
            return And(tuple(rec(p) for p in node.parts))
        if isinstance(node, Or):
            return Or(tuple(rec(p) for p in node.parts))
        if isinstance(node, Implies):
            return Implies(rec(node.left), rec(node.right))
        if isinstance(node, Iff):
            return Iff(rec(node.left), rec(node.right))
        if isinstance(node, (Exists, Forall)):
            # guard against capturing a substituted variable
            clash = {
                t.name
                for t in mapping.values()
                if isinstance(t, Var) and t.name in node.vars
            }
            if clash:
                raise ValueError(
                    f"constant substitution would be captured by {sorted(clash)}; "
                    "standardize the formula apart first"
                )
            ctor = Exists if isinstance(node, Exists) else Forall
            return ctor(node.vars, rec(node.body))
        return node

    return rec(formula)


def substitute_relations(
    formula: Formula,
    definitions: Mapping[str, tuple[tuple[str, ...], Formula]],
) -> Formula:
    """Second-order substitution: replace every atom ``R(t1..tk)`` for ``R``
    in ``definitions`` by the defining formula with its frame variables
    instantiated to the atom's argument terms (capture-avoiding).

    This is the engine behind composing update formulas (k-edge
    connectivity) and behind the transfer theorem, Proposition 5.3.
    """

    def rec(node: Formula) -> Formula:
        if isinstance(node, Atom) and node.rel in definitions:
            frame, body = definitions[node.rel]
            if len(frame) != len(node.args):
                raise ValueError(
                    f"definition of {node.rel!r} has frame {frame} but the "
                    f"atom has {len(node.args)} arguments"
                )
            arg_vars = {t.name for t in node.args if isinstance(t, Var)}
            body = standardize_apart(body, avoid=arg_vars)
            return substitute(body, dict(zip(frame, node.args)))
        if isinstance(node, Not):
            return Not(rec(node.body))
        if isinstance(node, And):
            return And(tuple(rec(p) for p in node.parts))
        if isinstance(node, Or):
            return Or(tuple(rec(p) for p in node.parts))
        if isinstance(node, Implies):
            return Implies(rec(node.left), rec(node.right))
        if isinstance(node, Iff):
            return Iff(rec(node.left), rec(node.right))
        if isinstance(node, (Exists, Forall)):
            ctor = Exists if isinstance(node, Exists) else Forall
            return ctor(node.vars, rec(node.body))
        return node

    return rec(formula)


def fresh_names(taken: Iterable[str], stem: str = "v") -> Iterator[str]:
    """Yield variable names not in ``taken`` (which is snapshotted)."""
    used = set(taken)
    for index in itertools.count():
        name = f"{stem}{index}"
        if name not in used:
            used.add(name)
            yield name


def standardize_apart(formula: Formula, avoid: Iterable[str] = ()) -> Formula:
    """Rename bound variables so every quantifier binds a distinct name that
    also differs from every free variable (and from ``avoid``).  Needed by
    the dense evaluator, which assigns one tensor axis per variable name,
    and by capture-avoiding second-order substitution."""
    fresh = fresh_names(
        free_vars(formula) | _all_var_names(formula) | set(avoid), stem="q"
    )

    def rec(node: Formula, env: Mapping[str, Term]) -> Formula:
        if isinstance(node, (Exists, Forall)):
            new_vars = [next(fresh) for _ in node.vars]
            inner_env = dict(env)
            inner_env.update(
                {old: Var(new) for old, new in zip(node.vars, new_vars)}
            )
            ctor = Exists if isinstance(node, Exists) else Forall
            return ctor(tuple(new_vars), rec(node.body, inner_env))
        if isinstance(node, Not):
            return Not(rec(node.body, env))
        if isinstance(node, And):
            return And(tuple(rec(p, env) for p in node.parts))
        if isinstance(node, Or):
            return Or(tuple(rec(p, env) for p in node.parts))
        if isinstance(node, Implies):
            return Implies(rec(node.left, env), rec(node.right, env))
        if isinstance(node, Iff):
            return Iff(rec(node.left, env), rec(node.right, env))
        return substitute(node, env)

    return rec(formula, {})


def _all_var_names(formula: Formula) -> set[str]:
    names: set[str] = set()
    for node in _walk(formula):
        if isinstance(node, (Exists, Forall)):
            names.update(node.vars)
        elif isinstance(node, Atom):
            names.update(t.name for t in node.args if isinstance(t, Var))
        elif isinstance(node, (Eq, Le, Lt)):
            names.update(t.name for t in (node.left, node.right) if isinstance(t, Var))
        elif isinstance(node, Bit):
            names.update(
                t.name for t in (node.number, node.index) if isinstance(t, Var)
            )
    return names


# ---------------------------------------------------------------------------
# Normal forms and simplification
# ---------------------------------------------------------------------------


def to_nnf(formula: Formula, memo: dict | None = None) -> Formula:
    """Negation normal form: negations pushed to atoms, ``->``/``<->``
    expanded, double negations removed.

    ``memo`` (optional, shared across calls) caches results per node object
    and polarity, and records every result as its own normal form: callers
    that re-normalize pieces of earlier results, like the planner's nested
    correlated filters, then get them back in O(1), as the same objects."""
    if memo is None:
        memo = {}

    def cached(node: Formula, positive: bool) -> Formula:
        hit = memo.get((id(node), positive))
        if hit is not None:
            return hit[1]
        result = pos(node) if positive else neg(node)
        memo[(id(node), positive)] = (node, result)
        memo[(id(result), True)] = (result, result)
        return result

    def pos(node: Formula) -> Formula:
        if isinstance(node, Not):
            return cached(node.body, False)
        if isinstance(node, And):
            return And.of(*(cached(p, True) for p in node.parts))
        if isinstance(node, Or):
            return Or.of(*(cached(p, True) for p in node.parts))
        if isinstance(node, Implies):
            return Or.of(cached(node.left, False), cached(node.right, True))
        if isinstance(node, Iff):
            return Or.of(
                And.of(cached(node.left, True), cached(node.right, True)),
                And.of(cached(node.left, False), cached(node.right, False)),
            )
        if isinstance(node, Exists):
            return Exists(node.vars, cached(node.body, True))
        if isinstance(node, Forall):
            return Forall(node.vars, cached(node.body, True))
        return node

    def neg(node: Formula) -> Formula:
        if isinstance(node, TrueF):
            return BOT
        if isinstance(node, FalseF):
            return TOP
        if isinstance(node, Not):
            return cached(node.body, True)
        if isinstance(node, And):
            return Or.of(*(cached(p, False) for p in node.parts))
        if isinstance(node, Or):
            return And.of(*(cached(p, False) for p in node.parts))
        if isinstance(node, Implies):
            return And.of(cached(node.left, True), cached(node.right, False))
        if isinstance(node, Iff):
            return Or.of(
                And.of(cached(node.left, True), cached(node.right, False)),
                And.of(cached(node.left, False), cached(node.right, True)),
            )
        if isinstance(node, Exists):
            return Forall(node.vars, cached(node.body, False))
        if isinstance(node, Forall):
            return Exists(node.vars, cached(node.body, False))
        return Not(node)

    return cached(formula, True)


def _same(new: Iterable[Formula], old: Iterable[Formula]) -> bool:
    return all(a is b for a, b in zip(new, old))


def simplify(formula: Formula) -> Formula:
    """Cheap boolean simplification: constant folding, unit laws, trivial
    equalities, vacuous quantifiers.  Semantics-preserving.  A subformula
    with nothing to simplify is returned as the same object, so id-keyed
    caches (:func:`free_vars`, the planner's) keep hitting on it."""
    if isinstance(formula, Not):
        body = simplify(formula.body)
        if isinstance(body, TrueF):
            return BOT
        if isinstance(body, FalseF):
            return TOP
        if isinstance(body, Not):
            return body.body
        return formula if body is formula.body else Not(body)
    if isinstance(formula, (And, Or)):
        parts = [simplify(p) for p in formula.parts]
        if len(parts) > 1 and _same(parts, formula.parts) and not any(
            isinstance(p, (type(formula), TrueF, FalseF)) for p in parts
        ):
            return formula  # what And.of / Or.of would rebuild
        return type(formula).of(*parts)
    if isinstance(formula, Implies):
        left, right = simplify(formula.left), simplify(formula.right)
        if isinstance(left, TrueF):
            return right
        if isinstance(left, FalseF):
            return TOP
        if isinstance(right, TrueF):
            return TOP
        if isinstance(right, FalseF):
            return simplify(Not(left))
        if _same((left, right), (formula.left, formula.right)):
            return formula
        return Implies(left, right)
    if isinstance(formula, Iff):
        left, right = simplify(formula.left), simplify(formula.right)
        if left == right:
            return TOP
        if isinstance(left, TrueF):
            return right
        if isinstance(right, TrueF):
            return left
        if isinstance(left, FalseF):
            return simplify(Not(right))
        if isinstance(right, FalseF):
            return simplify(Not(left))
        if _same((left, right), (formula.left, formula.right)):
            return formula
        return Iff(left, right)
    if isinstance(formula, (Exists, Forall)):
        body = simplify(formula.body)
        live = [v for v in formula.vars if v in free_vars(body)]
        if not live:
            return body
        if body is formula.body and len(live) == len(formula.vars):
            return formula
        ctor = Exists if isinstance(formula, Exists) else Forall
        return ctor(tuple(live), body)
    if isinstance(formula, Eq) and formula.left == formula.right:
        return TOP
    if isinstance(formula, Le) and formula.left == formula.right:
        return TOP
    if isinstance(formula, Lt) and formula.left == formula.right:
        return BOT
    if isinstance(formula, (Eq, Le, Lt)):
        left, right = formula.left, formula.right
        if isinstance(left, Lit) and isinstance(right, Lit):
            value = {
                Eq: left.value == right.value,
                Le: left.value <= right.value,
                Lt: left.value < right.value,
            }[type(formula)]
            return TOP if value else BOT
    return formula


def cofactor(formula: Formula, atom: Atom, value: bool) -> Formula:
    """The Shannon cofactor ``formula|atom=value``: every occurrence of
    ``atom`` replaced by ``true``/``false``, then :func:`simplify`.

    Only occurrences equal to ``atom`` are replaced, and none under a
    quantifier that binds one of its variables (there the atom denotes a
    different tuple).  For every assignment of the atom's variables,
    ``formula`` agrees with ``(atom & formula|true) | (~atom & formula|false)``.
    """
    names = {arg.name for arg in atom.args if isinstance(arg, Var)}
    constant = TOP if value else BOT

    # rebuilds only the spine above replaced atoms: the rest keeps its
    # identity, and with it the id-keyed caches' entries
    def rec(node: Formula) -> Formula:
        if isinstance(node, Atom):
            return constant if node == atom else node
        if isinstance(node, Not):
            body = rec(node.body)
            return node if body is node.body else Not(body)
        if isinstance(node, (And, Or)):
            parts = tuple(rec(p) for p in node.parts)
            return node if _same(parts, node.parts) else type(node)(parts)
        if isinstance(node, (Implies, Iff)):
            left, right = rec(node.left), rec(node.right)
            if _same((left, right), (node.left, node.right)):
                return node
            return type(node)(left, right)
        if isinstance(node, (Exists, Forall)) and not names.intersection(node.vars):
            body = rec(node.body)
            return node if body is node.body else type(node)(node.vars, body)
        return node

    return simplify(rec(formula))


def deltas(
    name: str, frame: tuple[str, ...], formula: Formula
) -> tuple[Formula, Formula]:
    """``(Δ⁺, Δ⁻)`` of the update ``name'(frame) <-> formula``: the tuples
    the update adds to and removes from ``name``.

    With ``R = name(frame)``, ``Δ⁺ = ~R & formula|R=false`` and
    ``Δ⁻ = R & ~formula|R=true`` — exact by the Shannon expansion (see
    :func:`cofactor`).  The frame idioms of update rules fold on their own:
    ``R | ψ`` has ``Δ⁻ = false`` and ``R & ~ψ`` has ``Δ⁺ = false``."""
    current = Atom(name, frame)
    plus = And.of(Not(current), cofactor(formula, current, False))
    minus = And.of(current, simplify(Not(cofactor(formula, current, True))))
    return plus, minus


def to_prenex(formula: Formula) -> Formula:
    """Prenex normal form: all quantifiers pulled to an outer block over an
    NNF matrix.  Bound variables are standardized apart first, so no capture
    can occur while hoisting.

    The quantifier prefix length of the result bounds the number of tensor
    axes the dense evaluator needs, and its alternation pattern is the
    classic Sigma_k/Pi_k measure of the formula.
    """
    prepared = standardize_apart(to_nnf(formula))

    def pull(node: Formula) -> tuple[list[tuple[type, str]], Formula]:
        if isinstance(node, (Exists, Forall)):
            inner_prefix, matrix = pull(node.body)
            ctor = Exists if isinstance(node, Exists) else Forall
            return [(ctor, v) for v in node.vars] + inner_prefix, matrix
        if isinstance(node, And):
            prefix: list[tuple[type, str]] = []
            parts = []
            for part in node.parts:
                sub_prefix, sub_matrix = pull(part)
                prefix.extend(sub_prefix)
                parts.append(sub_matrix)
            return prefix, And.of(*parts)
        if isinstance(node, Or):
            prefix = []
            parts = []
            for part in node.parts:
                sub_prefix, sub_matrix = pull(part)
                prefix.extend(sub_prefix)
                parts.append(sub_matrix)
            return prefix, Or.of(*parts)
        if isinstance(node, Not):
            # NNF: negations sit on atoms only, nothing to pull
            return [], node
        return [], node

    prefix, matrix = pull(prepared)
    result = matrix
    for ctor, var in reversed(prefix):
        if var in free_vars(result):
            result = ctor((var,), result)
    return result


def quantifier_prefix(formula: Formula) -> list[tuple[str, str]]:
    """The leading quantifier block as ``[("exists"|"forall", var), ...]``."""
    prefix: list[tuple[str, str]] = []
    node = formula
    while isinstance(node, (Exists, Forall)):
        kind = "exists" if isinstance(node, Exists) else "forall"
        prefix.extend((kind, v) for v in node.vars)
        node = node.body
    return prefix


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def quantifier_rank(formula: Formula) -> int:
    """Maximum nesting depth of quantifiers (each block of k variables
    counts k, matching the variable-count resource of the paper)."""
    if isinstance(formula, (Exists, Forall)):
        return len(formula.vars) + quantifier_rank(formula.body)
    if isinstance(formula, Not):
        return quantifier_rank(formula.body)
    if isinstance(formula, (And, Or)):
        return max((quantifier_rank(p) for p in formula.parts), default=0)
    if isinstance(formula, (Implies, Iff)):
        return max(quantifier_rank(formula.left), quantifier_rank(formula.right))
    return 0


def connective_depth(formula: Formula) -> int:
    """Depth of the formula tree = parallel time to evaluate on a CRAM.

    Each connective and each quantifier block is one constant-time parallel
    step (FO = CRAM[1], paper Sec. 5 / [I89b])."""
    if isinstance(formula, (Exists, Forall, Not)):
        body = formula.body
        return 1 + connective_depth(body)
    if isinstance(formula, (And, Or)):
        return 1 + max((connective_depth(p) for p in formula.parts), default=0)
    if isinstance(formula, (Implies, Iff)):
        return 1 + max(
            connective_depth(formula.left), connective_depth(formula.right)
        )
    return 0


def formula_size(formula: Formula) -> int:
    """Number of AST nodes."""
    return sum(1 for _ in _walk(formula))
