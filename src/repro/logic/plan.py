"""Backend-neutral physical plans for first-order formulas.

The paper's central observation is that a Dyn-FO update is a *fixed*
first-order formula: the formula never changes between requests, only the
data does.  The evaluators therefore should not re-derive an evaluation
strategy per request — they should compile the formula into a physical plan
**once** and replay that plan against fresh data forever after.

This module is that compilation layer.  :func:`compile_formula` normalizes a
formula (boolean simplification, ``->``/``<->`` expansion, ``forall`` as a
double negation, quantifier pushing, distribution over wide disjunctions —
the same pushdowns :mod:`repro.logic.transform` provides) and fixes a greedy
join order, producing a small tree of plan nodes.  A filter condition that
would enumerate the universe on its own (``forall``, a negated ``exists``, a
disjunction with negated arms) is planned *correlated*: seeded by the rows
it filters, so its cost follows the data, not ``n^k``.

========================  ====================================================
node                      meaning
========================  ====================================================
:class:`UnitScan`         the nullary TRUE relation ``{()}``
:class:`EmptyScan`        the empty relation (FALSE)
:class:`AtomScan`         rows of a stored relation, constants pre-bound
:class:`CompareScan`      a numeric predicate (``=``, ``<=``, ``<``, ``BIT``)
:class:`ConstBind`        the single row binding a variable to a constant
:class:`HashJoin`         natural join on shared columns
:class:`Filter`           semijoin / antijoin against a condition subplan
:class:`Project`          column projection (existential quantification)
:class:`Extend`           cross product with the universe (widening)
:class:`Complement`       guarded complement over the universe (negation)
:class:`Union`            disjunction of pre-aligned arms
========================  ====================================================

Plans are *backend neutral*: they mention column names, terms, and child
plans, never sets or arrays.  :mod:`repro.logic.relational` executes them
over sets of tuples; :mod:`repro.logic.dense` executes the same trees as
boolean tensors.  Update parameters (the request's ``a``, ``b``) stay
symbolic in the plan — :class:`AtomScan`/:class:`CompareScan`/:class:`ConstBind`
carry :class:`~repro.logic.syntax.Term` objects that the executor resolves
per request — which is exactly what makes one plan reusable across every
request of a rule.

Join-order heuristics deliberately mirror the pre-compilation planner
(generate from cheap conjuncts, filter fully-bound ones, widen only when
nothing can generate), but use *static* cardinality priors instead of live
cardinalities: the plan must be data independent to be cacheable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from .evaluation import EvaluationError
from .syntax import (
    And,
    Atom,
    Bit,
    Eq,
    Exists,
    FalseF,
    Forall,
    Formula,
    Iff,
    Implies,
    Le,
    Lt,
    Not,
    Or,
    Term,
    TrueF,
    Var,
)
from .transform import free_vars, simplify, to_nnf

__all__ = [
    "Plan",
    "UnitScan",
    "EmptyScan",
    "AtomScan",
    "CompareScan",
    "ConstBind",
    "HashJoin",
    "Filter",
    "Project",
    "Extend",
    "Complement",
    "Union",
    "compile_formula",
    "compile_formulas",
    "cached_plan",
    "plan_nodes",
    "plan_children",
    "plan_depth",
    "PlanError",
]


class PlanError(EvaluationError):
    """Raised when a formula cannot be compiled into a plan."""


# ---------------------------------------------------------------------------
# The IR
# ---------------------------------------------------------------------------
#
# Nodes are frozen for immutability but keep identity equality/hashing
# (eq=False): executors memoize results per node object, and the compiler
# deliberately shares one node for repeated subformulas so a guard like
# ``F(a, b)`` used by three definitions is evaluated once per update.


@dataclass(frozen=True, eq=False)
class Plan:
    """A physical plan producing a relation over named ``columns``."""

    columns: tuple[str, ...]
    #: provenance tag (the formula construct this node came from), for EXPLAIN
    label: str = field(default="", kw_only=True)


@dataclass(frozen=True, eq=False)
class UnitScan(Plan):
    """The relation ``{()}`` — a true sentence."""


@dataclass(frozen=True, eq=False)
class EmptyScan(Plan):
    """The empty relation over ``columns`` — a false (sub)formula."""


@dataclass(frozen=True, eq=False)
class AtomScan(Plan):
    """Rows of stored relation ``rel`` matching the atom's argument pattern.

    ``fixed`` pins argument positions to (symbolic) constant terms, resolved
    per execution; ``var_cols`` lists, per output column, every argument
    position the variable occupies (repeated variables must agree).  When
    ``direct`` is true the atom is exactly the stored relation (all-distinct
    variables in stored order) and a set-based executor may borrow the stored
    rows without copying.
    """

    rel: str = ""
    args: tuple[Term, ...] = ()
    fixed: tuple[tuple[int, Term], ...] = ()
    var_cols: tuple[tuple[str, tuple[int, ...]], ...] = ()
    direct: bool = False


@dataclass(frozen=True, eq=False)
class CompareScan(Plan):
    """A numeric predicate over at most two variables.

    ``op`` is one of ``"eq"``, ``"le"``, ``"lt"``, ``"bit"``; ``left`` and
    ``right`` are the predicate's terms (``number``/``index`` for BIT).
    Columns are the distinct variable names, left first.
    """

    op: str = "eq"
    left: Term = None  # type: ignore[assignment]
    right: Term = None  # type: ignore[assignment]


@dataclass(frozen=True, eq=False)
class ConstBind(Plan):
    """The single-row relation binding ``columns[0]`` to ``term``'s value —
    an equality with a constant side, resolved per execution (so update
    parameters stay symbolic in the plan)."""

    term: Term = None  # type: ignore[assignment]


@dataclass(frozen=True, eq=False)
class HashJoin(Plan):
    """Natural join of ``left`` and ``right`` on their shared columns."""

    left: Plan = None  # type: ignore[assignment]
    right: Plan = None  # type: ignore[assignment]


@dataclass(frozen=True, eq=False)
class Filter(Plan):
    """Keep rows of ``source`` whose projection onto ``condition.columns``
    is (``negated=False``) / is not (``negated=True``) satisfied by the
    condition subplan — a semijoin or antijoin.  ``positions`` pre-computes
    where the condition's columns sit inside ``source.columns``; a
    zero-column condition acts as a once-evaluated boolean guard."""

    source: Plan = None  # type: ignore[assignment]
    condition: Plan = None  # type: ignore[assignment]
    negated: bool = False
    positions: tuple[int, ...] = ()
    #: the original conjunct, for executors that keep a per-row fallback when
    #: materializing the condition trips their size guard
    fallback: Formula | None = None


@dataclass(frozen=True, eq=False)
class Project(Plan):
    """Project (and reorder) ``source`` onto ``columns`` — existential
    quantification when columns are dropped."""

    source: Plan = None  # type: ignore[assignment]
    positions: tuple[int, ...] = ()


@dataclass(frozen=True, eq=False)
class Extend(Plan):
    """Cross product of ``source`` with the universe on ``fresh`` columns."""

    source: Plan = None  # type: ignore[assignment]
    fresh: tuple[str, ...] = ()


@dataclass(frozen=True, eq=False)
class Complement(Plan):
    """Universe complement of ``source`` over its columns.  Executors must
    guard the ``n^k`` materialization against their row/cell budget — the
    complement-guard of the materialization discipline."""

    source: Plan = None  # type: ignore[assignment]


@dataclass(frozen=True, eq=False)
class Union(Plan):
    """Disjunction: all ``parts`` are pre-aligned to the same columns."""

    parts: tuple[Plan, ...] = ()


# ---------------------------------------------------------------------------
# Plan metrics / traversal
# ---------------------------------------------------------------------------


def _children(plan: Plan) -> tuple[Plan, ...]:
    if isinstance(plan, HashJoin):
        return (plan.left, plan.right)
    if isinstance(plan, Filter):
        return (plan.source, plan.condition)
    if isinstance(plan, (Project, Extend, Complement)):
        return (plan.source,)
    if isinstance(plan, Union):
        return plan.parts
    return ()


def plan_children(plan: Plan) -> tuple[Plan, ...]:
    """Direct child plans of a node (empty for leaves)."""
    return _children(plan)


def plan_nodes(plan: Plan) -> list[Plan]:
    """All nodes of the plan DAG, each shared node listed once."""
    seen: dict[int, Plan] = {}
    order: list[Plan] = []

    def rec(node: Plan) -> None:
        if id(node) in seen:
            return
        seen[id(node)] = node
        order.append(node)
        for child in _children(node):
            rec(child)

    rec(plan)
    return order


def plan_depth(plan: Plan) -> int:
    """Height of the plan tree (a proxy for parallel execution time)."""
    children = _children(plan)
    return 1 + max((plan_depth(c) for c in children), default=0)


# ---------------------------------------------------------------------------
# Compilation
# ---------------------------------------------------------------------------

# Nominal universe size for the static cost model.  Only the *relative*
# order of the estimates matters; 32 keeps atoms, equalities, and numeric
# predicates in the same preference order the live planner used.
_NOMINAL_N = 32.0


def compile_formula(
    formula: Formula, frame: tuple[str, ...], *, distribute: bool = True
) -> Plan:
    """Compile ``formula`` into a physical plan over exactly ``frame``.

    ``frame`` must cover the formula's free variables.  The plan is pure
    description — data independent and parameter symbolic — so it can be
    cached per (formula, frame) and replayed against any structure of any
    universe size with any update parameters.

    ``distribute`` is the one genuinely backend-sensitive choice: it turns
    on And-over-Or distribution and correlated filters.  Set-based
    executors want narrow per-arm join chains and filters seeded by their
    own rows (sparse intermediates), while the dense tensor executor
    evaluates a disjunction or complement as one vectorized op and pays
    ``n^k`` cells per tensor regardless — it compiles with
    ``distribute=False``.  This is why plan caches key on the backend.
    """
    return compile_formulas([(formula, frame)], distribute=distribute)[0]


def compile_formulas(
    formulas: Iterable[tuple[Formula, tuple[str, ...]]], *, distribute: bool = True
) -> list[Plan]:
    """Compile several ``(formula, frame)`` pairs with one compiler, so
    equal subformulas anywhere among them become one shared plan node —
    evaluated once per update by an executor that runs all the plans (a
    rule's Δ⁺ and Δ⁻ plans share most of their definition's formula)."""
    compiler = _Compiler(distribute=distribute)
    plans = []
    for formula, frame in formulas:
        missing = free_vars(formula) - set(frame)
        if missing:
            raise PlanError(f"frame {frame} does not bind {sorted(missing)}")
        plans.append(_align(compiler.plan(simplify(formula)), tuple(frame)))
    return plans


# Ad-hoc compile cache for direct evaluator use (rows()/truth() called with
# a formula rather than a plan).  Keyed by formula identity + frame with the
# formula pinned so its id stays valid; engine-level compilation goes through
# DynFOProgram.compile, which keeps its own per-(rule, backend, n) cache.
_ADHOC_LIMIT = 4096
_ADHOC_CACHE: dict[
    tuple[int, tuple[str, ...], bool], tuple[Formula, Plan]
] = {}


def cached_plan(
    formula: Formula, frame: tuple[str, ...], *, distribute: bool = True
) -> Plan:
    """:func:`compile_formula`, memoized on (formula identity, frame)."""
    key = (id(formula), frame, distribute)
    hit = _ADHOC_CACHE.get(key)
    if hit is not None and hit[0] is formula:
        return hit[1]
    plan = compile_formula(formula, frame, distribute=distribute)
    if len(_ADHOC_CACHE) >= _ADHOC_LIMIT:  # unbounded growth guard
        _ADHOC_CACHE.clear()
    _ADHOC_CACHE[key] = (formula, plan)
    return plan


def _align(plan: Plan, columns: tuple[str, ...]) -> Plan:
    """Extend and reorder ``plan`` so its columns are exactly ``columns``."""
    if isinstance(plan, EmptyScan):
        return plan if plan.columns == columns else EmptyScan(columns, label=plan.label)
    fresh = tuple(c for c in columns if c not in plan.columns)
    if fresh:
        plan = Extend(plan.columns + fresh, source=plan, fresh=fresh, label="widen")
    if plan.columns != columns:
        positions = tuple(plan.columns.index(c) for c in columns)
        plan = Project(columns, source=plan, positions=positions, label="align")
    return plan


def _is_const(term: Term) -> bool:
    return not isinstance(term, Var)


class _Compiler:
    """Single-use compiler; memoizes subplans by formula *value* so equal
    subformulas — shared between definitions, or rebuilt equal by a
    cofactor — become one shared plan node (evaluated once per update by
    the executors)."""

    def __init__(self, distribute: bool = True) -> None:
        self.distribute = distribute
        # A formula's value is interned bottom-up as a small int, cached per
        # formula object (pinned so its id stays valid): a lookup hashes one
        # node over its children's ints instead of a whole subtree.
        self._keys: dict[int, tuple[Formula, int]] = {}
        self._shapes: dict[tuple, int] = {}
        self._memo: dict[int, Plan] = {}
        self._widening: dict[int, tuple[Plan, bool]] = {}
        self._nnf: dict = {}  # to_nnf's memo, shared by every filter

    # -- dispatch -----------------------------------------------------------

    def _key(self, formula: Formula) -> int:
        cached = self._keys.get(id(formula))
        if cached is not None:
            return cached[1]
        if isinstance(formula, Not):
            shape: tuple = (Not, self._key(formula.body))
        elif isinstance(formula, (And, Or)):
            shape = (type(formula), *map(self._key, formula.parts))
        elif isinstance(formula, (Implies, Iff)):
            shape = (type(formula), self._key(formula.left), self._key(formula.right))
        elif isinstance(formula, (Exists, Forall)):
            shape = (type(formula), formula.vars, self._key(formula.body))
        else:  # a leaf hashes in O(arity)
            shape = (formula,)
        key = self._shapes.setdefault(shape, len(self._shapes))
        self._keys[id(formula)] = (formula, key)
        return key

    def plan(self, formula: Formula) -> Plan:
        key = self._key(formula)
        result = self._memo.get(key)
        if result is None:
            result = self._memo[key] = self._plan_uncached(formula)
        return result

    def _plan_uncached(self, formula: Formula) -> Plan:
        if isinstance(formula, TrueF):
            return UnitScan((), label="TrueF")
        if isinstance(formula, FalseF):
            return EmptyScan((), label="FalseF")
        if isinstance(formula, Atom):
            return self._plan_atom(formula)
        if isinstance(formula, (Eq, Le, Lt)):
            op = {Eq: "eq", Le: "le", Lt: "lt"}[type(formula)]
            return self._plan_compare(op, formula.left, formula.right)
        if isinstance(formula, Bit):
            return self._plan_compare("bit", formula.number, formula.index)
        if isinstance(formula, Implies):
            return self.plan(Or.of(Not(formula.left), formula.right))
        if isinstance(formula, Iff):
            return self.plan(
                Or.of(
                    And.of(formula.left, formula.right),
                    And.of(Not(formula.left), Not(formula.right)),
                )
            )
        if isinstance(formula, Forall):
            return self.plan(Not(Exists(formula.vars, Not(formula.body))))
        if isinstance(formula, Exists):
            return self._plan_exists(formula)
        if isinstance(formula, Or):
            return self._plan_or(formula)
        if isinstance(formula, And):
            return self._plan_and(formula.parts)
        if isinstance(formula, Not):
            return self._plan_not(formula)
        raise TypeError(f"unknown formula node {formula!r}")  # pragma: no cover

    # -- leaves -------------------------------------------------------------

    def _plan_atom(self, atom: Atom) -> Plan:
        fixed: list[tuple[int, Term]] = []
        var_positions: dict[str, list[int]] = {}
        columns: list[str] = []
        for position, arg in enumerate(atom.args):
            if _is_const(arg):
                fixed.append((position, arg))
            else:
                assert isinstance(arg, Var)
                if arg.name not in var_positions:
                    var_positions[arg.name] = []
                    columns.append(arg.name)
                var_positions[arg.name].append(position)
        direct = not fixed and all(
            len(positions) == 1 for positions in var_positions.values()
        )
        return AtomScan(
            tuple(columns),
            rel=atom.rel,
            args=atom.args,
            fixed=tuple(fixed),
            var_cols=tuple((v, tuple(var_positions[v])) for v in columns),
            direct=direct,
            label=f"Atom({atom.rel})",
        )

    def _plan_compare(self, op: str, left: Term, right: Term) -> Plan:
        label = op
        if _is_const(left) and _is_const(right):
            return CompareScan((), op=op, left=left, right=right, label=label)
        if op == "eq" and _is_const(left) != _is_const(right):
            # one constant side: a single-row bind, not a universe scan
            var, term = (left, right) if isinstance(left, Var) else (right, left)
            assert isinstance(var, Var)
            return ConstBind((var.name,), term=term, label="ConstBind")
        columns: list[str] = []
        for term in (left, right):
            if isinstance(term, Var) and term.name not in columns:
                columns.append(term.name)
        return CompareScan(tuple(columns), op=op, left=left, right=right, label=label)

    # -- connectives --------------------------------------------------------

    def _plan_exists(self, formula: Exists) -> Plan:
        body = formula.body
        if isinstance(body, Or):
            # push the quantifier into the disjunction to keep arms narrow
            return self.plan(
                Or.of(*(Exists(formula.vars, part) for part in body.parts))
            )
        inner = self.plan(body)
        keep = tuple(c for c in inner.columns if c not in formula.vars)
        if keep == inner.columns:
            return inner
        positions = tuple(inner.columns.index(c) for c in keep)
        return Project(keep, source=inner, positions=positions, label="Exists")

    def _plan_or(self, formula: Or) -> Plan:
        frame = tuple(sorted(free_vars(formula)))
        parts = tuple(_align(self.plan(p), frame) for p in formula.parts)
        return Union(frame, parts=parts, label="Or")

    def _plan_not(self, formula: Not) -> Plan:
        body = formula.body
        if isinstance(body, Not):  # double negation
            return self.plan(body.body)
        frame = tuple(sorted(free_vars(formula)))
        inner = _align(self.plan(body), frame)
        return Complement(frame, source=inner, label="Not")

    # -- conjunction planning ----------------------------------------------

    def _plan_and(self, conjuncts: tuple[Formula, ...], seed: Plan | None = None) -> Plan:
        """Plan a conjunction.  With a ``seed`` the conjunction is planned
        *correlated*: it starts from the seed's rows instead of ``{()}`` and
        the result is projected back onto the seed's columns, so any other
        free variable is read existentially (see :meth:`_make_filter`)."""
        conjuncts = list(conjuncts)
        # Distribute over wide disjunctive conjuncts only (>= 3 columns):
        # narrow ones materialize cheaply and join directly, while
        # distributing every disjunction cascades into exponential arms.
        # A seeded conjunction never distributes: its disjunctions are
        # filters on already-bound rows, and each arm would repeat the join.
        if self.distribute and seed is None:
            for i, part in enumerate(conjuncts):
                disjunction = _as_or(part)
                if disjunction is not None and len(free_vars(part)) >= 3:
                    rest = conjuncts[:i] + conjuncts[i + 1 :]
                    return self.plan(
                        Or.of(*(And.of(arm, *rest) for arm in disjunction.parts))
                    )
        cur: Plan = UnitScan((), label="And") if seed is None else seed
        remaining = conjuncts
        while remaining:
            bound = set(cur.columns)
            ready = [c for c in remaining if free_vars(c) <= bound]
            if ready:
                # guards (no free variables) first: they can empty the
                # result before any per-row work happens
                ready.sort(key=lambda c: len(free_vars(c)))
                for conjunct in ready:
                    cur = self._make_filter(cur, conjunct)
                kept = set(map(id, ready))
                remaining = [c for c in remaining if id(c) not in kept]
                continue
            generator = self._pick_generator(remaining, bound)
            if generator is not None:
                right = self.plan(generator)
                if isinstance(cur, UnitScan):
                    cur = right  # joining against {()} is the identity
                else:
                    extra = tuple(c for c in right.columns if c not in bound)
                    cur = HashJoin(
                        cur.columns + extra, left=cur, right=right, label="join"
                    )
                remaining = [c for c in remaining if c is not generator]
                continue
            # Only unmaterializable conjuncts (negations) with unbound
            # variables remain: widen by the most-demanded variable.
            var = _most_demanded_var(remaining, bound)
            cur = Extend(
                cur.columns + (var,), source=cur, fresh=(var,), label=f"widen by {var}"
            )
        if seed is not None and cur.columns != seed.columns:
            positions = tuple(cur.columns.index(c) for c in seed.columns)
            cur = Project(seed.columns, source=cur, positions=positions, label="Exists")
        return cur

    def _make_filter(self, source: Plan, conjunct: Formula) -> Plan:
        original = conjunct
        negated = False
        while isinstance(conjunct, Not):
            negated = not negated
            conjunct = conjunct.body
        if self.distribute and isinstance(conjunct, Forall):
            # ∀ȳ ψ == ¬∃ȳ ¬ψ: an antijoin, the inner negation pushed inward
            negated = not negated
            conjunct = Exists(conjunct.vars, to_nnf(Not(conjunct.body), self._nnf))
        condition = self.plan(conjunct)
        if self.distribute and condition.columns and self._widens(condition):
            # Correlated filter: standalone, the condition enumerates the
            # universe (n^k rows), yet only the filter's own rows can match —
            # so plan it seeded by them.  The dense executor pays n^k per
            # tensor regardless and keeps the complement (one vector op).
            conjunct = to_nnf(conjunct, self._nnf)
            if isinstance(conjunct, Or):
                # ψ1 ∨ ψ2 == ¬(¬ψ1 ∧ ¬ψ2): antijoin on a conjunction
                negated = not negated
                conjunct = to_nnf(Not(conjunct), self._nnf)
            if isinstance(conjunct, Exists):
                # the seed's columns are the free variables, which the
                # quantified names never collide with
                conjunct = conjunct.body
            seed = _align(source, tuple(c for c in source.columns if c in condition.columns))
            parts = conjunct.parts if isinstance(conjunct, And) else (conjunct,)
            condition = self._plan_and(parts, seed)
        elif condition.columns != tuple(sorted(condition.columns)):
            condition = _align(condition, tuple(sorted(condition.columns)))
        positions = tuple(source.columns.index(c) for c in condition.columns)
        return Filter(
            source.columns,
            source=source,
            condition=condition,
            negated=negated,
            positions=positions,
            fallback=original,
            label="filter ~" if negated else "filter",
        )

    def _widens(self, plan: Plan) -> bool:
        """Whether ``plan`` enumerates the universe over some column
        (memoized per node, pinned so its id stays valid)."""
        cached = self._widening.get(id(plan))
        if cached is None:
            widens = bool(plan.columns) and isinstance(plan, (Complement, Extend))
            cached = (plan, widens or any(map(self._widens, _children(plan))))
            self._widening[id(plan)] = cached
        return cached[1]

    # -- static cost model --------------------------------------------------

    def _pick_generator(
        self, remaining: list[Formula], bound: set[str]
    ) -> Formula | None:
        # negations and universals only shrink; never generate from them
        candidates = [c for c in remaining if not _shrinks_only(c)]
        if not candidates:
            return None
        if bound:
            sharing = [c for c in candidates if free_vars(c) & bound]
            if sharing:
                candidates = sharing
        return min(candidates, key=_static_cost)


def _as_or(part: Formula) -> Or | None:
    if isinstance(part, Or):
        return part
    if isinstance(part, Implies):
        rewritten = Or.of(Not(part.left), part.right)
        return rewritten if isinstance(rewritten, Or) else None
    if isinstance(part, Iff):
        return Or(
            (
                And.of(part.left, part.right),
                And.of(Not(part.left), Not(part.right)),
            )
        )
    return None


def _shrinks_only(formula: Formula) -> bool:
    """A negation, a universal, or a disjunction with such an arm: its
    standalone plan enumerates a universe complement, so it may filter
    bound rows but never generate them."""
    if isinstance(formula, (Not, Forall)):
        return True
    disjunction = _as_or(formula)
    return disjunction is not None and any(map(_shrinks_only, disjunction.parts))


def _static_cost(formula: Formula) -> float:
    """Estimated cardinality under a nominal universe — the compile-time
    stand-in for the live planner's ``structure.cardinality`` calls.  Stored
    relations are assumed sparse (about ``n`` rows per bound column pair),
    equalities are near free, order/BIT predicates cost a universe square."""
    n = _NOMINAL_N
    if isinstance(formula, Atom):
        width = len({a.name for a in formula.args if isinstance(a, Var)})
        return 2.0 * n ** max(width - 1, 0)
    if isinstance(formula, Eq):
        if _is_const(formula.left) or _is_const(formula.right):
            return 1.0
        return n
    if isinstance(formula, (Le, Lt, Bit)):
        return n ** len(free_vars(formula))
    if isinstance(formula, TrueF):
        return 1.0
    if isinstance(formula, FalseF):
        return 0.0
    # quantified / compound conjunct: pessimistic in its width
    return n ** len(free_vars(formula)) + n


def _most_demanded_var(remaining: list[Formula], bound: set[str]) -> str:
    counts: dict[str, int] = {}
    for conjunct in remaining:
        for var in free_vars(conjunct) - bound:
            counts[var] = counts.get(var, 0) + 1
    return max(sorted(counts), key=lambda v: counts[v])
