"""Database-style evaluation of first-order formulas.

This is the default engine used by the Dyn-FO machinery.  Since PR 2 it is a
*plan executor*: :func:`repro.logic.plan.compile_formula` normalizes a
formula and fixes a greedy join order **once**, and this module replays the
resulting physical plan against the current structure — sets of tuples over
named columns, joined with the classic relational-algebra toolkit:

* atom and numeric-predicate scans materialize directly (an atom that is
  exactly a stored relation is borrowed zero-copy; a fully ground atom is an
  O(1) membership probe);
* conjunctions execute the compiled join order — cheap conjuncts are
  hash-joined, and any conjunct whose variables are already bound runs as a
  per-row *filter* (so negations and universal guards never materialize huge
  complements), with empty intermediates short-circuiting the chain;
* existential quantification is projection; universal quantification was
  compiled away as a negated existential.

The executor is exact (tested against :func:`repro.logic.evaluation.holds`
on random formulas) and is typically orders of magnitude faster than naive
enumeration on the update formulas of the paper.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from typing import Mapping

from .evaluation import EvaluationError, eval_term
from .plan import (
    AtomScan,
    CompareScan,
    Complement,
    ConstBind,
    EmptyScan,
    Extend,
    Filter,
    HashJoin,
    Plan,
    Project,
    Union,
    UnitScan,
    cached_plan,
)
from .structure import Structure
from .syntax import Formula, Var
from .transform import free_vars

__all__ = ["Relation", "RelationalEvaluator", "query"]

# Refuse to materialize relations larger than this many rows; it means a
# formula was written in a shape the planner cannot keep narrow.
DEFAULT_MAX_ROWS = 20_000_000

_COMPARE_TESTS = {
    "eq": lambda a, b: a == b,
    "le": lambda a, b: a <= b,
    "lt": lambda a, b: a < b,
    "bit": lambda a, b: bool((a >> b) & 1),
}

# A CompareScan's row set depends only on the operator, the fixed side's
# value (if any), and n — never on relation data — so the evaluator shares
# the materialized sets process-wide instead of rebuilding an O(n^2) set per
# evaluation.  Entries are read-only by convention: every consumer of
# Relation.rows in this module only reads, and execute() copies at the
# boundary.
_COMPARE_ROWS_CACHE: dict[tuple, set[tuple[int, ...]]] = {}


def _tuple_getter(positions: tuple[int, ...]):
    """Row projector always returning a tuple (itemgetter returns a bare
    value for a single position, and rejects zero positions)."""
    if len(positions) == 1:
        single = positions[0]
        return lambda row: (row[single],)
    if not positions:
        return lambda row: ()
    return operator.itemgetter(*positions)


@dataclass
class Relation:
    """A finite relation with named columns (an intermediate result)."""

    vars: tuple[str, ...]
    rows: set[tuple[int, ...]]

    @staticmethod
    def unit() -> "Relation":
        return Relation((), {()})

    @staticmethod
    def empty(vars: tuple[str, ...] = ()) -> "Relation":
        return Relation(vars, set())

    def project(self, onto: tuple[str, ...]) -> "Relation":
        index = [self.vars.index(v) for v in onto]
        return Relation(tuple(onto), {tuple(row[i] for i in index) for row in self.rows})

    def extend(self, var: str, universe: range) -> "Relation":
        """Cross product with the universe on a new column."""
        return Relation(
            self.vars + (var,),
            {row + (value,) for row in self.rows for value in universe},
        )

    def __len__(self) -> int:
        return len(self.rows)


class RelationalEvaluator:
    """Executes compiled plans against one fixed structure (and params).

    Node results are memoized per plan-node object, so create one evaluator
    per update step and reuse it for every update formula of that step —
    plan nodes shared between formulas (a guard used by several definitions)
    are then evaluated once.
    """

    def __init__(
        self,
        structure: Structure,
        params: Mapping[str, int] | None = None,
        max_rows: int = DEFAULT_MAX_ROWS,
        trace: list | None = None,
    ) -> None:
        self.structure = structure
        self.params = dict(params) if params else {}
        self.max_rows = max_rows
        # optional plan trace: (depth, event, columns, rows) tuples appended
        # as the executor works — see repro.logic.explain
        self.trace = trace
        self._depth = 0
        # id-keyed to avoid hashing plan trees; the node is pinned in the
        # value so its id cannot be recycled.
        self._results: dict[int, tuple[Plan, Relation]] = {}

    def _record(self, event: str, relation: Relation | None = None) -> None:
        if self.trace is not None:
            columns = relation.vars if relation is not None else ()
            rows = len(relation.rows) if relation is not None else 0
            self.trace.append((self._depth, event, columns, rows))

    # -- public API ---------------------------------------------------------

    def rows(self, formula: Formula, frame: tuple[str, ...]) -> set[tuple[int, ...]]:
        """Satisfying assignments of ``formula`` over the columns ``frame``."""
        missing = free_vars(formula) - set(frame)
        if missing:
            raise EvaluationError(f"frame {frame} does not bind {sorted(missing)}")
        return self.execute(cached_plan(formula, tuple(frame)))

    def truth(self, sentence: Formula) -> bool:
        """Truth value of a sentence (no free variables)."""
        if free_vars(sentence):
            raise EvaluationError("truth() requires a sentence")
        return bool(self._exec(cached_plan(sentence, ())).rows)

    def execute(self, plan: Plan) -> set[tuple[int, ...]]:
        """Run a compiled plan; returns a fresh set of result rows."""
        # copy at the boundary: the memoized relation may borrow a live
        # structure view (direct atom scan) or be shared between plans
        return set(self._exec(plan).rows)

    # -- helpers -------------------------------------------------------------

    def _check_size(self, relation: Relation) -> Relation:
        if len(relation.rows) > self.max_rows:
            raise EvaluationError(
                f"intermediate relation exceeded {self.max_rows} rows over "
                f"columns {relation.vars}; reshape the formula"
            )
        return relation

    def _value(self, term) -> int:
        return eval_term(term, self.structure, {}, self.params)

    # -- core dispatch --------------------------------------------------------

    def _exec(self, plan: Plan) -> Relation:
        cached = self._results.get(id(plan))
        if cached is not None:
            self._record(f"cached {plan.label or type(plan).__name__}", cached[1])
            return cached[1]
        self._depth += 1
        try:
            result = self._exec_node(plan)
        finally:
            self._depth -= 1
        self._check_size(result)
        self._results[id(plan)] = (plan, result)
        self._record(plan.label or type(plan).__name__, result)
        return result

    def _exec_node(self, plan: Plan) -> Relation:
        if isinstance(plan, UnitScan):
            return Relation.unit()
        if isinstance(plan, EmptyScan):
            return Relation.empty(plan.columns)
        if isinstance(plan, AtomScan):
            return self._exec_atom(plan)
        if isinstance(plan, CompareScan):
            return self._exec_compare(plan)
        if isinstance(plan, ConstBind):
            value = self._value(plan.term)
            if 0 <= value < self.structure.n:
                return Relation(plan.columns, {(value,)})
            return Relation.empty(plan.columns)
        if isinstance(plan, HashJoin):
            return self._exec_join(plan)
        if isinstance(plan, Filter):
            return self._exec_filter(plan)
        if isinstance(plan, Project):
            source = self._exec(plan.source)
            project = _tuple_getter(tuple(plan.positions))
            return Relation(plan.columns, {project(row) for row in source.rows})
        if isinstance(plan, Extend):
            relation = self._exec(plan.source)
            for var in plan.fresh:
                relation = self._check_size(
                    relation.extend(var, self.structure.universe)
                )
            return relation
        if isinstance(plan, Complement):
            return self._exec_complement(plan)
        if isinstance(plan, Union):
            out: set[tuple[int, ...]] = set()
            for part in plan.parts:
                out |= self._exec(part).rows
            return Relation(plan.columns, out)
        raise TypeError(f"unknown plan node {plan!r}")  # pragma: no cover

    # -- leaves ---------------------------------------------------------------

    def _exec_atom(self, plan: AtomScan) -> Relation:
        view = self.structure.relation_view(plan.rel)
        if plan.direct:
            # borrowed zero-copy view: never mutated by the executor, and
            # copied at the execute()/rows() boundary
            return Relation(plan.columns, view)
        fixed = [(pos, self._value(term)) for pos, term in plan.fixed]
        if not plan.var_cols:
            # fully ground atom: O(1) membership instead of a full scan
            probe = tuple(value for _, value in sorted(fixed))
            return Relation.unit() if probe in view else Relation.empty()
        if fixed:
            # indexed probe: O(matches) via the structure's hash index on
            # the fixed column positions instead of an O(|rel|) scan
            positions = tuple(pos for pos, _ in fixed)
            key = tuple(value for _, value in fixed)
            bucket = self.structure.index_on(plan.rel, positions).get(key)
            if not bucket:
                return Relation.empty(plan.columns)
            return Relation(plan.columns, self._scan_project(bucket, plan))
        # no fixed columns to index on (permuted or repeated variables)
        return Relation(plan.columns, self._scan_project(view, plan))

    @staticmethod
    def _scan_project(rows, plan: AtomScan) -> set[tuple[int, ...]]:
        """Project ``rows`` (full-arity tuples of ``plan.rel``) onto the
        plan's output columns, enforcing repeated-variable agreement.  One
        pass, precompiled projector, and the overwhelmingly common
        repeated-variable shape (one pair) gets a direct comparison instead
        of generic group machinery."""
        project = _tuple_getter(tuple(pos[0] for _, pos in plan.var_cols))
        groups = [pos for _, pos in plan.var_cols if len(pos) > 1]
        if not groups:
            return {project(row) for row in rows}
        if len(groups) == 1 and len(groups[0]) == 2:
            first, second = groups[0]
            return {project(row) for row in rows if row[first] == row[second]}
        return {
            project(row)
            for row in rows
            if all(row[g[0]] == row[p] for g in groups for p in g[1:])
        }

    def _exec_compare(self, plan: CompareScan) -> Relation:
        test = _COMPARE_TESTS[plan.op]
        universe = self.structure.universe
        left_var = isinstance(plan.left, Var)
        right_var = isinstance(plan.right, Var)
        if not left_var and not right_var:
            lval, rval = self._value(plan.left), self._value(plan.right)
            return Relation.unit() if test(lval, rval) else Relation.empty()
        if not left_var:
            lval = self._value(plan.left)
            return Relation(
                plan.columns,
                self._compare_rows(
                    ("l", plan.op, lval),
                    lambda: {(b,) for b in universe if test(lval, b)},
                ),
            )
        if not right_var:
            rval = self._value(plan.right)
            return Relation(
                plan.columns,
                self._compare_rows(
                    ("r", plan.op, rval),
                    lambda: {(a,) for a in universe if test(a, rval)},
                ),
            )
        if len(plan.columns) == 1:  # same variable on both sides
            return Relation(
                plan.columns,
                self._compare_rows(
                    ("s", plan.op),
                    lambda: {(a,) for a in universe if test(a, a)},
                ),
            )
        return Relation(
            plan.columns,
            self._compare_rows(
                ("2", plan.op),
                lambda: {(a, b) for a in universe for b in universe if test(a, b)},
            ),
        )

    def _compare_rows(self, key: tuple, build) -> set[tuple[int, ...]]:
        """Comparison row sets via the process-wide cache."""
        key = key + (self.structure.n,)
        rows = _COMPARE_ROWS_CACHE.get(key)
        if rows is None:
            rows = _COMPARE_ROWS_CACHE[key] = build()
        return rows

    # -- compound nodes ---------------------------------------------------------

    def _exec_join(self, plan: HashJoin) -> Relation:
        left = self._exec(plan.left)
        if not left.rows:
            return Relation.empty(plan.columns)
        right = self._exec(plan.right)
        # semijoin fast path: when one side's columns are a subset of the
        # other's, the join is a membership filter — no hash index to build,
        # and the surviving rows are reused rather than rebuilt.  Typical
        # shape: a comparison predicate (x <= y) or a param-bound atom
        # joined against a wide relation.
        semi = self._semijoin(left, right) or self._semijoin(right, left)
        if semi is not None:
            if semi.vars != plan.columns:
                semi = semi.project(plan.columns)
            return semi
        return self._fused_join(left, right, plan.columns)

    @staticmethod
    def _fused_join(
        left: Relation, right: Relation, columns: tuple[str, ...]
    ) -> Relation:
        """Hash join emitting ``columns`` directly: the build
        side's payload is projected once while indexing, and each output row
        is shaped in the same pass — no intermediate relation, no second
        projection sweep."""
        shared = [v for v in left.vars if v in right.vars]
        build, probe = (
            (left, right) if len(left.rows) <= len(right.rows) else (right, left)
        )
        extra_pos = tuple(i for i, v in enumerate(build.vars) if v not in probe.vars)
        combined = probe.vars + tuple(build.vars[i] for i in extra_pos)
        out_pos = tuple(combined.index(c) for c in columns)
        identity = out_pos == tuple(range(len(combined)))
        shape = _tuple_getter(out_pos)
        # extras are never empty: a build side fully inside the probe's
        # columns is a semijoin, handled before we get here
        extras = _tuple_getter(extra_pos)
        rows: set[tuple[int, ...]] = set()
        if not shared:  # cross product
            for prow in probe.rows:
                for brow in build.rows:
                    row = prow + extras(brow)
                    rows.add(row if identity else shape(row))
            return Relation(columns, rows)
        # scalar keys when one column is shared (cheaper to hash); both
        # sides use the same key shape, so lookups agree
        build_key = operator.itemgetter(*(build.vars.index(v) for v in shared))
        probe_key = operator.itemgetter(*(probe.vars.index(v) for v in shared))
        index: dict = {}
        setdefault = index.setdefault
        for row in build.rows:
            setdefault(build_key(row), []).append(extras(row))
        get = index.get
        for prow in probe.rows:
            matches = get(probe_key(prow))
            if not matches:
                continue
            if identity:
                for extra in matches:
                    rows.add(prow + extra)
            else:
                for extra in matches:
                    rows.add(shape(prow + extra))
        return Relation(columns, rows)

    @staticmethod
    def _semijoin(wide: Relation, narrow: Relation) -> Relation | None:
        """``wide`` filtered to rows whose ``narrow``-columns projection is
        in ``narrow``; None when ``narrow``'s columns aren't a subset."""
        if not set(narrow.vars) <= set(wide.vars):
            return None
        if not narrow.vars:  # nullary: non-empty means keep everything
            return wide if narrow.rows else Relation.empty(wide.vars)
        positions = tuple(wide.vars.index(v) for v in narrow.vars)
        allowed = narrow.rows
        if len(positions) == 1:
            single = positions[0]
            rows = {row for row in wide.rows if (row[single],) in allowed}
        else:
            project = operator.itemgetter(*positions)
            rows = {row for row in wide.rows if project(row) in allowed}
        return Relation(wide.vars, rows)

    def _exec_filter(self, plan: Filter) -> Relation:
        source = self._exec(plan.source)
        if not source.rows:
            return source
        condition = self._exec(plan.condition)
        if not condition.vars:
            # boolean guard, evaluated once: keep all rows or none
            satisfied = bool(condition.rows) != plan.negated
            return source if satisfied else Relation.empty(plan.columns)
        allowed = condition.rows
        if plan.positions == tuple(range(len(plan.columns))):
            # the condition covers every column (a correlated filter's
            # usual shape): plain set difference / intersection
            out_rows = source.rows - allowed if plan.negated else source.rows & allowed
            return Relation(plan.columns, out_rows)
        key = _tuple_getter(plan.positions)
        if plan.negated:
            out_rows = {row for row in source.rows if key(row) not in allowed}
        else:
            out_rows = {row for row in source.rows if key(row) in allowed}
        return Relation(plan.columns, out_rows)

    def _exec_complement(self, plan: Complement) -> Relation:
        width = len(plan.columns)
        n = self.structure.n
        if n**width > self.max_rows:
            raise EvaluationError(
                f"complement over {width} columns of a size-{n} universe "
                "is too large; let the conjunction planner bind it first"
            )
        inner = self._exec(plan.source)
        rows = {
            row
            for row in itertools.product(range(n), repeat=width)
            if row not in inner.rows
        }
        return Relation(plan.columns, rows)


def query(
    formula: Formula,
    structure: Structure,
    frame: tuple[str, ...],
    params: Mapping[str, int] | None = None,
) -> set[tuple[int, ...]]:
    """One-shot convenience wrapper around :class:`RelationalEvaluator`."""
    return RelationalEvaluator(structure, params).rows(formula, frame)
