"""Dense boolean-tensor evaluation of FO formulas — an executable CRAM[1].

FO = CRAM[1] (Immerman): a first-order formula can be evaluated by a CRCW
PRAM with polynomially many processors in *constant* parallel time — one
parallel step per connective or quantifier block.  This evaluator realizes
that model literally, executing the same compiled physical plans as the
relational backend (:mod:`repro.logic.plan`) but with a tensor
interpretation: every plan node materializes a boolean ndarray with one axis
per output column, and every join / filter / union / complement / projection
is a single vectorized NumPy operation (the "parallel step").

The number of parallel steps performed is a property of the *plan* — a
quantity independent of the structure size ``n``, compiled once per formula
— while the *hardware* (tensor cells) is polynomial: ``n^w`` for the widest
plan node, which the compiler keeps at |frame| plus the quantifier-nesting
width rather than the total variable count.  Experiment E16 measures exactly
this.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

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
from .syntax import (
    And,
    Exists,
    Forall,
    Formula,
    Iff,
    Implies,
    Not,
    Or,
    Term,
    Var,
)
from .transform import free_vars

__all__ = ["DenseEvaluator"]

_COMPARE_UFUNCS = {
    "eq": np.equal,
    "le": np.less_equal,
    "lt": np.less,
}


class DenseEvaluator:
    """Executes compiled plans as boolean tensors over one fixed structure.

    API-compatible with :class:`repro.logic.relational.RelationalEvaluator`
    (``rows``, ``truth``, ``execute`` and ``bind``), so the Dyn-FO engine
    can swap backends.  Node results are memoized per plan-node object, like
    the relational executor — but *every* node is always evaluated (no
    data-dependent short-circuits), so ``parallel_steps`` depends only on
    the plan shape, never on the data.  A stored relation's tensor is the
    structure's own (:meth:`Structure.tensor`, kept current by every
    commit), so no request re-encodes a relation.
    """

    def __init__(
        self,
        structure: Structure,
        params: Mapping[str, int] | None = None,
        max_cells: int = 200_000_000,
    ) -> None:
        self.structure = structure
        self.params = dict(params) if params else {}
        self.max_cells = max_cells
        # the tensors of bound temporaries; a structure relation's tensor
        # is the structure's own (Structure.tensor), never written here
        self._relation_arrays: dict[str, np.ndarray] = {}
        # id-keyed per-node memo; the node is pinned so its id stays valid
        self._results: dict[int, tuple[Plan, np.ndarray]] = {}
        self.parallel_steps = 0  # vectorized ops in the last call

    # -- public API ----------------------------------------------------------

    def rows(self, formula: Formula, frame: tuple[str, ...]) -> set[tuple[int, ...]]:
        missing = free_vars(formula) - set(frame)
        if missing:
            raise EvaluationError(f"frame {frame} does not bind {sorted(missing)}")
        return self.execute(cached_plan(formula, tuple(frame), distribute=False))

    def truth(self, sentence: Formula) -> bool:
        if free_vars(sentence):
            raise EvaluationError("truth() requires a sentence")
        return bool(self.execute(cached_plan(sentence, (), distribute=False)))

    def execute(self, plan: Plan) -> set[tuple[int, ...]]:
        """Run a compiled plan; returns the result rows over its columns."""
        self.parallel_steps = 0
        array = self._exec(plan)
        if not array.any():  # e.g. a Δ plan on an update that changes nothing
            return set()
        if not plan.columns:
            return {()}
        full = np.broadcast_to(array, (self.structure.n,) * len(plan.columns))
        return {tuple(int(v) for v in hit) for hit in np.argwhere(full)}

    # -- term and relation tensors ----------------------------------------------

    def _term_array(self, term: Term, columns: tuple[str, ...]):
        """An integer ndarray (broadcastable over ``columns``) holding the
        term's value."""
        if isinstance(term, Var):
            axis = columns.index(term.name)
            shape = [1] * len(columns)
            shape[axis] = self.structure.n
            return np.arange(self.structure.n).reshape(shape)
        return np.array(eval_term(term, self.structure, {}, self.params))

    def _relation_array(self, name: str) -> np.ndarray:
        bound = self._relation_arrays.get(name)
        return bound if bound is not None else self.structure.tensor(name)

    def bind(self, name: str, arity: int, rows: set[tuple[int, ...]]) -> None:
        """Make ``rows`` the relation ``name`` for every later plan; its
        tensor lives in this evaluator, never on the structure."""
        self._relation_arrays[name] = self.structure.rows_tensor(arity, rows)

    # -- plan execution ---------------------------------------------------------

    def _exec(self, plan: Plan) -> np.ndarray:
        cached = self._results.get(id(plan))
        if cached is not None:
            return cached[1]
        # the budget, checked per node before it allocates its tensor
        width, n = len(plan.columns), self.structure.n
        if width and n**width > self.max_cells:
            raise EvaluationError(
                f"dense evaluation needs n^{width} cells; "
                f"n={n} exceeds the {self.max_cells}-cell budget"
            )
        result = self._exec_node(plan)
        self._results[id(plan)] = (plan, result)
        return result

    def _expand(
        self, array: np.ndarray, columns: tuple[str, ...], out: tuple[str, ...]
    ) -> np.ndarray:
        """Permute ``array``'s axes (one per column) into the order of
        ``out`` and insert broadcast axes for missing columns.  Axes may be
        size one (broadcast semantics: the value is column-independent), so
        this never materializes anything."""
        order = sorted(range(len(columns)), key=lambda i: out.index(columns[i]))
        if order != list(range(len(columns))):
            array = np.transpose(array, order)
        if len(out) != len(columns):
            ordered = [columns[i] for i in order]
            shape = []
            j = 0
            for column in out:
                if j < len(ordered) and ordered[j] == column:
                    shape.append(array.shape[j])
                    j += 1
                else:
                    shape.append(1)
            array = array.reshape(shape)
        return array

    def _exec_node(self, plan: Plan) -> np.ndarray:
        if isinstance(plan, UnitScan):
            return np.array(True)
        if isinstance(plan, EmptyScan):
            return np.zeros((1,) * len(plan.columns), dtype=bool)
        if isinstance(plan, AtomScan):
            return self._exec_atom(plan)
        if isinstance(plan, CompareScan):
            return self._exec_compare(plan)
        if isinstance(plan, ConstBind):
            self.parallel_steps += 1
            value = eval_term(plan.term, self.structure, {}, self.params)
            return np.arange(self.structure.n) == value
        if isinstance(plan, HashJoin):
            left = self._exec(plan.left)
            right = self._exec(plan.right)
            self.parallel_steps += 1
            return self._expand(left, plan.left.columns, plan.columns) & self._expand(
                right, plan.right.columns, plan.columns
            )
        if isinstance(plan, Filter):
            source = self._exec(plan.source)
            condition = self._exec(plan.condition)
            self.parallel_steps += 1
            aligned = self._expand(condition, plan.condition.columns, plan.columns)
            return source & ~aligned if plan.negated else source & aligned
        if isinstance(plan, Project):
            source = self._exec(plan.source)
            src_cols = plan.source.columns
            drop = tuple(i for i, c in enumerate(src_cols) if c not in plan.columns)
            self.parallel_steps += 1
            # a size-one dropped axis is already column-independent; only
            # reduce the live ones, then squeeze all dropped axes away
            live = tuple(a for a in drop if source.shape[a] != 1)
            if live:
                source = np.any(source, axis=live, keepdims=True)
            if drop:
                source = source.reshape(
                    [s for i, s in enumerate(source.shape) if i not in drop]
                )
            kept = tuple(c for c in src_cols if c in plan.columns)
            return self._expand(source, kept, plan.columns)
        if isinstance(plan, Extend):
            source = self._exec(plan.source)
            self.parallel_steps += 1
            return self._expand(source, plan.source.columns, plan.columns)
        if isinstance(plan, Complement):
            # negation is broadcast-safe: size-one axes stay size one
            source = self._exec(plan.source)
            self.parallel_steps += 1
            return ~source
        if isinstance(plan, Union):
            arrays = [self._exec(part) for part in plan.parts]
            self.parallel_steps += 1
            result = arrays[0]
            for array in arrays[1:]:
                result = result | array
            return result
        raise TypeError(f"unknown plan node {plan!r}")  # pragma: no cover

    def _exec_atom(self, plan: AtomScan) -> np.ndarray:
        rel = self._relation_array(plan.rel)
        if not plan.args:
            return rel  # scalar
        index = [self._term_array(arg, plan.columns) for arg in plan.args]
        # advanced indexing broadcasts the index arrays together, yielding
        # one axis per output column
        return rel[tuple(index)]

    def _exec_compare(self, plan: CompareScan) -> np.ndarray:
        left = self._term_array(plan.left, plan.columns)
        right = self._term_array(plan.right, plan.columns)
        self.parallel_steps += 1
        if plan.op == "bit":
            result = ((left >> right) & 1).astype(bool)
        else:
            result = _COMPARE_UFUNCS[plan.op](left, right)
        if result.ndim != len(plan.columns):
            result = np.reshape(result, (1,) * len(plan.columns))
        return result


def _assign_axes(
    formula: Formula, frame: tuple[str, ...]
) -> tuple[dict[str, int], int]:
    """Scope-aware axis assignment: frame variables get dedicated leading
    axes; bound variables (unique names after standardize-apart) are
    allocated from a free pool on quantifier entry and released on exit, so
    *sibling* quantifier scopes share axes.  The tensor rank is therefore
    |frame| + maximum quantifier-nesting width, not the total number of
    distinct variables — the difference between n^26 and n^7 on the larger
    update formulas.  (The plan compiler achieves the same bound via
    projection; this function remains the direct formula-level analysis used
    by experiment E16 and the width diagnostics.)"""
    axes: dict[str, int] = {name: i for i, name in enumerate(frame)}
    free_pool: list[int] = []
    allocated = len(frame)

    def rec(node: Formula) -> None:
        nonlocal allocated
        if isinstance(node, (Exists, Forall)):
            taken: list[int] = []
            for var in node.vars:
                if free_pool:
                    axis = free_pool.pop()
                else:
                    axis = allocated
                    allocated += 1
                axes[var] = axis
                taken.append(axis)
            rec(node.body)
            free_pool.extend(taken)
        elif isinstance(node, Not):
            rec(node.body)
        elif isinstance(node, (And, Or)):
            for part in node.parts:
                rec(part)
        elif isinstance(node, (Implies, Iff)):
            rec(node.left)
            rec(node.right)

    rec(formula)
    return axes, allocated
