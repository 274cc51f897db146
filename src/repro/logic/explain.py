"""EXPLAIN: render compiled physical plans and executed join traces.

Dyn-FO update formulas *are* relational-calculus queries, so when one turns
out slow the right tool is a query plan.  Two views are offered:

* :func:`render_plan` — the *static* view: the physical plan a formula
  compiles to (:mod:`repro.logic.plan`), data free, exactly what the plan
  cache replays on every request; :func:`render_rule_plans` renders an
  update rule's plans the way the engine runs them (temporaries, then each
  definition's Δ⁺ and Δ⁻).
* :func:`explain` / :func:`plan_events` — the *dynamic* view: evaluate a
  formula with tracing enabled and render the executor's steps —
  per-subformula materializations with their column frames and live row
  counts, joins, filters, universe widenings.

>>> from repro.logic import Structure, Vocabulary
>>> from repro.logic.dsl import Rel, exists
>>> E = Rel("E")
>>> s = Structure(Vocabulary.parse("E^2"), 4, relations={"E": [(0, 1), (1, 2)]})
>>> print(explain(exists("z", E("x", "z") & E("z", "y")), s, ("x", "y")))
... # doctest: +ELLIPSIS
plan for frame ('x', 'y') ...
"""

from __future__ import annotations

from typing import Mapping

from .plan import (
    AtomScan,
    CompareScan,
    ConstBind,
    Extend,
    Filter,
    Plan,
    Union,
    plan_children,
    plan_depth,
    plan_nodes,
)
from .printer import format_term
from .relational import RelationalEvaluator
from .structure import Structure
from .syntax import Formula

__all__ = ["explain", "plan_events", "render_plan", "render_rule_plans"]


def _describe_node(node: Plan) -> str:
    kind = type(node).__name__
    if isinstance(node, AtomScan):
        args = ", ".join(format_term(a) for a in node.args)
        kind = f"AtomScan {node.rel}({args})" + (" [direct]" if node.direct else "")
    elif isinstance(node, CompareScan):
        kind = (
            f"CompareScan {format_term(node.left)} "
            f"{node.op} {format_term(node.right)}"
        )
    elif isinstance(node, ConstBind):
        kind = f"ConstBind {node.columns[0]} = {format_term(node.term)}"
    elif isinstance(node, Filter):
        kind = "Filter" + (" NOT" if node.negated else "")
    elif isinstance(node, Extend):
        kind = f"Extend +({', '.join(node.fresh)})"
    elif isinstance(node, Union):
        kind = f"Union of {len(node.parts)}"
    cols = f"({', '.join(node.columns)})" if node.columns else "()"
    label = f"  <- {node.label}" if node.label else ""
    return f"{kind} -> {cols}{label}"


def render_plan(plan: Plan, max_nodes: int = 400) -> str:
    """Render a compiled physical plan as an indented tree.

    Purely static — needs no structure or data; this is exactly what the
    plan cache replays per request.  Shared subplans (evaluated once per
    update by the executors) are printed in full the first time and
    referenced as ``= #k`` afterwards.
    """
    if not isinstance(plan, Plan):  # the naive reference's FormulaItem
        return f"naive enumeration of {plan.formula} over ({', '.join(plan.frame)})"
    nodes = plan_nodes(plan)
    widest = max(len(node.columns) for node in nodes)
    lines = [
        f"plan: {len(nodes)} nodes, depth {plan_depth(plan)}, "
        f"widest {widest} columns"
    ]
    numbered: dict[int, int] = {}
    shown = 0

    def rec(node: Plan, depth: int) -> None:
        nonlocal shown
        indent = "  " * depth
        if id(node) in numbered:
            lines.append(f"{indent}= #{numbered[id(node)]} (shared)")
            return
        numbered[id(node)] = len(numbered) + 1
        shown += 1
        if shown > max_nodes:
            lines.append(f"{indent}...")
            return
        lines.append(f"{indent}#{numbered[id(node)]} {_describe_node(node)}")
        for child in plan_children(node):
            rec(child, depth + 1)

    rec(plan, 0)
    return "\n".join(lines)


def render_rule_plans(owner: str, rule, compiled) -> list[str]:
    """Render the plans a compiled update rule runs, one block per plan:
    each temporary, then each definition's Δ⁺ and Δ⁻ plans (the tuples it
    adds and removes).  ``rule`` is the :class:`~repro.dynfo.program.UpdateRule`
    (for the frames), ``compiled`` its :class:`~repro.dynfo.program.CompiledRule`;
    blocks are headed ``owner :: name(frame)``."""
    blocks = []
    for temp, (name, plan) in zip(rule.temporaries, compiled.temporaries):
        blocks.append(f"{owner} [temp] :: {name}({', '.join(temp.frame)})\n{render_plan(plan)}")
    for definition, (name, plus, minus) in zip(rule.definitions, compiled.definitions):
        head = f"{owner} :: {name}({', '.join(definition.frame)})"
        blocks.append(f"{head} [delta+]\n{render_plan(plus)}")
        blocks.append(f"{head} [delta-]\n{render_plan(minus)}")
    return blocks


def plan_events(
    formula: Formula,
    structure: Structure,
    frame: tuple[str, ...],
    params: Mapping[str, int] | None = None,
    max_rows: int | None = None,
) -> tuple[list[tuple[int, str, tuple[str, ...], int]], set[tuple[int, ...]]]:
    """Evaluate with tracing; returns (events, result rows).

    Each event is ``(depth, description, columns, row_count)``.
    """
    trace: list = []
    kwargs = {} if max_rows is None else {"max_rows": max_rows}
    evaluator = RelationalEvaluator(structure, params, trace=trace, **kwargs)
    rows = evaluator.rows(formula, frame)
    return trace, rows


def explain(
    formula: Formula,
    structure: Structure,
    frame: tuple[str, ...],
    params: Mapping[str, int] | None = None,
    max_events: int = 200,
) -> str:
    """A human-readable plan for evaluating ``formula`` over ``frame``."""
    events, rows = plan_events(formula, structure, frame, params)
    lines = [
        f"plan for frame {frame} over universe {{0..{structure.n - 1}}} "
        f"-> {len(rows)} rows"
    ]
    shown = events[:max_events]
    for depth, event, columns, count in shown:
        indent = "  " * depth
        if columns:
            lines.append(f"{indent}{event}  cols={list(columns)}  rows={count}")
        else:
            lines.append(f"{indent}{event}")
    if len(events) > max_events:
        lines.append(f"... {len(events) - max_events} more events")
    peak = max((count for (_, _, _, count) in events), default=0)
    lines.append(f"peak intermediate size: {peak} rows over {len(events)} steps")
    return "\n".join(lines)
