"""First-order logic over finite ordered structures — the paper's substrate.

Public surface:

* :class:`Vocabulary`, :class:`Structure` — relational signatures and
  database instances (paper Sec. 2);
* the formula AST in :mod:`repro.logic.syntax` and the combinator DSL in
  :mod:`repro.logic.dsl`;
* :func:`parse_formula` / :func:`format_formula` — concrete syntax;
* three interchangeable evaluators: :func:`holds`/:func:`naive_query`
  (reference semantics), :class:`RelationalEvaluator` (database-style join
  planning; the default), and :class:`DenseEvaluator` (vectorized CRAM[1]
  simulation, imported with numpy on first access to the name);
* :func:`duplicator_wins` — EF games for static inexpressibility demos.
"""

from .dsl import (
    Rel,
    bit,
    c,
    either_order,
    eq,
    eq2,
    exists,
    forall,
    le,
    lit,
    lt,
    neq,
)
from .evaluation import EvaluationError, eval_term, holds, naive_query
from .explain import explain, plan_events, render_plan
from .games import distinguishing_rank, duplicator_wins, partial_isomorphism
from .parser import ParseError, parse_formula
from .plan import (
    Plan,
    PlanError,
    cached_plan,
    compile_formula,
    plan_depth,
    plan_nodes,
)
from .printer import format_formula
from .structure import BatchUpdate, FrozenStructure, Structure, StructureError
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
from .relational import Relation, RelationalEvaluator, query
from .transform import (
    connective_depth,
    constants_of,
    formula_size,
    free_vars,
    quantifier_prefix,
    quantifier_rank,
    relations_of,
    simplify,
    standardize_apart,
    substitute,
    to_nnf,
    to_prenex,
)
from .vocabulary import ConstantSymbol, RelationSymbol, Vocabulary, VocabularyError

__all__ = [
    # vocabulary / structure
    "Vocabulary",
    "VocabularyError",
    "RelationSymbol",
    "ConstantSymbol",
    "Structure",
    "FrozenStructure",
    "StructureError",
    "BatchUpdate",
    # syntax
    "Term",
    "Var",
    "Const",
    "Lit",
    "Formula",
    "TrueF",
    "FalseF",
    "TOP",
    "BOT",
    "Atom",
    "Eq",
    "Le",
    "Lt",
    "Bit",
    "Not",
    "And",
    "Or",
    "Implies",
    "Iff",
    "Exists",
    "Forall",
    # dsl
    "Rel",
    "c",
    "lit",
    "eq",
    "neq",
    "le",
    "lt",
    "bit",
    "exists",
    "forall",
    "eq2",
    "either_order",
    # parsing / printing
    "parse_formula",
    "ParseError",
    "format_formula",
    # transforms
    "free_vars",
    "constants_of",
    "relations_of",
    "substitute",
    "standardize_apart",
    "to_nnf",
    "to_prenex",
    "quantifier_prefix",
    "simplify",
    "quantifier_rank",
    "connective_depth",
    "formula_size",
    # evaluation
    "holds",
    "eval_term",
    "naive_query",
    "EvaluationError",
    "Relation",
    "RelationalEvaluator",
    "query",
    "explain",
    "plan_events",
    "render_plan",
    "DenseEvaluator",
    # compiled plans
    "Plan",
    "PlanError",
    "compile_formula",
    "cached_plan",
    "plan_nodes",
    "plan_depth",
    # games
    "duplicator_wins",
    "distinguishing_rank",
    "partial_isomorphism",
]


def __getattr__(name: str):
    # PEP 562: the dense evaluator (and numpy) load on first access only
    if name == "DenseEvaluator":
        from .dense import DenseEvaluator

        return DenseEvaluator
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
