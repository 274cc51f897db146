"""repro — a full reproduction of Patnaik & Immerman,
*"Dyn-FO: A Parallel, Dynamic Complexity Class"* (PODS 1994).

Layers (bottom up):

* :mod:`repro.logic` — first-order logic over finite ordered structures:
  vocabularies, structures, formulas, parser/printer, and three
  cross-checked evaluators (naive, relational join-planning, dense
  CRAM-style tensors);
* :mod:`repro.dynfo` — the dynamic machinery of Section 3: requests,
  Dyn-FO programs (FO update rules + FO queries), the synchronous engine,
  and the replay/oracle verification harness;
* :mod:`repro.programs` — every construction of Sections 4 and 5.14, one
  module per theorem;
* :mod:`repro.reductions` — Section 5: first-order reductions,
  bounded-expansion checking, the transfer theorem, PAD, COLOR-REACH;
* :mod:`repro.baselines` — independent classical algorithms used as
  oracles and as the static-recompute benchmark arm;
* :mod:`repro.workloads` — seeded request-script generators;
* :mod:`repro.bench` — the table harness behind ``benchmarks/``.

Quickstart::

    from repro import DynFOEngine, make_reach_u_program

    engine = DynFOEngine(make_reach_u_program(), n=16)
    engine.insert("E", 3, 4)
    engine.insert("E", 4, 5)
    engine.ask("reach", s=3, t=5)   # True — by first-order updates alone
"""

from .dynfo import (
    BACKENDS,
    Delete,
    DynFOEngine,
    DynFOProgram,
    Insert,
    Query,
    RelationDef,
    ReplayHarness,
    Request,
    SetConst,
    UpdateRule,
    VerificationError,
    check_memoryless,
    verify_program,
)
from .logic import (
    Formula,
    RelationalEvaluator,
    Structure,
    Vocabulary,
    format_formula,
    holds,
    parse_formula,
)
from .programs import (
    PROGRAM_FACTORIES,
    make_bipartite_program,
    make_dyck_program,
    make_kedge_program,
    make_lca_program,
    make_matching_program,
    make_msf_program,
    make_multiplication_program,
    make_pad_reach_a_program,
    make_parity_program,
    make_reach_acyclic_program,
    make_reach_d_engine,
    make_reach_u_program,
    make_regular_program,
    make_transitive_reduction_program,
)
from .reductions import FirstOrderReduction, TransferredEngine, measure_expansion

__version__ = "1.0.0"


def __getattr__(name: str):
    # PEP 562: the dense evaluator (and numpy) load on first access only
    if name == "DenseEvaluator":
        from .logic.dense import DenseEvaluator

        return DenseEvaluator
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "__version__",
    # logic
    "Vocabulary",
    "Structure",
    "Formula",
    "parse_formula",
    "format_formula",
    "holds",
    "RelationalEvaluator",
    "DenseEvaluator",
    # dynfo
    "DynFOProgram",
    "DynFOEngine",
    "BACKENDS",
    "UpdateRule",
    "RelationDef",
    "Query",
    "Request",
    "Insert",
    "Delete",
    "SetConst",
    "ReplayHarness",
    "verify_program",
    "check_memoryless",
    "VerificationError",
    # programs
    "PROGRAM_FACTORIES",
    "make_parity_program",
    "make_reach_u_program",
    "make_reach_acyclic_program",
    "make_reach_d_engine",
    "make_transitive_reduction_program",
    "make_msf_program",
    "make_bipartite_program",
    "make_kedge_program",
    "make_matching_program",
    "make_lca_program",
    "make_regular_program",
    "make_multiplication_program",
    "make_dyck_program",
    "make_pad_reach_a_program",
    # reductions
    "FirstOrderReduction",
    "TransferredEngine",
    "measure_expansion",
]
