"""Verification harness: replay request scripts, check every answer.

The heart of the reproduction: a Dyn-FO program is *correct* when, after any
request prefix, every query agrees with a from-scratch (static) recomputation
on the input structure the prefix denotes.  :class:`ReplayHarness` maintains
the shadow input structure and invokes problem-specific
:class:`OracleChecker` callbacks after each request.

Two checker styles are supported:

* exact — compare the engine's answer with the oracle's unique answer
  (connectivity, parity, products, ...);
* property — validate an answer that is not unique (a maximal matching, a
  tie-broken spanning forest) against the defining property.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable, Protocol, Sequence

from ..logic.structure import Structure
from .engine import DynFOEngine
from .minimize import minimize_script
from .program import DynFOProgram
from .requests import Request, apply_request

if TYPE_CHECKING:  # pragma: no cover
    from .journal import RequestJournal

__all__ = [
    "OracleChecker",
    "VerificationError",
    "ReplayHarness",
    "verify_program",
    "check_memoryless",
    "minimize_script",
]


class VerificationError(AssertionError):
    """A Dyn-FO program disagreed with its oracle."""


class OracleChecker(Protocol):
    """Problem-specific consistency check, called after every request."""

    def __call__(self, inputs: Structure, engine: DynFOEngine) -> None:
        """Raise :class:`VerificationError` on any discrepancy."""


@dataclass
class ReplayHarness:
    """Runs a program and its shadow input structure in lock-step."""

    program: DynFOProgram
    n: int
    backend: str = "relational"
    checkers: Sequence[OracleChecker] = ()
    check_every: int = 1
    audit_every: int = 0
    journal: "RequestJournal | None" = None
    max_rows: int | None = None
    engine: DynFOEngine = field(init=False)
    inputs: Structure = field(init=False)
    steps: int = field(init=False, default=0)

    def __post_init__(self) -> None:
        self.engine = DynFOEngine(
            self.program,
            self.n,
            backend=self.backend,
            audit_every=self.audit_every,
            journal=self.journal,
            max_rows=self.max_rows,
        )
        self.inputs = Structure.initial(self.program.input_vocabulary, self.n)

    def step(self, request: Request) -> None:
        """Apply one request to both sides, then run due checkers."""
        self.engine.apply(request)
        apply_request(self.inputs, request, self.program.symmetric_inputs)
        self.steps += 1
        if self.check_every and self.steps % self.check_every == 0:
            self.check_now(context=str(request))

    def run(self, script: Iterable[Request]) -> None:
        for request in script:
            self.step(request)

    def check_now(self, context: str = "") -> None:
        for checker in self.checkers:
            try:
                checker(self.inputs, self.engine)
            except VerificationError as error:
                raise VerificationError(
                    f"{self.program.name} failed after step {self.steps}"
                    f"{' (' + context + ')' if context else ''}: {error}"
                ) from None

    def check_input_mirrored(self) -> None:
        """The auxiliary structure must embed the true input structure."""
        mirrored = self.engine.input_snapshot()
        if mirrored != self.inputs:
            raise VerificationError(
                f"{self.program.name}: auxiliary copy of the input diverged\n"
                f"expected:\n{self.inputs.describe()}\n"
                f"got:\n{mirrored.describe()}"
            )


def verify_program(
    program: DynFOProgram,
    n: int,
    script: Iterable[Request],
    checkers: Sequence[OracleChecker],
    backend: str = "relational",
    check_every: int = 1,
    check_mirror: bool = True,
    audit_every: int = 0,
    journal: "RequestJournal | None" = None,
    max_rows: int | None = None,
) -> ReplayHarness:
    """Replay ``script`` checking after every ``check_every`` requests.

    ``audit_every``/``journal``/``max_rows`` are forwarded to the engine
    (see :class:`DynFOEngine`): the run then additionally self-audits
    against from-scratch replays, journals every request to a write-ahead
    log, and/or caps the evaluation budget per update.

    Returns the harness (useful for further probing).  Raises
    :class:`VerificationError` on the first discrepancy.
    """
    harness = ReplayHarness(
        program,
        n,
        backend=backend,
        checkers=checkers,
        check_every=check_every,
        audit_every=audit_every,
        journal=journal,
        max_rows=max_rows,
    )
    for request in script:
        harness.step(request)
        if check_mirror:
            harness.check_input_mirrored()
    return harness


def check_memoryless(
    program: DynFOProgram,
    n: int,
    script_a: Sequence[Request],
    script_b: Sequence[Request],
    backend: str = "relational",
) -> None:
    """Check the paper's *memoryless* property on one witness pair: two
    scripts denoting the same input structure must produce the same
    auxiliary structure."""
    from .requests import evaluate_script

    input_a = evaluate_script(
        program.input_vocabulary, n, script_a, program.symmetric_inputs
    )
    input_b = evaluate_script(
        program.input_vocabulary, n, script_b, program.symmetric_inputs
    )
    if input_a != input_b:
        raise ValueError(
            "memorylessness witness scripts denote different input structures"
        )
    engine_a = DynFOEngine(program, n, backend=backend)
    engine_a.run(script_a)
    engine_b = DynFOEngine(program, n, backend=backend)
    engine_b.run(script_b)
    if engine_a.aux_snapshot() != engine_b.aux_snapshot():
        raise VerificationError(
            f"{program.name} is not memoryless on the given scripts:\n"
            f"A:\n{engine_a.structure.describe()}\n"
            f"B:\n{engine_b.structure.describe()}"
        )


def exact_boolean_checker(
    query_name: str, oracle: Callable[[Structure], bool]
) -> OracleChecker:
    """Checker comparing a boolean query with ``oracle(inputs)``."""

    def check(inputs: Structure, engine: DynFOEngine) -> None:
        expected = oracle(inputs)
        got = engine.ask(query_name)
        if expected != got:
            raise VerificationError(
                f"query {query_name!r}: oracle says {expected}, engine says {got}\n"
                f"input:\n{inputs.describe()}"
            )

    return check


def exact_relation_checker(
    query_name: str,
    oracle: Callable[[Structure], set[tuple[int, ...]]],
) -> OracleChecker:
    """Checker comparing a relational query with ``oracle(inputs)``."""

    def check(inputs: Structure, engine: DynFOEngine) -> None:
        expected = set(oracle(inputs))
        got = engine.query(query_name)
        if expected != got:
            missing = sorted(expected - got)[:8]
            extra = sorted(got - expected)[:8]
            raise VerificationError(
                f"query {query_name!r} mismatch; missing={missing} extra={extra}\n"
                f"input:\n{inputs.describe()}"
            )

    return check
