"""Fault injection for chaos-testing the transactional engine.

The literature shows maintained auxiliary relations are genuinely easy to
get wrong (Zeume & Schwentick 2013; Datta et al. 2015), and Definition 3.1
makes the auxiliary structure the *only* state a run has — so the engine's
atomicity and auditing guarantees deserve adversarial tests, not just happy
paths.  :class:`FaultyBackend` wraps an evaluation backend — it runs that
backend's compiled items, so the sabotaged pipeline is the production one —
and misbehaves at a chosen evaluation position:

* ``"raise"`` — throw :class:`InjectedFault` (the transactional apply must
  leave the auxiliary structure untouched);
* ``"drop"`` — silently lose tuples from the evaluated rows (an in-universe
  corruption only an audit can catch);
* ``"corrupt"`` — silently rewrite tuples to different in-universe values
  (likewise audit-only);
* ``"corrupt_oob"`` — emit an out-of-universe tuple (the staging layer must
  reject the whole update with :class:`~.errors.UpdateError`).

Faults are seeded and keyed to the k-th ``execute()`` call — one per
temporary, per Δ⁺/Δ⁻ item, and per query — so a failing run is exactly
reproducible: ``fresh()`` returns a copy with the evaluation counter reset,
which is how the engine's audit replays its own (faulty) behaviour while
delta-debugging a repro script.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Mapping

from ..logic.structure import Structure
from .engine import BACKENDS

__all__ = ["FaultPlan", "FaultyBackend", "InjectedFault"]

_KINDS = frozenset({"raise", "drop", "corrupt", "corrupt_oob"})


class InjectedFault(RuntimeError):
    """The deliberate failure a ``"raise"`` fault plan throws."""


@dataclass(frozen=True)
class FaultPlan:
    """What to break and when.

    ``at`` is the 1-based index of the ``execute()`` call to sabotage,
    counted across the backend factory's lifetime; ``count`` is how many
    rows to drop/corrupt; ``seed`` drives the row choice.
    """

    kind: str
    at: int
    count: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; pick from {sorted(_KINDS)}"
            )
        if self.at < 1:
            raise ValueError(f"fault position is 1-based, got {self.at}")


class FaultyBackend:
    """A backend factory that sabotages the ``plan.at``-th ``execute()``.

    Drop-in for the engine's ``backend=`` argument:

    >>> engine = DynFOEngine(program, n,
    ...                      backend=FaultyBackend("relational",
    ...                                            FaultPlan("raise", at=3)))

    ``base`` names the wrapped backend: the engine runs that backend's
    compiled items through this wrapper, with the same evaluator arguments,
    and its audit replays by that name for the pristine reference.
    ``fresh()`` (a reset copy) is the audit's subject replay.
    """

    def __init__(
        self,
        base: str = "relational",
        plan: FaultPlan = FaultPlan("raise", at=1),
    ) -> None:
        if base not in BACKENDS:
            raise ValueError(
                f"unknown backend {base!r}; pick from {sorted(BACKENDS)}"
            )
        self.base = base
        self.plan = plan
        self.evaluations = 0
        self.faults_fired = 0

    def fresh(self) -> "FaultyBackend":
        """A copy with the evaluation counter reset — same deterministic
        misbehaviour on a fresh run."""
        return FaultyBackend(self.base, self.plan)

    def __call__(self, structure: Structure, params: Mapping[str, int], **kwargs):
        inner = BACKENDS[self.base](structure, params, **kwargs)
        return _FaultyEvaluator(self, inner, structure.n)

    # -- the sabotage itself -------------------------------------------------

    def _tick(self) -> bool:
        self.evaluations += 1
        return self.evaluations == self.plan.at

    def _sabotage_rows(
        self, rows: set[tuple[int, ...]], n: int
    ) -> set[tuple[int, ...]]:
        plan = self.plan
        self.faults_fired += 1
        if plan.kind == "raise":
            raise InjectedFault(
                f"injected fault at evaluation {plan.at}"
            )
        rows = set(rows)
        rng = random.Random(plan.seed)
        if plan.kind == "corrupt_oob":
            rows.add((n,) * (len(next(iter(rows))) if rows else 1))
            return rows
        victims = sorted(rows)
        rng.shuffle(victims)
        for victim in victims[: plan.count]:
            rows.discard(victim)
            if plan.kind == "corrupt" and victim:
                mutated = list(victim)
                index = rng.randrange(len(mutated))
                mutated[index] = (mutated[index] + 1 + rng.randrange(max(n - 1, 1))) % n
                rows.add(tuple(mutated))
        return rows


class _FaultyEvaluator:
    """Per-evaluation wrapper produced by :class:`FaultyBackend`."""

    def __init__(self, owner: FaultyBackend, inner, n: int) -> None:
        self._owner = owner
        self._inner = inner
        self._n = n

    def execute(self, plan) -> set[tuple[int, ...]]:
        fire = self._owner._tick()
        rows = self._inner.execute(plan)
        if fire:
            rows = self._owner._sabotage_rows(rows, self._n)
        return rows

    def bind(self, name: str, arity: int, rows: set[tuple[int, ...]]) -> None:
        # not an evaluation: fault positions count execute() calls only
        self._inner.bind(name, arity, rows)
