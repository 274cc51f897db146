"""The Dyn-FO execution engine.

Maintains the auxiliary structure ``f(r-bar)`` of Definition 3.1 and applies
the program's first-order update rules per request, with the paper's
*simultaneous* (synchronous) semantics: every primed relation is computed
against the pre-update structure, then all are swapped in atomically.

Three evaluation backends are available (see DESIGN.md E15):

* ``"relational"`` — database-style join planning (default, fastest in
  typical sparse cases);
* ``"dense"`` — vectorized boolean tensors, a literal CRAM[1] simulation
  (its module, and numpy with it, is imported on the first dense request);
* ``"naive"`` — brute-force reference semantics (small n only).

Every backend runs the same update pipeline: each rule is compiled once
per ``(backend, n)`` (:meth:`DynFOProgram.compile`) and each request runs,
in one evaluator, the rule's temporaries (each ``bind``-ed into that
evaluator as it is computed) and then each definition's Δ⁺/Δ⁻ items, all
through the evaluator's ``execute``.  A backend may also be a wrapper: a
callable ``factory(structure, params, **kwargs) -> evaluator`` whose
``base`` attribute names the backend whose compiled items it runs (e.g.
:class:`~.faults.FaultyBackend` for chaos testing); its evaluator provides
``execute`` and ``bind``.

``apply`` is *transactional*: the request is validated up front
(:class:`~.errors.RequestValidationError`), every primed relation, mirror
edit, and constant write is staged against the pre-update structure, and
only a fully validated batch is committed.  Any failure mid-update —
a buggy formula, a misbehaving backend, an out-of-universe row — raises
:class:`~.errors.UpdateError` and leaves the auxiliary structure provably
untouched, so the request can simply be retried.

With ``audit_every=N`` the engine additionally cross-checks its auxiliary
structure against a from-scratch replay every N requests and raises
:class:`~.errors.IntegrityError` (carrying a ddmin-minimized repro script)
on divergence.  With ``journal=RequestJournal(...)`` every accepted request
is fsync'd to a write-ahead log before commit (see :mod:`.journal`).
"""

from __future__ import annotations

from time import monotonic_ns as _monotonic_ns
from typing import TYPE_CHECKING, Callable, Mapping

from ..logic.evaluation import EvaluationError, NaiveEvaluator
from ..logic.relational import RelationalEvaluator
from ..logic.structure import BatchUpdate, Structure, StructureError
from .errors import (
    EngineError,
    IntegrityError,
    RequestValidationError,
    UpdateError,
)
from .minimize import minimize_script
from .program import DynFOProgram, Query, UpdateRule, member_param
from .requests import Delete, Insert, Operation, Request, SetConst

if TYPE_CHECKING:  # pragma: no cover
    from .journal import RequestJournal

__all__ = ["DynFOEngine", "BACKENDS", "UnsupportedRequest"]


class UnsupportedRequest(RequestValidationError):
    """Raised when a program has no rule for the given request kind."""


def _dense_evaluator(*args, **kwargs):
    """A :class:`~repro.logic.dense.DenseEvaluator`; the dense module and
    numpy load on the first call, so a process that never runs the dense
    backend never imports them."""
    from ..logic.dense import DenseEvaluator

    return DenseEvaluator(*args, **kwargs)


BACKENDS: dict[str, Callable[..., object]] = {
    "relational": RelationalEvaluator,
    "dense": _dense_evaluator,
    "naive": NaiveEvaluator,
}


def _update_stats(
    changes: Mapping[str, tuple[set, set]], temporary_tuples: int = 0
) -> dict[str, int]:
    """A request's work accounting from its per-relation ``(added,
    removed)`` change.  ``tuples_written`` counts the rows the Δ⁺/Δ⁻ items
    emitted (the "parallel work" measure of experiment E19), which is
    ``tuples_added + tuples_removed`` on every backend."""
    added = sum(len(plus) for plus, _ in changes.values())
    removed = sum(len(minus) for _, minus in changes.values())
    return {
        "relations_redefined": len(changes),
        "tuples_written": added + removed,
        "temporary_tuples": temporary_tuples,
        "tuples_added": added,
        "tuples_removed": removed,
    }


class DynFOEngine:
    """Runs one :class:`DynFOProgram` at a fixed universe size ``n``."""

    def __init__(
        self,
        program: DynFOProgram,
        n: int,
        backend: str | Callable[..., object] = "relational",
        audit_every: int = 0,
        journal: "RequestJournal | None" = None,
        max_rows: int | None = None,
    ) -> None:
        # a wrapper names the backend whose compiled items it runs
        name = backend if isinstance(backend, str) else getattr(backend, "base", None)
        if not isinstance(name, str) or name not in BACKENDS:
            raise ValueError(
                f"unknown backend {backend!r}; pick from {sorted(BACKENDS)} "
                "(a callable backend names one in its base attribute)"
            )
        self.backend_name = name
        self._backend = backend
        self._backend_factory = BACKENDS[name] if isinstance(backend, str) else backend
        # only the engine's own executors emit rows guaranteed in-arity and
        # in-universe; rows from the naive reference and from wrappers are
        # validated tuple by tuple at staging
        self._trusted = isinstance(backend, str) and name != "naive"
        self.max_rows = max_rows
        if max_rows is not None:
            if name == "naive":
                raise ValueError(
                    "max_rows requires the relational or dense backend "
                    f"(got {name!r})"
                )
            if max_rows <= 0:
                raise ValueError(f"max_rows must be positive, got {max_rows}")
        # The program's plan cache for (backend, n): each rule is compiled
        # once, and every request runs its items, binding the request's
        # parameters at execute time, and stages the Δ⁺/Δ⁻ rows as each
        # relation's (added, removed) pair.
        self.compiled = program.compile(name, n)
        self.program = program
        self.n = n
        self.structure = program.initial(n)
        if self.structure.vocabulary != program.aux_vocabulary:
            raise ValueError("initial structure has the wrong vocabulary")
        if self.structure.n != n:
            raise ValueError("initial structure has the wrong universe size")
        self.requests_applied = 0
        self.audit_every = audit_every
        self._journal = journal
        # audits replay the request log from this baseline (the initial
        # structure, or the snapshot an engine was restored from)
        self._audit_base = self.structure.copy()
        self._audit_log: list[Request] = []
        # work accounting for the last request (see _update_stats)
        self.last_update_stats = _update_stats({})
        # observability hook: when set, called as hook(kind, name, ns) for
        # every temporary/primed-relation evaluation and journal append of
        # an apply.  None (the default) costs one load-and-test per
        # evaluation, nothing more — the serving layer sets it only for the
        # duration of an explicitly traced request.
        self.eval_timing_hook: Callable[[str, str, int], None] | None = None

    # -- request application -----------------------------------------------------

    def insert(self, rel: str, *tup: int) -> None:
        self.apply(Insert(rel, tuple(tup)))

    def delete(self, rel: str, *tup: int) -> None:
        self.apply(Delete(rel, tuple(tup)))

    def set_const(self, name: str, value: int) -> None:
        self.apply(SetConst(name, value))

    def apply(self, request: Request) -> None:
        """Apply one request transactionally.

        Pipeline: validate the request, evaluate the rule against the
        current structure (the rule's temporaries — the paper's scratch
        relations such as T and New — first, in order, each held by the
        request's evaluator for the definitions to read; then each primed
        relation's change, its Δ⁺ and Δ⁻ items), stage every write,
        journal the request, then commit the batch in one infallible step.
        On any failure before commit the auxiliary structure is
        untouched."""
        rule, params, mirror = self._dispatch(request)
        batch, stats = self._stage(request, rule, params, mirror)
        journal = self._journal
        if journal is not None:
            effects = batch.effects()
            self._timed_execute(
                "journal",
                "append",
                lambda: journal.append(self.requests_applied, request, effects),
            )
        self._commit(request, batch, stats)

    def _commit(
        self, request: Request, batch: BatchUpdate, stats: dict[str, int]
    ) -> None:
        """The commit tail :meth:`apply` and :meth:`apply_effects` share:
        commit (which patches the structure's indexes and tensors), then
        stats, counter and audit."""
        batch.commit()
        self.last_update_stats = stats
        self.requests_applied += 1
        if self.audit_every > 0:
            self._audit_log.append(request)
            if self.requests_applied % self.audit_every == 0:
                self.audit()

    def _timed_execute(self, kind: str, name: str, thunk):
        """Run ``thunk``, reporting its wall time to ``eval_timing_hook``
        (when one is set) as ``hook(kind, name, ns)``.  The disabled path is
        one load-and-test — cheap enough for every evaluation site."""
        hook = self.eval_timing_hook
        if hook is None:
            return thunk()
        started = _monotonic_ns()
        result = thunk()
        hook(kind, name, _monotonic_ns() - started)
        return result

    def _stage(
        self,
        request: Request,
        rule: UpdateRule,
        params: Mapping[str, int],
        mirror: tuple[str, str, tuple[int, ...]] | None,
    ) -> tuple[BatchUpdate, dict[str, int]]:
        """Evaluate the rule in one evaluator and stage every write; never
        mutates ``self.structure``.  Each temporary is ``bind``-ed into the
        evaluator (validated first unless the backend is trusted), where the
        definitions read it through the same node memo."""
        temporary_tuples = 0
        try:
            # compiled once per (rule, backend, n), then a cache hit forever;
            # the evaluator binds ``params`` when it executes the items
            compiled = self.compiled.rule_plans(rule)
            evaluator = self._make_evaluator(params)
            for temp, (name, plan) in zip(rule.temporaries, compiled.temporaries):
                rows = self._timed_execute(
                    "temporary", name, lambda: evaluator.execute(plan)
                )
                arity = len(temp.frame)
                if not self._trusted:
                    rows = {self.structure._check_tuple(name, t, arity) for t in rows}
                temporary_tuples += len(rows)
                evaluator.bind(name, arity, rows)
            # name -> (tuples added, tuples removed): each definition's
            # change straight from its Δ⁺ and Δ⁻ items, nothing to diff
            changes: dict[str, tuple[set[tuple[int, ...]], set[tuple[int, ...]]]] = {}
            for name, plus, minus in compiled.definitions:
                changes[name] = self._timed_execute(
                    "definition",
                    name,
                    lambda: (evaluator.execute(plus), evaluator.execute(minus)),
                )
        except EngineError:
            raise
        except Exception as error:
            raise UpdateError(
                f"evaluating the update for {request} failed: {error}"
            ) from error
        batch = self.structure.begin_batch()
        defined = rule.defined_names()
        try:
            for name, (added, removed) in changes.items():
                if self._trusted:
                    batch.stage_edits_trusted("add", name, added)
                    batch.stage_edits_trusted("discard", name, removed)
                else:
                    for tup in added:
                        batch.add(name, tup)
                    for tup in removed:
                        batch.discard(name, tup)
            if mirror is not None and mirror[1] not in defined:
                # default maintenance of the input relation's auxiliary copy
                kind, rel, tup = mirror
                if self.program.aux_vocabulary.has_relation(rel):
                    if kind == "ins":
                        batch.add(rel, tup)
                    else:
                        batch.discard(rel, tup)
            if isinstance(request, SetConst) and self.program.aux_vocabulary.has_constant(
                request.name
            ):
                batch.set_constant(request.name, request.value)
            if isinstance(request, Operation):
                # default maintenance of input copies the rule leaves implicit
                for basic in request.expansion:
                    if (
                        isinstance(basic, (Insert, Delete))
                        and basic.rel not in defined
                        and self.program.aux_vocabulary.has_relation(basic.rel)
                    ):
                        self._stage_basic(batch, basic)
        except StructureError as error:
            raise UpdateError(
                f"staging the update for {request} was rejected: {error}"
            ) from error
        return batch, _update_stats(changes, temporary_tuples)

    def _make_evaluator(self, params: Mapping[str, int]):
        """A backend evaluator over the structure, honouring the engine's
        materialization budget (``max_rows``); a wrapper receives the same
        arguments."""
        kwargs: dict = {}
        if self.max_rows is not None:
            budget = "max_rows" if self.backend_name == "relational" else "max_cells"
            kwargs[budget] = self.max_rows
        return self._backend_factory(self.structure, params, **kwargs)

    def _stage_basic(self, batch: BatchUpdate, basic: Insert | Delete) -> None:
        """Stage one basic input edit, honouring the program's undirected
        convention (both orientations for symmetric relations)."""
        edit = batch.add if isinstance(basic, Insert) else batch.discard
        edit(basic.rel, basic.tup)
        if basic.rel in self.program.symmetric_inputs and len(basic.tup) >= 2:
            tup = basic.tup
            edit(basic.rel, (tup[1], tup[0]) + tup[2:])

    # -- request validation ------------------------------------------------------

    def _check_element(self, value: int, what: str) -> None:
        if not isinstance(value, int) or isinstance(value, bool):
            raise RequestValidationError(
                f"{what} must be an int, got {value!r}"
            )
        if not 0 <= value < self.n:
            raise RequestValidationError(
                f"{what} is {value}, outside the universe {{0..{self.n - 1}}}"
            )

    def _check_tuple(self, request: Request, rel: str, tup: tuple[int, ...], rule: UpdateRule) -> None:
        if len(tup) != len(rule.params):
            raise RequestValidationError(
                f"{request} carries {len(tup)} components but the rule for "
                f"{rel!r} expects {len(rule.params)} ({', '.join(rule.params)})"
            )
        for i, value in enumerate(tup):
            self._check_element(value, f"component {i} of {request}")

    def _dispatch(self, request: Request):
        """Find the request's rule and validate the request against it.

        Raises :class:`UnsupportedRequest` when the program has no rule and
        :class:`RequestValidationError` on arity/universe violations — both
        before anything is evaluated or written."""
        program = self.program
        if isinstance(request, Insert):
            rule = program.on_insert.get(request.rel)
            if rule is None:
                raise UnsupportedRequest(
                    f"{program.name} has no insert rule for {request.rel!r}"
                )
            self._check_tuple(request, request.rel, request.tup, rule)
            params = dict(zip(rule.params, request.tup))
            return rule, params, ("ins", request.rel, request.tup)
        if isinstance(request, Delete):
            rule = program.on_delete.get(request.rel)
            if rule is None:
                raise UnsupportedRequest(
                    f"{program.name} has no delete rule for {request.rel!r}"
                )
            self._check_tuple(request, request.rel, request.tup, rule)
            params = dict(zip(rule.params, request.tup))
            return rule, params, ("del", request.rel, request.tup)
        if isinstance(request, SetConst):
            rule = program.on_set.get(request.name)
            if rule is None:
                raise UnsupportedRequest(
                    f"{program.name} has no set rule for {request.name!r}"
                )
            self._check_element(request.value, f"value of {request}")
            return rule, {rule.params[0]: request.value}, None
        if isinstance(request, Operation):
            rule = program.on_operation.get(request.name)
            if rule is None:
                raise UnsupportedRequest(
                    f"{program.name} has no operation rule for {request.name!r}"
                )
            if len(request.args) != len(rule.params):
                raise UnsupportedRequest(
                    f"operation {request.name!r} takes {len(rule.params)} "
                    f"arguments, got {len(request.args)}"
                )
            for i, value in enumerate(request.args):
                self._check_element(value, f"argument {i} of {request}")
            return rule, dict(zip(rule.params, request.args)), None
        raise RequestValidationError(f"unknown request {request!r}")

    def run(self, script) -> None:
        """Apply a whole request script."""
        for request in script:
            self.apply(request)

    # -- journaling --------------------------------------------------------------

    def attach_journal(self, journal: "RequestJournal | None") -> None:
        """Attach (or, with ``None``, detach) a write-ahead request journal.
        Subsequent accepted requests are appended before commit."""
        self._journal = journal

    @property
    def journal(self) -> "RequestJournal | None":
        return self._journal

    # -- integrity auditing ------------------------------------------------------

    def _subject_backend(self) -> str | Callable[..., object]:
        """A deterministic fresh copy of the configured backend (fault
        counters reset), for replaying the engine's own behaviour."""
        fresh = getattr(self._backend, "fresh", None)
        return fresh() if callable(fresh) else self._backend

    def _replay(self, script, backend) -> "DynFOEngine":
        clone = DynFOEngine(self.program, self.n, backend=backend)
        clone.structure = self._audit_base.copy()
        for request in script:
            clone.apply(request)
        return clone

    def _divergence_detail(self, other: Structure) -> str:
        parts = []
        for rel in self.program.aux_vocabulary:
            mine = self.structure.relation_view(rel.name)
            theirs = other.relation_view(rel.name)
            if mine != theirs:
                extra = sorted(mine - theirs)[:4]
                missing = sorted(theirs - mine)[:4]
                parts.append(f"{rel.name}: extra={extra} missing={missing}")
        for name, value in self.structure.constants().items():
            if other.constant(name) != value:
                parts.append(f"{name}: {value} != {other.constant(name)}")
        return "; ".join(parts)

    def audit(self) -> None:
        """Cross-check the auxiliary structure against a from-scratch replay
        of the request log (run automatically every ``audit_every``
        requests).  On divergence, raise :class:`IntegrityError` carrying a
        ddmin-minimized repro script no longer than the audited log."""
        if self.audit_every <= 0:
            raise EngineError(
                "auditing requires audit_every > 0 (the engine only records "
                "its request log when auditing is enabled)"
            )
        script = tuple(self._audit_log)
        # the reference replays by base name: the production pipeline,
        # with any wrapper stripped
        reference = self._replay(script, self.backend_name)
        if reference.structure == self.structure:
            return
        detail = self._divergence_detail(reference.structure)

        def diverges(candidate) -> bool:
            try:
                subject = self._replay(candidate, self._subject_backend())
                pristine = self._replay(candidate, self.backend_name)
            except EngineError:
                # a subscript on which the faulty backend aborts the update
                # still witnesses the divergence
                return True
            return subject.structure != pristine.structure

        repro = minimize_script(script, diverges) if diverges(script) else script
        raise IntegrityError(
            f"{self.program.name}: auxiliary structure diverged from its "
            f"from-scratch replay after {self.requests_applied} requests "
            f"({detail}); minimized repro has {len(repro)} of "
            f"{len(script)} requests",
            repro=repro,
            detail=detail,
        )

    def reset_audit_baseline(self) -> None:
        """Restart audit bookkeeping from the current structure (used after
        restoring from a snapshot, whose history is not replayable)."""
        self._audit_base = self.structure.copy()
        self._audit_log.clear()

    # -- queries ----------------------------------------------------------------

    def _get_query(self, name: str) -> Query:
        try:
            return self.program.queries[name]
        except KeyError:
            raise KeyError(
                f"{self.program.name} has no query {name!r}; "
                f"available: {sorted(self.program.queries)}"
            ) from None

    def _bind(
        self, name: str, names: tuple[str, ...], given: Mapping[str, int]
    ) -> dict[str, int]:
        """Bind query ``name``'s parameters ``names`` from ``given``,
        validated as update parameters are: every name present, none
        unknown, each value an element of the universe."""
        missing = [p for p in names if p not in given]
        unknown = sorted(set(given) - set(names))
        if missing or unknown:
            raise RequestValidationError(
                f"query {name!r} takes parameters ({', '.join(names)}); "
                f"missing {missing}, unknown {unknown}"
            )
        for p in names:
            self._check_element(given[p], f"parameter {p!r} of query {name!r}")
        return {p: given[p] for p in names}

    def query(self, name: str, **params: int) -> set[tuple[int, ...]]:
        """Evaluate a named query, returning its relation over its frame."""
        query = self._get_query(name)
        bound = self._bind(name, query.params, params)
        return self._run(name, self.compiled.query_plan(query), bound)

    def ask(self, name: str, **params: int) -> bool:
        """Evaluate a boolean query (empty frame)."""
        query = self._get_query(name)
        if query.frame:
            raise ValueError(f"query {name!r} returns a relation; use query()")
        bound = self._bind(name, query.params, params)
        return bool(self._run(name, self.compiled.query_plan(query), bound))

    def _run(
        self, name: str, plan, params: Mapping[str, int]
    ) -> set[tuple[int, ...]]:
        """Execute query ``name``'s compiled ``plan`` with ``params`` bound,
        turning a blown materialization budget (``max_rows``) into a typed
        :class:`EngineError`."""
        try:
            return self._make_evaluator(params).execute(plan)
        except EvaluationError as error:
            raise EngineError(
                f"query {name!r} exceeded the evaluation budget: {error}"
            ) from error

    def plan_cache_stats(self) -> dict[str, int]:
        """Compiled-plan cache counters (``hits``/``misses``/``compile_ns``).

        ``misses`` counts plan compilations — exactly one per distinct
        (rule or query, backend, n) no matter how many requests ran.  Engines
        sharing a program instance share the cache and its counters.  Safe
        under concurrent readers: the counters are snapshotted atomically
        under the cache's lock."""
        return self.compiled.stats()

    def plans_for(self, request: Request):
        """The plans an accepted ``request`` would execute, without applying
        it: ``(rule, params, compiled)`` where ``compiled`` is the rule's
        :class:`~.program.CompiledRule` (temporaries, then each definition's
        Δ⁺/Δ⁻), shared by every request of that rule.  Used by the slowlog
        to render what ran."""
        rule, params, _ = self._dispatch(request)
        return rule, params, self.compiled.rule_plans(rule)

    def apply_effects(self, request: Request, effects: Mapping) -> None:
        """Replay a journaled effect record physically: validate the request
        shape, apply the recorded state transition directly (no formula
        evaluation), and advance the request counter — the fast path
        :func:`~.journal.recover` takes when the journal carries effects.
        The transition is exactly what :meth:`apply` committed when the
        record was written, so physical and logical replay agree.  The
        stats count the relations and tuples the record stages."""
        self._dispatch(request)  # validation only
        batch = self.structure.begin_batch()
        try:
            batch.stage_effects(effects)
        except StructureError as error:
            raise UpdateError(
                f"replaying journaled effects for {request} failed: {error}"
            ) from error
        self._commit(request, batch, _update_stats(batch.deltas))

    def holds_in(self, name: str, *tup: int) -> bool:
        """Membership test against a relational query's result: one
        compiled plan per query, with ``tup`` bound as its parameters."""
        query = self._get_query(name)
        if len(tup) != len(query.frame):
            raise ValueError(
                f"query {name!r} has frame {query.frame}, got {len(tup)} args"
            )
        bound = self._bind(name, query.frame, dict(zip(query.frame, tup)))
        params = {member_param(var): value for var, value in bound.items()}
        return bool(self._run(name, self.compiled.membership_plan(query), params))

    # -- introspection -----------------------------------------------------------

    def aux_snapshot(self) -> Structure:
        """A copy of the current auxiliary structure (for memorylessness tests)."""
        return self.structure.copy()

    def input_snapshot(self) -> Structure:
        """The input structure embedded in the auxiliary one (the reduct to
        the input vocabulary), for oracle comparison."""
        return self.structure.restrict(self.program.input_vocabulary)
