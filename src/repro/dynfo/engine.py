"""The Dyn-FO execution engine.

Maintains the auxiliary structure ``f(r-bar)`` of Definition 3.1 and applies
the program's first-order update rules per request, with the paper's
*simultaneous* (synchronous) semantics: every primed relation is computed
against the pre-update structure, then all are swapped in atomically.

Three evaluation backends are available (see DESIGN.md E15):

* ``"relational"`` — database-style join planning (default, fastest in
  typical sparse cases);
* ``"dense"`` — vectorized boolean tensors, a literal CRAM[1] simulation;
* ``"naive"`` — brute-force reference semantics (small n only).

A backend may also be any callable ``factory(structure, params) ->
evaluator`` (e.g. :class:`~.faults.FaultyBackend` for chaos testing).

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

from ..logic.dense import DenseEvaluator
from ..logic.evaluation import EvaluationError, naive_query
from ..logic.relational import RelationalEvaluator
from ..logic.structure import BatchUpdate, Structure, StructureError
from ..logic.syntax import Formula, Lit, Term
from ..logic.transform import substitute
from .errors import (
    EngineError,
    IntegrityError,
    RequestValidationError,
    UpdateError,
)
from .minimize import minimize_script
from .program import DynFOProgram, Query, UpdateRule
from .requests import Delete, Insert, Operation, Request, SetConst

if TYPE_CHECKING:  # pragma: no cover
    from .journal import RequestJournal

__all__ = ["DynFOEngine", "BACKENDS", "UnsupportedRequest"]


class UnsupportedRequest(RequestValidationError):
    """Raised when a program has no rule for the given request kind."""


class _NaiveBackend:
    """Adapter giving the naive evaluator the backend interface."""

    def __init__(self, structure: Structure, params: Mapping[str, int]) -> None:
        self.structure = structure
        self.params = params

    def rows(self, formula: Formula, frame: tuple[str, ...]) -> set[tuple[int, ...]]:
        return naive_query(formula, self.structure, frame, self.params)

    def truth(self, sentence: Formula) -> bool:
        return bool(naive_query(sentence, self.structure, (), self.params))


BACKENDS: dict[str, Callable[..., object]] = {
    "relational": RelationalEvaluator,
    "dense": DenseEvaluator,
    "naive": _NaiveBackend,
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
        if isinstance(backend, str):
            if backend not in BACKENDS:
                raise ValueError(
                    f"unknown backend {backend!r}; pick from {sorted(BACKENDS)}"
                )
            self.backend_name = backend
            self._backend_factory = BACKENDS[backend]
        else:
            self.backend_name = getattr(
                backend, "name", getattr(backend, "__name__", type(backend).__name__)
            )
            self._backend_factory = backend
        # The optimized backends execute plans compiled once per program via
        # DynFOProgram.compile; the naive backend and callable factories
        # (chaos wrappers, custom evaluators) keep the per-request path.
        self._use_plans = isinstance(backend, str) and backend in (
            "relational",
            "dense",
        )
        self.max_rows = max_rows
        if max_rows is not None:
            if not self._use_plans:
                raise ValueError(
                    "max_rows requires the relational or dense backend "
                    f"(got {self.backend_name!r})"
                )
            if max_rows <= 0:
                raise ValueError(f"max_rows must be positive, got {max_rows}")
        # The plan backends run each rule's one compiled plan set, binding
        # the request's parameters at execute time, with indexed atom
        # probes, and stage the Δ⁺/Δ⁻ rows as single-tuple edits.
        self._compiled = program.compile(self.backend_name, n) if self._use_plans else None
        # relation name -> (version, ndarray); patched in place after each
        # commit so the dense backend stops rebuilding every tensor per
        # request.
        self._dense_cache: dict | None = (
            {} if self.backend_name == "dense" and self._use_plans else None
        )
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
        # work accounting for the last request.  tuples_written counts the
        # rows the definitions' evaluations emitted (the "parallel work"
        # measure of experiment E19): on the plan backends the rows of the
        # Δ⁺/Δ⁻ plans, so it tracks tuples_added + tuples_removed; on the
        # naive and callable backends, which evaluate whole new relations
        # and diff them, the size of the new relations.
        self.last_update_stats: dict[str, int] = {
            "relations_redefined": 0,
            "tuples_written": 0,
            "temporary_tuples": 0,
            "tuples_added": 0,
            "tuples_removed": 0,
        }
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
        relations such as T and New — first, in order, into a scratch
        expansion the definitions then read; then each primed relation's
        change, its Δ⁺ and Δ⁻ plans, on the plan backends), stage every
        write, journal the request, then commit the batch in one
        infallible step.  On any failure before commit the auxiliary
        structure is untouched."""
        rule, params, mirror = self._dispatch(request)
        batch, stats = self._stage(request, rule, params, mirror)
        if self._journal is not None:
            journal = self._journal
            # getattr: tests attach duck-typed journal shims without the flag
            effects = (
                batch.effects()
                if getattr(journal, "record_effects", False)
                else None
            )
            if effects is not None:
                append = lambda: journal.append(  # noqa: E731
                    self.requests_applied, request, effects=effects
                )
            else:
                # positional-only call keeps duck-typed journal shims
                # (tests, fault injectors) working without the new kwarg
                append = lambda: journal.append(self.requests_applied, request)  # noqa: E731
            self._timed_execute("journal", "append", append)
        patchable = (
            self._dense_cache_prepare(batch) if self._dense_cache is not None else None
        )
        batch.commit()
        if patchable:
            self._dense_cache_patch(batch, patchable)
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
        """Evaluate the rule and stage every write; never mutates
        ``self.structure``."""
        source = self.structure
        temporary_tuples = 0
        try:
            # compiled once per (rule, backend, n), then a cache hit forever;
            # the evaluator binds ``params`` when it executes the plans
            compiled = (
                None if self._compiled is None else self._compiled.rule_plans(rule)
            )
            if rule.temporaries:
                scratch_vocab = self.program.aux_vocabulary.extend(
                    relations=[(d.name, len(d.frame)) for d in rule.temporaries]
                )
                # borrow the live relations into the scratch expansion (O(1)
                # per relation) instead of copying them; the scratch only
                # ever *replaces* temporaries, never edits inherited
                # relations in place, so borrowing is safe
                source = self.structure.expand(scratch_vocab, borrow=True)
                scratch_eval = self._make_evaluator(source, params)
                if compiled is not None:
                    for name, plan in compiled.temporaries:
                        rows = self._timed_execute(
                            "temporary", name, lambda: scratch_eval.execute(plan)
                        )
                        temporary_tuples += len(rows)
                        source.set_relation(name, rows)
                else:
                    for temp in rule.temporaries:
                        rows = self._timed_execute(
                            "temporary",
                            temp.name,
                            lambda: scratch_eval.rows(temp.formula, temp.frame),
                        )
                        temporary_tuples += len(rows)
                        source.set_relation(temp.name, rows)
            evaluator = self._make_evaluator(source, params)
            # name -> (tuples added, tuples removed)
            changes: dict[str, tuple[set[tuple[int, ...]], set[tuple[int, ...]]]] = {}
            written = 0
            if compiled is not None:
                # the plan backends evaluate each definition's change
                # directly: its Δ⁺ and Δ⁻ plans, nothing to diff
                for name, plus, minus in compiled.definitions:
                    changes[name] = self._timed_execute(
                        "definition",
                        name,
                        lambda: (evaluator.execute(plus), evaluator.execute(minus)),
                    )
                    written += len(changes[name][0]) + len(changes[name][1])
            else:
                for definition in rule.definitions:
                    rows = self._timed_execute(
                        "definition",
                        definition.name,
                        lambda: evaluator.rows(definition.formula, definition.frame),
                    )
                    current = self.structure.relation_view(definition.name)
                    changes[definition.name] = (rows - current, current - rows)
                    written += len(rows)
        except EngineError:
            raise
        except Exception as error:
            raise UpdateError(
                f"evaluating the update for {request} failed: {error}"
            ) from error
        batch = self.structure.begin_batch()
        defined = rule.defined_names()
        tuples_added = 0
        tuples_removed = 0
        try:
            for name, (added, removed) in changes.items():
                # our own plan evaluators only emit in-arity, in-universe
                # rows, so their changes skip per-tuple re-validation; rows
                # from the naive and custom callable backends are checked
                if compiled is not None:
                    batch.stage_edits_trusted("add", name, sorted(added))
                    batch.stage_edits_trusted("discard", name, sorted(removed))
                else:
                    for tup in sorted(added):
                        batch.add(name, tup)
                    for tup in sorted(removed):
                        batch.discard(name, tup)
                tuples_added += len(added)
                tuples_removed += len(removed)
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
        stats = {
            "relations_redefined": len(changes),
            "tuples_written": written,
            "temporary_tuples": temporary_tuples,
            "tuples_added": tuples_added,
            "tuples_removed": tuples_removed,
        }
        return batch, stats

    def _make_evaluator(self, structure: Structure, params: Mapping[str, int]):
        """A backend evaluator over ``structure``, honouring the engine's
        materialization budget (``max_rows``) and, on the dense backend, the
        relation-tensor cache."""
        if not self._use_plans:
            return self._backend_factory(structure, params)
        kwargs: dict = {}
        if self.backend_name == "relational":
            if self.max_rows is not None:
                kwargs["max_rows"] = self.max_rows
        else:
            if self.max_rows is not None:
                kwargs["max_cells"] = self.max_rows
            if self._dense_cache is not None:
                kwargs["array_cache"] = self._dense_cache
        return self._backend_factory(structure, params, **kwargs)

    def _dense_cache_prepare(self, batch: BatchUpdate) -> set[str]:
        """Before commit: drop the batch's stale tensor-cache entries, and
        return the relations whose cached tensor is current and can be
        patched in place after commit.  ``_stage`` stages only single-tuple
        edits, so every change the batch makes is seen here."""
        cache = self._dense_cache
        patchable: set[str] = set()
        for _, name, _ in batch.staged_edits:
            entry = cache.get(name)
            if entry is None or name in patchable:
                continue
            if entry[0] == self.structure.relation_version(name):
                patchable.add(name)
            else:
                cache.pop(name, None)  # stale entry; rebuild lazily instead
        return patchable

    def _dense_cache_patch(self, batch: BatchUpdate, patchable: set[str]) -> None:
        """After commit: apply the batch's single-tuple edits to the cached
        tensors in place (one cell write per delta tuple — the dense
        backend's slice-write path) and restamp them current."""
        cache = self._dense_cache
        for kind, name, tup in batch.staged_edits:
            if name not in patchable:
                continue
            array = cache[name][1]
            if array.ndim == 0:
                array[()] = kind == "add"
            else:
                array[tup] = kind == "add"
        for name in patchable:
            cache[name] = (self.structure.relation_version(name), cache[name][1])

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

    def apply_many(self, requests) -> list[dict[str, int]]:
        """Apply a contiguous batch of requests with group-commit journaling.

        Each request goes through the same transactional :meth:`apply`
        pipeline (validate, stage, journal, commit), but when the attached
        journal was opened with ``fsync=False`` the batch pays a *single*
        fsync at the end instead of one per request — the serving layer's
        write-coalescing fast path.  The sync runs even when a request in
        the middle fails, so every request applied before the failure is
        durable before the error propagates.  Returns the per-request
        update stats, in order."""
        stats: list[dict[str, int]] = []
        try:
            for request in requests:
                self.apply(request)
                stats.append(self.last_update_stats)
        finally:
            if self._journal is not None:
                self._journal.sync()
        return stats

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

    def _pristine_factory(self) -> Callable[..., object]:
        """The configured backend with any fault wrapper stripped."""
        return getattr(self._backend_factory, "base", self._backend_factory)

    def _subject_factory(self) -> Callable[..., object]:
        """A deterministic fresh copy of the configured backend (fault
        counters reset), for replaying the engine's own behaviour."""
        fresh = getattr(self._backend_factory, "fresh", None)
        return fresh() if callable(fresh) else self._backend_factory

    def _replay(self, script, factory) -> "DynFOEngine":
        clone = DynFOEngine(self.program, self.n, backend=factory)
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
        reference = self._replay(script, self._pristine_factory())
        if reference.structure == self.structure:
            return
        detail = self._divergence_detail(reference.structure)

        def diverges(candidate) -> bool:
            try:
                subject = self._replay(candidate, self._subject_factory())
                pristine = self._replay(candidate, self._pristine_factory())
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
        evaluator = self._make_evaluator(self.structure, bound)
        if self._compiled is not None:
            plan = self._compiled.query_plan(query)
            return self._budgeted(name, lambda: evaluator.execute(plan))
        return self._budgeted(
            name, lambda: evaluator.rows(query.formula, query.frame)
        )

    def ask(self, name: str, **params: int) -> bool:
        """Evaluate a boolean query (empty frame)."""
        query = self._get_query(name)
        if query.frame:
            raise ValueError(f"query {name!r} returns a relation; use query()")
        bound = self._bind(name, query.params, params)
        evaluator = self._make_evaluator(self.structure, bound)
        if self._compiled is not None:
            plan = self._compiled.query_plan(query)
            return bool(self._budgeted(name, lambda: evaluator.execute(plan)))
        return self._budgeted(name, lambda: evaluator.truth(query.formula))

    @staticmethod
    def _budgeted(name: str, evaluate):
        """Run a query evaluation, turning a blown materialization budget
        (``max_rows``) into a typed :class:`EngineError`."""
        try:
            return evaluate()
        except EvaluationError as error:
            raise EngineError(
                f"query {name!r} exceeded the evaluation budget: {error}"
            ) from error

    def plan_cache_stats(self) -> dict[str, int]:
        """Compiled-plan cache counters (``hits``/``misses``/``compile_ns``).

        ``misses`` counts plan compilations — exactly one per distinct
        (rule or query, backend, n) no matter how many requests ran.  Engines
        sharing a program instance share the cache and its counters.  All
        zeros for the naive backend and callable factories, which keep the
        per-request evaluation path.  Safe under concurrent readers: the
        counters are snapshotted atomically under the cache's lock."""
        if self._compiled is None:
            return {"hits": 0, "misses": 0, "compile_ns": 0}
        return self._compiled.stats()

    def plans_for(self, request: Request):
        """The plans an accepted ``request`` would execute, without applying
        it: ``(rule, params, compiled)`` where ``compiled`` is the rule's
        :class:`~.program.CompiledRule` (temporaries, then each definition's
        Δ⁺/Δ⁻ plans), shared by every request of that rule — or ``None`` on
        the naive and callable backends, which evaluate formulas.  Used by
        the slowlog to render what ran."""
        rule, params, _ = self._dispatch(request)
        if self._compiled is None:
            return rule, params, None
        return rule, params, self._compiled.rule_plans(rule)

    def apply_effects(self, request: Request, effects: Mapping) -> None:
        """Replay a journaled effect record physically: validate the request
        shape, apply the recorded state transition directly (no formula
        evaluation), and advance the request counter — the fast path
        :func:`~.journal.recover` takes when the journal carries effects.
        The transition is exactly what :meth:`apply` committed when the
        record was written, so physical and logical replay agree."""
        self._dispatch(request)  # validation only
        try:
            self.structure.apply_effects(effects)
        except StructureError as error:
            raise UpdateError(
                f"replaying journaled effects for {request} failed: {error}"
            ) from error
        if self._dense_cache is not None:
            # effect replay bypasses the patch path; entries turn stale and
            # rebuild lazily on the next evaluation
            self._dense_cache.clear()
        self.last_update_stats = {
            "relations_redefined": len(effects.get("set", {})),
            "tuples_written": sum(len(rows) for rows in effects.get("set", {}).values()),
            "temporary_tuples": 0,
            "tuples_added": sum(
                1 for kind, _, _ in effects.get("edits", ()) if kind == "add"
            ),
            "tuples_removed": sum(
                1 for kind, _, _ in effects.get("edits", ()) if kind == "discard"
            ),
        }
        self.requests_applied += 1
        if self.audit_every > 0:
            self._audit_log.append(request)
            if self.requests_applied % self.audit_every == 0:
                self.audit()

    def holds_in(self, name: str, *tup: int) -> bool:
        """Membership test against a relational query's result."""
        query = self._get_query(name)
        if len(tup) != len(query.frame):
            raise ValueError(
                f"query {name!r} has frame {query.frame}, got {len(tup)} args"
            )
        bound = self._bind(name, query.frame, dict(zip(query.frame, tup)))
        mapping: dict[str, Term] = {var: Lit(value) for var, value in bound.items()}
        ground = substitute(query.formula, mapping)
        evaluator = self._make_evaluator(self.structure, {})
        return self._budgeted(name, lambda: evaluator.truth(ground))

    # -- introspection -----------------------------------------------------------

    def aux_snapshot(self) -> Structure:
        """A copy of the current auxiliary structure (for memorylessness tests)."""
        return self.structure.copy()

    def input_snapshot(self) -> Structure:
        """The input structure embedded in the auxiliary one (the reduct to
        the input vocabulary), for oracle comparison."""
        return self.structure.restrict(self.program.input_vocabulary)
