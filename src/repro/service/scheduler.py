"""The scheduler: single-writer / parallel-reader execution per session.

Every Dyn-FO update is one constant-depth parallel step over the *previous*
structure (Definition 3.1), which forces a total order on writes per
session — but says nothing about reads, which are pure first-order queries
over whatever structure version is current.  The scheduler realizes exactly
that split:

* **Writes** funnel through a per-session queue.  Whichever submitting
  thread wins the drain lock commits *everything* queued at that moment as
  one coalesced batch — each request still goes through the engine's
  transactional ``begin_batch()`` apply, but the batch shares a single
  journal fsync (group commit) and a single writer-lock acquisition.
  Submitters are only acknowledged after the batch's sync, so the WAL
  invariant (ACK implies durable) holds per request while the fsync cost
  amortizes per batch.  Under load, batch sizes grow by themselves: while
  one batch commits, the queue refills.

  The group fsync runs *inside* the session's write-lock scope: a
  concurrent ``Session.close()`` (which also takes the write lock) can
  therefore never detach and close the journal between the batch's apply
  and its durability point.  If the fsync itself fails, the in-memory
  engine is ahead of both the durable log and what clients were told —
  the batch is reported failed *and the session is poisoned*: every later
  write is refused with :class:`~.errors.SessionPoisonedError` (reads stay
  allowed) instead of silently serving diverged state.

* **Reads** fan out across a thread pool under the shared side of the
  session's readers-writer lock.  Identical in-flight reads — same session,
  same structure version, same query, same parameters — *collapse*: one
  evaluation runs and every concurrent asker shares its result (and its
  serialized form).  Collapsing keys on the structure version, so it is
  invisible to read-your-writes ordering: a client that just committed
  version v can only collapse onto evaluations at version >= v.

* **Admission control** bounds the damage of overload: at most
  ``max_queue_depth`` requests may be queued-or-running per session, and a
  request that waits in queue past its deadline is rejected with
  :class:`~.errors.OverloadError` *before* it consumes evaluation work.
  A deadline of ``0`` means "expire immediately unless served at once" —
  every deadline comparison is against ``None``, never truthiness.
  Callers see a typed, retryable error instead of a hung socket.

* **Tracing**: both paths accept a :class:`~..obs.trace.Trace` and record
  one span per phase they move the request through (queue wait, lock
  waits, engine apply with per-rule children, group fsync, collapse
  join — see :mod:`..obs.trace` for the taxonomy), alongside the fixed-
  bucket latency histograms in :class:`~.metrics.SessionMetrics`.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Hashable, Sequence

from ..dynfo.errors import EngineError, JournalError
from ..dynfo.requests import Request
from ..obs.trace import Trace
from .errors import OverloadError, SessionError, SessionPoisonedError
from .session import Session

__all__ = ["Scheduler", "WriteOutcome"]


class WriteOutcome:
    """What happened to one queued write: either ``stats`` (applied) or
    ``error`` (typed; the structure is untouched for this request)."""

    __slots__ = (
        "request",
        "stats",
        "error",
        "enqueued_ns",
        "dequeued_ns",
        "deadline",
        "trace",
        "done",
    )

    def __init__(
        self,
        request: Request,
        deadline: float | None = None,
        trace: Trace | None = None,
    ) -> None:
        self.request = request
        self.stats: dict[str, int] | None = None
        self.error: Exception | None = None
        self.enqueued_ns = time.monotonic_ns()
        self.dequeued_ns = self.enqueued_ns
        self.deadline = deadline
        self.trace = trace
        self.done = threading.Event()

    @property
    def wait_ns(self) -> int:
        return time.monotonic_ns() - self.enqueued_ns


class _InFlightRead:
    """A leader's evaluation that concurrent identical reads wait on."""

    __slots__ = ("done", "value", "error")

    def __init__(self) -> None:
        self.done = threading.Event()
        self.value: Any = None
        self.error: Exception | None = None


class Scheduler:
    """Coalesces writes and fans out reads for any number of sessions."""

    def __init__(
        self,
        read_workers: int = 8,
        max_batch: int = 64,
        max_queue_depth: int = 256,
        default_deadline: float | None = 30.0,
    ) -> None:
        if read_workers < 1:
            raise ValueError(f"read_workers must be >= 1, got {read_workers}")
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        self.read_workers = read_workers
        self.max_batch = max_batch
        self.max_queue_depth = max_queue_depth
        self.default_deadline = default_deadline
        self._pool = ThreadPoolExecutor(
            max_workers=read_workers, thread_name_prefix="dynfo-read"
        )
        self._inflight: dict[tuple, _InFlightRead] = {}
        self._inflight_lock = threading.Lock()
        self._closed = False

    # -- admission ---------------------------------------------------------

    def _admit_many(
        self, session: Session, count: int, deadline: float | None
    ) -> float | None:
        if deadline is None:
            deadline = self.default_deadline
        with session.queue_lock:
            if session.pending + count > self.max_queue_depth:
                session.metrics.record_overload()
                raise OverloadError(
                    f"session {session.name!r} queue cannot take {count} more "
                    f"requests ({session.pending} of {self.max_queue_depth} "
                    "slots used); back off and retry"
                )
            session.pending += count
        return deadline

    def _release(self, session: Session, count: int = 1) -> None:
        with session.queue_lock:
            session.pending -= count

    # -- writes ------------------------------------------------------------

    def apply(
        self,
        session: Session,
        request: Request,
        deadline: float | None = None,
        trace: Trace | None = None,
    ) -> dict[str, int]:
        """Apply one write through the coalescing queue; blocks until the
        request's batch is durably committed (or it failed typed)."""
        outcome = self.apply_script(session, [request], deadline, trace)[0]
        if outcome.error is not None:
            raise outcome.error
        assert outcome.stats is not None
        return outcome.stats

    def apply_script(
        self,
        session: Session,
        requests: Sequence[Request],
        deadline: float | None = None,
        trace: Trace | None = None,
    ) -> list[WriteOutcome]:
        """Enqueue a contiguous run of writes and wait for all of them.

        The requests land in the queue together, so up to ``max_batch`` of
        them commit as one group-fsync batch — plus whatever other clients
        queued meanwhile.  Per-request outcomes come back in order."""
        if not requests:
            return []
        if session.poisoned is not None:
            raise SessionPoisonedError(
                f"session {session.name!r} is poisoned ({session.poisoned}); "
                "writes are refused until it is closed and reopened"
            )
        deadline = self._admit_many(session, len(requests), deadline)
        outcomes = [WriteOutcome(request, deadline, trace) for request in requests]
        try:
            with session.queue_lock:
                session.write_queue.extend(outcomes)
            self._drain(session)
            timeout = 60.0 if deadline is None else deadline + 60.0
            for outcome in outcomes:
                if not outcome.done.wait(timeout=timeout):  # pragma: no cover
                    outcome.error = OverloadError(
                        f"write on session {session.name!r} stalled past "
                        f"{timeout:.0f}s; the service is wedged"
                    )
            return outcomes
        finally:
            self._release(session, len(outcomes))

    def _drain(self, session: Session) -> None:
        """The batch-commit loop.  Whoever holds ``writer_lock`` drains; the
        empty-queue check and the lock release happen under ``queue_lock``
        so an enqueue can never slip between them and strand a request."""
        while True:
            if not session.writer_lock.acquire(blocking=False):
                return  # the current holder's loop will pick our entry up
            batch: list[WriteOutcome] | None = None
            with session.queue_lock:
                if session.write_queue:
                    take = min(len(session.write_queue), self.max_batch)
                    batch = [session.write_queue.popleft() for _ in range(take)]
                else:
                    session.writer_lock.release()
            if batch is None:
                return
            try:
                self._commit_batch(session, batch)
            finally:
                session.writer_lock.release()

    def _apply_one(self, session: Session, outcome: WriteOutcome) -> bool:
        """Run one request through the engine under the exclusive lock,
        recording the apply span (with per-rule children for detailed
        traces).  Returns whether it was applied."""
        engine = session.engine
        trace = outcome.trace
        evals: list[tuple[str, str, int, int]] = []
        detailed = trace is not None and trace.detailed
        if detailed:
            engine.eval_timing_hook = lambda kind, name, ns: evals.append(
                (kind, name, time.monotonic_ns() - ns, ns)
            )
        started = time.monotonic_ns()
        try:
            engine.apply(outcome.request)
            outcome.stats = engine.last_update_stats
        except EngineError as error:
            outcome.error = error
        except Exception as error:  # no raw tracebacks to clients
            outcome.error = EngineError(f"applying {outcome.request} failed: {error}")
        finally:
            if detailed:
                engine.eval_timing_hook = None
        if trace is not None:
            span = trace.record(
                "engine_apply",
                started,
                time.monotonic_ns() - started,
                meta={"request": str(outcome.request)},
            )
            for kind, name, start_ns, ns in evals:
                if kind == "journal":
                    trace.record("journal_append", start_ns, ns)
                else:
                    span.add_child(f"eval:{name}", start_ns, ns, meta={"kind": kind})
            if outcome.stats is not None:
                # delta sizes on the span: how many tuples the update moved
                span.meta["tuples_added"] = outcome.stats.get("tuples_added", 0)
                span.meta["tuples_removed"] = outcome.stats.get("tuples_removed", 0)
        return outcome.error is None

    def _commit_batch(self, session: Session, batch: list[WriteOutcome]) -> None:
        """Apply one coalesced batch under the exclusive lock, sync the
        journal once *while still holding the lock* (so a concurrent close
        cannot slip between apply and durability), then acknowledge every
        submitter."""
        started = time.monotonic_ns()
        applied: list[WriteOutcome] = []
        fsync_ns = 0
        session.rw.acquire_write()
        lock_acquired = time.monotonic_ns()
        lock_wait_ns = lock_acquired - started
        try:
            for outcome in batch:
                outcome.dequeued_ns = time.monotonic_ns()
                trace = outcome.trace
                if trace is not None:
                    trace.record(
                        "queue_wait",
                        outcome.enqueued_ns,
                        outcome.dequeued_ns - outcome.enqueued_ns,
                    )
                    trace.record(
                        "writer_lock_wait",
                        started,
                        lock_wait_ns,
                        meta={"batch_size": len(batch)},
                    )
                if session.closed:
                    # close() drained the readers and snapshotted; applying
                    # now would ACK a write the closed journal never sees
                    outcome.error = SessionError(
                        f"session {session.name!r} closed while the write "
                        "was queued; nothing was applied"
                    )
                    continue
                if session.poisoned is not None:
                    outcome.error = SessionPoisonedError(
                        f"session {session.name!r} is poisoned "
                        f"({session.poisoned}); the write was not applied"
                    )
                    continue
                wait_ns = outcome.dequeued_ns - outcome.enqueued_ns
                deadline = outcome.deadline
                if deadline is not None and wait_ns > deadline * 1e9:
                    outcome.error = OverloadError(
                        f"request waited {wait_ns / 1e9:.2f}s in the write "
                        f"queue of session {session.name!r}, past its "
                        f"{deadline:.2f}s deadline"
                    )
                    session.metrics.record_overload()
                    continue
                if self._apply_one(session, outcome):
                    applied.append(outcome)
            # the group-commit durability point, still under the write lock
            journal = session.journal
            if journal is not None and applied:
                sync_started = time.monotonic_ns()
                try:
                    journal.sync()
                except (OSError, JournalError) as error:
                    # the engine is now ahead of the durable log: fail the
                    # batch and refuse all future writes on this session
                    session.poison(f"journal sync failed after apply: {error}")
                    for outcome in applied:
                        outcome.stats = None
                        outcome.error = JournalError(
                            f"journal sync failed after apply: {error}; "
                            f"session {session.name!r} is now poisoned"
                        )
                fsync_ns = time.monotonic_ns() - sync_started
                for outcome in applied:
                    if outcome.trace is not None:
                        outcome.trace.record(
                            "journal_fsync",
                            sync_started,
                            fsync_ns,
                            meta={"batch_size": len(applied)},
                        )
        finally:
            session.rw.release_write()
        session.metrics.record_batch(
            len(batch), time.monotonic_ns() - started, fsync_ns
        )
        for outcome in batch:
            session.metrics.record_write(
                outcome.dequeued_ns - outcome.enqueued_ns,
                outcome.wait_ns,
                outcome.error is None,
            )
            outcome.done.set()

    # -- reads -------------------------------------------------------------

    def read(
        self,
        session: Session,
        fn: Callable[[], Any],
        key: Hashable | None = None,
        deadline: float | None = None,
        trace: Trace | None = None,
    ) -> Any:
        """Run ``fn`` under the shared reader lock on the thread pool.

        With a ``key``, identical concurrent reads collapse onto one
        evaluation (keyed additionally by session and structure version);
        without one, the read always evaluates itself."""
        deadline = self._admit_many(session, 1, deadline)
        try:
            if key is None:
                return self._pool.submit(
                    self._execute_read,
                    session,
                    fn,
                    time.monotonic_ns(),
                    deadline,
                    trace,
                ).result()
            full_key = (session.name, session.version, key)
            with self._inflight_lock:
                entry = self._inflight.get(full_key)
                leader = entry is None
                if leader:
                    entry = _InFlightRead()
                    self._inflight[full_key] = entry
            if not leader:
                return self._join_read(session, entry, deadline, trace)
            try:
                enqueued = time.monotonic_ns()
                try:
                    entry.value = self._pool.submit(
                        self._execute_read, session, fn, enqueued, deadline, trace
                    ).result()
                except Exception as error:
                    entry.error = error
                    raise
                return entry.value
            finally:
                with self._inflight_lock:
                    self._inflight.pop(full_key, None)
                entry.done.set()
        finally:
            self._release(session)

    def _join_read(
        self,
        session: Session,
        entry: _InFlightRead,
        deadline: float | None,
        trace: Trace | None = None,
    ) -> Any:
        started = time.monotonic_ns()
        # deadline 0 means "only if already done", not "no deadline"
        timeout = 60.0 if deadline is None else deadline
        joined = entry.done.wait(timeout=timeout)
        elapsed = time.monotonic_ns() - started
        if trace is not None:
            trace.record(
                "collapse_join", started, elapsed, meta={"joined": joined}
            )
        if not joined:
            session.metrics.record_overload()
            raise OverloadError(
                f"collapsed read on session {session.name!r} exceeded its "
                f"deadline waiting for the leading evaluation"
            )
        session.metrics.record_read(wait_ns=elapsed, exec_ns=0, collapsed=True)
        if entry.error is not None:
            raise entry.error
        return entry.value

    def _execute_read(
        self,
        session: Session,
        fn: Callable[[], Any],
        enqueued_ns: int,
        deadline: float | None,
        trace: Trace | None = None,
    ) -> Any:
        picked_up = time.monotonic_ns()
        wait_ns = picked_up - enqueued_ns
        if trace is not None:
            trace.record("worker_wait", enqueued_ns, wait_ns)
        if deadline is not None and wait_ns > deadline * 1e9:
            session.metrics.record_overload()
            raise OverloadError(
                f"read waited {wait_ns / 1e9:.2f}s for a worker on session "
                f"{session.name!r}, past its {deadline:.2f}s deadline"
            )
        session.rw.acquire_read()
        lock_acquired = time.monotonic_ns()
        started = lock_acquired
        try:
            value = fn()
        finally:
            session.rw.release_read()
        finished = time.monotonic_ns()
        if trace is not None:
            trace.record("read_lock_wait", picked_up, lock_acquired - picked_up)
            trace.record("eval", started, finished - started)
        session.metrics.record_read(
            wait_ns=lock_acquired - enqueued_ns, exec_ns=finished - started
        )
        return value

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self._pool.shutdown(wait=True)
