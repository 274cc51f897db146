"""Named engine sessions and the manager that hosts them.

A *session* is one live :class:`~..dynfo.engine.DynFOEngine` plus the
concurrency state the :class:`~.scheduler.Scheduler` needs (a
readers-writer lock, the pending-write queue) and its durability plumbing
(write-ahead journal + snapshot in a per-session directory).  The
:class:`SessionManager` is the paper's Definition 3.1 taken to a serving
context: each session is a deterministic function of its request history,
so hosting many of them is just hosting many histories — and restarting the
process is ``snapshot + journal tail`` replay per session
(:func:`~..dynfo.journal.recover`), exactly the single-engine recovery
story, session-ified.

Durable layout under ``data_dir``::

    <data_dir>/<session>/meta.json      # program name, n, backend
    <data_dir>/<session>/journal.ndjson # fsync'd WAL (group commit)
    <data_dir>/<session>/snapshot.json  # checksummed v2 snapshot

Session journals are opened with ``fsync=False``: the scheduler syncs once
per coalesced batch and acknowledges only after the sync, so durability is
per-*batch* (group commit) while the ACK invariant stays per-request.
"""

from __future__ import annotations

import collections
import json
import re
import shutil
import threading
import time
from pathlib import Path
from typing import Callable, Mapping

from ..dynfo.engine import BACKENDS, DynFOEngine
from ..dynfo.journal import RequestJournal, recover
from ..dynfo.persistence import save_engine
from ..dynfo.program import DynFOProgram
from .errors import OverloadError, SessionError
from .metrics import SessionMetrics

__all__ = ["Session", "SessionManager"]

_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


class _RWLock:
    """A writer-preferring readers-writer lock.

    Readers share; the (single) batch writer excludes them.  Writer
    preference keeps a steady read load from starving the update stream —
    the paper's semantics need every request to see the structure the
    previous request produced, not a structure readers pinned in the past.
    """

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._readers = 0
        self._writer = False
        self._writers_waiting = 0

    def acquire_read(self) -> None:
        with self._cond:
            while self._writer or self._writers_waiting:
                self._cond.wait()
            self._readers += 1

    def release_read(self) -> None:
        with self._cond:
            self._readers -= 1
            if not self._readers:
                self._cond.notify_all()

    def acquire_write(self) -> None:
        with self._cond:
            self._writers_waiting += 1
            try:
                while self._writer or self._readers:
                    self._cond.wait()
            finally:
                self._writers_waiting -= 1
            self._writer = True

    def release_write(self) -> None:
        with self._cond:
            self._writer = False
            self._cond.notify_all()


class Session:
    """One hosted engine with its scheduling and durability state."""

    def __init__(
        self,
        name: str,
        engine: DynFOEngine,
        program_name: str,
        backend_name: str,
        directory: Path | None,
        recovered: bool = False,
    ) -> None:
        self.name = name
        self.engine = engine
        self.program_name = program_name
        self.backend_name = backend_name
        self.directory = directory
        self.recovered = recovered
        self.created_at = time.time()
        self.metrics = SessionMetrics()
        # scheduler state: see scheduler.py for the drain protocol
        self.rw = _RWLock()
        self.queue_lock = threading.Lock()
        self.write_queue: collections.deque = collections.deque()
        self.writer_lock = threading.Lock()
        self.pending = 0  # queued-or-running requests, for admission control
        self.closed = False
        # set (under the rw write lock) when a group-commit sync failed
        # after its batch was applied: the engine is ahead of the durable
        # log, so further writes are refused (reads stay allowed)
        self.poisoned: str | None = None

    @property
    def version(self) -> int:
        """The structure version — requests applied so far.  Reads collapse
        only with in-flight reads of the same version, which is what makes
        collapsing invisible to read-your-writes ordering."""
        return self.engine.requests_applied

    @property
    def journal(self) -> RequestJournal | None:
        return self.engine.journal

    def poison(self, reason: str) -> None:
        """Mark the session write-dead: the in-memory engine no longer
        matches what clients were told is durable.  First reason wins."""
        if self.poisoned is None:
            self.poisoned = reason

    def describe(self) -> dict:
        """The session's stats block (``stats`` wire op)."""
        info = {
            "program": self.program_name,
            "backend": self.backend_name,
            "n": self.engine.n,
            "requests_applied": self.engine.requests_applied,
            "durable": self.directory is not None,
            "recovered": self.recovered,
            "poisoned": self.poisoned,
            "plan_cache": self.engine.plan_cache_stats(),
        }
        journal = self.journal
        if journal is not None:
            info["journal"] = {
                "appends": journal.append_count,
                "fsyncs": journal.fsync_count,
                "bytes_written": journal.bytes_written,
            }
        info.update(self.metrics.snapshot())
        return info

    def save(self) -> None:
        """Write the checksummed snapshot (journal replay then starts from
        here instead of from the initial structure)."""
        if self.directory is not None:
            save_engine(self.engine, self.directory / "snapshot.json")

    def close(self, snapshot: bool = True) -> None:
        """Quiesce and release the session; with ``snapshot`` (default) the
        on-disk state needs no journal replay to reopen."""
        if self.closed:
            return
        self.rw.acquire_write()  # drain readers; block new ones via manager
        try:
            self.closed = True
            if snapshot:
                self.save()
            journal = self.journal
            if journal is not None:
                journal.close()
                self.engine.attach_journal(None)
        finally:
            self.rw.release_write()

    def abandon(self) -> None:
        """Drop the session without snapshotting — the crash-simulation
        hook used by the recovery tests.  Only batch-synced journal entries
        are what a reopened session will see."""
        self.closed = True
        journal = self.journal
        if journal is not None:
            journal.close()
            self.engine.attach_journal(None)


class SessionManager:
    """Hosts up to ``max_sessions`` named sessions, durably when given a
    ``data_dir``.

    ``programs`` maps wire-visible program names to zero-argument factories
    (defaults to the paper's :data:`~..programs.PROGRAM_FACTORIES`); tests
    can add factories, and in-process callers may pass callable backends
    (e.g. :class:`~..dynfo.faults.FaultyBackend`) that the wire's string
    backends cannot express.
    """

    def __init__(
        self,
        data_dir: str | Path | None = None,
        max_sessions: int = 64,
        programs: Mapping[str, Callable[[], DynFOProgram]] | None = None,
    ) -> None:
        if programs is None:
            from ..programs import PROGRAM_FACTORIES

            programs = PROGRAM_FACTORIES
        self._programs = dict(programs)
        self.data_dir = Path(data_dir) if data_dir is not None else None
        if self.data_dir is not None:
            self.data_dir.mkdir(parents=True, exist_ok=True)
        self.max_sessions = max_sessions
        self._sessions: dict[str, Session] = {}
        self._lock = threading.Lock()

    # -- opening -----------------------------------------------------------

    def open(
        self,
        name: str,
        program: str | None = None,
        *,
        n: int | None = None,
        backend: str | Callable[..., object] | None = None,
        durable: bool | None = None,
        audit_every: int = 0,
    ) -> Session:
        """Return the active session ``name``, reopening it from disk or
        creating it fresh as needed.

        Opening an existing session revalidates ``program``/``n`` if given;
        a mismatch is a :class:`SessionError`, not a silent re-shape.
        """
        if not _NAME_RE.match(name):
            raise SessionError(
                f"invalid session name {name!r} (letters, digits, '_', '-', "
                "'.', max 64 chars, must not start with a separator)"
            )
        with self._lock:
            session = self._sessions.get(name)
            if session is not None:
                self._check_shape(session, program, n)
                return session
            if len(self._sessions) >= self.max_sessions:
                raise OverloadError(
                    f"session table is full ({self.max_sessions} sessions); "
                    "close one before opening another"
                )
            directory = self.data_dir / name if self.data_dir is not None else None
            if durable is None:
                durable = directory is not None
            if durable and directory is None:
                raise SessionError(
                    "durable sessions need a SessionManager data_dir"
                )
            if directory is not None and (directory / "meta.json").exists():
                session = self._restore(name, directory, backend, audit_every)
                self._check_shape(session, program, n)
            else:
                session = self._create(
                    name, program, n, backend, directory if durable else None,
                    audit_every,
                )
            self._sessions[name] = session
            return session

    def _check_shape(
        self, session: Session, program: str | None, n: int | None
    ) -> None:
        if program is not None and program != session.program_name:
            raise SessionError(
                f"session {session.name!r} runs program "
                f"{session.program_name!r}, not {program!r}"
            )
        if n is not None and n != session.engine.n:
            raise SessionError(
                f"session {session.name!r} has universe size "
                f"{session.engine.n}, not {n}"
            )

    def _factory(self, program: str) -> Callable[[], DynFOProgram]:
        try:
            return self._programs[program]
        except KeyError:
            raise SessionError(
                f"unknown program {program!r}; available: "
                f"{', '.join(sorted(self._programs))}"
            ) from None

    def _create(
        self,
        name: str,
        program: str | None,
        n: int | None,
        backend: str | Callable[..., object] | None,
        directory: Path | None,
        audit_every: int,
    ) -> Session:
        if program is None or n is None:
            raise SessionError(
                f"session {name!r} does not exist yet; opening it needs a "
                "program name and a universe size n"
            )
        if isinstance(backend, str) and backend not in BACKENDS:
            raise SessionError(
                f"unknown backend {backend!r}; pick from {sorted(BACKENDS)}"
            )
        engine = DynFOEngine(
            self._factory(program)(),
            n,
            backend=backend if backend is not None else "relational",
            audit_every=audit_every,
        )
        backend_name = backend if isinstance(backend, str) else "relational"
        if directory is not None:
            directory.mkdir(parents=True, exist_ok=True)
            meta = {"program": program, "n": n, "backend": backend_name}
            (directory / "meta.json").write_text(json.dumps(meta))
            # record_effects: journal lines carry the committed delta, so
            # bytes/update scale with the delta and reopening replays the
            # tail physically instead of re-evaluating update formulas
            engine.attach_journal(
                RequestJournal(
                    directory / "journal.ndjson", fsync=False, record_effects=True
                )
            )
        return Session(name, engine, program, backend_name, directory)

    def _restore(
        self,
        name: str,
        directory: Path,
        backend: str | Callable[..., object] | None,
        audit_every: int,
    ) -> Session:
        try:
            meta = json.loads((directory / "meta.json").read_text())
            program_name = meta["program"]
            n = int(meta["n"])
            stored_backend = meta.get("backend", "relational")
        except (ValueError, KeyError, TypeError) as error:
            raise SessionError(
                f"session {name!r} has a corrupt meta.json: {error}"
            ) from error
        chosen = backend if isinstance(backend, str) else stored_backend
        engine = recover(
            self._factory(program_name)(),
            directory / "journal.ndjson",
            n=n,
            snapshot_path=directory / "snapshot.json",
            backend=chosen,
            audit_every=audit_every,
            attach=False,
        )
        engine.attach_journal(
            RequestJournal(
                directory / "journal.ndjson", fsync=False, record_effects=True
            )
        )
        return Session(name, engine, program_name, chosen, directory, recovered=True)

    # -- lookup & lifecycle ------------------------------------------------

    def get(self, name: str) -> Session:
        # snapshot the active names under the lock too: formatting the
        # error from the live dict after dropping the lock can tear
        # against a concurrent open/close mid-iteration
        with self._lock:
            session = self._sessions.get(name)
            active = ", ".join(sorted(self._sessions)) or "none"
        if session is None or session.closed:
            raise SessionError(
                f"no open session {name!r}; open it first (active: {active})"
            )
        return session

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._sessions)

    def items(self) -> list[tuple[str, Session]]:
        """A point-in-time (name, session) snapshot, for metrics walkers."""
        with self._lock:
            return sorted(self._sessions.items())

    def close(self, name: str, snapshot: bool = True) -> None:
        with self._lock:
            session = self._sessions.pop(name, None)
        if session is None:
            raise SessionError(f"no open session {name!r}")
        session.close(snapshot=snapshot)

    def close_all(self, snapshot: bool = True) -> None:
        with self._lock:
            sessions = list(self._sessions.values())
            self._sessions.clear()
        for session in sessions:
            session.close(snapshot=snapshot)

    def drop(self, name: str) -> None:
        """Close ``name`` and delete its on-disk state."""
        with self._lock:
            session = self._sessions.pop(name, None)
        if session is not None:
            session.close(snapshot=False)
            directory = session.directory
        elif self.data_dir is not None and _NAME_RE.match(name):
            directory = self.data_dir / name
        else:
            directory = None
        if directory is not None and directory.exists():
            shutil.rmtree(directory)

    def describe(self) -> dict:
        with self._lock:
            sessions = dict(self._sessions)
        return {name: session.describe() for name, session in sessions.items()}
