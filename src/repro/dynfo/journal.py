"""Crash-safe persistence layer 1: the write-ahead request journal.

A Dyn-FO engine's state is a *deterministic* function of its request
history (the paper's memorylessness property), so durability needs nothing
fancier than an fsync'd log of accepted requests: after a crash,
``snapshot + journal tail`` replays to exactly the state an uninterrupted
run would have reached.

The journal is one JSON object per line — ``{"seq": k, "req": {...},
"fx": {...}}`` with ``seq`` the 0-based index of the request in the run and
``fx`` its committed state transition — appended *before* the
engine commits the corresponding batch (classic WAL ordering) and fsync'd
so an acknowledged request survives power loss.  :func:`recover` tolerates
a torn final line (a crash mid-append) but treats corruption anywhere else
as a hard :class:`~.errors.JournalError`.

Group commit: with ``fsync=False`` the journal defers durability to an
explicit :meth:`RequestJournal.sync`, so a caller applying a *batch* of
requests pays one fsync for the whole batch instead of one per request
(the serving layer's write coalescing, in the scheduler's
``_commit_batch``).  The invariant callers must keep is the usual one:
never acknowledge a request to its submitter until a ``sync()`` covering
its append has returned.  ``fsync_count`` /
``append_count`` expose how well the amortization is working.

Effect records: every append carries the request's committed state
transition — :meth:`~repro.logic.structure.BatchUpdate.effects` — under
``"fx"``: each changed relation's ``(added, removed)`` pair, written as its
sorted ``add`` edits, then its sorted ``discard`` edits.  That is the
handful of tuples the update actually changed, so journal bytes per update
scale with the delta rather than with |aux|, and :func:`recover` replays
the record *physically*: it stages the edits back into per-relation sets,
the last edit of a tuple winning, and commits them (no formula
re-evaluation).  Journals of earlier engines may carry whole redefined
relations under ``"set"``; replay stages each as its difference from the
current rows.  Records without ``"fx"`` (older journals, whole or mixed)
still recover via logical replay.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from .engine import DynFOEngine
from .errors import JournalError
from .persistence import load_engine
from .program import DynFOProgram
from .requests import Request, request_from_item, request_to_item

__all__ = ["RequestJournal", "read_journal", "read_journal_entries", "recover"]


class RequestJournal:
    """Append-only, fsync'd request log attached to a running engine."""

    def __init__(self, path: str | Path, fsync: bool = True) -> None:
        self.path = Path(path)
        self._fsync = fsync
        self._fh = open(self.path, "a", encoding="utf-8")
        self.append_count = 0
        self.fsync_count = 0
        self.bytes_written = 0

    def append(self, seq: int, request: Request, effects: dict) -> None:
        """Record that request ``seq`` was accepted with the committed state
        transition ``effects``; durable immediately under the default
        per-append fsync policy, at the next :meth:`sync` otherwise."""
        if self._fh.closed:
            raise JournalError(f"journal {self.path} is closed")
        item = {"seq": seq, "req": request_to_item(request), "fx": effects}
        line = json.dumps(item, separators=(",", ":"))
        self._fh.write(line + "\n")
        self._fh.flush()
        self.append_count += 1
        self.bytes_written += len(line) + 1
        if self._fsync:
            os.fsync(self._fh.fileno())
            self.fsync_count += 1

    def sync(self) -> None:
        """Force appended entries to stable storage (the group-commit
        durability point for journals opened with ``fsync=False``)."""
        if self._fh.closed:
            raise JournalError(f"journal {self.path} is closed")
        self._fh.flush()
        os.fsync(self._fh.fileno())
        self.fsync_count += 1

    def close(self) -> None:
        if not self._fh.closed:
            if self.append_count and not self._fsync:
                try:
                    self.sync()
                except (OSError, JournalError):  # pragma: no cover
                    pass
            self._fh.close()

    def __enter__(self) -> "RequestJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def read_journal_entries(
    path: str | Path,
) -> list[tuple[int, Request, dict | None]]:
    """All (seq, request, effects) entries in the journal at ``path``;
    ``effects`` is the record's ``"fx"`` payload, or ``None`` for the
    request-only records of older journals.

    A torn final line — the signature of a crash mid-append — is dropped;
    an undecodable line anywhere else raises :class:`JournalError`.
    """
    path = Path(path)
    if not path.exists():
        return []
    lines = path.read_text(encoding="utf-8").split("\n")
    entries: list[tuple[int, Request, dict | None]] = []
    for index, line in enumerate(lines):
        if not line.strip():
            continue
        try:
            item = json.loads(line)
            entries.append(
                (
                    int(item["seq"]),
                    request_from_item(item["req"]),
                    item.get("fx"),
                )
            )
        except (ValueError, KeyError, TypeError) as error:
            if index >= len(lines) - 2 and all(
                not later.strip() for later in lines[index + 1 :]
            ):
                break  # torn tail from a crash mid-append
            raise JournalError(
                f"journal {path} corrupt at line {index + 1}: {error}"
            ) from error
    return entries


def read_journal(path: str | Path) -> list[tuple[int, Request]]:
    """All (seq, request) entries in the journal at ``path`` (effect
    payloads, when present, are dropped — see :func:`read_journal_entries`)."""
    return [(seq, request) for seq, request, _ in read_journal_entries(path)]


def recover(
    program: DynFOProgram,
    journal_path: str | Path,
    *,
    n: int | None = None,
    snapshot_path: str | Path | None = None,
    backend: str | None = None,
    audit_every: int = 0,
    attach: bool = True,
) -> DynFOEngine:
    """Rebuild an engine after a crash: restore the snapshot (or the initial
    structure when there is none — ``n`` is then required), replay the
    journal tail past ``requests_applied``, and re-attach the journal so the
    run continues appending where it left off.

    Records carrying effect payloads replay *physically* — the recorded
    state transition is applied directly, skipping formula evaluation —
    and reach the state logical replay would, by construction (the effects
    are what the original ``apply`` committed).  Records without effects,
    from older journals, replay logically through :meth:`apply`."""
    if snapshot_path is not None and Path(snapshot_path).exists():
        engine = load_engine(program, snapshot_path, backend=backend)
        engine.audit_every = audit_every
    else:
        if n is None:
            raise JournalError(
                "recover() needs a universe size n when there is no snapshot"
            )
        engine = DynFOEngine(
            program, n, backend=backend or "relational", audit_every=audit_every
        )
    for seq, request, effects in read_journal_entries(journal_path):
        if seq < engine.requests_applied:
            continue  # already captured by the snapshot
        if seq != engine.requests_applied:
            raise JournalError(
                f"journal {journal_path} jumps to seq {seq} but the engine "
                f"has applied {engine.requests_applied} requests"
            )
        if effects is not None:
            engine.apply_effects(request, effects)
        else:
            engine.apply(request)
    if attach:
        engine.attach_journal(RequestJournal(journal_path))
    return engine
