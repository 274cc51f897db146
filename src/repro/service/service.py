"""The transport-agnostic request dispatcher.

:class:`DynFOService` is the whole serving layer behind one method:
``handle(item) -> response``.  The TCP front end feeds it decoded frames;
the in-process :class:`~.client.ServiceClient` calls it directly — both run
the *identical* dispatch, scheduling, and error paths, which is what makes
the in-process client an honest test double for the socket one.

``handle`` never raises: every failure becomes a typed error response via
:func:`~.errors.error_to_wire` (stable codes, no tracebacks).

Observability: every request gets a :class:`~..obs.trace.Trace` the
scheduler fills with per-phase spans.  A frame carrying ``"trace": true``
gets the full span tree (plus per-rule engine timings) echoed back in the
response's ``trace`` field; independently, any request slower than the
slow-log threshold lands in the ring-buffer slow log together with the
compiled plan of the rule or query it exercised (``slowlog`` wire op,
``repro client slowlog``).

Wire ops: ``ping``, ``open``, ``apply``, ``apply_script``, ``query``,
``ask``, ``stats``, ``sessions``, ``slowlog``, ``save``, ``close``.  See
docs/TUTORIAL.md §8-9 for the request shapes.
"""

from __future__ import annotations

from pathlib import Path
from typing import Mapping

from ..dynfo.requests import request_from_item
from ..obs.slowlog import SlowLog
from ..obs.trace import Trace
from .errors import ProtocolError, error_to_wire
from .metrics import ServiceMetrics
from .protocol import get_field, rows_to_wire
from .scheduler import Scheduler
from .session import Session, SessionManager

__all__ = ["DynFOService"]


class DynFOService:
    """SessionManager + Scheduler behind a single ``handle`` entry point."""

    def __init__(
        self,
        data_dir: str | Path | None = None,
        max_sessions: int = 64,
        read_workers: int = 8,
        max_batch: int = 64,
        max_queue_depth: int = 256,
        default_deadline: float | None = 30.0,
        programs: Mapping | None = None,
        slowlog_capacity: int = 64,
        slowlog_ms: float = 250.0,
    ) -> None:
        self.sessions = SessionManager(
            data_dir=data_dir, max_sessions=max_sessions, programs=programs
        )
        self.scheduler = Scheduler(
            read_workers=read_workers,
            max_batch=max_batch,
            max_queue_depth=max_queue_depth,
            default_deadline=default_deadline,
        )
        self.metrics = ServiceMetrics()
        self.slowlog = SlowLog(capacity=slowlog_capacity, threshold_ms=slowlog_ms)
        self._ops = {
            "ping": self._op_ping,
            "open": self._op_open,
            "apply": self._op_apply,
            "apply_script": self._op_apply_script,
            "query": self._op_query,
            "ask": self._op_ask,
            "stats": self._op_stats,
            "sessions": self._op_sessions,
            "slowlog": self._op_slowlog,
            "save": self._op_save,
            "close": self._op_close,
        }

    # -- the single entry point -------------------------------------------

    def handle(self, item: dict) -> dict:
        """Dispatch one decoded frame; always returns a response frame."""
        rid = item.get("id") if isinstance(item, dict) else None
        self.metrics.record_request()
        trace: Trace | None = None
        try:
            if not isinstance(item, dict):
                raise ProtocolError(
                    f"frame must be a JSON object, got {type(item).__name__}"
                )
            op = item.get("op")
            handler = self._ops.get(op)
            if handler is None:
                raise ProtocolError(
                    f"unknown op {op!r}; available: {', '.join(sorted(self._ops))}"
                )
            session_name = item.get("session")
            trace = Trace(
                op=op,
                session=session_name if isinstance(session_name, str) else None,
                detailed=bool(item.get("trace")),
            )
            result = handler(item, trace)
        except Exception as error:
            wire = error_to_wire(error)
            self.metrics.record_error(wire["code"])
            self._observe(item, trace, ok=False, error=wire.get("message"))
            return {"id": rid, "ok": False, "error": wire}
        response = {"id": rid, "ok": True, "result": result}
        if trace.detailed:
            response["trace"] = trace.to_wire()
        self._observe(item, trace, ok=True)
        return response

    # -- observability -----------------------------------------------------

    def _observe(
        self, item, trace: Trace | None, ok: bool, error: str | None = None
    ) -> None:
        """Feed the slow log; rendering the offending plan is deferred
        until the threshold check says the request was actually slow."""
        if trace is None:
            return
        total_ns = trace.total_ns
        if not self.slowlog.is_slow(total_ns):
            return
        plan = self._render_slow_plan(item) if isinstance(item, dict) else None
        if self.slowlog.observe(trace, total_ns, ok, plan=plan, error=error):
            self.metrics.record_slow()

    def _render_slow_plan(self, item: dict) -> str | None:
        """The compiled physical plan behind a slow request — the rule the
        write dispatched to, or the query it evaluated — as ``render_plan``
        text.  Best effort: never raises into the response path."""
        try:
            from ..logic.explain import render_plan, render_rule_plans
            from ..logic.plan import compile_formula

            op = item.get("op")
            session = self.sessions.get(item["session"])
            program = session.engine.program
            distribute = session.backend_name != "dense"

            def render_definitions(owner: str, definitions) -> list[str]:
                parts = []
                for definition in definitions:
                    frame = ", ".join(definition.frame)
                    plan = compile_formula(
                        definition.formula, definition.frame, distribute=distribute
                    )
                    parts.append(
                        f"{owner} :: {definition.name}({frame})\n{render_plan(plan)}"
                    )
                return parts

            if op in ("query", "ask"):
                query = program.queries.get(item.get("name"))
                if query is None:
                    return None
                return "\n".join(render_definitions("query", [query]))
            if op in ("apply", "apply_script"):
                if op == "apply":
                    request = request_from_item(item.get("request"))
                else:
                    script = item.get("script") or []
                    if not script:
                        return None
                    request = request_from_item(script[0])
                # the plans that ran: the rule's Δ plans on the plan
                # backends; the naive and callable backends evaluate the
                # definitions whole.  Raises (no plan) for a request the
                # engine rejects.
                rule, _, compiled = session.engine.plans_for(request)
                if compiled is not None:
                    parts = render_rule_plans(str(request), rule, compiled)
                else:
                    parts = render_definitions(f"{request} [temp]", rule.temporaries)
                    parts += render_definitions(str(request), rule.definitions)
                return "\n".join(parts)
        except Exception:  # pragma: no cover - diagnostics must not raise
            return None
        return None

    # -- shared plumbing ---------------------------------------------------

    def _session(self, item: dict) -> Session:
        return self.sessions.get(get_field(item, "session", str))

    @staticmethod
    def _deadline(item: dict) -> float | None:
        deadline_ms = item.get("deadline_ms")
        if deadline_ms is None:
            return None
        if isinstance(deadline_ms, bool) or not isinstance(deadline_ms, (int, float)):
            raise ProtocolError("deadline_ms must be a number of milliseconds")
        return float(deadline_ms) / 1e3

    @staticmethod
    def _params(item: dict) -> dict[str, int]:
        params = item.get("params") or {}
        if not isinstance(params, dict):
            raise ProtocolError("params must be an object of name -> int")
        for name, value in params.items():
            if isinstance(value, bool) or not isinstance(value, int):
                raise ProtocolError(f"param {name!r} must be an int, got {value!r}")
        return params

    @staticmethod
    def _wire_request(item_req) -> object:
        try:
            return request_from_item(item_req)
        except ValueError as error:
            raise ProtocolError(str(error)) from error

    # -- ops ---------------------------------------------------------------

    def _op_ping(self, item: dict, trace: Trace) -> str:
        return "pong"

    def _op_open(self, item: dict, trace: Trace) -> dict:
        name = get_field(item, "session", str)
        program = get_field(item, "program", str, required=False)
        n = get_field(item, "n", int, required=False)
        backend = get_field(item, "backend", str, required=False)
        durable = get_field(item, "durable", bool, required=False)
        audit_every = get_field(item, "audit_every", int, required=False) or 0
        session = self.sessions.open(
            name,
            program,
            n=n,
            backend=backend,
            durable=durable,
            audit_every=audit_every,
        )
        return {
            "session": session.name,
            "program": session.program_name,
            "n": session.engine.n,
            "backend": session.backend_name,
            "requests_applied": session.engine.requests_applied,
            "durable": session.directory is not None,
            "recovered": session.recovered,
        }

    def _op_apply(self, item: dict, trace: Trace) -> dict:
        session = self._session(item)
        request = self._wire_request(get_field(item, "request", dict))
        stats = self.scheduler.apply(
            session, request, self._deadline(item), trace=trace
        )
        return {
            "applied": 1,
            "requests_applied": session.engine.requests_applied,
            "stats": stats,
        }

    def _op_apply_script(self, item: dict, trace: Trace) -> dict:
        session = self._session(item)
        script = get_field(item, "script", list)
        requests = [self._wire_request(entry) for entry in script]
        outcomes = self.scheduler.apply_script(
            session, requests, self._deadline(item), trace=trace
        )
        errors = [
            {"index": i, "error": error_to_wire(outcome.error)}
            for i, outcome in enumerate(outcomes)
            if outcome.error is not None
        ]
        return {
            "applied": len(outcomes) - len(errors),
            "requests_applied": session.engine.requests_applied,
            "errors": errors,
        }

    def _op_query(self, item: dict, trace: Trace) -> list[list[int]]:
        session = self._session(item)
        name = get_field(item, "name", str)
        params = self._params(item)
        key = ("query", name, tuple(sorted(params.items())))
        try:
            rows = self.scheduler.read(
                session,
                lambda: session.engine.query(name, **params),
                key=key,
                deadline=self._deadline(item),
                trace=trace,
            )
        except KeyError as error:
            raise ProtocolError(str(error)) from error
        except TypeError as error:
            raise ProtocolError(f"bad params for query {name!r}: {error}") from error
        return rows_to_wire(rows)

    def _op_ask(self, item: dict, trace: Trace) -> bool:
        session = self._session(item)
        name = get_field(item, "name", str)
        params = self._params(item)
        key = ("ask", name, tuple(sorted(params.items())))
        try:
            return bool(
                self.scheduler.read(
                    session,
                    lambda: session.engine.ask(name, **params),
                    key=key,
                    deadline=self._deadline(item),
                    trace=trace,
                )
            )
        except KeyError as error:
            raise ProtocolError(str(error)) from error
        except TypeError as error:
            raise ProtocolError(f"bad params for query {name!r}: {error}") from error

    def _op_stats(self, item: dict, trace: Trace) -> dict:
        which = get_field(item, "session", str, required=False)
        if which is not None:
            return {which: self.sessions.get(which).describe()}
        return {
            "service": {
                **self.metrics.snapshot(),
                "sessions": len(self.sessions.names()),
                "max_sessions": self.sessions.max_sessions,
                "read_workers": self.scheduler.read_workers,
                "max_batch": self.scheduler.max_batch,
                "max_queue_depth": self.scheduler.max_queue_depth,
                "slowlog_threshold_ms": self.slowlog.threshold_ms,
            },
            "sessions": self.sessions.describe(),
        }

    def _op_sessions(self, item: dict, trace: Trace) -> list[str]:
        return self.sessions.names()

    def _op_slowlog(self, item: dict, trace: Trace) -> dict:
        which = get_field(item, "session", str, required=False)
        limit = get_field(item, "limit", int, required=False)
        payload = self.slowlog.snapshot()
        if which is not None:
            payload["entries"] = [
                entry for entry in payload["entries"] if entry.get("session") == which
            ]
        if limit is not None and limit >= 0:
            payload["entries"] = payload["entries"][:limit]
        return payload

    def _op_save(self, item: dict, trace: Trace) -> dict:
        session = self._session(item)
        session.save()
        return {
            "session": session.name,
            "requests_applied": session.engine.requests_applied,
        }

    def _op_close(self, item: dict, trace: Trace) -> dict:
        name = get_field(item, "session", str)
        snapshot = get_field(item, "snapshot", bool, required=False)
        self.sessions.close(name, snapshot=True if snapshot is None else snapshot)
        return {"session": name, "closed": True}

    # -- lifecycle ---------------------------------------------------------

    def close(self, snapshot: bool = True) -> None:
        """Quiesce: close every session (snapshotting durable ones) and the
        read pool."""
        self.sessions.close_all(snapshot=snapshot)
        self.scheduler.close()
