"""Layer spans for the traced run: recording (server side) and accounting
(client side).

:func:`install` wraps public functions of the serving stack, from the
benchmark's own launcher and without editing ``src/``.  Each call becomes a
span ``[name, request id, start ns, end ns, parent, extra]``.  Parents
follow a per-thread stack; a read's evaluation runs on the scheduler's
worker thread, so the ``Scheduler.read`` wrapper hands its span and request
id to that thread.  The request id is the frame's ``id``, taken when
``decode_frame`` returns.  Spans stay in memory until :meth:`Tracer.export`.

:func:`layer_metrics` turns exported spans plus the client's latencies into
per-layer figures.  A span's self time is its duration minus the union of
its children's intervals.  ``unattributed`` is client latency minus the
durations of the root spans (decode, handle, encode), measured apart from
the self times, so ``accounting_gap_pct`` shows whether the self times
really partition the server's time.
"""

from __future__ import annotations

import statistics
import threading
from collections import defaultdict
from functools import wraps
from time import monotonic_ns

__all__ = ["Tracer", "install", "layer_metrics", "p95", "PER_LAYER"]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> list:
        stack = self._stack()
        span = [
            name,
            getattr(self._local, "rid", None),
            monotonic_ns(),
            0,
            stack[-1] if stack else None,
            None,
        ]
        self.spans.append(span)
        stack.append(span)
        return span

    def close(self, span: list) -> None:
        span[3] = monotonic_ns()
        self._stack().pop()

    def wrap(self, owner, attr: str, name: str, extra=None) -> None:
        """Replace ``owner.attr`` with a spanned call; ``extra(args, kwargs,
        result)`` (optional) annotates the span after the call."""
        original = getattr(owner, attr)

        @wraps(original)
        def spanned(*args, **kwargs):
            span = self.open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self.close(span)
            if extra is not None:
                span[5] = extra(args, kwargs, result)
            return result

        setattr(owner, attr, spanned)

    def export(self) -> list[list]:
        """Finished spans with parents as list indices (-1 for roots)."""
        done = [span for span in self.spans if span[3]]
        index = {id(span): i for i, span in enumerate(done)}
        return [
            [name, rid, start, end, index.get(id(parent), -1), extra]
            for name, rid, start, end, parent, extra in done
        ]


def install() -> Tracer:
    """Wrap the serving stack's public layer boundaries; returns the
    tracer that collects their spans."""
    from repro.dynfo.engine import DynFOEngine
    from repro.dynfo.journal import RequestJournal
    from repro.dynfo.program import CompiledProgram
    from repro.logic.relational import RelationalEvaluator
    from repro.logic.structure import BatchUpdate, Structure
    from repro.obs.slowlog import SlowLog
    from repro.obs.trace import Trace
    from repro.service import server as server_module
    from repro.service import service as service_module
    from repro.service.scheduler import Scheduler
    from repro.service.service import DynFOService

    tracer = Tracer()
    local = tracer._local
    wrap = tracer.wrap

    # -- protocol: the connection thread decodes, the service encodes rows
    original_decode = server_module.decode_frame

    def decode_frame(line):
        span = tracer.open("protocol.decode")
        try:
            item = original_decode(line)
        finally:
            tracer.close(span)
        local.rid = item.get("id")
        span[1] = local.rid
        return item

    server_module.decode_frame = decode_frame
    wrap(server_module, "encode_frame", "protocol.encode", lambda args, kwargs, out: len(out))
    wrap(service_module, "rows_to_wire", "protocol.rows_to_wire")

    wrap(DynFOService, "handle", "service.handle", lambda args, kwargs, out: args[1].get("op"))

    # -- scheduler: hand the read span to the worker thread that evaluates
    original_read = Scheduler.read

    def read(self, session, fn, *args, **kwargs):
        span = tracer.open("scheduler.read")
        rid = local.rid

        def evaluate():
            local.stack, local.rid = [span], rid
            try:
                return fn()
            finally:
                local.stack, local.rid = [], None

        try:
            return original_read(self, session, evaluate, *args, **kwargs)
        finally:
            tracer.close(span)

    Scheduler.read = read
    wrap(Scheduler, "apply_script", "scheduler.apply_script")

    # -- engine: per-update counters and per-definition times
    original_apply = DynFOEngine.apply

    def apply(self, request):
        span = tracer.open("engine.apply")
        evals: list = []
        self.eval_timing_hook = lambda kind, name, ns: evals.append((kind, name, ns))
        try:
            original_apply(self, request)
        finally:
            self.eval_timing_hook = None
            tracer.close(span)
        span[5] = {"stats": dict(self.last_update_stats), "evals": evals}

    DynFOEngine.apply = apply
    wrap(DynFOEngine, "query", "engine.query")
    wrap(DynFOEngine, "ask", "engine.ask")

    original_specialize = CompiledProgram.specialized_rule_plans

    def specialized_rule_plans(self, rule, params):
        hits = self.spec_hits
        span = tracer.open("program.specialize")
        try:
            return original_specialize(self, rule, params)
        finally:
            tracer.close(span)
            span[5] = self.spec_hits > hits

    CompiledProgram.specialized_rule_plans = specialized_rule_plans

    wrap(RelationalEvaluator, "execute", "relational.execute", lambda args, kwargs, out: len(out))
    wrap(Structure, "expand", "structure.expand")
    for attr in ("stage_edits_trusted", "add", "discard"):
        wrap(BatchUpdate, attr, "structure.stage")
    wrap(BatchUpdate, "commit", "structure.commit")
    wrap(RequestJournal, "append", "journal.append")
    wrap(RequestJournal, "sync", "journal.sync")

    def trace_record(args, kwargs, out):
        # Trace.record(name, start_ns, duration_ns, meta=None)
        name, duration_ns = args[1], args[3]
        if name not in ("queue_wait", "writer_lock_wait", "collapse_join"):
            return None
        meta = kwargs.get("meta") or (args[4] if len(args) > 4 else None) or {}
        return [name, duration_ns, meta.get("batch_size")]

    wrap(Trace, "record", "obs.record", trace_record)
    wrap(SlowLog, "observe", "obs.record")
    return tracer


#: per-layer metrics of the traced run: name -> unit
PER_LAYER = {
    "relational.execute_ms_per_update": "ms",
    "relational.rows_out_per_update": "count",
    "engine.temporary_tuples_per_update": "count",
    "engine.apply_self_ms_per_update": "ms",
    "engine.tuples_changed_per_update": "count",
    "engine.tuples_written_per_update": "count",
    "engine.useful_write_ratio": "ratio",
    "structure.expand_us_per_update": "us",
    "structure.stage_us_per_update": "us",
    "structure.commit_us_per_update": "us",
    "program.specialize_us_per_update": "us",
    "program.specialized_hit_ratio": "ratio",
    "engine.query_ms_per_read": "ms",
    "journal.append_us_per_update": "us",
    "journal.sync_ms_per_batch": "ms",
    "journal.fsyncs_per_update": "count",
    "scheduler.read_self_us_per_read": "us",
    "scheduler.write_self_us_per_write": "us",
    "scheduler.queue_wait_p95_ms": "ms",
    "scheduler.batch_size_avg": "count",
    "scheduler.read_collapse_ratio": "ratio",
    "service.handle_self_us_per_request": "us",
    "protocol.decode_us_per_frame": "us",
    "protocol.encode_us_per_frame": "us",
    "protocol.response_bytes_per_read": "B",
    "obs.record_us_per_request": "us",
    "unattributed_ms_per_request": "ms",
    "accounting_gap_pct": "%",
    "tracing.read_overhead_pct": "%",
    "tracing.insert_overhead_pct": "%",
    "loadgen.lag_p95_ms": "ms",
    "loadgen.backlog": "count",
}


def _self_times(spans: list[list]) -> list[int]:
    children: dict[int, list[int]] = defaultdict(list)
    for i, span in enumerate(spans):
        if span[4] >= 0:
            children[span[4]].append(i)
    out = []
    for i, (_, _, start, end, _, _) in enumerate(spans):
        covered = 0
        reach = start
        for c_start, c_end in sorted((spans[c][2], spans[c][3]) for c in children[i]):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append(end - start - covered)
    return out


def p95(values: list[float]) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=20)[18]


def layer_metrics(spans: list[list], timed: dict[int, tuple[str, float]]) -> tuple[dict, dict]:
    """Per-layer figures over the requests in ``timed`` (frame id ->
    (kind, client latency ms)).  Returns (metrics, per-definition ms per
    update)."""
    self_ns = _self_times(spans)
    reads = sum(1 for kind, _ in timed.values() if kind == "read")
    updates = len(timed) - reads
    requests = len(timed)
    total = defaultdict(int)  # (layer, kind) -> summed duration ns
    own = defaultdict(int)  # (layer, kind) -> summed self ns
    calls = defaultdict(int)
    rows_out = 0
    stats = defaultdict(int)
    definitions: dict[str, int] = defaultdict(int)
    spec_hits = spec_calls = 0
    response_bytes = 0
    queue_waits: list[float] = []
    batch_sizes: list[int] = []
    collapsed = 0
    roots_ns = 0
    self_sum = 0
    for i, (name, rid, start, end, parent, extra) in enumerate(spans):
        entry = timed.get(rid)
        if entry is None:
            continue
        kind = "read" if entry[0] == "read" else "write"
        total[name, kind] += end - start
        own[name, kind] += self_ns[i]
        calls[name, kind] += 1
        self_sum += self_ns[i]
        if parent < 0:
            roots_ns += end - start
        if name == "relational.execute" and kind == "write":
            rows_out += extra
        elif name == "engine.apply":
            for key, value in extra["stats"].items():
                stats[key] += value
            for eval_kind, eval_name, ns in extra["evals"]:
                if eval_kind != "journal":
                    definitions[eval_name] += ns
        elif name == "program.specialize":
            spec_calls += 1
            spec_hits += bool(extra)
        elif name == "protocol.encode" and kind == "read":
            response_bytes += extra
        elif name == "obs.record" and extra:
            record_name, ns, batch_size = extra
            if record_name == "queue_wait":
                queue_waits.append(ns / 1e6)
            elif record_name == "writer_lock_wait" and batch_size:
                batch_sizes.append(batch_size)
            elif record_name == "collapse_join":
                collapsed += 1

    def per(value: float, count: int) -> float:
        return value / count if count else 0.0

    def both(table, layer):
        return table[layer, "read"] + table[layer, "write"]

    latency_ms = sum(ms for _, ms in timed.values())
    unattributed_ms = latency_ms - roots_ns / 1e6
    written = stats["tuples_written"] + stats["temporary_tuples"]
    changed = stats["tuples_added"] + stats["tuples_removed"]
    syncs = calls["journal.sync", "write"]
    metrics = {
        "relational.execute_ms_per_update": per(total["relational.execute", "write"] / 1e6, updates),
        "relational.rows_out_per_update": per(rows_out, updates),
        "engine.temporary_tuples_per_update": per(stats["temporary_tuples"], updates),
        "engine.apply_self_ms_per_update": per(own["engine.apply", "write"] / 1e6, updates),
        "engine.tuples_changed_per_update": per(changed, updates),
        "engine.tuples_written_per_update": per(stats["tuples_written"], updates),
        "engine.useful_write_ratio": per(changed, written),
        "structure.expand_us_per_update": per(total["structure.expand", "write"] / 1e3, updates),
        "structure.stage_us_per_update": per(total["structure.stage", "write"] / 1e3, updates),
        "structure.commit_us_per_update": per(total["structure.commit", "write"] / 1e3, updates),
        "program.specialize_us_per_update": per(total["program.specialize", "write"] / 1e3, updates),
        "program.specialized_hit_ratio": per(spec_hits, spec_calls),
        "engine.query_ms_per_read": per(
            (total["engine.query", "read"] + total["engine.ask", "read"]) / 1e6, reads
        ),
        "journal.append_us_per_update": per(total["journal.append", "write"] / 1e3, updates),
        "journal.sync_ms_per_batch": per(total["journal.sync", "write"] / 1e6, syncs),
        "journal.fsyncs_per_update": per(syncs, updates),
        "scheduler.read_self_us_per_read": per(own["scheduler.read", "read"] / 1e3, reads),
        "scheduler.write_self_us_per_write": per(own["scheduler.apply_script", "write"] / 1e3, updates),
        "scheduler.queue_wait_p95_ms": p95(queue_waits),
        "scheduler.batch_size_avg": per(sum(batch_sizes), len(batch_sizes)),
        "scheduler.read_collapse_ratio": per(collapsed, reads),
        "service.handle_self_us_per_request": per(both(own, "service.handle") / 1e3, requests),
        "protocol.decode_us_per_frame": per(both(total, "protocol.decode") / 1e3, requests),
        "protocol.encode_us_per_frame": per(
            (both(total, "protocol.encode") + both(total, "protocol.rows_to_wire")) / 1e3, requests
        ),
        "protocol.response_bytes_per_read": per(response_bytes, reads),
        "obs.record_us_per_request": per(both(total, "obs.record") / 1e3, requests),
        "unattributed_ms_per_request": per(unattributed_ms, requests),
        "accounting_gap_pct": 100.0 * per(self_sum / 1e6 + unattributed_ms - latency_ms, latency_ms),
    }
    per_definition = {name: per(ns / 1e6, updates) for name, ns in sorted(definitions.items())}
    return metrics, per_definition
