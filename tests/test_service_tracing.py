"""Service-level tests for the tracing/observability layer: span trees on
traced requests, latency histograms in ``stats``, the slow-request log with
rendered plans, and the CLI surfaces (``client trace`` / ``client slowlog``
/ ``serve --metrics-port``)."""

import json
import time

import pytest

from repro.cli import main as cli_main
from repro.dynfo.engine import BACKENDS
from repro.dynfo.requests import Insert
from repro.service import DynFOService, ServiceClient


def make_service(**kwargs) -> DynFOService:
    kwargs.setdefault("read_workers", 4)
    return DynFOService(**kwargs)


def slow_backend(delay: float):
    """Every evaluation sleeps: requests through it reliably cross a small
    slow-log threshold."""

    def factory(structure, params, **kwargs):
        time.sleep(delay)
        return BACKENDS["relational"](structure, params, **kwargs)

    factory.base = "relational"
    return factory


def _span_names(trace: dict) -> list[str]:
    return [span["name"] for span in trace["spans"]]


# -- span trees ------------------------------------------------------------


def test_traced_apply_covers_queue_to_fsync(tmp_path):
    service = make_service(data_dir=tmp_path)
    try:
        client = ServiceClient(service)
        client.open("t", "reach_u", n=8)
        result, trace = client.call_traced(
            {
                "op": "apply",
                "session": "t",
                "request": {"op": "ins", "rel": "E", "tup": [0, 1]},
            }
        )
        assert result["applied"] == 1
        assert trace["op"] == "apply" and trace["session"] == "t"
        assert trace["total_us"] > 0
        names = _span_names(trace)
        # the write pipeline end to end: admission queue -> exclusive lock
        # -> engine -> WAL append -> group fsync
        for expected in (
            "queue_wait",
            "writer_lock_wait",
            "engine_apply",
            "journal_append",
            "journal_fsync",
        ):
            assert expected in names, f"missing span {expected!r} in {names}"
        (apply_span,) = [s for s in trace["spans"] if s["name"] == "engine_apply"]
        assert apply_span["meta"]["request"] == "ins(E, 0, 1)"
        children = apply_span.get("spans") or []
        assert children, "detailed trace should carry per-rule eval children"
        assert all(child["name"].startswith("eval:") for child in children)
        assert {child["meta"]["kind"] for child in children} <= {
            "temporary",
            "definition",
        }
        (fsync,) = [s for s in trace["spans"] if s["name"] == "journal_fsync"]
        assert fsync["meta"]["batch_size"] == 1
    finally:
        service.close(snapshot=False)


def test_traced_read_covers_worker_lock_eval():
    service = make_service()
    try:
        client = ServiceClient(service)
        client.open("r", "reach_u", n=8)
        client.apply("r", Insert("E", 0, 1))
        result, trace = client.call_traced(
            {"op": "ask", "session": "r", "name": "reach", "params": {"s": 0, "t": 1}}
        )
        assert result is True
        names = _span_names(trace)
        for expected in ("worker_wait", "read_lock_wait", "eval"):
            assert expected in names, f"missing span {expected!r} in {names}"
        # spans lie within the request on a shared relative axis
        for span in trace["spans"]:
            assert span["start_us"] >= 0
            assert span["duration_us"] >= 0
    finally:
        service.close(snapshot=False)


def test_untraced_requests_carry_no_trace_field(tmp_path):
    service = make_service(data_dir=tmp_path)
    try:
        client = ServiceClient(service)
        client.open("u", "reach_u", n=8)
        response = client.call(
            {
                "op": "apply",
                "session": "u",
                "request": {"op": "ins", "rel": "E", "tup": [0, 1]},
            }
        )
        assert response["ok"] and "trace" not in response
    finally:
        service.close(snapshot=False)


def test_traced_script_shares_one_trace_and_caps_spans():
    service = make_service()
    try:
        client = ServiceClient(service)
        client.open("s", "reach_u", n=8)
        script = [
            {"op": "ins", "rel": "E", "tup": [i % 7, (i + 1) % 7]} for i in range(5)
        ]
        result, trace = client.call_traced(
            {"op": "apply_script", "session": "s", "script": script}
        )
        assert result["applied"] == 5
        names = _span_names(trace)
        assert names.count("engine_apply") == 5
        assert len(trace["spans"]) <= 512
    finally:
        service.close(snapshot=False)


# -- stats histograms ------------------------------------------------------


def test_stats_exposes_latency_percentiles():
    service = make_service()
    try:
        client = ServiceClient(service)
        client.open("h", "reach_u", n=8)
        for i in range(4):
            client.apply("h", Insert("E", i, i + 1))
        for _ in range(3):
            client.ask("h", "reach", s=0, t=4)
        latency = client.stats("h")["h"]["latency"]
        assert set(latency) == {
            "read_latency",
            "write_latency",
            "queue_wait",
            "batch_commit",
            "fsync",
        }
        for name in ("read_latency", "write_latency", "queue_wait", "batch_commit"):
            snap = latency[name]
            assert snap["count"] >= 1, name
            assert 0 < snap["p50_us"] <= snap["p95_us"] <= snap["p99_us"], name
            assert snap["p99_us"] <= snap["max_us"] or snap["p99_us"] == pytest.approx(
                snap["max_us"], rel=0.5
            )
        assert latency["fsync"]["count"] == 0  # in-memory session: no journal
        assert latency["write_latency"]["count"] == 4
        assert latency["read_latency"]["count"] == 3
    finally:
        service.close(snapshot=False)


def test_service_stats_carry_slowlog_threshold_and_slow_count():
    service = make_service(slowlog_ms=0.0)
    try:
        client = ServiceClient(service)
        client.open("x", "reach_u", n=6)
        client.apply("x", Insert("E", 0, 1))
        stats = client.stats()
        assert stats["service"]["slowlog_threshold_ms"] == 0.0
        assert stats["service"]["slow_requests"] >= 1
    finally:
        service.close(snapshot=False)


# -- slow log --------------------------------------------------------------


def test_slowlog_captures_slow_write_with_plan_and_spans():
    service = make_service(slowlog_ms=5.0)
    try:
        client = ServiceClient(service)
        service.sessions.open("lag", "reach_u", n=6, backend=slow_backend(0.01))
        client.apply("lag", Insert("E", 0, 1))
        entries = client.slowlog()["entries"]
        assert entries, "a 10ms-per-eval write must cross the 5ms threshold"
        entry = entries[0]
        assert entry["op"] == "apply" and entry["session"] == "lag"
        assert entry["duration_ms"] >= 5.0
        assert entry["ok"] is True
        # the skeleton trace is always on, so the entry explains itself
        span_names = [span["name"] for span in entry["spans"]]
        assert "engine_apply" in span_names
        # ... and carries the offending rule's compiled plan
        assert "ins(E" in entry["plan"]
        assert entry["plan"].strip()
    finally:
        service.close(snapshot=False)


@pytest.mark.parametrize("backend", ["relational", "dense"])
def test_slowlog_renders_the_plans_the_engine_ran(backend):
    """A slow read logs the engine's own compiled query plan, and a slow
    write its rule's compiled plans — nothing recompiled on the side."""
    from repro.logic.explain import render_plan, render_rule_plans

    service = make_service(slowlog_ms=0.0)
    try:
        client = ServiceClient(service)
        client.open("p", "reach_u", n=6, backend=backend)
        client.apply("p", Insert("E", 0, 1))
        client.ask("p", "reach", s=0, t=1)
        engine = service.sessions.get("p").engine
        by_op = {entry["op"]: entry for entry in client.slowlog()["entries"]}
        query = engine.program.queries["reach"]
        assert by_op["ask"]["plan"] == render_plan(engine.compiled.query_plan(query))
        rule, _, compiled = engine.plans_for(Insert("E", 0, 1))
        written = "\n".join(render_rule_plans(str(Insert("E", 0, 1)), rule, compiled))
        assert by_op["apply"]["plan"] == written
    finally:
        service.close(snapshot=False)


def test_slowlog_wire_op_filters_by_session_and_limit():
    service = make_service(slowlog_ms=0.0)
    try:
        client = ServiceClient(service)
        client.open("a", "reach_u", n=6)
        client.open("b", "reach_u", n=6)
        client.apply("a", Insert("E", 0, 1))
        client.apply("b", Insert("E", 1, 2))
        only_a = client.slowlog(session="a")
        assert only_a["entries"]
        assert all(entry["session"] == "a" for entry in only_a["entries"])
        limited = client.slowlog(limit=1)
        assert len(limited["entries"]) == 1
        everything = client.slowlog()
        assert len(everything["entries"]) > 1
    finally:
        service.close(snapshot=False)


def test_slowlog_records_failed_requests_with_error():
    service = make_service(slowlog_ms=0.0)
    try:
        client = ServiceClient(service)
        client.open("e", "reach_u", n=4)
        response = client.call(
            {"op": "ask", "session": "e", "name": "no_such_query", "params": {}}
        )
        assert not response["ok"]
        failed = [
            entry for entry in client.slowlog()["entries"] if entry["ok"] is False
        ]
        assert failed and "no_such_query" in failed[0]["error"]
    finally:
        service.close(snapshot=False)


# -- CLI surfaces ----------------------------------------------------------


@pytest.fixture
def tcp_server():
    from repro.service import DynFOServer

    server = DynFOServer(port=0, service=make_service(slowlog_ms=0.0))
    server.serve_in_background()
    yield server
    server.stop(snapshot=False)


def test_cli_trace_prints_result_and_span_tree(tcp_server, capsys):
    port = str(tcp_server.port)
    assert cli_main(["client", "--port", port, "open", "chat", "reach_u", "8"]) == 0
    capsys.readouterr()
    assert cli_main(["client", "--port", port, "trace", "ins", "chat", "E", "0", "1"]) == 0
    out = capsys.readouterr().out
    assert '"applied": 1' in out
    assert "trace " in out and ":: apply on 'chat'" in out
    assert "engine_apply" in out and "eval:" in out
    assert cli_main(
        ["client", "--port", port, "trace", "ask", "chat", "reach", "s=0", "t=1"]
    ) == 0
    out = capsys.readouterr().out
    assert "true" in out and "eval" in out


def test_cli_trace_rejects_untraceable_actions(tcp_server):
    port = str(tcp_server.port)
    with pytest.raises(SystemExit):
        cli_main(["client", "--port", port, "trace", "stats"])


def test_cli_slowlog_prints_entries(tcp_server, capsys):
    port = str(tcp_server.port)
    assert cli_main(["client", "--port", port, "open", "chat", "reach_u", "8"]) == 0
    assert cli_main(["client", "--port", port, "ins", "chat", "E", "0", "1"]) == 0
    capsys.readouterr()
    assert cli_main(["client", "--port", port, "slowlog", "chat"]) == 0
    out = capsys.readouterr().out
    assert "slow request(s) past 0.0ms" in out
    lines = [line for line in out.splitlines() if line.startswith("{")]
    assert lines and all(json.loads(line)["session"] == "chat" for line in lines)


def test_cli_serve_exposes_metrics_port(tmp_path):
    import threading
    import urllib.request

    from repro.obs import start_metrics_server
    from repro.service import DynFOServer

    # the same wiring `repro serve --metrics-port` performs, in-process
    service = make_service()
    client = ServiceClient(service)
    client.open("m", "reach_u", n=6)
    client.apply("m", Insert("E", 0, 1))
    server = DynFOServer(port=0, service=service)
    server.serve_in_background()
    metrics_server = start_metrics_server(service, port=0)
    try:
        host, port = metrics_server.server_address[:2]
        body = urllib.request.urlopen(f"http://{host}:{port}/metrics").read().decode()
        assert 'dynfo_session_writes_total{session="m"} 1' in body
        assert "dynfo_write_latency_seconds_bucket" in body
        assert threading.active_count() >= 1
    finally:
        metrics_server.shutdown()
        metrics_server.server_close()
        server.stop(snapshot=False)
