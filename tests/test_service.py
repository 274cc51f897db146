"""The serving layer: sessions, scheduling, protocol, clients, CLI.

Most tests run the in-process :class:`ServiceClient`, which exercises the
exact dispatch/scheduling/error paths the TCP front end uses; a handful go
over a real socket to pin down framing, connection survival, and
read-your-writes across clients.
"""

from __future__ import annotations

import json
import threading
import time

import pytest

from repro.cli import main as cli_main
from repro.dynfo import BACKENDS
from repro.dynfo.errors import RequestValidationError
from repro.dynfo.requests import Delete, Insert
from repro.service import (
    DynFOServer,
    DynFOService,
    OverloadError,
    ProtocolError,
    ServiceClient,
    SessionError,
    TCPServiceClient,
    code_for,
    error_from_wire,
    error_to_wire,
)
from repro.service.protocol import decode_frame, encode_frame


def make_service(**kwargs) -> DynFOService:
    kwargs.setdefault("read_workers", 4)
    return DynFOService(**kwargs)


@pytest.fixture
def service():
    svc = make_service()
    yield svc
    svc.close(snapshot=False)


@pytest.fixture
def client(service):
    return ServiceClient(service)


@pytest.fixture
def tcp_server():
    server = DynFOServer(port=0, service=make_service())
    server.serve_in_background()
    yield server
    server.stop(snapshot=False)


def slow_backend(delay: float):
    """A backend whose every evaluation sleeps — writes become slow enough
    to queue behind deterministically."""

    def factory(structure, params):
        time.sleep(delay)
        return BACKENDS["relational"](structure, params)

    return factory


# -- basic ops ------------------------------------------------------------


def test_open_apply_ask_query(client):
    info = client.open("g", "reach_u", n=8)
    assert info == {
        "session": "g",
        "program": "reach_u",
        "n": 8,
        "backend": "relational",
        "requests_applied": 0,
        "durable": False,
        "recovered": False,
    }
    client.apply("g", Insert("E", 0, 1))
    client.apply("g", Insert("E", 1, 2))
    assert client.ask("g", "reach", s=0, t=2)
    assert not client.ask("g", "reach", s=0, t=5)
    assert (0, 2) in client.query("g", "connected")
    assert client.sessions() == ["g"]


def test_open_is_idempotent_but_shape_checked(client):
    client.open("g", "reach_u", n=8)
    assert client.open("g")["requests_applied"] == 0
    assert client.open("g", "reach_u", n=8)["session"] == "g"
    with pytest.raises(SessionError):
        client.open("g", "reach_u", n=16)
    with pytest.raises(SessionError):
        client.open("g", "parity", n=8)


def test_apply_script_reports_requests_applied(client):
    client.open("g", "reach_u", n=8)
    result = client.apply_script("g", [Insert("E", i, i + 1) for i in range(5)])
    assert result["applied"] == 5
    assert result["requests_applied"] == 5


# -- typed errors over the wire -------------------------------------------


def test_unknown_session_is_session_error(client):
    with pytest.raises(SessionError):
        client.ask("ghost", "reach", s=0, t=1)


def test_invalid_session_name_rejected(client):
    for bad in ("", "../escape", "a/b", "x" * 65, ".hidden"):
        with pytest.raises(SessionError):
            client.open(bad, "reach_u", n=4)


def test_unknown_program_and_backend(client):
    with pytest.raises(SessionError):
        client.open("g", "no_such_program", n=4)
    with pytest.raises(SessionError):
        client.open("g", "reach_u", n=4, backend="quantum")


def test_validation_errors_keep_their_type(client):
    client.open("g", "reach_u", n=4)
    with pytest.raises(RequestValidationError):
        client.apply("g", Insert("E", 0, 99))  # outside the universe
    # an unsupported request kind maps to its own stable code
    from repro.dynfo import UnsupportedRequest
    from repro.dynfo.requests import SetConst

    with pytest.raises(UnsupportedRequest):
        client.apply("g", SetConst("c", 1))
    # the failed requests consumed no version numbers
    assert client.open("g")["requests_applied"] == 0


def test_protocol_errors_for_malformed_frames(client):
    for item, fragment in [
        ({"op": "nope"}, "unknown op"),
        ({"op": "ask", "session": "g"}, "needs a 'name'"),
        ({"op": "ask", "session": 7, "name": "reach"}, "must be str"),
        ({"op": "apply", "session": "g"}, "needs a 'request'"),
    ]:
        client.open("g", "reach_u", n=4)
        with pytest.raises(ProtocolError, match=fragment):
            client.request(item)


def test_error_codes_are_stable_and_roundtrip():
    from repro.dynfo.errors import IntegrityError, JournalError

    cases = [
        (OverloadError("x"), "OVERLOADED"),
        (SessionError("x"), "SESSION_ERROR"),
        (ProtocolError("x"), "PROTOCOL_ERROR"),
        (RequestValidationError("x"), "REQUEST_INVALID"),
        (JournalError("x"), "JOURNAL_CORRUPT"),
        (IntegrityError("x"), "INTEGRITY_VIOLATION"),
        (ValueError("x"), "INTERNAL_ERROR"),
    ]
    for error, code in cases:
        assert code_for(error) == code, error
    wire = error_to_wire(OverloadError("back off"))
    rebuilt = error_from_wire(wire)
    assert isinstance(rebuilt, OverloadError)
    assert "back off" in str(rebuilt)
    assert "OVERLOADED" in str(rebuilt)
    # a future server's unknown code still decodes to a typed error
    from repro.service import ServiceError

    assert isinstance(error_from_wire({"code": "FROM_THE_FUTURE"}), ServiceError)


def test_responses_never_carry_tracebacks(client):
    client.open("g", "reach_u", n=4)
    response = client.call({"op": "apply", "session": "g", "request": {"op": "???"}})
    assert response["ok"] is False
    payload = json.dumps(response)
    assert "Traceback" not in payload and "File \"" not in payload
    assert response["error"]["code"] == "PROTOCOL_ERROR"


# -- admission control ----------------------------------------------------


def test_session_table_overload():
    svc = make_service(max_sessions=2)
    try:
        client = ServiceClient(svc)
        client.open("a", "parity", n=4)
        client.open("b", "parity", n=4)
        with pytest.raises(OverloadError):
            client.open("c", "parity", n=4)
        client.close_session("a")
        client.open("c", "parity", n=4)  # freed slot is reusable
    finally:
        svc.close(snapshot=False)


def test_queue_depth_overload():
    svc = make_service(max_queue_depth=4)
    try:
        client = ServiceClient(svc)
        client.open("g", "reach_u", n=8)
        with pytest.raises(OverloadError):
            client.apply_script("g", [Insert("E", 0, 1)] * 5)
        # the rejected script applied nothing
        assert client.open("g")["requests_applied"] == 0
        client.apply_script("g", [Insert("E", i, i + 1) for i in range(4)])
    finally:
        svc.close(snapshot=False)


def test_deadline_overload_while_queued():
    svc = make_service()
    try:
        manager = svc.sessions
        session = manager.open("slow", "reach_u", n=6, backend=slow_backend(0.05))
        first_started = threading.Event()

        def long_write():
            first_started.set()
            svc.scheduler.apply(session, Insert("E", 0, 1))

        writer = threading.Thread(target=long_write)
        writer.start()
        first_started.wait()
        time.sleep(0.02)  # let the first batch take the writer lock
        with pytest.raises(OverloadError, match="deadline"):
            svc.scheduler.apply(session, Insert("E", 1, 2), deadline=0.001)
        writer.join()
        # the first write committed; the expired one did not
        assert session.engine.requests_applied == 1
        assert session.metrics.snapshot()["overloads"] >= 1
    finally:
        svc.close(snapshot=False)


# -- batching & collapsing -------------------------------------------------


def test_contiguous_script_commits_as_one_batch(client):
    client.open("g", "reach_u", n=12)
    client.apply_script("g", [Insert("E", i, i + 1) for i in range(10)])
    stats = client.stats("g")["g"]
    assert stats["batches"] == 1
    assert stats["batch_size_max"] == 10
    assert stats["writes"] == 10


def test_batched_and_serial_commits_agree(client):
    script = [Insert("E", i, i + 1) for i in range(9)] + [Delete("E", 3, 4)]
    client.open("batched", "reach_u", n=12)
    client.apply_script("batched", script)
    client.open("serial", "reach_u", n=12)
    for request in script:
        client.apply("serial", request)
    for s, t in [(0, 9), (0, 3), (4, 9), (3, 5)]:
        assert client.ask("batched", "reach", s=s, t=t) == client.ask(
            "serial", "reach", s=s, t=t
        )
    assert client.query("batched", "connected") == client.query("serial", "connected")


def test_identical_reads_collapse_and_agree(service, client):
    client.open("g", "reach_u", n=16)
    client.apply_script("g", [Insert("E", i, i + 1) for i in range(15)])
    answers, errors = [], []

    def reader():
        try:
            local = ServiceClient(service)
            for _ in range(5):
                answers.append(len(local.query("g", "connected")))
        except Exception as error:  # pragma: no cover
            errors.append(error)

    threads = [threading.Thread(target=reader) for _ in range(6)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors
    assert set(answers) == {16 * 15}
    assert client.stats("g")["g"]["reads_collapsed"] > 0


def test_stats_exposes_all_counter_groups(client):
    client.open("g", "reach_u", n=8)
    client.apply("g", Insert("E", 0, 1))
    client.ask("g", "reach", s=0, t=1)
    payload = client.stats()
    assert payload["service"]["requests"] >= 3
    assert payload["service"]["sessions"] == 1
    session = payload["sessions"]["g"]
    for key in (
        "requests",
        "reads",
        "reads_collapsed",
        "writes",
        "batches",
        "batch_size_avg",
        "queue_wait_us_avg",
        "plan_cache",
        "requests_applied",
    ):
        assert key in session, key
    assert session["plan_cache"]["misses"] >= 1


# -- the TCP front end -----------------------------------------------------


def test_tcp_roundtrip_and_connection_survives_bad_frames(tcp_server):
    with TCPServiceClient(port=tcp_server.port) as client:
        client.open("g", "reach_u", n=6)
        client.apply("g", Insert("E", 0, 1))
        # raw garbage: typed error back, connection still usable
        client._sock.sendall(b"{not json}\n")
        response = decode_frame(client._rfile.readline())
        assert response["ok"] is False
        assert response["error"]["code"] == "PROTOCOL_ERROR"
        assert client.ping() == "pong"
        assert client.ask("g", "reach", s=0, t=1)


def test_tcp_ask_out_of_universe_is_request_invalid(tcp_server):
    with TCPServiceClient(port=tcp_server.port) as client:
        client.open("g", "reach_u", n=8)
        frame = {"id": 1, "op": "ask", "session": "g", "name": "reach",
                 "params": {"s": 999, "t": 999}}
        client._sock.sendall(encode_frame(frame))
        response = decode_frame(client._rfile.readline())
        assert response["ok"] is False
        assert response["error"]["code"] == "REQUEST_INVALID"
        assert "outside the universe" in response["error"]["message"]
        with pytest.raises(RequestValidationError, match="missing"):
            client.ask("g", "reach", s=1)
        assert client.ping() == "pong"


def test_tcp_read_your_writes_across_clients(tcp_server):
    with TCPServiceClient(port=tcp_server.port) as writer, TCPServiceClient(
        port=tcp_server.port
    ) as reader:
        writer.open("shared", "reach_u", n=8)
        assert not reader.ask("shared", "reach", s=0, t=3)
        writer.apply_script(
            "shared", [Insert("E", 0, 1), Insert("E", 1, 2), Insert("E", 2, 3)]
        )
        # the write was ACKed durably; any later read must see it
        assert reader.ask("shared", "reach", s=0, t=3)


def test_tcp_pipelining_matches_ids(tcp_server):
    with TCPServiceClient(port=tcp_server.port) as client:
        client.open("g", "reach_u", n=6)
        responses = client.pipeline(
            [{"op": "ping"}]
            + [
                {"op": "ask", "session": "g", "name": "reach", "params": {"s": 0, "t": t}}
                for t in range(1, 4)
            ]
        )
        assert [r["ok"] for r in responses] == [True] * 4
        assert responses[0]["result"] == "pong"


def test_frame_encode_decode_roundtrip():
    frame = {"id": 3, "op": "ask", "params": {"s": 1}}
    assert decode_frame(encode_frame(frame)) == frame
    with pytest.raises(ProtocolError):
        decode_frame(b"[1, 2, 3]\n")
    with pytest.raises(ProtocolError):
        decode_frame(b"\xff\xfe\n")


# -- CLI -------------------------------------------------------------------


def test_cli_client_against_live_server(tcp_server, capsys):
    port = str(tcp_server.port)
    assert cli_main(["client", "--port", port, "ping"]) == 0
    assert capsys.readouterr().out.strip() == "pong"
    assert cli_main(["client", "--port", port, "open", "chat", "reach_u", "8"]) == 0
    capsys.readouterr()
    assert cli_main(["client", "--port", port, "ins", "chat", "E", "0", "1"]) == 0
    assert cli_main(["client", "--port", port, "ins", "chat", "E", "1", "2"]) == 0
    capsys.readouterr()
    assert cli_main(["client", "--port", port, "ask", "chat", "reach", "s=0", "t=2"]) == 0
    assert capsys.readouterr().out.strip() == "True"
    assert cli_main(["client", "--port", port, "query", "chat", "connected"]) == 0
    rows = capsys.readouterr().out.strip().splitlines()
    assert "0 2" in rows
    assert cli_main(["client", "--port", port, "stats", "chat"]) == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["chat"]["writes"] == 2
    assert cli_main(["client", "--port", port, "sessions"]) == 0
    assert "chat" in capsys.readouterr().out


def test_cli_client_reports_typed_errors(tcp_server, capsys):
    port = str(tcp_server.port)
    assert cli_main(["client", "--port", port, "ask", "ghost", "reach", "s=0", "t=1"]) == 1
    err = capsys.readouterr().err
    assert "SESSION_ERROR" in err and "Traceback" not in err


def test_cli_client_connection_refused(capsys):
    assert cli_main(["client", "--port", "1", "ping"]) == 1
    assert "cannot reach" in capsys.readouterr().err
