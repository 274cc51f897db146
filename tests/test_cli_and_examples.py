"""Smoke tests: the CLI and every example script run end to end."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from repro.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "reach_u" in out and "parity" in out

    def test_verify(self, capsys):
        assert main(["verify", "parity", "--n", "6", "--steps", "20"]) == 0
        assert "verified" in capsys.readouterr().out

    def test_verify_unknown_program(self, capsys):
        assert main(["verify", "nope"]) == 2

    def test_verify_with_max_rows(self, capsys):
        assert (
            main(
                ["verify", "parity", "--n", "6", "--steps", "10",
                 "--max-rows", "100000"]
            )
            == 0
        )
        assert "verified" in capsys.readouterr().out

    def test_verify_journal_replays_to_the_live_structure(self, capsys, tmp_path):
        path = tmp_path / "run.journal"
        args = ["verify", "reach_u", "--n", "6", "--steps", "30", "--journal", str(path)]
        assert main(args) == 0
        assert "replayed to the same state" in capsys.readouterr().out
        # a journal that already holds another run replays that run instead
        assert main(args + ["--seed", "1"]) == 1
        assert "does not replay to the live structure" in capsys.readouterr().err

    def test_explain(self, capsys):
        from repro.programs import make_reach_u_program

        assert main(["explain", "reach_u", "--rule", "insert:E"]) == 0
        out = capsys.readouterr().out
        assert "compiled plans" in out and "AtomScan" in out
        # one plan per rule: each definition's Δ⁺ and Δ⁻ blocks, once
        definitions = make_reach_u_program().on_insert["E"].definitions
        assert definitions
        for d in definitions:
            head = f"insert:E :: {d.name}({', '.join(d.frame)})"
            assert out.count(f"{head} [delta+]\n") == 1, head
            assert out.count(f"{head} [delta-]\n") == 1, head

    def test_explain_query_filter(self, capsys):
        assert main(["explain", "reach_u", "--query", "reach"]) == 0
        out = capsys.readouterr().out
        assert "query :: reach" in out and "insert:E" not in out

    def test_explain_dense_backend(self, capsys):
        assert main(["explain", "parity", "--backend", "dense"]) == 0
        assert "backend 'dense'" in capsys.readouterr().out

    def test_explain_unknown(self, capsys):
        assert main(["explain", "nope"]) == 2
        assert main(["explain", "reach_u", "--rule", "insert:Q"]) == 2

    def test_bench_json_quick(self, tmp_path):
        out = tmp_path / "bench.json"
        result = subprocess.run(
            [sys.executable, str(ROOT / "benchmarks" / "emit.py"), "--quick",
             "--out", str(out)],
            capture_output=True,
            text=True,
            timeout=240,
        )
        assert result.returncode == 0, result.stderr[-2000:]
        payload = json.loads(out.read_text())
        assert payload["benchmark"] == "plan_cache"
        assert set(payload["programs"]) == {"reach_u", "dyck", "multiplication"}

    def test_bench_single(self, capsys):
        assert main(["bench", "E18"]) == 0
        assert "Bounded expansion" in capsys.readouterr().out

    def test_demo(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "PV'" in out and "reach(0, 2) = True" in out


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda p: p.name)
def test_example_runs(script):
    result = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True,
        text=True,
        timeout=240,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    assert "MISMATCH" not in result.stdout
    assert result.stdout.strip()


LEAN_SERVER_SCRIPT = r"""
import sys

import repro.service.server  # noqa: F401 - the serving stack's import set
from repro.service.service import DynFOService

OPTIONAL = ("numpy", "repro.logic.dense", "http.server")
WARM_UP = [{"op": "ins", "rel": "E", "tup": list(edge)}
           for edge in [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5)]]


def drive(service, session, **open_fields):
    def call(op, **fields):
        response = service.handle({"op": op, "session": session, **fields})
        assert response["ok"], response
        return response["result"]

    call("open", program="reach_u", n=8, **open_fields)
    assert call("apply_script", script=WARM_UP)["errors"] == []
    # (1, 2) joined two trees, so it is a forest edge; (3, 0) replaces it
    call("apply", request={"op": "del", "rel": "E", "tup": [1, 2]})
    forest = {tuple(row) for row in call("query", name="forest")}
    assert (1, 2) not in forest and (0, 3) in forest, forest
    assert call("ask", name="reach", params={"s": 1, "t": 2}) is True
    return service.sessions.get(session).engine.structure


service = DynFOService()
relational = drive(service, "rel", backend="relational")
loaded = [name for name in OPTIONAL if name in sys.modules]
assert not loaded, f"the relational serving path loaded {loaded}"

from repro.dynfo import FaultPlan, FaultyBackend

assert drive(service, "dense", backend="dense") == relational
never = FaultyBackend("dense", FaultPlan("raise", at=10**9))
service.sessions.open("faulty", "reach_u", n=8, backend=never)
assert drive(service, "faulty") == relational
assert never.evaluations > 0 and never.faults_fired == 0

import repro
import repro.logic
import repro.logic.dense

assert repro.DenseEvaluator is repro.logic.DenseEvaluator
assert repro.logic.DenseEvaluator is repro.logic.dense.DenseEvaluator
"""


def test_relational_server_loads_no_dense_backend_or_http_server():
    """A relational server pays only for what it runs: numpy, the dense
    evaluator and ``http.server`` load on first use, and the dense backend,
    a wrapper over it and ``repro.DenseEvaluator`` still work."""
    result = subprocess.run(
        [sys.executable, "-c", LEAN_SERVER_SCRIPT],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert result.returncode == 0, result.stderr[-2000:]
