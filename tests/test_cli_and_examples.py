"""Smoke tests: the CLI and every example script run end to end."""

import json
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
