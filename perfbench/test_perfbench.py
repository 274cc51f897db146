"""Self-test of the benchmark at tiny sizes.

    python3 -m pytest perfbench -q

Each workload runs in both modes and must emit every declared metric with
its unit; two runs with the same seed must send byte-identical request
sequences; an oracle mismatch must fail the run without metrics; and the
benchmark must refuse to run without the sources beside it.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "reach_forest_churn": {"n": 6, "density": 0.5},
    "reach_read_mostly": {"n": 12, "rate": 100.0},
    "reach_read_mostly_closed": {"n": 12, "rate": 100.0},
    "mult_bitflip": {"n": 8},
}


def tiny_run(workload: str, seed: int, trace: bool, max_ops: int = 12):
    return run.run(workload, seed, 5.0, trace, sizes=TINY[workload], max_ops=max_ops)


@pytest.mark.parametrize("workload", sorted(TINY))
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    result, info = tiny_run(workload, 7, trace)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = spans.PER_LAYER if trace else run.END_TO_END
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert info["seed"] == 7 and info["cpu_count"] >= 1 and info["python"]
    assert info["n"] == TINY[workload]["n"] and info["loop"] in ("open", "closed")
    assert info["flush_policy"]
    if trace:
        # the layer self times and the unattributed remainder add up to
        # the client-observed latency
        assert abs(result["metrics"]["accounting_gap_pct"]["value"]) <= 10.0


@pytest.mark.parametrize("workload", sorted(TINY))
def test_same_seed_sends_the_same_requests(workload):
    first = tiny_run(workload, 11, False, max_ops=10)[1]["requests_sha256"]
    again = tiny_run(workload, 11, False, max_ops=10)[1]["requests_sha256"]
    other = tiny_run(workload, 12, False, max_ops=10)[1]["requests_sha256"]
    assert first == again != other


def test_a_late_generator_invalidates_only_a_run_long_enough_to_judge():
    def phase(lags):
        rec = workloads.Recorder()
        rec.lag_ms = lags
        return run.Phase(workloads.ReadMostly(1, **TINY["reach_read_mostly"]), rec, [], {}, 0)

    late = 2 * run.LAG_LIMIT_MS
    run.check_open_loop(phase([late] * (run.MIN_LAG_SAMPLES - 1)))
    with pytest.raises(run.InvalidRun):
        run.check_open_loop(phase([late] * run.MIN_LAG_SAMPLES))


def test_an_oracle_mismatch_fails_the_run_without_metrics(monkeypatch):
    monkeypatch.setattr(workloads, "spanning_forest_is_valid", lambda *args: False)
    result, info = tiny_run("reach_forest_churn", 7, False)
    assert result["correct"] is False and result["metrics"] == {}
    assert info["error"].startswith("OracleMismatch")


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    command = [sys.executable, f"{HERE.name}/run.py", "--workload", "mult_bitflip"]
    done = subprocess.run(
        command + ["--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0 and '"correct"' not in done.stdout
