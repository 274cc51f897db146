"""E24 — Delta-path smoke: the production arm and its ``git:a185027``
baseline both run, specialized plans are reused, and latency stays flat.

Marked ``quick`` so CI can run it without pytest-benchmark as a regression
tripwire for the delta pipeline (``pytest benchmarks -m quick``); the
machine-readable trajectory lives in BENCH_delta.json
(``python benchmarks/emit.py --delta``).
"""

import pytest

from repro.bench.delta import (
    FULL_REWRITE_REV,
    measure_history_curve,
    measure_production,
)
from repro.bench.plan_cache import measure_baseline_rev
from repro.dynfo import DynFOEngine
from repro.programs import make_reach_u_program
from repro.workloads import undirected_script

pytestmark = pytest.mark.quick


def _baseline(**kwargs):
    baseline = measure_baseline_rev(FULL_REWRITE_REV, n=8, steps=4, **kwargs)
    if baseline is None:
        pytest.skip(f"git history with {FULL_REWRITE_REV} is not available")
    return baseline


@pytest.mark.parametrize("backend", ["relational", "dense"])
def test_baseline_arm_replays_the_identical_script(backend):
    """The speedup's control arm: the whole source tree at a185027, exported
    from git, replays the script the production arm replays."""
    baseline = _baseline(backend=backend)
    production = measure_production(backend=backend, n=8, steps=4)
    assert baseline["source"] == f"git:{FULL_REWRITE_REV}"
    assert baseline["steps"] == production["steps"] == 4
    assert baseline["per_update_ns"] > 0


def test_failed_baseline_replay_raises():
    """A baseline that cannot run must not drop out of BENCH_delta.json
    silently: the subprocess's stderr surfaces as an error."""
    _baseline()  # skips without git history
    with pytest.raises(RuntimeError, match="unknown backend"):
        measure_baseline_rev(FULL_REWRITE_REV, n=8, steps=4, backend="no-such-backend")


def test_specialized_plans_cache_hits():
    """Repeated parameter values must hit the specialized-plan cache, not
    respecialize: replaying the same script again adds zero misses."""
    engine = DynFOEngine(make_reach_u_program(), 8)
    script = undirected_script(8, 30, seed=2)
    for request in script:
        engine.apply(request)
    first = engine.specialized_plan_cache_stats()
    assert first["misses"] >= 1
    for request in script:
        engine.apply(request)
    second = engine.specialized_plan_cache_stats()
    assert second["misses"] == first["misses"]
    assert second["hits"] >= first["hits"] + len(script)


def test_history_curve_smoke():
    curve = measure_history_curve(n=8, steps=200, buckets=4)
    assert len(curve["bucket_median_ns"]) == 4
    assert curve["flatness_ratio"] >= 1.0
