"""Machine-readable delta-path benchmark (``BENCH_delta.json``).

Experiment E24.  The delta-restricted update path claims three things,
each measured here:

``speedup``
    One compiled Δ plan per rule + indexed atom probes + trusted Δ staging
    make a reach_u update faster than the full-rematerialization engine of
    ``git:a185027`` (the last commit before the delta path).  Both arms
    replay the *identical* script; the baseline arm is that revision's whole
    source tree, run in a subprocess by
    :func:`~repro.bench.plan_cache.measure_baseline_rev`.  The production
    arm also pays for its effect journal (``fsync=False``) and the baseline
    writes none, so ``speedup_x`` is a lower bound.

``journal``
    Effect records carry the handful of tuples an update actually changed,
    not whole relations: ``journal_bytes_per_update`` (via
    :attr:`~repro.dynfo.journal.RequestJournal.bytes_written`) is reported
    as an absolute number.

``history_independence``
    Per-update latency stays flat as history accumulates — the paper's
    memorylessness, observed as performance: over a long script, bucketed
    median latencies vary by no more than ~20% after warm-up.  (A delta
    path that secretly accumulated work per request would show a slope.)

Emitted as JSON by ``python benchmarks/emit.py --delta`` so the perf
trajectory is tracked across PRs.
"""

from __future__ import annotations

import json
import random
import statistics
import tempfile
import time
from pathlib import Path

from ..dynfo.engine import DynFOEngine
from ..dynfo.journal import RequestJournal
from ..dynfo.requests import Delete, Insert, Request
from ..programs import PROGRAM_FACTORIES
from ..workloads import undirected_script
from .plan_cache import measure_baseline_rev

__all__ = [
    "FULL_REWRITE_REV",
    "measure_production",
    "churn_script",
    "measure_history_curve",
    "collect",
    "write_json",
]


# The last commit before the delta path: its engine rewrote every
# redefined relation whole on each update.
FULL_REWRITE_REV = "a185027"


def measure_production(
    *,
    backend: str = "relational",
    n: int = 64,
    steps: int = 60,
    seed: int = 11,
) -> dict:
    """The production arm: replay the reach_u script journaling effect
    records, and report per-update time, journal bytes, and the engine's
    delta/cache counters."""
    program = PROGRAM_FACTORIES["reach_u"]()  # fresh program => clean caches
    script = undirected_script(n, steps, seed=seed)
    with tempfile.TemporaryDirectory(prefix="dynfo-delta-bench-") as tmp:
        journal = RequestJournal(Path(tmp) / "journal.ndjson", fsync=False)
        engine = DynFOEngine(program, n, backend=backend, journal=journal)
        added = removed = 0
        started = time.perf_counter_ns()
        for request in script:
            engine.apply(request)
            added += engine.last_update_stats["tuples_added"]
            removed += engine.last_update_stats["tuples_removed"]
        per_update_ns = (time.perf_counter_ns() - started) // max(1, len(script))
        journal_bytes = journal.bytes_written
        journal.close()
    return {
        "backend": backend,
        "n": n,
        "steps": len(script),
        "per_update_ns": per_update_ns,
        "journal_bytes_total": journal_bytes,
        "journal_bytes_per_update": journal_bytes // max(1, len(script)),
        "tuples_added_total": added,
        "tuples_removed_total": removed,
    }


def churn_script(
    n: int, steps: int, seed: int = 11, density: float = 0.5
) -> tuple[list[Request], list[Request]]:
    """(warmup, churn): build a random graph at the target edge density,
    then cycle delete/reinsert over a fixed rotation of its edges, so that
    after every pair the structure is back in its baseline state.

    The cycle is the point: the engine revisits the *identical* state
    sequence for the entire churn phase, so per-update cost is pinned to a
    function of the state alone — any slope across buckets is per-request
    state accumulating inside the engine, exactly what the paper's
    memorylessness forbids.
    """
    rng = random.Random(seed)
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    target = max(2, int(len(pairs) * density))
    present = sorted(rng.sample(pairs, target))
    warmup = [Insert("E", edge) for edge in present]
    victims = rng.sample(present, min(16, len(present)))
    churn: list[Request] = []
    i = 0
    while len(churn) < steps:
        edge = victims[i % len(victims)]
        churn.append(Delete("E", edge))
        churn.append(Insert("E", edge))
        i += 1
    return warmup, churn[:steps]


def measure_history_curve(
    *,
    n: int = 12,
    steps: int = 10_000,
    buckets: int = 10,
    seed: int = 11,
    backend: str = "relational",
    density: float = 0.5,
) -> dict:
    """Memorylessness as a performance property: per-update latency over a
    long density-preserving churn script, bucketed; the curve is *flat*
    when the max and min bucket medians agree within the reported ratio.

    The build phase (graph filling up from empty) is excluded — it measures
    growth, not steady state.  Every delete/reinsert pair returns the
    structure to its baseline, so all buckets time the identical state
    sequence and a rising curve could only mean per-request state
    accumulating in the engine.
    """
    program = PROGRAM_FACTORIES["reach_u"]()
    warmup, churn = churn_script(n, steps, seed=seed, density=density)
    engine = DynFOEngine(program, n, backend=backend)
    for request in warmup:
        engine.apply(request)
    # time each delete+insert pair as one sample: individually the stream is
    # bimodal (inserts are far cheaper than deletes) and a bucket median
    # would sit on the mode boundary; per-pair cost is unimodal
    latencies: list[int] = []
    for i in range(0, len(churn) - 1, 2):
        started = time.perf_counter_ns()
        engine.apply(churn[i])
        engine.apply(churn[i + 1])
        latencies.append((time.perf_counter_ns() - started) // 2)
    size = max(1, len(latencies) // buckets)
    medians = [
        int(statistics.median(latencies[i * size : (i + 1) * size]))
        for i in range(buckets)
        if latencies[i * size : (i + 1) * size]
    ]
    flatness = round(max(medians) / max(1, min(medians)), 3)
    return {
        "backend": backend,
        "n": n,
        "steps": len(churn),
        "samples": len(latencies),
        "warmup_steps": len(warmup),
        "edges": len(warmup),
        "buckets": buckets,
        "bucket_median_ns": medians,
        "flatness_ratio": flatness,
        "median_ns": int(statistics.median(latencies)),
    }


def collect(*, quick: bool = False) -> dict:
    """The full ``BENCH_delta.json`` payload.

    ``quick`` shrinks universes and scripts for the CI smoke run; the
    headline numbers (speedup vs ``git:a185027``, flatness <= 1.2) come
    from the full run at n=64 / 10k steps.  Without git history the
    baseline arm and ``speedup_x`` are left out.
    """
    steps = 20 if quick else 60
    seed = 11  # both arms replay the identical script
    # reach_u's delete rule needs 5 free variables, so the dense backend's
    # n^5 tensor budget caps its universe well below the relational arm's
    sizes = {"relational": 12 if quick else 64, "dense": 12 if quick else 32}
    arms: dict[str, dict] = {}
    for backend in ("relational", "dense"):
        n = sizes[backend]
        production = measure_production(backend=backend, n=n, steps=steps, seed=seed)
        arm: dict = {"production": production}
        baseline = measure_baseline_rev(
            FULL_REWRITE_REV, n=n, steps=steps, seed=seed, backend=backend
        )
        if baseline is not None:
            arm["baseline"] = baseline
            arm["speedup_x"] = round(
                baseline["per_update_ns"] / max(1, production["per_update_ns"]), 2
            )
        arms[backend] = arm
    payload: dict = {
        "benchmark": "delta",
        "unit": "ns/update",
        "quick": quick,
        "program": "reach_u",
        "arms": arms,
        "history_independence": measure_history_curve(
            n=8 if quick else 12,
            steps=200 if quick else 10_000,
            buckets=4 if quick else 10,
        ),
    }
    return payload


def write_json(path: str | Path, payload: dict) -> Path:
    path = Path(path)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path
