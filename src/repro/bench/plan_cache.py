"""Machine-readable plan-cache benchmark (``BENCH_plan_cache.json``).

The compiled-plan pipeline claims two things: plans are compiled exactly
once per (rule, backend, n) — so compile time amortizes to nothing — and
the cached plans execute updates faster than the pre-refactor path that
re-derived an evaluation strategy per request.  This module measures both
and emits them as JSON so the perf trajectory is tracked across PRs
(``python benchmarks/emit.py``, the one entry point).

Three arms per program:

``compiled``
    The production path: :class:`~repro.dynfo.engine.DynFOEngine` replaying
    cached plans, with the engine's ``plan_cache_stats()`` counters.
``per_request_recompile``
    The same engine forced to recompile its rule's plans on every request
    (the engine's compiled rule map is cleared between requests) — isolates
    what the cache saves in *planning* work.
``baseline`` (optional, reach_u only)
    The true pre-refactor per-request path: the whole source tree at that
    revision, exported from git history and run in a subprocess — isolates
    what the refactor saved in *total* work (planning plus the old
    evaluators' per-request strategy).
"""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
import tempfile
import time
import zipfile
from pathlib import Path
from typing import Callable, Sequence

from ..dynfo.engine import DynFOEngine
from ..dynfo.requests import Request
from ..programs import PROGRAM_FACTORIES
from ..programs.dyck import make_dyck_program
from ..workloads import number_bit_script, undirected_script
from ..workloads.strings import dyck_edit_script

__all__ = [
    "SUITE",
    "measure_compiled",
    "measure_per_request",
    "measure_baseline_rev",
    "collect",
    "write_json",
]

# The commit immediately before the plan IR landed — the pre-refactor
# per-request evaluators live at this revision.
PRE_REFACTOR_REV = "bc27e05"

# program -> (factory, script maker, default n, default steps)
SUITE: dict[str, tuple[Callable, Callable[[int, int, int], Sequence[Request]], int, int]] = {
    "reach_u": (
        PROGRAM_FACTORIES["reach_u"],
        lambda n, steps, seed: undirected_script(n, steps, seed=seed),
        32,
        60,
    ),
    "dyck": (
        lambda: make_dyck_program(2),
        lambda n, steps, seed: dyck_edit_script(2, n, steps, seed=seed),
        24,
        60,
    ),
    "multiplication": (
        PROGRAM_FACTORIES["multiplication"],
        lambda n, steps, seed: number_bit_script(n, steps, seed=seed),
        16,
        60,
    ),
}


def _replay(engine: DynFOEngine, script: Sequence[Request]) -> int:
    started = time.perf_counter_ns()
    for request in script:
        engine.apply(request)
    return (time.perf_counter_ns() - started) // max(1, len(script))


def measure_compiled(
    name: str,
    backend: str = "relational",
    n: int | None = None,
    steps: int | None = None,
    seed: int = 11,
) -> dict:
    """Per-update cost of the production (cached-plan) path, plus the
    engine's plan-cache counters proving compile-once."""
    factory, maker, default_n, default_steps = SUITE[name]
    n = default_n if n is None else n
    steps = default_steps if steps is None else steps
    program = factory()  # fresh program => fresh plan cache, clean counters
    engine = DynFOEngine(program, n, backend=backend)
    script = maker(n, steps, seed)
    per_update_ns = _replay(engine, script)
    stats = engine.plan_cache_stats()
    lookups = stats["hits"] + stats["misses"]
    return {
        "backend": backend,
        "n": n,
        "steps": len(script),
        "per_update_ns": per_update_ns,
        "compile_ns_total": stats["compile_ns"],
        "cache_hits": stats["hits"],
        "cache_misses": stats["misses"],
        "cache_hit_rate": round(stats["hits"] / lookups, 4) if lookups else 0.0,
        # compile cost amortized over the whole run, as a fraction of it
        "compile_amortized_fraction": round(
            stats["compile_ns"] / max(1, per_update_ns * len(script)), 6
        ),
    }


def measure_per_request(
    name: str,
    n: int | None = None,
    steps: int | None = None,
    seed: int = 11,
) -> dict:
    """Per-update cost when every request recompiles its plans: the
    production pipeline with the engine's compiled rule map cleared before
    each request."""
    factory, maker, default_n, default_steps = SUITE[name]
    n = default_n if n is None else n
    steps = default_steps if steps is None else steps
    program = factory()
    engine = DynFOEngine(program, n, backend="relational")
    script = maker(n, steps, seed)
    started = time.perf_counter_ns()
    for request in script:
        engine.compiled._rules.clear()
        engine.apply(request)
    per_update_ns = (time.perf_counter_ns() - started) // max(1, len(script))
    return {
        "backend": "relational",
        "n": n,
        "steps": len(script),
        "per_update_ns": per_update_ns,
    }


_BASELINE_SCRIPT = """\
import sys, time
from repro.programs import make_reach_u_program
from repro.workloads import undirected_script
from repro.dynfo.engine import DynFOEngine

n, steps, seed = int(sys.argv[1]), int(sys.argv[2]), int(sys.argv[3])
program = make_reach_u_program()
engine = DynFOEngine(program, n, backend=sys.argv[4])
script = undirected_script(n, steps, seed=seed)
started = time.perf_counter_ns()
for request in script:
    engine.apply(request)
print((time.perf_counter_ns() - started) // max(1, len(script)))
"""


def measure_baseline_rev(
    rev: str = PRE_REFACTOR_REV,
    n: int = 64,
    steps: int = 4,
    seed: int = 11,
    backend: str = "relational",
    timeout: float = 900.0,
) -> dict | None:
    """Measure reach_u's per-update cost as of git revision ``rev``.

    Exports the whole ``src/`` tree at ``rev`` (``git archive``) into a
    temp dir and times the replay of the same script in a subprocess.
    Returns ``None`` when git history is unavailable (no ``.git``, or a
    shallow clone without ``rev``) so callers can skip the arm; raises
    :class:`RuntimeError` carrying the subprocess's stderr when the replay
    itself fails, so a broken baseline cannot drop out silently.
    """
    repo = Path(__file__).resolve()
    while repo.parent != repo and not (repo / ".git").exists():
        repo = repo.parent
    if not (repo / ".git").exists():
        return None
    archive = subprocess.run(
        ["git", "-C", str(repo), "archive", "--format=zip", rev, "src"],
        capture_output=True,
    )
    if archive.returncode != 0:
        return None
    with tempfile.TemporaryDirectory(prefix="dynfo-baseline-") as tmp:
        zipfile.ZipFile(io.BytesIO(archive.stdout)).extractall(tmp)
        run = subprocess.run(
            [
                sys.executable,
                "-c",
                _BASELINE_SCRIPT,
                str(n),
                str(steps),
                str(seed),
                backend,
            ],
            capture_output=True,
            text=True,
            timeout=timeout,
            cwd=tmp,
            env={**os.environ, "PYTHONPATH": str(Path(tmp) / "src")},
        )
    if run.returncode != 0:
        raise RuntimeError(
            f"baseline replay at git:{rev} ({backend}, n={n}) failed:\n"
            f"{run.stderr}"
        )
    return {
        "source": f"git:{rev}",
        "backend": backend,
        "n": n,
        "steps": steps,
        "per_update_ns": int(run.stdout.strip()),
    }


def collect(
    *,
    quick: bool = False,
    baseline_rev: str | None = PRE_REFACTOR_REV,
    reach_n: int = 64,
) -> dict:
    """The full ``BENCH_plan_cache.json`` payload.

    ``quick`` shrinks universes and scripts (for CI smoke); ``baseline_rev``
    of ``None`` skips the git-history arm.  ``reach_n`` is the universe for
    the headline reach_u speedup comparison (the acceptance bar is n >= 64).
    """
    programs: dict[str, dict] = {}
    for name in SUITE:
        steps = 20 if quick else None
        n = None
        if quick:
            n = {"reach_u": 12, "dyck": 12, "multiplication": 12}[name]
        entry: dict = {
            "compiled": {
                "relational": measure_compiled(name, "relational", n=n, steps=steps),
                "dense": measure_compiled(name, "dense", n=n, steps=steps),
            },
            "per_request_recompile": measure_per_request(name, n=n, steps=steps),
        }
        compiled = entry["compiled"]["relational"]["per_update_ns"]
        recompile = entry["per_request_recompile"]["per_update_ns"]
        entry["recompile_overhead_x"] = round(recompile / max(1, compiled), 2)
        programs[name] = entry

    payload: dict = {
        "benchmark": "plan_cache",
        "unit": "ns/update",
        "quick": quick,
        "programs": programs,
    }
    if not quick:
        # Both arms replay the *identical* script: same n, steps, and seed.
        # 60 steps reach a dense enough graph for the comparison to measure
        # sustained per-update cost, not the near-empty warm-up.
        headline_steps = 60
        headline = measure_compiled(
            "reach_u", "relational", n=reach_n, steps=headline_steps
        )
        payload["reach_u_headline"] = {"compiled": headline}
        if baseline_rev is not None:
            baseline = measure_baseline_rev(
                baseline_rev, n=reach_n, steps=headline_steps
            )
            if baseline is not None:
                payload["reach_u_headline"]["pre_refactor_baseline"] = baseline
                payload["reach_u_headline"]["speedup_x"] = round(
                    baseline["per_update_ns"] / max(1, headline["per_update_ns"]), 2
                )
    return payload


def write_json(path: str | Path, payload: dict) -> Path:
    path = Path(path)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path
