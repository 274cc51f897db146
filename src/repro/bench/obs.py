"""Machine-readable observability-overhead benchmark E23 (``BENCH_obs.json``).

Measures what the tracing layer costs on the E22 hot-read path: one warmed
``reach_u`` session served in-process, hammered with the expensive unbound
``connected`` query in three arms —

``untraced``
    Plain requests.  The skeleton trace (queue/lock/eval spans) is always
    recorded, so this arm is the real production hot path.
``traced``
    The same requests with ``"trace": true``: detailed per-rule engine
    timing plus span-tree serialization into every response.
``traced_write``
    Informational: traced vs plain ``apply`` on a churn edge, showing the
    per-rule ``eval:*`` child-span cost on the write path.  Runs against a
    separate small (n=24) session: span overhead is independent of the
    universe size, while ``reach_u`` deletions grow so fast with *n* that
    churning the big read session would drown the benchmark in engine time.

Arms alternate in interleaved rounds and report medians, so drift (thermal,
scheduler) hits both sides equally.  The acceptance gate is the headline,
the median of the rounds' traced/untraced ratios: detailed tracing must
cost <= ``GATE_OVERHEAD_PCT`` percent on the hot read.  Emit with
``python benchmarks/emit.py --obs`` (``--quick`` for the CI smoke variant).
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time
from pathlib import Path
from statistics import median

from ..service import DynFOService, ServiceClient
from .service import _warm_script

__all__ = ["GATE_OVERHEAD_PCT", "collect", "write_json"]

#: The acceptance ceiling: detailed tracing may slow the hot read by at
#: most this much (percent of the untraced median).
GATE_OVERHEAD_PCT = 5.0


def _time_requests(client: ServiceClient, frame: dict, reps: int) -> list[float]:
    """Per-request wall times (seconds) for ``reps`` identical requests."""
    times = []
    for _ in range(reps):
        started = time.perf_counter()
        client.request(dict(frame))
        times.append(time.perf_counter() - started)
    return times


def _interleaved(
    client: ServiceClient, plain: dict, traced: dict, rounds: int, reps: int
) -> list[tuple[list[float], list[float]]]:
    """Per round, a (plain, traced) pair of request-time blocks, flipping
    which goes first each round, so monotone ambient drift (cache warmup,
    thermal) cancels instead of landing on whichever arm consistently runs
    second."""
    blocks = []
    for round_index in range(rounds):
        flip = round_index % 2
        first = _time_requests(client, traced if flip else plain, reps)
        second = _time_requests(client, plain if flip else traced, reps)
        blocks.append((second, first) if flip else (first, second))
    return blocks


def _arm(name: str, times: list[float]) -> dict:
    times = sorted(times)
    return {
        "arm": name,
        "requests": len(times),
        "median_us": round(median(times) * 1e6, 1),
        "p90_us": round(times[int(len(times) * 0.9)] * 1e6, 1),
    }


def collect(quick: bool = False) -> dict:
    """Run the overhead comparison in-process and return the payload."""
    n = 24 if quick else 48
    # the quick read is ~1 ms: many two-request rounds keep each traced
    # block next to a plain one, so a burst of host noise lands on one
    # round's ratio instead of on one arm
    rounds = 96 if quick else 6
    reps = 2 if quick else 12
    write_reps = 6 if quick else 20
    write_n = 24  # deletions on reach_u blow up with n; span cost does not

    service = DynFOService(read_workers=4)
    try:
        client = ServiceClient(service)
        session = "bench-obs"
        client.open(session, "reach_u", n=n)
        client.apply_script(session, _warm_script(n))
        write_session = "bench-obs-write"
        client.open(write_session, "reach_u", n=write_n)
        client.apply_script(write_session, _warm_script(write_n))

        hot = {"op": "query", "session": session, "name": "connected", "params": {}}
        for _ in range(8):  # warm plans, caches, and the collapse path
            client.request(dict(hot))
            client.request({**hot, "trace": True})
        blocks = _interleaved(client, hot, {**hot, "trace": True}, rounds, reps)

        # write path (informational): churn one edge so state is stable
        ins = {
            "op": "apply",
            "session": write_session,
            "request": {"op": "ins", "rel": "E", "tup": [1, 3]},
        }
        rm = {**ins, "request": {"op": "del", "rel": "E", "tup": [1, 3]}}
        write_plain: list[float] = []
        write_traced: list[float] = []
        for _ in range(write_reps):
            started = time.perf_counter()
            client.request(dict(ins))
            client.request(dict(rm))
            write_plain.append((time.perf_counter() - started) / 2)
            started = time.perf_counter()
            client.request({**ins, "trace": True})
            client.request({**rm, "trace": True})
            write_traced.append((time.perf_counter() - started) / 2)
    finally:
        service.close(snapshot=False)

    untraced = _arm("untraced", [t for plain, _ in blocks for t in plain])
    traced = _arm("traced", [t for _, traced in blocks for t in traced])
    # each round compares blocks run side by side, so noise that hits a few
    # rounds cannot move the median of the rounds' ratios
    overhead_pct = round(
        median(median(t) / median(p) - 1.0 for p, t in blocks) * 100.0, 2
    )
    write_untraced = _arm("untraced_write", write_plain)
    write_traced_arm = _arm("traced_write", write_traced)
    return {
        "experiment": "E23",
        "benchmark": "observability overhead on the E22 hot-read path (reach_u)",
        "quick": quick,
        "config": {
            "n": n,
            "rounds": rounds,
            "reps_per_round": reps,
            "write_n": write_n,
            "write_reps": write_reps,
        },
        "env": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "cpu_count": os.cpu_count(),
        },
        "read_arms": [untraced, traced],
        "write_arms": [write_untraced, write_traced_arm],
        "headline": {
            "metric": "detailed-trace overhead on the hot read (median paired ratio)",
            "untraced_median_us": untraced["median_us"],
            "traced_median_us": traced["median_us"],
            "overhead_pct": overhead_pct,
            "gate_pct": GATE_OVERHEAD_PCT,
            "pass": overhead_pct <= GATE_OVERHEAD_PCT,
        },
    }


def write_json(path: str | Path, payload: dict) -> Path:
    path = Path(path)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


if __name__ == "__main__":  # pragma: no cover
    print(json.dumps(collect(quick="--quick" in sys.argv), indent=2))
