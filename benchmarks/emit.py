#!/usr/bin/env python
"""Emit the machine-readable benchmarks: BENCH_plan_cache.json, with
``--service`` the serving-layer E22 payload BENCH_service.json, with
``--obs`` the observability-overhead E23 payload BENCH_obs.json, and with
``--delta`` the delta-path E24 payload BENCH_delta.json.

Usage (from the repo root)::

    PYTHONPATH=src python benchmarks/emit.py                  # full run
    PYTHONPATH=src python benchmarks/emit.py --quick          # CI smoke
    PYTHONPATH=src python benchmarks/emit.py --no-baseline    # skip git arm
    PYTHONPATH=src python benchmarks/emit.py --service        # E22 payload
    PYTHONPATH=src python benchmarks/emit.py --obs            # E23 payload
    PYTHONPATH=src python benchmarks/emit.py --delta          # E24 payload

This script is the one entry point for these payloads (``repro bench``
prints the E1..E18 tables only).  The measurement kernels live in
:mod:`repro.bench.plan_cache`, :mod:`repro.bench.service`,
:mod:`repro.bench.obs` and :mod:`repro.bench.delta`; see those modules for
what the arms mean.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.bench.plan_cache import PRE_REFACTOR_REV, collect, write_json  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out",
        default="BENCH_plan_cache.json",
        help="output path (default: %(default)s)",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small universes/scripts; skips the git-history baseline arm",
    )
    parser.add_argument(
        "--no-baseline",
        action="store_true",
        help="skip the pre-refactor git-history baseline arm",
    )
    parser.add_argument(
        "--baseline-rev",
        default=PRE_REFACTOR_REV,
        help="revision holding the pre-refactor evaluators (default: %(default)s)",
    )
    parser.add_argument(
        "--reach-n",
        type=int,
        default=64,
        help="universe size for the reach_u headline comparison",
    )
    parser.add_argument(
        "--service",
        action="store_true",
        help="emit the serving-layer E22 payload (BENCH_service.json) "
        "instead of the plan-cache one",
    )
    parser.add_argument(
        "--obs",
        action="store_true",
        help="emit the observability-overhead E23 payload (BENCH_obs.json) "
        "instead of the plan-cache one; exits nonzero if detailed tracing "
        "costs more than the gate on the hot read",
    )
    parser.add_argument(
        "--delta",
        action="store_true",
        help="emit the delta-path E24 payload (BENCH_delta.json) instead of "
        "the plan-cache one; reports the speedup over git:a185027, journal "
        "bytes per update, and the history-independence flatness ratio",
    )
    args = parser.parse_args(argv)
    if args.delta:
        from repro.bench.delta import collect as collect_delta
        from repro.bench.delta import write_json as write_delta_json

        out = args.out
        if out == "BENCH_plan_cache.json":  # the plan-cache default
            out = "BENCH_delta.json"
        payload = collect_delta(quick=args.quick)
        path = write_delta_json(out, payload)
        for backend, arm in payload["arms"].items():
            production = arm["production"]
            line = (
                f"reach_u n={production['n']} {backend}: "
                f"{production['per_update_ns']} ns/update, journal "
                f"{production['journal_bytes_per_update']} B/update"
            )
            if "speedup_x" in arm:
                line += (
                    f"; {arm['speedup_x']}x vs {arm['baseline']['source']} "
                    f"({arm['baseline']['per_update_ns']} ns/update)"
                )
            print(line)
        curve = payload["history_independence"]
        print(
            f"history independence: flatness {curve['flatness_ratio']} over "
            f"{curve['steps']} steps (n={curve['n']})"
        )
        print(f"wrote {path}")
        return 0
    if args.obs:
        from repro.bench.obs import collect as collect_obs
        from repro.bench.obs import write_json as write_obs_json

        out = args.out
        if out == "BENCH_plan_cache.json":  # the plan-cache default
            out = "BENCH_obs.json"
        payload = collect_obs(quick=args.quick)
        path = write_obs_json(out, payload)
        headline = payload["headline"]
        print(
            f"hot-read tracing overhead: {headline['overhead_pct']}% "
            f"({headline['untraced_median_us']} -> "
            f"{headline['traced_median_us']} us median; "
            f"gate {headline['gate_pct']}%)"
        )
        print(f"wrote {path}")
        return 0 if headline["pass"] else 1
    if args.service:
        from repro.bench.service import collect as collect_service
        from repro.bench.service import write_json as write_service_json

        out = args.out
        if out == "BENCH_plan_cache.json":  # the plan-cache default
            out = "BENCH_service.json"
        payload = collect_service(quick=args.quick)
        path = write_service_json(out, payload)
        headline = payload["read_fanout"].get("headline", {})
        if "speedup_x" in headline:
            print(
                f"reach_u hot reads, {headline['clients']} clients: "
                f"{headline['speedup_x']}x vs serial "
                f"({headline['serial_rps']} -> {headline['fanout_rps']} req/s)"
            )
        print(f"wrote {path}")
        return 0
    payload = collect(
        quick=args.quick,
        baseline_rev=None if args.no_baseline else args.baseline_rev,
        reach_n=args.reach_n,
    )
    path = write_json(args.out, payload)
    headline = payload.get("reach_u_headline", {})
    if "speedup_x" in headline:
        print(f"reach_u n={args.reach_n}: {headline['speedup_x']}x vs pre-refactor")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
