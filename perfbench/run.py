"""One layered benchmark of the Dyn-FO serving stack.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every workload runs against a separate server process (``launch_server.py``:
``DynFOServer`` over ``DynFOService``, relational backend, durable
sessions, the shipped flush policy of one journal fsync per group-commit
batch).  The path measured is client -> loopback TCP -> protocol ->
service -> scheduler -> engine -> relational evaluator / structure ->
journal -> response.  The client checks every reply against an oracle
(``workloads.py``).

``--trace 0`` measures the end-to-end metrics with tracing off.  Set-up
(server start, session open, warm-up script) is done ``SETUPS`` times and
the median reported; the last set-up continues into the timed phase.
``--trace 1`` runs the timed phase twice for half of ``--seconds`` each,
first untraced and then on a server whose layer boundaries are wrapped in
spans (``spans.py``), and reports the per-layer metrics plus the tracing
overhead between the two halves.

The last line of standard output is the result object; the line before it
(``{"run": ...}``) records the host, the seed, the workload's parameters,
the flush policy, per-operation sample counts, write tail latencies
(``insert_p95_ms``, ``write_p95_ms``: on a shared two-vCPU host their
spread between runs of the same code reached 25-45% of their median, so
they are recorded but not bounded), metrics this workload has but not
every workload has (delete latency), and a digest of every frame sent.
Exit codes: 0 ok, 1 an oracle mismatch or failed request (result has
``"correct": false``), 2 no ``src/repro`` next to this directory, 3 the
open-loop generator, not the server, set the latency (no result).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from spans import PER_LAYER, layer_metrics, p95

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"

SETUPS = 5
#: open-loop validity: the generator may send this late at p95 ...
LAG_LIMIT_MS = 10.0
#: ... and leave this many requests unanswered when the timed phase ends
BACKLOG_LIMIT = 20
MIN_LAG_SAMPLES = 200
FLUSH_POLICY = "durable sessions; one journal fsync per group-commit write batch (server default)"

END_TO_END = {
    "setup_s": "s",
    "read_p50_ms": "ms",
    "read_p95_ms": "ms",
    "insert_p50_ms": "ms",
    "updates_per_s": "1/s",
    "success_ratio": "ratio",
    "journal_bytes_per_tuple": "B",
    "server_peak_rss_mb": "MB",
}


class InvalidRun(Exception):
    """The open-loop generator fell behind its schedule."""


class Server:
    """``launch_server.py`` as a child process; stopped by closing its
    standard input."""

    def __init__(self, workdir: Path, traced: bool) -> None:
        workdir.mkdir(parents=True)
        self.data_dir = workdir / "data"
        self.report_path = workdir / "report.json"
        command = [
            sys.executable,
            str(HERE / "launch_server.py"),
            "--data-dir",
            str(self.data_dir),
            "--report",
            str(self.report_path),
        ]
        if traced:
            command.append("--trace")
        self.proc = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=ROOT
        )
        line = self.proc.stdout.readline()
        if not line:
            self.kill()
            raise RuntimeError("the server exited before reporting its port")
        self.port = json.loads(line)["port"]

    def stop(self) -> dict:
        self.proc.stdin.close()
        try:
            code = self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.kill()
            raise RuntimeError("the server did not stop within 60 s") from None
        self.proc.stdout.close()
        if code != 0:
            raise RuntimeError(f"the server exited with code {code}")
        return json.loads(self.report_path.read_text())

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        for stream in (self.proc.stdin, self.proc.stdout):
            if not stream.closed:
                stream.close()


@dataclass
class Phase:
    workload: object
    rec: object
    setup_s: list[float]
    report: dict
    journal_bytes: int


def measure(cls, seed, seconds, traced, setups, sizes, max_ops, workdir, rec) -> Phase:
    """Set up ``setups`` times (each on a fresh server) and run the timed
    phase on the last one, recording into ``rec``."""
    setup_s: list[float] = []
    for i in range(setups):
        started = perf_counter()
        server = Server(workdir / f"{'traced' if traced else 'plain'}-{i}", traced)
        conns = []
        try:
            workload = cls(seed, **sizes)
            conns = workload.setup(server.port)
            setup_s.append(perf_counter() - started)
            if i + 1 == setups:
                journal = server.data_dir / workload.session / "journal.ndjson"
                before = journal.stat().st_size
                workload.run(conns, seconds, rec, max_ops)
        finally:
            for conn in conns:
                conn.close()
            try:
                report = server.stop()
            finally:
                server.kill()
    return Phase(workload, rec, setup_s, report, journal.stat().st_size - before)


def p50(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def check_open_loop(phase: Phase) -> None:
    rec = phase.rec
    # a p95 needs ten samples beyond it; a shorter run is not judged
    if phase.workload.loop != "open" or len(rec.lag_ms) < MIN_LAG_SAMPLES:
        return
    lag = p95(rec.lag_ms)
    if lag > LAG_LIMIT_MS or rec.backlog > BACKLOG_LIMIT:
        raise InvalidRun(
            f"generator lag p95 {lag:.2f} ms (limit {LAG_LIMIT_MS}), backlog "
            f"{rec.backlog} (limit {BACKLOG_LIMIT}): the generator set the latency"
        )


def end_to_end(phase: Phase) -> dict[str, float]:
    rec = phase.rec
    lat = rec.latency_ms
    return {
        "setup_s": statistics.median(phase.setup_s),
        "read_p50_ms": p50(lat["read"]),
        "read_p95_ms": p95(lat["read"]),
        "insert_p50_ms": p50(lat["insert"]),
        "updates_per_s": rec.writes / rec.seconds,
        "success_ratio": (rec.attempted - rec.failed) / rec.attempted,
        "journal_bytes_per_tuple": phase.journal_bytes / max(1, rec.tuples_changed),
        "server_peak_rss_mb": phase.report["vmhwm_kb"] / 1024,
    }


def phase_info(phase: Phase) -> dict:
    rec = phase.rec
    lat = rec.latency_ms
    info = {
        "samples": {kind: len(values) for kind, values in lat.items()},
        "setups_s": phase.setup_s,
        "insert_p95_ms": p95(lat["insert"]),
        "write_p95_ms": p95(lat["insert"] + lat["delete"]),
        "error_rate": rec.failed / rec.attempted,
        "journal_bytes_per_update": phase.journal_bytes / max(1, rec.writes),
        "tuples_changed_per_update": rec.tuples_changed / max(1, rec.writes),
        "loadgen_lag_p95_ms": p95(rec.lag_ms),
        "backlog": rec.backlog,
    }
    if lat["delete"]:
        info["delete_p50_ms"] = p50(lat["delete"])
        info["delete_p95_ms"] = p95(lat["delete"])
    return info


def run(workload: str, seed: int, seconds: float, trace: bool, sizes=None, max_ops=None):
    """Run one workload; returns ``(result, info)`` as printed by ``main``."""
    from workloads import WORKLOADS, OracleMismatch, Recorder, RequestFailed

    cls = WORKLOADS[workload]
    sizes = sizes or {}
    info = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "flush_policy": FLUSH_POLICY,
        **cls(seed, **sizes).describe(),
    }
    workdir = WORK / str(os.getpid())
    # (traced, set-ups, seconds) per phase
    plan = [(False, 1, seconds / 2), (True, 1, seconds / 2)] if trace else [(False, SETUPS, seconds)]
    recs = [Recorder() for _ in plan]
    phases: list[Phase] = []
    try:
        for (traced, setups, length), rec in zip(plan, recs):
            phases.append(measure(cls, seed, length, traced, setups, sizes, max_ops, workdir, rec))
    except (OracleMismatch, RequestFailed) as error:
        info["error"] = f"{type(error).__name__}: {error}"
        attempted = sum(rec.attempted for rec in recs)
        failed = sum(rec.failed for rec in recs)
        return {"correct": False, "attempted": max(1, attempted), "failed": max(1, failed), "metrics": {}}, info
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()
    for phase in phases:
        check_open_loop(phase)
    last = phases[-1]
    info.update(phase_info(last))
    info["requests_sha256"] = hashlib.sha256(b"".join(last.workload.log)).hexdigest()
    if not trace:
        values = end_to_end(last)
        units = END_TO_END
    else:
        base, traced = phases
        values, info["definition_ms_per_update"] = layer_metrics(
            traced.report["spans"], traced.rec.timed
        )
        for kind in ("read", "insert"):
            before = p50(base.rec.latency_ms[kind])
            after = p50(traced.rec.latency_ms[kind])
            values[f"tracing.{kind}_overhead_pct"] = 100.0 * (after / before - 1) if before else 0.0
        values["loadgen.lag_p95_ms"] = p95(traced.rec.lag_ms)
        values["loadgen.backlog"] = traced.rec.backlog
        units = PER_LAYER
    attempted = sum(phase.rec.attempted for phase in phases)
    failed = sum(phase.rec.failed for phase in phases)
    result = {
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    return result, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no Dyn-FO sources at {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; pick from {sorted(WORKLOADS)}")
    try:
        result, info = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except InvalidRun as error:
        print(f"error: invalid run: {error}", file=sys.stderr)
        return 3
    print(json.dumps({"run": info}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
