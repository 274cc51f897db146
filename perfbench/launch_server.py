"""Run the real serving stack in its own process for the benchmark.

    python3 perfbench/launch_server.py --data-dir DIR --report FILE [--trace]

Starts ``DynFOServer`` over ``DynFOService`` (relational backend, durable
sessions under ``DIR``, the shipped group-commit flush policy) on an
ephemeral loopback port and prints ``{"port": ...}`` as one JSON line.  It
serves until its standard input closes, then stops the server and writes
``FILE``: the process's peak resident set (``VmHWM``) and, with
``--trace``, every layer span recorded (see ``spans.py``).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def peak_rss_kb() -> int:
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("VmHWM missing from /proc/self/status")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--data-dir", required=True)
    parser.add_argument("--report", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, str(SRC))
    tracer = None
    if args.trace:
        from spans import install

        tracer = install()
    from repro.service.server import DynFOServer
    from repro.service.service import DynFOService

    server = DynFOServer("127.0.0.1", 0, DynFOService(data_dir=args.data_dir))
    server.serve_in_background()
    print(json.dumps({"port": server.port}), flush=True)
    sys.stdin.read()  # the benchmark closes our stdin to stop us
    rss_kb = peak_rss_kb()
    server.stop(snapshot=False)
    report = {"vmhwm_kb": rss_kb, "spans": tracer.export() if tracer else []}
    Path(args.report).write_text(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
