"""perfbench's traced run wraps about twenty names inside ``src/`` by
monkey-patching (``perfbench/spans.py::install``).  Renaming or deleting one
of them breaks ``--trace 1``; this pins the contract in the fast suite."""

import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent

SCRIPT = """
import sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import spans
tracer = spans.install()
assert isinstance(tracer, spans.Tracer), tracer
print("installed")
"""


def test_spans_install_wraps_every_name():
    result = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "perfbench"), str(ROOT / "src")],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "installed"
