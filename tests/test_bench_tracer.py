"""The benchmark's per-layer tracer (bench/tracing.py) looks weylab's
functions and DistanceProfile methods up by name and raises when one is
missing.  Installing it here makes a rename or deletion of a traced name
fail the test suite, not only a traced benchmark run."""

import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent

_INSTALL = """
import sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import tracing
tracing.install(tracing.Tracer())
"""


def test_bench_tracer_installs_on_the_package():
    done = subprocess.run(
        [sys.executable, "-c", _INSTALL, str(ROOT / "bench"), str(ROOT / "src")],
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
