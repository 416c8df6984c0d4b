"""Every demo runs to completion in a fresh interpreter."""

import os
import pathlib
import subprocess
import sys

import pytest

import weylab

SRC = pathlib.Path(weylab.__file__).parents[1]
DEMOS = sorted((SRC.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_exits_cleanly(demo):
    path = [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    proc = subprocess.run([sys.executable, str(demo)], env=env, cwd=SRC.parent,
                          stdin=subprocess.DEVNULL, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
