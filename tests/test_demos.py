"""Every script in demos/ runs to completion and prints its results."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import relaydmt

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))
# The demos import the same relaydmt as the tests, installed or not.
SRC = str(Path(relaydmt.__file__).resolve().parent.parent)


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(demo)],
        capture_output=True, text=True, timeout=300, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
