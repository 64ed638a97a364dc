"""Every README walkthrough in ``demos/`` runs to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import palg

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(palg.__file__)))
    run = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True,
                         env=env, timeout=120)
    assert run.returncode == 0, run.stderr
    assert "Traceback" not in run.stderr


def test_demos_are_found():
    assert DEMOS
