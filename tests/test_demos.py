"""Every demo script runs to completion in a fresh interpreter."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import exdyn

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize("script", sorted(p.name for p in DEMOS.glob("*.py")))
def test_demo_exits_cleanly(script):
    src = Path(exdyn.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, str(DEMOS / script)], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
