"""Every script in demos/ runs to the end against the package as it is."""
from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import dyncomm

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_there_are_demos():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(script):
    src = Path(dyncomm.__file__).resolve().parents[1]
    done = subprocess.run([sys.executable, str(script)], cwd=ROOT,
                          env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()
