"""Every demo script runs to completion in a fresh interpreter.

The demos call the public functions directly (demo 03 calls ``bessel_i``
itself), so a changed signature or a crash in one of them shows here.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import bkd

SRC = Path(bkd.__file__).resolve().parent.parent
DEMOS = sorted((SRC.parent / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_exits_zero(demo, tmp_path):
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ, PYTHONPATH=path, BKD_CACHE_DIR=str(tmp_path / "cache"))
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
