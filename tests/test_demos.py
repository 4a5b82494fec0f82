"""Smoke test: the Python demos run to completion against the sources."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("script", ["quickstart.py", "oracle_equivalence.py"])
def test_demo_exits_0(script, tmp_path):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), TMPDIR=str(tmp_path))
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "demos", script)],
                          cwd=str(tmp_path), env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
