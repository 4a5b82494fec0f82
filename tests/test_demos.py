"""Smoke test: the demos run to completion against the sources."""

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


def test_cli_walkthrough_exits_0(tmp_path):
    # the walkthrough calls `acvseg`; a shim on PATH runs it from the sources
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    shim = bin_dir / "acvseg"
    shim.write_text('#!/bin/sh\nexec "%s" -m acvseg "$@"\n' % sys.executable)
    shim.chmod(0o755)
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), TMPDIR=str(tmp_path),
               PATH=str(bin_dir) + os.pathsep + os.environ.get("PATH", ""))
    proc = subprocess.run(["sh", os.path.join(ROOT, "demos", "cli_walkthrough.sh")],
                          cwd=str(tmp_path), env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
