"""Smoke tests: the scripts under scripts/ run as a user runs them."""

import os
import subprocess
import sys
from pathlib import Path

from spikelogic.harness import EXPERIMENTS

ROOT = Path(__file__).resolve().parents[1]


def test_run_experiments_script_exits_zero():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_experiments.py")],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    for name in EXPERIMENTS:
        assert f"=== {name} (" in result.stdout
    assert "FAIL" not in result.stdout
    assert "resource summary (n-form)" in result.stdout
