"""Smoke tests: the scripts under scripts/ run as a user runs them."""

import os
import subprocess
import sys
from pathlib import Path

from spikelogic.harness import EXPERIMENTS

ROOT = Path(__file__).resolve().parents[1]


def run_script(name: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)


def test_run_experiments_script_exits_zero():
    result = run_script("run_experiments.py")
    assert result.returncode == 0, result.stderr
    for name in EXPERIMENTS:
        assert f"=== {name} (" in result.stdout
    assert "FAIL" not in result.stdout
    assert "resource summary (n-form)" in result.stdout


def test_bench_script_without_baseline_checkout_exits_two(tmp_path):
    result = run_script("bench.py", "--baseline", str(tmp_path / "absent"),
                        "--label", "absent")
    assert result.returncode == 2
    assert "--baseline" in result.stderr
    assert not (ROOT / "BENCH_absent.json").exists()
