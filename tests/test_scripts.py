"""Smoke tests: the scripts under scripts/ run as a user runs them."""

import hashlib
import importlib.util
import os
import shutil
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


def load_bench():
    spec = importlib.util.spec_from_file_location("bench", ROOT / "scripts" / "bench.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    return bench


def test_bench_names_a_checkout_without_git_by_its_src_digest(tmp_path):
    bench = load_bench()
    (tmp_path / "src" / "pkg" / "__pycache__").mkdir(parents=True)
    (tmp_path / "src" / "pkg" / "b.py").write_text("B = 2\n")
    (tmp_path / "src" / "pkg" / "a.py").write_text("A = 1\n")
    (tmp_path / "src" / "pkg" / "__pycache__" / "a.cpython-311.pyc").write_bytes(b"x")
    assert bench.describe(tmp_path) is None
    digest = bench.src_digest(tmp_path)
    listing = "".join(
        f"{hashlib.sha256(text.encode()).hexdigest()}  src/pkg/{name}\n"
        for name, text in (("a.py", "A = 1\n"), ("b.py", "B = 2\n")))
    assert digest == hashlib.sha256(listing.encode()).hexdigest()
    if shutil.which("sha256sum"):
        shell = subprocess.run(
            "find src -type f ! -path '*/__pycache__/*' | LC_ALL=C sort"
            " | xargs sha256sum | sha256sum", shell=True, cwd=tmp_path,
            capture_output=True, text=True, check=True)
        assert shell.stdout.split()[0] == digest
    (tmp_path / "src" / "pkg" / "b.py").write_text("B = 3\n")
    assert bench.src_digest(tmp_path) != digest


def test_bench_counts_the_lines_of_src_python_files(tmp_path):
    bench = load_bench()
    package = tmp_path / "src" / "pkg"
    (package / "__pycache__").mkdir(parents=True)
    (package / "a.py").write_text("A = 1\n")
    (package / "b.py").write_text("\n\nB = 2\n")
    # neither a file that is not Python nor the byte-code cache counts
    (package / "notes.txt").write_text("one\ntwo\n")
    (package / "__pycache__" / "stale.py").write_text("X = 0\n")
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_a.py").write_text("T = 1\n")
    assert bench.src_lines(tmp_path) == 4
    if shutil.which("wc"):
        shell = subprocess.run(
            "find src -name '*.py' ! -path '*/__pycache__/*' | xargs cat | wc -l",
            shell=True, cwd=tmp_path, capture_output=True, text=True, check=True)
        assert int(shell.stdout) == 4
    (package / "a.py").write_text("A = 1\nA += 1\n")
    assert bench.src_lines(tmp_path) == 5


def _timed_runs(workload: str, metric: str,
                sides: dict[str, list[float]]) -> list[dict]:
    """Timed runs of one workload, pair k of each side reading the
    metric's k-th value."""
    return [{"workload": workload, "pair": pair, "side": side, "trace": 0,
             "result": {"metrics": {metric: {"value": value}}}}
            for side, values in sides.items()
            for pair, value in enumerate(values)]


def test_bench_summary_flags_a_median_past_its_bound():
    bench = load_bench()
    spec = {"end_to_end": [
        {"name": "wall_s", "better": "lower", "bound": 0.25},
        {"name": "events_per_s", "better": "higher", "bound": 0.25},
    ], "per_layer": []}
    # (metric, baseline values, change values, regressed): each side's
    # median is its middle value
    cases = [
        ("wall_s", [1.0, 2.0, 3.0], [1.0, 2.4, 3.0], False),
        ("wall_s", [1.0, 2.0, 3.0], [1.0, 2.6, 3.0], True),
        ("wall_s", [1.0, 2.0, 3.0], [0.1, 0.2, 0.3], False),
        ("events_per_s", [90.0, 100.0, 110.0], [70.0, 80.0, 90.0], False),
        ("events_per_s", [90.0, 100.0, 110.0], [60.0, 70.0, 80.0], True),
        ("events_per_s", [90.0, 100.0, 110.0], [900.0, 1000.0, 1100.0], False),
    ]
    for metric, baseline, change, regressed in cases:
        runs = _timed_runs("w", metric, {"baseline": baseline, "change": change})
        entry = bench.summarize(runs, spec, ["w"])["w"]["end_to_end"][metric]
        assert entry["ratio"] == change[1] / baseline[1]
        assert entry["regressed"] is regressed, (metric, change)
    # without a median on both sides there is no ratio to bound
    runs = _timed_runs("w", "wall_s", {"baseline": [1.0, 2.0], "change": [5.0]})
    entry = bench.summarize(runs, spec, ["w"])["w"]["end_to_end"]["wall_s"]
    assert "ratio" not in entry and "regressed" not in entry
