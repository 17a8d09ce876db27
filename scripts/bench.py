#!/usr/bin/env python3
"""Run the benchmark on a baseline checkout and on this working tree.

    python3 scripts/bench.py --baseline DIR --label NAME [--seed 1]

DIR is another checkout of the repository, such as a `git worktree` of
the parent commit. For each workload of BENCHMARK.json, perfbench/run.py
runs PAIRS (10) times on each side with --trace 0, alternating which side goes first, and then
once more on each side with --trace 1 for the per-layer metrics. Both
sides run as long as BENCHMARK.json of this tree says (run_seconds), and
each side runs its own perfbench/ unchanged.

BENCH_<NAME>.json, written at the root of this tree, holds every run
(workload, pair, side, which side went first, exit status, and the
machine, detail and result lines), each side's commit, sha256 of its
src/ tree and line count of its src/**/*.py, and a summary: per workload and
end-to-end metric, the median and quartiles of each side, the pairs
this tree won, the ratio of the medians (this tree over the baseline)
and whether that ratio regressed past the metric's bound in
BENCHMARK.json; per workload and per-layer metric, each side's traced
value.

Exit status: 0 when every run was correct, 1 when a run failed, 2 on a
usage error, such as a baseline without perfbench/run.py.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("baseline", "change")
# timed runs per side and workload: the fewest that can show a gain as
# nine wins out of ten pairs
PAIRS = 10


def describe(checkout: Path) -> str | None:
    """The commit a checkout is at, marked -dirty if it has changes."""
    proc = subprocess.run(["git", "describe", "--always", "--dirty"],
                          cwd=checkout, capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def src_digest(checkout: Path) -> str:
    """sha256 of the checkout's src/ tree, less __pycache__, as this prints
    it in the checkout: it names the code a side ran where describe()
    cannot, as in a `git archive` copy.

        find src -type f ! -path '*/__pycache__/*' | LC_ALL=C sort \\
            | xargs sha256sum | sha256sum
    """
    files = [path.relative_to(checkout) for path in (checkout / "src").rglob("*")
             if path.is_file()]
    paths = sorted(path.as_posix() for path in files
                   if "__pycache__" not in path.parts)
    listing = "".join(
        f"{hashlib.sha256((checkout / path).read_bytes()).hexdigest()}  {path}\n"
        for path in paths)
    return hashlib.sha256(listing.encode()).hexdigest()


def src_lines(checkout: Path) -> int:
    """Lines of the checkout's src/**/*.py, less __pycache__, as this
    counts them in the checkout:

        find src -name '*.py' ! -path '*/__pycache__/*' | xargs cat | wc -l
    """
    return sum(path.read_bytes().count(b"\n")
               for path in (checkout / "src").rglob("*.py")
               if "__pycache__" not in path.relative_to(checkout).parts)


def run_once(checkout: Path, workload: str, seed: int, seconds: int,
             trace: int) -> dict:
    """One perfbench/run.py run in the checkout, parsed."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, str(checkout / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, env=env, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    run = {"exit": proc.returncode, "machine": None, "detail": None,
           "result": None}
    for line in lines:
        tag, _, rest = line.partition(" ")
        if tag in ("machine", "detail"):
            run[tag] = json.loads(rest)
    if lines and lines[-1].startswith("{"):
        run["result"] = json.loads(lines[-1])
    if proc.returncode:
        run["stderr"] = proc.stderr[-4000:]
    return run


def value(run: dict, metric: str) -> float | None:
    result = run["result"]
    if result is None or metric not in result["metrics"]:
        return None
    return result["metrics"][metric]["value"]


def summarize(runs: list[dict], spec: dict, workloads: list[str]) -> dict:
    summary = {}
    for workload in workloads:
        timed = [r for r in runs if r["workload"] == workload and not r["trace"]]
        traced = {r["side"]: r for r in runs
                  if r["workload"] == workload and r["trace"]}
        metrics = {}
        for metric in spec["end_to_end"]:
            name = metric["name"]
            by_pair: dict[int, dict[str, float]] = {}
            for run in timed:
                got = value(run, name)
                if got is not None:
                    by_pair.setdefault(run["pair"], {})[run["side"]] = got
            entry = {}
            for side in SIDES:
                values = [pair[side] for pair in by_pair.values() if side in pair]
                if len(values) >= 2:
                    q1, median, q3 = statistics.quantiles(values, n=4)
                    entry[side] = {"median": median, "q1": q1, "q3": q3,
                                   "runs": len(values)}
            both = [pair for pair in by_pair.values() if len(pair) == 2]
            sign = 1 if metric["better"] == "higher" else -1
            entry["pairs"] = len(both)
            entry["change_wins"] = sum(
                sign * (pair["change"] - pair["baseline"]) > 0 for pair in both)
            if all(side in entry for side in SIDES) and entry["baseline"]["median"]:
                ratio = entry["change"]["median"] / entry["baseline"]["median"]
                entry["ratio"] = ratio
                entry["regressed"] = (ratio < 1 - metric["bound"]
                                      if metric["better"] == "higher"
                                      else ratio > 1 + metric["bound"])
            metrics[name] = entry
        layers = {metric["name"]: {side: value(traced[side], metric["name"])
                                   for side in SIDES if side in traced}
                  for metric in spec["per_layer"]}
        summary[workload] = {"end_to_end": metrics, "per_layer": layers}
    return summary


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", type=Path, required=True,
                        help="checkout to compare this working tree against")
    parser.add_argument("--label", required=True,
                        help="names the output file BENCH_<label>.json")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    baseline = args.baseline.resolve()
    if not (baseline / "perfbench" / "run.py").is_file():
        parser.error(f"--baseline {args.baseline}: no perfbench/run.py there")
    if not args.label or Path(args.label).name != args.label:
        parser.error(f"--label {args.label!r} must name a file")
    workloads = [workload["name"] for workload in spec["workloads"]]
    checkouts = {"baseline": baseline, "change": ROOT}

    runs = []
    for workload in workloads:
        # PAIRS timed pairs, then one traced pair; the side that goes
        # first alternates from pair to pair
        for pair in range(PAIRS + 1):
            trace = int(pair == PAIRS)
            order = SIDES if pair % 2 == 0 else SIDES[::-1]
            for position, side in enumerate(order):
                run = run_once(checkouts[side], workload, args.seed,
                               spec["run_seconds"], trace)
                run.update(workload=workload, pair=pair, side=side,
                           first=position == 0, trace=trace)
                runs.append(run)
                status = "ok" if run["exit"] == 0 else f"exit {run['exit']}"
                print(f"{workload} pair {pair} {side} trace {trace}: {status}",
                      file=sys.stderr)

    machine = next((run["machine"] for run in runs if run["machine"]), None)
    report = {
        "label": args.label,
        "seed": args.seed,
        "run_seconds": spec["run_seconds"],
        "commits": {side: describe(path) for side, path in checkouts.items()},
        "src_sha256": {side: src_digest(path) for side, path in checkouts.items()},
        "src_lines": {side: src_lines(path) for side, path in checkouts.items()},
        "machine": machine,
        "summary": summarize(runs, spec, workloads),
        "runs": runs,
    }
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {out.name}", file=sys.stderr)
    return 0 if all(run["exit"] == 0 for run in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
