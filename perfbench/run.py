"""spikelogic benchmark: one workload, measured end to end or per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout of the repository; the package is
imported from the checkout's src/. Each workload runs in fresh, single
threaded interpreters started from here (worker.py): SETUP_PROBES of them
only set up, to time set-up; one makes the untimed reference and guard
passes; the last makes the timed passes. Set-up is timed in all of them,
and scaled by the pace each worker reports (see pace.py). The last stdout
line is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics (--trace 0) or the per-layer ones (--trace 1)
that BENCHMARK.json, at the root of the checkout, lists with their units. Lines before it record the machine and the
details. Spans of a traced run go to .perfbench_out/ in the checkout.
Exit status: 0 when every pass was correct, 1 when a pass failed or the
worker did not finish, 2 on a usage error or when src/ or BENCHMARK.json
is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = ROOT / "BENCHMARK.json"
WORKER = Path(__file__).with_name("worker.py")
SETUP_PROBES = 7
TIME_LIMIT_S = 170.0


def start_worker(args, workdir: Path, *extra: str) -> tuple[subprocess.Popen, float, float]:
    """Start a worker and wait for its "ready" and "pace" lines; returns
    the process, the host seconds from launch to ready and the pace scale
    of that set-up."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    command = [sys.executable, str(WORKER), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--workdir", str(workdir), *extra]
    tick = perf_counter()
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                            env=env, cwd=ROOT)
    line = proc.stdout.readline()
    ready = perf_counter() - tick
    pace = proc.stdout.readline().split() if line.strip() == "ready" else []
    if len(pace) != 2 or pace[0] != "pace":
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"worker did not get ready (exit {proc.returncode})")
    return proc, ready, float(pace[1])


def finish(proc: subprocess.Popen, deadline: float) -> str:
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("worker ran past the time limit") from None
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}")
    return stdout


def main(argv: list[str] | None = None) -> int:
    if not (ROOT / "src" / "spikelogic" / "__init__.py").is_file():
        print(f"error: no spikelogic package under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    try:
        spec = json.loads(BENCHMARK.read_text())
    except OSError as exc:
        print(f"error: cannot read {BENCHMARK.name}: {exc}", file=sys.stderr)
        return 2
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")

    deadline = perf_counter() + TIME_LIMIT_S
    outdir = ROOT / ".perfbench_out"
    workdir = outdir / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        host_setups, scales = [], []
        for mode in [("--setup-only",)] * SETUP_PROBES + [("--check",)]:
            proc, ready, scale = start_worker(args, workdir, *mode)
            stdout = finish(proc, deadline)
            host_setups.append(ready)
            scales.append(scale)
        checked = json.loads(stdout.splitlines()[-1])
        workdir.mkdir(parents=True, exist_ok=True)
        fingerprint = workdir / "fingerprint.json"
        fingerprint.write_text(json.dumps(checked["fingerprint"]))
        proc, ready, scale = start_worker(args, workdir, "--fingerprint", str(fingerprint))
        host_setups.append(ready)
        scales.append(scale)
        report = json.loads(finish(proc, deadline).splitlines()[-1])
    except RuntimeError as exc:
        print(f"error: {args.workload}: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = checked["attempted"] + report["attempted"]
    failed = checked["failed"] + report["failed"]
    for problem in checked["problems"] + report["problems"]:
        print(f"FAILED PASS: {args.workload}: {problem}", file=sys.stderr)
    spans = report.pop("spans", None)
    if spans is not None:
        outdir.mkdir(exist_ok=True)
        (outdir / f"spans-{args.workload}-{args.seed}.json").write_text(
            json.dumps({"machine": report["machine"], "seed": args.seed,
                        "fields": ["name", "start", "end", "parent", "pass"],
                        "pass_scales": report["traced_scales"],
                        "spans": spans}))
    setups = [ready * scale for ready, scale in zip(host_setups, scales)]
    setup_s = statistics.median(setups)
    print("machine " + json.dumps(report["machine"]))
    print("detail " + json.dumps({
        "workload": args.workload, "seed": args.seed, "passes": report["passes"],
        "walls_s": report["walls"], "host_walls_s": report["host_walls"],
        "host_wall_s": report["host_wall_s"], "setups_s": setups,
        "host_setups_s": host_setups,
        "traced_walls_s": report.get("traced_walls"),
        "fingerprint": checked["fingerprint"]}))

    if args.trace:
        values = report["layers"]
        listed = spec["per_layer"]
    else:
        values = {"wall_s": report["wall_s"],
                  "events_per_s": report["events_per_s"],
                  "setup_s": setup_s,
                  "peak_rss_mb": report["peak_rss_mb"],
                  "pass_ratio": 1 - failed / attempted}
        listed = spec["end_to_end"]
    correct = failed == 0
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in listed}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
