"""One benchmark workload, run in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \
        --trace 0|1 --workdir DIR \
        (--setup-only | --check | --print-guard | --fingerprint FILE)

run.py starts this with src/ on PYTHONPATH. The worker imports the
package, generates the seeded inputs and prints "ready", then "pace" and
the HostPace scale of that set-up (see pace.py); the time to the "ready"
line, times that scale, is the set-up time. Then, by mode:

  --check        two untimed passes, and a JSON line with their result and
                 the run's fingerprint:
                   reference  the run's own inputs, with Network.run's
                              results kept, so every network the pass
                              simulates can be stepped again with the
                              reference Simulation to count steps, spikes
                              and synaptic events, and every SpikeRecord
                              can be hashed;
                   guard      the same on the inputs of GUARD_SEED, whose
                              fingerprint must equal expected.json.
  --fingerprint  timed passes for the given seconds, each checked against
                 the fingerprint that --check printed, and each timed in
                 host seconds times the pass's HostPace scale.
                 With --trace 1 every other pass runs with the package's
                 public calls wrapped in spans (see SPAN_TARGETS); the
                 others run unwrapped, so the difference is the tracing
                 overhead. Nothing else runs in this interpreter, so its
                 peak memory is the workload's.

The last stdout line is one JSON object for run.py.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import random
import resource
import statistics
import sys
from bisect import bisect_left
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from pace import HostPace

if __name__ == "__main__":
    # set-up is timed from launch to "ready"; sample the pace over the
    # package import and the input generation, most of that time
    SETUP_PACE = HostPace()
    SETUP_PACE.start()

from spikelogic import blocks, cli, gates, harness, netlist, resources, sim
from spikelogic.resources import FormulaQuery

from spans import Tracer, seconds_by_metric

EXPECTED = Path(__file__).with_name("expected.json")
GUARD_SEED = 0
MIN_PASSES = 3

# (owner, attribute, span name, per-layer metric). Each function is
# wrapped where its callers look it up: the binding in the calling
# module's namespace, or the class attribute for methods.
SPAN_TARGETS = (
    (cli, "main", "cli.main", "cli.self_s"),
    (cli, "parse_stimulus", "harness.parse_stimulus", "harness.self_s"),
    (cli, "run_experiment", "harness.run_experiment", "harness.self_s"),
    (cli, "render_checks", "harness.render_checks", "harness.self_s"),
    (cli, "export_spikes", "harness.export_spikes", "harness.export_s"),
    (cli, "render_trace", "trace.render_trace", "trace.render_s"),
    (netlist, "save", "netlist.save", "netlist.dump_s"),
    (harness, "sweep_decoder", "harness.sweep_decoder", "harness.self_s"),
    (harness, "build_css", "gates.build_css", "blocks.build_s"),
    (harness, "build_decoder", "blocks.build_decoder", "blocks.build_s"),
    (harness, "build_memory", "blocks.build_memory", "blocks.build_s"),
    (harness, "drive", "gates.drive", "blocks.build_s"),
    (harness, "memory_states", "oracles.memory_states", "oracles.s"),
    (harness, "spike_row", "trace.spike_row", "trace.rows_s"),
    (harness, "value_row", "trace.value_row", "trace.rows_s"),
    (harness, "hex_word_row", "trace.hex_word_row", "trace.rows_s"),
    (gates, "build_css", "gates.build_css", "blocks.build_s"),
    (blocks, "build_memory", "blocks.build_memory", "blocks.build_s"),
    (resources, "reconcile", "resources.reconcile", "resources.reconcile_s"),
    (sim.Network, "run", "sim.Network.run", "sim.run_s"),
    (sim.Simulation, "__init__", "sim.Simulation.__init__", "sim.compile_s"),
)
ROOT_SPAN = "bench.pass"
METRIC_OF = {name: metric for _, _, name, metric in SPAN_TARGETS}
METRIC_OF[ROOT_SPAN] = "bench.self_s"
LAYER_SECONDS = sorted(set(METRIC_OF.values()))


def sha256(data: str | bytes) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def record_digest(record: sim.SpikeRecord) -> str:
    items = sorted((eid, list(times)) for eid, times in record.spikes.items())
    return sha256(json.dumps([record.duration_ms, items]))


@dataclass
class Outcome:
    """What the benchmark checks of one pass, taken off the clock."""

    problems: list[str] = field(default_factory=list)
    outputs: dict[str, str] = field(default_factory=dict)
    counts: dict[str, int] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Workloads


@dataclass(frozen=True)
class DecoderFanout:
    n: int = 10
    words: int = 2000
    and_kind: str = "fast"
    name = "decoder-fanout"
    seeded = True

    def prepare(self, seed: int, workdir: Path) -> list[int]:
        rng = random.Random(seed)
        return [rng.randrange(2 ** self.n) for _ in range(self.words)]

    def run(self, words):
        return harness.sweep_decoder(self.n, self.and_kind, words)

    def check(self, words, check) -> Outcome:
        problems = [] if check.ok else [f"FAIL {check.label}: {check.detail}"]
        return Outcome(problems, {}, {"harness.checks_failed": len(problems)})


@dataclass(frozen=True)
class MemoryCli:
    registers: int = 63
    bits: int = 8
    duration_ms: int = 1000
    and_kind: str = "classic"
    name = "memory-cli"
    seeded = True
    # the files --out gets, and the per-layer size count of each
    files = {"trace.txt": "trace.bytes", "spikes.csv": None,
             "netlist.json": "netlist.bytes"}

    def prepare(self, seed: int, workdir: Path) -> tuple[Path, list[str]]:
        """Write a stimulus that stores a uniform random word at a uniform
        random address (0, the no-op channel, included) every ms."""
        rng = random.Random(seed)
        depth = self.registers.bit_length()
        rows = ["signal,time_ms"]
        for t in range(1, self.duration_ms):
            address = rng.randrange(2 ** depth)
            word = rng.randrange(2 ** self.bits)
            rows += [f"s{b},{t}" for b in range(depth) if address >> b & 1]
            rows += [f"d{j},{t}" for j in range(self.bits) if word >> j & 1]
        workdir.mkdir(parents=True, exist_ok=True)
        stimulus = workdir / f"stimulus-{seed}.csv"
        stimulus.write_text("\n".join(rows) + "\n", encoding="ascii")
        out = workdir / f"out-{seed}"
        argv = ["run", "memory", "--and", self.and_kind,
                "--registers", str(self.registers), "--bits", str(self.bits),
                "--duration-ms", str(self.duration_ms),
                "--stimulus", str(stimulus), "--format", "table",
                "--out", str(out)]
        return out, argv

    def run(self, inputs):
        _, argv = inputs
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            status = cli.main(argv)
        return status, stdout.getvalue()

    def check(self, inputs, raw) -> Outcome:
        out, _ = inputs
        status, stdout = raw
        failed = [line for line in stdout.splitlines() if line.startswith("FAIL")]
        problems = [f"spikelogic run exited {status}"] if status else []
        problems += failed
        outputs = {"stdout": sha256(stdout)}
        counts = {"harness.checks_failed": len(failed)}
        for name, size_count in self.files.items():
            data = (out / name).read_bytes()
            outputs[name] = sha256(data)
            if size_count:
                counts[size_count] = len(data)
        return Outcome(problems, outputs, counts)


@dataclass(frozen=True)
class BuildSweep:
    depths: tuple[int, ...] = tuple(range(1, 7))
    widths: tuple[int, ...] = tuple(range(1, 9))
    name = "build-sweep"
    seeded = False

    def prepare(self, seed: int, workdir: Path) -> list[tuple[str, int, int]]:
        return [(ak, n, c) for ak in ("classic", "fast")
                for n in self.depths for c in self.widths]

    def run(self, grid):
        neurons = synapses = 0
        diffs: list[str] = []
        for ak, n, c in grid:
            registers = 2 ** n - 1
            net = sim.Network()
            css = gates.build_css(net)
            handle = blocks.build_memory(net, registers, c, ak, css)
            for query in (FormulaQuery("memory", ak, "n", n=n, c=c),
                          FormulaQuery("memory", ak, "m", r=registers, c=c)):
                outcome = resources.reconcile(handle, query)
                diffs += [f"{ak} n={n} c={c} {query.form}-form: {d}"
                          for d in outcome.diffs]
            neurons += len(net.neurons)
            synapses += len(net.synapses)
        return neurons, synapses, diffs

    def check(self, grid, raw) -> Outcome:
        neurons, synapses, diffs = raw
        return Outcome(list(diffs), {}, {"blocks.neurons": neurons,
                                          "blocks.synapses": synapses,
                                          "resources.mismatches": len(diffs)})


WORKLOADS = {w.name: w for w in (DecoderFanout(), MemoryCli(), BuildSweep())}


# ---------------------------------------------------------------------------
# Exact counts and the digest guard


def step_reference(net: sim.Network, duration_ms: int):
    """Step the reference Simulation over net and count what it did.

    A synaptic event is one delivery that lands inside the run, i.e. a
    spike at t over a synapse of delay d with t + d < duration_ms.
    Returns (events, spikes, steps, record of the recorded ids).
    """
    delays: dict[int, list[int]] = {}
    for syn in net.synapses:
        delays.setdefault(syn.source, []).append(syn.delay_ms)
    for row in delays.values():
        row.sort()
    recorded = set(net.recorded)
    collected: dict[int, list[int]] = {eid: [] for eid in sorted(recorded)}
    simulation = sim.Simulation(net)
    events = spikes = 0
    for now in range(duration_ms):
        fired = simulation.step()
        spikes += len(fired)
        for eid in fired:
            row = delays.get(eid)
            if row:
                events += bisect_left(row, duration_ms - now)
            if eid in recorded:
                collected[eid].append(now)
    record = sim.SpikeRecord(duration_ms,
                             {k: tuple(v) for k, v in collected.items()})
    return events, spikes, duration_ms, record


@contextlib.contextmanager
def kept_runs(networks: bool = True):
    """Keep what every Network.run call in the block returns: (network,
    record) pairs, or only the records when networks is false."""
    runs: list = []
    original = sim.Network.run

    def keeping(self, duration_ms):
        record = original(self, duration_ms)
        runs.append((self, record) if networks else record)
        return record

    sim.Network.run = keeping
    try:
        yield runs
    finally:
        sim.Network.run = original


def reference_pass(workload, inputs) -> tuple[Outcome, dict]:
    """One untimed pass; returns its outcome and its fingerprint: record
    hashes, output hashes and exact counts."""
    with kept_runs() as runs:
        raw = workload.run(inputs)
    outcome = workload.check(inputs, raw)
    counts = dict(outcome.counts)
    if runs:
        counts.update({"blocks.neurons": 0, "blocks.synapses": 0,
                       "sim.events": 0, "sim.spikes": 0, "sim.steps": 0})
    digests = []
    for net, record in runs:
        events, spikes, steps, stepped = step_reference(net, record.duration_ms)
        digests.append(record_digest(record))
        if stepped != record:
            outcome.problems.append(
                "Network.run and the reference Simulation disagree")
        counts["blocks.neurons"] += len(net.neurons)
        counts["blocks.synapses"] += len(net.synapses)
        counts["sim.events"] += events
        counts["sim.spikes"] += spikes
        counts["sim.steps"] += steps
    runs.clear()
    fingerprint = {"records": digests, "outputs": outcome.outputs,
                   "counts": dict(sorted(counts.items()))}
    return outcome, fingerprint


def guard_mismatches(expected: dict, fingerprint: dict) -> list[str]:
    problems = []
    for section in ("records", "outputs", "counts"):
        want, got = expected.get(section), fingerprint.get(section)
        if want != got:
            problems.append(f"guard mismatch in {section}: "
                            f"expected {want}, got {got}")
    return problems


# ---------------------------------------------------------------------------
# Measurement


def machine() -> dict:
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "platform": platform.platform()}


def check(workload, seed: int, inputs, workdir: Path, expected: dict) -> dict:
    """The reference pass on inputs (workload.prepare(seed, workdir)) and
    the guard pass, which must match expected, the committed fingerprint
    of GUARD_SEED's inputs. Returns the tally and the run's fingerprint."""
    reference, fingerprint = reference_pass(workload, inputs)
    if workload.seeded and seed != GUARD_SEED:
        guard, guard_fp = reference_pass(
            workload, workload.prepare(GUARD_SEED, workdir))
        passes = [reference.problems,
                  guard.problems + guard_mismatches(expected, guard_fp)]
    else:
        passes = [reference.problems + guard_mismatches(expected, fingerprint)]
    return {"attempted": len(passes), "failed": sum(map(bool, passes)),
            "problems": [problem for found in passes for problem in found],
            "fingerprint": fingerprint}


def measure(workload, seed: int, inputs, seconds: float, traced: bool,
            fingerprint: dict) -> dict:
    """Timed passes on inputs for `seconds`, each of which must reproduce
    fingerprint, the one check() gave for the same inputs. Pass times are
    host seconds times the pass's HostPace scale.

    An untimed pass comes first. It warms up, and the peak memory is read
    right after it: set-up plus one call, what a user of the call sees.
    Later passes would move that peak, because each probe signal makes
    objects and so shifts when the garbage collector runs."""
    problems: list[str] = []
    attempted = failed = 0
    counts = fingerprint["counts"]
    tracer = Tracer()
    pace = HostPace()
    targets = [(owner, attr, name) for owner, attr, name, _ in SPAN_TARGETS]
    walls: list[float] = []
    host_walls: list[float] = []
    traced_walls: list[float] = []
    traced_scales: list[float] = []
    peak_rss_mb = None
    with kept_runs(networks=False) as records:
        while True:
            spanned = traced and len(walls) > len(traced_walls)
            records.clear()
            gc.collect()
            if peak_rss_mb is None:
                raw = workload.run(inputs)
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            elif spanned:
                tracer.pass_id = len(traced_walls)
                with tracer.installed(targets), pace.sampling():
                    tick = perf_counter()
                    raw = tracer.call(ROOT_SPAN, workload.run, inputs)
                    wall = perf_counter() - tick
                traced_scales.append(pace.scale())
                traced_walls.append(wall * traced_scales[-1])
            else:
                with pace.sampling():
                    tick = perf_counter()
                    raw = workload.run(inputs)
                    wall = perf_counter() - tick
                host_walls.append(wall)
                walls.append(wall * pace.scale())
            outcome = workload.check(inputs, raw)
            found = list(outcome.problems)
            if [record_digest(r) for r in records] != fingerprint["records"]:
                found.append("pass SpikeRecords differ from the reference pass")
            if (outcome.outputs != fingerprint["outputs"]
                    or any(counts.get(k) != v for k, v in outcome.counts.items())):
                found.append("pass outputs differ from the reference pass")
            attempted += 1
            failed += bool(found)
            problems.extend(found)
            timed = len(walls) + len(traced_walls)
            if not timed:
                started = perf_counter()
                continue
            done = len(walls) >= MIN_PASSES and (not traced or len(traced_walls) >= 2)
            elapsed = perf_counter() - started
            if done and elapsed + elapsed / timed > seconds:
                break

    wall_s = statistics.median(walls)
    work = counts["sim.events" if "sim.events" in counts else "blocks.synapses"]
    result = {
        "workload": workload.name, "seed": seed, "machine": machine(),
        "attempted": attempted, "failed": failed, "problems": problems,
        "passes": len(walls), "walls": walls, "wall_s": wall_s,
        "host_walls": host_walls, "host_wall_s": statistics.median(host_walls),
        "events_per_s": work / wall_s,
        "peak_rss_mb": peak_rss_mb,
    }
    if traced:
        # the layers of the (lower) median traced pass, on its scale, so
        # that they add up to its time and that minus wall_s is the overhead
        middle = sorted(range(len(traced_walls)),
                        key=traced_walls.__getitem__)[(len(traced_walls) - 1) // 2]
        own = seconds_by_metric(tracer.spans, METRIC_OF)[middle]
        layers = {metric: own.get(metric, 0.0) * traced_scales[middle]
                  for metric in LAYER_SECONDS}
        layers["bench.trace_overhead_s"] = traced_walls[middle] - wall_s
        events = counts.get("sim.events", 0)
        layers["sim.ns_per_event"] = (layers["sim.run_s"] / events * 1e9
                                      if events else 0.0)
        for name in ("blocks.neurons", "blocks.synapses", "resources.mismatches",
                     "sim.events", "sim.spikes", "sim.steps", "trace.bytes",
                     "netlist.bytes", "harness.checks_failed"):
            layers[name] = counts.get(name, 0)
        result.update(traced_passes=len(traced_walls), traced_walls=traced_walls,
                      traced_scales=traced_scales, layers=layers,
                      spans=tracer.spans)
    return result


def main(setup_pace: HostPace, argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=Path, required=True)
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--setup-only", action="store_true",
                      help="exit once the inputs are ready")
    mode.add_argument("--check", action="store_true",
                      help="make the reference and guard passes and print "
                           "their result with the run's fingerprint")
    mode.add_argument("--fingerprint", type=Path,
                      help="make timed passes checked against this file, "
                           "the fingerprint --check printed")
    mode.add_argument("--print-guard", action="store_true",
                      help="print the fingerprint of the guard seed's "
                           "inputs, in the form expected.json keeps")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    inputs = workload.prepare(args.seed, args.workdir)
    setup_pace.stop()
    print("ready", flush=True)
    print(f"pace {setup_pace.scale()!r}", flush=True)
    if args.setup_only:
        return 0
    if args.print_guard:
        outcome, fingerprint = reference_pass(
            workload, workload.prepare(GUARD_SEED, args.workdir))
        print(json.dumps({workload.name: fingerprint}, indent=2))
        return 1 if outcome.problems else 0
    if args.check:
        expected = json.loads(EXPECTED.read_text())[workload.name]
        result = check(workload, args.seed, inputs, args.workdir, expected)
    else:
        fingerprint = json.loads(args.fingerprint.read_text())
        result = measure(workload, args.seed, inputs, args.seconds,
                         bool(args.trace), fingerprint)
    print(json.dumps(result))
    return 0

if __name__ == "__main__":
    sys.exit(main(SETUP_PACE))
