"""Tests of the benchmark itself: python3 -m pytest perfbench"""

from __future__ import annotations

import json
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import pytest

from spikelogic import netlist

import worker
from pace import PROBE_EVERY_S, REFERENCE_PROBE_S, HostPace, probe_loop
from spans import Tracer, seconds_by_metric, self_times
from worker import (
    GUARD_SEED,
    BuildSweep,
    DecoderFanout,
    MemoryCli,
    Outcome,
    check,
    guard_mismatches,
    kept_runs,
    measure,
    reference_pass,
)

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
TINY = (DecoderFanout(n=3, words=40),
        MemoryCli(registers=3, bits=2, duration_ms=40),
        BuildSweep(depths=(1, 2), widths=(1, 2)))


@pytest.mark.parametrize("traced", (False, True), ids=("untraced", "traced"))
@pytest.mark.parametrize("workload", TINY, ids=lambda w: w.name)
def test_every_workload_passes_at_tiny_size(workload, traced, tmp_path):
    _, expected = reference_pass(workload, workload.prepare(GUARD_SEED, tmp_path))
    inputs = workload.prepare(3, tmp_path)
    checked = check(workload, 3, inputs, tmp_path, expected)
    assert checked["problems"] == [] and checked["failed"] == 0
    result = measure(workload, 3, inputs, 0, traced, checked["fingerprint"])
    assert result["problems"] == []
    assert result["failed"] == 0
    assert result["passes"] >= worker.MIN_PASSES
    assert result["wall_s"] > 0 and result["events_per_s"] > 0
    counts = checked["fingerprint"]["counts"]
    assert counts["blocks.neurons"] > 0 and counts["blocks.synapses"] > 0
    if workload.seeded:
        assert counts["sim.events"] > 0 and counts["sim.steps"] > 0
    if traced:
        layers = result["layers"]
        assert set(layers) == {m["name"] for m in SPEC["per_layer"]}
        assert layers["blocks.build_s"] > 0
        layer_sum = sum(layers[m] for m in worker.LAYER_SECONDS)
        assert layer_sum == pytest.approx(
            result["wall_s"] + layers["bench.trace_overhead_s"], abs=1e-3)
        # every pass's self times add up to its root span
        spans = result["spans"]
        per_pass = seconds_by_metric(spans, worker.METRIC_OF)
        for span in spans:
            if span[0] == worker.ROOT_SPAN:
                total = sum(per_pass[span[4]].values())
                assert total == pytest.approx(span[2] - span[1], abs=1e-9)


def test_run_fails_where_there_is_no_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "build-sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_tracer_restores_what_it_wrapped():
    originals = [getattr(owner, attr) for owner, attr, _, _ in worker.SPAN_TARGETS]
    run = worker.sim.Network.run
    with Tracer().installed([t[:3] for t in worker.SPAN_TARGETS]):
        assert worker.sim.Network.run is not run
    assert [getattr(owner, attr)
            for owner, attr, _, _ in worker.SPAN_TARGETS] == originals


class Replay:
    """A workload whose pass simulates one given network."""

    name = "replay"
    seeded = False

    def __init__(self, net, duration_ms):
        self.net = net
        self.duration_ms = duration_ms

    def prepare(self, seed, workdir):
        return None

    def run(self, inputs):
        return self.net.run(self.duration_ms)

    def check(self, inputs, raw):
        return Outcome()


def test_guard_trips_on_netlist_copy_with_one_weight_flipped(tmp_path):
    workload = TINY[0]
    with kept_runs() as runs:
        workload.run(workload.prepare(GUARD_SEED, tmp_path))
    (net, record), = runs
    duration = record.duration_ms
    _, expected = reference_pass(Replay(net, duration), None)

    doc = json.loads(netlist.dumps(net))
    copy, _ = netlist.from_document(doc)
    _, same = reference_pass(Replay(copy, duration), None)
    assert guard_mismatches(expected, same) == []

    # the first synapse out of select line s0's source, made inhibitory
    s0 = doc["sources"][0]["id"]
    index = next(i for i, syn in enumerate(doc["synapses"]) if syn["source"] == s0)
    doc["synapses"][index]["weight_quanta"] *= -1
    flipped, _ = netlist.from_document(doc)
    _, changed = reference_pass(Replay(flipped, duration), None)
    assert any("records" in p for p in guard_mismatches(expected, changed))

    checked = check(Replay(flipped, duration), GUARD_SEED, None, tmp_path,
                    expected)
    assert checked["failed"] == 1
    assert any(p.startswith("guard mismatch") for p in checked["problems"])

    # timed passes hash their records too: each one on the flipped copy fails
    result = measure(Replay(flipped, duration), GUARD_SEED, None, 0, False,
                     expected)
    assert result["failed"] == result["attempted"] >= worker.MIN_PASSES
    assert all("SpikeRecords differ" in p for p in result["problems"])


def test_self_time_on_hand_built_span_tree():
    spans = [
        ["root", 0.0, 10.0, None, 0],
        ["a", 1.0, 4.0, 0, 0],
        ["a1", 2.0, 3.0, 1, 0],
        ["b", 3.5, 6.0, 0, 0],    # overlaps a by 0.5 s
        ["c", 9.0, 12.0, 0, 0],   # ends after its parent: clipped at 10
        ["other", 0.0, 5.0, None, 1],
    ]
    assert self_times(spans) == pytest.approx([4.0, 2.0, 1.0, 2.5, 3.0, 5.0])
    metric_of = {"root": "r", "a": "x", "a1": "y", "b": "x", "c": "y",
                 "other": "r"}
    assert seconds_by_metric(spans, metric_of) == {
        0: pytest.approx({"r": 4.0, "x": 4.5, "y": 4.0}),
        1: pytest.approx({"r": 5.0}),
    }


def test_host_pace_samples_during_the_block_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    pace = HostPace()
    with pace.sampling():
        end = perf_counter() + 20 * PROBE_EVERY_S
        while perf_counter() < end:
            probe_loop()
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    # one probe at each end and at least a few from the timer between
    assert len(pace.samples) >= 5
    assert pace.scale() == pytest.approx(
        REFERENCE_PROBE_S / statistics.median(pace.samples))
