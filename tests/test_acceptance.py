"""Acceptance gate: one test and one printed verdict per criterion.

Run with -v (or -s) to see the per-criterion lines; each test prints
"criterion N PASS: ..." after its assertions hold.
"""

import time

from spikelogic.blocks import (
    build_d_latch,
    build_decoder,
    build_demultiplexer,
    build_encoder,
    build_memory,
    build_multiplexer,
)
from spikelogic.gates import build_css
from spikelogic.harness import (
    ExperimentConfig,
    fuzz_memory,
    measure_latency,
    render_checks,
    run_experiment,
    sweep_decoder,
    sweep_demultiplexer,
    sweep_encoder,
    sweep_multiplexer,
)
from spikelogic.resources import (
    FormulaQuery,
    expected_latency,
    formula_resources,
    reconcile,
)
from spikelogic.sim import Network
from support import shuffle_synapses

KINDS = ("classic", "fast")

LATENCY_TABLE = {
    ("decoder", "classic"): 3, ("decoder", "fast"): 2,
    ("multiplexer", "classic"): 4, ("multiplexer", "fast"): 3,
    ("demultiplexer", "classic"): 3, ("demultiplexer", "fast"): 2,
    ("d_latch", "classic"): 3, ("d_latch", "fast"): 2,
    ("memory", "classic"): 6, ("memory", "fast"): 4,
}


def test_criterion_1_latency_table():
    started = time.monotonic()
    for (kind, ak), want in LATENCY_TABLE.items():
        assert measure_latency(kind, ak) == want, (kind, ak)
    assert measure_latency("encoder") == 1
    elapsed = time.monotonic() - started
    assert elapsed < 10.0, f"latency sweep took {elapsed:.1f} s"
    print(f"criterion 1 PASS: 11 measured latencies equal the table "
          f"exactly in {elapsed:.2f} s")


def test_criterion_2_resource_reconciliation():
    combos = 0
    for ak in KINDS:
        for n in range(1, 7):
            net = Network()
            css = build_css(net)
            for kind, builder in (("decoder", build_decoder),
                                  ("multiplexer", build_multiplexer),
                                  ("demultiplexer", build_demultiplexer)):
                handle = builder(net, n, ak, css)
                for query in (FormulaQuery(kind, ak, "n", n=n),
                              FormulaQuery(kind, ak, "m", m=2 ** n)):
                    outcome = reconcile(handle, query)
                    assert outcome.ok, (kind, ak, n, outcome.diffs)
                    combos += 1
    # the encoder has no AND stage and no m-form synapse expression;
    # its n-form needs at least two inputs
    for num_inputs in range(2, 7):
        net = Network()
        handle = build_encoder(net, num_inputs)
        outcome = reconcile(handle, FormulaQuery("encoder", n=num_inputs))
        assert outcome.ok, (num_inputs, outcome.diffs)
        combos += 1
    for ak in KINDS:
        net = Network()
        css = build_css(net)
        handle = build_d_latch(net, ak, css)
        outcome = reconcile(handle, FormulaQuery("d_latch", ak))
        assert outcome.ok, (ak, outcome.diffs)
        combos += 1
        for n in range(1, 7):
            registers = 2 ** n - 1
            for c in range(1, 9):
                net = Network()
                css = build_css(net)
                handle = build_memory(net, registers, c, ak, css)
                for query in (FormulaQuery("memory", ak, "n", n=n, c=c),
                              FormulaQuery("memory", ak, "m",
                                           r=registers, c=c)):
                    outcome = reconcile(handle, query)
                    assert outcome.ok, (ak, n, c, outcome.diffs)
                    combos += 1
    # spot anchors
    fast_latch = formula_resources(FormulaQuery("d_latch", "fast"))
    assert (fast_latch.neurons, fast_latch.synapses) == (3, 7)
    dec = formula_resources(FormulaQuery("decoder", "classic", n=2))
    assert (dec.neurons, dec.synapses) == (12, 28)
    print(f"criterion 2 PASS: {combos} construction-vs-formula "
          f"reconciliations exact, anchors 3/7 and 12/28 hold")


def test_criterion_3_truth_table_sweeps():
    ran = []
    for ak in KINDS:
        for n in range(1, 5):
            for check in (
                sweep_decoder(n, ak),
                sweep_encoder(2 ** n, [1 << i for i in range(2 ** n)]),
                sweep_multiplexer(n, ak),
                sweep_demultiplexer(n, ak),
            ):
                assert check.ok, f"{check.label}: {check.detail}"
                ran.append(check.label)
    print(f"criterion 3 PASS: {len(ran)} exhaustive pipelined sweeps, "
          f"100% oracle agreement")


def test_criterion_4_d_latch_trace():
    result = run_experiment("d-latch", ExperimentConfig(and_kind="classic"))
    assert result.passed, render_checks(result.checks)
    first_bank = {5, 7, 8, 9, 10, 11}
    second_bank = {7, 8, 9, 10, 11}
    for k in range(3):
        assert set(result.signal_times[f"q{k}"]) == first_bank, k
    for k in range(3, 6):
        assert set(result.signal_times[f"q{k}"]) == second_bank, k
    # narrative waypoints: on at 5, off at 6, all on at 7, reset at 12
    for k in range(3):
        times = set(result.signal_times[f"q{k}"])
        assert 5 in times and 6 not in times
    for k in range(6):
        times = set(result.signal_times[f"q{k}"])
        assert 7 in times and 11 in times and 12 not in times
    print("criterion 4 PASS: store/data schedule sets latches 0-2 at "
          "t=5, off at 6, all on at 7, all reset at 12")


def test_criterion_5_memory_trace():
    result = run_experiment("memory", ExperimentConfig(
        and_kind="fast", registers=3, bits=3, duration_ms=30))
    assert result.passed, render_checks(result.checks)

    def cells(start, period_values):
        # register row: blank until start, then 4 ms per value, cycling
        row = [""] * 30
        for t in range(start, 30):
            row[t] = period_values[((t - start) // 4) % len(period_values)]
        return tuple(row)

    assert result.trace.row("Register 1").cells == cells(5, ["0x01", "0x05"])
    assert result.trace.row("Register 2").cells == cells(6, ["0x02", "0x06"])
    assert result.trace.row("Register 3").cells == cells(7, ["0x03", "0x07"])
    # address-0 timesteps never write: every fourth input ms leaves all
    # registers unchanged, which the cyclic rows above already encode
    print("criterion 5 PASS: ascending count lands 0x01/0x02/0x03 at "
          "t=5/6/7 and the 4 ms write cycle repeats to simulation end")


def test_criterion_6_sequential_oracle():
    started = time.monotonic()
    plan = [
        (7, 4, "fast", 150, 101),
        (7, 4, "classic", 150, 102),
        (5, 3, "fast", 100, 103),
        (3, 2, "classic", 100, 104),
    ]
    writes = 0
    for registers, bits, ak, count, seed in plan:
        check = fuzz_memory(registers, bits, ak, writes=count, seed=seed)
        assert check.ok, f"{check.label}: {check.detail}"
        writes += count
    elapsed = time.monotonic() - started
    assert writes == 500
    assert elapsed < 60.0, f"sequential sweep took {elapsed:.1f} s"
    print(f"criterion 6 PASS: 500 seeded random writes match the array "
          f"oracle in {elapsed:.2f} s")


def test_criterion_7_round_trips():
    for ak, delay in (("fast", 3), ("classic", 4)):
        result = run_experiment("decoder-encoder",
                                ExperimentConfig(and_kind=ak))
        assert result.passed, render_checks(result.checks)
        assert expected_latency("decoder", ak) + 1 == delay
        duration = result.duration_ms
        width = 2
        for b in range(width):
            want = {t + delay for t in result.signal_times[f"s{b}"]
                    if t >= 1 and t + delay < duration}
            got = {t for t in result.signal_times[f"or{b}"]
                   if t >= delay + 1}
            assert got == want, (ak, b)
    for ak, delay in (("fast", 5), ("classic", 7)):
        result = run_experiment("mux-demux", ExperimentConfig(and_kind=ak))
        assert result.passed, render_checks(result.checks)
        assert expected_latency("multiplexer", ak) + \
            expected_latency("demultiplexer", ak) == delay
        duration = result.duration_ms
        sel = [0] * duration
        for b in range(2):
            for t in result.signal_times[f"s{b}"]:
                sel[t] |= 1 << b
        for j in range(4):
            want = {t + delay for t in result.signal_times[f"d{j}"]
                    if sel[t] == j and t + delay < duration}
            got = {t for t in result.signal_times[f"ch{j}"]
                   if t >= delay + 1}
            assert got == want, (ak, j)
    print("criterion 7 PASS: decoder-encoder delays 3/4 ms and "
          "mux-demux delays 5/7 ms, exact spike-time equality")


def test_criterion_8_determinism():
    for name in ("decoder-encoder", "mux-demux", "d-latch", "memory"):
        first = run_experiment(name)
        second = run_experiment(name)
        assert first.record == second.record, name
        shuffled = shuffle_synapses(first.net, seed=5)
        assert shuffled.run(first.duration_ms) == first.record, name
    print("criterion 8 PASS: repeated runs and synapse permutations "
          "give bit-identical spike records on all four experiments")
