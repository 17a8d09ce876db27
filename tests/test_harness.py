"""Experiments, stimulus files, exports, verification reports."""

import csv
import io
import operator
import random
import re
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from spikelogic import harness, netlist
from spikelogic.harness import (
    BLOCKS,
    DEFAULT_SEED,
    EXPERIMENTS,
    ExperimentConfig,
    _control_chunks,
    build_block,
    check_pipelined,
    export_spikes,
    fuzz_d_latch,
    fuzz_memory,
    measure_latency,
    parse_stimulus,
    render_checks,
    run_experiment,
    spike_csv,
    sweep_decoder,
    sweep_demultiplexer,
    sweep_encoder,
    sweep_multiplexer,
    verify_block,
)
from spikelogic.oracles import memory_states
from spikelogic.resources import (
    _FORMS,
    BLOCK_KINDS,
    expected_latency,
    formula_resources,
    reconcile,
)
from spikelogic.sim import Network, spike_train
from spikelogic.trace import render_trace
from support import refuse_builds, shuffle_synapses, slow_one_synapse

GOLDEN = Path(__file__).parent / "data"


class TestExperiments:
    @pytest.mark.parametrize("name", EXPERIMENTS)
    @pytest.mark.parametrize("ak", ["classic", "fast"])
    def test_all_pass(self, name, ak):
        result = run_experiment(name, ExperimentConfig(and_kind=ak))
        assert result.passed, render_checks(result.checks)

    @pytest.mark.parametrize("duration", range(1, 20))
    @pytest.mark.parametrize("name", EXPERIMENTS)
    @pytest.mark.parametrize("ak", ["classic", "fast"])
    def test_short_runs_pass(self, name, ak, duration):
        # a check compares only the spikes inside the run: an expected
        # spike at or past its end is no missing spike
        result = run_experiment(name, ExperimentConfig(
            and_kind=ak, duration_ms=duration))
        assert result.passed, render_checks(result.checks)

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            run_experiment("latch-rush")

    @pytest.mark.parametrize("name, config", [
        ("decoder-encoder", ExperimentConfig(n=0)),
        ("mux-demux", ExperimentConfig(n=0)),
        ("memory", ExperimentConfig(registers=0)),
        ("memory", ExperimentConfig(bits=0)),
    ] + [(name, ExperimentConfig(duration_ms=0)) for name in EXPERIMENTS] + [
        ("d-latch", ExperimentConfig(duration_ms="16")),
        ("memory", ExperimentConfig(duration_ms=16.0)),
        ("decoder-encoder", ExperimentConfig(duration_ms=True)),
        # a seed that is not an int
        ("mux-demux", ExperimentConfig(seed="7")),
        ("mux-demux", ExperimentConfig(seed=7.0)),
        # a seed where only mux-demux reads one
        ("decoder-encoder", ExperimentConfig(seed=7)),
        ("d-latch", ExperimentConfig(seed=7)),
        ("memory", ExperimentConfig(seed=7)),
    ])
    def test_zero_size_rejected(self, name, config):
        with pytest.raises(ValueError):
            run_experiment(name, config)

    @pytest.mark.parametrize("name, config, flag", [
        ("d-latch", ExperimentConfig(n=5, registers=3), "n"),
        ("decoder-encoder", ExperimentConfig(registers=5), "registers"),
        ("mux-demux", ExperimentConfig(bits=2), "bits"),
        ("memory", ExperimentConfig(n=3), "n"),
    ])
    def test_size_the_experiment_does_not_read_rejected(self, name, config,
                                                        flag):
        # refused, naming the keyword, rather than run at the default size
        with pytest.raises(ValueError, match=f", not {flag}$"):
            run_experiment(name, config)

    def test_d_latch_trace_matches_golden(self):
        result = run_experiment("d-latch")
        golden = (GOLDEN / "d_latch_trace.txt").read_text(encoding="ascii")
        assert render_trace(result.trace) == golden

    def test_rendering_stable_across_runs(self):
        first = run_experiment("memory")
        second = run_experiment("memory")
        assert render_trace(first.trace) == render_trace(second.trace)
        assert first.record == second.record

    def test_control_chunks_documented_seed(self):
        words = _control_chunks(2, 110, DEFAULT_SEED)
        boundaries = [1, 10, 40, 60, 90]
        assert [words[b] for b in boundaries] == [0, 3, 2, 1, 3]
        # constant within each chunk
        for lo, hi in zip(boundaries, boundaries[1:] + [110]):
            assert len({words[t] for t in range(lo, hi)}) == 1

    def test_mux_demux_data_frequencies(self):
        result = run_experiment("mux-demux")
        d0 = result.signal_times["d0"]
        d1 = result.signal_times["d1"]
        assert len(d1) == (len(d0) + 1) // 2
        assert all(t % 2 == 1 for t in d1)

    def test_memory_channel_rows_agree(self):
        result = run_experiment("memory")
        expected = result.trace.row("Channel (Expected)")
        decoded = result.trace.row("Channel (Decoder)")
        assert expected.cells == decoded.cells
        assert "0*" in expected.cells

    def test_seed_changes_control_schedule(self):
        default = _control_chunks(2, 110, DEFAULT_SEED)
        other = _control_chunks(2, 110, DEFAULT_SEED + 1)
        assert default != other


class TestStimulus:
    def test_override_replaces_inputs(self):
        config = ExperimentConfig(duration_ms=12, stimulus={
            "store": [2], "data1": [2]})
        result = run_experiment("d-latch", config)
        assert result.passed
        assert result.signal_times["store"] == (2,)
        assert result.signal_times["data2"] == ()
        # latches 0-2 latch the 1 written at t=2, visible from t=6
        assert result.signal_times["q0"] == tuple(range(6, 12))

    def test_unknown_signal_rejected(self):
        config = ExperimentConfig(stimulus={"bogus": [1]})
        with pytest.raises(ValueError, match="bogus"):
            run_experiment("d-latch", config)

    def test_negative_time_rejected(self):
        config = ExperimentConfig(stimulus={"store": [-1]})
        with pytest.raises(ValueError):
            run_experiment("d-latch", config)

    @pytest.mark.parametrize("times", [[True], [2.0], ["12"], [3, -1]],
                             ids=["bool", "float", "str", "negative"])
    def test_bad_times_rejected(self, times):
        # rejected, naming the signal, rather than run as some other time
        config = ExperimentConfig(stimulus={"store": [1], "data1": times})
        with pytest.raises(ValueError, match="of signal data1"):
            run_experiment("d-latch", config)

    def test_times_past_the_run_are_not_exported(self):
        # store at 100 lies past the 16 ms run: the trace shows no spike
        # there, and neither does the CSV
        config = ExperimentConfig(stimulus={"store": [2, 100], "data1": [2]})
        result = run_experiment("d-latch", config)
        assert result.duration_ms == 16
        assert result.signal_times["store"] == (2,)
        assert "store,100" not in export_spikes(result.signal_times)

    def test_a_stimulus_draws_no_canonical_schedule(self, monkeypatch):
        # the canonical words are built only where no stimulus replaces them
        def refuse(*args):
            raise AssertionError("canonical words built under a stimulus")

        monkeypatch.setattr(harness, "_control_chunks", refuse)
        assert run_experiment("mux-demux", ExperimentConfig(
            stimulus={"s0": [1]})).signal_times["s0"] == (1,)

    @pytest.mark.parametrize("stimulated", [False, True],
                             ids=["canonical", "past-the-run"])
    @pytest.mark.parametrize("name", EXPERIMENTS)
    def test_signal_trains_are_those_of_signal_times(self, name, stimulated):
        config = ExperimentConfig()
        if stimulated:
            # every other input spikes at its canonical times and past the
            # run; the rest stay silent
            canonical = run_experiment(name)
            end = canonical.duration_ms
            config = ExperimentConfig(stimulus={
                port: (*canonical.signal_times[port], end - 1, end, 3 * end)
                for port in canonical.inputs[::2]})
        result = run_experiment(name, config)
        # the inputs are named in the order of their rows, which lead
        assert result.inputs == tuple(
            row.label for row in result.trace.rows[:len(result.inputs)])
        assert result.signal_trains == {
            signal: spike_train(times)
            for signal, times in result.signal_times.items()}
        if stimulated:  # an input's times are its stimulus's inside the run
            assert {port: result.signal_times[port] for port in result.inputs} == {
                port: tuple(sorted({t for t in config.stimulus.get(port, ())
                                    if t < end})) for port in result.inputs}

    def test_parse_stimulus(self):
        text = "signal,time_ms\nstore,3\nstore,1\nstore,3\ndata1,2\n"
        assert parse_stimulus(text) == {"store": (1, 3), "data1": (2,)}

    @pytest.mark.parametrize("text", ["s0,1.5\ns1,3\n", "s0,x1\n",
                                      "s0, 2ms\n", "s0,+-1\n"])
    def test_first_row_with_a_digit_is_not_a_header(self, text):
        # rejected as on any other line, not skipped
        with pytest.raises(ValueError, match="stimulus line 1: bad time"):
            parse_stimulus(text)

    def test_parse_skips_blank_lines(self):
        assert parse_stimulus("a,1\n\na,2\n") == {"a": (1, 2)}

    def test_parse_rejects_bad_rows(self):
        with pytest.raises(ValueError):
            parse_stimulus("a,1,2\n")
        # a time without a digit is only forgiven on line 1 (header)
        with pytest.raises(ValueError):
            parse_stimulus("a,1\nb,x\n")
        with pytest.raises(ValueError, match="negative time"):
            parse_stimulus("a,-3\n")
        with pytest.raises(ValueError):
            parse_stimulus(",4\n")
        # ASCII digits only, which int() alone reads more than
        for text in ("a,1_000\n", "a,+5\n", "a,1\nb,\u0661\n"):
            with pytest.raises(ValueError, match="bad time"):
                parse_stimulus(text)


class TestExports:
    def test_csv_ordering(self):
        text = export_spikes({"A": (2,), "B": (2, 3)})
        assert text.splitlines() == ["signal,time_ms", "A,2", "B,2", "B,3"]

    def test_csv_of_distant_times(self):
        # rows are cut at the distinct times only, not every ms up to 10^7
        text = export_spikes({"a": (3, 10 ** 7), "b": (5,)})
        assert text == "signal,time_ms\r\na,3\r\nb,5\r\na,10000000\r\n"

    @pytest.mark.parametrize("time", [-1, True, "1", 1.5, None])
    def test_bad_times_raise(self, time):
        with pytest.raises(ValueError, match="spike times"):
            export_spikes({"a": (2,), "b": (time,)})

    @given(st.dictionaries(
        st.text(' ,"\r\nab\u00e9', max_size=4),
        st.lists(st.integers(0, 30), max_size=8, unique=True).map(sorted),
        max_size=6))
    def test_csv_matches_sorted_rows(self, signal_times):
        # the export as it was: every (time, name) row sorted, then written
        # by the csv module, which also decides how each name is quoted
        out = io.StringIO()
        writer = csv.writer(out)
        writer.writerow(["signal", "time_ms"])
        for t, name in sorted((t, name) for name, times in signal_times.items()
                              for t in times):
            writer.writerow([name, t])
        assert export_spikes(signal_times) == out.getvalue()

    @given(st.integers(0, 12).flatmap(lambda duration: st.tuples(
        st.just(duration), st.dictionaries(
            st.text(' ,"\r\nab\u00e9', max_size=4),
            st.integers(0, 2 ** (duration + 2) - 1), max_size=6))))
    def test_csv_of_every_tick_matches_the_csv_module(self, case):
        # a tick per ms: silent ticks write no row, t=0 is a tick, a zero
        # train writes nothing, and spikes past the ticks are cut
        duration, trains = case
        out = io.StringIO()
        writer = csv.writer(out)
        writer.writerow(["signal", "time_ms"])
        for t in range(duration):
            for name in sorted(trains):
                if trains[name] >> t & 1:
                    writer.writerow([name, t])
        assert "".join(spike_csv(trains, range(duration))) == out.getvalue()

    def test_stimulus_csv_round_trip(self):
        times = {"store": (1, 3), "data1": (2,)}
        assert parse_stimulus(export_spikes(times)) == times

    def test_netlist_round_trip_preserves_simulation(self):
        result = run_experiment("d-latch")
        rebuilt, _ = netlist.loads(netlist.dumps(result.net))
        assert rebuilt.run(result.duration_ms) == result.record


class TestDeterminism:
    @pytest.mark.parametrize("name", EXPERIMENTS)
    def test_shuffled_synapses_identical(self, name):
        result = run_experiment(name)
        shuffled = shuffle_synapses(result.net, seed=99)
        assert shuffled.run(result.duration_ms) == result.record


class TestVerifyReports:
    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            verify_block("nand")

    def test_every_block_kind_has_a_spec(self):
        assert tuple(BLOCKS) == BLOCK_KINDS

    @pytest.mark.parametrize("kind, size", [
        ("decoder", {"n": 0}),
        ("encoder", {"n": 0}),
        ("multiplexer", {"n": 0}),
        ("demultiplexer", {"n": 0}),
        ("memory", {"registers": 0}),
        ("memory", {"bits": 0}),
        ("decoder", {"n": True}),
        ("encoder", {"n": 3.0}),
        ("memory", {"bits": 2.0}),
        ("memory", {"registers": True}),
        ("decoder", {"seed": 7.0}),
        ("d_latch", {"seed": "7"}),
        # up to 10 inputs the encoder sweeps every subset and draws none
        ("encoder", {"seed": 1}),
    ])
    def test_zero_size_rejected(self, kind, size):
        with pytest.raises(ValueError):
            verify_block(kind, **size)

    @pytest.mark.parametrize("sweep", [
        lambda: sweep_decoder(-1, "fast"),
        lambda: sweep_encoder(-1),
        lambda: sweep_multiplexer(-1, "fast"),
        lambda: sweep_demultiplexer(-1, "fast"),
        lambda: sweep_decoder(True, "fast"),
        lambda: sweep_encoder(4.0),
        lambda: sweep_multiplexer(2.0, "fast"),
        lambda: sweep_demultiplexer(True, "fast"),
        lambda: fuzz_memory(0, 3, "fast"),
        lambda: fuzz_memory(3, 2.0, "fast"),
        lambda: fuzz_memory(3, 3, "fast", writes=-3),
        lambda: fuzz_memory(3, 3, "fast", writes=0),
        lambda: fuzz_memory(3, 3, "fast", seed=None),
        lambda: fuzz_d_latch("fast", steps=1.5),
        lambda: fuzz_d_latch("fast", steps=True),
        lambda: fuzz_d_latch("fast", seed=None),
    ], ids=["decoder", "encoder", "multiplexer", "demultiplexer",
            "decoder-bool", "encoder-float", "multiplexer-float",
            "demultiplexer-bool", "memory-registers", "memory-float",
            "memory-negative-writes", "memory-no-writes", "memory-seed",
            "d_latch-float-steps", "d_latch-bool-steps", "d_latch-seed"])
    def test_sweeps_reject_bad_sizes(self, sweep):
        with pytest.raises(ValueError):
            sweep()

    @pytest.mark.parametrize("sweep, named", [
        (lambda: sweep_decoder(3, "fast", [0, 8]), "word 1 is 8"),
        (lambda: sweep_decoder(2, "fast", [1, True]), "word 1 is True"),
        (lambda: sweep_decoder(2, "fast", [-1]), "word 0 is -1"),
        (lambda: sweep_encoder(4, [2.5]), "word 0 is 2.5"),
        (lambda: sweep_encoder(4, [3, 16]), "word 1 is 16"),
        # select | data << n words: n = 2 select and 4 data ports for the
        # multiplexer, 2 select and 1 data port for the demultiplexer
        (lambda: sweep_multiplexer(2, "fast", [2 ** 6]), "word 0 is 64"),
        (lambda: sweep_multiplexer(2, "fast", [1 << 2, 1 | 16 << 2]),
         "word 1 is 65"),
        (lambda: sweep_demultiplexer(2, "fast", [2 ** 3]), "word 0 is 8"),
        (lambda: sweep_demultiplexer(2, "fast", [1 | 2 << 2]), "word 0 is 9"),
        (lambda: sweep_demultiplexer(2, "fast", [1.0]), "word 0 is 1.0"),
        # a (select, data) case is not a word
        (lambda: sweep_multiplexer(2, "fast", [(4, 1)]), "word 0 is (4, 1)"),
    ], ids=["decoder-over", "decoder-bool", "decoder-negative",
            "encoder-float", "encoder-over", "mux-select", "mux-mask",
            "demux-select", "demux-data", "demux-float", "mux-tuple"])
    def test_sweeps_reject_words_outside_the_ports(self, sweep, named):
        # a word must not wrap onto another or pass for one that does not
        # exist; the error names its index and value
        with pytest.raises(ValueError, match=re.escape(named)):
            sweep()

    def test_empty_and_kind_rejected(self):
        with pytest.raises(ValueError):
            verify_block("decoder", "")
        with pytest.raises(ValueError):
            run_experiment("d-latch", ExperimentConfig(and_kind=""))
        # the encoder has no AND stage, but an unknown AND kind is still
        # rejected rather than dropped
        for call in (harness.block_config, verify_block, measure_latency):
            with pytest.raises(ValueError, match="unknown AND kind 'bogus'"):
                call("encoder", "bogus")

    def test_decoder_report_contents(self):
        report = verify_block("decoder", "fast", n=2)
        assert report.passed
        labels = [check.label for check in report.checks]
        assert any("pipelined words" in label for label in labels)
        assert any("n-form" in label for label in labels)
        assert any("latency" in label for label in labels)

    def test_partial_memory_skips_formulas(self):
        report = verify_block("memory", "fast", registers=2, bits=2)
        assert report.passed
        assert any("skipped" in check.label for check in report.checks)

    def test_render_checks_lines(self):
        report = verify_block("d_latch", "fast")
        text = render_checks(report.checks)
        assert text.count("PASS") == len(report.checks)


def test_pipelined_check_reports_first_wrong_output(monkeypatch):
    # an oracle that expects channel j + 1 for word j
    shifted = replace(BLOCKS["decoder"], oracle=lambda words, n: [
        1 << (w + 1) % 2 ** n for w in words])
    monkeypatch.setitem(BLOCKS, "decoder", shifted)
    check = check_pipelined("decoder", "fast", (2,), [0, 1, 2, 3], "shifted")
    assert not check.ok
    assert check.detail == "signal ch0, unexpected at [3, 7, 8], missing at [6]"
    # more than five of each: the first five are listed
    check = check_pipelined("decoder", "fast", (2,), [0, 1, 2, 3] * 6, "shifted")
    assert check.detail == ("signal ch0, unexpected at [3, 7, 11, 15, 19], "
                            "missing at [6, 10, 14, 18, 22]")
    # channels 2 and 3 swapped: ch0 and ch1 match, ch2 is reported
    swapped = replace(BLOCKS["decoder"], oracle=lambda words, n: [
        1 << {2: 3, 3: 2}.get(w, w) for w in words])
    monkeypatch.setitem(BLOCKS, "decoder", swapped)
    check = check_pipelined("decoder", "classic", (2,), [0, 1, 2, 3, 3, 1, 2],
                            "swapped")
    assert check.detail == "signal ch2, unexpected at [6, 10], missing at [7, 8]"
    # a memory (classic, latency 6) whose oracle runs one word late
    memory = BLOCKS["memory"].oracle
    late = replace(BLOCKS["memory"], oracle=lambda words, r, c: [
        0, *memory(words, r, c)[:-1]])
    monkeypatch.setitem(BLOCKS, "memory", late)
    rng = random.Random(3)
    check = check_pipelined("memory", "classic", (3, 2),
                            [rng.randrange(2 ** 4) for _ in range(40)], "late")
    assert check.detail == ("signal q1_0, unexpected at [26, 33, 44, 46], "
                            "missing at [27, 39, 45]")


SPAN = harness._SPAN


@st.composite
def word_streams(draw):
    """(words, count, stop) for _word_trains of words[:stop]: stop
    around the multiples of its block span, and either sparse one-hot
    words (walked by their set bits) or dense words held between a few
    changes (walked by their changes), with changes drawn near the block
    edges too."""
    count = draw(st.integers(1, 4))
    stop = draw(st.sampled_from([1, 2, 100, SPAN - 1, SPAN, SPAN + 1,
                                 2 * SPAN + 1]))
    length = max(0, stop + draw(st.integers(-2, 2)))
    ticks = st.one_of(st.integers(0, length), st.sampled_from(
        [SPAN - 1, SPAN, SPAN + 1, 2 * SPAN - 1, 2 * SPAN, 2 * SPAN + 1]))
    words = [0] * length
    if draw(st.booleans()):
        for t in draw(st.lists(ticks, max_size=20)):
            if t < length:
                words[t] = 1 << draw(st.integers(0, count - 1))
    else:
        for t in sorted(draw(st.lists(ticks, max_size=8))):
            words[t:] = [draw(st.integers(0, 2 ** count - 1))] * (length - t)
    return words, count, stop


@settings(max_examples=60, deadline=None)
@given(word_streams())
def test_word_trains_match_each_bit(case):
    words, count, stop = case
    assert harness._word_trains(words[:stop], count) == [
        spike_train(t for t in range(1, min(stop, len(words)))
                    if words[t] >> k & 1)
        for k in range(count)]


# sizes as measure_latency takes them, the memory at full and at
# partial occupancy
LATENCY_SIZES = {
    "decoder": [{"n": n} for n in (1, 2, 3, 10)],
    "multiplexer": [{"n": n} for n in (1, 2, 3)],
    "demultiplexer": [{"n": n} for n in (1, 2, 3)],
    "d_latch": [{}],
    "memory": [{"registers": r, "bits": c}
               for r, c in ((1, 1), (3, 3), (5, 2), (7, 3))],
}


def test_measure_latency_full_table():
    for kind in ("decoder", "multiplexer", "demultiplexer", "d_latch",
                 "memory"):
        for ak in ("classic", "fast"):
            assert measure_latency(kind, ak) == expected_latency(kind, ak)
            for size in LATENCY_SIZES[kind]:
                assert measure_latency(kind, ak, **size) == \
                    expected_latency(kind, ak), (kind, ak, size)
    assert measure_latency("encoder") == expected_latency("encoder")
    for m in (2, 4, 9):
        assert measure_latency("encoder", n=m) == expected_latency("encoder")


def test_measure_latency_runs_nothing(monkeypatch):
    # the latency comes from the built block's synapses, not a run
    def no_run(*args):
        raise AssertionError("a network ran")

    monkeypatch.setattr(Network, "run", no_run)
    for kind in BLOCK_KINDS:
        ak, _ = harness.block_config(kind)  # None without an AND stage
        assert measure_latency(kind, ak) == expected_latency(kind, ak)


def _every_path(net: Network, starts, bound: int) -> list[int]:
    """Per entity id, the delays below bound of every path from starts,
    cycles included, less self-synapses: enumerated synapse by synapse
    from each start, in no id order."""
    arrive = [0] * (len(net.neurons) + len(net.sources))

    def extend(eid, delay):
        arrive[eid] |= 1 << delay
        for synapse in net.synapses:
            reach = delay + synapse.delay_ms
            if synapse.source == eid != synapse.target and reach < bound:
                extend(synapse.target, reach)

    for eid, bits in starts:
        for delay in range(bits.bit_length()):
            if bits >> delay & 1 and delay < bound:
                extend(eid, delay)
    return arrive


def test_the_walk_of_ids_against_the_data_flow():
    # a chain from id 5 down to id 0, fed at id 5, and a reader past it:
    # every synapse of the chain reads a larger id than its target
    net = Network()
    chain = [net.add_neuron() for _ in range(6)]
    for a, b in zip(chain[:0:-1], chain[-2::-1]):
        net.connect(a, b, 1, 1)
    reader = net.add_neuron()
    net.connect(chain[0], reader, 1, 2)
    net.connect(chain[3], reader, -1, 1)
    starts = [(chain[-1], 1 << 1)]
    arrive = harness._path_delays(net, starts)
    assert arrive[:6] == [64, 32, 16, 8, 4, 2]
    assert arrive == _every_path(net, starts, 64)


def test_the_walk_of_a_ring_an_input_reaches():
    # ids 2 -> 1 -> 0 -> 2 (1, 2 and 1 ms) fed at id 2, id 2 also feeding
    # the reader: the ring's paths go on for ever, so the walk is cut,
    # but below its span's size times the longest delay it holds every path
    net = Network()
    ring = [net.add_neuron() for _ in range(3)]
    net.connect(ring[2], ring[1], 1, 1)
    net.connect(ring[1], ring[0], -1, 2)
    net.connect(ring[0], ring[2], 1, 1)
    reader = net.add_neuron()
    net.connect(ring[2], reader, 1, 3)
    feed = net.add_source([1])
    net.connect(feed, ring[2], 1, 1)
    starts = [(feed, 1)]
    bound = len(ring) * 3
    arrive = harness._path_delays(net, starts)
    assert [bits & ~(-1 << bound) for bits in arrive] == _every_path(
        net, starts, bound)
    # the ring's 4 ms cycle: ids 2, 1 and 0 at 1, 2 and 4 ms, then again
    assert [arrive[eid] & 0x3f for eid in ring] == [0b10000, 0b100, 0b100010]


@pytest.mark.parametrize("builder, category, ak, named", [
    # inverter s0's synapse to gate 0 of the select stage
    ("build_decoder", "NOT to AND (fast)", "fast",
     "decoder output ch0 has path delays [2, 3] ms"),
    ("build_decoder", "NOT to AND (classic)", "classic",
     "decoder output ch0 has path delays [3, 4] ms"),
    # the set path of the first latch, q1_0
    ("build_memory", "AND to SR Latch (set)", "fast",
     "memory output q1_0 has path delays [4, 5] ms"),
    ("build_memory", "AND to SR Latch (set)", "classic",
     "memory output q1_0 has path delays [6, 7] ms"),
], ids=["decoder-fast", "decoder-classic", "memory-fast", "memory-classic"])
def test_measure_latency_names_a_slowed_path(builder, category, ak, named,
                                             monkeypatch):
    # one internal synapse 1 ms slow: the output it reaches has two
    # path delays, the table's and one more
    slow_one_synapse(monkeypatch, builder, category)
    with pytest.raises(ValueError, match=re.escape(named)):
        measure_latency(builder.removeprefix("build_"), ak)
    report = verify_block(builder.removeprefix("build_"), ak)
    assert report.checks[-1] == harness.Check(
        "latency equals table value", False,
        f"{named}, not the one delay of every output")


# every experiment at the sizes its check delays are proven for: the
# select kinds at n = 1 to 3, the d-latch bank, and a memory of each depth
EXPERIMENT_SIZES = [("decoder-encoder", {"n": n}) for n in (1, 2, 3)] + [
    ("mux-demux", {"n": n}) for n in (1, 2, 3)] + [("d-latch", {})] + [
    ("memory", {"registers": r, "bits": c}) for r, c in ((3, 3), (5, 2), (7, 1))]


def _unproven_check_delays(name: str, config: ExperimentConfig,
                           monkeypatch) -> list[str]:
    """Every output of a check of the run whose path delays are not the
    check's one delay, named with its check, its group and its delays.
    Delays come from harness._path_delays, the walk measure_latency
    makes over a block, from every source but the CSS bootstraps
    (schedule (0,)); the network is walked as built, not run."""
    checks = []  # each check's label, output group and delay
    expect = harness._expect_delayed

    def spy(record, outputs, words, latency, label, *rest):
        checks.append((label, dict(outputs), latency))
        return expect(record, outputs, words, latency, label, *rest)

    monkeypatch.setattr(harness, "_expect_delayed", spy)
    result = run_experiment(name, config)
    assert len(checks) == len(result.checks)
    net = result.net
    # bit d of arrive[eid]: a path from an input source reaches eid in d ms
    arrive = harness._path_delays(net, [(sid, int(times != (0,)))
                                        for sid, times in net.sources.items()])
    unproven = []
    for label, group, latency in checks:
        for signal, eid in group.items():
            if arrive[eid] != 1 << latency:
                found = [d for d in range(arrive[eid].bit_length())
                         if arrive[eid] >> d & 1]
                unproven.append(f"check {label!r} (outputs {', '.join(group)}): "
                                f"{signal} has path delays {found} ms, not "
                                f"[{latency}]")
    return unproven


@pytest.mark.parametrize("ak", ["classic", "fast"])
@pytest.mark.parametrize("name, sizes", EXPERIMENT_SIZES, ids=[
    "-".join([name, *map(str, sizes.values())]) for name, sizes in EXPERIMENT_SIZES])
def test_every_check_delay_is_the_one_path_delay(name, sizes, ak, monkeypatch):
    # each check compares its outputs with the oracle one delay on; every
    # path from an input to those outputs must take that delay
    config = ExperimentConfig(and_kind=ak, **sizes)
    assert _unproven_check_delays(name, config, monkeypatch) == []


@pytest.mark.parametrize("name, builder, named", [
    # inverter s0's synapse to gate 0 of the demultiplexer's select stage,
    # which the canonical stimulus does not show
    ("mux-demux", "build_demultiplexer", "ch0 has path delays [5, 6] ms"),
    # the same in the decoder, which shows only as a missed channel-0 spike
    ("decoder-encoder", "build_decoder", "ch0 has path delays [2, 3] ms"),
], ids=["mux-demux", "decoder-encoder"])
def test_the_walk_names_a_slowed_check_path(name, builder, named, monkeypatch):
    slow_one_synapse(monkeypatch, builder, "NOT to AND (fast)")
    [unproven] = _unproven_check_delays(name, ExperimentConfig(), monkeypatch)
    assert named in unproven


def test_pipelined_check_reads_an_iterator_once(monkeypatch):
    # the oracle of a decoder that is given no word: channel 0 every ms.
    # Words 1, 2 and 3 must show on ch1 to ch3 whether they come as a
    # list or as an iterator, which the check must not use up first
    idle = replace(BLOCKS["decoder"], oracle=lambda words, n: [1] * len(words))
    monkeypatch.setitem(BLOCKS, "decoder", idle)
    checks = [check_pipelined("decoder", "fast", (2,), words, "idle")
              for words in ([1, 2, 3, 0], iter([1, 2, 3, 0]))]
    assert checks[0] == checks[1]
    assert checks[0].detail == "signal ch0, missing at [3, 4, 5]"


@pytest.mark.parametrize("call, count", [
    # the fast decoder's n-form: 2^30 (30 + 2) + 3 * 30 + 2
    (lambda: verify_block("decoder", n=30), "34,359,738,460"),
    (lambda: sweep_decoder(30, "fast"), "34,359,738,460"),
    # the fast memory's m-form: 11 r c + 2 r + 3 c + (r + 4) 16 + 4
    (lambda: run_experiment("memory", ExperimentConfig(
        registers=2 ** 16 - 1, bits=64)), "47,316,530"),
    # too long to print: 2^15000 * 15002 + 45002 has 15014 bits
    (lambda: verify_block("decoder", n=15000), "at least 2\\^15013"),
    # not evaluated: a size entry alone is over the cap
    (lambda: verify_block("decoder", n=10 ** 10), "at least 10,000,000,000"),
    (lambda: verify_block("encoder", n=10 ** 10), "at least 10,000,000,000"),
    (lambda: fuzz_memory(2 ** 16 - 1, 64, "fast"), "47,316,530"),
    # 2^15 registers take a decoder of 16 lines, all of whose 2^16
    # channels are built: priced as the full classic memory of n=16,
    # 2^16 (2 * 16 + 13 * 2 + 1) + 3 * 16 - 10 * 2 + 2
    (lambda: verify_block("memory", "classic", registers=2 ** 15, bits=2),
     "3,866,654"),
    (lambda: check_pipelined("decoder", "fast", (30,), [0], "x"),
     "34,359,738,460"),
], ids=["verify_block", "sweep_decoder", "run_experiment", "unprintable",
        "select-n", "encoder-n", "fuzz_memory", "partial-memory",
        "check_pipelined"])
def test_oversized_block_raises_before_it_is_built(call, count, monkeypatch):
    def no_build(*args, **kwargs):
        raise AssertionError("a builder ran")

    for builder in ("build_css", "build_decoder", "build_encoder",
                    "build_memory"):
        monkeypatch.setattr(harness, builder, no_build)
    with pytest.raises(ValueError,
                       match=f"needs {count} synapses by its closed form"):
        call()


def test_bad_word_raises_before_the_block_is_built(monkeypatch):
    refuse_builds(monkeypatch)
    with pytest.raises(ValueError, match=re.escape(
            "word 0 is -1, not an int in [0, 2^14)")):
        check_pipelined("decoder", "fast", (14,), [-1], "x")
    with pytest.raises(ValueError, match=re.escape(
            "word 1 is 64, not an int in [0, 2^6)")):
        check_pipelined("memory", "classic", (7, 3), [0, 64], "x")


@pytest.mark.parametrize("call, message", [
    (lambda: check_pipelined("nand", "fast", (2,), [0], "x"),
     "unknown block kind 'nand'"),
    (lambda: harness.block_query("nand", "fast", (2,)),
     "unknown block kind 'nand'"),
    (lambda: check_pipelined("decoder", "fast", (2, 3), [0], "x"),
     "decoder takes a size (n), not (2, 3)"),
    (lambda: harness.block_query("decoder", "fast", (2, 5)),
     "decoder takes a size (n), not (2, 5)"),
    (lambda: build_block(Network(), "memory", "fast", (3,)),
     "memory takes a size (registers, bits), not (3,)"),
    (lambda: build_block(Network(), "d_latch", "fast", (1,)),
     "d_latch takes a size (), not (1,)"),
], ids=["check-kind", "query-kind", "check-length", "query-length",
        "build-short", "build-long"])
def test_unknown_kind_or_size_length_raises(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


def test_verify_draws_encoder_cases_from_the_seed(monkeypatch):
    # past 10 inputs the encoder sweeps seeded subsets; its label prints
    # no case, so only the words handed to check_pipelined show the seed
    handed = []

    def recorded(kind, and_kind, size, words, label, ok_detail=""):
        handed.append(list(words))
        return harness.Check(label, True)

    monkeypatch.setattr(harness, "check_pipelined", recorded)
    for seed in (1, 2, None, DEFAULT_SEED):
        verify_block("encoder", n=11, seed=seed)
    assert len(handed) == 4
    assert handed[0] != handed[1]
    assert handed[2] == handed[3]


def test_encoder_sweep_is_labelled_by_its_inputs():
    # the encoder has no AND stage: its label names its inputs, not one
    check = sweep_encoder(n=4, words=[1, 2, 4, 8])
    assert check == harness.Check(
        "encoder 4 inputs: 4 pipelined subsets", True, "4 subsets")


@pytest.mark.parametrize("kind", ["decoder", "encoder", "multiplexer",
                                  "demultiplexer"])
def test_verify_draws_words_over_every_input_port(kind):
    # uniform over the block's input ports, select and data alike
    size = (12,) if kind == "encoder" else tuple(BLOCKS[kind].default.values())
    ports = _FORMS[kind].ports(*size)[0]
    words = harness._drawn(kind, harness._random(DEFAULT_SEED), *size)
    assert len(words) == harness.VERIFY_TRIALS == 64
    assert all(type(word) is int and 0 <= word < 2 ** ports for word in words)
    assert any(word >> ports - 1 for word in words)


@settings(max_examples=200, deadline=None)
@given(registers=st.integers(1, 40), bits=st.integers(1, 9), data=st.data())
def test_memory_oracle_matches_the_per_ms_packing(registers, bits, data):
    # full and partial occupancy, so addresses past the last register too,
    # and the no-op address 0
    depth = registers.bit_length()
    words = data.draw(st.lists(st.integers(0, 2 ** (depth + bits) - 1),
                               max_size=60), label="words")
    assert BLOCKS["memory"].oracle(words, registers, bits) == [
        sum(map(operator.lshift, state, range(0, registers * bits, bits)))
        for state in memory_states([w & 2 ** depth - 1 for w in words],
                                   [w >> depth for w in words], registers, bits)]


def test_synapse_cap_admits_its_own_count(monkeypatch):
    # a fast decoder counts 2^n (n + 2) + 3n + 2 synapses: 24 at n=2,
    # 51 at n=3
    monkeypatch.setattr(harness, "MAX_SYNAPSES", 24)
    assert harness.block_config("decoder", n=2) == ("fast", (2,))
    with pytest.raises(ValueError, match="needs 51 synapses"):
        harness.block_config("decoder", n=3)


@pytest.mark.parametrize("name, cfg, cap, count", [
    # the classic mux of n=15 counts 1,114,159 synapses, its demux 1,081,391
    ("mux-demux", ExperimentConfig("classic", n=15), None, "2,195,550"),
    ("mux-demux", ExperimentConfig("fast", n=16, duration_ms=60), None,
     "2,556,004"),
    # the fast decoder of n=3 counts 51 synapses, its 8-input encoder 12;
    # at today's cap no decoder that fits leaves its encoder over it
    ("decoder-encoder", ExperimentConfig("fast", n=3), 60, "63"),
], ids=["mux-demux-classic", "mux-demux-fast", "decoder-encoder"])
def test_experiment_prices_every_block_before_building(name, cfg, cap, count,
                                                       monkeypatch):
    ran = []
    for builder in ("build_block", "build_css", "build_decoder",
                    "build_encoder", "build_multiplexer",
                    "build_demultiplexer", "build_memory", "build_d_latch"):
        monkeypatch.setattr(harness, builder,
                            lambda *args, _name=builder: ran.append(_name))
    if cap is not None:
        monkeypatch.setattr(harness, "MAX_SYNAPSES", cap)
    with pytest.raises(ValueError, match=f"^{name} n={cfg.n} needs {count} "
                       "synapses by its closed forms, more than the "):
        run_experiment(name, cfg)
    assert ran == []


@pytest.mark.parametrize("kind, sizes, flag", [
    ("d_latch", {"registers": 9, "bits": 2}, "registers"),
    ("decoder", {"bits": 2}, "bits"),
    ("encoder", {"registers": 3}, "registers"),
    ("memory", {"n": 3}, "n"),
])
def test_block_config_rejects_a_size_the_kind_does_not_read(kind, sizes, flag):
    # refused, naming the keyword, rather than dropped for the default
    with pytest.raises(ValueError, match=f", not {flag}$"):
        harness.block_config(kind, **sizes)


@pytest.mark.parametrize("call", [harness.block_config, measure_latency,
                                  verify_block],
                         ids=["block_config", "measure_latency", "verify_block"])
def test_an_unknown_size_keyword_is_refused_naming_it(call):
    # a keyword that no kind reads is refused as a size this kind does
    # not read: a ValueError naming it, not a TypeError
    with pytest.raises(ValueError, match="^decoder takes n, not width$"):
        call("decoder", width=3)


def _assert_priced(kind: str, ak: str, size: tuple) -> None:
    """block_query's price is the built block's, except for a partially
    filled memory: priced as the full memory of its depth, it builds
    fewer latches than that. The port counts the kind prices a run's
    trace by are the built block's."""
    ak, _ = harness.block_config(kind, ak)  # None without an AND stage
    query = harness.block_query(kind, ak, size)
    built = build_block(Network(), kind, ak, size)
    assert _FORMS[kind].ports(*size) == (len(built.inputs),
                                         len(built.outputs))
    if kind == "memory" and size[0] != 2 ** size[0].bit_length() - 1:
        assert (query.form, query.n, query.c) == (
            "n", size[0].bit_length(), size[1])
        assert formula_resources(query).synapses > built.resources.synapses
    else:
        assert reconcile(built, query).ok


# sizes as harness.build_block takes them; the memory at full and at
# partial occupancy
SIZED = [(kind, size) for kind in BLOCK_KINDS
         for size in {"decoder": [(1,), (3,)], "encoder": [(2,), (5,)],
                      "multiplexer": [(1,), (3,)],
                      "demultiplexer": [(1,), (3,)], "d_latch": [()],
                      "memory": [(3, 2), (7, 3), (5, 2)]}[kind]]


@pytest.mark.parametrize("ak", ["classic", "fast"])
@pytest.mark.parametrize("kind, size", SIZED,
                         ids=[f"{kind}-{size}" for kind, size in SIZED])
def test_block_query_prices_the_built_block(kind, size, ak):
    _assert_priced(kind, ak, size)


# the same, at sizes drawn small enough to build many
PRICED_SIZES = {
    "decoder": st.tuples(st.integers(1, 5)),
    "encoder": st.tuples(st.integers(2, 40)),
    "multiplexer": st.tuples(st.integers(1, 4)),
    "demultiplexer": st.tuples(st.integers(1, 5)),
    "d_latch": st.just(()),
    "memory": st.tuples(st.integers(1, 20), st.integers(1, 4)),
}


@pytest.mark.parametrize("ak", ["classic", "fast"])
@pytest.mark.parametrize("kind", BLOCK_KINDS)
@settings(max_examples=30)
@given(data=st.data())
def test_block_price_is_at_least_the_build(kind, ak, data):
    _assert_priced(kind, ak, data.draw(PRICED_SIZES[kind], label="size"))


@pytest.mark.parametrize("ak", ["classic", "fast"])
@pytest.mark.parametrize("name", EXPERIMENTS)
def test_trace_is_priced_before_anything_is_built(name, ak, monkeypatch):
    # the signals priced from the sizes are those of the built handles:
    # the input ports driven and the output ports recorded
    config = ExperimentConfig(and_kind=ak, **{
        "decoder-encoder": {"n": 3}, "mux-demux": {"n": 3}, "d-latch": {},
        "memory": {"registers": 5, "bits": 2}}[name])
    result = run_experiment(name, config)
    cells = result.duration_ms * (len(result.inputs) + len(result.outputs))
    monkeypatch.setattr(harness, "MAX_TRACE_CELLS", cells - 1)
    refuse_builds(monkeypatch)
    with pytest.raises(ValueError, match=f"holds {cells:,} trace cells"):
        run_experiment(name, config)


@pytest.mark.parametrize("name", EXPERIMENTS)
def test_trace_cap_counts_every_signal(name, monkeypatch):
    # the cap is checked on duration x (inputs + recorded outputs), the
    # signals the run exports
    result = run_experiment(name)
    cells = result.duration_ms * len(result.signal_times)
    monkeypatch.setattr(harness, "MAX_TRACE_CELLS", cells)
    assert run_experiment(name).passed
    monkeypatch.setattr(harness, "MAX_TRACE_CELLS", cells - 1)
    with pytest.raises(ValueError, match=f"holds {cells:,} trace cells"):
        run_experiment(name)
