"""Experiments, stimulus files, exports, verification reports."""

from dataclasses import replace
from pathlib import Path

import pytest

from spikelogic import netlist
from spikelogic.harness import (
    BLOCKS,
    DEFAULT_SEED,
    EXPERIMENTS,
    ExperimentConfig,
    _control_chunks,
    check_pipelined,
    export_spikes,
    measure_latency,
    parse_stimulus,
    render_checks,
    run_experiment,
    shuffle_synapses,
    verify_block,
)
from spikelogic.resources import BLOCK_KINDS, expected_latency
from spikelogic.trace import render_trace

GOLDEN = Path(__file__).parent / "data"


class TestExperiments:
    @pytest.mark.parametrize("name", EXPERIMENTS)
    @pytest.mark.parametrize("ak", ["classic", "fast"])
    def test_all_pass(self, name, ak):
        result = run_experiment(name, ExperimentConfig(and_kind=ak))
        assert result.passed, render_checks(result.checks)

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            run_experiment("latch-rush")

    @pytest.mark.parametrize("name, config", [
        ("decoder-encoder", ExperimentConfig(n=0)),
        ("mux-demux", ExperimentConfig(n=0)),
        ("memory", ExperimentConfig(registers=0)),
        ("memory", ExperimentConfig(bits=0)),
    ] + [(name, ExperimentConfig(duration_ms=0)) for name in EXPERIMENTS])
    def test_zero_size_rejected(self, name, config):
        with pytest.raises(ValueError):
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

    def test_parse_stimulus(self):
        text = "signal,time_ms\nstore,3\nstore,1\nstore,3\ndata1,2\n"
        assert parse_stimulus(text) == {"store": (1, 3), "data1": (2,)}

    def test_parse_skips_blank_lines(self):
        assert parse_stimulus("a,1\n\na,2\n") == {"a": (1, 2)}

    def test_parse_rejects_bad_rows(self):
        with pytest.raises(ValueError):
            parse_stimulus("a,1,2\n")
        # a non-numeric time is only forgiven on line 1 (header)
        with pytest.raises(ValueError):
            parse_stimulus("a,1\nb,x\n")
        with pytest.raises(ValueError):
            parse_stimulus("a,-3\n")
        with pytest.raises(ValueError):
            parse_stimulus(",4\n")


class TestExports:
    def test_csv_ordering(self):
        text = export_spikes({"A": (2,), "B": (2, 3)})
        assert text.splitlines() == ["signal,time_ms", "A,2", "B,2", "B,3"]

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            export_spikes({}, format="xml")

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
    ])
    def test_zero_size_rejected(self, kind, size):
        with pytest.raises(ValueError):
            verify_block(kind, **size)

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


def test_measure_latency_full_table():
    for kind in ("decoder", "multiplexer", "demultiplexer", "d_latch",
                 "memory"):
        for ak in ("classic", "fast"):
            assert measure_latency(kind, ak) == expected_latency(kind, ak)
    assert measure_latency("encoder") == expected_latency("encoder")
