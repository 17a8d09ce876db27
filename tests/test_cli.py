"""Command-line interface: subcommands and exit codes."""

import contextlib
import hashlib
import json
import os
import random
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

from spikelogic import cli, netlist
from spikelogic.harness import Check, VerifyReport
from spikelogic.resources import BLOCK_KINDS
from support import refuse_builds


def run_cli(*argv):
    return cli.main(list(argv))


def test_no_arguments_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        run_cli()
    assert exc.value.code == 2


def test_unknown_experiment_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        run_cli("run", "latch-rush")
    assert exc.value.code == 2


def test_run_d_latch_table(capsys):
    assert run_cli("run", "d-latch") == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "t (ms)" in out
    assert "q5" in out


def test_run_raster(capsys):
    assert run_cli("run", "decoder-encoder", "--format", "raster") == 0
    out = capsys.readouterr().out
    assert "|" in out


def test_raster_lists_a_blank_register_as_a_value_row(capsys):
    # a register that holds 0 has only "" cells, which a raster must not
    # draw as a quiet spike row
    assert run_cli("run", "memory", "--registers", "7", "--bits", "1",
                   "--format", "raster") == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(maxsplit=2)[2] for line in lines
            if line.startswith(("Register 1 ", "Register 2 "))] == \
        ["t=5: 0x01", "(blank throughout)"]


def test_run_csv(capsys):
    assert run_cli("run", "decoder-encoder", "--format", "csv") == 0
    out = capsys.readouterr().out
    assert "signal,time_ms" in out


def test_verify_exit_zero(capsys):
    assert run_cli("verify", "decoder", "--n", "1", "--and", "classic") == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


def test_verify_failure_exits_one(monkeypatch, capsys):
    def broken(kind, and_kind=None, **kw):
        return VerifyReport(kind, and_kind, {},
                            (Check("synthetic breakage", False, "boom"),))
    monkeypatch.setattr(cli, "verify_block", broken)
    assert run_cli("verify", "decoder") == 1
    assert "FAIL" in capsys.readouterr().out


def test_resources_prints_anchor(capsys):
    assert run_cli("resources", "decoder", "--and", "classic",
                   "--n", "2") == 0
    out = capsys.readouterr().out
    assert "12 neurons, 28 synapses" in out
    assert "n-form" in out and "OK" in out


def test_resources_partial_memory_notes_skip(capsys):
    assert run_cli("resources", "memory", "--registers", "2",
                   "--bits", "2") == 0
    out = capsys.readouterr().out
    assert "full occupancy" in out


def test_export_writes_files(tmp_path):
    out_dir = tmp_path / "exp"
    assert run_cli("export", "d-latch", "--out", str(out_dir)) == 0
    assert (out_dir / "trace.txt").exists()
    csv_text = (out_dir / "spikes.csv").read_text(encoding="ascii")
    assert csv_text.startswith("signal,time_ms")
    net, annotations = netlist.load(out_dir / "netlist.json")
    assert annotations["experiment"] == "d-latch"
    assert net.run(4).duration_ms == 4


def _counted(monkeypatch, name):
    """The calls of cli's global `name` from now on."""
    calls = []
    original = getattr(cli, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, name, counted)
    return calls


def test_run_csv_with_out_writes_the_printed_csv(tmp_path, monkeypatch, capsys):
    calls = _counted(monkeypatch, "spike_csv")
    out_dir = tmp_path / "exp"
    assert run_cli("run", "d-latch", "--format", "csv", "--out", str(out_dir)) == 0
    out = capsys.readouterr().out
    assert len(calls) == 1
    assert (out_dir / "spikes.csv").read_bytes() == \
        out[out.index("signal,time_ms"):].encode("ascii")


def test_run_table_with_out_writes_the_printed_table(tmp_path, monkeypatch,
                                                     capsys):
    calls = _counted(monkeypatch, "render_table")
    out_dir = tmp_path / "exp"
    assert run_cli("run", "memory", "--format", "table", "--out", str(out_dir)) == 0
    out = capsys.readouterr().out
    assert len(calls) == 1
    assert (out_dir / "trace.txt").read_bytes() == \
        out[out.index("t (ms)"):].encode("ascii")


@pytest.mark.parametrize("command", ["run", "export"])
def test_out_naming_a_file_is_unwritable_output(command, tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("not a directory\n", encoding="ascii")
    assert run_cli(command, "d-latch", "--out", str(taken)) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1
    assert errors[0].startswith("error: cannot write outputs:")


def test_run_with_stimulus(tmp_path, capsys):
    stim = tmp_path / "stim.csv"
    stim.write_text("signal,time_ms\nstore,2\ndata1,2\n", encoding="ascii")
    assert run_cli("run", "d-latch", "--stimulus", str(stim),
                   "--duration-ms", "12") == 0
    assert "PASS" in capsys.readouterr().out


def test_bad_stimulus_signal_is_config_error(tmp_path, capsys):
    stim = tmp_path / "stim.csv"
    stim.write_text("nosuch,2\n", encoding="ascii")
    assert run_cli("run", "d-latch", "--stimulus", str(stim)) == 2
    assert "nosuch" in capsys.readouterr().err


def test_missing_stimulus_file_is_config_error(tmp_path, capsys):
    assert run_cli("run", "d-latch", "--stimulus",
                   str(tmp_path / "absent.csv")) == 2
    assert "stimulus" in capsys.readouterr().err


def test_netlist_annotations_survive_export(tmp_path):
    out_dir = tmp_path / "exp"
    assert run_cli("export", "memory", "--and", "classic",
                   "--out", str(out_dir)) == 0
    payload = json.loads((out_dir / "netlist.json").read_text("ascii"))
    assert payload["annotations"]["and_kind"] == "classic"
    assert payload["annotations"]["params"] == {"registers": 3, "bits": 3}


PINNED = Path(__file__).parent / "data" / "cli"
PINNED_COMMANDS = [
    (f"{command}-{kind}-{ak}", [command, kind, "--and", ak])
    for command in ("verify", "resources") for kind in BLOCK_KINDS
    for ak in ("classic", "fast")
] + [("resources-memory-r5-c2",
      ["resources", "memory", "--registers", "5", "--bits", "2"])]


@pytest.mark.parametrize("name, argv", PINNED_COMMANDS,
                         ids=[name for name, _ in PINNED_COMMANDS])
def test_printed_verdicts_match_pinned_output(name, argv, capsys):
    assert run_cli(*argv) == 0
    pinned = (PINNED / f"{name}.txt").read_text(encoding="ascii")
    assert capsys.readouterr().out == pinned


# stands for the path of a file holding the experiment's STIMULI entry
STIMULUS = "STIMULUS"
STIMULI = {
    "decoder-encoder": "signal,time_ms\ns0,2\ns1,3\ns1,5\ns0,9\ns1,9\n",
    "mux-demux": "s0,3\nd0,3\nd1,4\nd1,5\ns1,6\nd2,6\nd3,9\ns0,9\ns1,9\n",
    "d-latch": "store,2\ndata1,2\ndata2,5\nstore,6\ndata1,9\nstore,11\n",
    "memory": "s0,2\nd0,2\ns1,4\nd1,4\nd2,4\ns0,7\ns1,7\nd2,7\n",
}
# the size flags each experiment reads; any other is refused
SIZE_FLAGS = {
    "decoder-encoder": ["--n", "3"],
    "mux-demux": ["--n", "3"],
    "d-latch": [],
    "memory": ["--registers", "5", "--bits", "2"],
}
EXPERIMENT_PINS = dict(
    line.split() for line in (PINNED.parent / "experiment-sha256.txt")
    .read_text(encoding="ascii").splitlines())
EXPERIMENT_COMMANDS = [
    (f"{name}-{ak}-{fmt}", ["run", name, "--and", ak, "--format", fmt])
    for name in STIMULI for ak in ("classic", "fast")
    for fmt in ("table", "raster", "csv")
] + [
    (f"{name}-sized", ["run", name, *flags, "--duration-ms", "77"]
     + (["--seed", "3"] if name == "mux-demux" else []))
    for name, flags in SIZE_FLAGS.items()
] + [(f"{name}-stimulus", ["run", name, "--stimulus", STIMULUS])
     for name in STIMULI]


@pytest.mark.parametrize("name, argv", EXPERIMENT_COMMANDS,
                         ids=[name for name, _ in EXPERIMENT_COMMANDS])
def test_experiment_output_matches_pinned_digest(name, argv, capsys, tmp_path):
    stimulus = tmp_path / "stimulus.csv"
    stimulus.write_text(STIMULI[argv[1]], encoding="ascii")
    argv = [str(stimulus) if arg == STIMULUS else arg for arg in argv]
    assert run_cli(*argv) == 0
    out = capsys.readouterr().out.encode("ascii")
    assert hashlib.sha256(out).hexdigest() == EXPERIMENT_PINS[name]


# stands for the path of a stimulus file with a non-ASCII signal name
NON_ASCII_STIMULUS = "NON_ASCII_STIMULUS"


@pytest.mark.parametrize("argv", [
    ["verify", "decoder", "--n", "0"],
    ["resources", "decoder", "--n", "0"],
    ["verify", "memory", "--registers", "0"],
    ["verify", "memory", "--bits", "0"],
    ["run", "decoder-encoder", "--n", "0"],
    ["run", "decoder-encoder", "--duration-ms", "0"],
    ["verify", "encoder", "--n", "1"],
    ["resources", "encoder", "--n", "1"],
    ["resources", "decoder", "--n", "-1"],
    ["verify", "memory", "--registers", "-1"],
    ["verify", "decoder", "--n", "-1"],
    ["verify", "decoder", "--n", "30"],
    ["verify", "decoder", "--n", "15000"],
    # the mux alone is under the cap, the mux and the demux are over it
    ["run", "mux-demux", "--n", "15", "--and", "classic"],
    ["run", "mux-demux", "--n", "16", "--and", "fast", "--duration-ms", "60"],
    ["verify", "decoder", "--n", "10000000000"],
    ["resources", "encoder", "--n", "10000000000"],
    ["verify", "memory", "--registers", "10000000000"],
    ["run", "memory", "--stimulus", NON_ASCII_STIMULUS],
    ["run", "memory", "--duration-ms", "100000000"],
    # a size flag the block or the experiment does not read
    ["verify", "d_latch", "--registers", "9", "--bits", "2"],
    ["resources", "decoder", "--bits", "2"],
    ["verify", "memory", "--n", "3"],
    ["run", "d-latch", "--n", "5", "--registers", "3"],
    ["run", "decoder-encoder", "--registers", "5"],
    ["run", "mux-demux", "--bits", "2"],
    # a seed the experiment does not read
    ["run", "decoder-encoder", "--seed", "1"],
    ["run", "d-latch", "--seed", "1"],
    ["run", "memory", "--seed", "1"],
    # a seed the verify recipe does not read: the encoder up to 10 inputs
    ["verify", "encoder", "--seed", "1"],
], ids=" ".join)
def test_bad_size_is_usage_error(argv, capsys, tmp_path):
    stimulus = tmp_path / "bad.csv"
    stimulus.write_bytes("s0,1\ns\u00e9,3\n".encode("utf-8"))
    argv = [str(stimulus) if arg == NON_ASCII_STIMULUS else arg
            for arg in argv]
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len([line for line in err.splitlines()
                if line.startswith("error:")]) == 1



@pytest.mark.parametrize("argv", [
    # with stdout buffered, 20 kB of table fails in print, and 125 bytes
    # in the flush before exit
    ["run", "memory", "--duration-ms", "200"],
    ["resources", "encoder"],
    # the help text is written before the arguments are parsed
    ["run", "--help"],
    ["--help"],
], ids=" ".join)
def test_closed_stdout_is_unwritable_output(argv):
    # the read end of the pipe closes before the child writes
    read, write = os.pipe()
    os.close(read)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [
        str(Path(__file__).resolve().parents[1] / "src"), env.get("PYTHONPATH")]))
    try:
        result = subprocess.run(
            [sys.executable, "-m", "spikelogic.cli", *argv], stdout=write,
            stderr=subprocess.PIPE, env=env, text=True, timeout=120)
    finally:
        os.close(write)
    assert result.returncode == 2
    assert result.stderr.splitlines() == [
        "error: cannot write output: stdout is closed"]


def test_run_refuses_an_over_cap_trace_before_building(monkeypatch, capsys):
    # 10^6 ms of 33,802 signals: 10 + 32 inputs, 1023 x 32 latch outputs
    # and 1024 decoder channels
    refuse_builds(monkeypatch)
    tick = time.perf_counter()
    assert run_cli("run", "memory", "--registers", "1023", "--bits", "32",
                   "--duration-ms", "1000000") == 2
    assert time.perf_counter() - tick < 0.05
    assert capsys.readouterr().err == (
        "error: a 1,000,000 ms run of 33802 signals holds 33,802,000,000 "
        "trace cells, more than the 10,000,000 a run may hold\n")


def test_run_with_out_streams_its_outputs(tmp_path):
    # the memory-cli benchmark's run: a classic 63 x 8 memory written at a
    # seeded random address and word every ms for 1,000 ms. Its table is
    # 2.9 MB and its CSV 2.6 MB; written as whole strings they and their
    # encoded copies took the pass to a 14 MB peak, streamed it is 3 MB.
    rng = random.Random(0)
    rows = ["signal,time_ms"]
    for t in range(1, 1000):
        address, word = rng.randrange(64), rng.randrange(256)
        rows += [f"s{b},{t}" for b in range(6) if address >> b & 1]
        rows += [f"d{j},{t}" for j in range(8) if word >> j & 1]
    stimulus = tmp_path / "stimulus.csv"
    stimulus.write_text("\n".join(rows) + "\n", encoding="ascii")
    argv = ["run", "memory", "--and", "classic", "--registers", "63",
            "--bits", "8", "--duration-ms", "1000", "--stimulus",
            str(stimulus), "--format", "table", "--out", str(tmp_path / "out")]
    with open(os.devnull, "w", encoding="ascii") as devnull, \
            contextlib.redirect_stdout(devnull):
        assert run_cli(*argv) == 0  # first calls set up what they cache
        tracemalloc.start()
        try:
            assert run_cli(*argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 7e6
    assert (tmp_path / "out" / "trace.txt").stat().st_size > 2.5e6


def test_run_refuses_a_trace_over_the_cap(capsys):
    # 10^8 ms of 3 inputs and 6 latch outputs, refused before it is run
    assert run_cli("run", "d-latch", "--duration-ms", "100000000") == 2
    assert capsys.readouterr().err == (
        "error: a 100,000,000 ms run of 9 signals holds 900,000,000 trace "
        "cells, more than the 10,000,000 a run may hold\n")
