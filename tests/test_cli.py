"""Command-line interface: subcommands and exit codes."""

import json
from pathlib import Path

import pytest

from spikelogic import cli, netlist
from spikelogic.harness import Check, VerifyReport
from spikelogic.resources import BLOCK_KINDS


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
], ids=" ".join)
def test_bad_size_is_usage_error(argv, capsys):
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len([line for line in err.splitlines()
                if line.startswith("error:")]) == 1
