"""Command-line front end.

Subcommands:

  run <experiment>    build, stimulate, check and render one experiment
  verify <block>      truth-table sweep + fuzz + latency + resources
  resources <block>   measured resource counts against the closed forms
  export <experiment> write spikes.csv, netlist.json and trace.txt

Exit codes: 0 all checks pass, 1 verification failure, 2 usage or
configuration error (bad flags, unreadable stimulus, unwritable output).
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import Callable, Iterator

from . import netlist
from .harness import (
    EXPERIMENTS,
    ExperimentConfig,
    ExperimentResult,
    _sizes,
    block_config,
    build_block,
    export_spikes,
    parse_stimulus,
    render_checks,
    run_experiment,
    spike_csv,
    verify_block,
)
from .resources import AND_KINDS, BLOCK_KINDS, formula_queries, reconcile
from .sim import Network
from .trace import render_raster, render_table, render_trace

# export_spikes and render_trace, the whole-string writers, are not called
# here; they stay names of this module for callers that wrap them here,
# as the benchmark's traced runs do


class UsageError(Exception):
    pass


def _add_block_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--and", dest="and_kind", choices=AND_KINDS,
                        help="AND realization (default depends on command)")
    parser.add_argument("--n", type=int,
                        help="select width; for the encoder, the input count")
    parser.add_argument("--registers", type=int,
                        help="memory register count (default 3)")
    parser.add_argument("--bits", type=int,
                        help="memory word width (default 3)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spikelogic",
        description="spiking boolean circuit simulator and test harness")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one experiment")
    run.add_argument("experiment", choices=EXPERIMENTS)
    _add_block_options(run)
    run.add_argument("--duration-ms", type=int, dest="duration_ms")
    run.add_argument("--stimulus", type=Path,
                     help="CSV of signal,time_ms rows replacing the "
                          "canonical inputs")
    run.add_argument("--seed", type=int)
    run.add_argument("--out", type=Path,
                     help="directory for trace.txt, spikes.csv, netlist.json")
    run.add_argument("--format", choices=("table", "raster", "csv"),
                     default="table", help="stdout rendering")

    verify = sub.add_parser("verify", help="oracle sweeps for one block")
    verify.add_argument("block", choices=BLOCK_KINDS)
    _add_block_options(verify)
    verify.add_argument("--seed", type=int)

    resources = sub.add_parser(
        "resources", help="resource counts for one block")
    resources.add_argument("block", choices=BLOCK_KINDS)
    _add_block_options(resources)

    export = sub.add_parser(
        "export", help="write spike and netlist files for one experiment")
    export.add_argument("experiment", choices=EXPERIMENTS)
    _add_block_options(export)
    export.add_argument("--duration-ms", type=int, dest="duration_ms")
    export.add_argument("--stimulus", type=Path)
    export.add_argument("--seed", type=int)
    export.add_argument("--out", type=Path, required=True)
    return parser


def _experiment_config(args: argparse.Namespace) -> ExperimentConfig:
    stimulus = None
    if args.stimulus is not None:
        try:
            text = args.stimulus.read_text(encoding="ascii")
        except (OSError, UnicodeDecodeError) as exc:
            raise UsageError(f"cannot read stimulus file: {exc}") from exc
        try:
            stimulus = parse_stimulus(text)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
    return ExperimentConfig(
        and_kind=args.and_kind, **_sizes(args), duration_ms=args.duration_ms,
        seed=args.seed, stimulus=stimulus)


# the file of --out that each stdout format also goes to
_FILES = {"table": "trace.txt", "csv": "spikes.csv"}


def _streams(result: ExperimentResult) -> dict[str, Callable[[], Iterator[str]]]:
    """Each output format's text, chunk by chunk, made when called."""
    return {"table": lambda: render_table(result.trace),
            "raster": lambda: render_raster(result.trace),
            "csv": lambda: spike_csv(result.signal_trains,
                                      range(result.duration_ms))}


def _write_outputs(result: ExperimentResult, out_dir: Path,
                   shown: str | None = None) -> None:
    """Write trace.txt, spikes.csv and netlist.json to out_dir, streamed.
    The file of the format shown on stdout comes first, written in one
    pass with stdout."""
    streams = _streams(result)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        for style in sorted(_FILES, key=lambda style: style != shown):
            with open(out_dir / _FILES[style], "w", encoding="ascii") as fh:
                for chunk in streams[style]():
                    fh.write(chunk)
                    if style == shown:
                        sys.stdout.write(chunk)
        annotations = {"experiment": result.name,
                       "and_kind": result.and_kind,
                       "params": result.params,
                       "duration_ms": result.duration_ms,
                       "checks": [check.label for check in result.checks]}
        netlist.save(result.net, out_dir / "netlist.json", annotations)
    except BrokenPipeError:
        raise  # stdout's, which main reports
    except OSError as exc:
        raise UsageError(f"cannot write outputs: {exc}") from exc


def _run_checked(args: argparse.Namespace) -> tuple[ExperimentResult, int]:
    config = _experiment_config(args)
    try:
        result = run_experiment(args.experiment, config)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    return result, 0 if result.passed else 1


def _cmd_run(args: argparse.Namespace) -> int:
    result, status = _run_checked(args)
    params = ", ".join(f"{k}={v}" for k, v in result.params.items())
    print(f"experiment {result.name} ({result.and_kind} AND, {params}, "
          f"{result.duration_ms} ms)")
    print(render_checks(result.checks), end="")
    if args.out is None or args.format not in _FILES:
        sys.stdout.writelines(_streams(result)[args.format]())
    if args.out is not None:
        _write_outputs(result, args.out, args.format)
    return status


def _cmd_export(args: argparse.Namespace) -> int:
    result, status = _run_checked(args)
    _write_outputs(result, args.out)
    print(f"wrote trace.txt, spikes.csv, netlist.json to {args.out}")
    if status:
        print("warning: experiment checks failed", file=sys.stderr)
    return status


def _heading(command: str, kind: str, and_kind: str | None,
             params: dict) -> str:
    """The first line of verify and resources: kind, AND kind, size."""
    parts = [f"{and_kind} AND"] if and_kind else []
    parts += [f"{k}={v}" for k, v in params.items()]
    return f"{command} {kind} ({', '.join(parts)})"


def _cmd_verify(args: argparse.Namespace) -> int:
    try:
        report = verify_block(args.block, args.and_kind, seed=args.seed,
                              **_sizes(args))
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    print(_heading("verify", report.kind, report.and_kind, report.params))
    print(render_checks(report.checks), end="")
    return 0 if report.passed else 1


def _cmd_resources(args: argparse.Namespace) -> int:
    kind = args.block
    try:
        ak, size = block_config(kind, args.and_kind, **_sizes(args))
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    handle = build_block(Network(), kind, ak, size)
    print(_heading("resources", kind, ak, handle.params))
    report = handle.resources
    print(f"  measured: {report.neurons} neurons, "
          f"{report.synapses} synapses")
    width = max(len(label) for label in report.by_category)
    for label, count in report.by_category.items():
        print(f"    {label.ljust(width)}  {count}")

    queries = formula_queries(handle)
    if queries is None:  # a partially occupied memory
        print(f"  closed forms assume full occupancy registers = 2^n - 1; "
              f"skipped for registers={size[0]}")
    status = 0
    for query in queries or ():
        outcome = reconcile(handle, query)
        verdict = "OK" if outcome.ok else "MISMATCH"
        print(f"  {query.form}-form: {outcome.expected.neurons} neurons, "
              f"{outcome.expected.synapses} synapses ... {verdict}")
        for diff in outcome.diffs:
            print(f"    {diff}")
        if not outcome.ok:
            status = 1
    return status


def main(argv: list[str] | None = None) -> int:
    handlers = {"run": _cmd_run, "verify": _cmd_verify,
                "resources": _cmd_resources, "export": _cmd_export}
    try:
        try:
            args = build_parser().parse_args(argv)
        finally:
            # --help writes to stdout before its SystemExit: flush it here,
            # where a closed stdout is caught
            sys.stdout.flush()
        status = handlers[args.command](args)
        sys.stdout.flush()
        return status
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # unwritable output; devnull takes the flush at exit (see the
        # SIGPIPE note in the docs of Python's signal module)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: cannot write output: stdout is closed", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
