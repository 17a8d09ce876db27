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
import sys
from pathlib import Path

from . import netlist
from .harness import (
    BLOCKS,
    DEFAULT_SEED,
    EXPERIMENTS,
    ExperimentConfig,
    ExperimentResult,
    block_config,
    build_block,
    export_spikes,
    parse_stimulus,
    render_checks,
    run_experiment,
    verify_block,
)
from .resources import BLOCK_KINDS, formula_resources, reconcile
from .sim import Network
from .trace import render_trace


class UsageError(Exception):
    pass


def _add_block_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--and", dest="and_kind", choices=("classic", "fast"),
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
    run.add_argument("--seed", type=int, default=DEFAULT_SEED)
    run.add_argument("--out", type=Path,
                     help="directory for trace.txt, spikes.csv, netlist.json")
    run.add_argument("--format", choices=("table", "raster", "csv"),
                     default="table", help="stdout rendering")

    verify = sub.add_parser("verify", help="oracle sweeps for one block")
    verify.add_argument("block", choices=BLOCK_KINDS)
    _add_block_options(verify)
    verify.add_argument("--seed", type=int, default=DEFAULT_SEED)

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
    export.add_argument("--seed", type=int, default=DEFAULT_SEED)
    export.add_argument("--out", type=Path, required=True)
    return parser


def _experiment_config(args: argparse.Namespace) -> ExperimentConfig:
    stimulus = None
    if args.stimulus is not None:
        try:
            text = args.stimulus.read_text(encoding="ascii")
        except OSError as exc:
            raise UsageError(f"cannot read stimulus file: {exc}") from exc
        try:
            stimulus = parse_stimulus(text)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
    return ExperimentConfig(
        and_kind=args.and_kind, n=args.n, registers=args.registers,
        bits=args.bits, duration_ms=args.duration_ms, seed=args.seed,
        stimulus=stimulus)


def _write_outputs(result: ExperimentResult, out_dir: Path) -> None:
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "trace.txt").write_text(
            render_trace(result.trace), encoding="ascii")
        (out_dir / "spikes.csv").write_text(
            export_spikes(result.signal_times), encoding="ascii")
        annotations = {"experiment": result.name,
                       "and_kind": result.and_kind,
                       "params": result.params,
                       "duration_ms": result.duration_ms,
                       "checks": [check.label for check in result.checks]}
        netlist.save(result.net, out_dir / "netlist.json", annotations)
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
    if args.format == "csv":
        print(export_spikes(result.signal_times), end="")
    else:
        print(render_trace(result.trace, style=args.format), end="")
    if args.out is not None:
        _write_outputs(result, args.out)
    return status


def _cmd_export(args: argparse.Namespace) -> int:
    result, status = _run_checked(args)
    _write_outputs(result, args.out)
    print(f"wrote trace.txt, spikes.csv, netlist.json to {args.out}")
    if status:
        print("warning: experiment checks failed", file=sys.stderr)
    return status


def _cmd_verify(args: argparse.Namespace) -> int:
    try:
        report = verify_block(args.block, args.and_kind, n=args.n,
                              registers=args.registers, bits=args.bits,
                              seed=args.seed)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    parts = [f"{report.and_kind} AND"] if report.and_kind else []
    parts += [f"{k}={v}" for k, v in report.params.items()]
    print(f"verify {report.kind} ({', '.join(parts)})")
    print(render_checks(report.checks), end="")
    return 0 if report.passed else 1


def _cmd_resources(args: argparse.Namespace) -> int:
    kind = args.block
    try:
        ak, size = block_config(kind, args.and_kind, n=args.n,
                                registers=args.registers, bits=args.bits)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    handle = build_block(Network(), kind, ak, size)
    params = ", ".join(f"{k}={v}" for k, v in handle.params.items())
    kind_note = f"{ak} AND, " if ak else ""
    print(f"resources {kind} ({kind_note}{params})")
    report = handle.resources
    print(f"  measured: {report.neurons} neurons, "
          f"{report.synapses} synapses")
    width = max(len(label) for label in report.by_category)
    for label, count in report.by_category.items():
        print(f"    {label.ljust(width)}  {count}")

    queries = BLOCKS[kind].queries(ak, *size)
    if queries is None:  # a partially occupied memory
        print(f"  closed forms assume full occupancy r = 2^n - 1; "
              f"skipped for r={size[0]}")
    status = 0
    for query in queries or ():
        expected = formula_resources(query)
        outcome = reconcile(handle, query)
        verdict = "OK" if outcome.ok else "MISMATCH"
        print(f"  {query.form}-form: {expected.neurons} neurons, "
              f"{expected.synapses} synapses ... {verdict}")
        for diff in outcome.diffs:
            print(f"    {diff}")
        if not outcome.ok:
            status = 1
    return status


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {"run": _cmd_run, "verify": _cmd_verify,
                "resources": _cmd_resources, "export": _cmd_export}
    try:
        return handlers[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
