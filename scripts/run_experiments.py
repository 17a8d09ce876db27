#!/usr/bin/env python3
"""Run the four canonical experiments and print traces plus a summary.

Prints the checks and the trace of each experiment in turn, as
`spikelogic run <experiment>` does under an `=== name` heading, then the
closed-form neurons and synapses of each block kind at one size, classic
against fast. Exits nonzero if any built-in check fails.
"""

import sys

from spikelogic.harness import (
    EXPERIMENTS,
    ExperimentConfig,
    render_checks,
    run_experiment,
)
from spikelogic.resources import FormulaQuery, formula_resources
from spikelogic.trace import render_trace


def summarize_resources() -> None:
    print("resource summary (n-form)")
    rows = [
        ("decoder n=2", FormulaQuery("decoder", "classic", n=2),
         FormulaQuery("decoder", "fast", n=2)),
        ("multiplexer n=2", FormulaQuery("multiplexer", "classic", n=2),
         FormulaQuery("multiplexer", "fast", n=2)),
        ("demultiplexer n=2", FormulaQuery("demultiplexer", "classic", n=2),
         FormulaQuery("demultiplexer", "fast", n=2)),
        ("d latch", FormulaQuery("d_latch", "classic"),
         FormulaQuery("d_latch", "fast")),
        ("memory n=2 c=3", FormulaQuery("memory", "classic", n=2, c=3),
         FormulaQuery("memory", "fast", n=2, c=3)),
    ]
    for label, classic, fast in rows:
        a = formula_resources(classic)
        b = formula_resources(fast)
        print(f"  {label:18s} classic {a.neurons:4d} neurons "
              f"{a.synapses:4d} synapses | fast {b.neurons:4d} neurons "
              f"{b.synapses:4d} synapses")
    encoder = formula_resources(FormulaQuery("encoder", n=4))
    print(f"  {'encoder 4 inputs':18s} {encoder.neurons} neurons "
          f"{encoder.synapses} synapses (no AND stage)")


def main() -> int:
    failures = 0
    for name in EXPERIMENTS:
        result = run_experiment(name, ExperimentConfig())
        params = ", ".join(f"{k}={v}" for k, v in result.params.items())
        print(f"=== {name} ({result.and_kind} AND, {params}, "
              f"{result.duration_ms} ms)")
        print(render_checks(result.checks), end="")
        print(render_trace(result.trace))
        if not result.passed:
            failures += 1
    summarize_resources()
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
