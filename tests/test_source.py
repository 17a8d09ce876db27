"""Guards on the package source itself."""

import ast
import re
from dataclasses import fields
from pathlib import Path

from spikelogic.gates import Handle
from spikelogic.harness import ExperimentResult
from spikelogic.resources import ReconcileReport
from spikelogic.trace import SpikeRow

SRC = Path(__file__).resolve().parents[1] / "src" / "spikelogic"

# a block kind compared with a string literal: per-kind facts belong in
# the tables (resources._FORMS, harness.BLOCKS), not in branches
KIND_DISPATCH = re.compile(r'\bkind (==|!=) "|\bkind in \(')


def test_no_branch_on_block_kind_strings():
    hits = [f"{path.name}:{lineno}: {line.strip()}"
            for path in sorted(SRC.glob("*.py"))
            for lineno, line in enumerate(
                path.read_text(encoding="utf-8").splitlines(), start=1)
            if KIND_DISPATCH.search(line)]
    assert hits == []


def test_and_kinds_are_spelled_once():
    # resources.AND_KINDS is the one list of AND kinds; the CLI's --and
    # choices and every other reader take it from there
    pair = re.compile(r'"classic",\s*"fast"|"fast",\s*"classic"')
    hits = [path.name for path in sorted(SRC.glob("*.py"))
            if pair.search(path.read_text(encoding="utf-8"))]
    assert hits == ["resources.py"]


def test_no_input_port_is_named_by_index():
    # the inputs of a gate are symmetric, so NOT, OR and AND have one
    # input port, "in", that every driver is wired to; "in0", "in1" or
    # f"in{k}" would bring back one identical port per driver
    indexed = re.compile(r"""["']in\d+["']|f["']in\{""")
    hits = [f"{path.name}:{lineno}: {line.strip()}"
            for path in sorted(SRC.parent.rglob("*.py"))
            for lineno, line in enumerate(
                path.read_text(encoding="utf-8").splitlines(), start=1)
            if indexed.search(line)]
    assert hits == []


def _called(node: ast.Call) -> str | None:
    func = node.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def test_taps_change_in_padded_alone():
    # gates.padded is the one tap transform, and a wire connects its taps
    # as given: no second relabelling helper, no tuple packing beside the
    # per-ms words, and no wire or drive that delays or relabels
    defined, keyworded = {}, []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.FunctionDef):
                defined[node.name] = node.args
            elif (isinstance(node, ast.Call) and node.keywords
                  and _called(node) in ("wire", "drive")):
                keyworded.append(f"{path.name}:{node.lineno}: {_called(node)}")
    assert "retagged" not in defined and "_packed" not in defined
    for name in ("wire", "drive"):
        assert not (defined[name].kwonlyargs or defined[name].defaults), name
    assert keyworded == []


def test_a_neuron_is_its_threshold():
    # Network.neurons maps an id to its threshold_quanta, a plain int:
    # no module defines or imports a wrapper around that one field
    names = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
                names.add(node.name)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                names.add(node.id)
    assert "NeuronParams" not in names


def test_each_fact_is_held_once():
    # a Handle holds its input and output ports itself, a Network derives
    # its next id from its entity count and keeps its recorded ids in one
    # dict, and a reconcile report leaves the measured report to the
    # handle: no module defines a port bag, an id counter or a second
    # record of the recorded ids
    names, attributes = set(), set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
                names.add(node.name)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                names.add(node.id)
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.ctx, ast.Store)):
                attributes.add(node.attr)
    assert "PortMap" not in names
    assert not attributes & {"_next_id", "_recorded_set"}
    assert "measured" not in {field.name for field in fields(ReconcileReport)}


def test_runs_are_cut_and_packed_in_one_place():
    # sim._words is the one train-to-word packing, which hex_word_row and
    # _stimulated call; _stimulated cuts each input at the run's end, and
    # a check masks its expected trains to the run, so _word_trains takes
    # no stop of its own
    defined, calls = {}, {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.FunctionDef):
                defined[node.name] = [arg.arg for arg in node.args.args]
                calls[node.name] = {_called(inner) for inner in ast.walk(node)
                                    if isinstance(inner, ast.Call)}
    assert not {"_words_from_bits", "_channel_mark"} & set(defined)
    assert defined["_word_trains"] == ["words", "count"]
    assert "_words" in calls["hex_word_row"] & calls["_stimulated"]


def test_no_copy_is_kept_in_step_by_a_check():
    # a block's latency is resources.expected_latency's, a spike row
    # spans its trace's duration and derives no cells, and an experiment's
    # input spikes are its trace rows': none is held a second time
    assert "latency_ms" not in {field.name for field in fields(Handle)}
    assert not {"duration_ms", "cells"} & (
        {field.name for field in fields(SpikeRow)} | set(vars(SpikeRow)))
    inputs = {field.name: field.type for field in fields(ExperimentResult)}
    assert inputs["inputs"] == "tuple[str, ...]"


def test_one_check_per_kind_of_input():
    # sim._require_int checks every count, size, duration and valid_from,
    # and sim._times every spike-time list; an inline int check is left
    # only where a value needs more than "an int of at least k" or where
    # a hot path pays per item
    defined, inline = {}, set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
                defined.setdefault(node.name, []).append(path.name)
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        defined.setdefault(target.id, []).append(path.name)
            if isinstance(node, ast.FunctionDef):
                for inner in ast.walk(node):
                    if (isinstance(inner, ast.Compare)
                            and isinstance(inner.ops[0], ast.IsNot)
                            and ast.unparse(inner.comparators[0]) == "int"
                            and ast.unparse(inner.left).startswith("type(")):
                        inline.add(f"{path.stem}.{node.name}")
    assert defined["_require_int"] == ["sim.py"]
    assert defined["_times"] == ["sim.py"]
    for gone in ("_require_size", "_check_valid_from", "_ports", "_STYLES"):
        assert gone not in defined, gone
    assert inline == {
        "sim._require_int", "sim._times", "sim.connect", "sim.copy",
        "sim.record", "harness._random", "harness.check_pipelined",
        "netlist._by_id", "netlist.from_document"}


def test_the_library_raises_value_error():
    # a bad input is a ValueError naming it; the two others are
    # Trace.row's KeyError, a lookup by label, and the CLI's UsageError,
    # which main turns into exit 2. A bare raise re-raises.
    raised = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised.add(f"{path.stem}: {ast.unparse(exc)}")
    assert {hit for hit in raised if not hit.endswith(": ValueError")} == {
        "trace: KeyError", "cli: UsageError"}


def test_one_plan_and_one_view_over_the_columns():
    # sim._plan groups a network's fan-in and finds its span for the
    # kernel and the latency walk alike, with no second ordering pass,
    # and one view class serves both the synapses and their labels
    sim = ast.parse((SRC / "sim.py").read_text(encoding="utf-8"))
    assert "_components" not in {node.name for node in ast.walk(sim)
                                 if isinstance(node, ast.FunctionDef)}
    assert [node.name for node in ast.walk(sim) if isinstance(node, ast.ClassDef)
            and node.name.endswith("View")] == ["_View"]
    harness = ast.parse((SRC / "harness.py").read_text(encoding="utf-8"))
    imported = {alias.name for node in ast.walk(harness)
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert "_plan" in imported and "_components" not in imported
    # a fan_in in the harness is the plan's, never one it builds
    built = [ast.unparse(node.value) for node in ast.walk(harness)
             if isinstance(node, ast.Assign)
             and "fan_in" in {name.id for target in node.targets
                              for name in ast.walk(target)
                              if isinstance(name, ast.Name)}]
    assert built and all(value.startswith("_plan(") for value in built)
