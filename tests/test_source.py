"""Guards on the package source itself."""

import ast
import re
from pathlib import Path

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
