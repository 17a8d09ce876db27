"""Guards on the package source itself."""

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
