"""Closed-form resource counts, latency table, reconciliation."""

from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

from spikelogic.resources import (
    AND_KINDS,
    BLOCK_KINDS,
    FormulaQuery,
    ResourceReport,
    encoder_synapse_sum,
    expected_latency,
    formula_queries,
    formula_resources,
    reconcile,
)
from spikelogic.gates import build_or
from spikelogic.harness import build_block
from spikelogic.sim import Network


def totals(kind, ak=None, **kw):
    report = formula_resources(FormulaQuery(kind, ak, **kw))
    return report.neurons, report.synapses


class TestLatencyTable:
    def test_all_rows(self):
        assert expected_latency("decoder", "classic") == 3
        assert expected_latency("decoder", "fast") == 2
        assert expected_latency("encoder") == 1
        assert expected_latency("multiplexer", "classic") == 4
        assert expected_latency("multiplexer", "fast") == 3
        assert expected_latency("demultiplexer", "classic") == 3
        assert expected_latency("demultiplexer", "fast") == 2
        assert expected_latency("d_latch", "classic") == 3
        assert expected_latency("d_latch", "fast") == 2
        assert expected_latency("memory", "classic") == 6
        assert expected_latency("memory", "fast") == 4

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            expected_latency("nand", "fast")


class TestTableAnchors:
    def test_d_latch(self):
        assert totals("d_latch", "classic") == (5, 13)
        assert totals("d_latch", "fast") == (3, 7)

    def test_decoder(self):
        assert totals("decoder", "classic", n=2) == (12, 28)
        assert totals("decoder", "fast", n=2) == (8, 24)
        assert totals("decoder", "classic", n=1) == (7, 11)
        assert totals("decoder", "fast", n=1) == (5, 11)
        assert totals("decoder", "classic", n=3) == (21, 67)
        assert totals("decoder", "fast", n=3) == (13, 51)

    def test_mux_demux(self):
        assert totals("multiplexer", "classic", n=2) == (13, 40)
        assert totals("multiplexer", "fast", n=2) == (9, 32)
        assert totals("demultiplexer", "classic", n=2) == (12, 36)
        assert totals("demultiplexer", "fast", n=2) == (8, 28)

    def test_encoder(self):
        assert totals("encoder", n=2) == (1, 1)
        assert totals("encoder", n=4) == (2, 4)
        assert totals("encoder", n=8) == (3, 12)
        assert totals("encoder", n=16) == (4, 32)

    def test_memory(self):
        assert totals("memory", "classic", n=2, c=2) == (44, 112)
        assert totals("memory", "fast", n=2, c=2) == (28, 96)
        assert totals("memory", "classic", form="m", r=3, c=3) == (60, 154)
        assert totals("memory", "fast", n=2, c=3) == (38, 132)
        assert totals("memory", "fast", form="m", r=3, c=3) == (38, 132)


class TestEncoderSum:
    def test_frozen_values(self):
        assert encoder_synapse_sum(2) == 1
        assert encoder_synapse_sum(4) == 4
        assert encoder_synapse_sum(8) == 12

    @given(st.integers(min_value=2, max_value=64))
    def test_matches_popcounts(self, num_inputs):
        want = sum(bin(i).count("1") for i in range(1, num_inputs))
        assert encoder_synapse_sum(num_inputs) == want

    def test_rejects_tiny_input(self):
        with pytest.raises(ValueError):
            encoder_synapse_sum(1)


class TestFormAgreement:
    @pytest.mark.parametrize("kind", ["decoder", "multiplexer",
                                      "demultiplexer"])
    @pytest.mark.parametrize("ak", sorted(AND_KINDS))
    @pytest.mark.parametrize("n", range(1, 7))
    def test_select_blocks(self, kind, ak, n):
        assert totals(kind, ak, n=n) == totals(kind, ak, form="m", m=2 ** n)

    @pytest.mark.parametrize("ak", sorted(AND_KINDS))
    @pytest.mark.parametrize("n", range(1, 7))
    @pytest.mark.parametrize("c", range(1, 9))
    def test_memory(self, ak, n, c):
        assert totals("memory", ak, n=n, c=c) == \
            totals("memory", ak, form="m", r=2 ** n - 1, c=c)

    def test_encoder_m_form_undefined(self):
        with pytest.raises(ValueError, match="no m-form"):
            formula_resources(FormulaQuery("encoder", form="m", m=2))


class TestMonotonicity:
    @pytest.mark.parametrize("kind", ["decoder", "multiplexer",
                                      "demultiplexer"])
    @pytest.mark.parametrize("n", range(1, 7))
    def test_fast_below_classic(self, kind, n):
        fast = totals(kind, "fast", n=n)
        classic = totals(kind, "classic", n=n)
        assert fast[0] < classic[0]
        # the decoder at n=1 ties on synapses (11 both ways); all other
        # combinations are strictly cheaper with the fast AND
        if kind == "decoder" and n == 1:
            assert fast[1] == classic[1] == 11
        else:
            assert fast[1] < classic[1]

    @pytest.mark.parametrize("n", range(1, 7))
    @pytest.mark.parametrize("c", range(1, 9))
    def test_memory_fast_below_classic(self, n, c):
        fast = totals("memory", "fast", n=n, c=c)
        classic = totals("memory", "classic", n=n, c=c)
        assert fast[0] < classic[0] and fast[1] < classic[1]


class TestItemization:
    @pytest.mark.parametrize("kind,kw", [
        ("decoder", {"n": 3}), ("multiplexer", {"n": 2}),
        ("demultiplexer", {"n": 2}), ("encoder", {"n": 8}),
        ("d_latch", {}), ("memory", {"n": 2, "c": 3}),
    ])
    @pytest.mark.parametrize("ak", sorted(AND_KINDS))
    def test_categories_sum_to_total(self, kind, kw, ak):
        if kind == "encoder":
            ak = None
        report = formula_resources(FormulaQuery(kind, ak, **kw))
        assert sum(report.by_category.values()) == report.synapses

    def test_m_form_itemized_only_at_powers_of_two(self):
        exact = formula_resources(FormulaQuery("decoder", "fast", "m", m=4))
        assert set(exact.by_category) != {"total"}
        loose = formula_resources(FormulaQuery("decoder", "fast", "m", m=3))
        assert set(loose.by_category) == {"total"}


def _decoder_reporting(report: ResourceReport):
    """A fast n=2 decoder handle whose measured report is swapped."""
    return replace(build_block(Network(), "decoder", "fast", (2,)),
                   resources=report)


class TestReconcile:
    def test_accepts_the_formula_report(self):
        expected = formula_resources(FormulaQuery("decoder", "fast", n=2))
        outcome = reconcile(_decoder_reporting(expected),
                            FormulaQuery("decoder", "fast", n=2))
        assert outcome.ok and outcome.diffs == ()

    def test_detects_neuron_drift(self):
        base = formula_resources(FormulaQuery("decoder", "fast", n=2))
        doctored = ResourceReport(base.neurons + 1, base.synapses,
                                  base.by_category)
        outcome = reconcile(_decoder_reporting(doctored),
                            FormulaQuery("decoder", "fast", n=2))
        assert not outcome.ok
        assert any("neurons" in diff for diff in outcome.diffs)

    def test_detects_category_drift(self):
        base = formula_resources(FormulaQuery("decoder", "fast", n=2))
        items = dict(base.by_category)
        items["CSS to NOT"] += 1
        items["Internal CSS"] -= 1
        doctored = ResourceReport(base.neurons, base.synapses, items)
        outcome = reconcile(_decoder_reporting(doctored),
                            FormulaQuery("decoder", "fast", n=2))
        assert not outcome.ok
        assert any("CSS to NOT" in diff for diff in outcome.diffs)

    @pytest.mark.parametrize("make", [
        lambda: formula_resources(FormulaQuery("decoder", "fast", n=2)),
        lambda: build_or(Network()),
        lambda: None,
    ], ids=["report", "gate-handle", "none"])
    def test_rejects_what_is_not_a_block_handle(self, make):
        with pytest.raises(ValueError, match="block handle"):
            reconcile(make(), FormulaQuery("decoder", "fast", n=2))

    def test_bad_queries(self):
        with pytest.raises(ValueError):
            formula_resources(FormulaQuery("decoder", "fast"))
        with pytest.raises(ValueError):
            formula_resources(FormulaQuery("decoder", "fast", n=0))
        with pytest.raises(ValueError):
            formula_resources(FormulaQuery("nand", "fast", n=1))
        with pytest.raises(ValueError):
            formula_resources(FormulaQuery("memory", "fast", n=2))
        with pytest.raises(ValueError):
            formula_resources(FormulaQuery("decoder", "sluggish", n=1))


def test_block_kind_registry():
    assert set(BLOCK_KINDS) == {"decoder", "encoder", "multiplexer",
                                "demultiplexer", "d_latch", "memory"}
    assert set(AND_KINDS) == {"classic", "fast"}


# Which (handle, query) pairs reconcile accepts. Each case builds one
# block (kind, AND kind, size as harness.build_block takes it) and asks
# one query of it: "ok" is accepted and matching, "mismatch" accepted but
# not matching, "raises" a ValueError before any comparison.
def _select_cases(kind):
    return [
        (kind, ak, (2,), ak, "n", {"n": 2}, "ok") for ak in AND_KINDS
    ] + [
        (kind, ak, (2,), ak, "n", {"n": 3}, "raises") for ak in AND_KINDS
    ] + [
        (kind, ak, (2,), ak, "m", {"m": 4}, "ok") for ak in AND_KINDS
    ] + [
        (kind, ak, (2,), ak, "m", {"m": 3}, "raises") for ak in AND_KINDS
    ] + [
        (kind, "fast", (2,), "classic", "n", {"n": 2}, "raises"),
        (kind, "classic", (2,), "fast", "m", {"m": 4}, "raises"),
    ]


RECONCILE_CASES = (
    _select_cases("decoder") + _select_cases("multiplexer")
    + _select_cases("demultiplexer") + [
        ("encoder", None, (4,), None, "n", {"n": 4}, "ok"),
        ("encoder", None, (4,), None, "n", {"n": 3}, "raises"),
        # the encoder has no m-form
        ("encoder", None, (4,), None, "m", {"m": 2}, "raises"),
        ("encoder", None, (4,), None, "m", {"m": 4}, "raises"),
        # the encoder has no AND stage: an AND kind in its query is
        # ignored, but must still name one
        ("encoder", None, (4,), "fast", "n", {"n": 4}, "ok"),
        ("encoder", None, (4,), "sluggish", "n", {"n": 4}, "raises"),
    ] + [
        ("d_latch", ak, (), ak, form, {}, "ok")
        for ak in AND_KINDS for form in ("n", "m")  # m is an alias of n
    ] + [
        ("d_latch", "fast", (), "classic", "n", {}, "raises"),
    ] + [
        ("memory", ak, (3, 2), ak, "n", {"n": 2, "c": 2}, "ok")
        for ak in AND_KINDS
    ] + [
        ("memory", ak, (3, 2), ak, "m", {"r": 3, "c": 2}, "ok")
        for ak in AND_KINDS
    ] + [
        ("memory", "fast", (3, 2), "fast", "n", {"n": 3, "c": 2}, "raises"),
        ("memory", "fast", (3, 2), "fast", "n", {"n": 2, "c": 3}, "raises"),
        ("memory", "fast", (3, 2), "fast", "m", {"r": 2, "c": 2}, "raises"),
        ("memory", "fast", (3, 2), "fast", "m", {"r": 3, "c": 1}, "raises"),
        ("memory", "fast", (3, 2), "classic", "m", {"r": 3, "c": 2}, "raises"),
        # partial occupancy: the r-form is accepted but the construction
        # keeps the full decoder, so it does not match; no n gives r = 2
        ("memory", "fast", (2, 2), "fast", "m", {"r": 2, "c": 2}, "mismatch"),
        ("memory", "classic", (2, 2), "classic", "m", {"r": 2, "c": 2},
         "mismatch"),
        ("memory", "fast", (2, 2), "fast", "n", {"n": 2, "c": 2}, "raises"),
        ("memory", "fast", (2, 2), "fast", "n", {"n": 1, "c": 2}, "raises"),
    ]
)


@pytest.mark.parametrize(
    "kind, ak, size, query_ak, form, fields, outcome", RECONCILE_CASES,
    ids=[f"{c[0]}-{c[1]}-{c[2]}-{c[3]}-{c[4]}-{c[5]}-{c[6]}"
         for c in RECONCILE_CASES])
def test_reconcile_accepts_matching_sizes(kind, ak, size, query_ak, form,
                                          fields, outcome):
    handle = build_block(Network(), kind, ak, size)
    query = FormulaQuery(kind, query_ak, form, **fields)
    if outcome == "raises":
        with pytest.raises(ValueError):
            reconcile(handle, query)
    else:
        assert reconcile(handle, query).ok == (outcome == "ok")


def _both(kind, n):
    return lambda ak: [FormulaQuery(kind, ak, "n", n=n),
                       FormulaQuery(kind, ak, "m", m=2 ** n)]


# the closed-form queries a built block answers, n-form first
FORMULA_QUERIES = [
    ("decoder", (1,), _both("decoder", 1)),
    ("decoder", (3,), _both("decoder", 3)),
    ("multiplexer", (1,), _both("multiplexer", 1)),
    ("multiplexer", (2,), _both("multiplexer", 2)),
    ("demultiplexer", (1,), _both("demultiplexer", 1)),
    ("demultiplexer", (3,), _both("demultiplexer", 3)),
    ("encoder", (2,), lambda ak: [FormulaQuery("encoder", None, "n", n=2)]),
    ("encoder", (5,), lambda ak: [FormulaQuery("encoder", None, "n", n=5)]),
    ("d_latch", (), lambda ak: [FormulaQuery("d_latch", ak, "n")]),
    ("memory", (1, 1), lambda ak: [FormulaQuery("memory", ak, "n", n=1, c=1),
                                   FormulaQuery("memory", ak, "m", r=1, c=1)]),
    ("memory", (3, 2), lambda ak: [FormulaQuery("memory", ak, "n", n=2, c=2),
                                   FormulaQuery("memory", ak, "m", r=3, c=2)]),
    # the closed forms assume full occupancy, r = 2^n - 1
    ("memory", (2, 2), lambda ak: None),
    ("memory", (5, 1), lambda ak: None),
]


@pytest.mark.parametrize("ak", AND_KINDS)
@pytest.mark.parametrize("kind, size, want", FORMULA_QUERIES,
                         ids=[f"{kind}-{size}"
                              for kind, size, _ in FORMULA_QUERIES])
def test_formula_queries(kind, size, want, ak):
    if kind == "encoder":
        ak = None
    handle = build_block(Network(), kind, ak, size)
    assert formula_queries(handle) == want(ak)


# the encoder has no AND stage: every path that takes an AND kind with
# it reads none, accepts None or a valid name, and rejects any other
ENCODER_PATHS = {
    "formula_resources": lambda ak: formula_resources(
        FormulaQuery("encoder", ak, n=4)),
    "expected_latency": lambda ak: expected_latency("encoder", ak),
    "reconcile": lambda ak: reconcile(build_block(Network(), "encoder", None, (4,)),
                                      FormulaQuery("encoder", ak, n=4)),
}


@pytest.mark.parametrize("path", ENCODER_PATHS)
def test_encoder_and_kind_is_checked_on_every_path(path):
    call = ENCODER_PATHS[path]
    assert call(None) == call("classic") == call("fast")
    for bad in ("sluggish", ""):
        with pytest.raises(ValueError):
            call(bad)

