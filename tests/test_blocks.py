"""Block builders: truth tables, sequencing, latencies, resources."""

import dataclasses
import hashlib
import json
import random
import tracemalloc
from itertools import chain
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from spikelogic import blocks, netlist
from spikelogic.blocks import (
    build_d_latch,
    build_decoder,
    build_demultiplexer,
    build_encoder,
    build_memory,
    build_multiplexer,
)
from spikelogic.gates import (
    build_and_classic,
    build_and_fast,
    build_css,
    build_not,
    build_sr_latch,
    _require_css,
    drive,
    padded,
    wire,
)
from spikelogic.harness import (
    block_config,
    build_block,
    fuzz_d_latch,
    fuzz_memory,
    sweep_decoder,
    sweep_demultiplexer,
    sweep_encoder,
    sweep_multiplexer,
)
from spikelogic.resources import (
    BLOCK_KINDS,
    FormulaQuery,
    expected_latency,
    reconcile,
)
from spikelogic.sim import Network

KINDS = ("classic", "fast")


class TestTruthTables:
    @pytest.mark.parametrize("ak", KINDS)
    @pytest.mark.parametrize("n", range(1, 4))
    def test_decoder(self, n, ak):
        check = sweep_decoder(n, ak)
        assert check.ok, check.detail

    @pytest.mark.parametrize("num_inputs", [2, 3, 4, 6, 8])
    def test_encoder(self, num_inputs):
        check = sweep_encoder(num_inputs)
        assert check.ok, check.detail

    @pytest.mark.parametrize("ak", KINDS)
    @pytest.mark.parametrize("n", range(1, 4))
    def test_multiplexer(self, n, ak):
        check = sweep_multiplexer(n, ak)
        assert check.ok, check.detail

    @pytest.mark.parametrize("ak", KINDS)
    @pytest.mark.parametrize("n", range(1, 4))
    def test_demultiplexer(self, n, ak):
        check = sweep_demultiplexer(n, ak)
        assert check.ok, check.detail


class TestDecoderProperties:
    @given(st.lists(st.integers(min_value=0, max_value=3),
                    min_size=1, max_size=24))
    def test_one_hot_every_timestep(self, words):
        net = Network()
        css = build_css(net)
        decoder = build_decoder(net, 2, "fast", css)
        for b in range(2):
            drive(net, decoder, f"s{b}", net.add_source(
                [1 + i for i, w in enumerate(words) if (w >> b) & 1]))
        channels = [decoder.output(f"ch{j}") for j in range(4)]
        net.record(*channels)
        duration = len(words) + 4
        record = net.run(duration)
        latency = expected_latency("decoder", "fast")
        for t in range(latency + 1, duration):
            live = [j for j, cid in enumerate(channels)
                    if t in record.times(cid)]
            assert len(live) == 1, f"t={t}: channels {live}"

    def test_encoder_inverts_decoder_channels(self):
        # multi-hot encoder inputs combine as a bitwise OR
        check = sweep_encoder(4, words=[0b0110, 0b1010, 0b0001, 0b1111])
        assert check.ok, check.detail


class TestDLatch:
    @pytest.mark.parametrize("ak", KINDS)
    def test_random_schedules(self, ak):
        check = fuzz_d_latch(ak, steps=96, seed=11)
        assert check.ok, check.detail

    def test_default_variant_has_no_inverter_port(self):
        net = Network()
        css = build_css(net)
        latch = build_d_latch(net, "fast", css)
        assert set(latch.inputs) == {"store", "data", "data_not"}
        with pytest.raises(ValueError):
            latch.input_taps("nope")

    def test_only_the_fast_latch_is_built_with_a_css(self):
        # a classic latch reads no CSS, so its network is the latch alone;
        # a fast one's ANDs take their veto from a CSS built before it
        net = Network()
        latch = build_block(net, "d_latch", "classic", ())
        assert latch.entities == range(len(net.neurons) + len(net.sources))
        assert latch.synapses == range(len(net.synapses))
        net = Network()
        latch = build_block(net, "d_latch", "fast", ())
        # the CSS: 2 neurons and a bootstrap source, 2 ring synapses and
        # the bootstrap's
        assert (latch.entities.start, latch.synapses.start) == (3, 3)
        assert net.categories[:2] == ["Internal CSS"] * 2


class TestMemory:
    @pytest.mark.parametrize("ak", KINDS)
    def test_random_write_streams(self, ak):
        check = fuzz_memory(3, 3, ak, writes=80, seed=13)
        assert check.ok, check.detail

    @pytest.mark.parametrize("ak", KINDS)
    def test_partial_occupancy(self, ak):
        check = fuzz_memory(2, 2, ak, writes=60, seed=17)
        assert check.ok, check.detail

    def test_address_zero_never_writes(self):
        net = Network()
        css = build_css(net)
        memory = build_memory(net, 1, 2, "fast", css)
        drive(net, memory, "s0", net.add_source([1]))
        # channel-0 cycles (silence) plus an explicit d-only burst at t=5
        drive(net, memory, "d0", net.add_source([1, 5]))
        drive(net, memory, "d1", net.add_source([5]))
        q0, q1 = memory.output("q1_0"), memory.output("q1_1")
        net.record(q0, q1)
        record = net.run(14)
        latency = expected_latency("memory", "fast")
        # the word 1 written at t=1 persists; the t=5 data is ignored
        assert set(record.times(q0)) == set(range(1 + latency, 14))
        assert record.times(q1) == ()

    def test_geometry_validation(self):
        net = Network()
        css = build_css(net)
        with pytest.raises(ValueError):
            build_memory(net, 0, 2, "fast", css)

    def test_surplus_channels_exist_without_registers(self):
        net = Network()
        css = build_css(net)
        memory = build_memory(net, 2, 1, "fast", css)
        assert memory.decoder.params["n"] == 2
        assert "ch3" in memory.decoder.outputs
        assert "q3_0" not in memory.outputs


class TestMeasuredResources:
    @pytest.mark.parametrize("kind,builder", [
        ("decoder", build_decoder),
        ("multiplexer", build_multiplexer),
        ("demultiplexer", build_demultiplexer),
    ])
    @pytest.mark.parametrize("ak", KINDS)
    @pytest.mark.parametrize("n", range(1, 5))
    def test_select_blocks_match_formulas(self, kind, builder, ak, n):
        net = Network()
        css = build_css(net)
        handle = builder(net, n, ak, css)
        for form, size in (("n", {"n": n}), ("m", {"m": 2 ** n})):
            outcome = reconcile(handle, FormulaQuery(kind, ak, form, **size))
            assert outcome.ok, outcome.diffs

    @pytest.mark.parametrize("num_inputs", [2, 3, 4, 5, 8, 16])
    def test_encoder_matches_formula(self, num_inputs):
        net = Network()
        handle = build_encoder(net, num_inputs)
        outcome = reconcile(handle, FormulaQuery("encoder", n=num_inputs))
        assert outcome.ok, outcome.diffs

    @pytest.mark.parametrize("ak", KINDS)
    def test_d_latch_matches_formula(self, ak):
        net = Network()
        css = build_css(net)
        handle = build_d_latch(net, ak, css)
        outcome = reconcile(handle, FormulaQuery("d_latch", ak))
        assert outcome.ok, outcome.diffs

    @pytest.mark.parametrize("ak", KINDS)
    def test_stray_synapse_in_a_d_latch_fails_reconcile(self, ak, monkeypatch):
        # the latch's report counts what it built, not what its closed
        # form lists: one extra labelled synapse must show as a mismatch
        def with_stray_synapse(net):
            sr = build_sr_latch(net)
            net.connect(sr.output("q"), sr.output("q"), 1, 2, "Extra")
            return sr

        monkeypatch.setattr(blocks, "build_sr_latch", with_stray_synapse)
        net = Network()
        handle = build_d_latch(net, ak, build_css(net))
        outcome = reconcile(handle, FormulaQuery("d_latch", ak))
        assert not outcome.ok
        assert "category 'Extra': measured 1, formula 0" in outcome.diffs

    @pytest.mark.parametrize("ak", KINDS)
    @pytest.mark.parametrize("registers,bits", [(1, 1), (1, 4), (3, 3),
                                                (7, 2)])
    def test_full_memory_matches_both_forms(self, ak, registers, bits):
        net = Network()
        css = build_css(net)
        handle = build_memory(net, registers, bits, ak, css)
        depth = registers.bit_length()
        for query in (FormulaQuery("memory", ak, "n", n=depth, c=bits),
                      FormulaQuery("memory", ak, "m", r=registers, c=bits)):
            outcome = reconcile(handle, query)
            assert outcome.ok, outcome.diffs

    def test_partial_memory_diverges_from_r_form(self):
        # the r-form decomposition assumes a truncated decoder; the
        # construction keeps the full decoder, so at partial occupancy
        # the totals must differ and reconciliation reports it
        net = Network()
        css = build_css(net)
        handle = build_memory(net, 2, 1, "fast", css)
        outcome = reconcile(handle, FormulaQuery("memory", "fast", "m",
                                                 r=2, c=1))
        assert not outcome.ok
        with pytest.raises(ValueError):
            reconcile(handle, FormulaQuery("memory", "fast", "n", n=2, c=1))

    def test_reconcile_rejects_mismatched_params(self):
        net = Network()
        css = build_css(net)
        handle = build_decoder(net, 2, "fast", css)
        with pytest.raises(ValueError):
            reconcile(handle, FormulaQuery("decoder", "classic", n=2))
        with pytest.raises(ValueError):
            reconcile(handle, FormulaQuery("decoder", "fast", n=3))
        with pytest.raises(ValueError):
            reconcile(handle, FormulaQuery("multiplexer", "fast", n=2))


class TestPorts:
    def test_decoder_port_names(self):
        net = Network()
        css = build_css(net)
        decoder = build_decoder(net, 2, "fast", css)
        assert set(decoder.inputs) == {"s0", "s1"}
        assert set(decoder.outputs) == {"ch0", "ch1", "ch2", "ch3"}

    def test_encoder_d0_exists_unconnected(self):
        net = Network()
        encoder = build_encoder(net, 4)
        assert encoder.input_taps("d0") == ()
        assert set(encoder.outputs) == {"or0", "or1"}

    def test_encoder_build_peak_memory(self):
        # an OR gate has one input port, not one per input it ORs, so
        # 4096 inputs (12 OR gates of 2048 inputs each) peak under 2 MB
        tracemalloc.start()
        try:
            build_encoder(Network(), 4096)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2 ** 20

    def test_mux_demux_port_names(self):
        net = Network()
        css = build_css(net)
        mux = build_multiplexer(net, 1, "classic", css)
        assert set(mux.inputs) == {"s0", "d0", "d1"}
        assert set(mux.outputs) == {"out"}
        demux = build_demultiplexer(net, 1, "classic", css)
        assert set(demux.inputs) == {"s0", "d"}
        assert set(demux.outputs) == {"ch0", "ch1"}

    def test_memory_port_names(self):
        net = Network()
        css = build_css(net)
        memory = build_memory(net, 2, 2, "fast", css)
        assert set(memory.inputs) == {"s0", "s1", "d0", "d1"}
        assert set(memory.outputs) == {"q1_0", "q1_1", "q2_0", "q2_1"}

    def test_bad_and_kind_rejected(self):
        net = Network()
        css = build_css(net)
        with pytest.raises(ValueError):
            build_decoder(net, 2, "sluggish", css)


# each block kind at a small and a larger size (the D latch alone and
# after another), built after a CSS of its own
LEDGER_BUILDS = {
    "decoder": lambda net, ak, css, big: build_decoder(net, 1 + 2 * big, ak, css),
    "encoder": lambda net, ak, css, big: build_encoder(net, 2 + 3 * big),
    "multiplexer": lambda net, ak, css, big: build_multiplexer(
        net, 1 + big, ak, css),
    "demultiplexer": lambda net, ak, css, big: build_demultiplexer(
        net, 1 + 2 * big, ak, css),
    "d_latch": lambda net, ak, css, big: [
        build_d_latch(net, ak, css) for _ in range(1 + big)][-1],
    "memory": lambda net, ak, css, big: build_memory(
        net, 1 + 2 * big, 1 + big, ak, css),
}


@pytest.mark.parametrize("big", [False, True])
@pytest.mark.parametrize("ak", KINDS)
@pytest.mark.parametrize("kind", BLOCK_KINDS)
def test_category_ledger_labels_every_block_synapse(kind, ak, big):
    net = Network()
    css = build_css(net)
    block = LEDGER_BUILDS[kind](net, ak, css, big)
    assert len(net.categories) == len(net.synapses)
    assert block.synapses.stop == len(net.synapses)
    assert all(net.categories[i] for i in block.synapses)
    # the CSS bootstrap synapse, from its one source, is the only
    # unlabelled synapse
    unlabelled = [i for i, label in enumerate(net.categories) if not label]
    assert len(unlabelled) == 1 and unlabelled[0] in css.synapses
    assert net.synapses[unlabelled[0]].source in net.sources
    if kind == "memory":
        for span in ("entities", "synapses"):
            inner, outer = getattr(block.decoder, span), getattr(block, span)
            assert outer.start <= inner.start and inner.stop <= outer.stop


@pytest.mark.parametrize("kind, size", [
    ("decoder", (2,)), ("multiplexer", (2,)), ("demultiplexer", (2,)),
    ("d_latch", ()), ("memory", (3, 2)),
])
def test_classic_equals_fast_shifted_by_latency_difference(kind, size):
    # one network holds both blocks, each port of both driven by one
    # source per input bit; 20 seeded streams of 60 random words
    latency = {ak: expected_latency(kind, ak) for ak in KINDS}
    shift = latency["classic"] - latency["fast"]
    rng = random.Random(7)
    for _ in range(20):
        net = Network()
        built = {ak: build_block(net, kind, ak, size) for ak in KINDS}
        ports = list(built["classic"].inputs)
        assert list(built["fast"].inputs) == ports
        words = [rng.randrange(2 ** len(ports)) for _ in range(60)]
        duration = len(words) + latency["classic"] + 3
        for k, port in enumerate(ports):
            source = net.add_source(
                [1 + i for i, word in enumerate(words) if word >> k & 1])
            for block in built.values():
                drive(net, block, port, source)
        outputs = {ak: list(built[ak].outputs.values()) for ak in KINDS}
        net.record(*outputs["classic"], *outputs["fast"])
        record = net.run(duration)
        for classic, fast in zip(outputs["classic"], outputs["fast"]):
            got = {t for t in record.times(classic) if t > latency["classic"]}
            want = {t + shift for t in record.times(fast)
                    if latency["classic"] < t + shift < duration}
            assert got == want, (kind, words)


# sizes as harness.build_block takes them, small enough for many examples
DELAY_SIZES = {
    "decoder": st.tuples(st.integers(1, 3)),
    "encoder": st.tuples(st.integers(2, 6)),
    "multiplexer": st.tuples(st.integers(1, 2)),
    "demultiplexer": st.tuples(st.integers(1, 3)),
    "d_latch": st.just(()),
    "memory": st.tuples(st.integers(1, 4), st.integers(1, 3)),
}


@pytest.mark.parametrize("ak", KINDS)
@pytest.mark.parametrize("kind", BLOCK_KINDS)
@settings(max_examples=50)
@given(data=st.data())
def test_delaying_every_input_delays_every_output(kind, ak, data):
    # words presented from t = 1 and from t = 1 + k give the same output
    # trains k ms apart, compared once both are past the latency
    size = data.draw(DELAY_SIZES[kind], label="size")
    k = data.draw(st.integers(0, 13), label="k")
    ak, _ = block_config(kind, ak)  # None without an AND stage
    width = len(build_block(Network(), kind, ak, size).inputs)
    words = data.draw(st.lists(st.integers(0, 2 ** width - 1),
                               min_size=1, max_size=24), label="words")
    latency = expected_latency(kind, ak)
    duration = k + len(words) + latency + 3
    trains = []
    for delay in (0, k):
        net = Network()
        block = build_block(net, kind, ak, size)
        for b, port in enumerate(block.inputs):
            drive(net, block, port, net.add_source(
                [delay + 1 + i for i, word in enumerate(words) if word >> b & 1]))
        outputs = list(block.outputs.values())
        net.record(*outputs)
        record = net.run(duration)
        trains.append([record.trains[eid] for eid in outputs])
    start = k + latency + 1
    window = (1 << duration - start) - 1
    assert [train >> start & window for train in trains[1]] == [
        train >> start - k & window for train in trains[0]]


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def _memory_digests(registers: int, bits: int, ak: str) -> list[str]:
    """sha256 of netlist.dumps, of the resource report and of the
    category ledger of a memory built after a CSS of its own."""
    net = Network()
    memory = build_memory(net, registers, bits, ak, build_css(net))
    return [_sha256(netlist.dumps(net)),
            _sha256(json.dumps(dataclasses.asdict(memory.resources))),
            _sha256("\n".join(net.categories))]


# r, c, AND kind and the three digests above, for r in {1, 2, 3, 5, 7,
# 15, 63} and c in {1, 2, 3, 8}: pins entity ids, synapse order, labels
# and reports; generated while every latch still ran its own builder
MEMORY_DIGESTS = [(int(r), int(c), ak, digests) for r, c, ak, *digests in (
    line.split() for line in (Path(__file__).parent / "data" /
                              "memory-netlist-sha256.txt").read_text(
        encoding="ascii").splitlines())]


@pytest.mark.parametrize("registers, bits, ak, digests", MEMORY_DIGESTS,
                         ids=[f"r{r}-c{c}-{ak}" for r, c, ak, _ in MEMORY_DIGESTS])
def test_memory_netlists_are_pinned(registers, bits, ak, digests):
    assert _memory_digests(registers, bits, ak) == digests


def _latch_shape(net: Network, latch) -> tuple:
    """A D latch handle with its ids made relative to its first entity,
    ids outside its span (the CSS phases) kept: span sizes, ports and
    the labelled synapses of its span."""
    def rel(eid: int):
        return eid - latch.entities.start if eid in latch.entities else ("at", eid)
    span = slice(latch.synapses.start, latch.synapses.stop)
    return (len(latch.entities),
            {name: [(rel(t.target), t.weight_quanta, t.delay_ms, t.category)
                    for t in taps] for name, taps in latch.inputs.items()},
            {name: rel(eid) for name, eid in latch.outputs.items()},
            [(rel(source), rel(target), weight, delay, label)
             for (source, target, weight, delay), label in zip(
                 net.synapses[span], net.categories[span])])


@pytest.mark.parametrize("ak", KINDS)
def test_stamped_latches_equal_a_built_one(ak, monkeypatch):
    # every latch of a memory but the first is a copy of it, made as a
    # copy of the latch or of a whole row; each must equal a latch built
    # alone, and the memory's ports must be those of the copies. Latch k
    # sits k latch widths after latch 0, and its synapses k blocks of
    # (latch synapses, store wire, data_not wire) after latch 0's.
    net = Network()
    alone = build_d_latch(net, ak, build_css(net))
    built = []

    def spy(*args, **kwargs):
        built.append(build_d_latch(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(blocks, "build_d_latch", spy)
    memory_net = Network()
    memory = build_memory(memory_net, 5, 3, ak, build_css(memory_net))
    [template] = built
    # a copy shares its template's report, kind and AND kind
    assert template.resources == alone.resources
    assert (template.kind, template.and_kind) == (alone.kind, alone.and_kind)
    width = len(template.entities)
    block = len(template.synapses) + len(template.input_taps("store")) + len(
        template.input_taps("data_not"))
    q_ids = []
    for k in range(5 * 3):
        offset, shift = k * width, k * block
        latch = dataclasses.replace(
            template,
            inputs={name: padded(taps, 0, offset)
                    for name, taps in template.inputs.items()},
            outputs={name: eid + offset
                     for name, eid in template.outputs.items()},
            entities=range(template.entities.start + offset,
                           template.entities.stop + offset),
            synapses=range(template.synapses.start + shift,
                           template.synapses.stop + shift))
        assert _latch_shape(memory_net, latch) == _latch_shape(net, alone)
        q_ids.append(latch.output("q"))
    assert [memory.output(f"q{k // 3 + 1}_{k % 3}") for k in range(5 * 3)] == q_ids
    assert memory.synapses.stop == template.synapses.start + 5 * 3 * block


def _per_latch_memory(net, registers, bits, and_kind, css):
    """The memory as built before its rows were copied: one latch at a
    time, each run through build_d_latch and followed by its store and
    data_not wires. It is the reference the row-copying build must
    equal; it returns what blocks.build_memory returns."""
    decoder = build_decoder(net, registers.bit_length(), and_kind, css)
    start = (decoder.entities.start, decoder.synapses.start)
    column_nots = [build_not(net, css) for _ in range(bits)]
    latches = []
    for k in range(registers * bits):
        latch = build_d_latch(net, and_kind, css)
        wire(net, decoder.output(f"ch{k // bits + 1}"), latch.input_taps("store"))
        wire(net, column_nots[k % bits].output(),
             padded(latch.input_taps("data_not"),
                    expected_latency("decoder", and_kind) - 1))
        latches.append(latch)
    inputs = dict(decoder.inputs)
    for j in range(bits):
        taps = list(padded(column_nots[j].input_taps("in"), category="Data to NOT"))
        for latch in latches[j::bits]:
            taps.extend(padded(latch.input_taps("data"),
                               expected_latency("decoder", and_kind)))
        inputs[f"d{j}"] = tuple(taps)
    outputs = {f"q{k // bits + 1}_{k % bits}": latch.output("q")
               for k, latch in enumerate(latches)}
    return blocks._block(net, start, "memory", and_kind,
                         {"registers": registers, "bits": bits},
                         inputs, outputs, css, decoder=decoder)


def _memory_block(build, registers: int, bits: int, ak: str) -> tuple:
    """Everything a memory puts in a network of its own after a CSS, and
    its handle's spans, ports (in order) and report."""
    net = Network()
    memory = build(net, registers, bits, ak, build_css(net))
    return (net.neurons, net.synapses, net.categories, memory.entities,
            memory.synapses, list(memory.inputs.items()),
            list(memory.outputs.items()), memory.resources)


@given(st.integers(1, 40), st.integers(1, 9), st.sampled_from(KINDS))
def test_row_copied_memory_equals_per_latch_build(registers, bits, ak):
    assert (_memory_block(build_memory, registers, bits, ak)
            == _memory_block(_per_latch_memory, registers, bits, ak))


@pytest.mark.parametrize("ak", KINDS)
def test_memory_rows_after_the_first_make_no_connect_call(ak, monkeypatch):
    # r = 4 to 7 share a 3-line decoder, so only the rows differ
    calls = []
    connect = Network.connect

    def counted(net, *args):
        calls.append(args)
        return connect(net, *args)

    monkeypatch.setattr(Network, "connect", counted)
    made = []
    for registers in range(4, 8):
        calls.clear()
        net = Network()
        build_memory(net, registers, 5, ak, build_css(net))
        made.append(len(calls))
    assert len(set(made)) == 1


def _per_gate_select_stage(net, n, and_kind, css, fan_in):
    """The select stage as built before its gates were copied: one AND
    builder call per gate. It is the reference the copying stage must
    equal; it returns what blocks._select_stage returns."""
    if n < 1:
        raise ValueError("select width n must be >= 1")
    _require_css(css)
    inverters = [build_not(net, css) for _ in range(n)]
    gates = [blocks._and_gate(net, and_kind, css, fan_in) for _ in range(2 ** n)]
    # the inverted taps carry the label of the inverters' wires
    inverted = [padded(gate.input_taps("in"), category=f"NOT to AND ({and_kind})")
                for gate in gates]
    select_ports = {}
    for b in range(n):
        taps = list(inverters[b].input_taps("in"))
        for j, gate in enumerate(gates):
            if (j >> b) & 1:
                taps.extend(padded(gate.input_taps("in"), 1))
            else:
                wire(net, inverters[b].output(), inverted[j])
        select_ports[f"s{b}"] = tuple(taps)
    # an AND has one input port, which every select line drives
    assert all(list(gate.inputs) == ["in"] for gate in gates)
    # the gates' taps in channel order, one tuple
    return ([gate.output() for gate in gates], tuple(chain.from_iterable(inverted)),
            select_ports)


SELECT_BUILDERS = {"decoder": build_decoder, "multiplexer": build_multiplexer,
                   "demultiplexer": build_demultiplexer}


def _select_block(kind: str, n: int, ak: str) -> tuple:
    """Everything a select block puts in a network of its own after a
    CSS, and its handle's spans, ports (in order) and report."""
    net = Network()
    block = SELECT_BUILDERS[kind](net, n, ak, build_css(net))
    return (net.neurons, net.synapses, net.categories, block.entities,
            block.synapses, list(block.inputs.items()),
            list(block.outputs.items()), block.resources)


@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("ak", KINDS)
@pytest.mark.parametrize("kind", SELECT_BUILDERS)
def test_copied_select_stage_equals_per_gate_build(kind, ak, n, monkeypatch):
    copied = _select_block(kind, n, ak)
    monkeypatch.setattr(blocks, "_select_stage", _per_gate_select_stage)
    assert _select_block(kind, n, ak) == copied


@pytest.mark.parametrize("ak", KINDS)
@pytest.mark.parametrize("kind, calls", [
    ("decoder", 1), ("multiplexer", 1), ("demultiplexer", 1),
    # the memory's decoder, then the two ANDs of its one built latch
    ("memory", 3),
])
def test_select_stage_runs_one_and_builder(kind, calls, ak, monkeypatch):
    made = []
    for name in ("build_and_classic", "build_and_fast"):
        def spy(*args, _builder=getattr(blocks, name)):
            made.append(args)
            return _builder(*args)
        monkeypatch.setattr(blocks, name, spy)
    net = Network()
    build_block(net, kind, ak, (7, 2) if kind == "memory" else (4,))
    assert len(made) == calls


@pytest.mark.parametrize("build", [
    lambda net, css: build_decoder(net, True, "fast", css),
    lambda net, css: build_decoder(net, 2.0, "classic", css),
    lambda net, css: build_multiplexer(net, 2.0, "fast", css),
    lambda net, css: build_demultiplexer(net, False, "fast", css),
    lambda net, css: build_memory(net, 1, True, "fast", css),
    lambda net, css: build_memory(net, 1, 2.0, "fast", css),
    lambda net, css: build_memory(net, 1.5, 2, "fast", css),
    lambda net, css: build_memory(net, True, 1, "classic", css),
    lambda net, css: build_encoder(net, 3.0),
    lambda net, css: build_encoder(net, True),
    lambda net, css: build_and_fast(net, css, 2.0),
    lambda net, css: build_and_classic(net, True),
], ids=["decoder-bool", "decoder-float", "mux-float", "demux-bool",
        "memory-bits-bool", "memory-bits-float", "memory-registers-float",
        "memory-registers-bool", "encoder-float", "encoder-bool",
        "and-fast-float", "and-classic-bool"])
def test_builders_reject_sizes_that_are_not_ints(build):
    net = Network()
    css = build_css(net)
    with pytest.raises(ValueError, match="must be an int"):
        build(net, css)
