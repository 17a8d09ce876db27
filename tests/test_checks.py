"""Every count, size, duration, valid_from, spike-time list and train is
checked by one rule: anything else raises ValueError naming it."""

import json
import re

import pytest

from spikelogic import blocks, harness, netlist
from spikelogic.gates import InputTap, build_css, build_not, padded
from spikelogic.harness import (
    ExperimentConfig,
    build_block,
    check_pipelined,
    export_spikes,
    run_experiment,
    spike_csv,
    verify_block,
)
from spikelogic.oracles import memory_states
from spikelogic.resources import FormulaQuery, formula_resources
from spikelogic.sim import Network, SpikeRecord, spike_train
from spikelogic.trace import SpikeRow, Trace, hex_word_row, spike_row, value_row


def _neuron() -> Network:
    net = Network()
    net.add_neuron()
    return net


TAPS = (InputTap(0, 1, 1, "a"), InputTap(1, -1, 2, "b"))


def _shared_id() -> dict:
    """A netlist document whose id 0 is a neuron and a source."""
    doc = json.loads(netlist.dumps(_neuron()))
    doc["sources"] = [{"id": 0, "times": []}]
    return doc


# (call, what its message must name)
CALLS = {
    "add_source-int": (lambda: Network().add_source(5), "source spike times"),
    "stimulus-int": (lambda: run_experiment("d-latch", ExperimentConfig(
        stimulus={"store": 5})), "stimulus times of signal store"),
    "stimulus-none": (lambda: run_experiment("d-latch", ExperimentConfig(
        stimulus={"store": None})), "stimulus times of signal store"),
    "export-none": (lambda: export_spikes({"a": None}), "spike times of a"),
    "spike_train-str": (lambda: spike_train(["1"]), "spike times"),
    "spike_train-bool": (lambda: spike_train([True]), "spike times"),
    "formula-float": (lambda: formula_resources(
        FormulaQuery("decoder", "fast", n=2.5)), "decoder's n"),
    "formula-str": (lambda: formula_resources(
        FormulaQuery("decoder", "fast", n="3")), "decoder's n"),
    "build-float": (lambda: build_block(Network(), "memory", "fast", (2.5, 3)),
                    "memory registers"),
    "check-str": (lambda: check_pipelined("memory", "fast", ("3", 2), [0], "x"),
                  "memory registers"),
    "check-none": (lambda: check_pipelined("memory", "fast", (None, 2), [0], "x"),
                   "memory registers"),
    "query-str": (lambda: harness.block_query("memory", "fast", ("3", 2)),
                  "memory registers"),
    "query-none": (lambda: harness.block_query("memory", "fast", (None, 2)),
                   "memory registers"),
    "build-int-size": (lambda: build_block(Network(), "decoder", "fast", 3),
                       "decoder takes a size (n)"),
    "check-none-size": (lambda: check_pipelined("d_latch", "fast", None, [0], "x"),
                        "d_latch takes a size ()"),
    # a train is an int >= 0: -1 is not every tick
    "spike_row-train": (lambda: spike_row("a", -1, 3), "train of a"),
    "hex_word_row-train": (lambda: hex_word_row("r", [-1, 0], 4), "spike train"),
    "spike_csv-train": (lambda: list(spike_csv({"a": -1}, range(3))),
                        "spike train"),
    "record-train": (lambda: SpikeRecord(3, trains={0: -1}).times(0),
                     "spike train"),
    # a train with a spike at or past its row's duration
    "SpikeRow-train": (lambda: SpikeRow("a", 8, 3), "spike row's train"),
    "output-port": (lambda: build_css(Network()).output("nope"),
                    "css has no output port 'nope'"),
    "not-without-css": (lambda: build_not(Network(), None),
                        "constant spike source handle"),
    "netlist-shared-id": (lambda: netlist.from_document(_shared_id()),
                          "both neuron and source"),
    "memory_states-lengths": (lambda: memory_states([1, 2], [1], 2, 2),
                              "equal length"),
    "formula-form": (lambda: formula_resources(
        FormulaQuery("decoder", "fast", "x", n=2)), "unknown form 'x'"),
    # an offset is an int, or a sequence of them, a bool refused: True
    # would move every tap onto the next neuron id
    "padded-offset-bool": (lambda: padded(TAPS, 0, True), "offset"),
    "padded-offset-float": (lambda: padded(TAPS, 0, 1.0), "offset"),
    "padded-offset-str": (lambda: padded(TAPS, 0, "1"), "offset"),
    "padded-offset-none": (lambda: padded(TAPS, 0, None), "offset"),
    "padded-offsets-bool": (lambda: padded(TAPS, 0, [0, True]), "offset"),
    "padded-offsets-set": (lambda: padded(TAPS, 0, {0, 3}), "offset"),
    "padded-category-int": (lambda: padded(TAPS, category=5), "category"),
}
# each takes one int of at least some value
TAKES_INT = {
    "add_neuron": (lambda v: Network().add_neuron(v), "threshold_quanta"),
    "run": (lambda v: _neuron().run(v), "duration_ms"),
    "copy-count": (lambda v: _neuron().copy(range(1), range(0), count=v),
                   "count"),
    "spike_row": (lambda v: spike_row("a", 1, 3, valid_from=v), "valid_from"),
    "value_row": (lambda v: value_row("v", ["x"], valid_from=v), "valid_from"),
    "hex_word_row": (lambda v: hex_word_row("r", [1], 3, valid_from=v),
                     "valid_from"),
    "spike_row-duration": (lambda v: spike_row("a", 1, v), "duration_ms"),
    "hex_word_row-duration": (lambda v: hex_word_row("r", [1], v),
                              "duration_ms"),
    "SpikeRow-duration": (lambda v: SpikeRow("a", 0, v), "duration_ms"),
    "Trace-duration": (lambda v: Trace(v), "duration_ms"),
    "SpikeRecord-duration": (lambda v: SpikeRecord(v, trains={0: 1}),
                             "duration_ms"),
    "memory_states-registers": (lambda v: memory_states([1], [1], v, 2),
                                "registers"),
    "memory_states-bits": (lambda v: memory_states([1], [1], 2, v), "bits"),
    "formula-n": (lambda v: formula_resources(
        FormulaQuery("decoder", "fast", n=v)), "decoder's n"),
    "formula-m": (lambda v: formula_resources(
        FormulaQuery("demultiplexer", "fast", "m", m=v)), "demultiplexer's m"),
    "formula-c": (lambda v: formula_resources(
        FormulaQuery("memory", "fast", n=2, c=v)), "memory's c"),
    "formula-r": (lambda v: formula_resources(
        FormulaQuery("memory", "fast", "m", r=v, c=2)), "memory's r"),
    "padded-delay": (lambda v: padded(TAPS, v), "extra_delay_ms"),
}
for _name, (_call, _named) in TAKES_INT.items():
    for _value in (True, 1.5, "1", None, -1):
        CALLS[f"{_name}-{_value!r}"] = (lambda c=_call, v=_value: c(v), _named)


@pytest.mark.parametrize("call, named", CALLS.values(), ids=CALLS)
def test_bad_input_raises_naming_it(call, named):
    with pytest.raises(ValueError, match=re.escape(named)):
        call()


@pytest.mark.parametrize("call, admits", [
    (lambda: run_experiment("decoder-encoder"), 3),
    (lambda: run_experiment("mux-demux"), 2),
    (lambda: run_experiment("d-latch"), 1),
    (lambda: run_experiment("memory"), 2),
    (lambda: verify_block("decoder"), 10),
    (lambda: verify_block("multiplexer"), 10),
    (lambda: verify_block("demultiplexer"), 10),
    (lambda: verify_block("encoder"), 7),
    (lambda: verify_block("d_latch"), 7),
    (lambda: verify_block("memory"), 7),
], ids=["decoder-encoder", "mux-demux", "d-latch", "memory", "verify-decoder",
        "verify-multiplexer", "verify-demultiplexer", "verify-encoder",
        "verify-d_latch", "verify-memory"])
def test_each_public_call_prices_its_blocks_as_often(call, admits, monkeypatch):
    # each public entry checks its own input, so a block is priced once
    # per entry it passes through; the counts must not grow
    calls = []
    admit = harness._admit
    monkeypatch.setattr(harness, "_admit",
                        lambda *args: calls.append(args) or admit(*args))
    call()
    assert len(calls) == admits


@pytest.mark.parametrize("call, connects, paddeds", [
    (lambda: check_pipelined("decoder", "fast", (10,), [0, 1023, 5], "x"), 25, 2),
    (lambda: check_pipelined("decoder", "fast", (10,), range(1, 600, 7), "x"),
     25, 2),
    (lambda: build_block(Network(), "memory", "classic", (63, 8)), 35, 24),
], ids=["decoder-3-words", "decoder-86-words", "memory-63x8"])
def test_a_block_is_wired_a_driver_at_a_time(call, connects, paddeds,
                                             monkeypatch):
    # a driver's taps go in one Network.connect_taps call and a port's
    # taps come from one padded call, so neither count grows with the
    # block; a per-tap loop would make thousands
    calls = {"connect": 0, "padded": 0}

    def counted(name, function):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(Network, "connect", counted("connect", Network.connect))
    monkeypatch.setattr(blocks, "padded", counted("padded", blocks.padded))
    call()
    assert calls == {"connect": connects, "padded": paddeds}
