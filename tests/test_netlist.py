"""Netlist serialization round trips."""

import hashlib
import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from spikelogic import netlist
from spikelogic.harness import ExperimentConfig, run_experiment
from spikelogic.blocks import build_decoder
from spikelogic.gates import build_css, drive
from spikelogic.sim import Network
from support import shuffle_synapses, to_document


def decoder_net():
    net = Network()
    css = build_css(net)
    decoder = build_decoder(net, 2, "fast", css)
    for b in range(2):
        drive(net, decoder, f"s{b}", net.add_source([1 + b, 4]))
    net.record(*(decoder.output(f"ch{j}") for j in range(4)))
    return net


def test_round_trip_simulates_identically():
    net = decoder_net()
    rebuilt, annotations = netlist.loads(netlist.dumps(net, {"note": "x"}))
    assert annotations == {"note": "x"}
    assert rebuilt.run(12) == net.run(12)


def test_decoder_fast_n2_has_eight_neuron_entries():
    doc = to_document(decoder_net())
    assert len(doc["neurons"]) == 8
    assert len(doc["sources"]) == 3  # CSS bootstrap + two selects
    assert doc["format"] == netlist.FORMAT
    assert doc["version"] == netlist.VERSION


def test_synapse_count_matches_network():
    net = decoder_net()
    doc = to_document(net)
    assert len(doc["synapses"]) == len(net.synapses)


def test_rejects_foreign_documents():
    doc = to_document(decoder_net())
    with pytest.raises(ValueError):
        netlist.from_document({**doc, "format": "other"})
    with pytest.raises(ValueError):
        netlist.from_document({**doc, "version": 99})


def test_rejects_sparse_ids():
    doc = to_document(decoder_net())
    broken = dict(doc)
    broken["neurons"] = [dict(entry, id=entry["id"] + 100)
                         for entry in doc["neurons"]]
    with pytest.raises(ValueError):
        netlist.from_document(broken)


def test_save_and_load(tmp_path):
    net = decoder_net()
    path = tmp_path / "net.json"
    netlist.save(net, path, {"experiment": "demo"})
    rebuilt, annotations = netlist.load(path)
    assert annotations == {"experiment": "demo"}
    assert rebuilt.run(10) == net.run(10)
    assert path.read_text(encoding="ascii").endswith("\n")


# sha256 of netlist.dumps(result.net) for every experiment and AND kind
# at the default config: pins entity-id and synapse insertion order
DIGESTS = [line.split() for line in (Path(__file__).parent / "data" /
           "netlist-sha256.txt").read_text(encoding="ascii").splitlines()]


@pytest.mark.parametrize("name, ak, digest", DIGESTS)
def test_experiment_netlists_are_pinned(name, ak, digest):
    result = run_experiment(name, ExperimentConfig(and_kind=ak))
    text = netlist.dumps(result.net)
    assert hashlib.sha256(text.encode("ascii")).hexdigest() == digest


def _without(entry: dict, key: str) -> dict:
    return {k: v for k, v in entry.items() if k != key}


def _first_without(table: str, key: str):
    return lambda doc: dict(doc, **{table: [_without(doc[table][0], key),
                                             *doc[table][1:]]})


def _first_with(table: str, key: str, value):
    return lambda doc: dict(doc, **{table: [dict(doc[table][0], **{key: value}),
                                             *doc[table][1:]]})


# case id: (how the document is broken, what the error must name)
MALFORMED = {
    "no-neurons": (lambda doc: _without(doc, "neurons"), "neurons"),
    "no-sources": (lambda doc: _without(doc, "sources"), "sources"),
    "no-synapses": (lambda doc: _without(doc, "synapses"), "synapses"),
    "no-recorded": (lambda doc: _without(doc, "recorded"), "recorded"),
    "neuron-no-threshold": (_first_without("neurons", "threshold_quanta"),
                            "threshold_quanta"),
    "neuron-threshold-0": (_first_with("neurons", "threshold_quanta", 0),
                           "threshold_quanta"),
    "neuron-no-carryover": (_first_without("neurons", "carryover_factor"),
                            "carryover_factor"),
    "neuron-no-id": (_first_without("neurons", "id"), "id"),
    "source-no-times": (_first_without("sources", "times"), "times"),
    "synapse-no-delay": (_first_without("synapses", "delay_ms"), "delay_ms"),
    "synapses-dict": (lambda doc: dict(doc, synapses={"0": doc["synapses"][0]}),
                      "synapses"),
    "synapses-string": (lambda doc: dict(doc, synapses="none"), "synapses"),
    "neuron-not-object": (lambda doc: dict(doc, neurons=[7, *doc["neurons"][1:]]),
                          "id"),
    "document-not-object": (lambda doc: [doc], "spiking-netlist"),
    "neuron-list-id": (_first_with("neurons", "id", [0]), "id"),
    "source-list-id": (_first_with("sources", "id", [0]), "id"),
    "neuron-null-carryover": (_first_with("neurons", "carryover_factor", None),
                              "carryover_factor"),
    "neuron-bad-carryover": (_first_with("neurons", "carryover_factor", "half"),
                             "carryover_factor"),
    # the fixed fields hold only what dumps writes: refractory_ms the
    # int 1 and carryover_factor the string "0"
    "neuron-refractory-0": (_first_with("neurons", "refractory_ms", 0),
                            "refractory_ms"),
    "neuron-refractory-2": (_first_with("neurons", "refractory_ms", 2),
                            "refractory_ms"),
    "neuron-refractory-true": (_first_with("neurons", "refractory_ms", True),
                               "refractory_ms"),
    "neuron-half-carryover": (_first_with("neurons", "carryover_factor", "1/2"),
                              "carryover_factor"),
    "neuron-zero-fraction-carryover": (_first_with("neurons", "carryover_factor",
                                                   "0/1"), "carryover_factor"),
    "neuron-int-carryover": (_first_with("neurons", "carryover_factor", 0),
                             "carryover_factor"),
    "neuron-zero-denominator": (_first_with("neurons", "carryover_factor", "1/0"),
                                "carryover_factor"),
    "neuron-infinite-carryover": (_first_with("neurons", "carryover_factor",
                                              float("inf")), "carryover_factor"),
    "neuron-exponent-carryover": (_first_with("neurons", "carryover_factor",
                                              "1e999999999"), "carryover_factor"),
    "neuron-float-string-carryover": (_first_with("neurons", "carryover_factor",
                                                  "0.5"), "carryover_factor"),
    "neuron-repeated-id": (lambda doc: dict(doc, neurons=[*doc["neurons"],
                                                          doc["neurons"][0]]),
                           "'id' repeats 0"),
    "recorded-repeated-id": (lambda doc: dict(doc, recorded=[
        *doc["recorded"], doc["recorded"][0]]), "recorded"),
    "source-string-time": (_first_with("sources", "times", ["0"]), "times"),
    "source-times-number": (_first_with("sources", "times", 0), "times"),
    "synapse-string-weight": (_first_with("synapses", "weight_quanta", "1"),
                              "weight_quanta"),
    "synapse-float-delay": (_first_with("synapses", "delay_ms", 1.5), "delay_ms"),
    "synapse-list-source": (_first_with("synapses", "source", [0]), "source"),
    "recorded-list-id": (lambda doc: dict(doc, recorded=[[0]]), "entity id"),
    "version-true": (lambda doc: dict(doc, version=True), "version"),
    "version-float": (lambda doc: dict(doc, version=1.0), "version"),
    "annotations-list": (lambda doc: dict(doc, annotations=[1, 2]), "annotations"),
    "annotations-null": (lambda doc: dict(doc, annotations=None), "annotations"),
}


@pytest.mark.parametrize("case", MALFORMED)
def test_malformed_documents_raise_value_error(case):
    breakage, named = MALFORMED[case]
    doc = breakage(to_document(decoder_net()))
    with pytest.raises(ValueError, match=named):
        netlist.from_document(doc)
    with pytest.raises(ValueError, match=named):
        netlist.loads(json.dumps(doc))


def test_document_without_annotations_loads_with_empty_ones():
    doc = to_document(decoder_net())
    del doc["annotations"]
    _, annotations = netlist.from_document(doc)
    assert annotations == {}


# JSON values without NaN (which equals nothing, itself included), with
# keys and strings that hold non-ASCII and control characters
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text()
    | st.floats(allow_nan=False),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=5), children, max_size=3),
    max_leaves=12)


@st.composite
def networks(draw):
    """A random network: neurons with thresholds 1 to 4; sources with
    empty or long schedules; synapses between them; any subset of the
    entities recorded, none included."""
    net = Network()
    for _ in range(draw(st.integers(0, 6))):
        if draw(st.booleans()):
            net.add_neuron(draw(st.integers(1, 4)))
        else:
            net.add_source(sorted(draw(st.one_of(
                st.sets(st.integers(0, 30), max_size=4),
                st.sets(st.integers(0, 400), min_size=40, max_size=60)))))
    if net.neurons:
        entities = st.sampled_from(sorted([*net.neurons, *net.sources]))
        for _ in range(draw(st.integers(0, 12))):
            net.connect(draw(entities), draw(st.sampled_from(sorted(net.neurons))),
                        draw(st.integers(-3, 3).filter(bool)),
                        draw(st.integers(1, 4)))
    ids = sorted([*net.neurons, *net.sources])
    net.record(*draw(st.lists(st.sampled_from(ids), unique=True)
                     if ids else st.just([])))
    return net


def _document(net: Network, annotations: dict | None) -> dict:
    """The netlist document built field by field: the reference the
    templated writer must match."""
    return {
        "format": netlist.FORMAT,
        "version": netlist.VERSION,
        "neurons": [{"id": nid, "threshold_quanta": threshold,
                     "refractory_ms": 1, "carryover_factor": "0"}
                    for nid, threshold in sorted(net.neurons.items())],
        "sources": [{"id": sid, "times": list(times)}
                    for sid, times in sorted(net.sources.items())],
        "synapses": [{"source": syn.source, "target": syn.target,
                      "weight_quanta": syn.weight_quanta,
                      "delay_ms": syn.delay_ms} for syn in net.synapses],
        "recorded": list(net.recorded),
        "annotations": annotations or {},
    }


def _mutated(doc: dict, data) -> dict:
    """doc with one fault drawn from data: a key dropped, a value of
    another type, an id out of range, a fixed neuron field given another
    value of its type, or an entity or recorded id repeated. Annotations
    are free-form, so only their type is changed."""
    tables = [doc["neurons"], doc["sources"], doc["synapses"]]
    entries = [doc, *(entry for table in tables for entry in table)]
    lists = [doc["recorded"], *tables, *(source["times"] for source in doc["sources"])]
    total = len(doc["neurons"]) + len(doc["sources"])
    faults = {
        # every key but the optional annotations
        "drop": [(entry, key) for entry in entries for key in entry
                 if (entry, key) != (doc, "annotations")],
        "type": [(entry, key) for entry in entries for key in entry]
        + [(items, i) for items in lists for i in range(len(items))],
        "range": [(entry, "id") for table in tables[:2] for entry in table]
        + [(syn, key) for syn in doc["synapses"] for key in ("source", "target")]
        + [(doc["recorded"], i) for i in range(len(doc["recorded"]))],
        "fixed": [(entry, key) for entry in doc["neurons"]
                  for key in ("refractory_ms", "carryover_factor")],
        "repeat": [table for table in (doc["neurons"], doc["sources"],
                                       doc["recorded"]) if table],
    }
    fault = data.draw(st.sampled_from([name for name, at in faults.items() if at]))
    at = data.draw(st.sampled_from(faults[fault]))
    if fault == "repeat":
        at.append(data.draw(st.sampled_from(at)))
        return doc
    place, key = at
    if fault == "drop":
        del place[key]
    elif fault == "type":
        place[key] = data.draw(st.sampled_from(
            [None, True, 1, 1.5, "1", [], {}]).filter(
                lambda value: type(value) is not type(place[key])))
    elif fault == "fixed":
        place[key] = data.draw(st.integers(0, 3).filter(lambda ms: ms != 1)
                               if key == "refractory_ms"
                               else st.sampled_from(["1/2", "0/1", "1", ""]))
    else:
        place[key] = data.draw(st.integers(total, total + 3)
                               | st.integers(-3, -1))
    return doc


@settings(max_examples=200)
@given(networks(), st.data())
def test_mutated_documents_raise_value_error(net, data):
    # a valid document with one fault is refused with ValueError, never
    # another exception, and never silently loaded
    doc = _mutated(to_document(net, {"block": "test"}), data)
    with pytest.raises(ValueError):
        netlist.from_document(doc)


@settings(max_examples=60)
@given(networks(), st.none() | st.dictionaries(st.text(max_size=5), JSON_VALUES,
                                               max_size=4))
def test_writer_equals_indented_json_dumps(net, annotations):
    assert netlist.dumps(net, annotations) == json.dumps(
        _document(net, annotations), indent=2) + "\n"
    assert to_document(net, annotations) == _document(net, annotations)


@settings(max_examples=40)
@given(networks(), st.dictionaries(st.text(max_size=5), JSON_VALUES, max_size=4))
def test_random_network_round_trip_simulates_identically(net, annotations):
    text = netlist.dumps(net, annotations)
    assert text.isascii()
    rebuilt, got = netlist.loads(text)
    assert got == annotations
    assert netlist.dumps(rebuilt, got) == text
    assert rebuilt.run(40) == net.run(40)


@settings(max_examples=40)
@given(networks(), st.integers(0, 2 ** 32))
def test_random_network_shuffled_synapses_simulate_identically(net, seed):
    assert shuffle_synapses(net, seed).run(40) == net.run(40)
