"""Versioned JSON serialization of a network.

The document records everything a simulation depends on: every neuron
with its threshold, every source with its schedule, every synapse, and
which ids are recorded. Ids are written out explicitly and entities are
recreated in ascending id order on import, so an imported network is
simulation-identical to the original, synapse for synapse. A free-form
annotations object rides along for block and port metadata; it is
preserved verbatim and never interpreted here.

Every neuron entry also carries "refractory_ms": 1 and
"carryover_factor": "0", the one regime the simulator has: a neuron may
fire on back-to-back milliseconds and keeps no charge between them. The
fields keep the format at version 1; the loader accepts no other values.
"""

from __future__ import annotations

import json
from itertools import islice
from typing import Iterable, Iterator

from .sim import Network

FORMAT = "spiking-netlist"
VERSION = 1


def _field(entry, key: str, where: str):
    if not isinstance(entry, dict) or key not in entry:
        raise ValueError(f"{where} has no {key!r} field")
    return entry[key]


# the fields every neuron entry holds, each with its one value
_FIXED = {"refractory_ms": 1, "carryover_factor": "0"}


def _entries(entry, key: str, where: str = "netlist") -> list:
    value = _field(entry, key, where)
    if not isinstance(value, list):
        raise ValueError(f"{where} field {key!r} must be a list")
    return value


def _by_id(doc: dict, key: str, where: str) -> dict:
    """The entries of one entity table by id; an id that is not an int,
    or that is repeated, raises ValueError."""
    entries = {}
    for entry in _entries(doc, key):
        eid = _field(entry, "id", where)
        if type(eid) is not int:
            raise ValueError(f"{where} field 'id' must be an integer, not {eid!r}")
        if eid in entries:
            raise ValueError(f"{where} field 'id' repeats {eid}")
        entries[eid] = entry
    return entries


def from_document(doc: dict) -> tuple[Network, dict]:
    """Rebuild a network from a document; returns (net, annotations). A
    missing field, a value of the wrong type, a fixed neuron field with
    another value, a non-list entity table, a repeated id or non-object
    annotations raise ValueError."""
    if not isinstance(doc, dict) or doc.get("format") != FORMAT:
        raise ValueError(f"not a {FORMAT} document")
    version = doc.get("version")
    # type() rather than ==: true and 1.0 equal 1 but are not the version
    if type(version) is not int or version != VERSION:
        raise ValueError(f"unsupported netlist version {version!r}")
    annotations = doc.get("annotations", {})
    if not isinstance(annotations, dict):
        raise ValueError("netlist field 'annotations' must be an object, "
                         f"not {annotations!r}")
    neuron_entries = _by_id(doc, "neurons", "neuron entry")
    source_entries = _by_id(doc, "sources", "source entry")
    if neuron_entries.keys() & source_entries.keys():
        raise ValueError("an id appears as both neuron and source")
    total = len(neuron_entries) + len(source_entries)
    if set(neuron_entries) | set(source_entries) != set(range(total)):
        raise ValueError("entity ids must be dense from 0")
    net = Network()
    for eid in range(total):
        if eid in neuron_entries:
            entry = neuron_entries[eid]
            where = f"neuron {eid}"
            for key, value in _FIXED.items():
                got = _field(entry, key, where)
                # type() rather than ==: true equals 1 but is not the value
                if type(got) is not type(value) or got != value:
                    raise ValueError(f"{where} field {key!r} must be "
                                     f"{json.dumps(value)}, not {got!r}")
            net.add_neuron(_field(entry, "threshold_quanta", where))
        else:
            net.add_source(_entries(source_entries[eid], "times", f"source {eid}"))
    for k, syn in enumerate(_entries(doc, "synapses")):
        net.connect(*(_field(syn, key, f"synapse {k}") for key in
                      ("source", "target", "weight_quanta", "delay_ms")))
    recorded = _entries(doc, "recorded")
    net.record(*recorded)
    if len(net.recorded) != len(recorded):
        raise ValueError("netlist field 'recorded' repeats an id")
    return net, annotations


# the document is written as json.dumps(..., indent=2) would, without
# its pure-Python encoder: one template per neuron and per synapse,
# whose fields are all ints (the Network checks them), and json.dumps
# for the rest
_NEURON = ('    {\n      "id": %d,\n      "threshold_quanta": %d,\n'
           '      "refractory_ms": 1,\n      "carryover_factor": "0"\n    }')
_SOURCE = '    {\n      "id": %d,\n      "times": %s\n    }'
_SYNAPSE = ('    {\n      "source": %d,\n      "target": %d,\n'
            '      "weight_quanta": %d,\n      "delay_ms": %d\n    }')
# the entries of one chunk of the document
_BLOCK = 256


def _ints(values, depth: int) -> str:
    """A list of ints as json.dumps(indent=2) writes it at the given depth,
    from the one-line (C-encoded) text."""
    if not values:
        return "[]"
    pad = "\n" + "  " * depth
    items = json.dumps(list(values))[1:-1].replace(", ", "," + pad + "  ")
    return "[" + pad + "  " + items + pad + "]"


def _table(entries: Iterable[str]) -> Iterator[str]:
    """A list of entries, _BLOCK of them a chunk."""
    entries = iter(entries)
    head = "[\n"
    while block := list(islice(entries, _BLOCK)):
        yield head + ",\n".join(block)
        head = ",\n"
    yield "[]" if head == "[\n" else "\n  ]"


def _chunks(net: Network, annotations: dict | None = None) -> Iterator[str]:
    """The document of net, in chunks of at most _BLOCK entries."""
    yield (f'{{\n  "format": {json.dumps(FORMAT)},\n  "version": {VERSION},\n'
           '  "neurons": ')
    yield from _table(_NEURON % (nid, net.neurons[nid])
                      for nid in sorted(net.neurons))
    yield ',\n  "sources": '
    yield from _table(_SOURCE % (sid, _ints(net.sources[sid], 3))
                      for sid in sorted(net.sources))
    yield ',\n  "synapses": '
    yield from _table(map(_SYNAPSE.__mod__, zip(*net._columns)))
    annotations = json.dumps(annotations or {}, indent=2).replace("\n", "\n  ")
    yield (f',\n  "recorded": {_ints(net.recorded, 1)},\n'
           f'  "annotations": {annotations}\n}}\n')


def dumps(net: Network, annotations: dict | None = None) -> str:
    return "".join(_chunks(net, annotations))


def loads(text: str) -> tuple[Network, dict]:
    return from_document(json.loads(text))


def save(net: Network, path, annotations: dict | None = None) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.writelines(_chunks(net, annotations))


def load(path) -> tuple[Network, dict]:
    with open(path, "r", encoding="ascii") as fh:
        return loads(fh.read())
