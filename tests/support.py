"""Helpers shared by the test modules."""

import json
import random

from spikelogic import harness, netlist
from spikelogic.sim import Network


def to_document(net: Network, annotations: dict | None = None) -> dict:
    """The netlist as a JSON object: what netlist.dumps writes, parsed."""
    return json.loads(netlist.dumps(net, annotations))


def shuffle_synapses(net: Network, seed: int) -> Network:
    """Rebuild the network with its synapse list randomly permuted;
    entity ids are unchanged, so spike records stay comparable."""
    doc = to_document(net)
    random.Random(seed).shuffle(doc["synapses"])
    rebuilt, _ = netlist.from_document(doc)
    return rebuilt


def refuse_builds(monkeypatch) -> None:
    """Make every builder the harness calls raise AssertionError."""
    def no_build(*args, **kwargs):
        raise AssertionError("a builder ran")

    for name in vars(harness):
        if name.startswith("build_"):
            monkeypatch.setattr(harness, name, no_build)


def slow_one_synapse(monkeypatch, builder: str, category: str) -> None:
    """Wrap harness.<builder> so that the first synapse labelled category
    in the block it builds takes 1 ms longer than built."""
    build = getattr(harness, builder)

    def slowed(net, *args):
        block = build(net, *args)
        k = next(k for k in block.synapses if net.categories[k] == category)
        delays = net._columns[3]  # the delay column
        delays[k] += 1
        return block

    monkeypatch.setattr(harness, builder, slowed)
