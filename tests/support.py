"""Helpers shared by the test modules."""

import json
import random

from spikelogic import netlist
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
