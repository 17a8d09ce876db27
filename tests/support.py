"""Helpers shared by the test modules."""

import random

from spikelogic import netlist
from spikelogic.sim import Network


def shuffle_synapses(net: Network, seed: int) -> Network:
    """Rebuild the network with its synapse list randomly permuted;
    entity ids are unchanged, so spike records stay comparable."""
    doc = netlist.to_document(net)
    random.Random(seed).shuffle(doc["synapses"])
    rebuilt, _ = netlist.from_document(doc)
    return rebuilt
