"""Differential test of the synapse columns against a list of Synapse."""

import gc
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spikelogic.harness import build_block
from spikelogic.sim import Network, Synapse


class ListModel:
    """The storage the columns replace: a list of Synapse and a list of
    labels, filled by the same rules as Network's."""

    def __init__(self) -> None:
        self.neurons: list[int] = []
        self.entities = 0
        self.synapses: list[Synapse] = []
        self.categories: list[str] = []

    def add(self, neuron: bool) -> int:
        if neuron:
            self.neurons.append(self.entities)
        self.entities += 1
        return self.entities - 1

    def connect(self, source, target, weight, delay, category="") -> int:
        if not (type(source) is int and 0 <= source < self.entities
                and type(target) is int and target in self.neurons
                and type(weight) is int and weight != 0
                and type(delay) is int and delay >= 1
                and type(category) is str):
            raise ValueError("refused")
        self.synapses.append(Synapse(source, target, weight, delay))
        self.categories.append(category)
        return len(self.synapses) - 1

    def connect_taps(self, source, taps) -> None:
        for target, weight, delay, category in taps:
            self.connect(source, target, weight, delay, category)

    def copy(self, entities: range, synapses: range, count: int,
             moved: dict) -> list[int]:
        template = self.synapses[synapses.start:synapses.stop]
        first = self.entities
        if not (entities and all(eid in self.neurons for eid in entities)
                and synapses.stop <= len(self.synapses)
                and all(syn.target in entities for syn in template)
                and all(source not in entities and 0 <= source < first
                        and 0 <= source + count * stride < first
                        for source, stride in moved.items())):
            raise ValueError("refused")
        labels = self.categories[synapses.start:synapses.stop]
        offsets = []
        for k in range(count):
            offset = self.entities - entities.start
            for _ in entities:
                self.add(True)
            for syn, label in zip(template, labels):
                source = syn.source + (
                    offset if syn.source in entities
                    else (k + 1) * moved.get(syn.source, 0))
                self.synapses.append(Synapse(source, syn.target + offset,
                                             syn.weight_quanta, syn.delay_ms))
                self.categories.append(label)
            offsets.append(offset)
        return offsets


LABELS = st.sampled_from(["", "a", "b", "Internal CSS"])
WEIGHTS = st.sampled_from([-3, -1, 1, 2])
DELAYS = st.sampled_from([1, 2, 5])
BAD_WEIGHTS = st.sampled_from([0, True, 1.0])
BAD_DELAYS = st.sampled_from([0, -1, True])


def _template(data, net: Network, model: ListModel) -> tuple[range, range]:
    """Add 1 to 3 neurons to both and wire 1 to 8 synapses into them from
    any entities; returns the neurons' ids and the synapses' indices."""
    entities = range(model.entities, model.entities + data.draw(st.integers(1, 3)))
    for eid in entities:
        assert net.add_neuron() == model.add(True) == eid
    low = len(model.synapses)
    for source in data.draw(st.lists(st.integers(0, model.entities - 1),
                                     min_size=1, max_size=3)):
        taps = data.draw(st.lists(st.tuples(st.sampled_from(entities), WEIGHTS,
                                            DELAYS, LABELS), min_size=1, max_size=3))
        net.connect_taps(source, taps)
        model.connect_taps(source, taps)
    return entities, range(low, len(model.synapses))


def _existing(data, net: Network, model: ListModel) -> tuple[range, range]:
    """Mostly consecutive neurons and the run of synapses into them from
    one of them; sometimes a range past the neurons or any span."""
    if not model.neurons:
        return range(0, 1), range(0)
    start = data.draw(st.sampled_from(model.neurons))
    stop = start + 1
    while stop in model.neurons and stop - start < 3:
        stop += 1
    entities = range(start, data.draw(st.integers(start + 1, stop + 1)))
    inside = [k for k, syn in enumerate(model.synapses) if syn.target in entities]
    low = data.draw(st.sampled_from(inside or [len(model.synapses)]))
    high = low
    while high < len(model.synapses) and model.synapses[high].target in entities:
        high += 1
    if data.draw(st.integers(0, 4)) == 0:
        low, high = sorted(data.draw(st.tuples(
            st.integers(0, len(model.synapses)), st.integers(0, len(model.synapses)))))
    return entities, range(low, high)


def _step(data, net: Network, model: ListModel) -> None:
    """Draw one operation, apply it to both and check both agree on
    what it returned or that both refused it."""
    # mostly a neuron, sometimes any entity or an unknown id (-1, next)
    ids = st.integers(-1, model.entities)
    targets = st.sampled_from(model.neurons) | ids if model.neurons else ids
    good = st.tuples(targets, WEIGHTS, DELAYS, LABELS)
    tap = good | st.tuples(targets, BAD_WEIGHTS | WEIGHTS, BAD_DELAYS | DELAYS,
                           LABELS)
    op = data.draw(st.sampled_from(
        ["neuron", "source", "connect", "taps", "copy", "template"]))
    if op == "neuron":
        assert net.add_neuron() == model.add(True)
        return
    if op == "source":
        assert net.add_source([1, 4]) == model.add(False)
        return
    if op == "connect":
        source, args = data.draw(ids), data.draw(tap)
        calls = (lambda: net.connect(source, *args),
                 lambda: model.connect(source, *args))
    elif op == "taps":
        # all good taps take the bulk path; a refused one, the replay
        source = data.draw(ids)
        taps = data.draw(st.lists(data.draw(st.sampled_from([good, tap])),
                                  max_size=8))
        calls = (lambda: net.connect_taps(source, taps),
                 lambda: model.connect_taps(source, taps))
    else:
        entities, synapses = (_template if op == "template" else _existing)(
            data, net, model)
        count = data.draw(st.integers(0, 3))
        # mostly the template's sources from outside it, each moved by a
        # stride that keeps its last copy's source an existing id
        moved = {}
        for source in sorted({syn.source for syn in model.synapses[
                synapses.start:synapses.stop]} - set(entities)):
            if data.draw(st.booleans()):
                top = (model.entities - 1 - source) // max(count, 1)
                moved[source] = data.draw(
                    st.integers(-(source // max(count, 1)), top))
        if data.draw(st.integers(0, 4)) == 0:
            moved[data.draw(ids)] = data.draw(st.integers(-3, 3))
        calls = (lambda: list(net.copy(entities, synapses, count, moved)),
                 lambda: model.copy(entities, synapses, count, moved))
    outcomes = []
    for call in calls:
        try:
            outcomes.append(call())
        except ValueError:
            outcomes.append(ValueError)
    assert outcomes[0] == outcomes[1], op


def _same_as_a_list(view, model: list, data) -> None:
    assert list(view) == model and len(view) == len(model)
    for k in data.draw(st.lists(st.integers(-len(model) - 2, len(model) + 1),
                                max_size=4)):
        if -len(model) <= k < len(model):
            assert view[k] == model[k] and type(view[k]) is type(model[k])
        else:
            with pytest.raises(IndexError):
                view[k]
    bounds = st.none() | st.integers(-len(model) - 2, len(model) + 2)
    for cut in data.draw(st.lists(st.builds(
            slice, bounds, bounds, st.none() | st.sampled_from([-2, -1, 1, 3])),
            max_size=3)):
        assert view[cut] == model[cut] and type(view[cut]) is list
    with pytest.raises(TypeError):
        view[0] = model[0] if model else None
    with pytest.raises(TypeError):
        del view[0]


@settings(deadline=None)
@given(st.data())
def test_columns_equal_a_list_of_synapses(data):
    net, model = Network(), ListModel()
    for _ in range(data.draw(st.integers(1, 30))):
        _step(data, net, model)
        assert len(net.synapses) == len(net.categories) == len(model.synapses)
    assert all(type(syn) is Synapse for syn in net.synapses)
    _same_as_a_list(net.synapses, model.synapses, data)
    _same_as_a_list(net.categories, model.categories, data)
    # a view equals a view of the same items, never a list
    rebuilt = Network()
    for eid in range(model.entities):
        rebuilt.add_neuron() if eid in model.neurons else rebuilt.add_source([])
    for syn, label in zip(model.synapses, model.categories):
        rebuilt.connect(*syn, label)
    assert rebuilt.synapses == net.synapses and rebuilt.categories == net.categories
    assert net.synapses != model.synapses


def test_a_synapse_view_never_equals_a_label_view():
    net = Network()
    assert net.synapses != net.categories and net.categories != net.synapses
    a = net.add_neuron()
    net.connect(a, a, 1, 1)
    assert not net.synapses == net.categories
    assert net.categories != Network().synapses


def test_labels_beyond_the_table_are_refused():
    net = Network()
    a = net.add_neuron()
    for k in range(256):
        net.connect(a, a, 1, 1, f"label {k}")
    with pytest.raises(ValueError, match="at most 256 labels"):
        net.connect(a, a, 1, 1, "one too many")
    # connect_taps replays through connect: the taps before the bad one stay
    with pytest.raises(ValueError, match="at most 256 labels"):
        net.connect_taps(a, [(a, 2, 1, "label 0"), (a, 1, 1, "new")])
    assert len(net.synapses) == 257 and net.synapses[-1].weight_quanta == 2


@pytest.mark.parametrize("args, match", [
    ((1 << 63, 1, ""), "weight_quanta"), ((-(1 << 63) - 1, 1, ""), "weight_quanta"),
    ((1, 1 << 63, ""), "delay_ms"), ((1, 1, None), "category"),
    ((1, 1, 7), "category"),
])
def test_what_a_column_cannot_hold_is_refused(args, match):
    net = Network()
    a = net.add_neuron()
    with pytest.raises(ValueError, match=match):
        net.connect(a, a, *args)
    with pytest.raises(ValueError, match=match):
        net.connect_taps(a, [(a, *args)])
    assert len(net.synapses) == len(net.categories) == 0
    # the largest a column holds
    net.connect(a, a, (1 << 63) - 1, (1 << 63) - 1, "")
    net.connect_taps(a, [(a, -(1 << 63), 1, "")])
    assert [syn.weight_quanta for syn in net.synapses] == [(1 << 63) - 1, -(1 << 63)]


def test_memory_build_holds_under_130_bytes_per_synapse():
    # four 8-byte columns and a 1-byte label index: a classic memory
    # with r=255, c=16 (47,235 synapses) holds about 94 bytes per
    # synapse after its build; a list of Synapse tuples held 212
    gc.collect()
    tracemalloc.start()
    try:
        net = Network()
        memory = build_block(net, "memory", "classic", (255, 16))
        gc.collect()
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(memory.outputs) == 255 * 16
    assert held < 130 * len(net.synapses)
