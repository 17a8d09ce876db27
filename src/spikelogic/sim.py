"""Discrete-time simulator for integer-threshold spiking networks.

Time advances in whole milliseconds. Synapses carry signed integer
weights ("quanta") and integer delays of at least 1 ms, so a spike
emitted at time t is delivered at exactly t + delay. A neuron fires at
t exactly when the weighted sum of its inputs delivered at t reaches its
threshold, and keeps nothing into t + 1: it may fire again the very next
millisecond, and inhibition never accumulates as debt. All state is
integer, which makes runs bit-identical across repeats and independent
of synapse insertion order.

Two kernels produce the same SpikeRecord. Simulation is the reference:
it steps one millisecond at a time and delivers each synaptic event on
its own. Network.run never calls it. It plans each neuron's synapses
that land inside the run and computes one spike train per entity, an
int whose bit t is set when the entity spikes at t, in the topological
order of the strongly connected components of the neuron graph:

- a neuron outside any cycle thresholds a bit-sliced sum of its
  shifted input trains;
- a lone neuron whose self-synapses all have delay 1 and a total
  weight of at least 0 (the SR latch) takes a closed form, a carry chain;
- any other feedback component (the CSS ring) is stepped alone, one
  millisecond at a time, on the known trains of its inputs.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property
from itertools import compress, repeat
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple, Sequence


def _require_int(name: str, value, least: int) -> None:
    """value must be an int of at least least, else ValueError names it."""
    # type() rather than isinstance(): a bool is an int, not a count
    if type(value) is not int:
        raise ValueError(f"{name} must be an int, not {value!r}")
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")


def _times(what: str, values: Iterable[int]) -> tuple[int, ...]:
    """values as a tuple of ints >= 0, else ValueError names what."""
    try:
        times = tuple(values)
    except TypeError:
        raise ValueError(f"{what} must be a list of ints, not {values!r}") from None
    # type() rather than isinstance(): a bool is an int, not a time
    if {*map(type, times)} - {int} or min(times, default=0) < 0:
        bad = next(t for t in times if type(t) is not int or t < 0)
        raise ValueError(f"{what} must be integers >= 0, not {bad!r}")
    return times


class Synapse(NamedTuple):
    source: int
    target: int
    weight_quanta: int
    delay_ms: int


@dataclass(frozen=True, init=False)
class SpikeRecord:
    """Spike trains of the recorded entities over [0, duration_ms): bit t
    of trains[eid] is set when eid spikes at t. Built from spike times,
    SpikeRecord(duration_ms, {eid: times}), or from trains, it keeps a
    read-only copy; times() and spikes derive time tuples."""

    duration_ms: int
    trains: Mapping[int, int]

    def __init__(self, duration_ms: int,
                 spikes: Mapping[int, Iterable[int]] | None = None, *,
                 trains: Mapping[int, int] | None = None) -> None:
        _require_int("duration_ms", duration_ms, 0)
        if trains is None:
            trains = {eid: spike_train(times) for eid, times in spikes.items()}
        object.__setattr__(self, "duration_ms", duration_ms)
        object.__setattr__(self, "trains", MappingProxyType(dict(trains)))

    def times(self, entity_id: int) -> tuple[int, ...]:
        return tuple(compress(self._ticks, _flags(self.trains[entity_id])))

    @cached_property
    def _ticks(self) -> tuple[int, ...]:
        # one shared int per tick: time tuples hold no int of their own
        return tuple(range(self.duration_ms))

    @property
    def spikes(self) -> Mapping[int, tuple[int, ...]]:
        return MappingProxyType({eid: self.times(eid) for eid in self.trains})


class Network:
    """A static graph of neurons, spike sources and synapses.

    Neurons and sources share one dense id space assigned in insertion
    order. The network itself holds no run state; each call to run()
    simulates from scratch, so repeated runs are identical.
    """

    def __init__(self) -> None:
        self.neurons: dict[int, int] = {}  # id -> threshold_quanta
        self.sources: dict[int, tuple[int, ...]] = {}
        self.synapses: list[Synapse] = []
        self.categories: list[str] = []
        self.recorded: list[int] = []
        self._recorded_set: set[int] = set()
        self._next_id = 0

    def _take_id(self) -> int:
        eid = self._next_id
        self._next_id += 1
        return eid

    def add_neuron(self, threshold_quanta: int = 1) -> int:
        """Add a neuron firing when one ms's input reaches threshold_quanta."""
        _require_int("threshold_quanta", threshold_quanta, 1)
        nid = self._take_id()
        self.neurons[nid] = threshold_quanta
        return nid

    def add_source(self, schedule: Iterable[int]) -> int:
        """Register a stimulus that spikes at the given millisecond times.

        The schedule must be strictly increasing non-negative integers.
        """
        times = _times("source spike times", schedule)
        if not all(map(operator.lt, times, times[1:])):
            raise ValueError("source schedule must be strictly increasing")
        sid = self._take_id()
        self.sources[sid] = times
        return sid

    def connect(self, source: int, target: int, weight_quanta: int,
                delay_ms: int, category: str = "") -> int:
        """Add a synapse and return its index in insertion order.

        category labels the synapse in the categories ledger, index for
        index with synapses. The labels serve resource accounting only:
        the kernel never reads them and netlists do not store them.
        """
        # type() rather than isinstance(): a bool is an int, not an id
        if type(source) is not int or (source not in self.neurons
                                       and source not in self.sources):
            raise ValueError(f"unknown source id {source!r}")
        if type(target) is not int or target not in self.neurons:
            if type(target) is int and target in self.sources:
                raise ValueError("spike sources cannot receive synapses")
            raise ValueError(f"unknown target id {target!r}")
        if type(weight_quanta) is not int or weight_quanta == 0:
            raise ValueError("weight_quanta must be a nonzero integer, "
                             f"not {weight_quanta!r}")
        if type(delay_ms) is not int or delay_ms < 1:
            raise ValueError(f"delay_ms must be an integer >= 1, not {delay_ms!r}")
        self.synapses.append(Synapse(source, target, weight_quanta, delay_ms))
        self.categories.append(category)
        return len(self.synapses) - 1

    def connect_taps(self, source: int, taps: Iterable[Sequence]) -> None:
        """Add one synapse from source per (target, weight_quanta, delay_ms,
        category) tap, in order: what a connect() per tap adds, checked
        at once. Taps connect() refuses are replayed through it one by
        one, so the error and the synapses added before the bad tap are
        connect()'s."""
        taps = tuple(taps)
        # every tap a 4-tuple, every field but the label an int (a bool
        # refused), the source an entity, the targets neurons
        if (type(source) is int and (source in self.neurons or source in self.sources)
                and all(map(isinstance, taps, repeat(tuple)))
                and {*map(len, taps)} == {4}):
            targets, weights, delays, labels = zip(*taps)
            if ({*map(type, targets), *map(type, weights), *map(type, delays)}
                    == {int} and 0 not in weights
                    and min(delays) >= 1 and self.neurons.keys() >= {*targets}):
                self.synapses.extend(map(tuple.__new__, repeat(Synapse),
                                         zip(repeat(source), targets, weights, delays)))
                self.categories.extend(labels)
                return
        for target, weight_quanta, delay_ms, category in taps:
            self.connect(source, target, weight_quanta, delay_ms, category)

    def copy(self, entities: range, synapses: range, count: int,
             moved: Mapping[int, int] | None = None) -> range:
        """Append count copies of a template (the neurons of entities, then
        the synapses of synapses, each landing in entities) with the same
        thresholds, weights, delays and labels, and return their id offsets.
        A synapse from a template neuron moves with its copy; one from
        outside keeps its source unless moved gives that source a stride:
        copy k takes it from source + (k + 1) * stride, an existing id. The
        template is checked once, a ValueError leaving the network unchanged;
        its synapses passed connect(), so their shifted copies need no check."""
        _require_int("count", count, 0)
        if not (type(entities) is range and entities.step == 1 and entities
                and all(map(self.neurons.__contains__, entities))):
            raise ValueError(f"{entities!r} is not a range of neuron ids")
        if not (type(synapses) is range and synapses.step == 1 and
                0 <= synapses.start <= synapses.stop <= len(self.synapses)):
            raise ValueError(f"{synapses!r} is not a range of synapse indices")
        template = self.synapses[synapses.start:synapses.stop]
        if not all(syn.target in entities for syn in template):
            raise ValueError("every template synapse must target entities")
        first, size, moved = self._next_id, len(entities), moved or {}
        for source, stride in moved.items():
            if (type(source) is not int or type(stride) is not int
                    or source in entities or not 0 <= source < first
                    or not 0 <= source + count * stride < first):
                raise ValueError(f"moved source {source!r} and stride "
                                 f"{stride!r} leave the ids outside entities")
        offsets = range(first - entities.start,
                        first - entities.start + count * size, size)
        self.neurons.update(zip(range(first, first + count * size),
                                [self.neurons[eid] for eid in entities] * count))
        self._next_id += count * size
        sources, targets, weights, delays = list(zip(*template)) or [()] * 4
        # copy k takes a source from base + k * step: a template neuron
        # moves with its copy, a moved source by its stride
        steps = [size if source in entities else moved.get(source, 0)
                 for source in sources]
        bases = [source + (offsets.start if source in entities else step)
                 for source, step in zip(sources, steps)]
        self.synapses.extend(map(tuple.__new__, repeat(Synapse), zip(
            [base + k * step for k in range(count)
             for base, step in zip(bases, steps)],
            [target + offset for offset in offsets for target in targets],
            weights * count, delays * count)))
        self.categories.extend(
            self.categories[synapses.start:synapses.stop] * count)
        return offsets

    def record(self, *entity_ids: int) -> None:
        for eid in entity_ids:
            if type(eid) is not int or (eid not in self.neurons
                                        and eid not in self.sources):
                raise ValueError(f"unknown entity id {eid!r}")
            if eid not in self._recorded_set:
                self._recorded_set.add(eid)
                self.recorded.append(eid)

    def run(self, duration_ms: int) -> SpikeRecord:
        """Simulate [0, duration_ms) and return spikes of recorded ids."""
        _require_int("duration_ms", duration_ms, 1)
        trains = _levelized_trains(self, duration_ms)
        return SpikeRecord(duration_ms, trains={
            eid: trains[eid] for eid in sorted(self._recorded_set)})


# ---------------------------------------------------------------------------
# Levelized kernel. A train is an int whose bit t is set when its entity
# spikes at t, for t in [0, duration).

_FLAG = bytes.maketrans(b"01", b"\x00\x01")
_DIGIT = bytes.maketrans(b"\x00\x01", b"01")


def _flags(train: int) -> bytes:
    """One byte per tick from t = 0 (trailing zero ticks may be missing):
    1 where the train spikes, else 0. A negative train raises ValueError."""
    if train < 0:
        raise ValueError(f"a spike train must be >= 0, not {train}")
    return format(train, "b")[::-1].encode().translate(_FLAG)


def spike_train(times: Iterable[int]) -> int:
    """The train (bit t set: a spike at t) of spike times, ints >= 0."""
    return _train(_times("spike times", times))


def _train(times: Sequence[int]) -> int:
    """spike_train of times already checked."""
    flags = bytearray(max(times, default=-1) + 1)
    for t in times:
        flags[t] = 1
    return int(flags[::-1].translate(_DIGIT) or b"0", 2)


def _levelized_trains(net: Network, duration: int) -> dict[int, int]:
    """Spike train of every entity of the network."""
    mask = (1 << duration) - 1
    # add_source checked the schedules
    trains = {sid: _train([t for t in times if t < duration])
              for sid, times in net.sources.items()}
    # the plan: per neuron, its synapses that can land inside the run
    fan_in: dict[int, list[Synapse]] = {nid: [] for nid in net.neurons}
    for syn in net.synapses:
        if syn.delay_ms < duration:
            fan_in[syn.target].append(syn)
    for component in _components(fan_in):
        nid = component[0]
        loop = [(delay, w) for src, _, w, delay in fan_in[nid] if src == nid]
        held = sum(w for _, w in loop)
        if len(component) > 1 or held < 0 or any(d != 1 for d, _ in loop):
            trains.update(_stepped_component(net, component, fan_in, trains,
                                             duration))
            continue
        inputs = [((trains[src] << delay) & mask, weight)
                  for src, _, weight, delay in fan_in[nid] if src != nid]
        planes, offset = _bit_sliced_sum(inputs, mask)
        threshold = net.neurons[nid] + offset
        fire = _at_least(planes, threshold, mask)
        if held:
            # SR latch: it fires at t on its inputs alone (fire) or, having
            # fired at t - 1, with the loop's weight added (active, which
            # holds fire): q(t) = fire(t) | (active(t) & q(t-1)), the carry
            # chain of active + fire, whose carry into bit t + 1 is q(t)
            active = _at_least(planes, threshold - held, mask)
            fire = (((active + fire) ^ active ^ fire) >> 1) & mask
        trains[nid] = fire
    return trains


def _components(fan_in: dict[int, list[Synapse]]) -> list[list[int]]:
    """Strongly connected components of the graph neuron -> its synapses'
    neuron sources, each after every component it depends on (iterative
    Tarjan, which emits a component once all it reaches are emitted)."""
    index: dict[int, int] = {}
    low: dict[int, int] = {}
    stack: list[int] = []
    on_stack: set[int] = set()
    order: list[list[int]] = []
    for root in fan_in:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        on_stack.add(root)
        work = [(root, iter(fan_in[root]))]
        while work:
            node, synapses = work[-1]
            for nxt, _, _, _ in synapses:
                if nxt not in index and nxt in fan_in:  # not a spike source
                    index[nxt] = low[nxt] = len(index)
                    stack.append(nxt)
                    on_stack.add(nxt)
                    work.append((nxt, iter(fan_in[nxt])))
                    break
                if nxt in on_stack:
                    low[node] = min(low[node], index[nxt])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
                if low[node] == index[node]:
                    component = []
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        component.append(member)
                        if member == node:
                            break
                    order.append(component)
    return order


def _bit_sliced_sum(inputs: list[tuple[int, int]],
                    mask: int) -> tuple[list[int], int]:
    """Per-tick sum of weight * train as bit planes (plane j holds bit j
    of every tick's sum), plus an offset. A negative weight w enters as
    |w| * (not train), adding |w| to the offset, so the signed sum is
    at least theta where the planes are at least theta + offset."""
    planes: list[int] = []
    offset = 0
    for train, weight in inputs:
        if weight < 0:
            train ^= mask
            weight = -weight
            offset += weight
        j = 0
        while weight:
            if weight & 1:
                # ripple-carry add train into plane j and up
                if j > len(planes):
                    planes.extend([0] * (j - len(planes)))
                carry, k = train, j
                while carry:
                    if k == len(planes):
                        planes.append(carry)
                        break
                    plane = planes[k]
                    planes[k] = plane ^ carry
                    carry &= plane
                    k += 1
            weight >>= 1
            j += 1
    return planes, offset


def _at_least(planes: list[int], threshold: int, mask: int) -> int:
    """Ticks where the bit-sliced sum is at least threshold."""
    if threshold <= 0:
        return mask
    if threshold >> len(planes):
        return 0
    # from bit 0 up: sum[0..j] >= threshold[0..j]
    result = mask
    for j, plane in enumerate(planes):
        result = plane & result if threshold >> j & 1 else plane | result
    return result


def _stepped_component(net: Network, component: list[int],
                       fan_in: dict[int, list[Synapse]],
                       trains: dict[int, int], duration: int) -> dict[int, int]:
    """Trains of one feedback component, stepped one ms at a time on byte
    flags, pad zero ticks ahead of t = 0: the known trains of its inputs
    from outside, and the rows its members fill in as they fire."""
    pad = max(syn.delay_ms for nid in component for syn in fan_in[nid])
    rows = {nid: bytearray(pad + duration) for nid in component}
    rows.update({src: bytes(pad) + _flags(trains[src]).ljust(duration, b"\0")
                 for src in {syn.source for nid in component
                             for syn in fan_in[nid]} - rows.keys()})
    steps = [(rows[nid], net.neurons[nid],
              [(rows[src], delay, weight)
               for src, _, weight, delay in fan_in[nid]])
             for nid in component]
    for now in range(pad, pad + duration):
        for row, threshold, inputs in steps:
            charge = 0
            for flags, delay, weight in inputs:
                charge += flags[now - delay] * weight
            row[now] = charge >= threshold
    return {nid: int(rows[nid][pad:][::-1].translate(_DIGIT) or b"0", 2)
            for nid in component}


class Simulation:
    """Stepwise executor over a Network.

    step() processes the current timestep: sources scheduled for t emit,
    charge delivered at t is summed per neuron, neurons at or above
    threshold fire, and outgoing deliveries are queued at t + delay.
    Returns the sorted ids that spiked at t.
    """

    def __init__(self, net: Network) -> None:
        self.net = net
        self.t = 0
        self._adjacency: dict[int, list[tuple[int, int, int]]] = {}
        for source, target, weight, delay in net.synapses:
            self._adjacency.setdefault(source, []).append((delay, target, weight))
        self._pending: dict[int, dict[int, int]] = {}
        self._source_pos = {sid: 0 for sid in net.sources}

    def _deliver_from(self, entity_id: int, now: int) -> None:
        for delay, target, weight in self._adjacency.get(entity_id, ()):
            slot = self._pending.setdefault(now + delay, {})
            slot[target] = slot.get(target, 0) + weight

    def step(self) -> list[int]:
        now = self.t
        fired: list[int] = []

        for sid, schedule in self.net.sources.items():
            pos = self._source_pos[sid]
            if pos < len(schedule) and schedule[pos] == now:
                self._source_pos[sid] = pos + 1
                fired.append(sid)

        neurons = self.net.neurons
        for nid, charge in self._pending.pop(now, {}).items():
            if charge >= neurons[nid]:
                fired.append(nid)

        for eid in fired:
            self._deliver_from(eid, now)

        self.t = now + 1
        fired.sort()
        return fired
