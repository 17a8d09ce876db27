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
it steps one millisecond at a time over the synapses view and delivers
each synaptic event on its own. Network.run never calls it. It reads
the plan of the run, _plan(net, duration): per neuron, the indices of
its synapses that land inside the run, and the span, the ids from the
least target to the greatest source of the back synapses, which read
a larger id than their target. A neuron outside the span reads only
smaller ids, one inside it smaller ids or the span's, so in id order it
computes one spike train per entity, an int whose bit t is set when
the entity spikes at t, sharing each recent (source, delay) shift:

- a neuron outside the span thresholds a bit-sliced sum of its shifted
  input trains;
- one of 4 or more inputs and no SR-latch loop, U of them units at
  weight +1, is A_0 | A_1 & OR(units) | A_U & AND(units), with A_j the
  ticks where its other inputs reach its threshold less j: as each A_j
  holds A_{j-1}, that is exact where A_1 = A_{U-1}, and the neuron is
  bit-sliced where not. The A_j are computed again only where its
  context (threshold, U, others) differs from the last one's;
- one whose self-synapses all have delay 1 and a total weight of at
  least 0 (the SR latch) takes a closed form, a carry chain;
- the span (the CSS ring), as one component, and any other self-looped
  neuron are stepped until their inputs are quiet and their state
  repeats, then repeated in closed form.
"""

from __future__ import annotations

import operator
from array import array
from collections import Counter, deque
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial, reduce
from itertools import chain, compress, repeat
from types import MappingProxyType
from typing import Container, Iterable, Iterator, Mapping, NamedTuple


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
    SpikeRecord(duration_ms, {eid: times}), or from trains, ints >= 0
    with no spike from duration_ms on, it keeps a read-only copy; times()
    and spikes derive time tuples."""

    duration_ms: int
    trains: Mapping[int, int]

    def __init__(self, duration_ms: int,
                 spikes: Mapping[int, Iterable[int]] | None = None, *,
                 trains: Mapping[int, int] | None = None) -> None:
        _require_int("duration_ms", duration_ms, 0)
        if trains is None:
            trains = {eid: spike_train(times) for eid, times in spikes.items()}
        trains = dict(trains)
        for eid, train in trains.items():
            _require_int(f"spike train of entity {eid!r}", train, 0)
            if train >> duration_ms:
                raise ValueError(f"spike train of entity {eid!r} spikes at or "
                                 f"past duration_ms {duration_ms}")
        object.__setattr__(self, "duration_ms", duration_ms)
        object.__setattr__(self, "trains", MappingProxyType(trains))

    def times(self, entity_id: int) -> tuple[int, ...]:
        return tuple(compress(self._ticks, _flags(self.trains[entity_id])))

    @cached_property
    def _ticks(self) -> tuple[int, ...]:
        # one shared int per tick: time tuples hold no int of their own
        return tuple(range(self.duration_ms))

    @property
    def spikes(self) -> Mapping[int, tuple[int, ...]]:
        return MappingProxyType({eid: self.times(eid) for eid in self.trains})


# weights and delays are stored as signed 64-bit ints, label codes as bytes
_INT64 = 1 << 63
_LABELS = 256


class _View(Sequence):
    """A read-only sequence over columns of a network's synapses: len,
    int indexing (negative too), slicing to a list, and iteration. items
    makes the items of column slices, in order, and item k is the one
    item of the columns' one-element slices at k. Two views over as many
    columns are equal when their items are."""

    __slots__ = ("_items", "_columns")

    def __init__(self, items, *columns: array) -> None:
        self._items, self._columns = items, columns

    def __len__(self) -> int:
        return len(self._columns[0])

    def __getitem__(self, key):
        if isinstance(key, slice):
            return list(self._items(*[column[key] for column in self._columns]))
        return next(self._items(*[(column[key],) for column in self._columns]))

    def __iter__(self):
        return self._items(*self._columns)

    def __eq__(self, other):
        if type(other) is not type(self) or len(other._columns) != len(self._columns):
            return NotImplemented
        return len(self) == len(other) and all(map(operator.eq, self, other))


def _synapses(*columns: Iterable[int]) -> Iterator[Synapse]:
    """Synapse(source, target, weight, delay) of the four columns, in order."""
    return map(tuple.__new__, repeat(Synapse), zip(*columns))


class Network:
    """A static graph of neurons, spike sources and synapses.

    Neurons and sources share one dense id space assigned in insertion
    order, so the next id is their count. Synapses are stored as columns:
    four signed 64-bit int arrays (source, target, weight, delay) and a
    one-byte index into a table of at most 256 labels. synapses and
    categories are read-only views over them. The network itself holds
    no run state; each call to run() simulates from scratch, so repeated
    runs are identical.
    """

    def __init__(self) -> None:
        self.neurons: dict[int, int] = {}  # id -> threshold_quanta
        self.sources: dict[int, tuple[int, ...]] = {}
        self._columns = tuple(array("q") for _ in range(4))
        self._labels: list[str] = []
        self._codes: dict[str, int] = {}  # label -> its index in _labels
        self._index = array("B")
        self.synapses = _View(_synapses, *self._columns)
        self.categories = _View(partial(map, self._labels.__getitem__),
                                self._index)
        # the recorded ids in first-recorded order, as dict keys
        self.recorded: dict[int, None] = {}

    def add_neuron(self, threshold_quanta: int = 1) -> int:
        """Add a neuron firing when one ms's input reaches threshold_quanta."""
        _require_int("threshold_quanta", threshold_quanta, 1)
        nid = len(self.neurons) + len(self.sources)
        self.neurons[nid] = threshold_quanta
        return nid

    def add_source(self, schedule: Iterable[int]) -> int:
        """Register a stimulus that spikes at the given millisecond times.

        The schedule must be strictly increasing non-negative integers.
        """
        times = _times("source spike times", schedule)
        if not all(map(operator.lt, times, times[1:])):
            raise ValueError("source schedule must be strictly increasing")
        sid = len(self.neurons) + len(self.sources)
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
        if (type(weight_quanta) is not int or weight_quanta == 0
                or not -_INT64 <= weight_quanta < _INT64):
            raise ValueError("weight_quanta must be a nonzero 64-bit integer, "
                             f"not {weight_quanta!r}")
        if type(delay_ms) is not int or not 1 <= delay_ms < _INT64:
            raise ValueError("delay_ms must be a 64-bit integer >= 1, "
                             f"not {delay_ms!r}")
        if type(category) is not str:
            raise ValueError(f"category must be a str, not {category!r}")
        if category not in self._codes:
            if len(self._labels) == _LABELS:
                raise ValueError(f"a network holds at most {_LABELS} labels")
            self._codes[category] = len(self._labels)
            self._labels.append(category)
        for column, value in zip(self._columns,
                                 (source, target, weight_quanta, delay_ms)):
            column.append(value)
        self._index.append(self._codes[category])
        return len(self._index) - 1

    def connect_taps(self, source: int, taps: Iterable[Sequence]) -> None:
        """Add one synapse from source per (target, weight_quanta, delay_ms,
        category) tap, in order: what a connect() per tap adds, checked
        at once. Taps connect() refuses are replayed through it one by
        one, so the error and the synapses added before the bad tap are
        connect()'s."""
        taps = tuple(taps)
        # every tap a 4-tuple, every field an int (a bool refused) but the
        # label, a str, the source an entity, the targets neurons
        if (type(source) is int and (source in self.neurons or source in self.sources)
                and all(map(isinstance, taps, repeat(tuple)))
                and {*map(len, taps)} == {4}):
            targets, weights, delays, labels = zip(*taps)
            if ({*map(type, targets), *map(type, weights), *map(type, delays)}
                    == {int} and {*map(type, labels)} == {str} and 0 not in weights
                    and -_INT64 <= min(weights) and max(weights) < _INT64
                    and 1 <= min(delays) and max(delays) < _INT64
                    and self.neurons.keys() >= {*targets}):
                # the labels the table lacks, in first-seen order
                new = [label for label in dict.fromkeys(labels)
                       if label not in self._codes]
                if len(self._labels) + len(new) <= _LABELS:
                    self._codes.update(zip(new, range(len(self._labels), _LABELS)))
                    self._labels.extend(new)
                    # an array extends another with one copy
                    for column, values in zip(self._columns, (
                            array("q", (source,)) * len(taps), targets, weights, delays)):
                        column.extend(array("q", values))
                    self._index.extend(array("B", map(self._codes.__getitem__, labels)))
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
                0 <= synapses.start <= synapses.stop <= len(self._index)):
            raise ValueError(f"{synapses!r} is not a range of synapse indices")
        span = slice(synapses.start, synapses.stop)
        sources, targets, weights, delays = (column[span]
                                             for column in self._columns)
        if not all(map(entities.__contains__, targets)):
            raise ValueError("every template synapse must target entities")
        first = len(self.neurons) + len(self.sources)
        size, moved = len(entities), moved or {}
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
        # copy k takes a synapse's source from base + k * step and its
        # target from target + offsets[k]: a template neuron moves with
        # its copy, a moved source by its stride
        steps = [size if source in entities else moved.get(source, 0)
                 for source in sources]
        bases = [source + (offsets.start if source in entities else step)
                 for source, step in zip(sources, steps)]
        self._columns[0].extend(array("q", list(_copied(bases, steps, count))))
        self._columns[1].extend(array("q", list(_copied(
            map(offsets.start.__add__, targets), repeat(size), count))))
        self._columns[2].extend(weights * count)
        self._columns[3].extend(delays * count)
        self._index.extend(self._index[span] * count)
        return offsets

    def label_counts(self, synapses: range, skipped: Container[int] = ()) -> Counter:
        """How many of the synapses of index range synapses carry each
        label (labels they do not carry left out), not counting those
        whose source is in skipped: one C-level count per label."""
        span = slice(synapses.start, synapses.stop)
        codes = self._index[span].tobytes()
        if skipped:
            codes = bytes(compress(codes, [source not in skipped
                                           for source in self._columns[0][span]]))
        counts = Counter(dict(zip(self._labels, map(codes.count, range(_LABELS)))))
        return +counts

    def record(self, *entity_ids: int) -> None:
        for eid in entity_ids:
            if type(eid) is not int or (eid not in self.neurons
                                        and eid not in self.sources):
                raise ValueError(f"unknown entity id {eid!r}")
            self.recorded[eid] = None

    def run(self, duration_ms: int) -> SpikeRecord:
        """Simulate [0, duration_ms) and return spikes of recorded ids."""
        _require_int("duration_ms", duration_ms, 1)
        trains = _levelized_trains(self, duration_ms)
        return SpikeRecord(duration_ms, trains={
            eid: trains[eid] for eid in sorted(self.recorded)})


def _copied(starts: Iterable[int], steps: Iterable[int], count: int) -> Iterator[int]:
    """For k in range(count), start + k * step of each (start, step) in
    turn: the values of a template's column over count copies, in order."""
    return chain.from_iterable(zip(*[
        range(start, start + count * step, step) if step else repeat(start, count)
        for start, step in zip(starts, steps)]))


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


def _words(trains: Sequence[int], duration: int) -> Sequence[int]:
    """Per-ms words over duration ms, bit k set when trains[k] spikes: a
    byte per ms of each 8 trains' flags, bytes for up to 8 trains, else
    a list that each later byte is shifted and or-ed into."""
    words: Sequence[int] = bytes(duration)
    for b in range(0, len(trains), 8):
        byte = 0
        for j, train in enumerate(trains[b:b + 8]):
            byte |= int.from_bytes(_flags(train)[:duration], "little") << j
        block = byte.to_bytes(duration, "little")
        words = block if not b else list(map(
            operator.or_, words, map(operator.lshift, block, repeat(b))))
    return words


def _plan(net: Network, duration: int) -> tuple[dict[int, list[int]], range]:
    """The plan of a run of duration ms: per neuron in id order, the
    indices of its synapses that land inside the run (one list.append per
    synapse, run in C), and the span, the ids from the least target to
    the greatest source of the back synapses, those that land and read a
    neuron of a larger id than their target (empty if there is none). A
    neuron outside the span that read a larger id would be a back target
    below the least or read a back source above the greatest, so it reads
    smaller ids only, and one inside it those or the span's: as every
    delay is 1 ms or more, id order, with the span stepped at its first
    id, reads only trains already computed."""
    sources, targets, _, delays = net._columns
    # ids are given in insertion order, so the neurons are in id order
    fan_in: dict[int, list[int]] = {nid: [] for nid in net.neurons}
    landed = iter  # a column's values at the synapses that land
    if max(delays, default=0) >= duration:
        landed = partial(compress, selectors=bytes(map(duration.__gt__, delays)))
    deque(map(list.append, map(fan_in.__getitem__, landed(targets)),
              landed(range(len(targets)))), 0)
    back = bytes(map(operator.gt, landed(sources), landed(targets)))
    reads = bytes(map(net.neurons.__contains__, compress(landed(sources), back)))
    if 1 not in reads:
        return fan_in, range(0)
    return fan_in, range(min(compress(compress(landed(targets), back), reads)),
                         max(compress(compress(landed(sources), back), reads)) + 1)


def _levelized_trains(net: Network, duration: int) -> dict[int, int]:
    """Spike train of every entity of the network, evaluated over its
    plan; sources, weights and delays are read from the columns only
    while a neuron is evaluated."""
    mask = (1 << duration) - 1
    # add_source checked the schedules
    trains = {sid: _train([t for t in times if t < duration])
              for sid, times in net.sources.items()}
    fan_in, span = _plan(net, duration)
    sources, targets, weights, delays = net._columns
    looped = {*compress(targets, map(operator.eq, sources, targets))}
    # a (source, delay) read's train, shifted and cut to the run; no bench
    # network reads a pair again after 256 others, so each is made once
    shifted = lru_cache(256)(lambda source, delay: (trains[source] << delay) & mask)
    key = context = None  # the last neuron's context key and its context
    for nid, synapses in fan_in.items():
        held = 0
        if nid in span:
            if nid == span.start:  # a back synapse's target: a neuron
                trains.update(_stepped_component(
                    net, [*filter(fan_in.__contains__, span)], fan_in, trains, duration))
            continue
        if nid in looped:
            loop = [k for k in synapses if sources[k] == nid]
            held = sum(weights[k] for k in loop)
            if held < 0 or any(delays[k] != 1 for k in loop):
                trains.update(_stepped_component(net, [nid], fan_in, trains, duration))
                continue
            synapses = [k for k in synapses if sources[k] != nid]
        # below 4 inputs, the split costs more than the sum it saves
        if not held and len(synapses) >= 4:
            units = [k for k in synapses if weights[k] == 1]
            others = [(sources[k], delays[k], weights[k])
                      for k in synapses if weights[k] != 1]
            if key != (net.neurons[nid], len(units), others):
                key = (net.neurons[nid], len(units), others)
                context = _context(*key, shifted, mask)
            if context is not None:
                read = [shifted(sources[k], delays[k]) for k in units]
                trains[nid] = (context[0] | context[1] & reduce(operator.or_, read, 0)
                               | context[2] & reduce(operator.and_, read, mask))
                continue
        inputs = [(shifted(sources[k], delays[k]), weights[k]) for k in synapses]
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


def _context(threshold: int, units: int, others: list[tuple[int, int, int]],
             shifted, mask: int) -> tuple[int, int, int] | None:
    """(A_0, A_1, A_units), where A_j holds the ticks at which others,
    (source, delay, weight) read through shifted, reach threshold - j;
    None where units > 2 and A_1 != A_{units-1}, as a tick needs 2 to units - 1."""
    planes, offset = _bit_sliced_sum(
        [(shifted(source, delay), weight) for source, delay, weight in others], mask)
    threshold += offset
    first = _at_least(planes, threshold - 1, mask)
    if units > 2 and first != _at_least(planes, threshold - units + 1, mask):
        return None
    return (_at_least(planes, threshold, mask), first,
            _at_least(planes, threshold - units, mask))


def _bit_sliced_sum(inputs: list[tuple[int, int]],
                    mask: int) -> tuple[list[int], int]:
    """Per-tick sum of weight * train as bit planes (plane j holds bit j
    of every tick's sum), plus an offset. A negative weight w enters as
    |w| * (not train), adding |w| to the offset, so the signed sum is
    at least theta where the planes are at least theta + offset."""
    planes: list[int] = []
    top = offset = 0  # top: len(planes)
    for train, weight in inputs:
        if weight < 0:
            train ^= mask
            weight = -weight
            offset += weight
        j = 0
        while weight:
            if weight & 1:
                # ripple-carry add train into plane j and up
                if j > top:
                    planes.extend([0] * (j - top))
                    top = j
                carry, k = train, j
                while carry:
                    if k == top:
                        planes.append(carry)
                        top += 1
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
                       fan_in: dict[int, list[int]],
                       trains: dict[int, int], duration: int) -> dict[int, int]:
    """Trains of one feedback component, stepped one ms at a time on byte
    flags, pad zero ticks ahead of t = 0, until its inputs from outside
    are quiet and its state, the members' last pad ms, repeats (Brent:
    one saved state, saved again at power-of-two step counts), or to the
    end. The rest of each train repeats its flags since the saved state."""
    sources, _, weights, delays = net._columns
    synapses = [k for nid in component for k in fan_in[nid]]
    pad = max(map(delays.__getitem__, synapses))
    rows = {nid: bytearray(pad) for nid in component}
    # from ms quiet on, no input lands from outside (rows of bytes)
    quiet = min(duration, max([trains[sources[k]].bit_length() + delays[k]
                               for k in synapses if sources[k] not in rows], default=0))
    rows.update({src: bytes(pad) + _flags(trains[src])[:quiet].ljust(quiet, b"\0")
                 for src in {*map(sources.__getitem__, synapses)} - rows.keys()})
    steps = [(rows[nid], net.neurons[nid],
              [(rows[sources[k]], delays[k], weights[k]) for k in fan_in[nid]])
             for nid in component]
    saved, period, power = None, 0, 1
    for now in range(pad, pad + duration):
        if now - pad >= quiet:
            if saved is None:  # keep the members' rows, bytearrays, alone
                steps = [(row, threshold, [i for i in inputs if type(i[0]) is bytearray])
                         for row, threshold, inputs in steps]
            state, period = b"".join(step[0][-pad:] for step in steps), period + 1
            if state == saved:
                break
            if period == power:
                saved, period, power = state, 0, 2 * power
        for row, threshold, inputs in steps:
            charge = 0
            for flags, delay, weight in inputs:
                charge += flags[now - delay] * weight
            row.append(charge >= threshold)
    stepped, result = len(steps[0][0]) - pad, {}
    for nid in component:
        result[nid] = int(rows[nid][pad:][::-1].translate(_DIGIT) or b"0", 2)
        if stepped < duration:  # the flags since the saved state repeat
            pattern = int(rows[nid][-period:][::-1].translate(_DIGIT) or b"0", 2)
            result[nid] |= (pattern * ((1 << period * (duration // period + 1)) - 1)
                            // ((1 << period) - 1) << stepped) & ((1 << duration) - 1)
    return result


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
