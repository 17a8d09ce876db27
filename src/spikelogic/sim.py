"""Discrete-time simulator for integer-threshold spiking networks.

Time advances in whole milliseconds. Synapses carry signed integer
weights ("quanta") and integer delays of at least 1 ms, so a spike
emitted at time t is delivered at exactly t + delay, and a neuron fires
in the same timestep its delivered input reaches threshold. All state
is exact (ints, plus Fraction for the optional charge carryover), which
makes runs bit-identical across repeats and independent of synapse
insertion order.

The default neuron (threshold 1, refractory 1 ms, no carryover) fires
once per timestep whenever the net input that millisecond is at least
one quantum, and may fire again the very next millisecond. Inhibition
never accumulates as debt: leftover charge is clamped at zero after
every step.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping


@dataclass(frozen=True)
class NeuronParams:
    """Behavioral knobs for one neuron.

    threshold_quanta: net input per timestep required to fire (>= 1).
    refractory_ms: minimum spacing between consecutive fires; the
        default of 1 permits firing on back-to-back timesteps.
    carryover_factor: fraction of unspent positive charge retained into
        the next timestep, rational in [0, 1). Zero keeps the gate-like
        regime used by every circuit in this package.
    """

    threshold_quanta: int = 1
    refractory_ms: int = 1
    carryover_factor: Fraction = Fraction(0)

    def __post_init__(self) -> None:
        # type() rather than isinstance(): a bool is an int, not a count
        if type(self.threshold_quanta) is not int or self.threshold_quanta < 1:
            raise ValueError("threshold_quanta must be an integer >= 1")
        if type(self.refractory_ms) is not int or self.refractory_ms < 0:
            raise ValueError("refractory_ms must be an integer >= 0")
        factor = Fraction(self.carryover_factor)
        if not 0 <= factor < 1:
            raise ValueError("carryover_factor must lie in [0, 1)")
        object.__setattr__(self, "carryover_factor", factor)


@dataclass(frozen=True)
class Synapse:
    source: int
    target: int
    weight_quanta: int
    delay_ms: int


@dataclass(frozen=True)
class SpikeRecord:
    """Spike times per recorded entity, all within [0, duration_ms)."""

    duration_ms: int
    spikes: Mapping[int, tuple[int, ...]]

    def times(self, entity_id: int) -> tuple[int, ...]:
        return self.spikes[entity_id]


class Network:
    """A static graph of neurons, spike sources and synapses.

    Neurons and sources share one dense id space assigned in insertion
    order. The network itself holds no run state; each call to run()
    simulates from scratch, so repeated runs are identical.
    """

    def __init__(self) -> None:
        self.neurons: dict[int, NeuronParams] = {}
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

    def add_neuron(self, params: NeuronParams | None = None) -> int:
        if params is None:
            params = NeuronParams()
        elif not isinstance(params, NeuronParams):
            raise ValueError("params must be a NeuronParams instance")
        nid = self._take_id()
        self.neurons[nid] = params
        return nid

    def add_source(self, schedule: Iterable[int]) -> int:
        """Register a stimulus that spikes at the given millisecond times.

        The schedule must be strictly increasing and non-negative.
        """
        times = tuple(operator.index(t) for t in schedule)
        for prev, cur in zip((-1,) + times, times):
            if cur < 0:
                raise ValueError("source spike times must be >= 0")
            if cur <= prev:
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
        if source not in self.neurons and source not in self.sources:
            raise ValueError(f"unknown source id {source!r}")
        if target not in self.neurons:
            if target in self.sources:
                raise ValueError("spike sources cannot receive synapses")
            raise ValueError(f"unknown target neuron {target!r}")
        weight = operator.index(weight_quanta)
        if weight == 0:
            raise ValueError("weight_quanta must be nonzero")
        delay = operator.index(delay_ms)
        if delay < 1:
            raise ValueError("delay_ms must be >= 1")
        self.synapses.append(Synapse(source, target, weight, delay))
        self.categories.append(category)
        return len(self.synapses) - 1

    def record(self, *entity_ids: int) -> None:
        for eid in entity_ids:
            if eid not in self.neurons and eid not in self.sources:
                raise ValueError(f"unknown entity id {eid!r}")
            if eid not in self._recorded_set:
                self._recorded_set.add(eid)
                self.recorded.append(eid)

    def run(self, duration_ms: int) -> SpikeRecord:
        """Simulate [0, duration_ms) and return spikes of recorded ids."""
        if operator.index(duration_ms) < 1:
            raise ValueError("duration_ms must be >= 1")
        sim = Simulation(self)
        recorded = self._recorded_set
        collected: dict[int, list[int]] = {eid: [] for eid in sorted(recorded)}
        for _ in range(duration_ms):
            now = sim.t
            for eid in sim.step():
                if eid in recorded:
                    collected[eid].append(now)
        return SpikeRecord(duration_ms, {k: tuple(v) for k, v in collected.items()})


class Simulation:
    """Stepwise executor over a Network.

    step() processes the current timestep: sources scheduled for t emit,
    charge delivered at t is summed per neuron, neurons at or above
    threshold fire (refractory permitting), and outgoing deliveries are
    queued at t + delay. Returns the sorted ids that spiked at t.
    """

    def __init__(self, net: Network) -> None:
        self.net = net
        self.t = 0
        self._adjacency: dict[int, list[tuple[int, int, int]]] = {}
        for syn in net.synapses:
            self._adjacency.setdefault(syn.source, []).append(
                (syn.delay_ms, syn.target, syn.weight_quanta)
            )
        self._pending: dict[int, dict[int, int]] = {}
        self._source_pos = {sid: 0 for sid in net.sources}
        self._last_fire: dict[int, int] = {}
        # residual charge is tracked only for neurons that can carry it over
        self._residual: dict[int, Fraction] = {
            nid: Fraction(0)
            for nid, params in net.neurons.items()
            if params.carryover_factor
        }

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

        arrivals = self._pending.pop(now, {})
        candidates: list[int] = list(arrivals)
        if self._residual:
            candidates.extend(
                nid for nid, residue in self._residual.items()
                if residue and nid not in arrivals
            )

        neurons = self.net.neurons
        for nid in candidates:
            params = neurons[nid]
            charge: int | Fraction = arrivals.get(nid, 0)
            residue = self._residual.get(nid)
            if residue:
                charge = charge + params.carryover_factor * residue
            last = self._last_fire.get(nid)
            blocked = last is not None and (now - last) < params.refractory_ms
            if not blocked and charge >= params.threshold_quanta:
                fired.append(nid)
                self._last_fire[nid] = now
                if nid in self._residual:
                    self._residual[nid] = Fraction(0)
            elif nid in self._residual:
                self._residual[nid] = Fraction(charge) if charge > 0 else Fraction(0)

        for eid in fired:
            self._deliver_from(eid, now)

        self.t = now + 1
        fired.sort()
        return fired
