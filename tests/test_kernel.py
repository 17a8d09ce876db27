"""Differential tests: Network.run against the reference Simulation.

Network.run computes every network with the levelized kernel, feedback
components included, and never steps Simulation itself; its record
must equal the one the reference kernel steps out, spike for spike.
"""

import random
import tracemalloc

import pytest
from hypothesis import given, strategies as st

from spikelogic.harness import (
    BLOCKS,
    EXPERIMENTS,
    ExperimentConfig,
    block_config,
    build_block,
    check_pipelined,
    run_experiment,
)
from spikelogic.sim import Network, Simulation, SpikeRecord


def stepped_times(net: Network, duration_ms: int) -> dict[int, tuple[int, ...]]:
    """Step the reference Simulation and collect the recorded ids."""
    recorded = set(net.recorded)
    collected: dict[int, list[int]] = {eid: [] for eid in sorted(recorded)}
    simulation = Simulation(net)
    for now in range(duration_ms):
        for eid in simulation.step():
            if eid in recorded:
                collected[eid].append(now)
    return {k: tuple(v) for k, v in collected.items()}


def assert_matches_reference(net: Network, duration_ms: int,
                             record: SpikeRecord | None = None) -> SpikeRecord:
    """Check record (by default net.run's) against the stepped times: its
    trains against trains built here from those times, the record
    against one built from them, and its derived times and spikes."""
    if record is None:
        record = net.run(duration_ms)
    times = stepped_times(net, duration_ms)
    assert record.trains == {eid: sum(1 << t for t in spikes)
                             for eid, spikes in times.items()}
    assert record == SpikeRecord(duration_ms, times)
    assert {eid: record.times(eid) for eid in times} == times
    assert dict(record.spikes) == times
    with pytest.raises(TypeError):
        record.spikes[-1] = ()
    return record


WEIGHTS = st.integers(-3, 3).filter(bool)
THRESHOLDS = st.integers(1, 4)


@st.composite
def networks(draw):
    """A random network and a duration. Source times run past the
    duration; synapses add cycles, self-loops at delay 1 and above
    (net-zero and negative ones too) and one ring through up to four
    neurons."""
    net = Network()
    duration = draw(st.integers(1, 30))
    schedules = st.lists(st.integers(0, 40), max_size=10, unique=True).map(sorted)
    sources = [net.add_source(draw(schedules))
               for _ in range(draw(st.integers(0, 3)))]
    neurons = [net.add_neuron(draw(THRESHOLDS))
               for _ in range(draw(st.integers(1, 6)))]
    entities = st.sampled_from(sources + neurons)
    targets = st.sampled_from(neurons)
    delays = st.integers(1, 4)
    for _ in range(draw(st.integers(0, 16))):
        net.connect(draw(entities), draw(targets), draw(WEIGHTS), draw(delays))
    for nid in draw(st.lists(targets, max_size=3)):
        delay = draw(st.sampled_from([1, 1, 2]))
        for weight in draw(st.lists(WEIGHTS, min_size=1, max_size=2)):
            net.connect(nid, nid, weight, delay)
    ring = draw(st.lists(targets, max_size=4, unique=True))
    if len(ring) > 1:
        for a, b in zip(ring, ring[1:] + ring[:1]):
            net.connect(a, b, draw(WEIGHTS), draw(delays))
    net.record(*sources, *neurons)
    return net, duration


@given(networks())
def test_random_gate_like_networks(case):
    assert_matches_reference(*case)


@st.composite
def rings(draw):
    """A ring of 2 to 4 neurons (delays 1 to 3, weights of either sign)
    fed from outside, directly or through a relay neuron, by periodic
    inputs that go quiet early, go quiet late or never go quiet, a
    reader neuron outside it, and a duration."""
    net = Network()
    duration = draw(st.integers(1, 60))
    ring = [net.add_neuron(draw(THRESHOLDS)) for _ in range(draw(st.integers(2, 4)))]
    for a, b in zip(ring, ring[1:] + ring[:1]):
        net.connect(a, b, draw(WEIGHTS), draw(st.integers(1, 3)))
    for _ in range(draw(st.integers(1, 3))):
        # quiet from ms 5, from 3 ms before the end, or spiking past it
        end = draw(st.sampled_from([5, max(duration - 3, 1), duration + 5]))
        feed = net.add_source(range(draw(st.integers(0, 3)), end,
                                    draw(st.integers(1, 4))))
        if draw(st.booleans()):
            relay = net.add_neuron()
            net.connect(feed, relay, 1, draw(st.integers(1, 3)))
            feed = relay
        for target in draw(st.lists(st.sampled_from(ring), min_size=1,
                                    max_size=2)):
            net.connect(feed, target, draw(WEIGHTS), draw(st.integers(1, 3)))
    reader = net.add_neuron()
    net.connect(draw(st.sampled_from(ring)), reader, 1, draw(st.integers(1, 3)))
    net.record(*net.sources, *net.neurons)
    return net, duration


@given(rings())
def test_random_rings(case):
    assert_matches_reference(*case)


def _duplicate_synapses(net, feed, nid):
    # two synapses of one (source, target, delay) add up to the threshold
    net.connect(feed, nid, 1, 2)
    net.connect(feed, nid, 1, 2)


def _cancelling_feed_forward_pair(net, feed, nid):
    # +2 and -2 on one edge cancel, leaving the other input to fire nid
    net.connect(feed, nid, 2, 1)
    net.connect(feed, nid, -2, 1)
    net.connect(feed, nid, 1, 3)


def _cancelling_ring(net, feed, nid):
    # a ring of nid and one more neuron whose edges both cancel
    other = net.add_neuron()
    net.connect(feed, nid, 1, 1)
    net.connect(feed, other, 1, 2)
    for a, b in ((nid, other), (other, nid)):
        net.connect(a, b, 1, 1)
        net.connect(a, b, -1, 1)
    net.record(other)


@pytest.mark.parametrize("wire", [
    _duplicate_synapses, _cancelling_feed_forward_pair, _cancelling_ring,
], ids=["duplicates", "cancelling-pair", "cancelling-ring"])
def test_synapses_that_add_up_or_cancel(wire):
    # the kernel sums a neuron's synapses one by one: equal or cancelling
    # ones need no merging to match the reference (test_self_loops holds
    # the cancelling self-loops, (1, -1) at delays 1 and 2)
    for threshold in (1, 2):
        net = Network()
        nid = net.add_neuron(threshold)
        feed = net.add_source([0, 1, 4, 5, 6, 11, 17, 18])
        wire(net, feed, nid)
        net.record(feed, nid)
        assert_matches_reference(net, 24)


@pytest.mark.parametrize("loop", [(1,), (2,), (1, 1), (1, -1), (-1,),
                                  (2, -1), (-2,)])
@pytest.mark.parametrize("delay", [1, 2])
@pytest.mark.parametrize("threshold", [1, 2, 3])
def test_self_loops(loop, delay, threshold):
    # a latch-like neuron under random set (+threshold) and reset (-3)
    rng = random.Random(f"{loop}{delay}{threshold}")
    net = Network()
    nid = net.add_neuron(threshold)
    for weight in loop:
        net.connect(nid, nid, weight, delay)
    sets = net.add_source(sorted(rng.sample(range(40), 8)))
    resets = net.add_source(sorted(rng.sample(range(40), 4)))
    net.connect(sets, nid, threshold, 1)
    net.connect(resets, nid, -3, 1)
    net.record(nid)
    assert_matches_reference(net, 40)


def _capture_runs(monkeypatch) -> list[tuple[Network, SpikeRecord]]:
    runs = []
    original = Network.run

    def run(net, duration_ms):
        record = original(net, duration_ms)
        runs.append((net, record))
        return record

    monkeypatch.setattr(Network, "run", run)
    return runs


@pytest.mark.parametrize("and_kind", ["classic", "fast"])
@pytest.mark.parametrize("kind", BLOCKS)
def test_check_pipelined_networks(kind, and_kind, monkeypatch):
    runs = _capture_runs(monkeypatch)
    ak, size = block_config(kind, and_kind)
    rng = random.Random(f"{kind}-{and_kind}")
    width = len(build_block(Network(), kind, ak, size).inputs)
    check_pipelined(kind, ak, size,
                    [rng.randrange(2 ** width) for _ in range(40)], kind)
    ((net, record),) = runs
    assert_matches_reference(net, record.duration_ms, record)


@pytest.fixture
def without_the_reference(monkeypatch):
    """Simulation cannot be constructed, nor a Network inside Network.run."""
    def refuse(self, *args, **kwargs):
        raise AssertionError(f"{type(self).__name__} constructed")

    monkeypatch.setattr(Simulation, "__init__", refuse)
    original = Network.run

    def run(net, duration_ms):
        with monkeypatch.context() as inside:
            inside.setattr(Network, "__init__", refuse)
            return original(net, duration_ms)

    monkeypatch.setattr(Network, "run", run)


@pytest.mark.parametrize("and_kind", ["classic", "fast"])
@pytest.mark.parametrize("name", EXPERIMENTS)
def test_canned_experiments_run_without_the_reference(
        name, and_kind, without_the_reference):
    assert run_experiment(name, ExperimentConfig(and_kind=and_kind)).passed


@pytest.mark.parametrize("kind", BLOCKS)
def test_check_pipelined_runs_without_the_reference(kind,
                                                    without_the_reference):
    # the kind's own sweeps, each a check_pipelined run on valid words
    ak, size = block_config(kind)
    # no seed given: the recipes that draw read DEFAULT_SEED
    checks = BLOCKS[kind].verify(ak, random.Random(kind), None, *size)
    assert checks and all(check.ok for check in checks)


@pytest.mark.parametrize("and_kind", ["classic", "fast"])
@pytest.mark.parametrize("name", EXPERIMENTS)
def test_canned_experiments(name, and_kind):
    result = run_experiment(name, ExperimentConfig(and_kind=and_kind))
    assert result.passed
    assert_matches_reference(result.net, result.duration_ms, result.record)


def test_run_memory_does_not_grow_with_the_duration():
    # one neuron that spikes once: a run of 4 * 10^6 ms holds a few
    # trains of 4 * 10^6 bits (0.5 MB each), and no per-ms objects
    net = Network()
    nid = net.add_neuron()
    net.connect(net.add_source([1]), nid, 1, 1)
    net.record(nid)
    tracemalloc.start()
    try:
        record = net.run(4_000_000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert record.trains == {nid: 1 << 2}
    assert peak < 8 * 2 ** 20


def test_run_plan_memory_per_synapse():
    # the plan holds, per neuron, a list of the network's own synapses:
    # a 100 ms run of a classic memory with r=255, c=16 (47,235
    # synapses) peaks at about 130 bytes per synapse
    net = Network()
    memory = build_block(net, "memory", "classic", (255, 16))
    net.record(*memory.outputs.values())
    tracemalloc.start()
    try:
        net.run(100)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 200 * len(net.synapses)
