"""Gate-level behavior: CSS, NOT, OR, both ANDs, SR latch."""

import pytest
from hypothesis import given, strategies as st

from spikelogic.gates import (
    InputTap,
    build_and_classic,
    build_and_fast,
    build_css,
    build_not,
    build_or,
    build_sr_latch,
    css_feed,
    drive,
    padded,
    wire,
)
from spikelogic.sim import Network, Synapse


def css_net():
    net = Network()
    return net, build_css(net)


def drive_all(net, gate, schedules):
    for port, times in schedules.items():
        drive(net, gate, port, net.add_source(times))


def drive_in(net, gate, *schedules):
    """Wire one source per schedule to the gate's one input port."""
    for times in schedules:
        drive(net, gate, "in", net.add_source(times))


schedule = st.sets(st.integers(min_value=1, max_value=24), max_size=12)


def labels(net, handle):
    """Ledger labels of the synapses a builder created."""
    return [net.categories[i] for i in handle.synapses]


class TestCss:
    def test_phases_interleave(self):
        net, css = css_net()
        a, b = css.output("phase_a"), css.output("phase_b")
        net.record(a, b)
        record = net.run(10)
        assert record.times(a) == (1, 3, 5, 7, 9)
        assert record.times(b) == (2, 4, 6, 8)

    def test_feed_delivers_one_quantum_per_ms(self):
        net, css = css_net()
        probe = net.add_neuron()
        before = len(net.synapses)
        css_feed(net, css, probe, 1, "Internal CSS")
        assert net.categories[before:] == ["Internal CSS"] * 2
        net.record(probe)
        assert net.run(10).times(probe) == tuple(range(2, 10))

    def test_bootstrap_is_not_a_neuron(self):
        net, css = css_net()
        bootstrap = [e for e in css.entities if e not in net.neurons]
        assert len(bootstrap) == 1 and bootstrap[0] in net.sources
        assert len(css.entities) - len(bootstrap) == 2
        # the bootstrap synapse is scaffolding and stays unlabelled
        assert sorted(labels(net, css)) == ["", "Internal CSS", "Internal CSS"]


class TestNot:
    def test_inverts_with_one_ms_latency(self):
        net, css = css_net()
        gate = build_not(net, css)
        drive_all(net, gate, {"in": (3,)})
        net.record(gate.output())
        # valid from t=2; the input at 3 suppresses t=4 only
        assert net.run(7).times(gate.output()) == (2, 3, 5, 6)

    def test_silent_input_gives_constant_train(self):
        net, css = css_net()
        gate = build_not(net, css)
        net.record(gate.output())
        assert net.run(8).times(gate.output()) == tuple(range(2, 8))

    @given(schedule)
    def test_boolean_conformance(self, times):
        net, css = css_net()
        gate = build_not(net, css)
        drive_all(net, gate, {"in": sorted(times)})
        net.record(gate.output())
        record = net.run(27)
        got = {t for t in record.times(gate.output()) if t >= 2}
        want = {t for t in range(2, 27) if t - 1 not in times}
        assert got == want

    def test_resource_footprint(self):
        net, css = css_net()
        gate = build_not(net, css)
        assert len(gate.entities) == 1
        assert sorted(labels(net, gate)) == ["CSS to NOT"] * 2
        assert len(gate.input_taps("in")) == 1


class TestOr:
    def test_single_input_forwards(self):
        net = Network()
        gate = build_or(net)
        drive_in(net, gate, (2,))
        net.record(gate.output())
        assert net.run(5).times(gate.output()) == (3,)

    def test_simultaneous_inputs_one_spike(self):
        net = Network()
        gate = build_or(net)
        drive_in(net, gate, (2,), (2,))
        net.record(gate.output())
        assert net.run(5).times(gate.output()) == (3,)

    @given(schedule, schedule)
    def test_boolean_conformance(self, t0, t1):
        net = Network()
        gate = build_or(net)
        drive_in(net, gate, sorted(t0), sorted(t1))
        net.record(gate.output())
        assert set(net.run(27).times(gate.output())) == \
            {t + 1 for t in (t0 | t1) if t + 1 < 27}

    def test_resource_footprint(self):
        net = Network()
        gate = build_or(net)
        assert len(gate.entities) == 1
        assert not labels(net, gate)
        assert len(gate.input_taps("in")) == 1


class TestClassicAnd:
    def test_coincident_inputs_fire(self):
        net = Network()
        gate = build_and_classic(net, 2)
        drive_in(net, gate, (5,), (5,))
        net.record(gate.output())
        assert net.run(9).times(gate.output()) == (7,)

    def test_lone_input_blocked(self):
        net = Network()
        gate = build_and_classic(net, 2)
        drive_in(net, gate, (5,))
        net.record(gate.output())
        assert net.run(9).times(gate.output()) == ()

    def test_staggered_inputs_blocked(self):
        net = Network()
        gate = build_and_classic(net, 2)
        drive_in(net, gate, (5,), (6,))
        net.record(gate.output())
        assert net.run(10).times(gate.output()) == ()

    def test_resource_footprint(self):
        net = Network()
        gate = build_and_classic(net, 3)
        assert len(gate.entities) == 2
        assert labels(net, gate) == ["Internal AND (classic)"]
        assert len(gate.input_taps("in")) == 2

    def test_rejects_fan_in_zero(self):
        net = Network()
        with pytest.raises(ValueError):
            build_and_classic(net, 0)


class TestFastAnd:
    def test_coincident_inputs_fire(self):
        net, css = css_net()
        gate = build_and_fast(net, css, 2)
        drive_in(net, gate, (5,), (5,))
        net.record(gate.output())
        assert net.run(9).times(gate.output()) == (6,)

    def test_lone_input_blocked(self):
        net, css = css_net()
        gate = build_and_fast(net, css, 2)
        drive_in(net, gate, (5,))
        net.record(gate.output())
        assert net.run(9).times(gate.output()) == ()

    def test_pipelines_every_ms(self):
        net, css = css_net()
        gate = build_and_fast(net, css, 2)
        drive_in(net, gate, range(2, 10), range(2, 10))
        net.record(gate.output())
        assert net.run(11).times(gate.output()) == tuple(range(3, 11))

    def test_resource_footprint(self):
        net, css = css_net()
        gate = build_and_fast(net, css, 3)
        assert len(gate.entities) == 1
        assert sorted(labels(net, gate)) == ["CSS to AND (fast)"] * 2
        assert len(gate.input_taps("in")) == 1

    def test_rejects_fan_in_zero(self):
        net, css = css_net()
        with pytest.raises(ValueError):
            build_and_fast(net, css, 0)


class TestAndEquivalence:
    @given(st.integers(min_value=1, max_value=4),
           st.lists(schedule, min_size=4, max_size=4))
    def test_fast_equals_classic_shifted(self, fan_in, schedules):
        net, css = css_net()
        fast = build_and_fast(net, css, fan_in)
        classic = build_and_classic(net, fan_in)
        for k in range(fan_in):
            src = net.add_source(sorted(schedules[k]))
            drive(net, fast, "in", src)
            drive(net, classic, "in", src)
        net.record(fast.output(), classic.output())
        record = net.run(29)
        # schedules start at t=1, so arrivals land after CSS warmup and
        # the two realizations must agree spike for spike
        assert set(record.times(fast.output())) == \
            {t - 1 for t in record.times(classic.output())}

    @given(st.integers(min_value=2, max_value=4), st.data())
    def test_boolean_conformance_pipelined(self, fan_in, data):
        words = data.draw(st.lists(
            st.integers(min_value=0, max_value=2 ** fan_in - 1),
            min_size=1, max_size=16))
        net, css = css_net()
        gate = build_and_fast(net, css, fan_in)
        for k in range(fan_in):
            drive(net, gate, "in", net.add_source(
                [2 + i for i, w in enumerate(words) if (w >> k) & 1]))
        net.record(gate.output())
        duration = len(words) + 4
        got = set(net.run(duration).times(gate.output()))
        all_on = 2 ** fan_in - 1
        want = {3 + i for i, w in enumerate(words)
                if w == all_on and 3 + i < duration}
        assert got == want


class TestSrLatch:
    def run_latch(self, set_times, reset_times, duration=10):
        net = Network()
        latch = build_sr_latch(net)
        drive_all(net, latch, {"set": set_times, "reset": reset_times})
        net.record(latch.output("q"))
        return net.run(duration).times(latch.output("q"))

    def test_set_then_reset(self):
        assert self.run_latch((2,), (6,)) == (3, 4, 5, 6)

    def test_redundant_set_keeps_state(self):
        assert self.run_latch((2, 4), (8,)) == (3, 4, 5, 6, 7, 8)

    def test_simultaneous_set_and_reset_stays_off(self):
        assert self.run_latch((2,), (2,)) == ()

    def test_reset_wins_while_holding(self):
        # held high, then set and reset together: inhibition dominates
        assert self.run_latch((2, 5), (5,)) == (3, 4, 5)

    def test_resource_footprint(self):
        net = Network()
        latch = build_sr_latch(net)
        assert len(latch.entities) == 1
        assert labels(net, latch) == ["Internal SR Latch"]


@pytest.mark.parametrize("build, ports", [
    (build_not, ["in"]),
    (lambda net, css: build_or(net), ["in"]),
    (lambda net, css: build_and_classic(net, 3), ["in"]),
    (lambda net, css: build_and_fast(net, css, 3), ["in"]),
    (lambda net, css: build_sr_latch(net), ["set", "reset"]),
], ids=["not", "or", "and-classic", "and-fast", "sr-latch"])
def test_gate_input_ports(build, ports):
    net, css = css_net()
    assert list(build(net, css).ports.inputs) == ports


def test_drive_rejects_unknown_port():
    net = Network()
    gate = build_or(net)
    src = net.add_source([1])
    with pytest.raises(ValueError, match="or has no input port 'in9'"):
        drive(net, gate, "in9", src)


def test_wire_pads_delay():
    net = Network()
    gate = build_or(net)
    src = net.add_source([2])
    wire(net, src, padded(gate.input_taps("in"), 2))
    net.record(gate.output())
    assert net.run(7).times(gate.output()) == (5,)


def test_padded_moves_taps_to_each_offset_in_turn():
    taps = (InputTap(0, 1, 1, "a"), InputTap(1, -2, 2, "b"))
    assert padded(taps, 1, [0, 5, 3], "c") == (
        padded(taps, 1, 0, "c") + padded(taps, 1, 5, "c") + padded(taps, 1, 3, "c"))
    assert padded(taps, 0, range(0, 6, 3)) == taps + padded(taps, 0, 3)
    assert padded(taps, 2, []) == () and padded((), 0, [1, 2]) == ()


def _taps_net() -> Network:
    """Neurons 0, 1 and 2, then spike source 3."""
    net = Network()
    for _ in range(3):
        net.add_neuron()
    net.add_source([1])
    return net


def _wired_both_ways(source, taps, as_generator: bool) -> None:
    """wire() must leave what the per-tap connect() loop leaves: the same
    synapses and labels, the ones before a bad tap included, and the same
    exception type and message."""
    per_tap, bulk = _taps_net(), _taps_net()

    def connect_each():
        for target, weight, delay, category in taps:
            per_tap.connect(source, target, weight, delay, category)

    given_taps = (tap for tap in taps) if as_generator else tuple(taps)
    assert _outcome(bulk, lambda: wire(bulk, source, given_taps)) == _outcome(
        per_tap, connect_each)


def _outcome(net: Network, wiring) -> tuple:
    """What wiring leaves in net: its synapses and labels, and the type
    and message of what it raised, if anything."""
    try:
        wiring()
        raised = None
    except Exception as error:  # noqa: BLE001 - compared, not handled
        raised = (type(error), str(error))
    assert all(type(syn) is Synapse for syn in net.synapses)
    return net.synapses, net.categories, raised


NEURON = st.sampled_from([0, 1, 2])
WEIGHT = st.sampled_from([-2, -1, 1, 3])
DELAY = st.integers(1, 4)
LABEL = st.sampled_from(["a", "b", ""])
GOOD_TAP = st.builds(InputTap, NEURON, WEIGHT, DELAY, LABEL)
BAD_TAP = st.one_of(
    st.tuples(NEURON, st.sampled_from([True, False, 1.0, 0]), DELAY, LABEL),
    st.tuples(NEURON, WEIGHT, st.sampled_from([0, True, -1, 1.0]), LABEL),
    # unknown, not an int, a bool, a spike source
    st.tuples(st.sampled_from([99, -1, "0", 1.0, None, True, 3]), WEIGHT,
              DELAY, LABEL),
    st.tuples(NEURON, WEIGHT, DELAY),
    st.tuples(NEURON, WEIGHT, DELAY, LABEL, LABEL),
    st.lists(NEURON, min_size=4, max_size=4),  # connect unpacks a list too
    st.just(7),
)
# a neuron or a spike source, or not an entity
SOURCES = st.one_of(st.sampled_from([0, 2, 3]),
                    st.sampled_from([99, -1, True, "0", None, 1.0]))
BAD = [(1, True, 1, "a"), (1, 1.0, 1, "a"), (1, 0, 1, "a"), (1, 1, 0, "a"),
       (1, 1, True, "a"), (1, 1, -1, "a"), (99, 1, 1, "a"), (-1, 1, 1, "a"),
       ("0", 1, 1, "a"), (1.0, 1, 1, "a"), (True, 1, 1, "a"), (3, 1, 1, "a"),
       (1, 1, 1), (1, 1, 1, "a", "b"), 7]


@pytest.mark.parametrize("as_generator", [False, True], ids=["tuple", "generator"])
@pytest.mark.parametrize("source, bad", [(0, bad) for bad in BAD] + [
    (source, None) for source in (99, -1, True, "0", None, 1.0)],
    ids=[f"tap-{bad!r}" for bad in BAD] + [
        f"source-{source!r}" for source in (99, -1, True, "0", None, 1.0)])
def test_wire_refuses_what_connect_refuses(source, bad, as_generator):
    good = [InputTap(0, 1, 1, "a"), InputTap(2, -1, 2, "b")]
    _wired_both_ways(source, good + ([] if bad is None else [bad]) + good,
                     as_generator)
    _wired_both_ways(source, [], as_generator)


@given(SOURCES, st.lists(GOOD_TAP, max_size=6),
       st.lists(st.tuples(st.integers(0, 6), BAD_TAP), max_size=2), st.booleans())
def test_wire_adds_and_raises_what_a_connect_per_tap_does(source, good, bad,
                                                          as_generator):
    taps = list(good)
    for at, tap in bad:
        taps.insert(at, tap)
    _wired_both_ways(source, taps, as_generator)
