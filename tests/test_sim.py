"""Simulator kernel: construction, thresholds, the one neuron regime
(fire when the input of one millisecond reaches threshold, keep
nothing), determinism and template copies."""

from itertools import permutations

import pytest
from hypothesis import given, strategies as st

from spikelogic.sim import Network, SpikeRecord, Synapse, _words


def single_neuron(threshold_quanta: int = 1):
    net = Network()
    nid = net.add_neuron(threshold_quanta)
    net.record(nid)
    return net, nid


class TestConstruction:
    def test_ids_are_dense(self):
        net = Network()
        assert net.add_neuron() == 0
        assert net.add_source([1]) == 1
        assert net.add_neuron() == 2

    def test_bad_neuron_params(self):
        net = Network()
        for value in (0, -1, True, 1.0, "1", None):
            with pytest.raises(ValueError, match="threshold_quanta"):
                net.add_neuron(value)
        assert net.neurons == {}

    def test_threshold_is_the_one_neuron_param(self):
        # one regime: no refractory period, no charge carried over
        net = Network()
        assert net.neurons[net.add_neuron(threshold_quanta=3)] == 3
        with pytest.raises(TypeError):
            net.add_neuron(refractory_ms=1)

    @pytest.mark.parametrize("field", ["threshold_quanta"])
    @pytest.mark.parametrize("value", [True, False])
    def test_bool_neuron_params_rejected(self, field, value):
        with pytest.raises(ValueError):
            Network().add_neuron(**{field: value})

    def test_connect_keeps_category_ledger(self):
        net = Network()
        a, b = net.add_neuron(), net.add_neuron()
        net.connect(a, b, 1, 1)
        net.connect(b, a, -1, 2, "Internal SR Latch")
        assert list(net.categories) == ["", "Internal SR Latch"]
        assert len(net.categories) == len(net.synapses)

    def test_bad_source_schedules(self):
        net = Network()
        with pytest.raises(ValueError):
            net.add_source([-1])
        with pytest.raises(ValueError):
            net.add_source([2, 2])
        with pytest.raises(ValueError):
            net.add_source([3, 1])
        for times in ([True], ["1"], [1.5], [0, None]):
            with pytest.raises(ValueError, match="times"):
                net.add_source(times)
        assert net.sources == {}

    def test_connect_validation(self):
        net = Network()
        a = net.add_neuron()
        src = net.add_source([0])
        with pytest.raises(ValueError):
            net.connect(99, a, 1, 1)
        with pytest.raises(ValueError):
            net.connect(a, 99, 1, 1)
        with pytest.raises(ValueError, match="sources cannot receive"):
            net.connect(a, src, 1, 1)
        with pytest.raises(ValueError, match="nonzero"):
            net.connect(src, a, 0, 1)
        with pytest.raises(ValueError, match="delay"):
            net.connect(src, a, 1, 0)
        for weight in (True, "1", 1.0):
            with pytest.raises(ValueError, match="weight_quanta"):
                net.connect(src, a, weight, 1)
        for delay in (True, "1", 1.5):
            with pytest.raises(ValueError, match="delay_ms"):
                net.connect(src, a, 1, delay)
        with pytest.raises(ValueError, match="source id"):
            net.connect(True, a, 1, 1)
        with pytest.raises(ValueError, match="target id"):
            net.connect(src, [a], 1, 1)
        assert list(net.synapses) == []

    def test_record_unknown_id(self):
        net = Network()
        with pytest.raises(ValueError):
            net.record(7)
        net.add_neuron()
        for eid in (False, [0]):
            with pytest.raises(ValueError, match="entity id"):
                net.record(eid)

    def test_run_needs_positive_duration(self):
        net = Network()
        with pytest.raises(ValueError):
            net.run(0)

    @pytest.mark.parametrize("duration", [True, 2.0, "3", None])
    def test_run_needs_int_duration(self, duration):
        # a bool is not a duration: True would run 1 ms
        net = Network()
        net.add_neuron()
        with pytest.raises(ValueError, match="duration_ms"):
            net.run(duration)


class TestFiring:
    def test_spike_at_arrival(self):
        net, nid = single_neuron()
        net.connect(net.add_source([3]), nid, 1, 2)
        assert net.run(8).times(nid) == (5,)

    @given(st.integers(min_value=0, max_value=40))
    def test_single_quantum_fires_once(self, t):
        net, nid = single_neuron()
        net.connect(net.add_source([t]), nid, 1, 1)
        assert net.run(t + 3).times(nid) == (t + 1,)

    def test_threshold_oracle_exhaustive(self):
        # every subset of three weighted inputs against a plain sum
        weights = (1, 2, -1)
        for threshold in (1, 2, 3):
            for mask in range(8):
                net, nid = single_neuron(threshold)
                for k, w in enumerate(weights):
                    if (mask >> k) & 1:
                        net.connect(net.add_source([1]), nid, w, 1)
                total = sum(w for k, w in enumerate(weights)
                            if (mask >> k) & 1)
                want = (2,) if total >= threshold else ()
                assert net.run(4).times(nid) == want

    def test_exact_cancellation_does_not_fire(self):
        net, nid = single_neuron()
        src = net.add_source([1])
        net.connect(src, nid, 2, 1)
        net.connect(src, nid, -2, 1)
        assert net.run(4).times(nid) == ()

    def test_sustained_train_every_ms(self):
        net, nid = single_neuron()
        net.connect(net.add_source(range(0, 9)), nid, 1, 1)
        assert net.run(10).times(nid) == tuple(range(1, 10))

    def test_self_loop_holds_state(self):
        net, nid = single_neuron()
        net.connect(nid, nid, 1, 1)
        net.connect(net.add_source([2]), nid, 1, 1)
        assert net.run(8).times(nid) == (3, 4, 5, 6, 7)


class TestCarryover:
    def test_zero_carryover_forgets_subthreshold_charge(self):
        net, nid = single_neuron(2)
        net.connect(net.add_source([1, 2]), nid, 1, 1)
        assert net.run(5).times(nid) == ()


class TestDeterminism:
    def _demo_net(self, order):
        net = Network()
        a = net.add_neuron()
        b = net.add_neuron(2)
        s1 = net.add_source([1, 3, 4])
        s2 = net.add_source([2, 3])
        edges = [(s1, a, 1, 1), (s2, a, -1, 1), (s1, b, 1, 1),
                 (s2, b, 1, 1), (a, b, 1, 2)]
        for k in order:
            net.connect(*edges[k])
        net.record(a, b)
        return net

    def test_repeated_runs_identical(self):
        net = self._demo_net(range(5))
        assert net.run(9) == net.run(9)

    def test_synapse_order_irrelevant(self):
        reference = self._demo_net(range(5)).run(9)
        for order in permutations(range(5)):
            assert self._demo_net(order).run(9) == reference

    @given(st.lists(st.integers(min_value=0, max_value=30),
                    min_size=1, max_size=12, unique=True))
    def test_no_spikes_outside_duration(self, times):
        duration = 12
        net, nid = single_neuron()
        net.connect(net.add_source(sorted(times)), nid, 1, 3)
        record = net.run(duration)
        assert all(0 <= t < duration for t in record.times(nid))
        assert record.duration_ms == duration


@given(st.data())
def test_ids_stay_dense_and_recorded_keeps_first_order(data):
    # every new id is the count of entities before the call, through
    # neurons, sources and copies alike; record keeps the order in which
    # ids were first recorded and ignores repeats, and run reports them
    # sorted
    net, order = Network(), []
    for step in data.draw(st.lists(st.sampled_from(
            ["neuron", "source", "copy", "record"]), max_size=30)):
        before = len(net.neurons) + len(net.sources)
        if step == "neuron":
            assert net.add_neuron() == before
        elif step == "source":
            assert net.add_source([1]) == before
        elif step == "copy" and net.neurons:
            nid = data.draw(st.sampled_from(sorted(net.neurons)))
            count = data.draw(st.integers(0, 3))
            offsets = net.copy(range(nid, nid + 1), range(0), count)
            assert [nid + offset for offset in offsets] == list(
                range(before, before + count))
        elif step == "record" and before:
            ids = data.draw(st.lists(st.integers(0, before - 1), max_size=5))
            net.record(*ids)
            order += [eid for eid in dict.fromkeys(ids) if eid not in order]
        total = len(net.neurons) + len(net.sources)
        assert sorted([*net.neurons, *net.sources]) == list(range(total))
    assert list(net.recorded) == order
    assert list(net.run(3).trains) == sorted(order)


def test_synapse_is_plain_data():
    syn = Synapse(0, 1, -2, 3)
    assert (syn.source, syn.target, syn.weight_quanta, syn.delay_ms) == \
        (0, 1, -2, 3)


def test_spike_record_is_read_only():
    net, nid = single_neuron()
    net.connect(net.add_source([1]), nid, 1, 1)
    record = net.run(4)
    assert record.times(nid) == (2,)
    with pytest.raises(TypeError):
        record.spikes[99] = ()
    with pytest.raises(TypeError):
        del record.spikes[nid]
    assert record == SpikeRecord(4, {nid: (2,)})


def test_spike_record_keeps_its_own_copy():
    spikes = {0: (1, 2)}
    record = SpikeRecord(3, spikes)
    spikes[0] = ()
    spikes[1] = (0,)
    assert dict(record.spikes) == {0: (1, 2)}


def _copy_template() -> tuple[Network, range, range]:
    """A network of a source (id 0), five outside neurons and a
    two-neuron template (ids 6 and 7) whose synapses come from the
    source, from inside and from outside neuron 3; returns it with the
    template's spans."""
    net = Network()
    source = net.add_source([1, 3])
    feeder = [net.add_neuron() for _ in range(5)][2]
    a = net.add_neuron(2)
    b = net.add_neuron()
    start = len(net.synapses)
    net.connect(source, a, 1, 1, "in")
    net.connect(a, b, -1, 2, "inside")
    net.connect(feeder, b, 2, 3, "feed")
    net.connect(b, b, 1, 1)
    return net, range(a, b + 1), range(start, len(net.synapses))


def _snapshot(net: Network) -> tuple:
    return (dict(net.neurons), dict(net.sources), list(net.synapses),
            list(net.categories), net.add_neuron())


class TestCopy:
    # stride -1 reaches the source, stride 1 the template's first neuron
    @pytest.mark.parametrize("count", range(4))
    @pytest.mark.parametrize("stride", [None, 0, 1, -1])
    def test_copy_equals_connecting_each_copy(self, count, stride):
        net, entities, synapses = _copy_template()
        feeder = net.synapses[synapses[2]].source
        moved = None if stride is None else {feeder: stride}
        reference, _, _ = _copy_template()
        offsets = []
        for k in range(count):
            ids = [reference.add_neuron(reference.neurons[eid])
                   for eid in entities]
            offset = ids[0] - entities.start
            for index in synapses:
                source, target, weight, delay = reference.synapses[index]
                if source in entities:
                    source += offset
                elif moved and source in moved:
                    source += (k + 1) * moved[source]
                reference.connect(source, target + offset, weight, delay,
                                  reference.categories[index])
            offsets.append(offset)
        assert list(net.copy(entities, synapses, count, moved)) == offsets
        assert _snapshot(net) == _snapshot(reference)

    def test_copy_makes_no_connect_call(self, monkeypatch):
        net, entities, synapses = _copy_template()

        def refused(*args):
            raise AssertionError("a copy went through connect")

        monkeypatch.setattr(Network, "connect", refused)
        net.copy(entities, synapses, 3, {3: 1})
        assert len(net.synapses) == 4 * len(synapses)

    def test_count_zero_adds_nothing(self):
        net, entities, synapses = _copy_template()
        before = _snapshot(_copy_template()[0])
        offsets = net.copy(entities, synapses, 0, {3: 4})
        assert offsets == range(0) and len(offsets) == 0
        assert _snapshot(net) == before

    @pytest.mark.parametrize("call, message", [
        # the span holds the spike source
        (lambda net, e, s: net.copy(range(0, e.stop), s, 1), "neuron ids"),
        (lambda net, e, s: net.copy(range(0), s, 1), "neuron ids"),
        (lambda net, e, s: net.copy(range(e.start, e.stop + 1), s, 1),
         "neuron ids"),
        (lambda net, e, s: net.copy(tuple(e), s, 1), "neuron ids"),
        # a template synapse lands outside its span
        (lambda net, e, s: net.copy(range(e.start, e.start + 1), s, 1),
         "target"),
        (lambda net, e, s: net.copy(e, range(s.start, s.stop + 1), 1),
         "synapse indices"),
        (lambda net, e, s: net.copy(e, range(-1, s.stop), 1),
         "synapse indices"),
        # a moved source whose last step falls outside the existing ids
        (lambda net, e, s: net.copy(e, s, 2, {3: 3}), "moved source"),
        (lambda net, e, s: net.copy(e, s, 1, {3: 5}), "moved source"),
        (lambda net, e, s: net.copy(e, s, 2, {3: -2}), "moved source"),
        (lambda net, e, s: net.copy(e, s, 1, {99: 0}), "moved source"),
        (lambda net, e, s: net.copy(e, s, 1, {e.start: 0}), "moved source"),
        (lambda net, e, s: net.copy(e, s, 1, {3: 1.0}), "moved source"),
        (lambda net, e, s: net.copy(e, s, 1, {True: 0}), "moved source"),
        # a count that is not an int >= 0
        (lambda net, e, s: net.copy(e, s, -1), "count"),
        (lambda net, e, s: net.copy(e, s, 1.0), "count"),
        (lambda net, e, s: net.copy(e, s, True), "count"),
        (lambda net, e, s: net.copy(e, s, "1"), "count"),
        (lambda net, e, s: net.copy(e, s, None), "count"),
    ], ids=["source-in-span", "empty-span", "past-last-id", "not-a-range",
            "synapse-out-of-span", "past-last-synapse", "negative-synapse",
            "moved-past-last-id", "moved-onto-first-new-id", "moved-below-zero", "moved-unknown",
            "moved-inside", "moved-float-stride", "moved-bool-source",
            "count-negative", "count-float", "count-bool", "count-str",
            "count-none"])
    def test_bad_copies_raise_and_change_nothing(self, call, message):
        net, entities, synapses = _copy_template()
        before = _snapshot(_copy_template()[0])
        with pytest.raises(ValueError, match=message):
            call(net, entities, synapses)
        assert _snapshot(net) == before


# 0 to 20 trains: up to three byte blocks; trains may spike past the
# duration, and the duration may be 0
@given(st.integers(0, 40).flatmap(lambda duration: st.tuples(
    st.just(duration),
    st.lists(st.integers(0, 2 ** (duration + 8) - 1), max_size=20))))
def test_words_match_each_bit(case):
    duration, trains = case
    words = _words(trains, duration)
    assert type(words) is (bytes if len(trains) <= 8 else list)
    assert list(words) == [
        sum((train >> t & 1) << k for k, train in enumerate(trains))
        for t in range(duration)]
