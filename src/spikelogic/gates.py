"""Spiking logic gates built from default integer-threshold neurons.

Each builder adds neurons and internal synapses to a Network and returns
a Handle naming the gate's ports and spanning what it added. Input ports
are connection descriptors (taps), not pre-made synapses, so callers
wire their own drivers: NOT, OR and AND each have one port, `in`, for
every driver, as their inputs are symmetric, and the SR latch has set
and reset. Gate latency is the sum of delays on the output path.
padded is the one tap transform (delay, offset, relabel); wire and drive
connect taps as given, so a driver gets exactly the taps it is wired to.

Gates that must act in the absence of input (NOT, the single-neuron
fast AND) lean on a constant spike source (CSS): two neurons in a
mutual 1 ms ring, kicked off by one bootstrap spike at t=0. The phases
alternate, so the standard two-synapse hookup (one synapse from each
phase, equal weight, delay 1) delivers exactly one contribution per
millisecond from t=2 onward.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import repeat
from typing import NamedTuple

from .resources import ResourceReport
from .sim import Network, _require_int

# The label of the CSS ring's two synapses. Every synapse carries the
# label resources.py itemizes its closed-form count under; blocks._block
# adds these two to the report of a kind whose closed forms count a CSS.
CAT_INTERNAL_CSS = "Internal CSS"


class InputTap(NamedTuple):
    """One place an input port lands: target neuron, weight and delay."""

    target: int
    weight_quanta: int
    delay_ms: int
    category: str


@dataclass
class Handle:
    """A built gate or block: its input ports' taps and output ports'
    ids, and the spans of entity ids and synapse indices its builder
    added to the network; a block's latency is expected_latency's.

    Builders add both contiguously, so a block's spans cover those of
    its parts. Blocks also carry their AND kind, size parameters and
    measured resource report.
    """

    kind: str
    inputs: dict[str, tuple[InputTap, ...]]
    outputs: dict[str, int]
    entities: range
    synapses: range
    and_kind: str | None = None  # "classic" or "fast" on blocks with ANDs
    params: dict[str, int] = field(default_factory=dict)
    resources: ResourceReport | None = None
    decoder: Handle | None = None

    def output(self, name: str = "out") -> int:
        try:
            return self.outputs[name]
        except KeyError:
            raise ValueError(f"{self.kind} has no output port {name!r}") from None

    def input_taps(self, name: str) -> tuple[InputTap, ...]:
        try:
            return self.inputs[name]
        except KeyError:
            raise ValueError(f"{self.kind} has no input port {name!r}") from None


def _mark(net: Network) -> tuple[int, int]:
    """Where a builder starts: the next entity id and synapse index."""
    return len(net.neurons) + len(net.sources), len(net.synapses)


def _spanned(net: Network, start: tuple[int, int], kind: str,
             inputs: dict[str, tuple[InputTap, ...]], outputs: dict[str, int],
             **fields) -> Handle:
    """A handle over everything added to net since start = _mark(net)."""
    end = _mark(net)
    return Handle(kind, inputs, outputs, range(start[0], end[0]),
                  range(start[1], end[1]), **fields)


def padded(taps: tuple[InputTap, ...], extra_delay_ms: int = 0,
           offset: int | Sequence[int] = 0,
           category: str | None = None) -> tuple[InputTap, ...]:
    """The one tap transform: copies of taps with extra delay, used to
    align converging paths, with targets offset ids on (the taps of a
    copy made by Network.copy), and labelled category when one is given.
    A sequence of offsets gives the taps moved to each offset in turn."""
    _require_int("extra_delay_ms", extra_delay_ms, 0)
    offsets = (offset,) if type(offset) is int else offset
    # type() rather than isinstance(): a bool is an int, not an offset
    if not isinstance(offsets, Sequence) or {*map(type, offsets)} - {int}:
        raise ValueError("offset must be an int or a sequence of ints, "
                         f"not {offset!r}")
    if category is not None and not isinstance(category, str):
        raise ValueError(f"category must be a str or None, not {category!r}")
    targets, weights, delays, labels = zip(*taps) if taps else [()] * 4
    copies = len(offsets)
    return tuple(map(tuple.__new__, repeat(InputTap), zip(
        [target + moved for moved in offsets for target in targets],
        weights * copies, [delay + extra_delay_ms for delay in delays] * copies,
        labels * copies if category is None else repeat(category))))


def wire(net: Network, source_id: int, taps: tuple[InputTap, ...]) -> None:
    """Connect one driver to every tap as given, a synapse per tap, all
    checked at once; an error is the one connect() would raise."""
    net.connect_taps(source_id, taps)


def drive(net: Network, handle: Handle, port_name: str, source_id: int) -> None:
    """Wire a driver to a named input port of a gate or block handle."""
    wire(net, source_id, handle.input_taps(port_name))


def _require_css(css) -> None:
    if css is None or getattr(css, "kind", None) != "css":
        raise ValueError("a constant spike source handle (build_css) is required")


def build_css(net: Network) -> Handle:
    """Constant spike source: a two-neuron 1 ms ring plus a bootstrap.

    The bootstrap source spikes once at t=0, so phase A fires at odd
    milliseconds starting at 1 and phase B at even ones starting at 2;
    together they cover every t >= 1 exactly once. The bootstrap source
    and its synapse are scaffolding: the synapse is the one left
    unlabelled, and neither counts in resource totals.
    """
    start = _mark(net)
    phase_a = net.add_neuron()
    phase_b = net.add_neuron()
    net.connect(phase_a, phase_b, 1, 1, CAT_INTERNAL_CSS)
    net.connect(phase_b, phase_a, 1, 1, CAT_INTERNAL_CSS)
    net.connect(net.add_source((0,)), phase_a, 1, 1)
    return _spanned(net, start, "css", {},
                    {"phase_a": phase_a, "phase_b": phase_b})


def css_feed(net: Network, css: Handle, target: int, weight_quanta: int,
             category: str) -> None:
    """Standard CSS hookup: one synapse per phase, so the target receives
    weight_quanta once per millisecond from t=2 onward."""
    _require_css(css)
    for phase in ("phase_a", "phase_b"):
        net.connect(css.output(phase), target, weight_quanta, 1, category)


def build_not(net: Network, css: Handle) -> Handle:
    """Inverter: out fires at t+1 iff `in` had no spike at t (t >= 1).

    One neuron excited by the CSS (+1 per ms) and inhibited by the
    input (-1); with no input it fires every millisecond from t=2.
    """
    start = _mark(net)
    neuron = net.add_neuron()
    css_feed(net, css, neuron, 1, "CSS to NOT")
    return _spanned(net, start, "not",
                    {"in": (InputTap(neuron, -1, 1, "Input to NOT"),)},
                    {"out": neuron})


def build_or(net: Network) -> Handle:
    """OR: one neuron, which each driver wired to `in` excites +1, delay 1.

    Coincident inputs still yield a single output spike per timestep.
    """
    start = _mark(net)
    neuron = net.add_neuron()
    return _spanned(net, start, "or",
                    {"in": (InputTap(neuron, 1, 1, "Input to OR"),)},
                    {"out": neuron})


def _and_weights(fan_in: int) -> tuple[int, int]:
    """(veto, direct) weights: only a full input set nets +1. Fan-in 1
    doubles the direct weight against a -1 veto, since a zero-weight
    veto synapse is not allowed."""
    _require_int("fan_in", fan_in, 1)
    return (-1, 2) if fan_in == 1 else (-(fan_in - 1), 1)


def build_and_classic(net: Network, fan_in: int) -> Handle:
    """Two-neuron AND with 2 ms latency and no CSS dependence.

    Collector X fires on any spike at `in`; output Y sums them at t+2
    against X's veto, leaving net +1 only when fan_in drivers wired to
    `in` spiked in the same ms.
    """
    veto, direct = _and_weights(fan_in)
    start = _mark(net)
    collector = net.add_neuron()
    out = net.add_neuron()
    net.connect(collector, out, veto, 1, "Internal AND (classic)")
    taps = (InputTap(collector, 1, 1, "Input to AND (classic)"),
            InputTap(out, direct, 2, "Input to AND (classic)"))
    return _spanned(net, start, "and_classic", {"in": taps}, {"out": out})


def build_and_fast(net: Network, css: Handle, fan_in: int) -> Handle:
    """Single-neuron AND with 1 ms latency.

    The CSS delivers the veto, -(fan_in - 1) per millisecond, so only
    fan_in drivers wired to `in` spiking in the same ms net +1.
    """
    veto, direct = _and_weights(fan_in)
    _require_css(css)
    start = _mark(net)
    neuron = net.add_neuron()
    css_feed(net, css, neuron, veto, "CSS to AND (fast)")
    taps = (InputTap(neuron, direct, 1, "Input to AND (fast)"),)
    return _spanned(net, start, "and_fast", {"in": taps}, {"out": neuron})


def build_sr_latch(net: Network) -> Handle:
    """Set/reset latch on one self-exciting neuron.

    set (+1) starts the self-loop one millisecond later; reset (-2)
    overcomes self-excitation and wins over a simultaneous set.
    """
    start = _mark(net)
    neuron = net.add_neuron()
    net.connect(neuron, neuron, 1, 1, "Internal SR Latch")
    inputs = {
        "set": (InputTap(neuron, 1, 1, "Input to SR Latch (set)"),),
        "reset": (InputTap(neuron, -2, 1, "Input to SR Latch (reset)"),),
    }
    return _spanned(net, start, "sr_latch", inputs, {"q": neuron})
