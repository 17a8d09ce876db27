"""Combinational and sequential blocks composed from the spiking gates.

Every block follows the same recipe: invert what needs inverting, feed
coincidence (AND) gates according to the binary truth table, and pad
the non-inverted paths so all inputs of an AND arrive in the same
millisecond. A direct input therefore carries one extra millisecond of
delay to match its sibling that went through a NOT.

Blocks accept either AND flavor. The classic AND spends two neurons and
2 ms; the fast AND spends one neuron and 1 ms but leans on the shared
constant spike source for its per-millisecond veto. Block latencies are
fixed by construction; the latency table is the one in resources.py.

Resource accounting: a handle's report counts the neurons and the
labelled synapses the block created, plus one synapse per input tap
(each input port is meant to be wired from exactly one driver). Where
the kind's closed forms count the CSS (resources._Kind.counts_css: the
decoder, mux, demux and memory) it adds the CSS's 2 neurons and 2
synapses; elsewhere (encoder, D latch) it leaves out the synapses from
the CSS, so a D latch composes cleanly into the memory totals.

Identical parts are built once and copied by Network.copy, which
appends a template's entity and synapse spans again at an id offset
without a connect() call per synapse; the builder moves the template's
taps and outputs by the offsets instead of making a handle per copy.
A select stage (the decoder, and the select half of the mux and demux)
runs its AND builder for gate 0 only. A memory builds latch 0 and its
store and data_not wires, copies them along row 0 with the data
inverter moved one column on per copy, then copies row 0 whole for
every other register with the store strobe moved one decoder channel
on per row. Entity ids and synapse order are those of building every
gate and latch.

Taps and wires are made in bulk too: padded moves a port's taps to
every copy's offset in one call, and wire hands a driver's taps to
Network.connect_taps, which checks them at once and raises what a
connect() per tap would. A select line takes its taps from one tuple
per stage, so each gate's taps are made once and shared by the n lines.
"""

from __future__ import annotations

from itertools import chain, compress, cycle
from operator import itemgetter

from .gates import (
    CAT_INTERNAL_CSS,
    Handle,
    InputTap,
    build_and_classic,
    build_and_fast,
    build_not,
    build_or,
    build_sr_latch,
    _mark,
    _require_css,
    _spanned,
    padded,
    wire,
)
from .resources import (
    _FORMS,
    ResourceReport,
    and_kind_name,
    expected_latency,
)
from .sim import Network, _require_int


def _and_gate(net: Network, and_kind: str, css, fan_in: int) -> Handle:
    if and_kind == "classic":
        return build_and_classic(net, fan_in)
    return build_and_fast(net, css, fan_in)


def _block(net: Network, start: tuple[int, int], kind: str, and_kind,
           params: dict[str, int], inputs: dict[str, tuple[InputTap, ...]],
           outputs: dict[str, int], css, **fields) -> Handle:
    """Handle over everything built since start = _mark(net), with its
    resource report: its neurons, the ledger labels of its synapses and
    one synapse per input tap. Where the kind's closed forms count the
    CSS, the report adds its 2 neurons and 2 synapses; elsewhere it
    leaves out the synapses from the CSS."""
    handle = _spanned(net, start, kind, inputs, outputs,
                      and_kind=and_kind, params=params, **fields)
    neurons = len(handle.entities)
    if _FORMS[kind].counts_css:
        categories = net.label_counts(handle.synapses)
        neurons += 2
        categories[CAT_INTERNAL_CSS] += 2
    else:
        categories = net.label_counts(
            handle.synapses, css.entities if css is not None else ())
    categories.update(map(itemgetter(3), chain.from_iterable(inputs.values())))
    handle.resources = ResourceReport(neurons, sum(categories.values()),
                                      dict(sorted(categories.items())))
    return handle


def _select_stage(net: Network, n: int, and_kind: str, css, fan_in: int,
                  ) -> tuple[list[int], tuple[InputTap, ...], dict]:
    """n inverters plus 2^n coincidence gates wired per the binary
    truth table: channel j's input b sees the direct line when bit b of
    j is set, the inverted line otherwise. Only gate 0 runs its builder;
    gates 1 to 2^n - 1 are copied from it. Returns each gate's output,
    the gates' input taps in channel order (labelled as the inverters'
    wires), and the select ports."""
    _require_int("n", n, 1)
    _require_css(css)
    inverters = [build_not(net, css) for _ in range(n)]
    first = _and_gate(net, and_kind, css, fan_in)
    offsets = [0, *net.copy(first.entities, first.synapses, 2 ** n - 1)]
    taps = first.input_taps("in")
    # every gate's taps made once and shared by the n select lines
    inverted = padded(taps, 0, offsets, f"NOT to AND ({and_kind})")
    direct = padded(taps, 1, offsets)
    select_ports: dict[str, tuple[InputTap, ...]] = {}
    for b, inverter in enumerate(inverters):
        # in channel order, the taps of 2^b channels with bit b clear,
        # then of 2^b with it set; one wire keeps gate-by-gate order
        run = len(taps) << b
        wire(net, inverter.output(), compress(inverted, cycle([1] * run + [0] * run)))
        select_ports[f"s{b}"] = (*inverter.input_taps("in"),
                                 *compress(direct, cycle([0] * run + [1] * run)))
    out = first.output()
    return [out + offset for offset in offsets], inverted, select_ports


def build_decoder(net: Network, n: int, and_kind, css) -> Handle:
    """n select lines to 2^n one-hot channels; channel 0 fires when no
    select line does (the non-operation channel)."""
    ak = and_kind_name(and_kind)
    start = _mark(net)
    outputs, _, select_ports = _select_stage(net, n, ak, css, n)
    return _block(net, start, "decoder", ak, {"n": n}, select_ports,
                  {f"ch{j}": out for j, out in enumerate(outputs)}, css)


def build_encoder(net: Network, num_inputs: int) -> Handle:
    """Inputs d0..d{num_inputs-1} to a binary index on output bits
    b0..b{w-1}: input i excites the OR gate of every set bit of i.
    Input 0 is deliberately unconnected, so driving it changes nothing
    and an all-silent input reads as index 0. Simultaneously active
    inputs combine as the bitwise OR of their indices."""
    _require_int("num_inputs", num_inputs, 2)
    start = _mark(net)
    width = (num_inputs - 1).bit_length()
    or_gates = [build_or(net) for _ in range(width)]
    inputs: dict[str, tuple[InputTap, ...]] = {"d0": ()}
    for i in range(1, num_inputs):
        inputs[f"d{i}"] = tuple(tap for b in range(width) if (i >> b) & 1
                                for tap in or_gates[b].input_taps("in"))
    outputs = {f"or{b}": or_gates[b].output() for b in range(width)}
    return _block(net, start, "encoder", None, {"num_inputs": num_inputs},
                  inputs, outputs, None)


def build_multiplexer(net: Network, n: int, and_kind, css) -> Handle:
    """2^n data lines, n select lines, one output: the selected data
    line is forwarded, everything else is dropped."""
    ak = and_kind_name(and_kind)
    start = _mark(net)
    outputs, gate_taps, ports_in = _select_stage(net, n, ak, css, n + 1)
    collector = build_or(net)
    to_or = padded(collector.input_taps("in"), category="AND to OR")
    data = padded(gate_taps, 1, category=f"Data inputs to AND ({ak})")
    width = len(data) // len(outputs)
    for j, out in enumerate(outputs):
        ports_in[f"d{j}"] = data[j * width:(j + 1) * width]
        wire(net, out, to_or)
    return _block(net, start, "multiplexer", ak, {"n": n}, ports_in,
                  {"out": collector.output()}, css)


def build_demultiplexer(net: Network, n: int, and_kind, css) -> Handle:
    """One data line routed to the channel named by the n select lines."""
    ak = and_kind_name(and_kind)
    start = _mark(net)
    outputs, gate_taps, ports_in = _select_stage(net, n, ak, css, n + 1)
    ports_in["d"] = padded(gate_taps, 1, category=f"Data inputs to AND ({ak})")
    return _block(net, start, "demultiplexer", ak, {"n": n}, ports_in,
                  {f"ch{j}": out for j, out in enumerate(outputs)}, css)


def build_d_latch(net: Network, and_kind, css) -> Handle:
    """Level-sensitive latch: on a store spike, q tracks data; without
    store, q holds.

    Two AND gates gate the data path: store AND data sets the SR
    neuron, store AND inverted-data resets it (a stored 0 is an active
    reset, and reset wins over set by construction). The caller
    supplies the inverted data line on the data_not port.
    """
    ak = and_kind_name(and_kind)
    start = _mark(net)
    set_and = _and_gate(net, ak, css, 2)
    reset_and = _and_gate(net, ak, css, 2)
    sr = build_sr_latch(net)
    for gate, port in ((set_and, "set"), (reset_and, "reset")):
        wire(net, gate.output(), padded(sr.input_taps(port),
                                        category=f"AND to SR Latch ({port})"))
    inputs = {
        "store": padded(set_and.input_taps("in") + reset_and.input_taps("in"),
                        category=f"Store to AND ({ak})"),
        "data": padded(set_and.input_taps("in"), category=f"Data to AND ({ak})"),
        "data_not": padded(reset_and.input_taps("in"),
                           category=f"Inverted data to AND ({ak})"),
    }
    return _block(net, start, "d_latch", ak, {}, inputs,
                  {"q": sr.output("q")}, css)


def build_memory(net: Network, registers: int, bits: int, and_kind,
                 css) -> Handle:
    """Addressable register file of D latches, written by spikes.

    A decoder of n = registers.bit_length() address lines turns them
    into one-hot store strobes for a registers x bits grid of latches;
    channel 0 strobes nothing, so an all-zero address is a no-op and at
    most 2^n - 1 registers fit. With fewer registers than the decoder
    has channels, the surplus channels exist but strobe nothing. One
    inverter per data column is shared by the whole column. Data paths
    are padded by the decoder latency (inverted data by one less) so
    strobe and data meet at each latch in the same millisecond; a write
    becomes visible on the q outputs after the block latency.
    """
    ak = and_kind_name(and_kind)
    _require_int("registers", registers, 1)
    _require_int("bits", bits, 1)
    start = _mark(net)
    decoder = build_decoder(net, registers.bit_length(), ak, css)
    dec_latency = expected_latency("decoder", ak)
    column_nots = [build_not(net, css) for _ in range(bits)]
    # row-major: latch k stores bit k % bits of register k // bits + 1
    # and is latch 0 moved offsets[k] ids on. Latch 0 and its two wires
    # are copied along row 0, and row 0 down the rows, moving the data
    # inverter on one column and the store strobe one channel per copy.
    latch = build_d_latch(net, ak, css)
    strobe, inverted = decoder.output("ch1"), column_nots[0].output()
    wire(net, strobe, latch.input_taps("store"))
    wire(net, inverted, padded(latch.input_taps("data_not"), dec_latency - 1))
    columns = [0, *net.copy(latch.entities,
                            range(latch.synapses.start, len(net.synapses)),
                            bits - 1, {inverted: len(column_nots[0].entities)})]
    end = _mark(net)
    rows = net.copy(range(latch.entities.start, end[0]),
                    range(latch.synapses.start, end[1]), registers - 1,
                    {strobe: strobe - decoder.output("ch0")})
    offsets = [row + column for row in (0, *rows) for column in columns]
    inputs = dict(decoder.inputs)
    data = latch.input_taps("data")
    for j in range(bits):
        inputs[f"d{j}"] = (
            padded(column_nots[j].input_taps("in"), category="Data to NOT")
            + padded(data, dec_latency, offsets[j::bits]))
    q = latch.output("q")
    outputs = {f"q{k // bits + 1}_{k % bits}": q + offset
               for k, offset in enumerate(offsets)}
    return _block(net, start, "memory", ak, {"registers": registers, "bits": bits},
                  inputs, outputs, css, decoder=decoder)
