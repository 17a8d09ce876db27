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
"""

from __future__ import annotations

from collections import Counter
from itertools import compress

from .gates import (
    CAT_INTERNAL_CSS,
    Handle,
    InputTap,
    PortMap,
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
           params: dict[str, int], ports: PortMap, css, **fields) -> Handle:
    """Handle over everything built since start = _mark(net), with its
    resource report: its neurons, the ledger labels of its synapses and
    one synapse per input tap. Where the kind's closed forms count the
    CSS, the report adds its 2 neurons and 2 synapses; elsewhere it
    leaves out the synapses from the CSS."""
    handle = _spanned(net, start, kind, ports, expected_latency(kind, and_kind),
                      and_kind=and_kind, params=params, **fields)
    span = slice(handle.synapses.start, handle.synapses.stop)
    neurons = len(handle.entities)
    if _FORMS[kind].counts_css:
        categories = Counter(net.categories[span])
        neurons += 2
        categories[CAT_INTERNAL_CSS] += 2
    else:
        from_css = css.entities if css is not None else ()
        categories = Counter(compress(net.categories[span], [
            syn.source not in from_css for syn in net.synapses[span]]))
    for taps in ports.inputs.values():
        for tap in taps:
            categories[tap.category] += 1
    handle.resources = ResourceReport(neurons, sum(categories.values()),
                                      dict(sorted(categories.items())))
    return handle


def _select_stage(net: Network, n: int, and_kind: str, css, fan_in: int,
                  ) -> tuple[list[int], list[tuple[InputTap, ...]], dict]:
    """n inverters plus 2^n coincidence gates wired per the binary
    truth table: channel j's input b sees the direct line when bit b of
    j is set, the inverted line otherwise. Only gate 0 runs its builder;
    gates 1 to 2^n - 1 are copied from it. Returns each gate's output,
    its input taps (labelled as the inverters' wires) and the select ports."""
    _require_int("n", n, 1)
    _require_css(css)
    inverters = [build_not(net, css) for _ in range(n)]
    first = _and_gate(net, and_kind, css, fan_in)
    offsets = [0, *net.copy(first.entities, first.synapses, 2 ** n - 1)]
    taps = first.input_taps("in")
    category = f"NOT to AND ({and_kind})"
    gate_taps = [padded(taps, 0, offset, category) for offset in offsets]
    direct_taps = [padded(taps, 1, offset) for offset in offsets]
    select_ports: dict[str, tuple[InputTap, ...]] = {}
    for b, inverter in enumerate(inverters):
        ports, inverted = list(inverter.input_taps("in")), []
        for j in range(2 ** n):
            if (j >> b) & 1:
                ports.extend(direct_taps[j])
            else:
                inverted.extend(gate_taps[j])
        # one call, in channel order: the synapse order of gate-by-gate wiring
        wire(net, inverter.output(), inverted)
        select_ports[f"s{b}"] = tuple(ports)
    out = first.output()
    return [out + offset for offset in offsets], gate_taps, select_ports


def build_decoder(net: Network, n: int, and_kind, css) -> Handle:
    """n select lines to 2^n one-hot channels; channel 0 fires when no
    select line does (the non-operation channel)."""
    ak = and_kind_name(and_kind)
    start = _mark(net)
    outputs, _, select_ports = _select_stage(net, n, ak, css, n)
    return _block(net, start, "decoder", ak, {"n": n},
                  PortMap(select_ports, {f"ch{j}": out
                                         for j, out in enumerate(outputs)}), css)


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
                  PortMap(inputs, outputs), None)


def build_multiplexer(net: Network, n: int, and_kind, css) -> Handle:
    """2^n data lines, n select lines, one output: the selected data
    line is forwarded, everything else is dropped."""
    ak = and_kind_name(and_kind)
    start = _mark(net)
    outputs, gate_taps, ports_in = _select_stage(net, n, ak, css, n + 1)
    collector = build_or(net)
    to_or = padded(collector.input_taps("in"), category="AND to OR")
    for j, (out, taps) in enumerate(zip(outputs, gate_taps)):
        ports_in[f"d{j}"] = padded(taps, 1, category=f"Data inputs to AND ({ak})")
        wire(net, out, to_or)
    return _block(net, start, "multiplexer", ak, {"n": n},
                  PortMap(ports_in, {"out": collector.output()}), css)


def build_demultiplexer(net: Network, n: int, and_kind, css) -> Handle:
    """One data line routed to the channel named by the n select lines."""
    ak = and_kind_name(and_kind)
    start = _mark(net)
    outputs, gate_taps, ports_in = _select_stage(net, n, ak, css, n + 1)
    ports_in["d"] = tuple(tap for taps in gate_taps for tap in padded(
        taps, 1, category=f"Data inputs to AND ({ak})"))
    return _block(net, start, "demultiplexer", ak, {"n": n},
                  PortMap(ports_in, {f"ch{j}": out
                                     for j, out in enumerate(outputs)}), css)


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
    return _block(net, start, "d_latch", ak, {},
                  PortMap(inputs, {"q": sr.output("q")}), css)


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
    column_nots = [build_not(net, css) for _ in range(bits)]
    # row-major: latch k stores bit k % bits of register k // bits + 1
    # and is latch 0 moved offsets[k] ids on. Latch 0 and its two wires
    # are copied along row 0, and row 0 down the rows, moving the data
    # inverter on one column and the store strobe one channel per copy.
    latch = build_d_latch(net, ak, css)
    strobe, inverted = decoder.output("ch1"), column_nots[0].output()
    wire(net, strobe, latch.input_taps("store"))
    wire(net, inverted, padded(latch.input_taps("data_not"),
                               decoder.latency_ms - 1))
    columns = [0, *net.copy(latch.entities,
                            range(latch.synapses.start, len(net.synapses)),
                            bits - 1, {inverted: len(column_nots[0].entities)})]
    end = _mark(net)
    rows = net.copy(range(latch.entities.start, end[0]),
                    range(latch.synapses.start, end[1]), registers - 1,
                    {strobe: strobe - decoder.output("ch0")})
    offsets = [row + column for row in (0, *rows) for column in columns]
    inputs = dict(decoder.ports.inputs)
    data = latch.input_taps("data")
    for j in range(bits):
        taps = list(padded(column_nots[j].input_taps("in"), category="Data to NOT"))
        for offset in offsets[j::bits]:
            taps.extend(padded(data, decoder.latency_ms, offset))
        inputs[f"d{j}"] = tuple(taps)
    q = latch.output("q")
    outputs = {f"q{k // bits + 1}_{k % bits}": q + offset
               for k, offset in enumerate(offsets)}
    return _block(net, start, "memory", ak, {"registers": registers, "bits": bits},
                  PortMap(inputs, outputs), css, decoder=decoder)
