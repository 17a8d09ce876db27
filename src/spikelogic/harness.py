"""Experiments, verification sweeps and spike/stimulus file plumbing.

Four canned experiments exercise the blocks end to end, each with a
canonical deterministic stimulus and built-in oracle checks:

  decoder-encoder  ascending binary words through a decoder feeding an
                   encoder; the output reproduces the input stream
                   delayed by decoder latency + 1 ms.
  mux-demux        chunked select words (boundaries at t=10/40/60/90,
                   later chunks drawn from the seeded generator) with
                   data line d_j spiking every 2^j ms; the demultiplexer
                   reproduces every data input on its own channel after
                   mux + demux latency.
  d-latch          six latches in two banks sharing external data
                   inverters, driven by the store={1,2,3,8},
                   data={1,3,4}/{3,5} schedule over 16 ms.
  memory           ascending count written through a cycling address,
                   register rows decoded back out of the q spike trains.

Checks compare spike sets only from (path latency + 1) onward: earlier
timesteps fall into CSS warmup, where inverter outputs are not yet
meaningful. A user stimulus file replaces the canonical input schedules
wholesale; signals it does not mention stay silent, and names that do
not match the experiment's input ports are rejected.

Every block kind is declared once, in BLOCKS. check_pipelined() is the
one truth-table check: one input word per ms, outputs compared with the
kind's word oracle delayed by its latency. verify_block() packages
sweeps or fuzzing, latency measurement and resource reconciliation into
one report, which is what the command-line verify subcommand prints.
"""

from __future__ import annotations

import csv
import io
import operator
import random
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

from . import netlist
from .blocks import (
    AndKind,
    BlockHandle,
    build_d_latch,
    build_decoder,
    build_demultiplexer,
    build_encoder,
    build_memory,
    build_multiplexer,
)
from .gates import build_css, build_not, drive, wire, padded
from .oracles import (
    decoder_channel,
    demux_channels,
    encoder_value,
    latch_states,
    memory_final,
    memory_states,
    mux_output,
)
from .resources import FormulaQuery, expected_latency, reconcile
from .sim import Network, SpikeRecord
from .trace import Trace, TraceRow, hex_word_row, spike_row, value_row

EXPERIMENTS = ("decoder-encoder", "mux-demux", "d-latch", "memory")

# Default seed for the randomized chunks of the mux-demux control
# schedule and for fuzzing; fixed so canonical runs are reproducible.
DEFAULT_SEED = 7


@dataclass(frozen=True)
class ExperimentConfig:
    """Options for run_experiment; None picks the experiment default."""

    and_kind: str | None = None
    n: int | None = None
    registers: int | None = None
    bits: int | None = None
    duration_ms: int | None = None
    seed: int = DEFAULT_SEED
    stimulus: Mapping[str, Sequence[int]] | None = None


@dataclass(frozen=True)
class Check:
    label: str
    ok: bool
    detail: str = ""


@dataclass
class ExperimentResult:
    name: str
    and_kind: str
    params: dict
    duration_ms: int
    net: Network
    record: SpikeRecord
    trace: Trace
    signal_times: dict[str, tuple[int, ...]]
    checks: tuple[Check, ...]
    handles: dict[str, object]

    @property
    def passed(self) -> bool:
        return all(check.ok for check in self.checks)


@dataclass
class VerifyReport:
    kind: str
    and_kind: str | None
    params: dict
    checks: tuple[Check, ...]

    @property
    def passed(self) -> bool:
        return all(check.ok for check in self.checks)


def render_checks(checks: Iterable[Check]) -> str:
    lines = []
    for check in checks:
        status = "PASS" if check.ok else "FAIL"
        suffix = f": {check.detail}" if check.detail else ""
        lines.append(f"{status}  {check.label}{suffix}")
    return "\n".join(lines) + "\n"


def _clean_times(times: Iterable[int]) -> tuple[int, ...]:
    cleaned = sorted({operator.index(t) for t in times})
    if cleaned and cleaned[0] < 0:
        raise ValueError("stimulus times must be >= 0")
    return tuple(cleaned)


def _resolve_inputs(canonical: dict[str, tuple[int, ...]],
                    stimulus: Mapping[str, Sequence[int]] | None,
                    ) -> dict[str, tuple[int, ...]]:
    if stimulus is None:
        return canonical
    unknown = set(stimulus) - set(canonical)
    if unknown:
        raise ValueError(
            f"stimulus signals {sorted(unknown)} do not match the "
            f"experiment inputs {sorted(canonical)}")
    return {name: _clean_times(stimulus.get(name, ()))
            for name in canonical}


def _words_from_bits(bit_times: Sequence[Iterable[int]],
                     duration_ms: int) -> list[int]:
    """Per-ms input words, bit b set when signal b spikes. Word 0 stays
    0: checks start at t=1, so a spike at t=0 never reaches an oracle."""
    words = [0] * duration_ms
    for b, times in enumerate(bit_times):
        for t in times:
            if 1 <= t < duration_ms:
                words[t] |= 1 << b
    return words


def _diff_detail(signal: str, got: set[int], want: set[int]) -> str:
    spurious = sorted(got - want)[:5]
    missing = sorted(want - got)[:5]
    parts = [f"signal {signal}"]
    if spurious:
        parts.append(f"unexpected at {spurious}")
    if missing:
        parts.append(f"missing at {missing}")
    return ", ".join(parts)


def _expect_delayed(record: SpikeRecord, outputs: Mapping[str, int],
                    oracle_words: Sequence[int], latency: int, label: str,
                    ok_detail: str = "") -> Check:
    """Output k (in the order of outputs) must spike at t + latency
    exactly when bit k of oracle_words[t] is set, for t >= 1; spikes
    are compared from latency + 1 on. The first mismatching output is
    reported."""
    want: list[set[int]] = [set() for _ in outputs]
    for t in range(1, record.duration_ms - latency):
        word = oracle_words[t]
        while word:
            low = word & -word
            want[low.bit_length() - 1].add(t + latency)
            word ^= low
    for (signal, eid), expected in zip(outputs.items(), want):
        got = {t for t in record.times(eid) if t > latency}
        if got != expected:
            return Check(label, False, _diff_detail(signal, got, expected))
    return Check(label, True, ok_detail)


def _and_value(and_kind) -> str:
    return AndKind(and_kind).value


def _times(record: SpikeRecord,
           outputs: Mapping[str, int]) -> dict[str, tuple[int, ...]]:
    return {name: record.times(eid) for name, eid in outputs.items()}


def _spike_rows(signals: Mapping[str, Sequence[int]], duration: int,
                valid_from: int = 0) -> list[TraceRow]:
    return [spike_row(name, times, duration, valid_from=valid_from)
            for name, times in signals.items()]


def _duration(duration_ms: int | None, default: int) -> int:
    if duration_ms is None:
        return default
    if duration_ms < 1:
        raise ValueError("duration_ms must be >= 1")
    return duration_ms


# ---------------------------------------------------------------------------
# Block table


def _both_forms(kind: str) -> Callable[[str, int], list[FormulaQuery]]:
    return lambda ak, n: [FormulaQuery(kind, ak, "n", n=n),
                          FormulaQuery(kind, ak, "m", m=2 ** n)]


def _selects(n: int) -> list[str]:
    return [f"s{b}" for b in range(n)]


def _channels(n: int) -> list[str]:
    return [f"ch{j}" for j in range(2 ** n)]


@dataclass(frozen=True)
class BlockSpec:
    """What the harness and the CLI know about one block kind.

    A size is a tuple of ints, one per keyword of default (n, registers,
    bits; the encoder's input count is its n), reported under
    size_names; the callables take it unpacked after their other
    arguments. Bit k of an input word drives port k of inputs(*size),
    bit k of an output word is port k of outputs(*size), and
    oracle(words, *size) maps per-ms input words to the output words the
    block shows one latency later.
    """

    default: dict[str, int]
    size_names: tuple[str, ...]
    build: Callable[..., BlockHandle]  # (net, and_kind, css, *size)
    inputs: Callable[..., list[str]]
    outputs: Callable[..., list[str]]
    oracle: Callable[..., list[int]]
    # (and_kind, *size); None where no closed form applies
    queries: Callable[..., list[FormulaQuery] | None]
    verify: Callable[..., list[Check]]  # (and_kind, rng, trials, seed, *size)
    probe: tuple[str, ...]  # inputs spiking once for measure_latency
    probe_output: str
    smallest: int = 1  # smallest buildable value of every size entry
    and_stage: bool = True  # takes an AND kind and a CSS


# Builders, sweeps and oracles are looked up at call time, through this
# module's globals, so a caller may wrap them (the benchmark traces them).
BLOCKS: dict[str, BlockSpec] = {
    "decoder": BlockSpec(
        {"n": 2}, ("n",),
        build=lambda net, ak, css, n: build_decoder(net, n, ak, css),
        inputs=_selects, outputs=_channels,
        oracle=lambda words, n: [1 << decoder_channel(w) for w in words],
        queries=_both_forms("decoder"),
        verify=lambda ak, rng, trials, seed, n: [
            sweep_decoder(n, ak),
            sweep_decoder(n, ak, [rng.randrange(2 ** n)
                                  for _ in range(trials)])],
        probe=("s0",), probe_output="ch1"),
    "encoder": BlockSpec(
        {"n": 4}, ("num_inputs",), smallest=2, and_stage=False,
        build=lambda net, ak, css, m: build_encoder(net, m),
        inputs=lambda m: [f"d{i}" for i in range(m)],
        outputs=lambda m: [f"or{b}" for b in range((m - 1).bit_length())],
        oracle=lambda words, m: [
            encoder_value(i for i in range(m) if w >> i & 1) for w in words],
        queries=lambda ak, m: [FormulaQuery("encoder", form="n", n=m)],
        # exhaustive up to 10 inputs, seeded subsets beyond
        verify=lambda ak, rng, trials, seed, m: [sweep_encoder(
            m, None if m <= 10 else [rng.randrange(2 ** m)
                                     for _ in range(trials)])],
        probe=("d1",), probe_output="or0"),
    "multiplexer": BlockSpec(
        {"n": 2}, ("n",),
        build=lambda net, ak, css, n: build_multiplexer(net, n, ak, css),
        inputs=lambda n: _selects(n) + [f"d{j}" for j in range(2 ** n)],
        outputs=lambda n: ["out"],
        oracle=lambda words, n: [int(mux_output(
            w & 2 ** n - 1, [w >> n + j & 1 for j in range(2 ** n)]))
            for w in words],
        queries=_both_forms("multiplexer"),
        verify=lambda ak, rng, trials, seed, n: [
            sweep_multiplexer(n, ak),
            sweep_multiplexer(n, ak, [
                (rng.randrange(2 ** n), rng.randrange(2 ** 2 ** n))
                for _ in range(trials)])],
        probe=("s0", "d1"), probe_output="out"),
    "demultiplexer": BlockSpec(
        {"n": 2}, ("n",),
        build=lambda net, ak, css, n: build_demultiplexer(net, n, ak, css),
        inputs=lambda n: _selects(n) + ["d"], outputs=_channels,
        oracle=lambda words, n: [sum(on << j for j, on in enumerate(
            demux_channels(w & 2 ** n - 1, bool(w >> n & 1), 2 ** n)))
            for w in words],
        queries=_both_forms("demultiplexer"),
        verify=lambda ak, rng, trials, seed, n: [
            sweep_demultiplexer(n, ak),
            sweep_demultiplexer(n, ak, [
                (rng.randrange(2 ** n), rng.randrange(2))
                for _ in range(trials)])],
        probe=("s0", "d"), probe_output="ch1"),
    "d_latch": BlockSpec(
        {}, (),
        build=lambda net, ak, css: build_d_latch(net, ak, css),
        inputs=lambda: ["store", "data", "data_not"], outputs=lambda: ["q"],
        oracle=lambda words: [int(q) for q in latch_states(
            [w & 1 for w in words], [w >> 1 & 1 for w in words])],
        queries=lambda ak: [FormulaQuery("d_latch", ak)],
        verify=lambda ak, rng, trials, seed: [
            fuzz_d_latch(ak, steps=trials, seed=seed)],
        probe=("store", "data"), probe_output="q"),
    "memory": BlockSpec(
        {"registers": 3, "bits": 3}, ("registers", "bits"),
        build=lambda net, ak, css, r, c: build_memory(net, r, c, ak, css),
        inputs=lambda r, c: _selects(r.bit_length()) + [
            f"d{j}" for j in range(c)],
        outputs=lambda r, c: [f"q{i}_{j}" for i in range(1, r + 1)
                              for j in range(c)],
        oracle=lambda words, r, c: [
            sum(value << i * c for i, value in enumerate(state))
            for state in memory_states(
                [w & 2 ** r.bit_length() - 1 for w in words],
                [w >> r.bit_length() for w in words], r, c)],
        # the closed forms assume full occupancy, r = 2^n - 1
        queries=lambda ak, r, c: None if r != 2 ** r.bit_length() - 1 else [
            FormulaQuery("memory", ak, "n", n=r.bit_length(), c=c),
            FormulaQuery("memory", ak, "m", r=r, c=c)],
        verify=lambda ak, rng, trials, seed, r, c: [
            fuzz_memory(r, c, ak, writes=trials, seed=seed)],
        probe=("s0", "d0"), probe_output="q1_0"),
}


def block_config(kind: str, and_kind=None, *, n: int | None = None,
                 registers: int | None = None, bits: int | None = None,
                 ) -> tuple[str | None, tuple[int, ...]]:
    """AND kind and size of one block kind. None picks the default
    ("fast", and the size in BLOCKS); a size below the smallest
    buildable one raises ValueError, before anything is built."""
    if kind not in BLOCKS:
        raise ValueError(f"unknown block kind {kind!r}")
    spec = BLOCKS[kind]
    given = {"n": n, "registers": registers, "bits": bits}
    size = tuple(value if given[flag] is None else operator.index(given[flag])
                 for flag, value in spec.default.items())
    for flag, value in zip(spec.default, size):
        if value < spec.smallest:
            raise ValueError(
                f"{kind} needs {flag} >= {spec.smallest}, got {value}")
    return (_and_value(and_kind or "fast") if spec.and_stage else None), size


def build_block(net: Network, kind: str, and_kind: str | None,
                size: Sequence[int]) -> BlockHandle:
    """Build one block on net, after the CSS it needs (if any)."""
    spec = BLOCKS[kind]
    css = build_css(net) if spec.and_stage else None
    return spec.build(net, and_kind, css, *size)


def check_pipelined(kind: str, and_kind: str | None, size: Sequence[int],
                    words: Sequence[int], label: str,
                    ok_detail: str = "") -> Check:
    """Present words[i] at t = 1 + i, one source per input port in port
    order (bit k drives port k), for len(words) + latency + 3 ms; every
    output must follow the kind's oracle, delayed by the latency."""
    spec = BLOCKS[kind]
    latency = expected_latency(kind, and_kind)
    stream = [0, *words] + [0] * (latency + 2)
    net = Network()
    block = build_block(net, kind, and_kind, size)
    for k, port in enumerate(spec.inputs(*size)):
        drive(net, block, port, net.add_source(
            [t for t, word in enumerate(stream) if word >> k & 1]))
    outputs = {name: block.output(name) for name in spec.outputs(*size)}
    net.record(*outputs.values())
    record = net.run(len(stream))
    return _expect_delayed(record, outputs, spec.oracle(stream, *size),
                           latency, label, ok_detail)


# ---------------------------------------------------------------------------
# Experiments


def _run_decoder_encoder(cfg: ExperimentConfig) -> ExperimentResult:
    ak, (n,) = block_config("decoder", cfg.and_kind, n=cfg.n)
    dec_latency = expected_latency("decoder", ak)
    total = dec_latency + 1
    duration = _duration(cfg.duration_ms, max(16, 2 * 2 ** n + total + 2))

    canonical = {
        f"s{b}": tuple(t for t in range(1, duration)
                       if (((t - 1) % 2 ** n) >> b) & 1)
        for b in range(n)
    }
    inputs = _resolve_inputs(canonical, cfg.stimulus)
    words = _words_from_bits([inputs[f"s{b}"] for b in range(n)], duration)

    net = Network()
    decoder = build_block(net, "decoder", ak, (n,))
    encoder = build_encoder(net, 2 ** n)
    for j in range(2 ** n):
        wire(net, decoder.output(f"ch{j}"), encoder.input_taps(f"d{j}"))
    for b in range(n):
        drive(net, decoder, f"s{b}", net.add_source(inputs[f"s{b}"]))
    channels = {name: decoder.output(name) for name in _channels(n)}
    ors = {name: encoder.output(name)
           for name in BLOCKS["encoder"].outputs(2 ** n)}
    net.record(*channels.values(), *ors.values())
    record = net.run(duration)

    channel_words = BLOCKS["decoder"].oracle(words, n)
    checks = (
        _expect_delayed(record, ors,
                        BLOCKS["encoder"].oracle(channel_words, 2 ** n), total,
                        "encoder output equals input words delayed by "
                        f"{total} ms", f"delay {total} ms over {duration} ms"),
        _expect_delayed(record, channels, channel_words, dec_latency,
                        "decoder channels one-hot per input word"),
    )

    channel_times = _times(record, channels)
    or_times = _times(record, ors)
    rows = (_spike_rows(inputs, duration)
            + _spike_rows(channel_times, duration, dec_latency + 1)
            + _spike_rows(or_times, duration, total + 1))
    signal_times = {**inputs, **channel_times, **or_times}
    return ExperimentResult(
        name="decoder-encoder", and_kind=ak, params={"n": n},
        duration_ms=duration, net=net, record=record,
        trace=Trace(duration, tuple(rows)), signal_times=signal_times,
        checks=checks,
        handles={"decoder": decoder, "encoder": encoder})


def _control_chunks(n: int, duration_ms: int, seed: int) -> list[int]:
    """Per-ms select words: 0 until t=10, then all-ones until t=40, then
    seeded random words per chunk, each different from its predecessor."""
    bounds = [b for b in (1, 10, 40, 60, 90) if b < duration_ms]
    bounds.append(duration_ms)
    rng = random.Random(seed)
    words = [0] * duration_ms
    previous = None
    for i in range(len(bounds) - 1):
        if i == 0:
            value = 0
        elif i == 1:
            value = 2 ** n - 1
        else:
            value = rng.randrange(2 ** n)
            while value == previous:
                value = rng.randrange(2 ** n)
        for t in range(bounds[i], bounds[i + 1]):
            words[t] = value
        previous = value
    return words


def _run_mux_demux(cfg: ExperimentConfig) -> ExperimentResult:
    ak, (n,) = block_config("multiplexer", cfg.and_kind, n=cfg.n)
    mux_latency = expected_latency("multiplexer", ak)
    demux_latency = expected_latency("demultiplexer", ak)
    total = mux_latency + demux_latency
    duration = _duration(cfg.duration_ms, 110)

    sel_words = _control_chunks(n, duration, cfg.seed)
    canonical = {
        f"s{b}": tuple(t for t in range(1, duration)
                       if (sel_words[t] >> b) & 1)
        for b in range(n)
    }
    for j in range(2 ** n):
        canonical[f"d{j}"] = tuple(t for t in range(1, duration)
                                   if (t - 1) % 2 ** j == 0)
    inputs = _resolve_inputs(canonical, cfg.stimulus)
    # canonical is in multiplexer port order: selects, then data lines
    words = _words_from_bits(list(inputs.values()), duration)

    net = Network()
    css = build_css(net)
    mux = build_multiplexer(net, n, ak, css)
    demux = build_demultiplexer(net, n, ak, css)
    wire(net, mux.output("out"), demux.input_taps("d"))
    for b in range(n):
        source = net.add_source(inputs[f"s{b}"])
        drive(net, mux, f"s{b}", source)
        # the demux sees the same controls, delayed to match the data
        # that is still in flight through the mux
        drive(net, demux, f"s{b}", source, extra_delay_ms=mux_latency)
    for j in range(2 ** n):
        drive(net, mux, f"d{j}", net.add_source(inputs[f"d{j}"]))
    out_id = mux.output("out")
    channels = {name: demux.output(name) for name in _channels(n)}
    net.record(out_id, *channels.values())
    record = net.run(duration)

    mux_words = BLOCKS["multiplexer"].oracle(words, n)
    select = 2 ** n - 1
    demux_words = BLOCKS["demultiplexer"].oracle(
        [w & select | out << n for w, out in zip(words, mux_words)], n)
    checks = (
        _expect_delayed(record, {"out": out_id}, mux_words, mux_latency,
                        "multiplexer forwards the selected data line after "
                        f"{mux_latency} ms"),
        _expect_delayed(record, channels, demux_words, total,
                        f"demultiplexer reproduces each data input after "
                        f"{total} ms"),
    )

    out_times = record.times(out_id)
    channel_times = _times(record, channels)
    rows = (_spike_rows(inputs, duration)
            + _spike_rows({"mux out": out_times}, duration, mux_latency + 1)
            + _spike_rows(channel_times, duration, total + 1))
    signal_times = {**inputs, "mux_out": out_times, **channel_times}
    return ExperimentResult(
        name="mux-demux", and_kind=ak, params={"n": n},
        duration_ms=duration, net=net, record=record,
        trace=Trace(duration, tuple(rows)), signal_times=signal_times,
        checks=checks,
        handles={"multiplexer": mux, "demultiplexer": demux})


def _run_d_latch(cfg: ExperimentConfig) -> ExperimentResult:
    ak = _and_value(cfg.and_kind or "classic")
    duration = _duration(cfg.duration_ms, 16)
    latency = expected_latency("d_latch", ak)
    data_latency = latency + 1  # external inverter in the data path

    canonical = {
        "store": (1, 2, 3, 8),
        "data1": (1, 3, 4),
        "data2": (3, 5),
    }
    canonical = {k: tuple(t for t in v if t < duration)
                 for k, v in canonical.items()}
    inputs = _resolve_inputs(canonical, cfg.stimulus)

    net = Network()
    css = build_css(net)
    store_source = net.add_source(inputs["store"])
    latches = []
    inverters = []
    for name in ("data1", "data2"):
        inverter = build_not(net, css)
        inverters.append(inverter)
        data_source = net.add_source(inputs[name])
        wire(net, data_source, inverter.input_taps("in"))
        for _ in range(3):
            latch = build_d_latch(net, ak, css)
            # store and data are padded one ms to meet the inverted data
            wire(net, store_source, padded(latch.input_taps("store"), 1))
            wire(net, data_source, padded(latch.input_taps("data"), 1))
            wire(net, inverter.output(), latch.input_taps("data_not"))
            latches.append(latch)
    q_ids = {f"q{k}": latch.output("q") for k, latch in enumerate(latches)}
    net.record(*q_ids.values())
    record = net.run(duration)

    checks = []
    for group, name in enumerate(("data1", "data2")):
        states = BLOCKS["d_latch"].oracle(
            _words_from_bits([inputs["store"], inputs[name]], duration))
        # the three latches of a bank hold the same state
        bank = dict(list(q_ids.items())[group * 3:group * 3 + 3])
        checks.append(_expect_delayed(
            record, bank, [0b111 * q for q in states], data_latency,
            f"latches {group * 3}-{group * 3 + 2} track store/{name} "
            f"with {data_latency} ms delay"))

    q_times = _times(record, q_ids)
    rows = (_spike_rows(inputs, duration)
            + _spike_rows(q_times, duration, data_latency + 1))
    signal_times = {**inputs, **q_times}
    return ExperimentResult(
        name="d-latch", and_kind=ak, params={"latches": len(latches)},
        duration_ms=duration, net=net, record=record,
        trace=Trace(duration, tuple(rows)), signal_times=signal_times,
        checks=tuple(checks),
        handles={"latches": tuple(latches), "inverters": tuple(inverters)})


def _channel_mark(j: int) -> str:
    # the non-operation channel is called out explicitly in traces
    return "0*" if j == 0 else str(j)


def _run_memory(cfg: ExperimentConfig) -> ExperimentResult:
    ak, (registers, bits) = block_config(
        "memory", cfg.and_kind, registers=cfg.registers, bits=cfg.bits)
    duration = _duration(cfg.duration_ms, 30)
    latency = expected_latency("memory", ak)
    depth = registers.bit_length()

    canonical = {
        f"s{b}": tuple(t for t in range(1, duration)
                       if ((t % (registers + 1)) >> b) & 1)
        for b in range(depth)
    }
    for j in range(bits):
        canonical[f"d{j}"] = tuple(t for t in range(1, duration)
                                   if ((t % 2 ** bits) >> j) & 1)
    inputs = _resolve_inputs(canonical, cfg.stimulus)
    # canonical is in memory port order: address lines, then data lines
    words = _words_from_bits(list(inputs.values()), duration)
    addresses = [w & (2 ** depth - 1) for w in words]

    net = Network()
    memory = build_block(net, "memory", ak, (registers, bits))
    for name in inputs:
        drive(net, memory, name, net.add_source(inputs[name]))
    q_ids = {name: memory.output(name)
             for name in BLOCKS["memory"].outputs(registers, bits)}
    decoder = memory.decoder
    channels = {name: decoder.output(name) for name in _channels(depth)}
    net.record(*q_ids.values(), *channels.values())
    record = net.run(duration)

    dec_latency = decoder.latency_ms
    checks = (
        _expect_delayed(record, q_ids,
                        BLOCKS["memory"].oracle(words, registers, bits),
                        latency, "register contents match the write oracle "
                        f"after {latency} ms"),
        _expect_delayed(record, channels,
                        BLOCKS["decoder"].oracle(addresses, depth),
                        dec_latency,
                        "address decoder one-hot, channel 0 on idle input"),
    )

    rows = _spike_rows(inputs, duration)
    expected_cells = ["" if t < dec_latency + 1
                      else _channel_mark(addresses[t - dec_latency])
                      for t in range(duration)]
    rows.append(value_row("Channel (Expected)", expected_cells,
                          valid_from=dec_latency + 1))
    decoded_cells = [""] * duration
    for j, cid in enumerate(channels.values()):
        for t in record.times(cid):
            decoded_cells[t] = _channel_mark(j)
    rows.append(value_row("Channel (Decoder)", decoded_cells,
                          valid_from=dec_latency + 1))
    q_times = _times(record, q_ids)
    for i in range(1, registers + 1):
        register = {f"q{i}_{j}": q_times[f"q{i}_{j}"] for j in range(bits)}
        rows += _spike_rows(register, duration, latency + 1)
        rows.append(hex_word_row(f"Register {i}", list(register.values()),
                                 duration, valid_from=latency + 1))

    signal_times = {**inputs, **_times(record, channels), **q_times}
    return ExperimentResult(
        name="memory", and_kind=ak,
        params={"registers": registers, "bits": bits},
        duration_ms=duration, net=net, record=record,
        trace=Trace(duration, tuple(rows)), signal_times=signal_times,
        checks=checks, handles={"memory": memory})


_RUNNERS = {
    "decoder-encoder": _run_decoder_encoder,
    "mux-demux": _run_mux_demux,
    "d-latch": _run_d_latch,
    "memory": _run_memory,
}


def run_experiment(name: str,
                   config: ExperimentConfig | None = None) -> ExperimentResult:
    """Build, stimulate and check one canned experiment. None in the
    config picks the experiment default; a size or duration below 1
    raises ValueError."""
    if name not in _RUNNERS:
        raise ValueError(
            f"unknown experiment {name!r}; expected one of {EXPERIMENTS}")
    return _RUNNERS[name](config or ExperimentConfig())


# ---------------------------------------------------------------------------
# Verification sweeps


def sweep_decoder(n: int, and_kind: str,
                  words: Sequence[int] | None = None) -> Check:
    """Pipelined truth-table sweep; silence decodes as word 0."""
    ak = _and_value(and_kind)
    if words is None:
        words = list(range(2 ** n))
    latency = expected_latency("decoder", ak)
    return check_pipelined(
        "decoder", ak, (n,), words,
        f"decoder n={n} {ak}: {len(words)} pipelined words",
        f"{len(words)} words, latency {latency} ms")


def sweep_encoder(num_inputs: int,
                  subsets: Sequence[int] | None = None) -> Check:
    """Pipelined sweep of input subsets (bitmask per ms); expected output
    is the bitwise OR of the active indices."""
    if subsets is None:
        subsets = list(range(2 ** num_inputs))
    return check_pipelined(
        "encoder", None, (num_inputs,), subsets,
        f"encoder {num_inputs} inputs: {len(subsets)} pipelined subsets",
        f"{len(subsets)} subsets")


def sweep_multiplexer(n: int, and_kind: str,
                      cases: Sequence[tuple[int, int]] | None = None) -> Check:
    """Pipelined (select word, data mask) cases; default visits every
    select word against selected/other lines on and off."""
    ak = _and_value(and_kind)
    if cases is None:
        others = [2 ** 2 ** n - 1 & ~(1 << s) for s in range(2 ** n)]
        cases = [(select, d_sel << select | d_others * others[select])
                 for select in range(2 ** n)
                 for d_sel in (0, 1) for d_others in (0, 1)]
    return check_pipelined(
        "multiplexer", ak, (n,), [s | mask << n for s, mask in cases],
        f"multiplexer n={n} {ak}: {len(cases)} pipelined cases",
        f"{len(cases)} cases")


def sweep_demultiplexer(n: int, and_kind: str,
                        cases: Sequence[tuple[int, int]] | None = None) -> Check:
    """Pipelined (select word, data bit) cases; default visits every
    select word with data present and absent."""
    ak = _and_value(and_kind)
    if cases is None:
        cases = [(select, d) for select in range(2 ** n) for d in (0, 1)]
    return check_pipelined(
        "demultiplexer", ak, (n,), [select | d << n for select, d in cases],
        f"demultiplexer n={n} {ak}: {len(cases)} pipelined cases",
        f"{len(cases)} cases")


def fuzz_d_latch(and_kind: str, steps: int = 64,
                 seed: int = DEFAULT_SEED) -> Check:
    """Random store/data schedule against the hold/track oracle. The
    inverted data line is supplied as an ideal complement source; after
    the schedule store stays down and the latch must hold."""
    ak = _and_value(and_kind)
    rng = random.Random(seed)
    store_bits = [rng.random() < 0.4 for _ in range(steps)]
    data_bits = [rng.random() < 0.5 for _ in range(steps)]
    return check_pipelined(
        "d_latch", ak, (), [store | data << 1 | (not data) << 2
                            for store, data in zip(store_bits, data_bits)],
        f"d_latch {ak}: {steps} random store/data steps",
        f"{steps} steps, seed {seed}")


def fuzz_memory(registers: int, bits: int, and_kind: str, writes: int = 64,
                seed: int = DEFAULT_SEED) -> Check:
    """Random write stream (addresses may hit the non-operation channel
    and, at partial occupancy, register-free channels) against the
    array-write oracle, checked on the full q timelines."""
    ak = _and_value(and_kind)
    rng = random.Random(seed)
    depth = registers.bit_length()
    addresses = [rng.randrange(2 ** depth) for _ in range(writes)]
    words = [rng.randrange(2 ** bits) for _ in range(writes)]
    final = memory_final(addresses, words, registers, bits)
    return check_pipelined(
        "memory", ak, (registers, bits),
        [address | word << depth for address, word in zip(addresses, words)],
        f"memory r={registers} c={bits} {ak}: {writes} random writes",
        f"final contents {list(final)}")


def measure_latency(kind: str, and_kind: str | None = None, *,
                    n: int | None = None, registers: int | None = None,
                    bits: int | None = None) -> int:
    """Empirical input-to-output delay: present one probe word at t=4
    (safely past CSS warmup) and time the first response spike. Sizes
    default as in verify_block."""
    ak, size = block_config(kind, and_kind, n=n, registers=registers,
                            bits=bits)
    spec = BLOCKS[kind]
    probe = 4
    net = Network()
    block = build_block(net, kind, ak, size)
    for port in spec.probe:
        drive(net, block, port, net.add_source([probe]))
    out = block.output(spec.probe_output)
    net.record(out)
    times = net.run(probe + 12).times(out)
    if not times:
        raise RuntimeError(f"{kind}: probe produced no output spike")
    return times[0] - probe


def verify_block(kind: str, and_kind: str | None = None, *,
                 n: int | None = None, registers: int | None = None,
                 bits: int | None = None, trials: int = 64,
                 seed: int = DEFAULT_SEED) -> VerifyReport:
    """Sweep, fuzz, time and reconcile one block; everything a quick
    confidence pass needs, as a printable report. None picks the default
    size; a size below the smallest buildable one raises ValueError."""
    ak, size = block_config(kind, and_kind, n=n, registers=registers,
                            bits=bits)
    spec = BLOCKS[kind]
    checks = spec.verify(ak, random.Random(seed), trials, seed, *size)
    queries = spec.queries(ak, *size)
    if queries is None:  # a partially occupied memory
        checks.append(Check(
            "resource formulas skipped", True,
            f"closed forms assume full occupancy r = 2^n - 1, "
            f"got r={size[0]}"))
    handle = build_block(Network(), kind, ak, size)
    for query in queries or ():
        result = reconcile(handle, query)
        checks.append(Check(
            f"measured resources match the {query.form}-form "
            f"({handle.resources.neurons} neurons, "
            f"{handle.resources.synapses} synapses)",
            result.ok, "; ".join(result.diffs)))
    measured = measure_latency(kind, ak, **dict(zip(spec.default, size)))
    wanted = expected_latency(kind, ak)
    checks.append(Check(f"measured latency {measured} ms equals table value",
                        measured == wanted,
                        "" if measured == wanted else f"expected {wanted}"))
    return VerifyReport(kind, ak, dict(zip(spec.size_names, size)),
                        tuple(checks))


# ---------------------------------------------------------------------------
# Files


def export_spikes(signal_times: Mapping[str, Iterable[int]],
                  format: str = "csv") -> str:
    """Spike data as CSV rows "signal,time_ms" sorted by (time, signal);
    "csv" is the only format."""
    if format != "csv":
        raise ValueError(f"unknown spike export format {format!r}")
    rows = sorted(
        ((int(t), name) for name, times in signal_times.items()
         for t in times),
    )
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(["signal", "time_ms"])
    for t, name in rows:
        writer.writerow([name, t])
    return out.getvalue()


def parse_stimulus(text: str) -> dict[str, tuple[int, ...]]:
    """Parse a stimulus CSV of "signal,time_ms" rows; a header line is
    tolerated. Times are deduplicated and sorted per signal."""
    collected: dict[str, set[int]] = {}
    for lineno, row in enumerate(csv.reader(io.StringIO(text)), start=1):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != 2:
            raise ValueError(f"stimulus line {lineno}: expected 2 columns")
        name, raw_time = row[0].strip(), row[1].strip()
        if lineno == 1 and not raw_time.lstrip("-").isdigit():
            continue  # header
        if not name:
            raise ValueError(f"stimulus line {lineno}: empty signal name")
        try:
            time = int(raw_time)
        except ValueError:
            raise ValueError(
                f"stimulus line {lineno}: bad time {raw_time!r}") from None
        if time < 0:
            raise ValueError(f"stimulus line {lineno}: negative time")
        collected.setdefault(name, set()).add(time)
    return {name: tuple(sorted(times)) for name, times in collected.items()}


def shuffle_synapses(net: Network, seed: int) -> Network:
    """Rebuild the network with its synapse list randomly permuted;
    entity ids are unchanged, so spike records stay comparable."""
    doc = netlist.to_document(net)
    random.Random(seed).shuffle(doc["synapses"])
    rebuilt, _ = netlist.from_document(doc)
    return rebuilt
