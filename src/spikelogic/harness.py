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

The runners share one pipeline. Each runner prices its blocks and, in
_duration, its trace from their sizes, then builds them and reads their
ports from the built handles; _stimulated cuts each input's train at
the run's end, from the canonical per-ms words or the stimulus override,
and packs the oracles' words from those trains; the runner wires and
runs its blocks and composes its checks from the BLOCKS word oracles;
_result runs the checks, masked to the run, and assembles the trace.

Checks compare spike sets only from (path latency + 1) onward: earlier
timesteps fall into CSS warmup, where inverter outputs are not yet
meaningful. A user stimulus file replaces the canonical input schedules
wholesale; signals it does not mention stay silent, and names that do
not match the experiment's input ports are rejected.

Every block kind is declared once, in BLOCKS. check_pipelined() is the
one truth-table check: one input word per ms, outputs compared with the
kind's word oracle delayed by its latency. verify_block() packages
sweeps or fuzzing, resource reconciliation and measure_latency()'s walk
over every input-to-output path into one report, as verify prints it.
"""

from __future__ import annotations

import csv
import io
import operator
import random
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import accumulate, compress, count
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .blocks import (
    build_d_latch,
    build_decoder,
    build_demultiplexer,
    build_encoder,
    build_memory,
    build_multiplexer,
)
from .gates import (
    Handle,
    build_css,
    build_not,
    drive,
    padded,
    wire,
)
from .oracles import (
    decoder_channel,
    demux_channels,
    encoder_value,
    latch_states,
    memory_final,
    memory_states,
    mux_output,
)
from .resources import (
    _FORMS,
    FormulaQuery,
    and_kind_name,
    _kind,
    _read_and_kind,
    expected_latency,
    formula_queries,
    formula_resources,
    reconcile,
)
from .sim import (Network, SpikeRecord, _flags, _plan, _require_int,
                  _times, _train, _words, spike_train)
from .trace import SpikeRow, Trace, hex_word_row, spike_row, value_row

# Default seed for the randomized chunks of the mux-demux control
# schedule and for fuzzing; fixed so canonical runs are reproducible.
DEFAULT_SEED = 7

# The most synapses a block's closed form may count for it to be built.
# Under tracemalloc on CPython 3.11 a build peaks at about 85 bytes per
# counted synapse: 37.7 MB (84 B each) for the 447,200 of a classic
# memory with r=1023, c=32, 30.0 MB (81 B each) for the 372,512 of a
# fast one. So this admits builds of up to about 0.17 GB, 4.5 times that
# classic memory. It refuses the select kinds from n=16 (classic) or
# n=17 (fast), the encoder from 228,110 inputs and a memory of r
# registers whose full memory of the same depth, n = r.bit_length(),
# holds about (2^n - 1) * c = 150k latches (classic) or 180k (fast).
MAX_SYNAPSES = 2_000_000

# The most trace cells an experiment may hold: duration_ms times its
# input and recorded signals. Outputs are streamed a row or a ms at a
# time, so no copy of the table is held, and most of what a run holds
# is per ms: header strings, column widths and ends, input words and
# tick ints, about 130 bytes. At the peak of `spikelogic run --format
# table --out` (tracemalloc, CPython 3.11) a cell costs 3 to 5 bytes
# for memory r=63 c=8 (582 signals, 1,000 and 10,000 ms) and 16 for
# d-latch at 10^6 ms (9 signals); decoder-encoder n=1 (4 signals) at
# the cap peaks at 468 MB RSS. The memory-cli benchmark holds 582,000.
MAX_TRACE_CELLS = 10_000_000

# verify_block's seeded cases after each exhaustive sweep, or fuzz steps
VERIFY_TRIALS = 64


@dataclass(frozen=True)
class ExperimentConfig:
    """Options for run_experiment; None picks the experiment default
    (DEFAULT_SEED for mux-demux, the one experiment that reads a seed)."""

    and_kind: str | None = None
    n: int | None = None
    registers: int | None = None
    bits: int | None = None
    duration_ms: int | None = None
    seed: int | None = None
    stimulus: Mapping[str, Sequence[int]] | None = None


@dataclass(frozen=True)
class Check:
    label: str
    ok: bool
    detail: str = ""


@dataclass
class ExperimentResult:
    """inputs names the input signals, whose rows lead the trace in
    their order; signal_times are the spike times of signal_trains."""

    name: str
    and_kind: str
    params: dict
    net: Network
    record: SpikeRecord
    trace: Trace
    inputs: tuple[str, ...]
    outputs: dict[str, int]
    checks: tuple[Check, ...]

    @property
    def duration_ms(self) -> int:
        return self.record.duration_ms

    @property
    def signal_times(self) -> dict[str, tuple[int, ...]]:
        return {name: tuple(compress(count(), _flags(train)))
                for name, train in self.signal_trains.items()}

    @property
    def signal_trains(self) -> dict[str, int]:
        """The inputs' trains, read from their rows, then the outputs'."""
        return {**{row.label: row.train
                   for row in self.trace.rows[:len(self.inputs)]},
                **{name: self.record.trains[eid]
                   for name, eid in self.outputs.items()}}

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
    return "\n".join(f"{'PASS' if check.ok else 'FAIL'}  {check.label}"
                     + (f": {check.detail}" if check.detail else "")
                     for check in checks) + "\n"


def _random(seed: int) -> random.Random:
    """seed's generator; None would seed from the clock, not repeatably."""
    if type(seed) is not int:
        raise ValueError(f"seed must be an int, not {seed!r}")
    return random.Random(seed)


def _seeded(seed: int | None) -> int:
    """The seed a recipe that draws reads: None picks DEFAULT_SEED."""
    return DEFAULT_SEED if seed is None else seed


def _unseeded(seed: int | None, recipe: str) -> None:
    """None for a recipe that draws nothing, which refuses a seed."""
    if seed is not None:
        raise ValueError(f"{recipe} reads no seed, got seed={seed!r}")


def _drawn(kind: str, rng: random.Random, *size: int) -> list[int]:
    """VERIFY_TRIALS words drawn uniformly over the block's input ports."""
    ports = _FORMS[kind].ports(*size)[0]
    return [rng.randrange(2 ** ports) for _ in range(VERIFY_TRIALS)]


def _diff_detail(signal: str, got: int, want: int) -> str:
    parts = [f"signal {signal}"]
    for what, train in (("unexpected", got & ~want), ("missing", want & ~got)):
        times = []  # the first five, from the low set bits
        while train and len(times) < 5:
            times.append((train & -train).bit_length() - 1)
            train &= train - 1
        if times:
            parts.append(f"{what} at {times}")
    return ", ".join(parts)


# ms per block of _word_trains: an add copies a block's int, not a train
_SPAN = 4096


def _word_trains(words: Sequence[int], count: int) -> list[int]:
    """Train k of count spikes at t where bit k of words[t] is set, for
    t >= 1: from the set bits of the words, or of their changes if
    fewer, each adding 1 << t where a bit turns off, else taking it."""
    seq = [0, *words[1:], 0]
    by_change = (sum(map(int.bit_count, map(operator.xor, seq[1:], seq)))
                 < sum(map(int.bit_count, seq)))
    trains, before = [0] * count, [0, *seq]
    for base in range(0, len(seq), _SPAN):
        block = [0] * count
        for t, (word, previous) in enumerate(zip(seq[base:base + _SPAN],
                                                 before[base:base + _SPAN])):
            bits = word ^ previous if by_change else word
            while bits:
                low = bits & -bits
                on = by_change and word & low  # the bit turned on at t
                block[low.bit_length() - 1] += -(1 << t) if on else 1 << t
                bits ^= low
        trains = [train + (value << base) if value else train
                  for train, value in zip(trains, block)]
    return trains


def _expect_delayed(record: SpikeRecord, outputs: Mapping[str, int],
                    oracle_words: Sequence[int], latency: int, label: str,
                    ok_detail: str = "") -> Check:
    """Output k (in the order of outputs) must spike at t + latency
    exactly when bit k of oracle_words[t] is set, for t >= 1; spikes
    are compared from latency + 1 on, up to the end of the run. The
    first mismatching output is reported."""
    trains, run = _word_trains(oracle_words, len(outputs)), ~(-1 << record.duration_ms)
    for (signal, eid), train in zip(outputs.items(), trains):
        got, want = record.trains[eid], train << latency & run
        if (got ^ want) >> latency + 1:
            return Check(label, False, _diff_detail(
                signal, got >> latency + 1 << latency + 1, want))
    return Check(label, True, ok_detail)


def _spike_rows(record: SpikeRecord, outputs: Mapping[str, int],
                valid_from: int) -> list[SpikeRow]:
    return [spike_row(name, record.trains[eid], record.duration_ms, valid_from)
            for name, eid in outputs.items()]


# ---------------------------------------------------------------------------
# Block table


@dataclass(frozen=True)
class BlockSpec:
    """What the harness and the CLI know about one block kind.

    A size is a tuple of ints, one per keyword of default (n, registers,
    bits; the encoder's input count is its n); the callables take it
    unpacked after their other arguments. The built handle fixes the
    port order and names the size in its params: bit k of an input word
    drives its k-th input port and bit k of an output word is its k-th
    output port. oracle(words, *size) maps per-ms input words to
    the output words the block shows one latency later.
    """

    default: dict[str, int]
    build: Callable[..., Handle]  # (net, and_kind, css, *size)
    oracle: Callable[..., list[int]]
    verify: Callable[..., list[Check]]  # (and_kind, rng, seed or None, *size)


def _memory_words(words: Sequence[int], r: int, c: int) -> list[int]:
    """The memory oracle's words, register a at bits (a - 1) c and up:
    each is the word before with its write's change xored in, so a write
    costs one register, not all r."""
    depth = r.bit_length()
    addresses = [w & 2 ** depth - 1 for w in words]
    states = memory_states(addresses, [w >> depth for w in words], r, c)
    return [*accumulate((
        (before[a - 1] ^ after[a - 1]) << (a - 1) * c if 0 < a <= r else 0
        for a, before, after in zip(addresses, [(0,) * r, *states], states)),
        operator.xor)]


# Builders, sweeps and oracles are looked up at call time, through this
# module's globals, so a caller may wrap them (the benchmark traces them).
BLOCKS: dict[str, BlockSpec] = {
    "decoder": BlockSpec(
        {"n": 2},
        build=lambda net, ak, css, n: build_decoder(net, n, ak, css),
        oracle=lambda words, n: [1 << decoder_channel(w) for w in words],
        verify=lambda ak, rng, seed, n: [
            sweep_decoder(n, ak), sweep_decoder(n, ak, _drawn("decoder", rng, n))]),
    "encoder": BlockSpec(
        {"n": 4},
        build=lambda net, ak, css, m: build_encoder(net, m),
        oracle=lambda words, m: [
            encoder_value(i for i in range(m) if w >> i & 1) for w in words],
        # exhaustive up to 10 inputs, seeded subsets beyond
        verify=lambda ak, rng, seed, m: [sweep_encoder(
            m, _drawn("encoder", rng, m) if m > 10
            else _unseeded(seed, f"encoder n={m}, which sweeps every subset,"))]),
    "multiplexer": BlockSpec(
        {"n": 2},
        build=lambda net, ak, css, n: build_multiplexer(net, n, ak, css),
        oracle=lambda words, n: [int(mux_output(
            w & 2 ** n - 1, [w >> n + j & 1 for j in range(2 ** n)]))
            for w in words],
        verify=lambda ak, rng, seed, n: [
            sweep_multiplexer(n, ak),
            sweep_multiplexer(n, ak, _drawn("multiplexer", rng, n))]),
    "demultiplexer": BlockSpec(
        {"n": 2},
        build=lambda net, ak, css, n: build_demultiplexer(net, n, ak, css),
        oracle=lambda words, n: [sum(on << j for j, on in enumerate(
            demux_channels(w & 2 ** n - 1, bool(w >> n & 1), 2 ** n)))
            for w in words],
        verify=lambda ak, rng, seed, n: [
            sweep_demultiplexer(n, ak),
            sweep_demultiplexer(n, ak, _drawn("demultiplexer", rng, n))]),
    "d_latch": BlockSpec(
        {},
        build=lambda net, ak, css: build_d_latch(net, ak, css),
        oracle=lambda words: [int(q) for q in latch_states(
            [w & 1 for w in words], [w >> 1 & 1 for w in words])],
        verify=lambda ak, rng, seed: [
            fuzz_d_latch(ak, seed=_seeded(seed))]),
    "memory": BlockSpec(
        {"registers": 3, "bits": 3},
        build=lambda net, ak, css, r, c: build_memory(net, r, c, ak, css),
        oracle=lambda words, r, c: _memory_words(words, r, c),
        verify=lambda ak, rng, seed, r, c: [
            fuzz_memory(r, c, ak, seed=_seeded(seed))]),
}


# every size keyword, with its n-form field; registers price at their
# bit_length (see block_query)
_QUERY_FIELDS = {"n": "n", "registers": "n", "bits": "c"}


def block_query(kind: str, and_kind: str | None,
                size: tuple[int, ...]) -> FormulaQuery:
    """The n-form that prices a block of this size before it is built.
    A memory of r registers is priced as the full memory of its depth,
    n = r.bit_length(): exact at r = 2^n - 1, an upper bound below it,
    where the decoder still has all 2^n channels but fewer latches are
    built. The one check of a block: an unknown kind or AND kind, a size
    not a tuple of the kind's length, or an entry that is not an int of
    the smallest buildable size or more raises ValueError."""
    forms = _kind(kind)
    flags = BLOCKS[kind].default
    if type(size) is not tuple or len(size) != len(flags):
        raise ValueError(f"{kind} takes a size ({', '.join(flags)}), not {size!r}")
    for flag, value in zip(flags, size):
        _require_int(f"{kind} {flag}", value,
                     forms.n_form.least[_QUERY_FIELDS[flag]])
    return FormulaQuery(kind, _read_and_kind(forms, and_kind), "n", **{
        _QUERY_FIELDS[flag]: value.bit_length() if flag == "registers" else value
        for flag, value in zip(flags, size)})


def block_config(kind: str, and_kind=None, **sizes: int | None,
                 ) -> tuple[str | None, tuple[int, ...]]:
    """AND kind and size of one block kind, from size keywords named as
    in BLOCKS[kind].default. None picks the default ("fast", and the size
    in BLOCKS); a kind without an AND stage gets None, but still rejects
    an unknown AND kind. A size keyword the kind does not read, a size
    below the smallest buildable one, or one whose closed form counts
    more than MAX_SYNAPSES synapses raises ValueError before anything is
    built."""
    _kind(kind)
    default = BLOCKS[kind].default
    for flag, value in sizes.items():
        if value is not None and flag not in default:
            takes = " and ".join(default) or "no size"
            raise ValueError(f"{kind} takes {takes}, not {flag}")
    size = tuple(value if sizes.get(flag) is None else sizes[flag]
                 for flag, value in default.items())
    return _admitted(kind, "fast" if and_kind is None else and_kind, size), size


def _admitted(kind: str, and_kind: str | None, size: tuple[int, ...]) -> str | None:
    """The AND kind block_query reads, once _admit admits the block."""
    query = block_query(kind, and_kind, size)
    named = " ".join(map("{}={}".format, BLOCKS[kind].default, size))
    _admit(f"{kind} {named}", [query])
    return query.and_kind


def _admit(label: str, queries: Sequence[FormulaQuery]) -> None:
    """Raise ValueError, quoting the sum, when the closed forms of the
    blocks one build makes, a query each, count more than MAX_SYNAPSES.
    Past the smallest sizes, every closed form counts more synapses than
    any of its size entries, so an entry above the cap is over it
    without evaluating a count that may be too large to compute."""
    entry = max((value for query in queries
                 for value in (query.n, query.m, query.r, query.c) if value),
                default=0)
    if entry > MAX_SYNAPSES:
        count = f"at least {entry:,}"
    else:
        synapses = sum(formula_resources(query).synapses for query in queries)
        if synapses <= MAX_SYNAPSES:
            return
        # a count of thousands of digits is shown by its power of two
        count = (f"{synapses:,}" if synapses.bit_length() <= 64
                 else f"at least 2^{synapses.bit_length() - 1}")
    forms = "closed forms" if len(queries) > 1 else "closed form"
    raise ValueError(f"{label} needs {count} synapses by its {forms}, more "
                     f"than the {MAX_SYNAPSES:,} a build may hold")


def build_block(net: Network, kind: str, and_kind: str | None,
                size: tuple[int, ...]) -> Handle:
    """Build one block on net, after its CSS if it reads one (its closed
    forms count a CSS, or its ANDs are fast), once _admit admits it."""
    _admitted(kind, and_kind, size)
    css = build_css(net) if _FORMS[kind].counts_css or and_kind == "fast" else None
    return BLOCKS[kind].build(net, and_kind, css, *size)


def check_pipelined(kind: str, and_kind: str | None, size: tuple[int, ...],
                    words: Sequence[int], label: str,
                    ok_detail: str = "") -> Check:
    """Present words[i] at t = 1 + i, one source per input port of the
    built block in its port order (bit k drives port k), for len(words)
    + latency + 3 ms; every output must follow the kind's oracle,
    delayed by the latency. A word that is not an int in [0, 2^ports)
    raises ValueError before anything is built."""
    _admitted(kind, and_kind, size)
    inputs = _FORMS[kind].ports(*size)[0]
    latency = expected_latency(kind, and_kind)
    # words read once, so an iterator is checked and run alike
    stream = [0, *words] + [0] * (latency + 2)
    for i, word in enumerate(stream, -1):  # word i at t = 1 + i
        # type() rather than isinstance(): a bool is an int, not a word
        if type(word) is not int or not 0 <= word < 1 << inputs:
            raise ValueError(f"word {i} is {word!r}, not an int in "
                             f"[0, 2^{inputs})")
    net = Network()
    block = build_block(net, kind, and_kind, size)
    ports = block.inputs
    for k, port in enumerate(ports):
        drive(net, block, port, net.add_source(
            [t for t, word in enumerate(stream) if word >> k & 1]))
    outputs = block.outputs
    net.record(*outputs.values())
    record = net.run(len(stream))
    return _expect_delayed(record, outputs, BLOCKS[kind].oracle(stream, *size),
                           latency, label, ok_detail)


# ---------------------------------------------------------------------------
# Experiments


def _sizes(options) -> dict[str, int | None]:
    """The size keywords of an ExperimentConfig or of the CLI's options,
    for block_config, which rejects those the block does not read."""
    return {flag: getattr(options, flag) for flag in _QUERY_FIELDS}


def _duration(cfg: ExperimentConfig, default_ms: int, signals: int) -> int:
    """The run's duration, default_ms unless cfg names one, once its
    trace fits MAX_TRACE_CELLS: a cell per ms for each of its signals,
    inputs and recorded outputs. It runs before any builder, so a
    refused run builds nothing."""
    duration = default_ms if cfg.duration_ms is None else cfg.duration_ms
    _require_int("duration_ms", duration, 1)
    if duration * signals > MAX_TRACE_CELLS:
        raise ValueError(f"a {duration:,} ms run of {signals} signals holds "
                         f"{duration * signals:,} trace cells, more than the "
                         f"{MAX_TRACE_CELLS:,} a run may hold")
    return duration


def _stimulated(cfg: ExperimentConfig, names: Sequence[str], duration: int,
                canonical: Callable[[int], Sequence[int]]) -> tuple[
                    dict[str, tuple[int, ...]], dict[str, int], Sequence[int]]:
    """Each input's spike times and train over the run, and the per-ms
    words of those trains, word 0 left 0 as checks start at t=1.
    canonical(duration) gives the default per-ms words, bit k driving
    names[k] from t=1 on; cfg.stimulus replaces them, and canonical is
    not called: a stimulus that is not a mapping, a name it gives that
    is no input, or a time that is not an int >= 0, raises ValueError."""
    if cfg.stimulus is None:
        words = canonical(duration)
        times = {name: tuple(t for t in range(1, duration) if words[t] >> k & 1)
                 for k, name in enumerate(names)}
    else:
        if not isinstance(cfg.stimulus, Mapping):
            raise ValueError("stimulus must map input names to spike times, "
                             f"not {cfg.stimulus!r}")
        # sorted by str: names of mixed types do not compare
        unknown = sorted({*cfg.stimulus} - {*names}, key=str)
        if unknown:
            raise ValueError(f"stimulus signals {unknown} do not match "
                             f"the experiment inputs {sorted(names)}")
        times = {name: tuple(sorted(set(_times(
            f"stimulus times of signal {name}", cfg.stimulus.get(name, ())))))
            for name in names}
    # times are sorted: those at or past the duration never run
    trains = [_train(ts[:bisect_left(ts, duration)]) for ts in times.values()]
    return (times, dict(zip(names, trains)),
            _words([train & -2 for train in trains], duration))


def _result(name: str, ak: str, params: dict, net: Network,
            record: SpikeRecord, inputs: dict[str, int],
            outputs: dict[str, int], checks: Iterable[tuple],
            rows: list[SpikeRow]) -> ExperimentResult:
    """Each check is _expect_delayed's arguments after the record; the
    trace shows the inputs' trains, then rows."""
    duration = record.duration_ms
    rows = [spike_row(signal, train, duration)
            for signal, train in inputs.items()] + rows
    return ExperimentResult(
        name, ak, params, net, record, Trace(duration, tuple(rows)), tuple(inputs),
        outputs, tuple(_expect_delayed(record, *check) for check in checks))


def _run_decoder_encoder(cfg: ExperimentConfig) -> ExperimentResult:
    ak, (n,) = block_config("decoder", cfg.and_kind, **_sizes(cfg))
    dec_latency = expected_latency("decoder", ak)
    total = dec_latency + 1
    _admit(f"decoder-encoder n={n}", [block_query("decoder", ak, (n,)),
                                      block_query("encoder", None, (2 ** n,))])
    duration = _duration(
        cfg, max(16, 2 * 2 ** n + total + 2),
        sum(_FORMS["decoder"].ports(n)) + _FORMS["encoder"].ports(2 ** n)[1])

    net = Network()
    decoder = build_decoder(net, n, ak, build_css(net))
    encoder = build_encoder(net, 2 ** n)
    channels, ors = decoder.outputs, encoder.outputs
    # channel j drives input d_j
    for channel, taps in zip(channels.values(), encoder.inputs.values()):
        wire(net, channel, taps)
    times, trains, words = _stimulated(
        cfg, list(decoder.inputs), duration,
        lambda ms: [(t - 1) % 2 ** n for t in range(ms)])
    for name, ts in times.items():
        drive(net, decoder, name, net.add_source(ts))
    net.record(*channels.values(), *ors.values())
    record = net.run(duration)

    channel_words = BLOCKS["decoder"].oracle(words, n)
    return _result(
        "decoder-encoder", ak, {"n": n}, net, record, trains,
        {**channels, **ors},
        [(ors, BLOCKS["encoder"].oracle(channel_words, 2 ** n), total,
          f"encoder output equals input words delayed by {total} ms",
          f"delay {total} ms over {duration} ms"),
         (channels, channel_words, dec_latency,
          "decoder channels one-hot per input word")],
        _spike_rows(record, channels, dec_latency + 1)
        + _spike_rows(record, ors, total + 1))


def _control_chunks(n: int, duration_ms: int, seed: int) -> list[int]:
    """Per-ms select words: 0 until t=10, then all-ones until t=40, then
    seeded random words per chunk, each different from its predecessor."""
    rng = _random(seed)
    values = [0, 0, 2 ** n - 1]  # before t=1, then the chunks from t=1, 10
    while len(values) < 6:
        value = rng.randrange(2 ** n)
        if value != values[-1]:
            values.append(value)
    return [values[bisect_right((1, 10, 40, 60, 90), t)]
            for t in range(duration_ms)]


def _run_mux_demux(cfg: ExperimentConfig) -> ExperimentResult:
    ak, (n,) = block_config("multiplexer", cfg.and_kind, **_sizes(cfg))
    _admit(f"mux-demux n={n}", [block_query(kind, ak, (n,)) for kind
                                in ("multiplexer", "demultiplexer")])
    duration = _duration(cfg, 110, sum(_FORMS["multiplexer"].ports(n))
                         + _FORMS["demultiplexer"].ports(n)[1])
    mux_latency = expected_latency("multiplexer", ak)
    total = mux_latency + expected_latency("demultiplexer", ak)

    net = Network()
    css = build_css(net)
    mux = build_multiplexer(net, n, ak, css)
    demux = build_demultiplexer(net, n, ak, css)
    out_id = mux.output("out")
    wire(net, out_id, demux.input_taps("d"))
    channels = demux.outputs
    # data line d_j spikes every 2^j ms from t=1
    times, trains, words = _stimulated(
        cfg, list(mux.inputs), duration,
        lambda ms: [word | sum(1 << n + j for j in range(2 ** n)
                               if (t - 1) % 2 ** j == 0) for t, word
                    in enumerate(_control_chunks(n, ms, _seeded(cfg.seed)))])
    for name, ts in times.items():
        source = net.add_source(ts)
        drive(net, mux, name, source)
        if name in demux.inputs:
            # the demux sees the same select lines, delayed to match the
            # data that is still in flight through the mux
            wire(net, source, padded(demux.input_taps(name), mux_latency))
    net.record(out_id, *channels.values())
    record = net.run(duration)

    mux_words = BLOCKS["multiplexer"].oracle(words, n)
    select = 2 ** n - 1
    demux_words = BLOCKS["demultiplexer"].oracle(
        [w & select | out << n for w, out in zip(words, mux_words)], n)
    return _result(
        "mux-demux", ak, {"n": n}, net, record, trains,
        {"mux_out": out_id, **channels},
        [({"out": out_id}, mux_words, mux_latency, "multiplexer forwards "
          f"the selected data line after {mux_latency} ms"),
         (channels, demux_words, total,
          f"demultiplexer reproduces each data input after {total} ms")],
        _spike_rows(record, {"mux out": out_id}, mux_latency + 1)
        + _spike_rows(record, channels, total + 1))


def _run_d_latch(cfg: ExperimentConfig) -> ExperimentResult:
    ak, _ = block_config(
        "d_latch", "classic" if cfg.and_kind is None else cfg.and_kind,
        **_sizes(cfg))
    # external inverter in the data path
    data_latency = expected_latency("d_latch", ak) + 1
    # store, data1 and data2, and the q of each of 6 latches
    duration = _duration(cfg, 16, 3 + 6 * _FORMS["d_latch"].ports()[1])
    times, trains, words = _stimulated(
        cfg, ("store", "data1", "data2"), duration,
        lambda ms: [(t in (1, 2, 3, 8)) | (t in (1, 3, 4)) << 1
                    | (t in (3, 5)) << 2 for t in range(ms)])

    net = Network()
    css = build_css(net)
    store_source = net.add_source(times["store"])
    latches = []
    for name in ("data1", "data2"):
        inverter = build_not(net, css)
        data_source = net.add_source(times[name])
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

    # bank g's three latches hold the state of store and data bit g + 1
    return _result(
        "d-latch", ak, {"latches": len(latches)}, net, record, trains, q_ids,
        [(dict(list(q_ids.items())[3 * g:3 * g + 3]),
          [0b111 * q for q in BLOCKS["d_latch"].oracle(
              [w & 1 | w >> g & 2 for w in words])], data_latency,
          f"latches {3 * g}-{3 * g + 2} track store/data{g + 1} "
          f"with {data_latency} ms delay") for g in (0, 1)],
        _spike_rows(record, q_ids, data_latency + 1))


def _run_memory(cfg: ExperimentConfig) -> ExperimentResult:
    ak, (registers, bits) = block_config("memory", cfg.and_kind,
                                         **_sizes(cfg))
    depth = registers.bit_length()
    latency = expected_latency("memory", ak)
    # block_config priced the memory; its trace adds the decoder channels
    duration = _duration(cfg, 30, sum(_FORMS["memory"].ports(
        registers, bits)) + _FORMS["decoder"].ports(depth)[1])

    net = Network()
    memory = build_memory(net, registers, bits, ak, build_css(net))
    decoder = memory.decoder
    q_ids, channels = memory.outputs, decoder.outputs
    times, trains, words = _stimulated(
        cfg, list(memory.inputs), duration,
        lambda ms: [t % (registers + 1) | t % 2 ** bits << depth
                    for t in range(ms)])
    addresses = [w & (2 ** depth - 1) for w in words]
    for name, ts in times.items():
        drive(net, memory, name, net.add_source(ts))
    net.record(*q_ids.values(), *channels.values())
    record = net.run(duration)

    dec_latency = expected_latency("decoder", ak)
    # the non-operation channel is called out explicitly in traces
    marks = ["0*", *map(str, range(1, 2 ** depth))]
    expected_cells = [""] * duration
    expected_cells[dec_latency + 1:] = map(
        marks.__getitem__, addresses[1:max(0, duration - dec_latency)])
    rows = [value_row("Channel (Expected)", expected_cells,
                      valid_from=dec_latency + 1)]
    decoded_cells = [""] * duration
    for mark, cid in zip(marks, channels.values()):
        for t in record.times(cid):
            decoded_cells[t] = mark
    rows.append(value_row("Channel (Decoder)", decoded_cells,
                          valid_from=dec_latency + 1))
    for i in range(1, registers + 1):
        register = {f"q{i}_{j}": q_ids[f"q{i}_{j}"] for j in range(bits)}
        rows += _spike_rows(record, register, latency + 1)
        rows.append(hex_word_row(
            f"Register {i}", [record.trains[eid] for eid in register.values()],
            duration, valid_from=latency + 1))
    return _result(
        "memory", ak, {"registers": registers, "bits": bits}, net, record,
        trains, {**channels, **q_ids},
        [(q_ids, BLOCKS["memory"].oracle(words, registers, bits), latency,
          f"register contents match the write oracle after {latency} ms"),
         (channels, BLOCKS["decoder"].oracle(addresses, depth), dec_latency,
          "address decoder one-hot, channel 0 on idle input")], rows)


_RUNNERS = {
    "decoder-encoder": _run_decoder_encoder,
    "mux-demux": _run_mux_demux,
    "d-latch": _run_d_latch,
    "memory": _run_memory,
}
EXPERIMENTS = tuple(_RUNNERS)


def run_experiment(name: str,
                   config: ExperimentConfig | None = None) -> ExperimentResult:
    """Build, stimulate and check one canned experiment. None in the
    config picks the experiment default; a size or duration below 1, or
    a seed that is no int or is given to an experiment other than
    mux-demux, which alone reads one, raises ValueError."""
    if name not in _RUNNERS:
        raise ValueError(
            f"unknown experiment {name!r}; expected one of {EXPERIMENTS}")
    config = config or ExperimentConfig()
    if name != "mux-demux":
        _unseeded(config.seed, name)
    else:  # checked here: a stimulus leaves the seed undrawn
        _random(_seeded(config.seed))
    return _RUNNERS[name](config)


# ---------------------------------------------------------------------------
# Verification sweeps


def _sweep(kind: str, n: int, and_kind: str | None, words: Sequence[int] | None,
           default: Callable[[int], list[int]], noun: str = "cases",
           detail: str = "") -> Check:
    """A combinational kind's pipelined sweep of words, default(n) if
    None; the encoder has no AND stage, so its label names its inputs."""
    ak = _admitted(kind, and_kind, (n,))
    words = default(n) if words is None else words
    head = f"{kind} n={n} {ak}" if ak else f"{kind} {n} inputs"
    return check_pipelined(kind, ak, (n,), words,
                           f"{head}: {len(words)} pipelined {noun}",
                           f"{len(words)} {noun}{detail}")


def sweep_decoder(n: int, and_kind: str,
                  words: Sequence[int] | None = None) -> Check:
    """Pipelined truth-table sweep; silence decodes as word 0."""
    latency = expected_latency("decoder", and_kind)
    return _sweep("decoder", n, and_kind, words, lambda n: [*range(2 ** n)],
                  "words", f", latency {latency} ms")


def sweep_encoder(n: int, words: Sequence[int] | None = None) -> Check:
    """Pipelined sweep of input subsets (bitmask per ms), every subset by
    default; expected output is the bitwise OR of the active indices."""
    return _sweep("encoder", n, None, words, lambda n: [*range(2 ** n)], "subsets")


def sweep_multiplexer(n: int, and_kind: str,
                      words: Sequence[int] | None = None) -> Check:
    """Pipelined select | data << n words, data masking the 2^n data lines;
    default visits every select word against selected/other lines on and off."""
    return _sweep("multiplexer", n, and_kind, words, lambda n: [
        select | (d_sel << select | d_others * (2 ** 2 ** n - 1 ^ 1 << select)) << n
        for select in range(2 ** n) for d_sel in (0, 1) for d_others in (0, 1)])


def sweep_demultiplexer(n: int, and_kind: str,
                        words: Sequence[int] | None = None) -> Check:
    """Pipelined select | data << n words, data the one data bit;
    default visits every select word with data present and absent."""
    return _sweep("demultiplexer", n, and_kind, words, lambda n: [
        select | d << n for select in range(2 ** n) for d in (0, 1)])


def fuzz_d_latch(and_kind: str, steps: int = VERIFY_TRIALS,
                 seed: int = DEFAULT_SEED) -> Check:
    """Random store/data schedule against the hold/track oracle. The
    inverted data line is supplied as an ideal complement source; after
    the schedule store stays down and the latch must hold."""
    ak, _ = block_config("d_latch", and_kind_name(and_kind))
    _require_int("steps", steps, 1)
    rng = _random(seed)
    store_bits = [rng.random() < 0.4 for _ in range(steps)]
    data_bits = [rng.random() < 0.5 for _ in range(steps)]
    return check_pipelined(
        "d_latch", ak, (), [store | data << 1 | (not data) << 2
                            for store, data in zip(store_bits, data_bits)],
        f"d_latch {ak}: {steps} random store/data steps",
        f"{steps} steps, seed {seed}")


def fuzz_memory(registers: int, bits: int, and_kind: str,
                writes: int = VERIFY_TRIALS, seed: int = DEFAULT_SEED) -> Check:
    """Random write stream (addresses may hit the non-operation channel
    and, at partial occupancy, register-free channels) against the
    array-write oracle, checked on the full q timelines."""
    ak, (registers, bits) = block_config(
        "memory", and_kind_name(and_kind), registers=registers, bits=bits)
    _require_int("writes", writes, 1)
    rng = _random(seed)
    depth = registers.bit_length()
    addresses = [rng.randrange(2 ** depth) for _ in range(writes)]
    words = [rng.randrange(2 ** bits) for _ in range(writes)]
    final = memory_final(addresses, words, registers, bits)
    return check_pipelined(
        "memory", ak, (registers, bits),
        [address | word << depth for address, word in zip(addresses, words)],
        f"memory registers={registers} bits={bits} {ak}: "
        f"{writes} random writes",
        f"final contents {list(final)}")


def _path_delays(net: Network, starts: Iterable[tuple[int, int]]) -> list[int]:
    """Per entity id, the delays (bit d: d ms) at which a path reaches it
    from the bits each (eid, bits) of starts sets, carried in id order
    along every synapse, inhibitory ones too: the network is walked, not
    run. At its first id the span, whose members may read ids walked
    after them, is walked until no arrival changes. Its bits are cut at
    its size times the longest delay past the latest bit set before it,
    which every path without a cycle stays below."""
    arrive = [0] * (len(net.neurons) + len(net.sources))
    for eid, bits in starts:
        arrive[eid] |= bits
    sources, _, _, delays = net._columns
    longest = max(delays, default=0)
    fan_in, span = _plan(net, 1 + longest)

    def reached(nid: int) -> int:
        bits = arrive[nid]
        for k in fan_in[nid]:
            if sources[k] != nid:  # an SR latch's hold is no new path
                bits |= arrive[sources[k]] << delays[k]
        return bits

    for nid in fan_in:
        if nid not in span:
            arrive[nid] = reached(nid)
        elif nid == span.start:
            cut = ~(-1 << max(map(int.bit_length, arrive)) + len(span) * longest)
            before = None  # the span's arrivals before each walk of it
            while before != (before := arrive[span.start:span.stop]):
                for member in filter(fan_in.__contains__, span):
                    arrive[member] = reached(member) & cut
    return arrive


def measure_latency(kind: str, and_kind: str | None = None,
                    **sizes: int | None) -> int:
    """The one delay of every path from an input port of the built block
    to an output, from _path_delays: the block is not run. An output that
    no path reaches, or that paths reach at more than one delay or at
    another than the other outputs, raises ValueError naming it and its
    delays. Sizes default as in verify_block."""
    net = Network()
    return _latency(net, build_block(net, kind, *block_config(kind, and_kind, **sizes)))


def _latency(net: Network, block: Handle) -> int:
    """measure_latency of a block built on net."""
    arrive = _path_delays(net, [(target, 1 << delay) for taps in block.inputs.values()
                                for target, _, delay, _ in taps])
    shared = None
    for name, eid in block.outputs.items():
        if arrive[eid].bit_count() != 1 or shared not in (None, arrive[eid]):
            delays = list(compress(count(), _flags(arrive[eid])))
            raise ValueError(f"{block.kind} output {name} has path delays {delays}"
                             " ms, not the one delay of every output")
        shared = arrive[eid]
    return shared.bit_length() - 1


def verify_block(kind: str, and_kind: str | None = None, *,
                 seed: int | None = None, **sizes: int | None) -> VerifyReport:
    """Sweep, fuzz, time and reconcile one block; everything a quick
    confidence pass needs, as a printable report. None picks the default
    size, and DEFAULT_SEED where cases are drawn; a size below the smallest
    buildable one, or a seed where no case is drawn, raises ValueError."""
    ak, size = block_config(kind, and_kind, **sizes)
    checks = BLOCKS[kind].verify(ak, _random(_seeded(seed)), seed, *size)
    net = Network()
    handle = build_block(net, kind, ak, size)
    queries = formula_queries(handle)
    if queries is None:  # a partially occupied memory
        checks.append(Check(
            "resource formulas skipped", True,
            f"closed forms assume full occupancy registers = 2^n - 1, "
            f"got registers={size[0]}"))
    for query in queries or ():
        result = reconcile(handle, query)
        checks.append(Check(
            f"measured resources match the {query.form}-form "
            f"({handle.resources.neurons} neurons, "
            f"{handle.resources.synapses} synapses)",
            result.ok, "; ".join(result.diffs)))
    wanted = expected_latency(kind, ak)
    try:
        measured = _latency(net, handle)
        label, detail = f"measured latency {measured} ms", f"expected {wanted}"
    except ValueError as mismatch:  # paths of more than one delay
        measured, label, detail = None, "latency", str(mismatch)
    checks.append(Check(f"{label} equals table value", measured == wanted,
                        "" if measured == wanted else detail))
    return VerifyReport(kind, ak, handle.params, tuple(checks))


# ---------------------------------------------------------------------------
# Files


def spike_csv(trains: Mapping[str, int], ticks: Sequence[int]) -> Iterator[str]:
    """Spike data as CSV rows "signal,time_ms" sorted by (time, signal),
    from each signal's train, whose bit i is a spike at ticks[i]: the
    header, then the rows of one tick at a time."""
    names = sorted(name for name, train in trains.items() if train)
    fields = []  # each name quoted as the csv module quotes it
    for name in names:
        line = io.StringIO()
        csv.writer(line).writerow([name, ""])
        fields.append(line.getvalue()[:-3])  # less ",\r\n"
    yield "signal,time_ms\r\n"
    # a flag row per signal, one byte per tick, joined into one matrix:
    # tick i's column is every n-th byte from byte i
    n = len(ticks)
    matrix = b"".join(_flags(trains[name])[:n].ljust(n, b"\0") for name in names)
    for i, t in enumerate(ticks):
        column = matrix[i::n]
        if 1 in column:
            end = f",{t}\r\n"
            yield end.join(compress(fields, column)) + end


def export_spikes(signal_times: Mapping[str, Iterable[int]]) -> str:
    """Spike data as CSV rows "signal,time_ms" sorted by (time, signal).
    A time that is not an integer >= 0 raises ValueError."""
    times = {name: _times(f"spike times of {name}", ts)
             for name, ts in signal_times.items()}
    # bit k of a train is the k-th distinct time: no bit per ms up to the last
    ticks = sorted(set().union(*times.values()))
    rank = {t: k for k, t in enumerate(ticks)}
    return "".join(spike_csv({name: spike_train(map(rank.__getitem__, ts))
                              for name, ts in times.items()}, ticks))


def parse_stimulus(text: str) -> dict[str, tuple[int, ...]]:
    """Parse a stimulus CSV of "signal,time_ms" rows. Line 1 is a header,
    and skipped, when its time field holds no digit. Times are
    deduplicated and sorted per signal."""
    collected: dict[str, set[int]] = {}
    for lineno, row in enumerate(csv.reader(io.StringIO(text)), start=1):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != 2:
            raise ValueError(f"stimulus line {lineno}: expected 2 columns")
        name, raw_time = row[0].strip(), row[1].strip()
        if lineno == 1 and not any(ch in "0123456789" for ch in raw_time):
            continue  # header
        if not name:
            raise ValueError(f"stimulus line {lineno}: empty signal name")
        # ASCII digits only: int() also reads "1_000", "+5" and other scripts' digits
        if not (raw_time.isascii() and raw_time.removeprefix("-").isdigit()):
            raise ValueError(f"stimulus line {lineno}: bad time {raw_time!r}")
        time = int(raw_time)
        if time < 0:
            raise ValueError(f"stimulus line {lineno}: negative time")
        collected.setdefault(name, set()).add(time)
    return {name: tuple(sorted(times)) for name, times in collected.items()}
