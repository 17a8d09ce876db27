"""Millisecond-grid trace assembly and text rendering.

A trace is a bundle of named rows over a shared time axis. Spike rows
keep their spike train and show a 1 in every millisecond the signal
fired; derived rows carry arbitrary cell text, e.g. a register's
contents as hex computed by binary-weighting its bit rows. Each row
masks everything before its
valid_from timestep, which is how start-up transients of CSS-driven
outputs are kept out of rendered output and golden files.

Two renderers: render_table draws a fixed-width grid, one column per
millisecond; render_raster draws one line per row with a character per
millisecond (| spike, . quiet, space masked), and value rows listed as
their changes. Each yields one line per row, so a caller can write a
trace as it is rendered; render_trace joins a table's lines.

Rendering is a pure function of the trace, so repeated runs of a
deterministic experiment produce byte-identical text.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, groupby, repeat
from operator import lshift, or_
from typing import Iterator, Sequence

from .sim import _flags, _require_int

_TABLE_MARKS = bytes.maketrans(b"0", b" ")
_RASTER_MARKS = str.maketrans("01", ".|")


@dataclass(frozen=True)
class TraceRow:
    """A row of cell text, one cell per ms."""

    label: str
    cells: tuple[str, ...]
    valid_from: int = 0

    def __post_init__(self) -> None:
        _require_int("valid_from", self.valid_from, 0)


@dataclass(frozen=True)
class SpikeRow:
    """A row of spikes over duration_ms: its train (bit t: a spike at t),
    with no bit from duration_ms on. cells derives the row's cells, "1"
    where it spikes and "" elsewhere, on demand."""

    label: str
    train: int
    duration_ms: int
    valid_from: int = 0

    def __post_init__(self) -> None:
        _require_int("valid_from", self.valid_from, 0)
        _require_int("duration_ms", self.duration_ms, 0)
        if self.train < 0 or self.train >> self.duration_ms:
            raise ValueError("a spike row's train must lie in [0, 2**duration_ms)")

    @property
    def cells(self) -> tuple[str, ...]:
        # its digits as "1," or ",", split at the commas
        return tuple(_digits(self.train, self.duration_ms)
                     .replace("1", "1,").replace("0", ",").split(",")[:-1])


@dataclass(frozen=True)
class Trace:
    duration_ms: int
    rows: tuple[TraceRow | SpikeRow, ...] = ()

    def __post_init__(self) -> None:
        _require_int("duration_ms", self.duration_ms, 0)

    def row(self, label: str) -> TraceRow | SpikeRow:
        for row in self.rows:
            if row.label == label:
                return row
        raise KeyError(label)


def spike_row(label: str, train: int, duration_ms: int,
              valid_from: int = 0) -> SpikeRow:
    """The row of a train >= 0, less its spikes from duration_ms on."""
    if train < 0:
        raise ValueError(f"the train of {label} must be >= 0, not {train}")
    _require_int("duration_ms", duration_ms, 0)
    return SpikeRow(label, train & ~(-1 << duration_ms), duration_ms, valid_from)


def value_row(label: str, values: Sequence[object],
              valid_from: int = 0) -> TraceRow:
    cells = tuple("" if v is None else str(v) for v in values)
    return TraceRow(label, cells, valid_from)


def hex_word_row(label: str, bit_trains: Sequence[int],
                 duration_ms: int, valid_from: int = 0) -> TraceRow:
    """Register contents per ms from its bit trains, least significant
    first, in hex, blank while 0. Each 8 trains make a byte per ms (their
    flags, shifted), or-ed into the words; each word is formatted once."""
    _require_int("duration_ms", duration_ms, 0)
    words = [0] * duration_ms
    for b in range(0, len(bit_trains), 8):
        byte = 0
        for j, train in enumerate(bit_trains[b:b + 8]):
            byte |= int.from_bytes(_flags(train)[:duration_ms], "little") << j
        words = list(map(or_, words, map(
            lshift, byte.to_bytes(duration_ms, "little"), repeat(b))))
    cells = {word: f"0x{word:02X}" if word else "" for word in set(words)}
    return TraceRow(label, tuple(map(cells.__getitem__, words)), valid_from)


def _digits(train: int, length: int) -> str:
    """The train over length ms, "1" where it spikes and "0" elsewhere."""
    return format(train, "b")[::-1][:length].ljust(length, "0")


def render_table(trace: Trace) -> Iterator[str]:
    """A fixed-width grid, one line per row. Value rows pad cell by cell;
    a spike row's marks go into a copy of one blank line, a run of equal
    widths at once."""
    label_width = max([len("t (ms)")] + [len(r.label) for r in trace.rows])
    duration = trace.duration_ms
    header = [str(t) for t in range(duration)]
    widths = list(map(len, header))
    for row in trace.rows:
        start = min(row.valid_from, duration)
        if not isinstance(row, SpikeRow):
            cells = row.cells[start:duration]
            widths[start:start + len(cells)] = map(max, widths[start:], map(len, cells))
    # column t ends at ends[t + 1] after the label; runs ends each run
    ends = list(accumulate([w + 1 for w in widths], initial=-1))
    runs = list(accumulate(len(list(run)) for _, run in groupby(widths)))
    blank = bytearray(b" " * (ends[-1] + 1))
    yield " ".join(["t (ms)".ljust(label_width),
                    *map(str.rjust, header, widths)]) + "\n"
    for row in trace.rows:
        start = min(row.valid_from, duration)
        label = row.label.ljust(label_width)
        if isinstance(row, SpikeRow):
            # " " or "1" per ms
            digits = _digits(row.train, duration)
            marks = ("0" * start + digits[start:]).encode().translate(_TABLE_MARKS)
            line = bytearray(blank)
            for a, b in zip([0] + runs, runs):
                line[ends[a + 1]:ends[b] + 1:widths[a] + 1] = marks[a:b]
            yield label + line.decode() + "\n"
        else:
            cells = ("",) * start + row.cells[start:duration]
            yield " ".join([label, *map(str.rjust, cells, widths)]) + "\n"


def render_raster(trace: Trace) -> Iterator[str]:
    """One line per row; a trace of no rows is one empty line."""
    label_width = max([0] + [len(r.label) for r in trace.rows])
    if not trace.rows:
        yield "\n"
    for row in trace.rows:
        if isinstance(row, SpikeRow):
            start = min(row.valid_from, row.duration_ms)
            digits = _digits(row.train, row.duration_ms)
            text = " " * start + digits[start:].translate(_RASTER_MARKS)
        else:  # the changes of the row
            cells = row.cells[row.valid_from:]
            text = ", ".join(
                f"t={t}: {cell or '(blank)'}" for t, (cell, previous) in
                enumerate(zip(cells, ("", *cells)), row.valid_from)
                if cell != previous) or "(blank throughout)"
        yield f"{row.label.ljust(label_width)} {text}\n"


def render_trace(trace: Trace) -> str:
    return "".join(render_table(trace))
