"""Millisecond-grid trace assembly and text rendering.

A trace is a bundle of named rows over a shared time axis. Spike rows
show a 1 in every millisecond the signal fired; derived rows carry
arbitrary cell text, e.g. a register's contents as hex computed by
binary-weighting its bit rows. Each row masks everything before its
valid_from timestep, which is how start-up transients of CSS-driven
outputs are kept out of rendered output and golden files.

Two styles: "table" is a fixed-width grid, one column per millisecond;
"raster" is one line per row with a character per millisecond (| spike,
. quiet, space masked), and value rows listed as their changes.

Rendering is a pure function of the trace, so repeated runs of a
deterministic experiment produce byte-identical text.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, groupby, repeat
from operator import lshift, or_
from typing import Sequence

from .sim import _flags

_SPIKE_CELLS = frozenset(("", "1"))


@dataclass(frozen=True)
class TraceRow:
    label: str
    cells: tuple[str, ...]
    valid_from: int = 0


@dataclass(frozen=True)
class Trace:
    duration_ms: int
    rows: tuple[TraceRow, ...] = ()

    def row(self, label: str) -> TraceRow:
        for row in self.rows:
            if row.label == label:
                return row
        raise KeyError(label)


def spike_row(label: str, train: int, duration_ms: int,
              valid_from: int = 0) -> TraceRow:
    """A 1 in every ms where the train (bit t: a spike at t) is set: its
    digits as "1," or ",", split at the commas."""
    digits = format(train, "b")[::-1]
    cells = digits.replace("1", "1,").replace("0", ",").split(",")[:duration_ms]
    return TraceRow(label, tuple(cells) + ("",) * (duration_ms - len(cells)),
                    valid_from)


def value_row(label: str, values: Sequence[object],
              valid_from: int = 0) -> TraceRow:
    cells = tuple("" if v is None else str(v) for v in values)
    return TraceRow(label, cells, valid_from)


def hex_word_row(label: str, bit_trains: Sequence[int],
                 duration_ms: int, valid_from: int = 0) -> TraceRow:
    """Register contents per ms from its bit trains, least significant
    first, in hex, blank while 0. Each 8 trains make a byte per ms (their
    flags, shifted), or-ed into the words; each word is formatted once."""
    words = [0] * duration_ms
    for b in range(0, len(bit_trains), 8):
        byte = 0
        for j, train in enumerate(bit_trains[b:b + 8]):
            byte |= int.from_bytes(_flags(train)[:duration_ms], "little") << j
        words = list(map(or_, words, map(
            lshift, byte.to_bytes(duration_ms, "little"), repeat(b))))
    cells = {word: f"0x{word:02X}" if word else "" for word in set(words)}
    return TraceRow(label, tuple(map(cells.__getitem__, words)), valid_from)


def _is_spike_row(row: TraceRow) -> bool:
    return _SPIKE_CELLS.issuperset(row.cells)


def render_table(trace: Trace) -> str:
    """A fixed-width grid. Value rows pad cell by cell; a spike row's
    marks go into a copy of one blank line, a run of equal widths at once."""
    label_width = max([len("t (ms)")] + [len(r.label) for r in trace.rows])
    duration = trace.duration_ms
    header = [str(t) for t in range(duration)]
    widths = list(map(len, header))
    spiking = list(map(_is_spike_row, trace.rows))
    for row, spikes in zip(trace.rows, spiking):
        start = min(row.valid_from, duration)
        if not spikes:
            cells = row.cells[start:duration]
            widths[start:start + len(cells)] = map(max, widths[start:], map(len, cells))
    # column t ends at ends[t + 1] after the label; runs ends each run
    ends = list(accumulate([w + 1 for w in widths], initial=-1))
    runs = list(accumulate(len(list(run)) for _, run in groupby(widths)))
    blank = bytearray(b" " * (ends[-1] + 1))
    lines = [" ".join(["t (ms)".ljust(label_width),
                       *map(str.rjust, header, widths)])]
    for row, spikes in zip(trace.rows, spiking):
        start = min(row.valid_from, duration)
        label = row.label.ljust(label_width)
        if spikes:
            # " " or "1" per ms: "," or "1," per cell, less the commas
            marks = (" " * start + (",".join(row.cells[start:duration]) + ",")
                     .replace("1,", "1").replace(",", " ")).encode()
            line = bytearray(blank)
            for a, b in zip([0] + runs, runs):
                line[ends[a + 1]:ends[b] + 1:widths[a] + 1] = marks[a:b]
            lines.append(label + line.decode())
        else:
            cells = ("",) * start + row.cells[start:duration]
            lines.append(" ".join([label, *map(str.rjust, cells, widths)]))
    return "\n".join(lines) + "\n"


def render_raster(trace: Trace) -> str:
    label_width = max([0] + [len(r.label) for r in trace.rows])
    lines = []
    for row in trace.rows:
        cells = row.cells[row.valid_from:]
        if _is_spike_row(row):
            text = " " * (len(row.cells) - len(cells)) + "".join(
                "|" if cell else "." for cell in cells)
        else:  # the changes of the row
            text = ", ".join(
                f"t={t}: {cell or '(blank)'}" for t, (cell, previous) in
                enumerate(zip(cells, ("", *cells)), row.valid_from)
                if cell != previous) or "(blank throughout)"
        lines.append(f"{row.label.ljust(label_width)} {text}")
    return "\n".join(lines) + "\n"


def render_trace(trace: Trace, style: str = "table") -> str:
    if style == "table":
        return render_table(trace)
    if style == "raster":
        return render_raster(trace)
    raise ValueError(f"unknown trace style {style!r}")
