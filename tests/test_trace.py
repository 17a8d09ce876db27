"""Trace assembly and rendering."""

import pytest
from hypothesis import given, strategies as st

from spikelogic.trace import (
    SpikeRow,
    Trace,
    TraceRow,
    hex_word_row,
    render_raster,
    render_table,
    render_trace,
    spike_row,
    value_row,
)


def demo_trace():
    return Trace(5, (
        spike_row("A", 0b1010, 5),
        spike_row("late", 0b1110, 5, valid_from=2),
        value_row("V", ["", "x", "", "yy", ""]),
    ))


def spike_cells(row, duration):
    """A spike row's cells over duration ms, from its train: "1" where
    it spikes, "" elsewhere."""
    return tuple("1" if row.train >> t & 1 else "" for t in range(duration))


def test_spike_row_cells():
    row = spike_row("A", 0b1010, 5)
    assert spike_cells(row, 5) == ("", "1", "", "1", "")


def test_hex_row_weights_bits():
    row = hex_word_row("Reg", [0b1100, 0b1000], 5, valid_from=2)
    assert row.cells == ("", "", "0x01", "0x03", "")


def test_value_row_none_blank():
    assert value_row("V", [None, 7]).cells == ("", "7")


def test_spike_row_keeps_its_train_masked_to_the_duration():
    row = spike_row("A", 0b1101010, 5)
    assert row.train == 0b01010
    assert spike_cells(row, 5) == ("", "1", "", "1", "")
    assert spike_cells(spike_row("E", 0, 3), 3) == ("", "", "")


# each builder, and TraceRow itself, with a valid_from of -1
NEGATIVE_VALID_FROM = {
    "spike_row": lambda: spike_row("A", 0b1010, 5, valid_from=-1),
    "value_row": lambda: value_row("V", ["", "x"], valid_from=-1),
    "hex_word_row": lambda: hex_word_row("Reg", [0b1100], 5, valid_from=-1),
    "TraceRow": lambda: TraceRow("V", ("", "x"), -1),
}


@pytest.mark.parametrize("builder", NEGATIVE_VALID_FROM)
def test_negative_valid_from_is_rejected(builder):
    with pytest.raises(ValueError, match="valid_from"):
        NEGATIVE_VALID_FROM[builder]()


def test_table_golden():
    assert "".join(render_table(demo_trace())) == (
        "t (ms) 0 1 2  3 4\n"
        "A        1    1  \n"
        "late       1  1  \n"
        "V        x   yy  \n"
    )


def test_raster_golden():
    assert "".join(render_raster(demo_trace())) == (
        "A    .|.|.\n"
        "late   ||.\n"
        "V    t=1: x, t=2: (blank), t=3: yy, t=4: (blank)\n"
    )


def test_warmup_masking_hides_early_spikes():
    text = "".join(render_table(Trace(4, (spike_row("x", 0b110, 4, valid_from=2),))))
    assert text.splitlines()[1] == "x          1  "


def test_empty_trace_is_header_only():
    assert list(render_table(Trace(4, ()))) == ["t (ms) 0 1 2 3\n"]


def test_row_lookup():
    trace = demo_trace()
    assert trace.row("A").label == "A"
    with pytest.raises(KeyError):
        trace.row("missing")


def test_render_trace_dispatch():
    trace = demo_trace()
    assert render_trace(trace) == "".join(render_table(trace))


# The per-cell implementations the row builders and renderers replaced,
# kept as the reference their output must equal byte for byte.


def ref_spike_row(label, times, duration_ms, valid_from=0):
    marks = set(times)
    cells = tuple("1" if t in marks else "" for t in range(duration_ms))
    return TraceRow(label, cells, valid_from)


def ref_hex_word_row(label, bit_times, duration_ms, valid_from=0):
    sets = [set(times) for times in bit_times]
    cells = []
    for t in range(duration_ms):
        word = sum(1 << j for j, s in enumerate(sets) if t in s)
        cells.append(f"0x{word:02X}" if word else "")
    return TraceRow(label, tuple(cells), valid_from)


def ref_cells(row, duration):
    return spike_cells(row, duration) if ref_is_spike_row(row) else row.cells


def ref_masked_cells(row, duration):
    return tuple("" if t < row.valid_from else cell
                 for t, cell in enumerate(ref_cells(row, duration)))


def ref_is_spike_row(row):
    # by row type: a value row of "" and "1" cells is still a value row
    return isinstance(row, SpikeRow)


def ref_render_table(trace):
    label_width = max([len("t (ms)")] + [len(r.label) for r in trace.rows])
    grid = [ref_masked_cells(row, trace.duration_ms) for row in trace.rows]
    widths = [
        max([len(str(t))] + [len(cells[t]) for cells in grid])
        for t in range(trace.duration_ms)
    ]
    lines = [" ".join(
        ["t (ms)".ljust(label_width)]
        + [str(t).rjust(widths[t]) for t in range(trace.duration_ms)])]
    for row, cells in zip(trace.rows, grid):
        lines.append(" ".join(
            [row.label.ljust(label_width)]
            + [cells[t].rjust(widths[t]) for t in range(trace.duration_ms)]))
    return "\n".join(lines) + "\n"


def ref_describe_changes(row):
    cells = ref_masked_cells(row, len(row.cells))
    parts = []
    previous = ""
    for t in range(row.valid_from, len(cells)):
        if cells[t] != previous:
            parts.append(f"t={t}: {cells[t] or '(blank)'}")
            previous = cells[t]
    return ", ".join(parts) if parts else "(blank throughout)"


def ref_render_raster(trace):
    label_width = max([0] + [len(r.label) for r in trace.rows])
    lines = []
    for row in trace.rows:
        if ref_is_spike_row(row):
            chars = "".join(
                " " if t < row.valid_from else ("|" if cell else ".")
                for t, cell in enumerate(ref_cells(row, trace.duration_ms)))
            lines.append(f"{row.label.ljust(label_width)} {chars}")
        else:
            lines.append(f"{row.label.ljust(label_width)} "
                         f"{ref_describe_changes(row)}")
    return "\n".join(lines) + "\n"


def times_of(train):
    return [t for t in range(train.bit_length()) if train >> t & 1]


LABELS = st.text("abcq_ 0123", min_size=1, max_size=12)


@st.composite
def traces(draw):
    """A trace of spike rows from random trains (which keep them), value
    rows of "" and "1" cells (which a raster lists as changes, as it does
    any value row), and value rows of cells 1-5 characters wide (or
    blank), each with its own valid_from."""
    duration = draw(st.integers(1, 40))
    rows = []
    for _ in range(draw(st.integers(0, 6))):
        label = draw(LABELS)
        valid_from = draw(st.integers(0, duration + 2))
        kind = draw(st.sampled_from(["train", "spike cells", "value cells"]))
        if kind == "train":
            train = draw(st.integers(0, 2 ** (duration + 2) - 1))
            row = spike_row(label, train, duration, valid_from)
        elif kind == "spike cells":
            cells = draw(st.lists(st.sampled_from(["", "1"]),
                                  min_size=duration, max_size=duration))
            row = value_row(label, cells, valid_from)
        else:
            cells = draw(st.lists(st.one_of(st.just(""), st.text(
                "0123456789abcdefx*", min_size=1, max_size=5)),
                min_size=duration, max_size=duration))
            row = value_row(label, cells, valid_from)
        rows.append(row)
    return Trace(duration, tuple(rows))


@given(st.integers(1, 70).flatmap(lambda duration: st.tuples(
    st.just(duration), st.integers(0, 2 ** (duration + 3) - 1),
    st.integers(0, duration + 2))))
def test_spike_row_matches_reference(case):
    # the train may spike past the duration, which the row leaves out
    # a spike row keeps its train, so it equals the reference's cells-only
    # row field by field, not as a dataclass
    duration, train, valid_from = case
    row = spike_row("s", train, duration, valid_from)
    ref = ref_spike_row("s", times_of(train), duration, valid_from)
    assert (row.label, row.valid_from, spike_cells(row, duration)) == \
        (ref.label, ref.valid_from, ref.cells)
    assert row.train == train & (2 ** duration - 1)


# 12 to 70 bits make words of several bytes
@pytest.mark.parametrize("bits", [1, 8, 12, 16, 40, 70])
@given(data=st.data())
def test_hex_word_row_matches_reference(bits, data):
    duration = data.draw(st.integers(1, 60))
    trains = data.draw(st.lists(st.integers(0, 2 ** duration - 1),
                                min_size=bits, max_size=bits))
    valid_from = data.draw(st.integers(0, duration))
    assert hex_word_row("Reg", trains, duration, valid_from) == \
        ref_hex_word_row("Reg", [times_of(x) for x in trains], duration,
                         valid_from)


@given(traces())
def test_render_table_matches_reference(trace):
    lines = list(render_table(trace))
    assert len(lines) == 1 + len(trace.rows)  # the header, then each row
    assert "".join(lines) == ref_render_table(trace)


def test_render_table_widens_a_column_past_255_characters():
    # column widths are ints, not bytes; a row masked past the duration
    # and a spike row widen nothing
    trace = Trace(3, (value_row("v", ["", "x" * 300, "ab"]),
                      value_row("w", ["abcd"] * 3, valid_from=5),
                      spike_row("s", 0b101, 3)))
    assert "".join(render_table(trace)) == ref_render_table(trace)


@given(traces())
def test_render_raster_matches_reference(trace):
    lines = list(render_raster(trace))
    assert len(lines) == max(1, len(trace.rows))
    assert "".join(lines) == ref_render_raster(trace)
