"""Closed-form resource and latency accounting for the spiking blocks.

Every block has two published cost shapes: one parameterized by the
number of select inputs n, and one by the number of output channels m
(or by registers r and word width c for the memory). Both shapes agree
wherever both apply (m = 2^n, r = 2^n - 1). Totals come with a
per-category itemization under the same labels the builders use to tag
synapses, so a measured handle can be reconciled against the formulas
category by category.

Everything known about a block kind sits in one entry of _FORMS: its
latency per AND kind, its n-form and m-form, the size fields a handle
of given parameters answers in each form, and its port counts by size,
which price a run's trace before anything is built.

One convention of each kind sits next to its forms, in _Kind.counts_css:
decoder, multiplexer, demultiplexer and memory totals include the
constant spike source (two neurons, two internal synapses) and its
hookups; encoder and D latch totals include neither, so a D latch
composes into the memory totals without counting its CSS synapses. The
CSS bootstrap source never counts anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

from .sim import _require_int

AND_KINDS = ("classic", "fast")


def and_kind_name(value) -> str:
    """value, if it names an AND kind; anything else, None included,
    raises ValueError."""
    if value not in AND_KINDS:
        raise ValueError(f"unknown AND kind {value!r}; expected one of "
                         f"{AND_KINDS}")
    return value


def _clog2(x: int) -> int:
    """Ceil of log2 for x >= 1 (0 for x = 1), exact integer arithmetic."""
    return (x - 1).bit_length()


def encoder_synapse_sum(num_inputs: int) -> int:
    """Synapses of an encoder: one per set bit of each input index >= 1."""
    _require_int("num_inputs", num_inputs, 2)
    return sum(bin(i - 1).count("1") for i in range(2, num_inputs + 1))


@dataclass(frozen=True)
class ResourceReport:
    """Neuron and synapse totals plus a per-category synapse breakdown."""

    neurons: int
    synapses: int
    by_category: Mapping[str, int]


@dataclass(frozen=True)
class FormulaQuery:
    """Selects one closed form: block kind, AND kind and size parameters.

    form "n" uses the select-input parameterization (n; the encoder's n
    is its input count). form "m" uses output channels m, or (r, c) for
    the memory.
    """

    kind: str
    and_kind: str | None = None
    form: str = "n"
    n: int | None = None
    m: int | None = None
    r: int | None = None
    c: int | None = None


def _decoder_items(n: int, ak: str) -> dict[str, int]:
    if ak == "classic":
        return {
            "Input to NOT": n,
            "Input to AND (classic)": n * 2 ** n,
            "NOT to AND (classic)": n * 2 ** n,
            "Internal AND (classic)": 2 ** n,
            "Internal CSS": 2,
            "CSS to NOT": 2 * n,
        }
    return {
        "Input to NOT": n,
        "Input to AND (fast)": n * 2 ** (n - 1),
        "NOT to AND (fast)": n * 2 ** (n - 1),
        "CSS to AND (fast)": 2 ** (n + 1),
        "Internal CSS": 2,
        "CSS to NOT": 2 * n,
    }


def _dlatch_items(ak: str) -> dict[str, int]:
    items = {
        f"Store to AND ({ak})": 4 if ak == "classic" else 2,
        f"Data to AND ({ak})": 2 if ak == "classic" else 1,
        f"Inverted data to AND ({ak})": 2 if ak == "classic" else 1,
        "AND to SR Latch (set)": 1,
        "AND to SR Latch (reset)": 1,
        "Internal SR Latch": 1,
    }
    if ak == "classic":
        items["Internal AND (classic)"] = 2
    return items


def _add_items(total: dict[str, int], extra: Mapping[str, int], scale: int = 1) -> None:
    for label, count in extra.items():
        total[label] = total.get(label, 0) + scale * count


def _memory_items(n: int, c: int, ak: str) -> dict[str, int]:
    r = 2 ** n - 1
    items = _decoder_items(n, ak)
    _add_items(items, {"Data to NOT": c, "CSS to NOT": 2 * c})
    _add_items(items, _dlatch_items(ak), scale=r * c)
    if ak == "fast":
        _add_items(items, {"CSS to AND (fast)": 4 * r * c})
    return items


def _demux_items(n: int, ak: str) -> dict[str, int]:
    items = _decoder_items(n, ak)
    items[f"Data inputs to AND ({ak})"] = (2 if ak == "classic" else 1) * 2 ** n
    return items


def _mux_items(n: int, ak: str) -> dict[str, int]:
    return {**_demux_items(n, ak), "AND to OR": 2 ** n}


def _report(neurons: int, synapses: int, items: Mapping[str, int] | None) -> ResourceReport:
    if items is None:
        items = {"total": synapses}
    return ResourceReport(neurons, synapses, dict(sorted(items.items())))


def _encoder_n(ak: None, n: int) -> ResourceReport:
    syn = encoder_synapse_sum(n)
    return _report(_clog2(n), syn, {"Input to OR": syn})


def _dlatch(ak: str) -> ResourceReport:
    neurons = 5 if ak == "classic" else 3
    synapses = 13 if ak == "classic" else 7
    return _report(neurons, synapses, _dlatch_items(ak))


def _memory_n(ak: str, n: int, c: int) -> ResourceReport:
    if ak == "classic":
        neurons = 2 ** n * (5 * c + 2) + n - 4 * c + 2
        synapses = 2 ** n * (2 * n + 13 * c + 1) + 3 * n - 10 * c + 2
    else:
        neurons = 2 ** n * (3 * c + 1) + n - 2 * c + 2
        synapses = 2 ** n * (n + 11 * c + 2) + 3 * n - 8 * c + 2
    return _report(neurons, synapses, _memory_items(n, c, ak))


def _memory_m(ak: str, r: int, c: int) -> ResourceReport:
    depth = _clog2(r + 1)
    if ak == "classic":
        neurons = 2 * r + c + 5 * r * c + depth + 4
        synapses = r + 3 * c + 13 * r * c + (2 * r + 5) * depth + 3
    else:
        neurons = r + c + 3 * r * c + depth + 3
        synapses = 2 * r + 3 * c + 11 * r * c + (r + 4) * depth + 4
    items = _memory_items(depth, c, ak) if r == 2 ** depth - 1 else None
    return _report(neurons, synapses, items)


@dataclass(frozen=True)
class _Form:
    """A closed form: the size fields its query names, each with its
    least value; the formula of the AND kind and those sizes; and the
    fields a handle with the given parameters answers (None: none)."""

    least: Mapping[str, int]
    formula: Callable[..., ResourceReport]
    answers: Callable[[Mapping[str, int]], dict[str, int] | None]


@dataclass(frozen=True)
class _Kind:
    """Latency in ms by AND kind (by None alone without an AND stage),
    the n-form, the m-form (None where the kind has none), whether the
    forms count the CSS: its 2 neurons and 2 internal synapses, and the
    synapses from it; and the counts of input and output ports of a block
    of the given size, its handle's params in order."""

    latency: Mapping[str | None, int]
    n_form: _Form
    m_form: _Form | None
    counts_css: bool
    ports: Callable[..., tuple[int, int]]


def _select_kind(latency, items, n_totals, m_totals, ports) -> _Kind:
    """A block of n select lines and m = 2^n channels. n_totals and
    m_totals map an AND kind to its (neurons, synapses) formula of n,
    and of m and depth = ceil(log2(m)); ports gives its port counts by n."""
    def n_form(ak: str, n: int) -> ResourceReport:
        return _report(*n_totals[ak](n), items(n, ak))

    def m_form(ak: str, m: int) -> ResourceReport:
        depth = _clog2(m)
        exact = depth >= 1 and m == 2 ** depth
        return _report(*m_totals[ak](m, depth), items(depth, ak) if exact else None)

    return _Kind(latency,
                 _Form({"n": 1}, n_form, lambda params: {"n": params["n"]}),
                 _Form({"m": 1}, m_form, lambda params: {"m": 2 ** params["n"]}),
                 True, ports)


def _full_memory(params: Mapping[str, int]) -> dict[str, int] | None:
    # the n-form assumes full occupancy, r = 2^n - 1
    n = params["registers"].bit_length()
    return {"n": n, "c": params["bits"]} if params["registers"] == 2 ** n - 1 else None


# the D latch has no size, so its m-form is its n-form
_D_LATCH = _Form({}, _dlatch, lambda params: {})

_FORMS = {
    "decoder": _select_kind(
        {"classic": 3, "fast": 2}, _decoder_items,
        {"classic": lambda n: (2 ** (n + 1) + n + 2,
                               2 ** n * (2 * n + 1) + 3 * n + 2),
         "fast": lambda n: (2 ** n + n + 2,
                            2 ** n * (n + 2) + 3 * n + 2)},
        {"classic": lambda m, depth: (2 * m + depth + 2,
                                      m + (2 * m + 3) * depth + 2),
         "fast": lambda m, depth: (m + depth + 2,
                                   2 * m + (m + 3) * depth + 2)},
        lambda n: (n, 2 ** n)),
    "encoder": _Kind({None: 1}, _Form({"n": 2}, _encoder_n, lambda params: {
        "n": params["num_inputs"]}), None, False, lambda m: (m, _clog2(m))),
    "multiplexer": _select_kind(
        {"classic": 4, "fast": 3}, _mux_items,
        {"classic": lambda n: (2 ** (n + 1) + n + 3,
                               2 ** n * (2 * n + 4) + 3 * n + 2),
         "fast": lambda n: (2 ** n + n + 3,
                            2 ** n * (n + 4) + 3 * n + 2)},
        {"classic": lambda m, depth: (2 * m + depth + 3,
                                      4 * m + (2 * m + 3) * depth + 2),
         "fast": lambda m, depth: (m + depth + 3,
                                   4 * m + (m + 3) * depth + 2)},
        lambda n: (n + 2 ** n, 1)),
    "demultiplexer": _select_kind(
        {"classic": 3, "fast": 2}, _demux_items,
        {"classic": lambda n: (2 ** (n + 1) + n + 2,
                               2 ** n * (2 * n + 3) + 3 * n + 2),
         "fast": lambda n: (2 ** n + n + 2,
                            2 ** n * (n + 3) + 3 * n + 2)},
        {"classic": lambda m, depth: (2 * m + depth + 2,
                                      3 * m + (2 * m + 3) * depth + 2),
         "fast": lambda m, depth: (m + depth + 2,
                                   3 * m + (m + 3) * depth + 2)},
        lambda n: (n + 1, 2 ** n)),
    "d_latch": _Kind({"classic": 3, "fast": 2}, _D_LATCH, _D_LATCH, False,
                     lambda: (3, 1)),
    "memory": _Kind({"classic": 6, "fast": 4},
                    _Form({"n": 1, "c": 1}, _memory_n, _full_memory),
                    _Form({"r": 1, "c": 1}, _memory_m, lambda params: {
                        "r": params["registers"], "c": params["bits"]}), True,
                    lambda r, c: (r.bit_length() + c, r * c)),
}

BLOCK_KINDS = tuple(_FORMS)


def _kind(kind: str) -> _Kind:
    if kind not in BLOCK_KINDS:
        raise ValueError(f"unknown block kind {kind!r}")
    return _FORMS[kind]


def _form(query: FormulaQuery) -> _Form:
    if query.form not in ("n", "m"):
        raise ValueError(f"unknown form {query.form!r} (expected 'n' or 'm')")
    kind = _kind(query.kind)
    form = kind.n_form if query.form == "n" else kind.m_form
    if form is None:
        raise ValueError(f"{query.kind} synapses have no m-form closed expression")
    return form


def _read_and_kind(kind: _Kind, and_kind) -> str | None:
    """The AND kind a kind's latency and formulas read. A kind without
    an AND stage reads none, but still rejects an unknown name."""
    if None in kind.latency:
        if and_kind is not None:
            and_kind_name(and_kind)
        return None
    return and_kind_name(and_kind)


def expected_latency(kind: str, and_kind=None) -> int:
    """Block delay in ms from input presentation to output spike."""
    entry = _kind(kind)
    return entry.latency[_read_and_kind(entry, and_kind)]


def formula_resources(query: FormulaQuery) -> ResourceReport:
    """Evaluate the published closed form selected by the query."""
    form = _form(query)
    for name, least in form.least.items():
        _require_int(f"the {query.form}-form of the {query.kind}'s {name}",
                     getattr(query, name), least)
    ak = _read_and_kind(_FORMS[query.kind], query.and_kind)
    return form.formula(ak, *(getattr(query, name) for name in form.least))


def formula_queries(handle) -> list[FormulaQuery] | None:
    """The closed-form queries a built block answers, n-form first; None
    for a partially occupied memory, which the closed forms assume full."""
    kind = _kind(handle.kind)
    forms = {"n": kind.n_form}
    if kind.m_form not in (None, kind.n_form):  # the D latch's is its n-form
        forms["m"] = kind.m_form
    queries = []
    for name, form in forms.items():
        fields = form.answers(handle.params)
        if fields is None:
            return None
        queries.append(FormulaQuery(handle.kind, handle.and_kind, name, **fields))
    return queries


@dataclass(frozen=True)
class ReconcileReport:
    ok: bool
    diffs: tuple[str, ...]
    expected: ResourceReport


def _itemized(report: ResourceReport) -> bool:
    return set(report.by_category) != {"total"}


def _check_params(handle, query: FormulaQuery) -> None:
    if handle.kind != query.kind:
        raise ValueError(f"handle is a {handle.kind}, query asks for {query.kind}")
    query_ak = None if query.and_kind is None else and_kind_name(query.and_kind)
    # a kind without an AND stage ignores the query's AND kind
    if handle.and_kind is not None and handle.and_kind != query_ak:
        raise ValueError(f"AND kind mismatch: handle {handle.and_kind}, "
                         f"query {query_ak}")
    fields = _form(query).answers(handle.params)
    if fields is None or any(getattr(query, name) != value
                             for name, value in fields.items()):
        raise ValueError("size parameters of handle and query do not match")


def reconcile(handle, query: FormulaQuery) -> ReconcileReport:
    """Compare a block handle's measured resources against the closed
    form. The handle's parameters must match the query. Category-level
    differences are reported when both sides carry an itemization.
    Anything but a block handle, such as a bare report or a gate's
    handle, raises ValueError.
    """
    if not isinstance(getattr(handle, "resources", None), ResourceReport):
        raise ValueError("reconcile takes a block handle, which carries a "
                         f"resource report, not a {type(handle).__name__}")
    _check_params(handle, query)
    report = handle.resources
    expected = formula_resources(query)
    diffs: list[str] = []
    if report.neurons != expected.neurons:
        diffs.append(f"neurons: measured {report.neurons}, formula {expected.neurons}")
    if report.synapses != expected.synapses:
        diffs.append(f"synapses: measured {report.synapses}, formula {expected.synapses}")
    if _itemized(report) and _itemized(expected):
        for label in sorted(set(report.by_category) | set(expected.by_category)):
            got = report.by_category.get(label, 0)
            want = expected.by_category.get(label, 0)
            if got != want:
                diffs.append(f"category {label!r}: measured {got}, formula {want}")
    return ReconcileReport(not diffs, tuple(diffs), expected)
