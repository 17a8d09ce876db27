"""Reference models the spiking blocks are verified against.

Plain integer and boolean arithmetic, no simulator involved. Time is an
index into per-millisecond input streams; a block under test matches an
oracle when its outputs at t + latency equal the oracle applied to the
inputs at t.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .sim import _require_int


def decoder_channel(word: int) -> int:
    """The one channel a decoder activates: the input word itself.
    Word 0 (no input spikes) activates the non-operation channel."""
    if word < 0:
        raise ValueError("word must be >= 0")
    return word


def encoder_value(active: Iterable[int]) -> int:
    """Binary index produced by a set of active encoder inputs.

    One active input i yields i. Several combine as the bitwise OR of
    their indices, which is also why input 0 contributes nothing.
    """
    value = 0
    for index in active:
        if index < 0:
            raise ValueError("input indices must be >= 0")
        value |= index
    return value


def mux_output(select: int, data: Sequence[bool]) -> bool:
    """The selected data line, dropped everything else."""
    if not 0 <= select < len(data):
        raise ValueError("select word out of range")
    return bool(data[select])


def demux_channels(select: int, data: bool, num_channels: int) -> tuple[bool, ...]:
    """Data routed to the selected channel; all others stay silent."""
    if not 0 <= select < num_channels:
        raise ValueError("select word out of range")
    return tuple(data and j == select for j in range(num_channels))


def latch_states(store: Sequence[bool], data: Sequence[bool]) -> list[bool]:
    """D latch state per step: tracks data while store is up, holds
    otherwise. Starts cleared."""
    if len(store) != len(data):
        raise ValueError("store and data streams must have equal length")
    states: list[bool] = []
    state = False
    for s, d in zip(store, data):
        if s:
            state = bool(d)
        states.append(state)
    return states


def memory_states(addresses: Sequence[int], words: Sequence[int],
                  registers: int, bits: int) -> list[tuple[int, ...]]:
    """Register file contents after each write step.

    Step t writes words[t] (masked to the word width) into register
    addresses[t]. Address 0 is the non-operation and writes nothing;
    so does an address beyond the last register. Registers start at 0.
    """
    if len(addresses) != len(words):
        raise ValueError("address and word streams must have equal length")
    _require_int("registers", registers, 1)
    _require_int("bits", bits, 1)
    mask = (1 << bits) - 1
    contents = [0] * (registers + 1)
    timeline: list[tuple[int, ...]] = []
    for address, word in zip(addresses, words):
        if address < 0:
            raise ValueError("addresses must be >= 0")
        if 1 <= address <= registers:
            contents[address] = word & mask
        timeline.append(tuple(contents[1:]))
    return timeline


def memory_final(addresses: Sequence[int], words: Sequence[int],
                 registers: int, bits: int) -> tuple[int, ...]:
    """Final register contents after a write sequence."""
    timeline = memory_states(addresses, words, registers, bits)
    return timeline[-1] if timeline else tuple([0] * registers)
