"""Deterministic 64-bit random streams (SplitMix64).

The generator is SplitMix64: state advances by the golden-ratio increment
0x9E3779B97F4A7C15 and each output is finalized with the murmur-style mix

    z ^= z >> 30;  z *= 0xBF58476D1CE4E5B9
    z ^= z >> 27;  z *= 0x94D049BB133111EB
    z ^= z >> 31

Per-sample substreams are derived from a master seed and a sample index by
``derive_stream(master, index)``, which seeds a fresh generator with
``mix64(master XOR mix64((index + 1) * GAMMA))``.  Identical (seed, index)
pairs always yield identical streams, so ensembles are reproducible and can
be partitioned across workers.  That scheme is the definition of every draw.

``substream_draws(master, count)`` is an exact fast path for ensembles: it
yields the numerators k of the draws ``derive_stream(master, i).random() ==
k / 2**53`` for every ``i < count``, a block at a time, computed with a lane
kernel on one Python int (see its docstring), not one generator per draw.
"""
from __future__ import annotations

import functools
import itertools
import struct
import sys
from array import array
from typing import Iterator

_MASK = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15
_BLOCK = 4096  # draws per lane-kernel block
_SLOT = 16  # bytes per lane: the 64-bit lane and 64 bits of headroom


def mix64(z: int) -> int:
    """SplitMix64 finalizer; a bijection on 64-bit integers."""
    z &= _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


class SplitMix64:
    """Minimal deterministic generator with a documented algorithm."""

    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next_uint64(self) -> int:
        self._state = (self._state + GAMMA) & _MASK
        return mix64(self._state)

    def random(self) -> float:
        """Uniform float in [0, 1) with 53 random bits."""
        return (self.next_uint64() >> 11) * 2.0 ** -53

    def choice_index(self, weights: list[float]) -> int:
        """Index sampled proportionally to nonnegative weights."""
        # A left fold from 0.0, not the builtin sum: the same bits on every Python.
        cumulative = list(itertools.accumulate(weights, initial=0.0))
        if cumulative[-1] <= 0.0:
            raise ValueError("weights must have positive sum")
        u = self.random() * cumulative[-1]
        return next((i for i, acc in enumerate(cumulative[1:]) if u < acc), len(weights) - 1)


def derive_stream(master_seed: int, index: int) -> SplitMix64:
    """Independent substream for one sample of an ensemble."""
    if index < 0:
        raise ValueError("sample index must be nonnegative")
    return SplitMix64(mix64((master_seed & _MASK) ^ mix64(((index + 1) * GAMMA) & _MASK)))


@functools.cache
def _lane_constants() -> tuple[int, int, int]:
    """A full block's ``ones``, 1 in the slot of every lane; its ramp, j in the
    slot of lane j; and its 64-bit lane mask.  A block of n lanes masks them
    to its low 128n bits, so they do not depend on the block size.  Built on
    first use, so a process that draws no ensemble does not hold them."""
    ones = int.from_bytes(b"\x01".ljust(_SLOT, b"\0") * _BLOCK, "little")
    ramp = int.from_bytes(struct.pack("<" + "Q8x" * _BLOCK, *range(_BLOCK)), "little")
    return ones, ramp, ones * _MASK


def _mix_lanes(z: int, mask: int) -> int:
    """``mix64`` of every 64-bit lane of ``z``."""
    z = (((z ^ (z >> 30)) & mask) * 0xBF58476D1CE4E5B9) & mask
    z = (((z ^ (z >> 27)) & mask) * 0x94D049BB133111EB) & mask
    return (z ^ (z >> 31)) & mask


def substream_draws(master_seed: int, count: int) -> Iterator[array]:
    """The numerators ``k`` of the draws ``derive_stream(master_seed, i).random()
    == k / 2**53`` for ``i`` in ``range(count)``, one array per block.

    Each block of up to ``_BLOCK`` draws runs as a lane kernel on one Python
    int: draw ``j`` of the block is a 64-bit lane in bits ``[128j, 128j + 64)``.
    The lanes start as ``(start + 1 + j) * GAMMA``, masked, and pass through
    the three ``mix64`` rounds of ``derive_stream`` and ``random`` as a few
    big-int operations over the whole block; ``ones * c`` puts ``c`` in every
    lane.  A right shift by 11 leaves each draw's 53-bit numerator in the low
    64 bits of its slot, which are read out as every other 64-bit word.

    Lanes never mix.  A lane masked to 64 bits times a 64-bit constant stays
    below 2^128, and a lane plus ``GAMMA`` stays below 2^65, so neither
    carries into the next slot.  A right shift by at most 64 moves a lane's
    low bits only into the top half of the slot below, which was zero, and
    which the next mask clears before any product or sum, or the read-out
    skips.  So every lane computes exactly the 64-bit arithmetic of ``mix64``.
    """
    seed = master_seed & _MASK
    block_ones, block_ramp, block_mask = _lane_constants()
    for start in range(0, count, _BLOCK):
        n = min(_BLOCK, count - start)
        low = (1 << (128 * n)) - 1
        ones, mask = block_ones & low, block_mask & low
        z = (start + 1) * ones + (block_ramp & low)
        z = _mix_lanes((z * GAMMA) & mask, mask)
        z = _mix_lanes(z ^ (ones * seed), mask)
        z = _mix_lanes((z + ones * GAMMA) & mask, mask)
        words = array("Q", (z >> 11).to_bytes(_SLOT * n, "little"))
        if sys.byteorder == "big":
            words.byteswap()
        yield words[::2]
