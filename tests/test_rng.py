"""The substream scheme and its lane kernel.

``derive_stream`` is the definition of every draw; the numerators that
``substream_draws`` yields must give ``derive_stream(seed, i).random()`` bit
for bit, also across the kernel's block edges and for seeds outside 64 bits.
"""
from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from prepost.rng import _BLOCK as B, GAMMA, SplitMix64, derive_stream, mix64, substream_draws

SEEDS = (0, 1, 2 ** 64 - 1, -1, 2 ** 70 + 3)
COUNTS = (0, 1, B - 1, B, B + 1, 2 * B + 3)


def per_draw(seed: int, count: int) -> list[float]:
    return [derive_stream(seed, i).random() for i in range(count)]


def draws(seed: int, count: int) -> list[float]:
    return [k * 2.0 ** -53 for block in substream_draws(seed, count) for k in block]


@pytest.mark.parametrize("count", COUNTS)
@pytest.mark.parametrize("seed", SEEDS)
def test_substream_draws_equal_derived_streams(seed, count):
    assert draws(seed, count) == per_draw(seed, count)


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(st.integers(-2 ** 70, 2 ** 70), st.integers(0, 2 * B + 5))
def test_substream_draws_property(seed, count):
    assert draws(seed, count) == per_draw(seed, count)


@pytest.mark.parametrize("seed", (0, 1, 2 ** 64 - 1))
def test_derive_stream_is_mix64_composed_by_hand(seed):
    mask = 2 ** 64 - 1
    for index in (0, 1, 2, B, 2 ** 40 + 7):
        state = mix64(seed ^ mix64((index + 1) * GAMMA % 2 ** 64))
        stream = derive_stream(seed, index)
        for _ in range(3):
            state = (state + GAMMA) & mask
            assert stream.random() == (mix64(state) >> 11) / 2 ** 53


def test_splitmix64_matches_published_outputs():
    # First outputs of the reference SplitMix64 for seeds 0 and 1234567.
    assert SplitMix64(0).next_uint64() == 0xE220A8397B1DCDAF
    stream = SplitMix64(1234567)
    assert [stream.next_uint64() for _ in range(2)] == [6457827717110365317, 3203168211198807973]


def _choice_by_scan(rng: SplitMix64, weights: list[float]) -> int:
    total = 0.0
    for w in weights:
        total += w
    if total <= 0.0:
        raise ValueError("weights must have positive sum")
    u = rng.random() * total
    acc = 0.0
    for i, w in enumerate(weights):
        acc += w
        if u < acc:
            return i
    return len(weights) - 1


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 64 - 1),
       st.lists(st.sampled_from([0.0, 1e-300, 0.1, 0.5, 1.0 / 3.0, 1.0, 7.0]), max_size=6))
def test_choice_index_is_a_scan_over_a_left_fold(seed, weights):
    if sum(weights) <= 0.0:
        with pytest.raises(ValueError, match="positive sum"):
            SplitMix64(seed).choice_index(weights)
        return
    assert SplitMix64(seed).choice_index(weights) == _choice_by_scan(SplitMix64(seed), weights)
