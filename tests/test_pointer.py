"""Unit tests for the impulsive pointer measurement model."""
from __future__ import annotations

import math

import numpy as np
import pytest

from prepost.hilbert import Bra, Ket, adjoint, basis_bra, basis_ket, states_close
from prepost.network import OutOfRangeError
from prepost.pointer import (
    MeasurementSetup,
    decode_reading,
    measure_backward,
    measure_forward,
)

S = 1.0 / math.sqrt(2.0)


def dyadic(rng: np.random.Generator, lo: int = -512, hi: int = 512) -> float:
    # Values on the 2^-10 grid: pointer shift arithmetic stays exact.
    return float(rng.integers(lo, hi)) / 1024.0


# ---------------------------------------------------------------------------
# deterministic eigenstate runs

def test_forward_eigenstate_shifts_pointer_up():
    setup = MeasurementSetup(("s0", "s1"), (0.5, -0.5))
    rec = measure_forward(setup, basis_ket("s0"), q1=0.0, seed=3)
    assert rec.q_final == 0.5
    assert rec.deduced == 0.5
    assert states_close(rec.collapsed, basis_ket("s0"))


def test_backward_eigenstate_shifts_pointer_down():
    setup = MeasurementSetup(("s0", "s1"), (0.5, -0.5))
    rec = measure_backward(setup, basis_bra("s1"), q2=0.0, seed=3)
    assert rec.q_final == 0.5  # q1 = q2 - (-0.5)
    assert rec.deduced == -0.5
    assert states_close(rec.collapsed, basis_bra("s1"))


def test_record_shift_contract_forward():
    setup = MeasurementSetup(("s0", "s1", "s2"), (0.25, -0.75, 1.5))
    system = Ket({"s0": 0.6, "s1": 0.8j})
    for seed in range(40):
        rec = measure_forward(setup, system, q1=0.125, seed=seed)
        assert rec.deduced in setup.eigenvalues
        assert rec.q_final - rec.q_initial == rec.deduced
        assert rec.collapsed.support[0] in ("s0", "s1")


def test_record_shift_contract_backward():
    setup = MeasurementSetup(("s0", "s1", "s2"), (0.25, -0.75, 1.5))
    system = Bra({"s1": S, "s2": 1j * S})
    for seed in range(40):
        rec = measure_backward(setup, system, q2=0.375, seed=seed)
        assert rec.deduced in setup.eigenvalues
        assert rec.q_initial - rec.q_final == rec.deduced


def test_cross_direction_decoding_agrees():
    rng = np.random.default_rng(31)
    for _ in range(50):
        vals = sorted({dyadic(rng) for _ in range(3)})
        if len(vals) < 2 or min(b - a for a, b in zip(vals, vals[1:])) < 1e-3:
            continue
        setup = MeasurementSetup(tuple(f"s{i}" for i in range(len(vals))), tuple(vals))
        labels = list(setup.eigenbasis)
        amps = rng.normal(size=len(labels)) + 1j * rng.normal(size=len(labels))
        amps /= np.linalg.norm(amps)
        system = Ket(dict(zip(labels, map(complex, amps))))
        q1 = dyadic(rng)
        fwd = measure_forward(setup, system, q1=q1, seed=int(rng.integers(1 << 30)))
        # Decode the same reading pair with the reverse-time formula.
        assert decode_reading(setup, fwd.q_initial, fwd.q_final) == fwd.deduced
        bwd = measure_backward(setup, adjoint(system), q2=fwd.q_final,
                               seed=int(rng.integers(1 << 30)))
        assert decode_reading(setup, bwd.q_final, bwd.q_initial) == bwd.deduced


def test_determinism():
    setup = MeasurementSetup(("s0", "s1"), (0.5, -0.5))
    system = Ket({"s0": S, "s1": 1j * S})
    a = measure_forward(setup, system, q1=0.25, seed=99)
    b = measure_forward(setup, system, q1=0.25, seed=99)
    assert a == b


# ---------------------------------------------------------------------------
# statistics

def test_forward_frequencies_match_born_weights():
    setup = MeasurementSetup(("s0", "s1"), (0.5, -0.5))
    system = Ket({"s0": S, "s1": S})
    runs = 10_000
    hits = sum(
        1 for i in range(runs)
        if measure_forward(setup, system, q1=0.0, seed=i).deduced == 0.5
    )
    sigma = math.sqrt(0.25 / runs)
    assert abs(hits / runs - 0.5) <= 3 * sigma


def test_backward_frequencies_match_born_weights():
    setup = MeasurementSetup(("s0", "s1"), (0.5, -0.5))
    system = Bra({"s0": S, "s1": 1j * S})
    runs = 10_000
    hits = sum(
        1 for i in range(runs)
        if measure_backward(setup, system, q2=0.0, seed=i).deduced == 0.5
    )
    sigma = math.sqrt(0.25 / runs)
    assert abs(hits / runs - 0.5) <= 3 * sigma


# ---------------------------------------------------------------------------
# validation

def test_rejects_support_outside_eigenbasis():
    setup = MeasurementSetup(("s0", "s1"), (0.5, -0.5))
    with pytest.raises(ValueError, match="outside"):
        measure_forward(setup, Ket({"zz": 1.0}), q1=0.0, seed=0)


def test_rejects_zero_and_unnormalized_states():
    setup = MeasurementSetup(("s0", "s1"), (0.5, -0.5))
    with pytest.raises(ValueError, match="zero-norm"):
        measure_forward(setup, Ket({}), q1=0.0, seed=0)
    with pytest.raises(ValueError, match="not normalized"):
        measure_forward(setup, Ket({"s0": 0.5}), q1=0.0, seed=0)


def test_rejects_degenerate_eigenvalues():
    with pytest.raises(ValueError, match="too close"):
        MeasurementSetup(("s0", "s1"), (0.5, 0.5))
    with pytest.raises(ValueError, match="equal length"):
        MeasurementSetup(("s0", "s1"), (0.5,))


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_rejects_non_finite_eigenvalues(value):
    with pytest.raises(ValueError, match="finite"):
        MeasurementSetup(("s0", "s1"), (0.5, value))


@pytest.mark.parametrize("q", [math.nan, math.inf, -math.inf, 1e308])
def test_rejects_non_finite_pointer_readings(q):
    setup = MeasurementSetup(("s0", "s1"), (1e308, -1e308))
    with pytest.raises(OutOfRangeError, match="finite"):
        measure_forward(setup, basis_ket("s0"), q1=q, seed=0)
    with pytest.raises(OutOfRangeError, match="finite"):
        measure_backward(setup, basis_bra("s1"), q2=q, seed=0)


def test_decode_rejects_unmatched_shift():
    setup = MeasurementSetup(("s0", "s1"), (0.5, -0.5))
    with pytest.raises(ValueError, match="matches no eigenvalue"):
        decode_reading(setup, 0.0, 0.3)


def test_record_serialization_shape():
    setup = MeasurementSetup(("s0", "s1"), (0.5, -0.5))
    rec = measure_forward(setup, basis_ket("s0"), q1=0.25, seed=7)
    blob = rec.to_json()
    assert blob["q_initial"] == 0.25
    assert blob["q_final"] == 0.75
    assert blob["deduced"] == 0.5
    assert blob["seed"] == 7
    assert blob["collapsed"] == {"s0": [1, 0]}
