"""Impulsive pointer measurements, run forward or backward in time.

The apparatus is a pointer with a definite position.  An impulsive,
unit-integral coupling between the pointer momentum and the measured
observable shifts the pointer by the system eigenvalue, so the measured
value is encoded in the *difference* of the two pointer readings, never in
a single reading:

    forward   read q1, interact, read q2        =>  value = q2 - q1
    backward  read q2, interact, read q1 after  =>  value = q2 - q1

Both time directions therefore decode the same eigenvalue from the same
pair of readings.  Free evolution of system and pointer is zero, and the
pointer is idealized as perfectly localized, so shifts are exact real
arithmetic; readings are compared with tolerance :data:`POSITION_TOL`.
Float readings make q2 - q1 miss the value by up to one ulp of
|q| + max|eigenvalue|, so a run where that ulp exceeds the tolerance
raises :class:`OutOfRangeError` before drawing.

Record ``index`` of a run with seed ``seed`` draws from the SplitMix64
substream ``derive_stream(seed, index)``; identical inputs give identical records.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

from .hilbert import Bra, Ket, basis_bra, basis_ket, state_json, _left_sum
from .network import OutOfRangeError
from .rng import derive_stream

POSITION_TOL = 1e-9


@dataclass(frozen=True)
class MeasurementSetup:
    """Observable data: eigenbasis labels and their (distinct) eigenvalues."""

    eigenbasis: tuple[str, ...]
    eigenvalues: tuple[float, ...]

    def __post_init__(self):
        if len(self.eigenbasis) != len(self.eigenvalues):
            raise ValueError("eigenbasis and eigenvalues must have equal length")
        if len(set(self.eigenbasis)) != len(self.eigenbasis):
            raise ValueError("eigenbasis labels must be distinct")
        if "" in self.eigenbasis:
            raise ValueError("eigenbasis labels must be non-empty")
        if unnameable := [m for m in self.eigenbasis if ";" in m or ":" in m]:
            raise ValueError(f"eigenbasis label {unnameable[0]!r} holds ';' or ':', "
                             "which no state literal can name")
        if not all(math.isfinite(v) for v in self.eigenvalues):
            raise ValueError(f"eigenvalues must be finite, got {self.eigenvalues!r}")
        vals = sorted(self.eigenvalues)
        for lo, hi in zip(vals, vals[1:]):
            if abs(hi - lo) <= 2 * POSITION_TOL:
                raise ValueError(
                    f"eigenvalues {lo!r} and {hi!r} too close to decode unambiguously"
                )


@dataclass(frozen=True)
class MeasurementRecord:
    """One measurement: readings, deduced eigenvalue, collapsed system state."""

    direction: str  # "forward" | "backward"
    q_initial: float
    q_final: float
    deduced: float
    collapsed: Union[Ket, Bra]
    seed: int

    def to_json(self) -> dict:
        return {
            "collapsed": state_json(self.collapsed),
            "deduced": self.deduced,
            "direction": self.direction,
            "q_final": self.q_final,
            "q_initial": self.q_initial,
            "seed": self.seed,
        }


def _weights(state: Union[Ket, Bra], setup: MeasurementSetup) -> list[float]:
    outside = set(state.entries) - set(setup.eigenbasis)
    if outside:
        raise ValueError(
            f"state supported on {sorted(outside)} outside the measured eigenbasis"
        )
    weights = [abs(state[m]) ** 2 for m in setup.eigenbasis]
    total = _left_sum(weights)
    if total < 1e-24:
        raise ValueError("cannot measure a zero-norm state")
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"state not normalized (norm^2={total!r})")
    return weights


def measure_forward(
    setup: MeasurementSetup, system: Ket, q1: float, seed: int, index: int = 0
) -> MeasurementRecord:
    """Prepare the pointer at q1, couple, read q2; collapse the system.

    The outcome is sampled with probability |amplitude|^2 from the system's
    expansion in the eigenbasis, using the substream derived from (seed, index).
    """
    return _measure(setup, system, q1, seed, index, "forward")


def measure_backward(
    setup: MeasurementSetup, system: Bra, q2: float, seed: int, index: int = 0
) -> MeasurementRecord:
    """Prepare the pointer at q2, couple in reverse, read q1 'afterwards'.

    The reverse chain shifts the pointer down by the eigenvalue, so
    q1 = q2 - value and the deduced eigenvalue is q2 - q1, exactly as in the
    forward direction.  Sampling is as in :func:`measure_forward`.
    """
    return _measure(setup, system, q2, seed, index, "backward")


def _measure(setup: MeasurementSetup, system: Union[Ket, Bra], q_start: float, seed: int,
             index: int, direction: str) -> MeasurementRecord:
    weights = _weights(system, setup)
    reach = abs(q_start) + max(map(abs, setup.eigenvalues))
    if math.isfinite(reach) and math.ulp(reach) > POSITION_TOL:  # an infinite one fails below
        raise OutOfRangeError(f"pointer readings near {reach!r} are {math.ulp(reach)!r} apart, too "
                              f"coarse to resolve the eigenvalues within {POSITION_TOL}")
    idx = derive_stream(seed, index).choice_index(weights)
    label = setup.eigenbasis[idx]
    value = setup.eigenvalues[idx]
    forward = direction == "forward"
    q_final = q_start + value if forward else q_start - value
    if not math.isfinite(q_final):  # also when q_start is not: the eigenvalue is finite
        raise OutOfRangeError(f"pointer readings must be finite, got {q_start!r} and {q_final!r}")
    return MeasurementRecord(
        direction=direction,
        q_initial=q_start,
        q_final=q_final,
        deduced=value,
        collapsed=basis_ket(label) if forward else basis_bra(label),
        seed=seed,
    )


def decode_reading(setup: MeasurementSetup, q1: float, q2: float) -> float:
    """Recover the measured eigenvalue from the two readings (q2 - q1).

    Matches within :data:`POSITION_TOL` and returns the setup's canonical
    eigenvalue, so decoding both directions of the same record agrees
    exactly.
    """
    shift = q2 - q1
    for value in setup.eigenvalues:
        if abs(shift - value) <= POSITION_TOL:
            return value
    raise ValueError(f"pointer shift {shift!r} matches no eigenvalue of the setup")
