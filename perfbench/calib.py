"""Calibration kernel: timings scaled to a fixed reference machine speed.

The benchmark runs on shared hosts whose speed drifts by tens of percent
from one minute to the next, and within a run from one request to the next.
A short pure-Python kernel (dict updates under string keys, complex
arithmetic, small calls and a sort, like prepost's own inner loops) is
timed next to every measured interval.  The interval is then reported as
``raw * REFERENCE_S / kernel``: the time it would have taken on a machine
that runs the kernel in exactly :data:`REFERENCE_S`.  On a 2-vCPU Intel
Xeon VM whose kernel time switched between about 250 and 500 us, the log
of request time moved with the log of the neighbouring kernel time with
slope 0.9 to 1.2 on all three workloads (kernel time before the request as
the instrument for the one after it, which removes the attenuation that
sampling noise in the kernel gives a plain regression).  The scaled times
move with the program and not with the host.
"""
from __future__ import annotations

import gc
import time

REFERENCE_S = 2.5e-4  # kernel time of the reference machine
_KEYS = tuple(f"m{i}" for i in range(16))


def _mix(z: complex, a: complex) -> complex:
    return z * (0.5 + 0.5j) + a


def kernel() -> tuple:
    amps: dict[str, complex] = {}
    z = 0j
    for i in range(640):
        key = _KEYS[i % 16]
        amps[key] = amps.get(key, 0j) + complex(i, 1.0) * 0.5
        z = _mix(z, amps[key])
    return sorted(amps.items())[0], z


def warm(runs: int = 50) -> None:
    """Run the kernel until the interpreter has specialized its code."""
    for _ in range(runs):
        kernel()


def sample() -> float:
    """Seconds taken by one run of the kernel.

    The cyclic garbage collector is paused meanwhile: the kernel makes no
    cycles, and a collection would time the size of the caller's heap.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        kernel()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def scale(raw: float, kernel_s: float) -> float:
    """``raw`` seconds at the reference speed, given the kernel's time then."""
    return raw * REFERENCE_S / kernel_s
