"""Seeded input generators for the benchmark (stdlib only, no prepost import).

Every generator takes a ``random.Random`` and returns plain data: network
descriptions in the JSON schema ``prepost.build_network`` reads, state
literals in the CLI grammar ``mode:re,im;...`` and projector-outcome files
in the schema of ``prepost abl --basis FILE``.  The same seed always gives
the same data.
"""
from __future__ import annotations

import math
import random

# A copy of the package's preset (two chained balanced Mach-Zehnder
# interferometers), kept here so the oracle never reads it from prepost.
PRESET = {
    "modes": ["a", "b", "c", "d", "e", "f", "g", "h"],
    "sources": ["a"],
    "stages": [
        {"elements": [{"type": "beamsplitter", "in": ["a", "b"], "out": ["c", "d"]}]},
        {"elements": [{"type": "mirror", "in": "c", "out": "c"},
                      {"type": "mirror", "in": "d", "out": "d"}]},
        {"elements": [{"type": "beamsplitter", "in": ["d", "c"], "out": ["e", "f"]}]},
        {"elements": [{"type": "mirror", "in": "e", "out": "e"},
                      {"type": "mirror", "in": "f", "out": "f"}]},
        {"elements": [{"type": "beamsplitter", "in": ["f", "e"], "out": ["g", "h"]}]},
    ],
    "detectors": {"g": "G", "h": "H"},
}


def rng_for(*parts) -> random.Random:
    """A generator seeded from a tuple of labels (stable across processes)."""
    return random.Random(":".join(str(p) for p in parts))


def balanced_mesh(rng: random.Random, rails: int, depth: int, pairs: int) -> dict:
    """``rails`` rails advancing one step per stage, ``depth`` stages.

    Each stage joins ``pairs`` random rail pairs at beamsplitters (fresh
    output labels) and mirrors every other rail in place, so every
    beamsplitter sees balanced arms.  Sources are all cut-0 rails.
    """
    if not 0 < 2 * pairs <= rails:
        raise ValueError("need 0 < 2*pairs <= rails")
    current = [f"r{i}" for i in range(rails)]
    modes = list(current)
    fresh = 0
    stages = []
    for _ in range(depth):
        order = list(current)
        rng.shuffle(order)
        elements = []
        for j in range(pairs):
            u, v = order[2 * j], order[2 * j + 1]
            x, y = f"m{fresh}", f"m{fresh + 1}"
            fresh += 2
            modes += [x, y]
            elements.append({"type": "beamsplitter", "in": [u, v], "out": [x, y]})
            current[current.index(u)] = x
            current[current.index(v)] = y
        for m in order[2 * pairs:]:
            elements.append({"type": "mirror", "in": m, "out": m})
        stages.append({"elements": elements})
    return {"modes": modes, "stages": stages, "detectors": {}}


def mz_cascade(rng: random.Random, splitters: int, mirror_stages: int) -> dict:
    """A chain of ``splitters`` balanced beamsplitters on two rails.

    Source ``a`` (``b`` is the vacuum port).  Port order at each splitter
    is seeded, and ``mirror_stages`` mirror stages (both arms, relabelled
    or in place) sit after seeded splitters.  Odd chains end on a split,
    even chains on a merge into one detector.  Detectors G and H tag the
    two final rails.  Two-rail chains keep every merge coherent and equal
    weight, so pilot-wave trajectories are defined throughout.
    """
    if splitters < 1:
        raise ValueError("need at least one beamsplitter")
    rails = ["a", "b"]
    modes = list(rails)
    fresh = 0
    after = sorted(rng.sample(range(splitters), min(mirror_stages, splitters)))
    stages = []

    def label():
        nonlocal fresh
        fresh += 1
        modes.append(f"c{fresh}")
        return f"c{fresh}"

    for k in range(splitters):
        ins = list(rails)
        rng.shuffle(ins)
        outs = [label(), label()]
        stages.append({"elements": [{"type": "beamsplitter", "in": ins, "out": outs}]})
        rails = outs
        if k in after:
            elements = []
            new = []
            for m in rails:
                out = label() if rng.random() < 0.5 else m
                elements.append({"type": "mirror", "in": m, "out": out})
                new.append(out)
            stages.append({"elements": elements})
            rails = new
    names = ["G", "H"]
    rng.shuffle(names)
    return {
        "modes": modes,
        "sources": ["a"],
        "stages": stages,
        "detectors": {rails[0]: names[0], rails[1]: names[1]},
    }


def random_amps(rng: random.Random, labels) -> dict[str, complex]:
    """A normalized state with Gaussian complex amplitudes on ``labels``."""
    raw = {m: complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)) for m in labels}
    norm = math.sqrt(sum(abs(a) ** 2 for a in raw.values()))
    return {m: a / norm for m, a in raw.items()}


def literal(amps: dict[str, complex]) -> str:
    """CLI literal ``mode:re,im;...`` with every digit of each float."""
    return ";".join(f"{m}:{a.real!r},{a.imag!r}" for m, a in sorted(amps.items()))


def amps_to_json(amps: dict[str, complex]) -> list:
    return [[m, a.real, a.imag] for m, a in sorted(amps.items())]


def amps_from_json(rows) -> dict[str, complex]:
    return {m: complex(re, im) for m, re, im in rows}


def rotated_outcomes(rng: random.Random, live, max_pairs: int = 3) -> list:
    """A complete orthogonal outcome set that is not diagonal in the path basis.

    Up to ``max_pairs`` random mode pairs get rotated projectors
    ``cos t|u> + e^{ip} sin t|v>`` and ``-sin t|u> + e^{ip} cos t|v>``; the
    remaining modes form one degenerate ``rest`` outcome.  Returned as the
    ``outcomes`` list of a projector file (kets as ``{mode: [re, im]}``).
    """
    order = sorted(live)
    rng.shuffle(order)
    n_pairs = min(max_pairs, len(order) // 2)
    outcomes = []
    for j in range(n_pairs):
        u, v = order[2 * j], order[2 * j + 1]
        t = rng.uniform(0.2, 1.3)
        p = rng.uniform(-math.pi, math.pi)
        c, s = math.cos(t), math.sin(t)
        e = complex(math.cos(p), math.sin(p))
        plus = {u: complex(c, 0.0), v: e * s}
        minus = {u: complex(-s, 0.0), v: e * c}
        for name, ket in ((f"p{j}+", plus), (f"p{j}-", minus)):
            outcomes.append(
                {"label": name, "ket": {m: [a.real, a.imag] for m, a in sorted(ket.items())}}
            )
    rest = sorted(order[2 * n_pairs:])
    if rest:
        outcomes.append({"label": "rest", "modes": rest})
    return outcomes


def quantile(rng: random.Random) -> float:
    """A start quantile in (0, 1) kept off the split boundaries.

    ``(10 m + 3) / 10**7`` has 5**7 in its reduced denominator, so it is
    never one of the dyadic rationals where the transport rules switch
    branch, and it stays far from them compared with rounding error.
    """
    return (10 * rng.randrange(10 ** 6) + 3) / 10 ** 7
