"""Shared helpers and independent oracles for the test suite.

The oracles here deliberately avoid the package's sparse-dict evolution and
conditional-probability code paths: they rebuild stage matrices as dense
numpy arrays straight from the element lists and compute probabilities by
explicit projective collapse, so agreement is a real cross-check.
"""
from __future__ import annotations

import math

import numpy as np
import pytest

from prepost.hilbert import Bra, Ket
from prepost.network import Network, build_network

S = 1.0 / math.sqrt(2.0)


# ---------------------------------------------------------------------------
# Dense linear-algebra mirror of a network

def np_basis(net: Network, cut: int) -> list[str]:
    return list(net.live[cut])


def np_stage_matrix(net: Network, stage: int) -> np.ndarray:
    """Dense stage matrix rebuilt from the element list (not from the couplings
    the network records)."""
    in_basis, out_basis = np_basis(net, stage), np_basis(net, stage + 1)
    col = {m: j for j, m in enumerate(in_basis)}
    row = {m: j for j, m in enumerate(out_basis)}
    mat = np.zeros((len(out_basis), len(in_basis)), dtype=complex)
    touched = set()
    for el in net.stages[stage]:
        if el.kind == "beamsplitter":
            u, v = el.ins
            x, y = el.outs
            mat[row[x], col[u]] = S
            mat[row[y], col[u]] = 1j * S
            mat[row[x], col[v]] = 1j * S
            mat[row[y], col[v]] = S
            touched |= {u, v}
        elif el.kind == "mirror":
            mat[row[el.outs[0]], col[el.ins[0]]] = 1.0
            touched.add(el.ins[0])
    for m in in_basis:
        if m not in touched:
            mat[row[m], col[m]] = 1.0
    return mat


def np_couplings(net: Network, stage: int) -> np.ndarray:
    """The couplings ``net._couplings[stage]`` the network contracts states
    with, as a dense matrix from the live modes at cut ``stage`` to those at
    cut ``stage + 1``; a coupling outside them raises KeyError."""
    col = {m: j for j, m in enumerate(np_basis(net, stage))}
    row = {m: j for j, m in enumerate(np_basis(net, stage + 1))}
    mat = np.zeros((len(row), len(col)), dtype=complex)
    for (out, inp), amp in net._couplings[stage].items():
        mat[row[out], col[inp]] = amp
    return mat


def contract(entries: dict, state, src: int):
    """Reference contraction, written out here: op|ket> (``src`` 1, summed
    over columns) or <bra|op (``src`` 0, over rows) for the entries of op,
    summed in their stored order."""
    out = {}
    for key, amp in entries.items():
        if key[src] in state.entries:
            out[key[1 - src]] = out.get(key[1 - src], 0j) + amp * state.entries[key[src]]
    return type(state)(out)


def np_vector(state_entries: dict, basis: list[str]) -> np.ndarray:
    vec = np.zeros(len(basis), dtype=complex)
    for m, a in state_entries.items():
        vec[basis.index(m)] = a
    return vec


def np_forward(net: Network, pre: Ket, cut: int) -> np.ndarray:
    vec = np_vector(pre.entries, np_basis(net, 0))
    for k in range(cut):
        vec = np_stage_matrix(net, k) @ vec
    return vec


def np_to_end(net: Network, vec: np.ndarray, cut: int) -> np.ndarray:
    for k in range(cut, net.n_stages):
        vec = np_stage_matrix(net, k) @ vec
    return vec


def collapse_oracle(
    net: Network,
    pre: Ket,
    post: Bra,
    cut: int,
    projectors: list[tuple[str, np.ndarray]],
) -> dict[str, float]:
    """Two-step Born-rule simulation of a performed intermediate measurement.

    Collapse the forward state with each projector, renormalize, evolve to
    the final cut, apply the postselection, and condition on postselection
    success.  ``projectors`` are dense matrices over the live basis at the
    cut.
    """
    basis = np_basis(net, cut)
    psi = np_forward(net, pre, cut)
    post_row = np_vector(post.entries, np_basis(net, net.n_stages))
    joint = {}
    for label, proj in projectors:
        collapsed = proj @ psi
        weight = float(np.vdot(collapsed, collapsed).real)
        if weight < 1e-30:
            joint[label] = 0.0
            continue
        collapsed = collapsed / math.sqrt(weight)
        arrived = np_to_end(net, collapsed, cut)
        success = abs(post_row @ arrived) ** 2
        joint[label] = weight * success
    total = sum(joint.values())
    if total <= 0.0:
        raise ZeroDivisionError("oracle: no outcome is compatible with the postselection")
    return {label: w / total for label, w in joint.items()}


def mode_projector_matrix(modes: set[str], basis: list[str]) -> np.ndarray:
    mat = np.zeros((len(basis), len(basis)), dtype=complex)
    for m in modes:
        i = basis.index(m)
        mat[i, i] = 1.0
    return mat


def ket_projector_matrix(entries: dict, basis: list[str]) -> np.ndarray:
    vec = np_vector(entries, basis)
    vec = vec / np.linalg.norm(vec)
    return np.outer(vec, vec.conj())


# ---------------------------------------------------------------------------
# Random instances

def random_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_ket(labels: list[str], rng: np.random.Generator) -> Ket:
    amps = rng.normal(size=len(labels)) + 1j * rng.normal(size=len(labels))
    amps = amps / np.linalg.norm(amps)
    return Ket({m: complex(a) for m, a in zip(labels, amps)})


def random_bra(labels: list[str], rng: np.random.Generator) -> Bra:
    amps = rng.normal(size=len(labels)) + 1j * rng.normal(size=len(labels))
    amps = amps / np.linalg.norm(amps)
    return Bra({m: complex(a) for m, a in zip(labels, amps)})


def random_balanced_network(rng: np.random.Generator, n_rails: int = 3) -> Network:
    """A random staged network in which every rail advances one step per
    stage, so any beamsplitter pairing is balanced."""
    rails = [f"m{i}" for i in range(n_rails)]
    modes = list(rails)
    stages = []
    fresh = n_rails
    for _ in range(int(rng.integers(2, 5))):
        elements = []
        current = list(rails)
        if len(current) >= 2 and rng.random() < 0.8:
            i, j = rng.choice(len(current), size=2, replace=False)
            u, v = current[int(i)], current[int(j)]
            x, y = f"m{fresh}", f"m{fresh + 1}"
            fresh += 2
            modes += [x, y]
            elements.append({"type": "beamsplitter", "in": [u, v], "out": [x, y]})
            rails[rails.index(u)] = x
            rails[rails.index(v)] = y
            paired = {u, v}
        else:
            paired = set()
        for m in current:
            if m not in paired:
                elements.append({"type": "mirror", "in": m, "out": m})
        stages.append({"elements": elements})
    return build_network({"modes": modes, "stages": stages, "detectors": {}})


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260808)
