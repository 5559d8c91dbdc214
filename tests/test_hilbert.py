"""Unit tests for the sparse labeled-basis linear algebra."""
from __future__ import annotations

import math

import numpy as np
import pytest

from conftest import S, random_unitary
from prepost.hilbert import (
    BasisMismatchError,
    Bra,
    Ket,
    LinearOp,
    Projector,
    adjoint,
    amplitude_json,
    apply,
    apply_dual,
    basis_bra,
    basis_ket,
    check_unitary,
    compose,
    identity,
    make_projector,
    op_close,
    state_json,
    states_close,
)


def bs_op(ins=("u", "v"), outs=("x", "y")) -> LinearOp:
    u, v = ins
    x, y = outs
    return LinearOp(
        ins, outs,
        {(x, u): S, (y, u): 1j * S, (x, v): 1j * S, (y, v): S},
    )


def random_op_from_matrix(mat: np.ndarray, labels: list[str]) -> LinearOp:
    entries = {
        (labels[i], labels[j]): complex(mat[i, j])
        for i in range(len(labels))
        for j in range(len(labels))
    }
    return LinearOp(tuple(labels), tuple(labels), entries)


# ---------------------------------------------------------------------------
# adjoint

def test_adjoint_basis_element():
    assert states_close(adjoint(basis_ket("a")), basis_bra("a"))


def test_adjoint_conjugates_entries():
    bra = adjoint(Ket({"c": S, "d": 1j * S}))
    assert isinstance(bra, Bra)
    assert abs(bra["c"] - S) <= 1e-12
    assert abs(bra["d"] + 1j * S) <= 1e-12


def test_adjoint_pairs_to_squared_norm():
    ket = Ket({"a": 0.3 + 0.4j, "b": -0.2j, "c": 0.5})
    assert abs(adjoint(ket).pair(ket) - ket.norm() ** 2) <= 1e-12


@pytest.mark.parametrize("seed", range(30))
def test_adjoint_involution_randomized(seed):
    rng = np.random.default_rng(seed)
    labels = ["a", "b", "c"]
    amps = rng.normal(size=3) + 1j * rng.normal(size=3)
    ket = Ket(dict(zip(labels, map(complex, amps))))
    assert states_close(adjoint(adjoint(ket)), ket)
    op = random_op_from_matrix(random_unitary(3, rng), labels)
    assert op_close(adjoint(adjoint(op)), op)


# ---------------------------------------------------------------------------
# apply / apply_dual

def test_beamsplitter_on_first_port():
    out = apply(bs_op(), basis_ket("u"))
    assert states_close(out, Ket({"x": S, "y": 1j * S}))


def test_beamsplitter_on_second_port():
    out = apply(bs_op(), basis_ket("v"))
    assert states_close(out, Ket({"x": 1j * S, "y": S}))


def test_dual_through_beamsplitter():
    # The backward-traveling state for the x output is (|u> - i|v>)/sqrt(2);
    # as a functional its entries are the conjugates.
    back = apply_dual(basis_bra("x"), bs_op())
    assert states_close(adjoint(back), Ket({"u": S, "v": -1j * S}))
    assert states_close(back, Bra({"u": S, "v": 1j * S}))
    back_y = apply_dual(basis_bra("y"), bs_op())
    assert states_close(adjoint(back_y), Ket({"u": -1j * S, "v": S}))


@pytest.mark.parametrize("seed", range(30))
def test_dual_pairing_consistency_randomized(seed):
    rng = np.random.default_rng(1000 + seed)
    labels = ["a", "b", "c", "d"]
    op = random_op_from_matrix(random_unitary(4, rng), labels)
    bra = Bra(dict(zip(labels, map(complex, rng.normal(size=4) + 1j * rng.normal(size=4)))))
    ket = Ket(dict(zip(labels, map(complex, rng.normal(size=4) + 1j * rng.normal(size=4)))))
    lhs = apply_dual(bra, op).pair(ket)
    rhs = bra.pair(apply(op, ket))
    assert abs(lhs - rhs) <= 1e-12


@pytest.mark.parametrize("seed", range(30))
def test_unitaries_preserve_norm(seed):
    rng = np.random.default_rng(2000 + seed)
    labels = ["a", "b", "c"]
    op = random_op_from_matrix(random_unitary(3, rng), labels)
    ket = Ket(dict(zip(labels, map(complex, rng.normal(size=3) + 1j * rng.normal(size=3)))))
    assert abs(apply(op, ket).norm() - ket.norm()) <= 1e-12


def test_apply_basis_mismatch():
    with pytest.raises(BasisMismatchError):
        apply(bs_op(), basis_ket("nope"))
    with pytest.raises(BasisMismatchError):
        apply_dual(basis_bra("u"), bs_op())  # u is an input label, not an output


# ---------------------------------------------------------------------------
# projectors

def test_projector_on_ket_example():
    proj = make_projector({"d"}, basis=("c", "d"))
    out = apply(proj, Ket({"c": S, "d": 1j * S}))
    assert states_close(out, Ket({"d": 1j * S}))


def test_projector_idempotent_and_self_adjoint():
    target = Ket({"c": S, "d": 1j * S})
    proj = make_projector(target)
    assert op_close(compose(proj, proj), proj)
    assert op_close(adjoint(proj), proj)


def test_projector_family_completeness():
    labels = tuple("abcdefgh")
    total = None
    for m in labels:
        p = make_projector({m}, basis=labels)
        total = p if total is None else LinearOp(
            labels, labels, {**total.entries, (m, m): 1.0}
        )
    assert op_close(total, identity(labels))


def test_projector_orthogonal_pair_annihilates():
    labels = ("c", "d")
    plus = make_projector(Ket({"c": S, "d": S}), basis=labels)
    minus = make_projector(Ket({"c": S, "d": -S}), basis=labels)
    prod = compose(plus, minus)
    assert all(abs(a) <= 1e-12 for a in prod.entries.values())


def test_projector_rejects_unnormalized_ket():
    with pytest.raises(ValueError, match="not normalized"):
        make_projector(Ket({"c": 1.0, "d": 1.0}))


def test_projector_rejects_empty_subset():
    with pytest.raises(ValueError, match="nonempty"):
        make_projector(set())


def test_projector_class_validates():
    with pytest.raises(ValueError, match="idempotent"):
        Projector(("a", "b"), ("a", "b"), {("a", "a"): 0.5})


# ---------------------------------------------------------------------------
# check_unitary

def test_check_unitary_beamsplitter_block():
    op = LinearOp(
        ("u", "v"), ("u", "v"),
        {("u", "u"): S, ("u", "v"): 1j * S, ("v", "u"): 1j * S, ("v", "v"): S},
    )
    assert check_unitary(op)


def test_check_unitary_rejects_diagonal_1_0():
    op = LinearOp(("u", "v"), ("u", "v"), {("u", "u"): 1.0})
    assert not check_unitary(op)


def test_check_unitary_product_of_unitaries():
    rng = np.random.default_rng(7)
    labels = ["a", "b", "c"]
    product = identity(tuple(labels))
    for _ in range(5):
        product = compose(random_op_from_matrix(random_unitary(3, rng), labels), product)
    assert check_unitary(product)


# ---------------------------------------------------------------------------
# construction, pruning, serialization

def test_non_finite_amplitudes_rejected():
    with pytest.raises(ValueError, match="non-finite"):
        Ket({"a": complex(math.nan, 0)})
    with pytest.raises(ValueError, match="non-finite"):
        Bra({"a": complex(0, math.inf)})


def test_tiny_amplitudes_pruned():
    ket = Ket({"a": 1.0, "b": 1e-15})
    assert ket.support == ("a",)


def test_normalized_and_norm():
    ket = Ket({"a": 3.0, "b": 4.0j})
    assert abs(ket.norm() - 5.0) <= 1e-12
    assert ket.normalized().is_normalized()
    with pytest.raises(ValueError):
        Ket({}).normalized()


def test_bra_normalized_divides_by_the_norm():
    bra = Bra({"g": 3.0, "h": 4.0j})
    unit = bra.normalized()
    assert type(unit) is Bra
    assert unit.entries == {"g": 3.0 / 5.0, "h": 4.0j / 5.0}
    assert unit.is_normalized()
    with pytest.raises(ValueError, match="zero state"):
        Bra({}).normalized()


def test_amplitude_serialization_12_digits():
    assert amplitude_json(complex(-1 / math.sqrt(2), 0)) == [-0.707106781187, 0]
    assert amplitude_json(complex(0, 1 / math.sqrt(2))) == [0, 0.707106781187]
    assert state_json(Ket({"g": complex(-S, 0), "h": complex(0, S)})) == {
        "g": [-0.707106781187, 0],
        "h": [0, 0.707106781187],
    }


def test_state_string_forms():
    assert str(Ket({"e": 1j})) == "i|e⟩"
    assert str(Bra({"d": -1j})) == "-i⟨d|"
    assert "0.707107" in str(Ket({"c": S, "d": 1j * S}))
