"""Unit tests for the sparse labeled-basis linear algebra."""
from __future__ import annotations

import math
import random
import re
from pathlib import Path

import numpy as np
import pytest

import prepost
from conftest import S, random_balanced_network, random_unitary
from prepost.hilbert import (
    DEFAULT_TOL,
    Bra,
    Ket,
    LinearOp,
    Projector,
    _contract,
    _entries_close,
    _product,
    adjoint,
    amplitude_json,
    basis_bra,
    basis_ket,
    make_projector,
    state_json,
    states_close,
)
from prepost.network import UnknownModeError, evolve, preset_double_mz


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


# ---------------------------------------------------------------------------
# contraction: op|ket> and <bra|op

def test_beamsplitter_on_first_port():
    out = _contract(bs_op().entries, basis_ket("u"), 1)
    assert states_close(out, Ket({"x": S, "y": 1j * S}))


def test_beamsplitter_on_second_port():
    out = _contract(bs_op().entries, basis_ket("v"), 1)
    assert states_close(out, Ket({"x": 1j * S, "y": S}))


def test_dual_through_beamsplitter():
    # The backward-traveling state for the x output is (|u> - i|v>)/sqrt(2);
    # as a functional its entries are the conjugates.
    back = _contract(bs_op().entries, basis_bra("x"), 0)
    assert states_close(adjoint(back), Ket({"u": S, "v": -1j * S}))
    assert states_close(back, Bra({"u": S, "v": 1j * S}))
    back_y = _contract(bs_op().entries, basis_bra("y"), 0)
    assert states_close(adjoint(back_y), Ket({"u": -1j * S, "v": S}))


@pytest.mark.parametrize("seed", range(30))
def test_dual_pairing_consistency_randomized(seed):
    rng = np.random.default_rng(1000 + seed)
    labels = ["a", "b", "c", "d"]
    op = random_op_from_matrix(random_unitary(4, rng), labels)
    bra = Bra(dict(zip(labels, map(complex, rng.normal(size=4) + 1j * rng.normal(size=4)))))
    ket = Ket(dict(zip(labels, map(complex, rng.normal(size=4) + 1j * rng.normal(size=4)))))
    lhs = _contract(op.entries, bra, 0).pair(ket)
    rhs = bra.pair(_contract(op.entries, ket, 1))
    assert abs(lhs - rhs) <= 1e-12


@pytest.mark.parametrize("seed", range(30))
def test_unitaries_preserve_norm(seed):
    rng = np.random.default_rng(2000 + seed)
    labels = ["a", "b", "c"]
    op = random_op_from_matrix(random_unitary(3, rng), labels)
    ket = Ket(dict(zip(labels, map(complex, rng.normal(size=3) + 1j * rng.normal(size=3)))))
    assert abs(_contract(op.entries, ket, 1).norm() - ket.norm()) <= 1e-12


def test_apply_basis_mismatch():
    # A stage is applied only to states on the live modes of the cut it
    # leaves: evolution checks the support once, at its first cut.
    net = preset_double_mz()
    with pytest.raises(UnknownModeError):
        evolve(net, basis_ket("nope"), 0, 1)
    with pytest.raises(UnknownModeError):
        evolve(net, basis_bra("a"), 1, 0)  # a enters the first stage, it does not leave it


# ---------------------------------------------------------------------------
# projectors

def test_projector_on_ket_example():
    proj = make_projector({"d"}, basis=("c", "d"))
    out = _contract(proj.entries, Ket({"c": S, "d": 1j * S}), 1)
    assert states_close(out, Ket({"d": 1j * S}))


def test_projector_idempotent_and_self_adjoint():
    target = Ket({"c": S, "d": 1j * S})
    proj = make_projector(target)
    assert _entries_close(_product(proj.entries, proj.entries), proj.entries, 1e-12)
    conjugate = {(c, r): a.conjugate() for (r, c), a in proj.entries.items()}
    assert _entries_close(conjugate, proj.entries, 1e-12)


def test_projector_family_completeness():
    labels = tuple("abcdefgh")
    total = None
    for m in labels:
        p = make_projector({m}, basis=labels)
        total = p if total is None else LinearOp(
            labels, labels, {**total.entries, (m, m): 1.0}
        )
    assert total.in_basis == total.out_basis == labels
    assert _entries_close(total.entries, {(m, m): 1.0 for m in labels}, 1e-12)


def test_projector_orthogonal_pair_annihilates():
    labels = ("c", "d")
    plus = make_projector(Ket({"c": S, "d": S}), basis=labels)
    minus = make_projector(Ket({"c": S, "d": -S}), basis=labels)
    prod = _product(plus.entries, minus.entries)
    assert all(abs(a) <= 1e-12 for a in prod.values())


def test_projector_rejects_unnormalized_ket():
    with pytest.raises(ValueError, match="not normalized"):
        make_projector(Ket({"c": 1.0, "d": 1.0}))


def test_projector_rejects_empty_subset():
    with pytest.raises(ValueError, match="nonempty"):
        make_projector(set())


def test_projector_class_validates():
    with pytest.raises(ValueError, match="idempotent"):
        Projector(("a", "b"), ("a", "b"), {("a", "a"): 0.5})


@pytest.mark.parametrize("entries", [
    {("a", "a"): 1, ("a", "b"): 1j},  # idempotent, not symmetric
    # idempotent and symmetric, but not Hermitian: rejected only through the conjugate
    {("a", "a"): -1 / 3, ("a", "b"): -2j / 3, ("b", "a"): -2j / 3, ("b", "b"): 4 / 3},
])
def test_projector_rejects_non_self_adjoint(entries):
    with pytest.raises(ValueError, match="not self-adjoint"):
        Projector(("a", "b"), ("a", "b"), entries)


def test_projector_accepts_hermitian_idempotent():
    entries = {("a", "a"): 0.5, ("a", "b"): 0.5j, ("b", "a"): -0.5j, ("b", "b"): 0.5}
    proj = Projector(("a", "b"), ("a", "b"), entries)
    assert proj.entries == entries


def _idempotence_by_compose(basis, entries):
    """The check Projector made by building P·P as an operator: None if
    accepted, else the message."""
    op = LinearOp(basis, basis, entries)
    try:
        square = _ref_compose(op, op)
    except ValueError as exc:
        return str(exc)
    return None if _entries_close(square.entries, op.entries, DEFAULT_TOL) else "operator is not idempotent"


def _idempotence_in_place(basis, entries):
    try:
        Projector(basis, basis, entries)
    except ValueError as exc:
        return str(exc)
    return None


def _hermitian_family(rng):
    """Rank-1 and rank-2 projectors, each moved by a Hermitian perturbation of
    size 5e-15 to 1e-10 (around PRUNE_TOL and DEFAULT_TOL)."""
    for trial in range(60):
        n = 2 + trial % 4
        basis = tuple(f"m{k}" for k in range(n))
        u = random_unitary(n, rng) if trial % 3 else np.eye(n)
        cols = u[:, : 1 + trial % 2]
        p = cols @ cols.conj().T
        e = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        e = (e + e.conj().T) / np.abs(e + e.conj().T).max()
        for delta in (0.0, 5e-15, 2e-14, 1e-13, 3e-13, 1e-12, 3e-12, 1e-11, 1e-10):
            m = p + delta * e
            entries = {}
            for i, r in enumerate(basis):
                for j, c in enumerate(basis[i:], start=i):
                    entries[(r, c)] = complex(m[i, j])
                    entries[(c, r)] = complex(m[i, j]).conjugate()
            yield basis, entries


def test_in_place_idempotence_check_matches_compose():
    rng = np.random.default_rng(41)
    cases = list(_hermitian_family(rng))
    cases += [
        (("a", "b"), {("a", "b"): 1, ("b", "a"): 1}),  # swap: P·P is off P's support
        (("a", "b", "c"), {("a", "b"): 1, ("b", "a"): 1, ("c", "c"): 1}),
        (("a",), {("a", "a"): 1e200}),  # P·P overflows
        (("a", "b", "c"), {("a", "b"): 1e200, ("b", "a"): 1e200, ("c", "c"): 1}),
        (("a", "b"), {("a", "a"): 1e200, ("a", "b"): 1e200, ("b", "a"): 1e200,
                      ("b", "b"): -1e200}),
    ]
    outcomes = set()
    for basis, entries in cases:
        expected = _idempotence_by_compose(basis, entries)
        assert _idempotence_in_place(basis, entries) == expected, (basis, entries)
        outcomes.add(expected if expected is None else expected.split(" for ")[0])
    assert outcomes == {None, "operator is not idempotent", "non-finite amplitude"}


# ---------------------------------------------------------------------------
# construction, pruning, serialization

def test_non_finite_amplitudes_rejected():
    with pytest.raises(ValueError, match="non-finite"):
        Ket({"a": complex(math.nan, 0)})
    with pytest.raises(ValueError, match="non-finite"):
        Bra({"a": complex(0, math.inf)})


def test_non_finite_messages_name_the_entry():
    with pytest.raises(ValueError) as exc:
        LinearOp(("b",), ("a",), {("a", "b"): complex(math.nan, 0)})
    assert str(exc.value) == "non-finite amplitude for '(a,b)': (nan+0j)"
    for cls in (Ket, Bra):
        with pytest.raises(ValueError) as exc:
            cls({"b": 1.0, "a": complex(0, math.inf)})
        assert str(exc.value) == "non-finite amplitude for 'a': infj"
    op = LinearOp(("u", "v"), ("x",), {("x", "u"): 1, ("x", "v"): 0.5})
    ket = Ket({"a": 2, "b": -0.25})
    for stored in (*op.entries.values(), *ket.entries.values()):
        assert type(stored) is complex
    assert op.entries == {("x", "u"): 1 + 0j, ("x", "v"): 0.5 + 0j}
    assert ket.entries == {"a": 2 + 0j, "b": -0.25 + 0j}


def test_float_reductions_use_the_left_fold():
    """``sum`` compensates float rounding from Python 3.12 on, so every float
    or complex reduction in the package goes through ``hilbert._left_sum``;
    only integer counts written ``sum(1 for ...)`` may call ``sum``."""
    offenders = []
    for path in sorted(Path(prepost.__file__).parent.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        for match in re.finditer(r"\bsum\(", text):
            if not re.match(r"\s*1\s+for\b", text[match.end():]):
                offenders.append(f"{path.name}:{text.count(chr(10), 0, match.start()) + 1}")
    assert offenders == []


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


# ---------------------------------------------------------------------------
# canonical order: constructors store sorted order, readers iterate it
#
# The reference bodies sort explicitly.  The library's readers iterate the
# stored order instead, so the two must agree exactly, order and bits.

def _ref_contract(entries, state, src):
    out = {}
    for key, amp in sorted(entries.items()):
        if key[src] in state.entries:
            out[key[1 - src]] = out.get(key[1 - src], 0j) + amp * state.entries[key[src]]
    return type(state)(out)


def _ref_compose(after, before):
    out, by_col = {}, {}
    for (row, col), amp in sorted(after.entries.items()):
        by_col.setdefault(col, []).append((row, amp))
    for (mid, col), amp_b in sorted(before.entries.items()):
        for row, amp_a in by_col.get(mid, ()):
            out[(row, col)] = out.get((row, col), 0j) + amp_a * amp_b
    return LinearOp(before.in_basis, after.out_basis, out)


def _ref_pair(bra, ket):
    return sum((a * ket.entries[m] for m, a in sorted(bra.entries.items()) if m in ket.entries), 0j)


def _shuffled(rng, items):
    items = list(items)
    rng.shuffle(items)
    return items


def _messy_basis(rng, labels):
    """The labels shuffled, with some of them repeated."""
    return tuple(_shuffled(rng, list(labels) + rng.sample(list(labels), 2)))


def _random_state(cls, rng, nrng, labels):
    amps = nrng.normal(size=len(labels)) + 1j * nrng.normal(size=len(labels))
    return cls(dict(_shuffled(rng, zip(labels, (complex(a) for a in amps)))))


def _random_op(rng, nrng, ins, outs):
    mat = random_unitary(max(len(ins), len(outs)), nrng)
    entries = {(r, c): complex(mat[i, j]) for i, r in enumerate(outs) for j, c in enumerate(ins)}
    return LinearOp(_messy_basis(rng, ins), _messy_basis(rng, outs),
                    dict(_shuffled(rng, entries.items())))


def _same_state(x, y):
    return type(x) is type(y) and list(x.entries.items()) == list(y.entries.items())


def _same_op(x, y):
    return ((x.in_basis, x.out_basis, list(x.entries.items()))
            == (y.in_basis, y.out_basis, list(y.entries.items())))


def _assert_canonical(x):
    if isinstance(x, LinearOp):
        for basis in (x.in_basis, x.out_basis):
            assert list(basis) == sorted(set(basis))
    assert list(x.entries) == sorted(x.entries)


@pytest.mark.parametrize("seed", range(12))
def test_stored_order_is_sorted_and_readers_match_sorted_references(seed):
    rng, nrng = random.Random(seed), np.random.default_rng(seed)
    labels = [f"m{i}" for i in range(12)]  # "m10" sorts before "m2"
    ket = _random_state(Ket, rng, nrng, rng.sample(labels, 9))
    bra = _random_state(Bra, rng, nrng, rng.sample(labels, 9))
    op = _random_op(rng, nrng, labels, labels)
    other = _random_op(rng, nrng, labels, labels)
    net = random_balanced_network(nrng, n_rails=4)
    transposed = {(c, r): a.conjugate() for (r, c), a in op.entries.items()}
    ops = [
        op,
        LinearOp(other.in_basis, op.out_basis, _product(op.entries, other.entries)),
        LinearOp(_messy_basis(rng, labels), labels, {(m, m): 1.0 for m in labels}),
        LinearOp(_messy_basis(rng, labels), _messy_basis(rng, labels), transposed),
        make_projector(ket.normalized(), basis=_messy_basis(rng, labels)),
        make_projector(set(rng.sample(labels, 4)), basis=_messy_basis(rng, labels)),
    ]
    for x in [ket, bra, adjoint(ket), adjoint(bra), *ops]:
        _assert_canonical(x)

    for x in ops:
        assert _same_state(_contract(x.entries, ket, 1), _ref_contract(x.entries, ket, 1))
        assert _same_state(_contract(x.entries, bra, 0), _ref_contract(x.entries, bra, 0))
        _assert_canonical(_contract(x.entries, ket, 1))
        assert _same_op(LinearOp(op.in_basis, x.out_basis, _product(x.entries, op.entries)),
                        _ref_compose(x, op))
        assert _same_op(LinearOp(x.in_basis, other.out_basis, _product(other.entries, x.entries)),
                        _ref_compose(other, x))
    # Stage couplings are stored in element order, not sorted: contracting
    # them still gives the bits of the sorted reference.
    for k, couplings in enumerate(net._couplings):
        fwd = _random_state(Ket, rng, nrng, net.live[k])
        bwd = _random_state(Bra, rng, nrng, net.live[k + 1])
        assert _same_state(_contract(couplings, fwd, 1), _ref_contract(couplings, fwd, 1))
        assert _same_state(_contract(couplings, bwd, 0), _ref_contract(couplings, bwd, 0))
    assert bra.pair(ket) == _ref_pair(bra, ket)
    assert _contract(op.entries, bra, 0).pair(ket) == _ref_pair(_ref_contract(op.entries, bra, 0), ket)
    for state in (ket, bra):
        assert state.support == tuple(sorted(state.entries))
        assert list(state_json(state).items()) == [
            (m, amplitude_json(a)) for m, a in sorted(state.entries.items())
        ]
