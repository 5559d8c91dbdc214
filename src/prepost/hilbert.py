"""Sparse complex linear algebra over labeled orthonormal bases.

States are finite maps from basis labels (strings such as ``"a"``..``"h"``,
``"up"``, ``"down"``) to complex amplitudes.  A :class:`Ket` holds column
components; a :class:`Bra` holds row components, i.e. the coefficients of a
linear functional.  Pairing a bra with a ket multiplies matching entries and
sums, with no conjugation: the conjugation of the usual inner product lives
in :func:`adjoint`, which conjugates entrywise.  The state a bra postselects
on is therefore ``adjoint(bra)``.

Amplitudes with magnitude below :data:`PRUNE_TOL` are dropped on
construction, keeping states in their closed forms.  All values are
immutable after construction and all operations are pure.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Union

PRUNE_TOL = 1e-14
DEFAULT_TOL = 1e-12


class BasisMismatchError(ValueError):
    """A state or operator was used on labels outside its declared basis."""


def _check_finite(value: complex, label: str) -> complex:
    value = complex(value)
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise ValueError(f"non-finite amplitude for {label!r}: {value!r}")
    return value


def _pruned(entries: Mapping[str, complex]) -> dict[str, complex]:
    out = {}
    for label in sorted(entries):
        amp = _check_finite(entries[label], label)
        if abs(amp) >= PRUNE_TOL:
            out[label] = amp
    return out


@dataclass(frozen=True)
class _State:
    """Sparse map from basis labels to complex amplitudes, shared by
    :class:`Ket` and :class:`Bra`; the two differ only in how they pair."""

    entries: dict[str, complex] = field(default_factory=dict)
    _symbol = "{}"

    def __post_init__(self):
        object.__setattr__(self, "entries", _pruned(self.entries))

    def __getitem__(self, label: str) -> complex:
        return self.entries.get(label, 0j)

    @property
    def support(self) -> tuple[str, ...]:
        return tuple(sorted(self.entries))

    def norm(self) -> float:
        return math.sqrt(sum(abs(a) ** 2 for a in self.entries.values()))

    def is_normalized(self, tol: float = DEFAULT_TOL) -> bool:
        return abs(self.norm() - 1.0) <= tol

    def scaled(self, factor: complex) -> "_State":
        return type(self)({m: factor * a for m, a in self.entries.items()})

    def normalized(self) -> "_State":
        n = self.norm()
        if n < PRUNE_TOL:
            raise ValueError("cannot normalize a zero state")
        return type(self)({m: a / n for m, a in self.entries.items()})

    def __str__(self) -> str:
        return format_state(self.entries, self._symbol)


class Ket(_State):
    """Sparse state vector.  ``entries[label]`` is the amplitude of |label>."""

    _symbol = "|{}⟩"

    def add(self, other: "Ket") -> "Ket":
        merged = dict(self.entries)
        for m, a in other.entries.items():
            merged[m] = merged.get(m, 0j) + a
        return Ket(merged)


class Bra(_State):
    """Sparse linear functional.  Pairs with kets by plain contraction.

    ``adjoint(Bra(...))`` gives the ket this functional postselects on; its
    amplitudes are the conjugates of ``entries``.
    """

    _symbol = "⟨{}|"

    def pair(self, ket: Ket) -> complex:
        """Contraction <bra|ket>: sum over entries of bra[m] * ket[m]."""
        return sum(
            (a * ket.entries[m] for m, a in sorted(self.entries.items()) if m in ket.entries),
            0j,
        )


@dataclass(frozen=True)
class LinearOp:
    """Sparse operator between two labeled bases.

    ``entries[(row, col)]`` maps the input label ``col`` to the output label
    ``row``.  Bases are stored sorted; every entry's labels must belong to
    the declared bases.
    """

    in_basis: tuple[str, ...]
    out_basis: tuple[str, ...]
    entries: dict[tuple[str, str], complex] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "in_basis", tuple(sorted(set(self.in_basis))))
        object.__setattr__(self, "out_basis", tuple(sorted(set(self.out_basis))))
        in_set, out_set = set(self.in_basis), set(self.out_basis)
        cleaned = {}
        for (row, col) in sorted(self.entries):
            if row not in out_set or col not in in_set:
                raise BasisMismatchError(
                    f"entry ({row!r}, {col!r}) outside declared bases"
                )
            amp = _check_finite(self.entries[(row, col)], f"({row},{col})")
            if abs(amp) >= PRUNE_TOL:
                cleaned[(row, col)] = amp
        object.__setattr__(self, "entries", cleaned)

    def __getitem__(self, key: tuple[str, str]) -> complex:
        return self.entries.get(key, 0j)


class Projector(LinearOp):
    """A LinearOp validated to be idempotent and self-adjoint."""

    def __post_init__(self):
        super().__post_init__()
        if self.in_basis != self.out_basis:
            raise ValueError("projector bases must coincide")
        if not op_close(compose(self, self), self):
            raise ValueError("operator is not idempotent")
        transposed = LinearOp(
            self.out_basis, self.in_basis,
            {(c, r): a.conjugate() for (r, c), a in self.entries.items()},
        )
        if not op_close(transposed, self):
            raise ValueError("operator is not self-adjoint")


def basis_ket(label: str) -> Ket:
    return Ket({label: 1.0 + 0j})


def basis_bra(label: str) -> Bra:
    return Bra({label: 1.0 + 0j})


def adjoint(x: Union[Ket, Bra, LinearOp]) -> Union[Bra, Ket, LinearOp]:
    """Entrywise complex conjugate, transposing operator indices.

    An involution: ``adjoint(adjoint(x)) == x``.  For states it converts
    between a ket and the functional that projects onto it, so
    ``adjoint(k).pair(k) == k.norm()**2``.
    """
    if isinstance(x, _State):
        dual = Bra if isinstance(x, Ket) else Ket
        return dual({m: a.conjugate() for m, a in x.entries.items()})
    if isinstance(x, LinearOp):
        return type(x)(
            x.out_basis, x.in_basis,
            {(c, r): a.conjugate() for (r, c), a in x.entries.items()},
        )
    raise TypeError(f"adjoint undefined for {type(x).__name__}")


def apply(op: LinearOp, ket: Ket) -> Ket:
    """Matrix-vector product op|ket>."""
    return _contract(op, ket, 1, "ket supported on {} outside operator input basis")


def apply_dual(bra: Bra, op: LinearOp) -> Bra:
    """Right composition <bra|op, so that apply_dual(b, op).pair(k) == b.pair(apply(op, k))."""
    return _contract(op, bra, 0, "bra supported on {} outside operator output basis")


def _contract(op: LinearOp, state: _State, src: int, error: str) -> _State:
    """op|ket> (``src`` 1: sum over columns) or <bra|op (``src`` 0: over rows)."""
    entries, dst = state.entries, 1 - src
    missing = set(entries) - set(op.in_basis if src else op.out_basis)
    if missing:
        raise BasisMismatchError(error.format(sorted(missing)))
    out: dict[str, complex] = {}
    for key, amp in sorted(op.entries.items()):
        if key[src] in entries:
            out[key[dst]] = out.get(key[dst], 0j) + amp * entries[key[src]]
    return type(state)(out)


def compose(after: LinearOp, before: LinearOp) -> LinearOp:
    """Operator product after @ before."""
    if set(before.out_basis) != set(after.in_basis):
        raise BasisMismatchError(
            f"cannot compose: inner bases differ ({before.out_basis} vs {after.in_basis})"
        )
    out: dict[tuple[str, str], complex] = {}
    by_col: dict[str, list[tuple[str, complex]]] = {}
    for (row, col), amp in sorted(after.entries.items()):
        by_col.setdefault(col, []).append((row, amp))
    for (mid, col), amp_b in sorted(before.entries.items()):
        for row, amp_a in by_col.get(mid, ()):
            key = (row, col)
            out[key] = out.get(key, 0j) + amp_a * amp_b
    return LinearOp(before.in_basis, after.out_basis, out)


def identity(labels: Iterable[str]) -> LinearOp:
    labels = tuple(sorted(set(labels)))
    return LinearOp(labels, labels, {(m, m): 1.0 + 0j for m in labels})


def make_projector(
    target: Union[Ket, Iterable[str]],
    basis: Iterable[str] | None = None,
    tol: float = DEFAULT_TOL,
) -> Projector:
    """Projector |t><t| for a normalized ket, or sum of |m><m| over a label subset.

    ``basis`` optionally embeds the projector in a larger space (extra labels
    get zero rows and columns).
    """
    if isinstance(target, Ket):
        if not target.is_normalized(tol):
            raise ValueError(f"projector target not normalized (norm={target.norm()!r})")
        labels = set(target.entries)
        entries = {
            (r, c): target.entries[r] * target.entries[c].conjugate()
            for r in labels
            for c in labels
        }
    else:
        labels = set(target)
        if not labels:
            raise ValueError("projector subset must be nonempty")
        entries = {(m, m): 1.0 + 0j for m in labels}
    full = tuple(sorted(labels | set(basis or ())))
    return Projector(full, full, entries)


def check_unitary(op: LinearOp, tol: float = DEFAULT_TOL) -> bool:
    """True iff adjoint(op) @ op equals the identity on the input basis within tol."""
    product = compose(adjoint(op), op)
    return op_close(product, identity(op.in_basis), tol)


def op_close(a: LinearOp, b: LinearOp, tol: float = DEFAULT_TOL) -> bool:
    if set(a.in_basis) != set(b.in_basis) or set(a.out_basis) != set(b.out_basis):
        return False
    return _entries_close(a, b, tol)


def states_close(
    a: Union[Ket, Bra], b: Union[Ket, Bra], tol: float = DEFAULT_TOL
) -> bool:
    return type(a) is type(b) and _entries_close(a, b, tol)


def _entries_close(a, b, tol: float) -> bool:
    return all(abs(a[k] - b[k]) <= tol for k in set(a.entries) | set(b.entries))


def format_amplitude(a: complex, digits: int = 6) -> str:
    """Compact rendering of a complex amplitude, e.g. '0.707107', '-i', '(1-2i)'."""
    re, im = a.real, a.imag
    if abs(im) < PRUNE_TOL:
        return f"{re:.{digits}g}"
    if abs(re) < PRUNE_TOL:
        text = f"{im:.{digits}g}"
        if text == "1":
            return "i"
        if text == "-1":
            return "-i"
        return text + "i"
    return f"({re:.{digits}g}{im:+.{digits}g}i)"


def format_state(entries: Mapping[str, complex], symbol: str) -> str:
    if not entries:
        return "0"
    parts = []
    for label in sorted(entries):
        coeff = format_amplitude(entries[label])
        term = symbol.format(label) if coeff == "1" else coeff + symbol.format(label)
        parts.append(term)
    return " + ".join(parts).replace("+ -", "- ")


def amplitude_json(a: complex) -> list:
    """Serialize an amplitude as [re, im] with 12 significant digits."""
    return [_sig12(a.real), _sig12(a.imag)]


def state_json(state: Union[Ket, Bra]) -> dict:
    return {m: amplitude_json(a) for m, a in sorted(state.entries.items())}


def _sig12(x: float):
    r = float(f"{x:.12g}")
    if r == 0:
        return 0
    if r.is_integer() and abs(r) < 1e15:
        return int(r)
    return r
