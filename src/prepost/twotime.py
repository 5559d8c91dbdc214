"""Two-state description of pre- and post-selected systems.

A system prepared in a ket and later found in a given outcome is described
between the two selections by an ordered pair: the postselection functional
evolved backward to the cut and the preparation ket evolved forward to it.
The pair is never collapsed to a scalar product.

The conditional probability that an intermediate projective measurement
with outcomes {P_i} yields outcome n is

    prob(n) = |<post| P_n |pre>|^2 / sum_i |<post| P_i |pre>|^2,

evaluated with both states at the measurement cut.  Outcomes with
probability 1 are "certain": their value can be inferred from the two
selections alone, and :func:`certainty_report` lists them cut by cut.

Spin-1/2 systems are handled as the degenerate case of a single identity
stage over the labels ``down``/``up`` (free Hamiltonian zero).
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .hilbert import (
    DEFAULT_TOL,
    PRUNE_TOL,
    Bra,
    Ket,
    Projector,
    _entries_close,
    _left_sum,
    _product,
    make_projector,
)
from .network import Network, backward_chain, build_network, evolve, forward_chain

CERTAINTY_THRESHOLD = 1.0 - 1e-12
PAIRING_TOL = 1e-12
DENOMINATOR_TOL = 1e-24

SPIN_LABELS = ("down", "up")


class InconsistentSelectionError(ValueError):
    """The postselection never follows the preselection (vanishing overlap)."""


class UndefinedConditionalError(ValueError):
    """Every outcome weight vanishes; the conditional distribution is undefined."""


class IncompleteProjectorSetError(ValueError):
    """The projector set does not resolve the identity on the live space."""


@dataclass(frozen=True)
class TwoStateVector:
    """The (post functional, pre ket) pair at a cut, plus the live basis there."""

    post: Bra
    pre: Ket
    cut: int
    basis: tuple[str, ...]

    def __post_init__(self):
        if abs(self.pairing()) <= PAIRING_TOL:
            raise InconsistentSelectionError(
                "postselection is orthogonal to the evolved preselection"
            )

    def pairing(self) -> complex:
        return self.post.pair(self.pre)

    def display_pair(self) -> tuple[Bra, Ket]:
        """Presentation form: the bra normalized to unit leading coefficient.

        The postselected state's leading amplitude (the conjugate of the
        corresponding functional entry) is factored into the ket, so the
        printed product keeps its value.
        """
        lead = min(self.post.entries)
        factor = self.post.entries[lead].conjugate()
        shown_bra = Bra(
            {m: (a.conjugate() / factor).conjugate() for m, a in self.post.entries.items()}
        )
        return shown_bra, self.pre.scaled(factor)

    def __str__(self) -> str:
        bra, ket = self.display_pair()
        return f"{bra} ({ket})"


@dataclass(frozen=True)
class ProjectorSet:
    """Ordered measurement outcomes: (label, projector) pairs.

    Projectors may cover multi-dimensional subspaces (degenerate outcomes).
    Each acts on the labels it declares (its ``in_basis``) and is zero on
    every other mode, so it need not be padded to the live space.  They
    must be mutually orthogonal and sum to the identity on the space they
    are used in.  :meth:`validate` checks the sum alone, which is
    enough: every :class:`Projector` is idempotent and self-adjoint, and
    such projectors that sum to the identity are mutually orthogonal.  For
    x = P_i x,

        |x|^2 = sum_j <x, P_j x> = |x|^2 + sum_{j != i} |P_j x|^2,

    so P_j x = 0 for every j != i.
    """

    outcomes: tuple[tuple[str, Projector], ...]

    def __post_init__(self):
        labels = [label for label, _ in self.outcomes]
        if len(set(labels)) != len(labels):
            raise ValueError(f"outcome labels {labels} are not distinct")

    def validate(self, basis: tuple[str, ...], tol: float = DEFAULT_TOL) -> None:
        """Accept the set iff its summed entries match the identity's on ``basis``
        within ``tol``, compared in place; only a failed set is searched pairwise
        (an overlap is reported ahead of an incomplete sum)."""
        total: dict[tuple[str, str], complex] = {}
        live = set(basis)
        for label, p in self.outcomes:
            if not live.issuperset(p.in_basis):
                raise IncompleteProjectorSetError(
                    f"projector {label!r} uses labels outside the live space"
                )
            for k, v in p.entries.items():
                total[k] = total.get(k, 0j) + v
        if self.outcomes and _entries_close(total, {(m, m): 1.0 + 0j for m in basis}, tol):
            return
        for i, (label, p) in enumerate(self.outcomes):
            for other, q in self.outcomes[i + 1:]:
                # Entries of p @ q, pruned as a composed operator's are, that exceed tol.
                if not _entries_close(_product(p.entries, q.entries), {}, tol):
                    raise IncompleteProjectorSetError(f"projectors {label!r} and {other!r} overlap")
        raise IncompleteProjectorSetError(
            "projector set does not sum to the identity on the live space"
        )


def which_path_set(modes: tuple[str, ...]) -> ProjectorSet:
    """One rank-1 projector per mode, labeled by the mode."""
    return ProjectorSet(tuple((m, make_projector({m})) for m in sorted(modes)))


def two_state_at_cut(net: Network, pre: Ket, post: Bra, cut: int) -> TwoStateVector:
    """Evolve pre forward and post backward to the cut and package them.

    Raises InconsistentSelectionError when the postselection cannot follow
    the preselection (their pairing vanishes at every cut).
    """
    _check_normalized(pre, post)
    fwd = evolve(net, pre, 0, cut)  # evolve checks the cut
    bwd = evolve(net, post, net.n_stages, cut)
    return TwoStateVector(post=bwd, pre=fwd, cut=cut, basis=net.live[cut])


def _check_normalized(pre: Ket, post: Bra) -> None:
    if not pre.is_normalized():
        raise ValueError(f"preselection not normalized (norm={pre.norm()!r})")
    if not post.is_normalized():
        raise ValueError(f"postselection not normalized (norm={post.norm()!r})")


def abl_distribution(tsv: TwoStateVector, outcomes: ProjectorSet) -> dict[str, float]:
    """Conditional probabilities for every outcome of an intermediate measurement.

    Each weight |sum_r post[r] (sum_c P[r,c] pre[c])|^2 is read in place from
    the projector's entries: row sums are checked and pruned as ``apply`` does
    and every sum runs in stored order, as in ``post.pair(apply(P, pre))``.
    """
    outcomes.validate(tsv.basis)
    post, pre = tsv.post.entries, tsv.pre.entries
    weights = {}
    for label, proj in outcomes.outcomes:
        rows: dict[str, complex] = {}
        for (r, c), a in proj.entries.items():
            if c in pre:
                rows[r] = rows.get(r, 0j) + a * pre[c]
        if not all(map(cmath.isfinite, rows.values())):
            Ket(rows)  # raises as apply would
        amp = _left_sum((post[r] * s for r, s in rows.items() if r in post and abs(s) >= PRUNE_TOL), 0j)
        weights[label] = abs(amp) ** 2
    denom = _left_sum(weights.values())
    if denom <= DENOMINATOR_TOL:
        raise UndefinedConditionalError(
            "all outcome weights vanish; conditional probabilities undefined"
        )
    return {label: w / denom for label, w in weights.items()}


def abl_probability(tsv: TwoStateVector, outcomes: ProjectorSet, which: str) -> float:
    """Conditional probability of one labeled outcome (see module docstring)."""
    dist = abl_distribution(tsv, outcomes)
    if which not in dist:
        raise KeyError(f"no outcome labeled {which!r}")
    return dist[which]


@dataclass(frozen=True)
class CertaintyEntry:
    cut: int
    mode: str
    probability: float

    def to_json(self) -> dict:
        return {"cut": self.cut, "mode": self.mode, "probability": float(f"{self.probability:.12g}")}


def certainty_report(net: Network, pre: Ket, post: Bra) -> list[CertaintyEntry]:
    """Which-path outcomes that are certain (probability 1) at every cut.

    For each cut the which-path projector set over the live modes is
    evaluated; outcomes at or above the certainty threshold are reported.
    """
    _check_normalized(pre, post)
    chains = zip(forward_chain(net, pre), backward_chain(net, post))
    paths = {m: make_projector({m}) for m in set().union(*net.live)}
    entries = []
    for cut, (fwd, bwd) in enumerate(chains):
        tsv = TwoStateVector(post=bwd, pre=fwd, cut=cut, basis=net.live[cut])
        dist = abl_distribution(tsv, ProjectorSet(tuple((m, paths[m]) for m in tsv.basis)))
        for mode, p in dist.items():
            if p >= CERTAINTY_THRESHOLD:
                entries.append(CertaintyEntry(cut=cut, mode=mode, probability=p))
    return entries


# ---------------------------------------------------------------------------
# Spin-1/2 support

def spin_network() -> Network:
    """A single identity stage over the spin labels (free Hamiltonian zero)."""
    return build_network(
        {"modes": list(SPIN_LABELS), "stages": [{"elements": []}], "detectors": {}}
    )


def spin_state(n: tuple[float, float, float], sign: int = +1) -> Ket:
    """Eigenket of the spin component along unit vector n with eigenvalue sign/2."""
    _check_unit(n)
    nx, ny, nz = n
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    if sign < 0:
        nx, ny, nz = -nx, -ny, -nz
    # Eigenvector of n.sigma with eigenvalue +1, built without trig on angles.
    if nz > -1.0 + 1e-15:
        up = complex(1.0 + nz, 0.0)
        down = complex(nx, ny)
    else:
        up, down = 0j, 1 + 0j
    ket = Ket({"up": up, "down": down})
    return ket.normalized()


def spin_observable(n: tuple[float, float, float]) -> ProjectorSet:
    """Projector pair for the +1/2 and -1/2 outcomes of the spin along n."""
    _check_unit(n)
    plus = make_projector(spin_state(n, +1))
    minus = make_projector(spin_state(n, -1))
    return ProjectorSet((("+1/2", plus), ("-1/2", minus)))


def _check_unit(n, tol: float = DEFAULT_TOL) -> None:
    if len(n) != 3:
        raise ValueError("spin direction must be a 3-vector")
    if abs(math.sqrt(n[0] ** 2 + n[1] ** 2 + n[2] ** 2) - 1.0) > tol:
        raise ValueError(f"spin direction must be a unit vector, got {n!r}")


def spin_two_state(pre: Ket, post: Bra) -> TwoStateVector:
    """Two-state pair for a static spin system (identity evolution)."""
    net = spin_network()
    return two_state_at_cut(net, pre, post, cut=0)
