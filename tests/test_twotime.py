"""Unit tests for the two-state description and the conditional rule."""
from __future__ import annotations

import cmath
import hashlib
import itertools
import math

import numpy as np
import pytest

from conftest import (
    S,
    collapse_oracle,
    contract,
    ket_projector_matrix,
    mode_projector_matrix,
    random_balanced_network,
    random_bra,
    random_ket,
    random_unitary,
)
from prepost.hilbert import (
    Bra,
    Ket,
    LinearOp,
    Projector,
    adjoint,
    basis_bra,
    basis_ket,
    make_projector,
    states_close,
)
from prepost.network import evolve, forward_chain, preset_double_mz
from prepost.twotime import (
    CERTAINTY_THRESHOLD,
    IncompleteProjectorSetError,
    InconsistentSelectionError,
    ProjectorSet,
    SPIN_LABELS,
    TwoStateVector,
    UndefinedConditionalError,
    abl_distribution,
    certainty_report,
    spin_network,
    spin_observable,
    spin_state,
    spin_two_state,
    two_state_at_cut,
    which_path_set,
)


@pytest.fixture(scope="module")
def net():
    return preset_double_mz()


X = (1.0, 0.0, 0.0)
Y = (0.0, 1.0, 0.0)
Z = (0.0, 0.0, 1.0)


# ---------------------------------------------------------------------------
# two_state_at_cut

def test_pair_between_the_interferometers(net):
    tsv = two_state_at_cut(net, basis_ket("a"), basis_bra("g"), 1)
    assert states_close(adjoint(tsv.post), Ket({"d": -1j}), 1e-12)
    assert states_close(tsv.pre, Ket({"c": S, "d": 1j * S}), 1e-12)
    assert tsv.basis == ("c", "d")


def test_pair_before_the_last_splitter(net):
    tsv = two_state_at_cut(net, basis_ket("a"), basis_bra("g"), 3)
    assert states_close(adjoint(tsv.post), Ket({"f": S, "e": -1j * S}), 1e-12)
    assert states_close(tsv.pre, Ket({"e": 1j}), 1e-12)


def test_display_factors_scalar_into_the_ket(net):
    tsv = two_state_at_cut(net, basis_ket("a"), basis_bra("g"), 1)
    bra, ket = tsv.display_pair()
    assert states_close(bra, Bra({"d": 1.0}), 1e-12)
    assert states_close(ket, Ket({"c": -1j * S, "d": S}), 1e-12)
    assert "⟨d|" in str(tsv)


def test_inconsistent_selection_rejected(net):
    post = Bra({"g": S, "h": -1j * S})
    # Backward evolution of this functional reaches only f, while the
    # forward state occupies only e: the pairing vanishes.
    back = evolve(net, post, 6, 3)
    assert states_close(back, basis_bra("f"), 1e-12)
    assert abs(back.pair(Ket({"e": 1j}))) <= 1e-12
    with pytest.raises(InconsistentSelectionError):
        two_state_at_cut(net, basis_ket("a"), post, 3)


def test_two_state_requires_normalized_inputs(net):
    with pytest.raises(ValueError, match="not normalized"):
        two_state_at_cut(net, Ket({"a": 2.0}), basis_bra("g"), 1)
    with pytest.raises(ValueError, match="not normalized"):
        two_state_at_cut(net, basis_ket("a"), Bra({"g": 2.0}), 1)


# ---------------------------------------------------------------------------
# conditional probabilities on the preset

def test_which_path_certain_in_d(net):
    tsv = two_state_at_cut(net, basis_ket("a"), basis_bra("g"), 1)
    dist = abl_distribution(tsv, which_path_set(("c", "d")))
    assert abs(dist["d"] - 1.0) <= 1e-12
    assert dist["c"] <= 1e-12


def test_which_path_certain_in_e(net):
    tsv = two_state_at_cut(net, basis_ket("a"), basis_bra("g"), 3)
    assert abs(abl_distribution(tsv, which_path_set(("e", "f")))["e"] - 1.0) <= 1e-12


def test_superposition_basis_is_fifty_fifty(net):
    tsv = two_state_at_cut(net, basis_ket("a"), basis_bra("g"), 1)
    plus = make_projector(Ket({"c": S, "d": S}), basis=("c", "d"))
    minus = make_projector(Ket({"c": S, "d": -S}), basis=("c", "d"))
    outcomes = ProjectorSet((("plus", plus), ("minus", minus)))
    dist = abl_distribution(tsv, outcomes)
    assert abs(dist["plus"] - 0.5) <= 1e-12
    assert abs(dist["minus"] - 0.5) <= 1e-12
    # Cross-check against the independent collapse oracle.
    oracle = collapse_oracle(
        net, basis_ket("a"), basis_bra("g"), 1,
        [("plus", ket_projector_matrix({"c": S, "d": S}, ["c", "d"])),
         ("minus", ket_projector_matrix({"c": S, "d": -S}, ["c", "d"]))],
    )
    assert abs(dist["plus"] - oracle["plus"]) <= 1e-10


# ---------------------------------------------------------------------------
# projector set validation

def test_incomplete_set_rejected(net):
    tsv = two_state_at_cut(net, basis_ket("a"), basis_bra("g"), 1)
    only_c = ProjectorSet((("c", make_projector({"c"}, basis=("c", "d"))),))
    with pytest.raises(IncompleteProjectorSetError, match="identity"):
        abl_distribution(tsv, only_c)


def test_overlapping_set_rejected(net):
    tsv = two_state_at_cut(net, basis_ket("a"), basis_bra("g"), 1)
    p_cd = make_projector({"c", "d"}, basis=("c", "d"))
    p_c = make_projector({"c"}, basis=("c", "d"))
    with pytest.raises(IncompleteProjectorSetError, match="overlap"):
        abl_distribution(tsv, ProjectorSet((("cd", p_cd), ("c", p_c))))


@pytest.mark.parametrize(
    "declared, live, outcomes, message",
    [
        (("c", "d", "e"), ("c", "d"), (("d", {"d"}), ("c", {"c"})),
         "projector 'd' uses labels outside the live space"),
        (("c", "d"), ("c", "d"), (), "does not sum to the identity"),
        # Overlapping and missing e: the overlap is reported.
        (("c", "d", "e"), ("c", "d", "e"), (("cd", {"c", "d"}), ("c", {"c"})),
         "projectors 'cd' and 'c' overlap"),
    ],
)
def test_validate_messages(declared, live, outcomes, message):
    pset = ProjectorSet(tuple((label, make_projector(modes, basis=declared))
                              for label, modes in outcomes))
    with pytest.raises(IncompleteProjectorSetError, match=message):
        pset.validate(live)


@pytest.mark.parametrize(
    "live, outcomes, message",
    [
        (("c", "d"), (("d", {"d"}), ("e", {"e"})),
         "projector 'e' uses labels outside the live space"),
        (("c", "d", "e"), (("cd", {"c", "d"}), ("c", {"c"})), "projectors 'cd' and 'c' overlap"),
        (("c", "d", "e"), (("c", {"c"}), ("d", {"d"})), "does not sum to the identity"),
    ],
)
def test_validate_messages_for_projectors_on_their_own_labels(live, outcomes, message):
    pset = ProjectorSet(tuple((label, make_projector(modes)) for label, modes in outcomes))
    with pytest.raises(IncompleteProjectorSetError, match=message):
        pset.validate(live)


def test_validate_composes_nothing_on_a_valid_set(net, monkeypatch):
    import prepost.hilbert
    import prepost.twotime

    sets = [(live, which_path_set(live)) for live in net.live]
    sets.append((SPIN_LABELS, spin_observable((0.6, 0.0, 0.8))))
    calls = []

    def counting(product):
        def counted(after, before):
            calls.append(1)
            return product(after, before)
        return counted

    monkeypatch.setattr(prepost.twotime, "_product", counting(prepost.hilbert._product))
    for live, pset in sets:
        pset.validate(live)
    assert calls == []


def _entries_product(a: LinearOp, b: LinearOp) -> dict:
    """The entries of the operator product a @ b, summed here term by term."""
    out = {}
    for (row, mid), x in a.entries.items():
        for (inner, col), y in b.entries.items():
            if inner == mid:
                out[row, col] = out.get((row, col), 0j) + x * y
    return out


def _reference_check(pset: ProjectorSet, basis: tuple[str, ...], tol: float = 1e-12):
    """The pairwise-then-sum check that validate replaced: None if accepted."""
    ops = [p for _, p in pset.outcomes]
    for a, b in itertools.combinations(ops, 2):
        if any(abs(x) > tol for x in _entries_product(a, b).values()):
            return "overlap"
    total = {}
    for p in ops:
        for k, v in p.entries.items():
            total[k] = total.get(k, 0j) + v
    if not ops or any(abs(total.get((r, c), 0j) - (r == c)) > tol
                      for r in basis for c in basis):
        return "identity"
    return None


def _check(pset: ProjectorSet, basis: tuple[str, ...]):
    try:
        pset.validate(basis)
    except IncompleteProjectorSetError as exc:
        return "overlap" if "overlap" in str(exc) else "identity"
    return None


@pytest.mark.parametrize("delta", [0.0, 1e-13, 10 ** -12.5, 1e-12, 10 ** -11.5, 1e-11,
                                   1e-10, 1e-8, 1e-6, 1e-3])
def test_completeness_check_matches_the_pairwise_reference(delta):
    # Rank-1 sets from the columns of a random unitary, each column moved by
    # delta in a random direction and renormalized.
    rng = np.random.default_rng(20241)
    for trial in range(100):
        n = 2 + trial % 5
        basis = tuple(f"m{k}" for k in range(n))
        u = random_unitary(n, rng)
        outcomes = []
        for k in range(n):
            step = rng.normal(size=n) + 1j * rng.normal(size=n)
            col = u[:, k] + delta * step / np.linalg.norm(step)
            ket = Ket({m: complex(a) for m, a in zip(basis, col)}).normalized()
            outcomes.append((basis[k], make_projector(ket, basis=basis)))
        pset = ProjectorSet(tuple(outcomes))
        got = _check(pset, basis)
        if delta >= 1e-10:
            assert got == _reference_check(pset, basis)
        if got is None:
            worst = max((abs(x) for (_, a), (_, b) in itertools.combinations(outcomes, 2)
                         for x in _entries_product(a, b).values()), default=0.0)
            assert worst <= 2e-12


def test_repeated_outcome_labels_rejected():
    # Weights are keyed by label, so a repeated label would drop an outcome.
    p_c = make_projector({"c"}, basis=("c", "d"))
    p_d = make_projector({"d"}, basis=("c", "d"))
    with pytest.raises(ValueError, match="not distinct"):
        ProjectorSet((("x", p_d), ("x", p_c)))


def test_undefined_conditional_guard():
    # Constructed directly: a pair whose pairing just clears the consistency
    # threshold but spreads over four outcomes, driving every weight below
    # the denominator guard.
    labels = ("m0", "m1", "m2", "m3")
    pre = Ket({m: 0.5 for m in labels})
    post = Bra({m: 6e-13 for m in labels})  # pairing 1.2e-12, each weight 9e-26
    tsv = TwoStateVector(post=post, pre=pre, cut=0, basis=labels)
    with pytest.raises(UndefinedConditionalError):
        abl_distribution(tsv, which_path_set(labels))


# ---------------------------------------------------------------------------
# certainty reports

def test_certainty_report_bright_detector(net):
    report = certainty_report(net, basis_ket("a"), basis_bra("g"))
    found = {(r.cut, r.mode) for r in report}
    assert found == {(0, "a"), (1, "d"), (2, "d"), (3, "e"), (4, "e"), (5, "g"), (6, "g")}
    assert all(r.probability >= CERTAINTY_THRESHOLD for r in report)


def test_certainty_report_dark_detector(net):
    report = certainty_report(net, basis_ket("a"), basis_bra("h"))
    found = {(r.cut, r.mode) for r in report}
    assert found == {(0, "a"), (1, "c"), (2, "c"), (3, "e"), (4, "e"), (5, "h"), (6, "h")}


def test_certainty_report_postselecting_the_evolved_state(net):
    final = forward_chain(net, basis_ket("a"))[-1]
    report = certainty_report(net, basis_ket("a"), adjoint(final))
    found = {(r.cut, r.mode) for r in report}
    assert found == {(0, "a"), (3, "e"), (4, "e")}


def test_certainty_entries_serialize(net):
    report = certainty_report(net, basis_ket("a"), basis_bra("g"))
    rec = report[1].to_json()
    assert rec == {"cut": 1, "mode": "d", "probability": 1.0}


def test_certainty_exclusivity(net):
    for cut in range(net.n_cuts):
        tsv = two_state_at_cut(net, basis_ket("a"), basis_bra("g"), cut)
        dist = abl_distribution(tsv, which_path_set(net.live[cut]))
        certain = [m for m, p in dist.items() if p >= CERTAINTY_THRESHOLD]
        if certain:
            assert len(certain) == 1
            rest = [p for m, p in dist.items() if m != certain[0]]
            assert all(p <= 1e-12 for p in rest)


# ---------------------------------------------------------------------------
# normalization / cut invariance / phase invariance

def test_distribution_normalizes(net):
    rng = np.random.default_rng(21)
    for _ in range(20):
        pre = random_ket(["a", "b"], rng)
        post = random_bra(["g", "h"], rng)
        try:
            tsv = two_state_at_cut(net, pre, post, int(rng.integers(0, 7)))
        except InconsistentSelectionError:
            continue
        dist = abl_distribution(tsv, which_path_set(tsv.basis))
        assert abs(sum(dist.values()) - 1.0) <= 1e-12


def test_selection_weight_cut_invariant(net):
    rng = np.random.default_rng(22)
    for _ in range(20):
        pre = random_ket(["a", "b"], rng)
        post = random_bra(["g", "h"], rng)
        weights = []
        for cut in range(7):
            fwd = evolve(net, pre, 0, cut)
            back = evolve(net, post, 6, cut)
            weights.append(abs(back.pair(fwd)) ** 2)
        for w in weights[1:]:
            assert abs(w - weights[0]) <= 1e-12


def test_phase_invariance(net):
    rng = np.random.default_rng(23)
    for _ in range(20):
        pre = random_ket(["a", "b"], rng)
        post = random_bra(["g", "h"], rng)
        cut = int(rng.integers(0, 7))
        try:
            base = abl_distribution(
                two_state_at_cut(net, pre, post, cut), which_path_set(net.live[cut])
            )
        except InconsistentSelectionError:
            continue
        phase_pre = cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        phase_post = cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        shifted = abl_distribution(
            two_state_at_cut(net, pre.scaled(phase_pre), post.scaled(phase_post), cut),
            which_path_set(net.live[cut]),
        )
        for m in base:
            assert abs(base[m] - shifted[m]) <= 1e-12


# ---------------------------------------------------------------------------
# sequential-collapse oracle equivalence

def test_matches_collapse_oracle_on_preset(net):
    rng = np.random.default_rng(24)
    for _ in range(20):
        pre = random_ket(["a", "b"], rng)
        post = random_bra(["g", "h"], rng)
        cut = int(rng.integers(0, 7))
        try:
            tsv = two_state_at_cut(net, pre, post, cut)
        except InconsistentSelectionError:
            continue
        dist = abl_distribution(tsv, which_path_set(tsv.basis))
        basis = list(tsv.basis)
        oracle = collapse_oracle(
            net, pre, post, cut,
            [(m, mode_projector_matrix({m}, basis)) for m in basis],
        )
        for m in basis:
            assert abs(dist[m] - oracle[m]) <= 1e-10


def test_degenerate_outcome_matches_oracle():
    rng = np.random.default_rng(25)
    for _ in range(10):
        net = random_balanced_network(rng)
        if len(net.live[0]) < 3:
            continue
        pre = random_ket(list(net.live[0]), rng)
        post = random_bra(list(net.live[net.n_stages]), rng)
        cut = int(rng.integers(0, net.n_cuts))
        basis = list(net.live[cut])
        first_two, rest = set(basis[:2]), set(basis[2:])
        outcomes = ProjectorSet(
            (
                ("pair", make_projector(first_two, basis=basis)),
                ("rest", make_projector(rest, basis=basis)),
            )
        )
        try:
            tsv = two_state_at_cut(net, pre, post, cut)
        except InconsistentSelectionError:
            continue
        dist = abl_distribution(tsv, outcomes)
        oracle = collapse_oracle(
            net, pre, post, cut,
            [("pair", mode_projector_matrix(first_two, basis)),
             ("rest", mode_projector_matrix(rest, basis))],
        )
        assert abs(dist["pair"] - oracle["pair"]) <= 1e-10


def test_performed_measurement_lands_in_d(net):
    # With the which-path measurement actually carried out between the two
    # interferometers, conditioning on the bright detector leaves only d.
    oracle = collapse_oracle(
        net, basis_ket("a"), basis_bra("g"), 1,
        [("c", mode_projector_matrix({"c"}, ["c", "d"])),
         ("d", mode_projector_matrix({"d"}, ["c", "d"]))],
    )
    assert abs(oracle["d"] - 1.0) <= 1e-12
    tsv = two_state_at_cut(net, basis_ket("a"), basis_bra("g"), 1)
    dist = abl_distribution(tsv, which_path_set(("c", "d")))
    assert abs(dist["d"] - oracle["d"]) <= 1e-12


# ---------------------------------------------------------------------------
# projectors act on their own labels

def _padded_reference(tsv: TwoStateVector, pset: ProjectorSet) -> dict[str, float]:
    """The ABL rule with every projector padded to the live basis first."""
    weights = {}
    for label, p in pset.outcomes:
        padded = Projector(tsv.basis, tsv.basis, p.entries)
        weights[label] = abs(tsv.post.pair(contract(padded.entries, tsv.pre, 1))) ** 2
    denom = sum(weights.values())
    return {label: w / denom for label, w in weights.items()}


def _rotated_set(live: tuple[str, ...], rng: np.random.Generator, pad: bool) -> ProjectorSet:
    """A rotated pair on the first two live modes, which-path on the rest."""
    declared = {"basis": live} if pad else {}
    theta, phi = rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi)
    c, s, w = math.cos(theta), math.sin(theta), cmath.exp(1j * phi)
    u, v = live[:2]
    outcomes = [
        ("plus", make_projector(Ket({u: c, v: s * w}).normalized(), **declared)),
        ("minus", make_projector(Ket({u: -s, v: c * w}).normalized(), **declared)),
    ]
    outcomes += [(m, make_projector({m}, **declared)) for m in live[2:]]
    return ProjectorSet(tuple(outcomes))


def test_padding_changes_no_distribution():
    rng = np.random.default_rng(29)
    checked = 0
    for trial in range(24):
        net = random_balanced_network(rng, n_rails=3 + trial % 6)
        pre = random_ket(list(net.live[0]), rng)
        post = random_bra(list(net.live[net.n_stages]), rng)
        for cut in range(net.n_cuts):
            live = net.live[cut]
            tsv = two_state_at_cut(net, pre, post, cut)
            padded_path = ProjectorSet(
                tuple((m, make_projector({m}, basis=live)) for m in sorted(live)))
            families = [
                [which_path_set(live), padded_path],
                [_rotated_set(live, np.random.default_rng([29, trial, cut]), pad)
                 for pad in (False, True)],
            ]
            for unpadded, padded in families:
                expected = list(_padded_reference(tsv, unpadded).items())
                assert list(abl_distribution(tsv, unpadded).items()) == expected
                assert list(abl_distribution(tsv, padded).items()) == expected
                checked += 1
    assert checked > 100


def test_certainty_report_composes_one_label_projectors_only(monkeypatch):
    # No operator product at all: weights and checks are read from entries.
    # Every cut's which-path set is still validated, and holds one-label
    # projectors only.
    import prepost.hilbert
    import prepost.twotime

    rng = np.random.default_rng(30)
    net = random_balanced_network(rng, n_rails=16)
    pre = random_ket(list(net.live[0]), rng)
    post = random_bra(list(net.live[net.n_stages]), rng)
    composed, validated = [], []
    validate = ProjectorSet.validate

    def counting(product):
        def counted(after, before):
            composed.append((after, before))
            return product(after, before)
        return counted

    def recording(pset, basis, *args, **kwargs):
        validated.append((basis, pset))
        return validate(pset, basis, *args, **kwargs)

    monkeypatch.setattr(prepost.twotime, "_product", counting(prepost.hilbert._product))
    monkeypatch.setattr(ProjectorSet, "validate", recording)
    certainty_report(net, pre, post)
    assert composed == []
    assert [basis for basis, _ in validated] == list(net.live)
    for basis, pset in validated:
        assert [label for label, _ in pset.outcomes] == list(basis)
        assert all(p.in_basis == (label,) and p.entries == {(label, label): 1}
                   for label, p in pset.outcomes)


# sha256 of the reprs of certainty reports and ABL distributions, recorded
# before weights were read from projector entries.
GOLDEN_ABL = "e57f12fbc71a0772d2e561856350c3d50a39a37ba5bc2796f5bc764d61c79a89"


def _near_null_set(tsv: TwoStateVector) -> ProjectorSet:
    """A rotated pair on the two live modes where the pre ket is largest, one
    ket orthogonal to the pre ket up to rounding (so its row sums fall below
    PRUNE_TOL), and one degenerate outcome on every other live mode."""
    u, v = sorted(sorted(tsv.basis, key=lambda m: -abs(tsv.pre[m]))[:2])
    a, b = tsv.pre[u], tsv.pre[v]
    outcomes = [
        ("null", make_projector(Ket({u: b.conjugate(), v: -a.conjugate()}).normalized())),
        ("span", make_projector(Ket({u: a, v: b}).normalized())),
    ]
    rest = set(tsv.basis) - {u, v}
    if rest:
        outcomes.append(("rest", make_projector(rest)))
    return ProjectorSet(tuple(outcomes))


def test_certainty_reports_and_distributions_are_golden():
    rng = np.random.default_rng(31)
    digest = hashlib.sha256()

    def record(value):
        digest.update(repr(value).encode("utf-8"))

    for n_rails in range(3, 33):
        net = random_balanced_network(rng, n_rails=n_rails)
        start = net.live[0][int(rng.integers(len(net.live[0])))]
        final = evolve(net, basis_ket(start), 0, net.n_stages)
        selections = [
            (random_ket(list(net.live[0]), rng), random_bra(list(net.live[net.n_stages]), rng)),
            (basis_ket(start), adjoint(final)),
            (basis_ket(start), basis_bra(max(final.entries, key=lambda m: abs(final[m])))),
        ]
        for pre, post in selections:
            record(certainty_report(net, pre, post))
            for cut in range(net.n_cuts):
                live = net.live[cut]
                tsv = two_state_at_cut(net, pre, post, cut)
                for pset in (which_path_set(live), _rotated_set(live, rng, pad=False),
                             _rotated_set(live, rng, pad=True), _near_null_set(tsv)):
                    record(abl_distribution(tsv, pset))
    for _ in range(20):
        n_pre, n_post, n_obs = (tuple(v / np.linalg.norm(v)) for v in rng.normal(size=(3, 3)))
        tsv = spin_two_state(spin_state(n_pre, +1), adjoint(spin_state(n_post, -1)))
        record(abl_distribution(tsv, spin_observable(n_obs)))
    assert digest.hexdigest() == GOLDEN_ABL


# ---------------------------------------------------------------------------
# spin systems

def test_spin_network_is_identity():
    net = spin_network()
    assert net.n_stages == 1
    out = evolve(net, basis_ket("up"), 0, 1)
    assert states_close(out, basis_ket("up"))


def test_spin_observable_x_axis():
    outcomes = spin_observable(X)
    plus = dict(outcomes.outcomes)["+1/2"]
    expected = make_projector(Ket({"up": S, "down": S}), basis=("down", "up"))
    assert plus.in_basis == expected.in_basis
    assert all(abs(plus[k] - expected[k]) <= 1e-12
               for k in set(plus.entries) | set(expected.entries))


def test_spin_observable_z_axis_is_diagonal():
    outcomes = dict(spin_observable(Z).outcomes)
    assert abs(outcomes["+1/2"][("up", "up")] - 1.0) <= 1e-12
    assert abs(outcomes["+1/2"][("down", "down")]) <= 1e-12
    assert abs(outcomes["-1/2"][("down", "down")] - 1.0) <= 1e-12


def test_spin_projectors_reconstruct_the_observable():
    rng = np.random.default_rng(26)
    for _ in range(10):
        v = rng.normal(size=3)
        n = tuple(v / np.linalg.norm(v))
        outcomes = dict(spin_observable(n).outcomes)
        total = {}
        for key in set(outcomes["+1/2"].entries) | set(outcomes["-1/2"].entries):
            total[key] = 0.5 * outcomes["+1/2"][key] - 0.5 * outcomes["-1/2"][key]
        # Compare with n . sigma / 2 over (down, up).
        nx, ny, nz = n
        expected = {
            ("up", "up"): 0.5 * nz,
            ("down", "down"): -0.5 * nz,
            ("up", "down"): 0.5 * complex(nx, -ny),
            ("down", "up"): 0.5 * complex(nx, ny),
        }
        for key, val in expected.items():
            assert abs(total.get(key, 0j) - val) <= 1e-12
        summed = _op_sum_dict(outcomes["+1/2"], outcomes["-1/2"])
        assert abs(summed[("up", "up")] - 1.0) <= 1e-12
        assert abs(summed[("down", "down")] - 1.0) <= 1e-12
        assert abs(summed.get(("up", "down"), 0j)) <= 1e-12


def _op_sum_dict(a: LinearOp, b: LinearOp) -> dict:
    out = dict(a.entries)
    for k, v in b.entries.items():
        out[k] = out.get(k, 0j) + v
    return out


def test_spin_selections_both_certain():
    rng = np.random.default_rng(27)
    for _ in range(10):
        v = rng.normal(size=3)
        n = tuple(v / np.linalg.norm(v))
        if 1.0 + n[0] < 1e-6:
            continue
        tsv = spin_two_state(spin_state(X, +1), adjoint(spin_state(n, +1)))
        assert abs(abl_distribution(tsv, spin_observable(X))["+1/2"] - 1.0) <= 1e-12
        assert abs(abl_distribution(tsv, spin_observable(n))["+1/2"] - 1.0) <= 1e-12


def test_spin_x_then_z_makes_y_even():
    tsv = spin_two_state(spin_state(X, +1), adjoint(spin_state(Z, +1)))
    dist = abl_distribution(tsv, spin_observable(Y))
    assert abs(dist["+1/2"] - 0.5) <= 1e-12
    assert abs(dist["-1/2"] - 0.5) <= 1e-12


def test_spin_direction_must_be_unit():
    with pytest.raises(ValueError, match="unit"):
        spin_observable((1.0, 1.0, 0.0))
    with pytest.raises(ValueError, match="unit"):
        spin_state((0.0, 0.0, 2.0))


def test_spin_states_are_orthonormal_eigenpairs():
    rng = np.random.default_rng(28)
    for _ in range(10):
        v = rng.normal(size=3)
        n = tuple(v / np.linalg.norm(v))
        plus, minus = spin_state(n, +1), spin_state(n, -1)
        assert plus.is_normalized() and minus.is_normalized()
        assert abs(adjoint(plus).pair(minus)) <= 1e-12
        proj_plus = dict(spin_observable(n).outcomes)["+1/2"]
        assert states_close(contract(proj_plus.entries, plus, 1), plus, 1e-12)
