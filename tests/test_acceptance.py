"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Tolerances are fixed here, not configurable.
"""
from __future__ import annotations

import math

import numpy as np

from conftest import (
    S,
    collapse_oracle,
    mode_projector_matrix,
    np_couplings,
    np_stage_matrix,
    random_balanced_network,
    random_bra,
    random_ket,
    random_unitary,
)
from prepost.cli import main as cli_main
from prepost.demo import run_demo
from prepost.hilbert import (
    Ket,
    Projector,
    adjoint,
    basis_bra,
    basis_ket,
    states_close,
)
from prepost.network import build_network, evolve, forward_chain, preset_double_mz
from prepost.pilot import RuleTable, run_ensemble, run_trajectory
from prepost.pointer import MeasurementSetup, decode_reading, measure_backward, measure_forward
from prepost.twotime import (
    InconsistentSelectionError,
    ProjectorSet,
    abl_distribution,
    certainty_report,
    spin_observable,
    spin_state,
    spin_two_state,
    two_state_at_cut,
    which_path_set,
)

NET = preset_double_mz()


def report(number: int, text: str) -> None:
    print(f"PASS criterion {number}: {text}")


# ---------------------------------------------------------------------------
# 1. forward evolution

def test_criterion_1_forward_evolution():
    chain = forward_chain(NET, basis_ket("a"))
    assert states_close(chain[1], Ket({"c": S, "d": 1j * S}), 1e-12)
    assert states_close(chain[3], Ket({"e": 1j}), 1e-12)
    assert states_close(chain[5], Ket({"g": -S, "h": 1j * S}), 1e-12)
    assert states_close(chain[6], Ket({"g": -S, "h": 1j * S}), 1e-12)
    report(1, "forward chain matches the three closed-form states within 1e-12")


# ---------------------------------------------------------------------------
# 2. backward evolution

def test_criterion_2_backward_evolution():
    # The backward-traveling state's amplitudes (conjugate entries of the
    # evolved functional) must match the printed backward chain exactly.
    post = basis_bra("g")
    for cut in (3, 4):
        assert states_close(
            adjoint(evolve(NET, post, 6, cut)), Ket({"f": S, "e": -1j * S}), 1e-12
        )
    for cut in (1, 2):
        assert states_close(
            adjoint(evolve(NET, post, 6, cut)), Ket({"d": -1j}), 1e-12
        )
    assert states_close(
        adjoint(evolve(NET, post, 6, 0)), Ket({"a": -S, "b": -1j * S}), 1e-12
    )
    report(2, "backward chain matches the three closed-form states within 1e-12")


# ---------------------------------------------------------------------------
# 3. which-path conditional probabilities and the certainty report

def test_criterion_3_which_path_certainties():
    pre, post = basis_ket("a"), basis_bra("g")
    for cut in (1, 2):
        dist = abl_distribution(two_state_at_cut(NET, pre, post, cut), which_path_set(("c", "d")))
        assert abs(dist["d"] - 1.0) <= 1e-12
    for cut in (3, 4):
        dist = abl_distribution(two_state_at_cut(NET, pre, post, cut), which_path_set(("e", "f")))
        assert abs(dist["e"] - 1.0) <= 1e-12
    found = {(r.cut, r.mode) for r in certainty_report(NET, pre, post)}
    assert {(1, "d"), (2, "d"), (3, "e"), (4, "e")} <= found
    assert {m for c, m in found if 1 <= c <= 4} == {"d", "e"}
    report(3, "prob(D=1)=1, prob(path e)=1, certainty report marks {d, e}")


# ---------------------------------------------------------------------------
# 4. spin selections along two axes

def test_criterion_4_spin_double_certainty():
    rng = np.random.default_rng(404)
    x = (1.0, 0.0, 0.0)
    checked = 0
    while checked < 20:
        v = rng.normal(size=3)
        n = tuple(v / np.linalg.norm(v))
        if 1.0 + n[0] < 1e-3:  # postselection impossible when n is opposite x
            continue
        tsv = spin_two_state(spin_state(x, +1), adjoint(spin_state(n, +1)))
        assert abs(abl_distribution(tsv, spin_observable(x))["+1/2"] - 1.0) <= 1e-12
        assert abs(abl_distribution(tsv, spin_observable(n))["+1/2"] - 1.0) <= 1e-12
        checked += 1
    report(4, "20 randomized spin directions give certainty along both axes")


# ---------------------------------------------------------------------------
# 5. conditional rule vs. sequential-collapse oracle

def _random_projector_set(basis, rng):
    """Random orthogonal decomposition, possibly with a degenerate block."""
    n = len(basis)
    if n >= 2 and rng.random() < 0.5:
        u = random_unitary(n, rng)
        split = 2 if (n >= 3 and rng.random() < 0.5) else 1
        groups = [list(range(split)), list(range(split, n))]
    else:
        u = np.eye(n, dtype=complex)
        groups = [[i] for i in range(n)]
    outcomes = []
    matrices = []
    for gi, group in enumerate(groups):
        if not group:
            continue
        mat = np.zeros((n, n), dtype=complex)
        entries = {}
        for col in group:
            vec = u[:, col]
            mat += np.outer(vec, vec.conj())
        for i in range(n):
            for j in range(n):
                if abs(mat[i, j]) > 1e-15:
                    entries[(basis[i], basis[j])] = complex(mat[i, j])
        label = f"o{gi}"
        outcomes.append((label, Projector(tuple(basis), tuple(basis), entries)))
        matrices.append((label, mat))
    return ProjectorSet(tuple(outcomes)), matrices


def test_criterion_5_matches_sequential_collapse():
    rng = np.random.default_rng(505)
    done = 0
    while done < 100:
        if done % 2 == 0:
            net = NET
        else:
            net = random_balanced_network(rng)
        pre = random_ket(list(net.live[0]), rng)
        post = random_bra(list(net.live[net.n_stages]), rng)
        cut = int(rng.integers(0, net.n_cuts))
        basis = list(net.live[cut])
        outcomes, matrices = _random_projector_set(basis, rng)
        try:
            tsv = two_state_at_cut(net, pre, post, cut)
        except InconsistentSelectionError:
            continue
        dist = abl_distribution(tsv, outcomes)
        oracle = collapse_oracle(net, pre, post, cut, matrices)
        for label in dist:
            assert abs(dist[label] - oracle[label]) <= 1e-10
        done += 1
    # The footnote case: which-path measurement actually performed.
    oracle = collapse_oracle(
        NET, basis_ket("a"), basis_bra("g"), 1,
        [("c", mode_projector_matrix({"c"}, ["c", "d"])),
         ("d", mode_projector_matrix({"d"}, ["c", "d"]))],
    )
    assert abs(oracle["d"] - 1.0) <= 1e-10
    tsv = two_state_at_cut(NET, basis_ket("a"), basis_bra("g"), 1)
    assert abs(abl_distribution(tsv, which_path_set(("c", "d")))["d"] - oracle["d"]) <= 1e-10
    report(5, "100 randomized instances agree with the collapse oracle within 1e-10")


# ---------------------------------------------------------------------------
# 6. pointer model

def _dyadic(rng, lo=-512, hi=512):
    return float(rng.integers(lo, hi)) / 1024.0


def _random_setup(rng, n_values):
    while True:
        vals = sorted({_dyadic(rng) for _ in range(n_values)})
        if len(vals) == n_values and min(b - a for a, b in zip(vals, vals[1:])) > 1e-3:
            return MeasurementSetup(tuple(f"s{i}" for i in range(n_values)), tuple(vals))


def test_criterion_6_pointer_runs():
    rng = np.random.default_rng(606)
    total_runs = 0
    for n_values in (2, 3, 2, 3):
        setup = _random_setup(rng, n_values)
        labels = list(setup.eigenbasis)
        amps = rng.normal(size=n_values) + 1j * rng.normal(size=n_values)
        amps /= np.linalg.norm(amps)
        system = Ket(dict(zip(labels, map(complex, amps))))
        weights = [abs(a) ** 2 for a in amps]
        q_prep = _dyadic(rng)
        counts_fwd = {v: 0 for v in setup.eigenvalues}
        counts_bwd = {v: 0 for v in setup.eigenvalues}
        runs = 1250
        for i in range(runs):
            fwd = measure_forward(setup, system, q1=q_prep, seed=i)
            assert fwd.q_final - fwd.q_initial == fwd.deduced
            assert decode_reading(setup, fwd.q_initial, fwd.q_final) == fwd.deduced
            counts_fwd[fwd.deduced] += 1
            bwd = measure_backward(setup, adjoint(system), q2=q_prep, seed=i)
            assert bwd.q_initial - bwd.q_final == bwd.deduced
            assert decode_reading(setup, bwd.q_final, bwd.q_initial) == bwd.deduced
            counts_bwd[bwd.deduced] += 1
            total_runs += 2
        for value, p in zip(setup.eigenvalues, weights):
            sigma = math.sqrt(max(p * (1 - p), 1e-12) / runs)
            assert abs(counts_fwd[value] / runs - p) <= 3 * sigma + 1e-9
            assert abs(counts_bwd[value] / runs - p) <= 3 * sigma + 1e-9
    assert total_runs == 10_000
    report(6, "10^4 runs decode identically in both directions, Born weights within 3 sigma")


# ---------------------------------------------------------------------------
# 7. forward trajectory ensemble

def test_criterion_7_forward_trajectory_statistics():
    stats = run_ensemble(NET, 100_000, seed=0, direction="forward",
                         terminal_state=basis_ket("a"))
    p_g = stats.frequency("G")
    assert abs(p_g - 0.5) <= 0.005
    assert set(stats.conditional_paths["G"]) == {("a", "c", "e")}
    assert set(stats.conditional_paths["H"]) == {("a", "d", "e")}
    report(7, f"P(G)={p_g:.4f}; every G path is a,c,e and every H path is a,d,e")


# ---------------------------------------------------------------------------
# 8. reversed trajectories

def test_criterion_8_reversed_trajectories():
    # Truncated terminal state: every trajectory that reaches the source
    # follows g,f,d; none retraces g,e,c.  (The terminal state alone cannot
    # steer the complementary half-packet to the source at all: it exits on
    # the vacuum port via e,d, which is what the missing empty wave causes.)
    for k in range(500):
        q = k / 500 + 1 / 1000
        rec = run_trajectory(NET, q, "reversed", basis_bra("g"))
        assert rec.path != ("g", "e", "c")
        if rec.terminal == "a":
            assert rec.path == ("g", "f", "d")
        else:
            assert (rec.terminal, rec.path) == ("b", ("g", "e", "d"))
    # Full terminal state: 10^3 matched samples retrace forward G runs.
    full_post = adjoint(forward_chain(NET, basis_ket("a"))[-1])
    rng = np.random.default_rng(808)
    for _ in range(1000):
        q0 = float(rng.uniform(1e-6, 0.5 - 1e-6))
        fwd = run_trajectory(NET, q0, "forward", basis_ket("a"))
        assert fwd.terminal == "G"
        q_rev = 1.0 - fwd.states[-1].quantile
        rev = run_trajectory(NET, q_rev, "reversed", full_post, start_mode="g")
        fwd_modes = tuple(s.mode for s in fwd.states)
        rev_modes = tuple(s.mode for s in rev.states)
        assert rev_modes == tuple(reversed(fwd_modes))
        assert rev.terminal == "a"
    report(8, "truncated terminal reaches the source only via f,d; full terminal retraces")


# ---------------------------------------------------------------------------
# 9. property suites, >= 100 randomized instances each

def _check_stage_unitary(net, k) -> None:
    """The couplings the network contracts stage ``k`` with, as a dense
    matrix: U^dagger U = I within 1e-12, and U equal to the stage matrix
    rebuilt from the element list."""
    u = np_couplings(net, k)
    assert np.abs(u.conj().T @ u - np.eye(u.shape[1])).max() <= 1e-12
    assert np.abs(u - np_stage_matrix(net, k)).max() <= 1e-12


def test_criterion_9a_stage_unitarity():
    rng = np.random.default_rng(909)
    checked = 0
    for k in range(NET.n_stages):
        _check_stage_unitary(NET, k)
        checked += 1
    while checked < 100:
        net = random_balanced_network(rng)
        for k in range(net.n_stages):
            _check_stage_unitary(net, k)
            checked += 1
    report(9, f"(a) {checked} stage unitaries pass the 1e-12 unitarity check")


def test_criterion_9b_pairing_cut_invariance():
    rng = np.random.default_rng(919)
    for i in range(100):
        net = NET if i % 2 == 0 else random_balanced_network(rng)
        pre = random_ket(list(net.live[0]), rng)
        post = random_bra(list(net.live[net.n_stages]), rng)
        values = [
            evolve(net, post, net.n_stages, cut).pair(evolve(net, pre, 0, cut))
            for cut in range(net.n_cuts)
        ]
        for v in values[1:]:
            assert abs(v - values[0]) <= 1e-12
    report(9, "(b) 100 randomized pre/post pairs have cut-independent pairings")


def test_criterion_9c_distribution_normalization():
    rng = np.random.default_rng(929)
    done = 0
    while done < 100:
        net = NET if done % 2 == 0 else random_balanced_network(rng)
        pre = random_ket(list(net.live[0]), rng)
        post = random_bra(list(net.live[net.n_stages]), rng)
        cut = int(rng.integers(0, net.n_cuts))
        try:
            tsv = two_state_at_cut(net, pre, post, cut)
        except InconsistentSelectionError:
            continue
        dist = abl_distribution(tsv, which_path_set(net.live[cut]))
        assert abs(sum(dist.values()) - 1.0) <= 1e-12
        done += 1
    report(9, "(c) 100 randomized conditional distributions sum to 1 within 1e-12")


def test_criterion_9d_quantile_map_injective_and_measure_preserving():
    rng = np.random.default_rng(939)
    for rules in (RuleTable(True), RuleTable(False)):
        qs = sorted(float(q) for q in rng.uniform(1e-4, 1 - 1e-4, size=120))
        records = [run_trajectory(NET, q, "forward", basis_ket("a"), rules=rules) for q in qs]
        for cut in range(NET.n_cuts):
            per_mode: dict[str, list[float]] = {}
            for rec in records:
                state = rec.states[cut]
                per_mode.setdefault(state.mode, []).append(state.quantile)
            for places in per_mode.values():
                ordered = sorted(places)
                for lo, hi in zip(ordered, ordered[1:]):
                    assert hi - lo > 1e-12
    # Measure preservation, analytically: G collects exactly [0, 1/2) and the
    # final quantile maps have slope magnitude 2, so the uniform measure
    # pushes forward to the Born weight 1/2 per detector.
    for q in [1e-6, 0.1, 0.25, 0.4999]:
        rec = run_trajectory(NET, q, "forward", basis_ket("a"))
        assert rec.terminal == "G" and abs(rec.states[-1].quantile - 2 * q) <= 1e-12
    for q in [0.5001, 0.75, 0.9, 1 - 1e-6]:
        rec = run_trajectory(NET, q, "forward", basis_ket("a"))
        assert rec.terminal == "H" and abs(rec.states[-1].quantile - 2 * (1 - q)) <= 1e-12
    final = forward_chain(NET, basis_ket("a"))[-1]
    assert abs(0.5 - abs(final["g"]) ** 2) <= 1e-12
    # Sampling check away from the preset: a bare splitter.
    bs_net = build_network(
        {
            "modes": ["u", "v", "x", "y"],
            "stages": [{"elements": [{"type": "beamsplitter", "in": ["u", "v"], "out": ["x", "y"]}]}],
            "detectors": {"x": "X", "y": "Y"},
            "sources": ["u"],
        }
    )
    stats = run_ensemble(bs_net, 20_000, seed=14, direction="forward",
                         terminal_state=basis_ket("u"))
    assert abs(stats.frequency("X") - 0.5) <= 3 * math.sqrt(0.25 / stats.samples)
    report(9, "(d) quantile maps are injective at every cut and preserve the uniform measure")


def test_criterion_9e_phase_invariance():
    rng = np.random.default_rng(949)
    done = 0
    while done < 100:
        net = NET if done % 2 == 0 else random_balanced_network(rng)
        pre = random_ket(list(net.live[0]), rng)
        post = random_bra(list(net.live[net.n_stages]), rng)
        cut = int(rng.integers(0, net.n_cuts))
        try:
            base = abl_distribution(
                two_state_at_cut(net, pre, post, cut), which_path_set(net.live[cut])
            )
        except InconsistentSelectionError:
            continue
        phase_pre = complex(math.cos(a := float(rng.uniform(0, 2 * math.pi))), math.sin(a))
        phase_post = complex(math.cos(b := float(rng.uniform(0, 2 * math.pi))), math.sin(b))
        shifted = abl_distribution(
            two_state_at_cut(net, pre.scaled(phase_pre), post.scaled(phase_post), cut),
            which_path_set(net.live[cut]),
        )
        for m in base:
            assert abs(base[m] - shifted[m]) <= 1e-12
        done += 1
    report(9, "(e) 100 randomized phase shifts leave every probability fixed within 1e-12")


# ---------------------------------------------------------------------------
# 10. determinism

def test_criterion_10_demo_determinism(capsys):
    assert cli_main(["demo", "--seed", "0", "--format", "json"]) == 0
    first = capsys.readouterr().out
    assert cli_main(["demo", "--seed", "0", "--format", "json"]) == 0
    second = capsys.readouterr().out
    assert first == second
    assert '"failed": 0' in first
    items = run_demo(seed=0)
    assert all(item.passed for item in items)
    report(10, "repeated demo runs with the same seed render byte-identical output")
