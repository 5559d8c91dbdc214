"""Unit tests for the pilot-wave trajectory rules and runners."""
from __future__ import annotations

import math
from bisect import bisect_right
from collections import Counter

import numpy as np
import pytest

from prepost.hilbert import Bra, Ket, adjoint, basis_bra, basis_ket
from prepost.network import Element, build_network, forward_chain, preset_double_mz
from prepost.pilot import (
    DEFAULT_RULES,
    EMPTY_WAVE_DIAGNOSTIC,
    RuleTable,
    TrajectoryError,
    _build_plan,
    _partition,
    _run,
    _walk,
    run_ensemble,
    run_trajectory,
)
from test_pilot_classify import CHAINS, adversarial_quantiles

S = 1.0 / math.sqrt(2.0)
PRESERVE_RULES = RuleTable(reverse_on_bs_reflection=False)


def one_element_network(element: Element):
    """A network of one stage that holds ``element`` alone."""
    record = ({"type": "mirror", "in": element.ins[0], "out": element.outs[0]}
              if element.kind == "mirror"
              else {"type": element.kind, "in": list(element.ins), "out": list(element.outs)})
    modes = list(dict.fromkeys(element.ins + element.outs))
    return build_network({"modes": modes, "stages": [{"elements": [record]}]})


def transfer(element, mode, q, amplitudes, direction="forward", rules=DEFAULT_RULES):
    """The particle at start quantile ``q`` on ``mode``, run through
    ``element`` alone, its wave ``amplitudes`` on the element's input ports
    in the traversal ``direction``: ``(mode, quantile)`` after the element."""
    state = (Ket if direction == "forward" else Bra)(amplitudes)
    rec = run_trajectory(one_element_network(element), q, direction, state, mode, rules)
    return rec.states[-1].mode, rec.states[-1].quantile


@pytest.fixture(scope="module")
def net():
    return preset_double_mz()


def single_bs_network():
    return build_network(
        {
            "modes": ["u", "v", "x", "y"],
            "stages": [{"elements": [{"type": "beamsplitter", "in": ["u", "v"], "out": ["x", "y"]}]}],
            "detectors": {"x": "X", "y": "Y"},
            "sources": ["u"],
        }
    )


def single_mz_network():
    # Two splitters wired so a u input interferes into w alone.
    return build_network(
        {
            "modes": ["u", "v", "x", "y", "w", "z"],
            "stages": [
                {"elements": [{"type": "beamsplitter", "in": ["u", "v"], "out": ["x", "y"]}]},
                {"elements": [{"type": "beamsplitter", "in": ["y", "x"], "out": ["w", "z"]}]},
            ],
            "detectors": {"w": "W", "z": "Z"},
            "sources": ["u"],
        }
    )


# ---------------------------------------------------------------------------
# element rules

def test_mirror_reverses_order():
    mirror = Element("mirror", ("c",), ("c",))
    assert transfer(mirror, "c", 0.3, {"c": 1.0}) == ("c", 0.7)


def test_split_leading_half_transmits():
    bs = Element("beamsplitter", ("u", "v"), ("x", "y"))
    assert transfer(bs, "u", 0.25, {"u": 1.0}) == ("x", 0.5)


def test_split_trailing_half_reflects_with_reversal():
    bs = Element("beamsplitter", ("u", "v"), ("x", "y"))
    assert transfer(bs, "u", 0.75, {"u": 1.0}) == ("y", 0.5)


def test_split_midpoint_joins_trailing_half():
    bs = Element("beamsplitter", ("u", "v"), ("x", "y"))
    assert transfer(bs, "u", 0.5, {"u": 1.0}) == ("y", 1.0)
    # The cell just above 1/2 reflects, with order reversal, to the cell
    # just below 1: the trailing edge of the packet on y, which reads 1.0.
    plan = _build_plan(one_element_network(bs), "forward", basis_ket("u"), None, DEFAULT_RULES)
    live, _ = list(_walk(plan, 0, 1, 1, 1, 2))[-1]  # the cell (k + 1) / 2, k in [0, 1)
    ((_, _, a, num, den, modes),) = live
    assert (modes[-1], num, a < 0) == ("y", den, True)


def test_split_from_second_port():
    bs = Element("beamsplitter", ("u", "v"), ("x", "y"))
    assert transfer(bs, "v", 0.25, {"v": 1.0}) == ("y", 0.5)  # v transmits to y
    assert transfer(bs, "v", 0.75, {"v": 1.0}) == ("x", 0.5)


@pytest.mark.parametrize("direction", ["forward", "reversed"])
@pytest.mark.parametrize("mode, amplitudes", [("u", {"v": 1.0}), ("v", {"u": 1.0}),
                                              ("u", {"u": 1e-13, "v": 1.0})])
def test_particle_on_an_empty_input_port_is_rejected(direction, mode, amplitudes):
    ports = (("u", "v"), ("x", "y"))  # (inputs, outputs) in the traversal direction
    bs = Element("beamsplitter", *(ports if direction == "forward" else ports[::-1]))
    with pytest.raises(TrajectoryError, match="carries no amplitude"):
        transfer(bs, mode, 0.3, amplitudes, direction)


def test_merge_reflected_input_fills_leading_half():
    bs = Element("beamsplitter", ("d", "c"), ("e", "f"))
    assert transfer(bs, "c", 0.4, {"c": S, "d": 1j * S}) == ("e", 0.3)


def test_merge_transmitted_input_fills_trailing_half():
    bs = Element("beamsplitter", ("d", "c"), ("e", "f"))
    assert transfer(bs, "d", 0.4, {"c": S, "d": 1j * S}) == ("e", 0.7)


def coupled(amps: dict, mode: str, q: float, reverse: bool = True) -> tuple[str, float]:
    """The product coupling of ``u, v -> x, y`` by hand: ``mode`` supplies
    its input's share s of each output packet and transmits the leading
    share t = |o_t|^2 / (|o_t|^2 + |o_r|^2) of its own packet."""
    u, v = amps.get("u", 0j), amps.get("v", 0j)
    x, y = S * u + 1j * S * v, 1j * S * u + S * v
    own, other = (u, v) if mode == "u" else (v, u)
    (t_out, t_amp), (r_out, r_amp) = (("x", x), ("y", y)) if mode == "u" else (("y", y), ("x", x))
    share = abs(own) ** 2 / (abs(own) ** 2 + abs(other) ** 2)
    t = abs(t_amp) ** 2 / (abs(t_amp) ** 2 + abs(r_amp) ** 2)
    if q < t:
        return t_out, 1 - share + share * q / t
    s = (q - t) / (1 - t)
    return r_out, share * (1 - s if reverse else s)


@pytest.mark.parametrize("rules", [DEFAULT_RULES, PRESERVE_RULES], ids=["reverse", "preserve"])
@pytest.mark.parametrize("amps", [
    {"u": 0.6, "v": 0.8},  # unequal weights, even split of the outputs
    # partial interference
    {"u": S, "v": S * complex(math.cos(math.pi / 4), math.sin(math.pi / 4))},
    {"u": 0.3 - 0.1j, "v": -0.9 + 0.3j},
], ids=["unequal", "partial", "generic"])
def test_two_occupied_inputs_couple_by_product(amps, rules):
    bs = Element("beamsplitter", ("u", "v"), ("x", "y"))
    for mode in ("u", "v"):
        for q in (0.0, 0.1, 0.3, 0.5, 0.8, 0.99):
            out, image = transfer(bs, mode, q, amps, rules=rules)
            want_out, want = coupled(amps, mode, q, rules.reverse_on_bs_reflection)
            assert out == want_out and abs(image - want) <= 1e-12, (mode, q)


def test_quantile_range_validated(net):
    for q in (1.0, -1e-300, math.nan, "0.5"):
        with pytest.raises(ValueError, match="quantile"):
            run_trajectory(net, q)


def test_a_negative_zero_quantile_starts_at_zero(net):
    rec = run_trajectory(net, -0.0, "forward", basis_ket("a"))
    assert math.copysign(1.0, rec.quantile0) == math.copysign(1.0, rec.states[0].quantile) == 1.0
    assert rec == run_trajectory(net, 0.0, "forward", basis_ket("a"))


# ---------------------------------------------------------------------------
# forward trajectories on the preset

def test_forward_leading_quarter(net):
    rec = run_trajectory(net, 0.25, "forward", basis_ket("a"))
    assert rec.path == ("a", "c", "e")
    assert rec.terminal == "G"
    assert [(s.cut, s.mode, s.quantile) for s in rec.states] == [
        (0, "a", 0.25), (1, "c", 0.5), (2, "c", 0.5),
        (3, "e", 0.25), (4, "e", 0.75), (5, "g", 0.5), (6, "g", 0.5),
    ]


def test_forward_trailing_quarter(net):
    rec = run_trajectory(net, 0.75, "forward", basis_ket("a"))
    assert rec.path == ("a", "d", "e")
    assert rec.terminal == "H"


def test_forward_default_entry_state(net):
    rec = run_trajectory(net, 0.25)
    assert rec.path == ("a", "c", "e")


def test_every_G_particle_passes_through_c(net):
    # Every start quantile k/2^20, counted against the route partition (which
    # test_classification_at_branch_boundaries pins to _run).  G collects
    # exactly the leading half, and so it does of all 2^53 draws.
    plan = _build_plan(net, "forward", basis_ket("a"), None, DEFAULT_RULES)
    edges, outcomes = _partition(plan)
    counts = Counter(outcomes[bisect_right(edges, k << 33)] for k in range(2 ** 20))
    assert counts == {("G", ("a", "c", "e")): 2 ** 19, ("H", ("a", "d", "e")): 2 ** 19}
    assert edges == (2 ** 52,)
    # And one trajectory at a time at every k/2^m for m <= 10.
    expected = {"G": ("a", "c", "e"), "H": ("a", "d", "e")}
    for k in range(2 ** 10):
        rec = run_trajectory(net, k / 2 ** 10)
        assert rec.path == expected[rec.terminal], k


def test_forward_detector_split_at_half(net):
    assert run_trajectory(net, 0.49999, "forward").terminal == "G"
    assert run_trajectory(net, 0.5, "forward").terminal == "H"
    assert run_trajectory(net, 0.50001, "forward").terminal == "H"


# ---------------------------------------------------------------------------
# reversed trajectories

def test_reversed_truncated_terminal_goes_via_f(net):
    rec = run_trajectory(net, 0.25, "reversed", basis_bra("g"))
    assert rec.path == ("g", "f", "d")
    assert rec.terminal == "a"
    assert any(EMPTY_WAVE_DIAGNOSTIC in d for d in rec.diagnostics)


def test_reversed_truncated_other_half_misses_the_source(net):
    rec = run_trajectory(net, 0.75, "reversed", basis_bra("g"))
    assert rec.path == ("g", "e", "d")
    assert rec.terminal == "b"


def test_reversed_truncated_source_arrivals_always_via_f(net):
    for k in range(200):
        q = k / 200
        rec = run_trajectory(net, q, "reversed", basis_bra("g"))
        assert rec.path != ("g", "e", "c")
        if rec.terminal == "a":
            assert rec.path == ("g", "f", "d")
        else:
            assert rec.terminal == "b"
            assert rec.path == ("g", "e", "d")


def test_reversed_full_terminal_retraces_forward(net):
    full_post = adjoint(forward_chain(net, basis_ket("a"))[-1])
    for k in range(1, 16):
        q0 = k / 32
        fwd = run_trajectory(net, q0, "forward", basis_ket("a"))
        q_rev = 1.0 - fwd.states[-1].quantile
        rev = run_trajectory(net, q_rev, "reversed", full_post, start_mode="g")
        assert tuple(s.mode for s in rev.states) == tuple(
            s.mode for s in reversed(fwd.states)
        )
        assert not rev.diagnostics
        for s_rev, s_fwd in zip(rev.states, reversed(fwd.states)):
            assert abs(s_rev.quantile - (1.0 - s_fwd.quantile)) <= 1e-12


def test_full_terminal_is_the_usual_printed_form_up_to_global_phase(net):
    # The functional retracing forward runs postselects the final state; the
    # state's components are (|g> - i|h>)/sqrt(2) times a global phase of -1.
    final = forward_chain(net, basis_ket("a"))[-1]
    assert abs(final.scaled(-1.0)["g"] - S) <= 1e-12
    assert abs(final.scaled(-1.0)["h"] + 1j * S) <= 1e-12
    full_post = adjoint(final)
    assert abs(full_post["g"] + S) <= 1e-12
    assert abs(full_post["h"] + 1j * S) <= 1e-12


def test_reversed_full_terminal_always_lands_on_the_source(net):
    full_post = adjoint(forward_chain(net, basis_ket("a"))[-1])
    for k in range(1, 40):
        rec = run_trajectory(net, k / 40, "reversed", full_post, start_mode="g")
        assert rec.path == ("g", "e", "c")
        assert rec.terminal == "a"


def test_reversed_needs_terminal_state(net):
    with pytest.raises(TrajectoryError):
        run_trajectory(net, 0.5, "reversed")


def test_multi_mode_terminal_needs_start_mode(net):
    full_post = adjoint(forward_chain(net, basis_ket("a"))[-1])
    with pytest.raises(TrajectoryError, match="start_mode"):
        run_trajectory(net, 0.5, "reversed", full_post)
    with pytest.raises(TrajectoryError, match="no amplitude"):
        run_trajectory(net, 0.5, "reversed", basis_bra("g"), start_mode="h")


def test_direction_and_state_type_validated(net):
    with pytest.raises(TrajectoryError):
        run_trajectory(net, 0.5, "forward", basis_bra("g"))
    with pytest.raises(TrajectoryError):
        run_trajectory(net, 0.5, "reversed", basis_ket("a"))
    with pytest.raises(ValueError, match="direction"):
        run_trajectory(net, 0.5, "sideways", basis_ket("a"))


# ---------------------------------------------------------------------------
# determinism, injectivity, measure preservation

def test_trajectories_are_deterministic(net):
    a = run_trajectory(net, 0.37, "forward", basis_ket("a"))
    b = run_trajectory(net, 0.37, "forward", basis_ket("a"))
    assert a == b


def test_non_crossing_forward(net):
    rng = np.random.default_rng(41)
    qs = sorted(float(q) for q in rng.uniform(0.001, 0.999, size=60))
    records = [run_trajectory(net, q, "forward", basis_ket("a")) for q in qs]
    for cut in range(net.n_cuts):
        seen = {}
        for q0, rec in zip(qs, records):
            key = rec.states[cut].mode
            place = rec.states[cut].quantile
            for other_q0, other_place in seen.get(key, []):
                assert abs(place - other_place) > 1e-12
            seen.setdefault(key, []).append((q0, place))


def test_detector_measure_matches_born_weights(net):
    # Piecewise-linear composite map: [0, 1/2) -> G, [1/2, 1) -> H, slope 2.
    for q in [0.01, 0.1, 0.3, 0.49]:
        rec = run_trajectory(net, q, "forward", basis_ket("a"))
        assert rec.terminal == "G"
        assert abs(rec.states[-1].quantile - 2 * q) <= 1e-12
    for q in [0.51, 0.7, 0.9, 0.99]:
        rec = run_trajectory(net, q, "forward", basis_ket("a"))
        assert rec.terminal == "H"
        assert abs(rec.states[-1].quantile - 2 * (1 - q)) <= 1e-12


def test_ensemble_statistics_on_preset(net):
    stats = run_ensemble(net, 20_000, seed=5, direction="forward",
                         terminal_state=basis_ket("a"))
    sigma = math.sqrt(0.25 / stats.samples)
    assert abs(stats.frequency("G") - 0.5) <= 3 * sigma
    assert set(stats.conditional_paths["G"]) == {("a", "c", "e")}
    assert set(stats.conditional_paths["H"]) == {("a", "d", "e")}
    assert sum(stats.detector_counts.values()) == stats.samples


def test_ensemble_determinism(net):
    a = run_ensemble(net, 500, seed=9, direction="forward", terminal_state=basis_ket("a"))
    b = run_ensemble(net, 500, seed=9, direction="forward", terminal_state=basis_ket("a"))
    assert a.detector_counts == b.detector_counts
    assert a.conditional_paths == b.conditional_paths


def test_single_splitter_statistics():
    bs_net = single_bs_network()
    stats = run_ensemble(bs_net, 10_000, seed=3, direction="forward",
                         terminal_state=basis_ket("u"))
    sigma = math.sqrt(0.25 / stats.samples)
    assert abs(stats.frequency("X") - 0.5) <= 3 * sigma


def test_single_interferometer_funnels_everything():
    mz = single_mz_network()
    final = forward_chain(mz, basis_ket("u"))[-1]
    assert abs(abs(final["w"]) - 1.0) <= 1e-12
    stats = run_ensemble(mz, 2_000, seed=4, direction="forward",
                         terminal_state=basis_ket("u"))
    assert stats.frequency("W") == 1.0


# ---------------------------------------------------------------------------
# rule-table robustness

def test_detector_assignment_invariant_under_reflection_convention(net):
    rng = np.random.default_rng(42)
    for q in rng.uniform(0.001, 0.999, size=50):
        default = run_trajectory(net, float(q), "forward", basis_ket("a"))
        alt = run_trajectory(net, float(q), "forward", basis_ket("a"), rules=PRESERVE_RULES)
        assert default.terminal == alt.terminal
        assert default.path == alt.path
    # Every quantile where a rule switches branch, on the preset and on every
    # cascade of at most 10 stages.
    chains = {name: chain for name, chain, _ in CHAINS if chain.n_stages <= 10}
    for name, chain in chains.items():
        plans = [_build_plan(chain, "forward", basis_ket(chain.sources[0]), None, rules)
                 for rules in (DEFAULT_RULES, PRESERVE_RULES)]
        for q in adversarial_quantiles(chain.n_stages):
            default, alt = (_run(plan, q) for plan in plans)
            assert (default.terminal, default.path) == (alt.terminal, alt.path), (name, q)


def test_intra_packet_quantiles_do_change_with_convention(net):
    default = run_trajectory(net, 0.6, "forward", basis_ket("a"))
    alt = run_trajectory(net, 0.6, "forward", basis_ket("a"), rules=PRESERVE_RULES)
    assert default.states[1].mode == alt.states[1].mode == "d"
    assert abs(default.states[1].quantile - 0.8) <= 1e-12
    assert abs(alt.states[1].quantile - 0.2) <= 1e-12


def test_non_crossing_holds_for_alternate_rules(net):
    rng = np.random.default_rng(43)
    qs = sorted(float(q) for q in rng.uniform(0.001, 0.999, size=40))
    records = [run_trajectory(net, q, "forward", basis_ket("a"), rules=PRESERVE_RULES)
               for q in qs]
    for cut in range(net.n_cuts):
        per_mode: dict[str, list[float]] = {}
        for rec in records:
            per_mode.setdefault(rec.states[cut].mode, []).append(rec.states[cut].quantile)
        for places in per_mode.values():
            ordered = sorted(places)
            for lo, hi in zip(ordered, ordered[1:]):
                assert hi - lo > 1e-12


# ---------------------------------------------------------------------------
# serialization

def test_trajectory_serialization(net):
    rec = run_trajectory(net, 0.25, "reversed", basis_bra("g"))
    blob = rec.to_json()
    assert blob["direction"] == "reversed"
    assert blob["path"] == ["g", "f", "d"]
    assert blob["detector"] == "a"
    assert blob["quantile0"] == 0.25
    assert len(blob["quantiles"]) == 7
    assert any(EMPTY_WAVE_DIAGNOSTIC in d for d in blob["diagnostics"])


def test_ensemble_serialization(net):
    stats = run_ensemble(net, 100, seed=1, direction="forward", terminal_state=basis_ket("a"))
    blob = stats.to_json()
    assert blob["samples"] == 100
    assert blob["seed"] == 1
    assert set(blob["detector_counts"]) == {"G", "H"}
    assert "a>c>e" in blob["conditional_paths"]["G"]
