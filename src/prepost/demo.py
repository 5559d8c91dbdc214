"""End-to-end demonstration suite on the preset double interferometer.

Each item recomputes one closed-form or statistical result from scratch and
reports PASS/FAIL; the CLI ``demo`` subcommand renders the list, and the
acceptance tests run the same checks.  Everything is deterministic given
the seed.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .hilbert import Bra, Ket, adjoint, basis_bra, basis_ket, states_close, _left_sum
from .network import Network, backward_chain, evolve, forward_chain, preset_double_mz
from .pilot import EMPTY_WAVE_DIAGNOSTIC, run_ensemble, run_trajectory
from .pointer import MeasurementSetup, decode_reading, measure_backward, measure_forward
from .twotime import (
    abl_distribution,
    certainty_report,
    spin_observable,
    spin_state,
    spin_two_state,
    two_state_at_cut,
    which_path_set,
)

TOL = 1e-12
_S = 1.0 / math.sqrt(2.0)


@dataclass(frozen=True)
class DemoItem:
    name: str
    passed: bool
    detail: str

    def to_json(self) -> dict:
        return {"detail": self.detail, "name": self.name, "passed": self.passed}


def _item(name: str, passed: bool, detail: str) -> DemoItem:
    return DemoItem(name=name, passed=bool(passed), detail=detail)


def _forward_chain_item(net: Network) -> DemoItem:
    chain = forward_chain(net, basis_ket("a"))
    ok = (
        states_close(chain[1], Ket({"c": _S, "d": 1j * _S}), TOL)
        and states_close(chain[3], Ket({"e": 1j}), TOL)
        and states_close(chain[5], Ket({"g": -_S, "h": 1j * _S}), TOL)
    )
    return _item(
        "forward-chain",
        ok,
        f"a -> {chain[1]} -> {chain[3]} -> {chain[5]}",
    )


def _backward_chain_item(net: Network) -> DemoItem:
    # The backward-traveling state's amplitudes are the conjugates of the
    # evolved functional's entries, i.e. adjoint(bra).
    chain = [adjoint(bra) for bra in backward_chain(net, basis_bra("g"))]
    ok = (
        states_close(chain[4], Ket({"f": _S, "e": -1j * _S}), TOL)
        and states_close(chain[2], Ket({"d": -1j}), TOL)
        and states_close(chain[0], Ket({"a": -_S, "b": -1j * _S}), TOL)
    )
    return _item(
        "backward-chain",
        ok,
        f"g <- {chain[4]} <- {chain[2]} <- {chain[0]}",
    )


def _two_state_item(net: Network) -> DemoItem:
    tsv = two_state_at_cut(net, basis_ket("a"), basis_bra("g"), 1)
    bra, ket = tsv.display_pair()
    ok = (
        states_close(adjoint(tsv.post), Ket({"d": -1j}), TOL)
        and states_close(tsv.pre, Ket({"c": _S, "d": 1j * _S}), TOL)
        and states_close(bra, Bra({"d": 1.0}), TOL)
        and states_close(ket, Ket({"c": -1j * _S, "d": _S}), TOL)
    )
    return _item("two-state-pair", ok, f"between the interferometers: {tsv}")


def _which_path_item(net: Network) -> DemoItem:
    pre, post = basis_ket("a"), basis_bra("g")
    dist1 = abl_distribution(two_state_at_cut(net, pre, post, 1), which_path_set(("c", "d")))
    dist3 = abl_distribution(two_state_at_cut(net, pre, post, 3), which_path_set(("e", "f")))
    ok = (
        abs(dist1["d"] - 1.0) <= TOL
        and dist1["c"] <= TOL
        and abs(dist3["e"] - 1.0) <= TOL
        and dist3["f"] <= TOL
    )
    return _item(
        "which-path-certainty",
        ok,
        f"prob(D=1)={dist1['d']:.12g}, prob(path e)={dist3['e']:.12g}",
    )


def _certainty_report_item(net: Network) -> DemoItem:
    report = certainty_report(net, basis_ket("a"), basis_bra("g"))
    found = {(r.cut, r.mode) for r in report}
    expected = {(0, "a"), (1, "d"), (2, "d"), (3, "e"), (4, "e"), (5, "g"), (6, "g")}
    arms = {m for c, m in found if 1 <= c <= 4}
    ok = found == expected and arms == {"d", "e"}
    return _item(
        "certainty-report",
        ok,
        "certain arms between the splitters: " + ", ".join(sorted(arms)),
    )


def _spin_item() -> DemoItem:
    x = (1.0, 0.0, 0.0)
    n = (0.0, 0.0, 1.0)
    tsv = spin_two_state(spin_state(x, +1), adjoint(spin_state(n, +1)))
    p_x = abl_distribution(tsv, spin_observable(x))["+1/2"]
    p_n = abl_distribution(tsv, spin_observable(n))["+1/2"]
    p_y = abl_distribution(tsv, spin_observable((0.0, 1.0, 0.0)))["+1/2"]
    ok = abs(p_x - 1.0) <= TOL and abs(p_n - 1.0) <= TOL and abs(p_y - 0.5) <= TOL
    return _item(
        "spin-selections",
        ok,
        f"prob(sx=+1/2)={p_x:.12g}, prob(sn=+1/2)={p_n:.12g}, prob(sy=+1/2)={p_y:.12g}",
    )


def _pointer_item(seed: int) -> DemoItem:
    setup = MeasurementSetup(("s0", "s1"), (0.5, -0.5))
    system = Ket({"s0": _S, "s1": _S})
    fwd = measure_forward(setup, system, q1=0.25, seed=seed)
    bwd = measure_backward(setup, adjoint(system), q2=0.25, seed=seed, index=1)
    ok = (
        decode_reading(setup, fwd.q_initial, fwd.q_final) == fwd.deduced
        and decode_reading(setup, bwd.q_final, bwd.q_initial) == bwd.deduced
        and fwd.q_final - fwd.q_initial == fwd.deduced
        and bwd.q_initial - bwd.q_final == bwd.deduced
    )
    return _item(
        "pointer-time-symmetry",
        ok,
        f"forward readings ({fwd.q_initial}, {fwd.q_final}) and backward readings "
        f"({bwd.q_final}, {bwd.q_initial}) both decode by difference",
    )


def _pointer_stats_item(seed: int) -> DemoItem:
    setup = MeasurementSetup(("s0", "s1"), (0.5, -0.5))
    system = Ket({"s0": _S, "s1": _S})
    runs = 2000
    hits = sum(
        1
        for i in range(runs)
        if measure_forward(setup, system, q1=0.0, seed=seed, index=i).deduced == 0.5
    )
    freq = hits / runs
    bound = 3.0 * 0.5 / math.sqrt(runs)
    ok = abs(freq - 0.5) <= bound
    return _item(
        "pointer-born-statistics",
        ok,
        f"outcome +0.5 frequency {freq:.4f} over {runs} runs (expect 0.5 +/- {bound:.4f})",
    )


def _bohm_forward_item(net: Network, seed: int) -> DemoItem:
    lead = run_trajectory(net, 0.25, "forward", basis_ket("a"))
    trail = run_trajectory(net, 0.75, "forward", basis_ket("a"))
    stats = run_ensemble(net, 20000, seed, "forward", basis_ket("a"))
    p_g = stats.frequency("G")
    cond_g = stats.conditional_paths.get("G", {})
    cond_h = stats.conditional_paths.get("H", {})
    ok = (
        lead.path == ("a", "c", "e")
        and lead.terminal == "G"
        and trail.path == ("a", "d", "e")
        and trail.terminal == "H"
        and abs(p_g - 0.5) <= 3.0 * 0.5 / math.sqrt(stats.samples)
        and set(cond_g) == {("a", "c", "e")}
        and set(cond_h) == {("a", "d", "e")}
    )
    return _item(
        "bohm-forward-paths",
        ok,
        f"P(path=c | G)=1, P(path=d | H)=1 over {stats.samples} samples; P(G)={p_g:.4f}",
    )


def _bohm_reversed_truncated_item(net: Network) -> DemoItem:
    quantiles = [k / 64 + 1 / 128 for k in range(64)]
    records = [
        run_trajectory(net, q, "reversed", basis_bra("g")) for q in quantiles
    ]
    to_source = [r for r in records if r.terminal == "a"]
    ok = (
        len(to_source) == 32
        and all(r.path == ("g", "f", "d") for r in to_source)
        and not any(r.path == ("g", "e", "c") for r in records)
        and all(any(EMPTY_WAVE_DIAGNOSTIC in d for d in r.diagnostics) for r in records)
    )
    return _item(
        "bohm-reversed-truncated",
        ok,
        "the g functional alone reaches the source only through f and d "
        "(empty-wave branch missing)",
    )


def _bohm_reversed_full_item(net: Network) -> DemoItem:
    final = forward_chain(net, basis_ket("a"))[-1]
    full_post = adjoint(final)
    ok = True
    for k in range(1, 16):
        q0 = k / 32  # forward quantiles in (0, 1/2) land on G
        fwd = run_trajectory(net, q0, "forward", basis_ket("a"))
        q_rev = 1.0 - fwd.states[-1].quantile
        rev = run_trajectory(net, q_rev, "reversed", full_post, start_mode="g")
        fwd_modes = tuple(s.mode for s in fwd.states)
        rev_modes = tuple(s.mode for s in rev.states)
        ok = ok and rev_modes == tuple(reversed(fwd_modes)) and not rev.diagnostics
    return _item(
        "bohm-reversed-full",
        ok,
        "with the empty wave included, reversed runs retrace g -> e -> c -> a",
    )


def _measured_intermediate_item(net: Network) -> DemoItem:
    # Actually performing the which-path measurement: project, renormalize,
    # evolve to the detectors, and condition on the postselection.
    pre, post = basis_ket("a"), basis_bra("g")
    mid = evolve(net, pre, 0, 1)
    joint = {}
    for mode in ("c", "d"):
        amp = mid[mode]
        weight = abs(amp) ** 2
        if weight <= TOL:
            joint[mode] = 0.0
            continue
        collapsed = Ket({mode: amp / abs(amp)})
        arrived = evolve(net, collapsed, 1, net.n_stages)
        joint[mode] = weight * abs(post.pair(arrived)) ** 2
    total = _left_sum(joint.values())
    p_d = joint["d"] / total
    ok = abs(p_d - 1.0) <= TOL and joint["c"] <= TOL
    return _item(
        "measured-intermediate-path",
        ok,
        f"with the which-path measurement performed, P(found in d | G) = {p_d:.12g}",
    )


def run_demo(seed: int = 0) -> list[DemoItem]:
    """Run every demonstration item; deterministic for a fixed seed."""
    net = preset_double_mz()
    return [
        _forward_chain_item(net),
        _backward_chain_item(net),
        _two_state_item(net),
        _which_path_item(net),
        _certainty_report_item(net),
        _spin_item(),
        _pointer_item(seed),
        _pointer_stats_item(seed),
        _bohm_forward_item(net, seed),
        _bohm_reversed_truncated_item(net),
        _bohm_reversed_full_item(net),
        _measured_intermediate_item(net),
    ]


def network_diagram(net: Network, certain: set[tuple[int, str]] | None = None) -> list[str]:
    """Per-cut ASCII sketch of the network, starring certain which-path modes."""
    certain = certain or set()
    lines = []
    for cut in range(net.n_cuts):
        marks = [
            m + ("*" if (cut, m) in certain else "")
            for m in net.live[cut]
        ]
        lines.append(f"cut {cut}:  " + "  ".join(marks))
        if cut < net.n_stages:
            descs = []
            for el in net.stages[cut]:
                if el.kind == "beamsplitter":
                    descs.append(f"BS({','.join(el.ins)} -> {','.join(el.outs)})")
                elif el.kind == "mirror":
                    descs.append(f"M({el.ins[0]} -> {el.outs[0]})")
                else:
                    descs.append(f"D[{el.name}]({el.ins[0]})")
            lines.append("   |    " + "  ".join(descs))
    return lines
