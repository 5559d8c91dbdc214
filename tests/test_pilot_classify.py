"""Ensembles counted against the route partition, and transported draw by draw.

``run_ensemble`` counts its draws against the exact partition of the start
quantiles by route (see the ``prepost.pilot`` module docstring).
``reference_ensemble`` keeps the loop it replaced, which transports every
draw ``derive_stream(seed, i).random()`` on its own; the two must agree
exactly, down to dict order and to the exception a failing draw raises.
``_run`` and the partition share one walk, so the per-draw transport here,
``reference_run``, is written out independently of both.
"""
from __future__ import annotations

import hashlib
import importlib.util
import json
import math
import random
import tracemalloc
from bisect import bisect_right
from pathlib import Path

import numpy as np
import pytest

from conftest import random_balanced_network
from prepost.cli import main
from prepost.hilbert import Ket, adjoint, basis_bra, basis_ket
from prepost.network import (
    PRESET_DOUBLE_MZ,
    Network,
    build_network,
    forward_chain,
    preset_double_mz,
)
from prepost.pilot import (
    DEFAULT_RULES,
    EnsembleStats,
    ParticleState,
    RuleTable,
    TrajectoryError,
    TrajectoryRecord,
    _build_plan,
    _partition,
    _run,
    run_ensemble,
)
from prepost.rng import _BLOCK as BLOCK, derive_stream

# The benchmark's independent stdlib reference, loaded from its file.
_ORACLE_SPEC = importlib.util.spec_from_file_location(
    "perfbench_oracle", Path(__file__).resolve().parents[1] / "perfbench" / "oracle.py")
oracle = importlib.util.module_from_spec(_ORACLE_SPEC)
_ORACLE_SPEC.loader.exec_module(oracle)

RULES = (DEFAULT_RULES, RuleTable(reverse_on_bs_reflection=False))
SEEDS = range(10)
SIZES = (1, 3, 50, 2000)


def reference_transfer(mode, position, branching):
    """One element's rule, the entry of ``plan.branchings`` for the port of
    ``mode``, applied to the exact cell ``position`` = ``(num, den, side)``:
    the cell just above (side +1) or just below (side -1) num/den lies below
    the threshold tn/td iff num/den < tn/td (side +1) or num/den <= tn/td
    (side -1), and the branch taken, x -> (scale*x + shift) / div, maps it
    to the cell at its image, on the flipped side if scale < 0."""
    if isinstance(branching, TrajectoryError):
        raise branching
    num, den, side = position
    (tn, td), branches = branching
    below = num * td < tn * den if side > 0 else num * td <= tn * den
    out, (scale, shift, div) = branches[0] if below else branches[-1]
    return out, (scale * num + shift * den, den * div, side if scale > 0 else -side)


def reference_run(plan, q0: float) -> TrajectoryRecord:
    """The particle at the cell just above ``q0``, stepped element by element
    with ``reference_transfer``; a mode with no port in a stage passes through."""
    mode, position = plan.start_mode, (*q0.as_integer_ratio(), 1)
    states = [ParticleState(mode=mode, quantile=q0, cut=plan.cuts[0])]
    for branchings, cut in zip(plan.branchings, plan.cuts[1:]):
        if mode in branchings:
            mode, position = reference_transfer(mode, position, branchings[mode])
        states.append(ParticleState(mode=mode, quantile=position[0] / position[1], cut=cut))
    return TrajectoryRecord(direction=plan.direction, quantile0=q0, states=tuple(states),
                            terminal=plan.terminal_names.get(mode, mode),
                            diagnostics=plan.diagnostics)


def reference_ensemble(net, samples, seed, direction="forward", terminal_state=None,
                       start_mode=None, rules=DEFAULT_RULES):
    """The per-draw loop: every draw is transported with ``reference_run``."""
    if terminal_state is None:
        terminal_state = Ket({net.sources[0]: 1.0 + 0j})
    plan = _build_plan(net, direction, terminal_state, start_mode, rules)
    detector_counts: dict[str, int] = {}
    conditional: dict[str, dict[tuple[str, ...], int]] = {}
    for i in range(samples):
        rec = reference_run(plan, derive_stream(seed, i).random())
        detector_counts[rec.terminal] = detector_counts.get(rec.terminal, 0) + 1
        paths = conditional.setdefault(rec.terminal, {})
        paths[rec.path] = paths.get(rec.path, 0) + 1
    return EnsembleStats(
        samples=samples,
        seed=seed,
        direction=direction,
        detector_counts=detector_counts,
        conditional_paths=conditional,
        diagnostics=plan.diagnostics,
    )


def outcome(fn, *args, **kwargs) -> tuple[str, str]:
    """``repr`` of the result, or the type and message of the exception."""
    try:
        return "ok", repr(fn(*args, **kwargs))
    except TrajectoryError as exc:
        return type(exc).__name__, str(exc)


def mz_cascade(rng: random.Random, splitters: int) -> Network:
    """A chain of balanced beamsplitters on two rails fed from ``a``, with
    seeded port orders and mirror stages (in place or relabelling)."""
    rails, modes, stages = ["a", "b"], ["a", "b"], []

    def fresh():
        modes.append(f"c{len(modes)}")
        return modes[-1]

    for _ in range(splitters):
        ins = list(rails)
        rng.shuffle(ins)
        rails = [fresh(), fresh()]
        stages.append({"elements": [{"type": "beamsplitter", "in": ins, "out": rails}]})
        if rng.random() < 0.5:
            outs = [fresh() if rng.random() < 0.5 else m for m in rails]
            stages.append({"elements": [{"type": "mirror", "in": m, "out": o}
                                        for m, o in zip(rails, outs)]})
            rails = outs
    return build_network({"modes": modes, "sources": ["a"], "stages": stages,
                          "detectors": {rails[0]: "G", rails[1]: "H"}})


def cases(net: Network, all_ports: bool) -> list[tuple]:
    """(direction, terminal state, start mode) runs of a two-rail chain:
    forward, reversed with the full final functional (from every occupied
    port, or the first), and reversed with a one-port functional (the
    empty-wave case)."""
    final = forward_chain(net, basis_ket(net.sources[0]))[-1]
    occupied = sorted(m for m, a in final.entries.items() if abs(a) > 1e-12)
    runs = [("forward", None, None)]
    runs += [("reversed", adjoint(final), m) for m in (occupied if all_ports else occupied[:1])]
    runs.append(("reversed", basis_bra(occupied[0]), None))
    return runs


# The preset under both reflection rules; cascades of 1-8 splitters under
# alternating rules, which keeps the per-draw reference affordable.
CHAINS = [("preset", preset_double_mz(), rules) for rules in RULES] + [
    (f"cascade-{n}", mz_cascade(random.Random(f"cascade-{n}"), n), RULES[n % 2])
    for n in range(1, 9)
]
CHAIN_IDS = [f"{name}-{'reverse' if rules is DEFAULT_RULES else 'preserve'}"
             for name, _, rules in CHAINS]


@pytest.mark.parametrize("name,net,rules", CHAINS, ids=CHAIN_IDS)
def test_ensemble_equals_per_draw_transport(name, net, rules):
    for direction, terminal, start_mode in cases(net, all_ports=name == "preset"):
        for seed in SEEDS:
            for samples in SIZES:
                args = (net, samples, seed, direction, terminal, start_mode, rules)
                assert outcome(run_ensemble, *args) == outcome(reference_ensemble, *args), (
                    direction, seed, samples)


@pytest.mark.parametrize("rules", RULES, ids=("reverse", "preserve"))
def test_mesh_ensembles_equal_per_draw_transport(rules):
    # Balanced meshes fed on some of their rails, where beamsplitters meet
    # unequal and partly interfering inputs: every route is transported.
    rng = np.random.default_rng(7)
    kinds = set()
    for _ in range(4):
        net = random_balanced_network(rng, n_rails=3)
        rails = list(net.live[0])
        pair = sorted(str(m) for m in rng.choice(rails, size=2, replace=False))
        supports = [rails, rails, pair, rails[:1]]
        for n, support in enumerate(supports):
            amps = np.ones(len(support)) if n == 1 else rng.normal(size=len(support))
            ket = Ket({m: complex(a) for m, a in zip(support, amps / np.linalg.norm(amps))})
            for seed in SEEDS:
                for samples in SIZES:
                    args = (net, samples, seed, "forward", ket, support[0], rules)
                    expected = outcome(reference_ensemble, *args)
                    assert outcome(run_ensemble, *args) == expected, (seed, samples)
                    kinds.add(expected[0])
    assert kinds == {"ok"}


def test_ensembles_across_draw_block_edges_equal_per_draw_transport():
    # Sizes one and two blocks past an edge of substream_draws' kernel, on a
    # cascade reversed with its full functional and forward under the
    # preserve rule.
    net = mz_cascade(random.Random("block-edges"), 4)
    runs = [(direction, terminal, start_mode, DEFAULT_RULES)
            for direction, terminal, start_mode in cases(net, all_ports=True)
            if direction == "reversed" and start_mode is not None]
    assert runs
    runs.append(("forward", None, None, RULES[1]))
    for direction, terminal, start_mode, rules in runs:
        for seed in (0, 2 ** 64 - 1):
            for samples in (BLOCK + 1, 2 * BLOCK + 3):
                args = (net, samples, seed, direction, terminal, start_mode, rules)
                assert repr(run_ensemble(*args)) == repr(reference_ensemble(*args)), (
                    direction, seed, samples)


# sha256 of the stdout of ``bohm --preset`` ensembles, recorded before draws
# were computed by substream_draws.
GOLDEN_BOHM = [
    (["--samples", "100000", "--seed", "1", "--format", "json"],
     "81d5ae900514418bca3c367da59335d056d4ef2b6c020340f50198ac8dd6b3b6"),
    (["--samples", "8195", "--seed", "18446744073709551615", "--format", "text"],
     "842249f7e780fd94bd4bc9d12b8a45764a5e5c46232d55a0f5a5534206abc09a"),
]


@pytest.mark.parametrize("argv,digest", GOLDEN_BOHM, ids=("json-100000", "text-8195"))
def test_bohm_ensemble_output_is_golden(argv, digest, capsys):
    assert main(["bohm", "--preset", *argv]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


# sha256 of stdout and stderr of ``bohm --network`` ensembles on two seeded
# cascades, recorded while draws were still classified one by one: one
# reversed from a one-port functional (the empty-wave diagnostic) with
# ``--start-mode``, one forward under the order-preserving rule.
GOLDEN_CASCADES = {
    "reversed": (7, ["--samples", "9000", "--seed", "5", "--direction", "reversed"]),
    "preserve": (5, ["--samples", "12000", "--seed", "2", "--reflection-rule", "preserve"]),
}
GOLDEN_NETWORK_BOHM = [
    ("reversed", "text",
     "7abf94607be32c2786f2e25613b88ba4c76b028786f85725bc512bf95cc67f2e"),
    ("reversed", "json",
     "b12290ef2c6514fd9438eec96901539126fe3bb76bea2e8a978a78e401f3f1bb"),
    ("preserve", "text",
     "4ce492334a26d366b8333489ce19b0ebf089ccd93db7dbec0916d4e038c98809"),
    ("preserve", "json",
     "c112ccf63c367869c9b78420427c2ec4ebce37fba8f20d7087b8e5db41b1ddf1"),
]


@pytest.mark.parametrize("name,fmt,digest", GOLDEN_NETWORK_BOHM,
                         ids=[f"{name}-{fmt}" for name, fmt, _ in GOLDEN_NETWORK_BOHM])
def test_bohm_network_ensemble_output_is_golden(name, fmt, digest, tmp_path, capsys):
    splitters, argv = GOLDEN_CASCADES[name]
    net = mz_cascade(random.Random(f"golden-{name}"), splitters)
    path = tmp_path / "net.json"
    path.write_text(json.dumps(description(net)), encoding="utf-8")
    if name == "reversed":
        port = cases(net, all_ports=False)[-1][1].support[0]
        argv = [*argv, "--post", f"{port}:1,0", "--start-mode", port]
    assert main(["bohm", "--network", str(path), *argv, "--format", fmt]) == 0
    captured = capsys.readouterr()
    if name == "reversed":
        assert "empty-wave component absent" in captured.out + captured.err
    text = captured.out + "\0" + captured.err
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest


def test_large_preset_ensemble_equals_per_draw_transport():
    net = preset_double_mz()
    assert repr(run_ensemble(net, 100_000, 3)) == repr(reference_ensemble(net, 100_000, 3))


def adversarial_quantiles(n_stages: int) -> list[float]:
    """Quantiles where a route can change: 0, the dyadic rationals k/2^m
    for m <= n_stages (1/2 among them), where a cell meets a rule's
    boundary at 1/2 or an edge of its packet, their neighbours, and the
    largest double below 1."""
    points = {0.0, 1.0 - 2.0 ** -53}
    denominator = 2 ** n_stages
    for k in range(1, denominator):
        q = k / denominator
        points |= {math.nextafter(q, 0.0), q, math.nextafter(q, 1.0)}
    return sorted(points)


# Chains of at most 10 stages (up to 3 * 2^10 adversarial quantiles per
# run), and the preset with one detector on both final arms: there routes
# that differ only in the detected arm share (terminal, path), so only the
# modes at every cut tell them apart.
BOUNDARY_CHAINS = [(chain, i) for chain, i in zip(CHAINS, CHAIN_IDS) if chain[1].n_stages <= 10]
BOUNDARY_CHAINS.append((
    ("preset-one-detector",
     build_network({**PRESET_DOUBLE_MZ, "detectors": {"g": "D", "h": "D"}}), DEFAULT_RULES),
    "preset-one-detector-reverse",
))


def adversarial_draws(n_stages: int) -> list[int]:
    """Draw numerators (the draw is k / 2^53) where a route can change: the
    multiples K of 2^(53 - n_stages), where a cell meets a rule's boundary
    at 1/2 or an edge of its packet, their neighbours K - 1 and K + 1, and
    the largest numerator."""
    step = 2 ** (53 - n_stages)
    points = {k * step + d for k in range(2 ** n_stages) for d in (-1, 0, 1)}
    return sorted((points - {-1}) | {2 ** 53 - 1})


@pytest.mark.parametrize("name,net,rules", [c for c, _ in BOUNDARY_CHAINS],
                         ids=[i for _, i in BOUNDARY_CHAINS])
def test_classification_at_branch_boundaries(name, net, rules):
    # The partition gives every adversarial draw, and two seeded draws per
    # adversarial one, the terminal and path of reference_run; and the first
    # and last draw of every piece take the same mode at every cut, which
    # tells apart the routes of the one-detector preset.
    rng = random.Random(f"{name}-{rules.reverse_on_bs_reflection}")
    for direction, terminal, start_mode in cases(net, all_ports=True):
        if terminal is None:
            terminal = basis_ket(net.sources[0])
        plan = _build_plan(net, direction, terminal, start_mode, rules)
        edges, outcomes = _partition(plan)
        draws = []
        for k in adversarial_draws(net.n_stages):
            draws += [k, rng.getrandbits(53), rng.getrandbits(53)]
        for k in draws:
            rec = reference_run(plan, k * 2.0 ** -53)
            assert outcomes[bisect_right(edges, k)] == (rec.terminal, rec.path), k
        bounds = [0, *edges, 2 ** 53]
        for lo, hi in zip(bounds, bounds[1:]):
            first, last = (reference_run(plan, k * 2.0 ** -53) for k in (lo, hi - 1))
            assert [s.mode for s in first.states] == [s.mode for s in last.states], lo


def description(net: Network) -> dict:
    """The network description ``build_network`` built ``net`` from (its
    detector stage is implied by ``detectors``)."""
    stages = net.stages[:-1] if net.detectors else net.stages
    return {
        "modes": list(net.modes),
        "sources": list(net.sources),
        "detectors": dict(net.detectors),
        "stages": [{"elements": [
            {"type": "beamsplitter", "in": list(el.ins), "out": list(el.outs)}
            if el.kind == "beamsplitter" else {"type": el.kind, "in": el.ins[0], "out": el.outs[0]}
            for el in stage]} for stage in stages],
    }


@pytest.mark.parametrize("name,net,rules", [c for c, _ in BOUNDARY_CHAINS],
                         ids=[i for _, i in BOUNDARY_CHAINS])
def test_routes_equal_the_oracle_partition(name, net, rules):
    # The oracle pushes the whole unit interval through the network and
    # returns its half-open (terminal, path) pieces; the route of every
    # start quantile where a rule switches branch is that of its piece, and
    # its record, quantile by quantile, that of reference_run.
    reference = oracle.Network(description(net))
    for direction, terminal, start_mode in cases(net, all_ports=True):
        if terminal is None:
            terminal = basis_ket(net.sources[0])
        plan = _build_plan(net, direction, terminal, start_mode, rules)
        pieces = reference.pieces(direction, terminal.entries, plan.start_mode,
                                  rules.reverse_on_bs_reflection)
        los = [lo for lo, *_ in pieces]
        for q in adversarial_quantiles(net.n_stages):
            lo, hi, piece_terminal, piece_path = pieces[bisect_right(los, q) - 1]
            assert lo <= q < hi
            rec = _run(plan, q)
            assert (rec.terminal, rec.path) == (piece_terminal, piece_path), (
                direction, start_mode, q)
            assert rec == reference_run(plan, q), (direction, start_mode, q)


@pytest.mark.parametrize("name,net,rules", [c for c, _ in BOUNDARY_CHAINS],
                         ids=[i for _, i in BOUNDARY_CHAINS])
def test_partition_equals_the_oracle_partition(name, net, rules):
    # Piece for piece: start edge (the oracle's lo as a draw numerator),
    # terminal and path, forward, reversed and from a one-port functional.
    reference = oracle.Network(description(net))
    for direction, terminal, start_mode in cases(net, all_ports=True):
        if terminal is None:
            terminal = basis_ket(net.sources[0])
        plan = _build_plan(net, direction, terminal, start_mode, rules)
        edges, outcomes = _partition(plan)
        pieces = reference.pieces(direction, terminal.entries, plan.start_mode,
                                  rules.reverse_on_bs_reflection)
        assert [(lo, *outcome) for lo, outcome in zip([0, *edges], outcomes)] == [
            (math.ceil(lo * 2 ** 53), piece_terminal, piece_path)
            for lo, _, piece_terminal, piece_path in pieces], (direction, start_mode)


def three_rail_mesh() -> Network:
    """r0 and r1 meet at a splitter; its output m0 then meets r2 at a
    second splitter, while m1 and r2 are mirrored in place."""
    return build_network({"modes": ["r0", "r1", "r2", "m0", "m1", "m2", "m3"], "stages": [
        {"elements": [{"type": "beamsplitter", "in": ["r0", "r1"], "out": ["m0", "m1"]},
                      {"type": "mirror", "in": "r2", "out": "r2"}]},
        {"elements": [{"type": "beamsplitter", "in": ["m0", "r2"], "out": ["m2", "m3"]},
                      {"type": "mirror", "in": "m1", "out": "m1"}]},
    ]})


# The start rail r0 carries 1.5e-12, just above OCCUPANCY_TOL, and r1
# 1.5e-13i: their splitter leaves 9.5e-13 on m0 and 1.17e-12 on m1.
FAINT_START = Ket({"r0": 1.5e-12, "r1": 1.5e-13j, "r2": 1.0})


def test_a_faint_start_rides_its_one_occupied_output(tmp_path, capsys):
    # m0 is empty, so every particle from r0 rides m1 to the end: at every
    # quantile, in every draw of an ensemble, and through the CLI.
    net = three_rail_mesh()
    plan = _build_plan(net, "forward", FAINT_START, "r0", DEFAULT_RULES)
    assert _partition(plan) == ((), (("m1", ("r0",)),))
    for q in adversarial_quantiles(net.n_stages) + [(k + 0.5) / 64 for k in range(64)]:
        rec = _run(plan, q)
        assert (rec.terminal, rec.path) == ("m1", ("r0",)), q
    for seed in range(3):
        stats = run_ensemble(net, 500, seed, "forward", FAINT_START, "r0")
        assert stats.conditional_paths == {"m1": {("r0",): 500}}
    path = tmp_path / "mesh.json"
    path.write_text(json.dumps(description(net)), encoding="utf-8")
    assert main(["bohm", "--network", str(path), "--pre", "r0:1.5e-12,0;r1:0,1.5e-13;r2:1,0",
                 "--start-mode", "r0", "--quantile", "0.1"]) == 0
    assert "terminal: m1" in capsys.readouterr().out


def test_draws_miss_a_raising_piece():
    # The start rail r0 carries amplitude 1.8e-12, just above OCCUPANCY_TOL.
    # Its splitter sends the leading half of its packet to m0, of amplitude
    # 1.27e-12, which meets the empty port r3 at the next splitter: both of
    # that splitter's outputs, of 9e-13, are empty, so those routes raise.
    # The trailing half rides m1 to the end, and an ensemble none of whose
    # draws lands on m0 returns its counts.
    net = build_network({"modes": ["r0", "r1", "r2", "r3", "r4", "m0", "m1", "m2", "m3"],
                         "stages": [
        {"elements": [{"type": "beamsplitter", "in": ["r0", "r1"], "out": ["m0", "m1"]},
                      {"type": "mirror", "in": "r2", "out": "r2"},
                      {"type": "mirror", "in": "r4", "out": "r3"}]},
        {"elements": [{"type": "beamsplitter", "in": ["m0", "r3"], "out": ["m2", "m3"]},
                      {"type": "mirror", "in": "m1", "out": "m1"}]},
    ]})
    ket = Ket({"r0": 1.8e-12, "r2": 1.0})
    kinds = set()
    for seed in range(12):
        for samples in (1, 2):
            args = (net, samples, seed, "forward", ket, "r0")
            expected = outcome(reference_ensemble, *args)
            assert outcome(run_ensemble, *args) == expected, (seed, samples)
            kinds.add(expected[0])
    assert kinds == {"ok", "TrajectoryError"}


def test_ensemble_memory_stays_per_block():
    # Draws are counted a block at a time: a million samples never hold a
    # list of all draws (8 MB of pointers alone).
    net = preset_double_mz()
    tracemalloc.start()
    try:
        stats = run_ensemble(net, 10 ** 6, 9)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sum(stats.detector_counts.values()) == 10 ** 6
    assert peak < 2 ** 20
