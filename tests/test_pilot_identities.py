"""The pilot-wave identities, pinned on the exact route partition.

``_partition`` splits the draw numerators [0, 2^53) into pieces by route, so
three claims can be stated over every start quantile at once:

* equivariance (Bell 1986): the pieces' masses (hi - lo) / 2^53, weighted by
  the Born weight of their start mode, sum per detector, and per mode at
  every cut, to the |amplitude|^2 Born weight of the wave there;
* time symmetry (Englert-Scully-Suessmann-Walther 1992): under the full final
  functional, the reversed partition from a final mode X is the image under
  q -> 1 - q of the forward pieces that end at X, each route reversed, and
  every forward run retraces when reversed from its reflected final cell;
* size: a partition has at most 1 + 2 * (number of beamsplitters) pieces, so
  ensembles never grow exponentially with depth.
"""
from __future__ import annotations

import random

import pytest

from prepost.hilbert import Ket, adjoint, basis_bra
from prepost.network import Network, backward_chain, build_network, forward_chain
from prepost.pilot import (
    DEFAULT_RULES,
    OCCUPANCY_TOL,
    RuleTable,
    TrajectoryError,
    _build_plan,
    _partition,
    _run,
    _transfer,
)
from test_pilot_classify import BOUNDARY_CHAINS, FAINT_START, three_rail_mesh

RULES = {"reverse": DEFAULT_RULES, "preserve": RuleTable(reverse_on_bs_reflection=False)}
FULL = 1 << 53
MASS_TOL = 1e-12
# Pieces lighter than this (in Born weight) are left out of the time-symmetry
# comparison: a route lighter than one draw numerator can have a piece in one
# direction and none in the other, and a piece a few numerators wide has no
# draw far enough from its edges to retrace despite float rounding.
RESOLVED = 1e-12


def balanced_mesh(rng: random.Random, rails: int, depth: int, pairs: int) -> Network:
    """``rails`` rails advancing one stage at a time; each stage joins ``pairs``
    seeded rail pairs at beamsplitters and mirrors the other rails in place.
    Every cut-0 rail is a source."""
    current = [f"r{i}" for i in range(rails)]
    modes, stages = list(current), []
    for _ in range(depth):
        order = list(current)
        rng.shuffle(order)
        elements = []
        for u, v in zip(order[:2 * pairs:2], order[1:2 * pairs:2]):
            x, y = f"m{len(modes)}", f"m{len(modes) + 1}"
            modes += [x, y]
            elements.append({"type": "beamsplitter", "in": [u, v], "out": [x, y]})
            current[current.index(u)], current[current.index(v)] = x, y
        elements += [{"type": "mirror", "in": m, "out": m} for m in order[2 * pairs:]]
        stages.append({"elements": elements})
    return build_network({"modes": modes, "stages": stages, "detectors": {}})


def fed_on_all_rails(rng: random.Random, net: Network) -> Ket:
    """A normalized ket with seeded Gaussian amplitudes on every entry rail."""
    amps = {m: complex(rng.gauss(0, 1), rng.gauss(0, 1)) for m in net.live[0]}
    norm = sum(abs(a) ** 2 for a in amps.values()) ** 0.5
    return Ket({m: a / norm for m, a in amps.items()})


def pieces(net, direction, state, start_mode, rules):
    """``(mass, modes)`` per piece of the partition from ``start_mode``:
    ``modes`` is the mode at every cut in traversal order, read from the run
    of the piece's first draw."""
    plan = _build_plan(net, direction, state, start_mode, rules)
    edges, _ = _partition(plan)
    bounds = [0, *edges, FULL]
    return [((hi - lo) / FULL, tuple(s.mode for s in _run(plan, lo / FULL).states))
            for lo, hi in zip(bounds, bounds[1:])]


def born(chain, cut) -> dict[str, float]:
    total = sum(abs(a) ** 2 for a in chain[-1].entries.values())
    return {m: abs(a) ** 2 / total for m, a in chain[cut].entries.items()}


def occupied(state) -> list[str]:
    return [m for m, a in state.entries.items() if abs(a) > OCCUPANCY_TOL]


def runs(net, entry: Ket):
    """(direction, state, chain) of the forward run from ``entry``, the
    reversed run under the full final functional, and the reversed run from
    a one-port functional (the empty-wave case)."""
    fwd = forward_chain(net, entry)
    full = adjoint(fwd[-1])
    one_port = basis_bra(occupied(fwd[-1])[0])
    return [("forward", entry, fwd),
            ("reversed", full, backward_chain(net, full)),
            ("reversed", one_port, backward_chain(net, one_port))]


def check_equivariance(net, entry, rules):
    for direction, state, chain in runs(net, entry):
        start_cut = 0 if direction == "forward" else net.n_stages
        starts = born(chain, start_cut)
        mass: dict[tuple[int, str], float] = {}
        for start in occupied(state if direction == "reversed" else chain[0]):
            for m, modes in pieces(net, direction, state, start, rules):
                for step, mode in enumerate(modes):
                    cut = step if direction == "forward" else net.n_stages - step
                    mass[cut, mode] = mass.get((cut, mode), 0.0) + starts[start] * m
        for cut in range(net.n_cuts):
            weights = born(chain, cut)
            for mode in set(weights) | {m for c, m in mass if c == cut}:
                assert abs(mass.get((cut, mode), 0.0) - weights.get(mode, 0.0)) <= MASS_TOL, (
                    direction, cut, mode)
        if direction == "forward" and net.detectors:
            final = born(chain, net.n_stages)
            for name in set(net.detectors.values()):
                arms = [m for m, d in net.detectors.items() if d == name]
                got = sum(v for (c, m), v in mass.items() if c == net.n_stages and m in arms)
                assert abs(got - sum(final.get(m, 0.0) for m in arms)) <= MASS_TOL, name


def transport(plan, position):
    """The mode at every cut and the final exact cell of the particle at
    ``position``, stepped element by element."""
    mode, modes = plan.start_mode, [plan.start_mode]
    for branchings in plan.branchings:
        if mode in branchings:
            mode, position = _transfer(mode, position, branchings[mode])
        modes.append(mode)
    return modes, position


def check_time_symmetry(net, entry, rules):
    fwd = forward_chain(net, entry)
    full = adjoint(fwd[-1])
    starts, finals = born(fwd, 0), born(fwd, net.n_stages)
    # Forward pieces by final mode, each with its mass, route and the final
    # cell of its middle draw.
    ending: dict[str, list] = {}
    for start in occupied(entry):
        plan = _build_plan(net, "forward", entry, start, rules)
        edges, _ = _partition(plan)
        bounds = [0, *edges, FULL]
        for lo, hi in zip(bounds, bounds[1:]):
            mass, mid = starts[start] * (hi - lo) / FULL, (lo + hi) // 2
            modes, (num, den, side) = transport(plan, (mid, FULL, 1))
            if mass > RESOLVED:
                ending.setdefault(modes[-1], []).append(
                    (num / den, mass, modes, mid, (den - num, den, -side)))
    for final_mode, forward_pieces in ending.items():
        plan = _build_plan(net, "reversed", full, final_mode, rules)
        # The reversed partition, in start order, is the image of the forward
        # pieces in reflected final order: routes reversed, masses equal.
        forward_pieces.sort(key=lambda piece: -piece[0])
        reversed_pieces = [(mass, modes) for mass, modes in
                           pieces(net, "reversed", full, final_mode, rules)
                           if finals[final_mode] * mass > RESOLVED]
        assert [modes[::-1] for *_, modes, _, _ in forward_pieces] == [
            list(modes) for _, modes in reversed_pieces], final_mode
        for (_, fwd_mass, *_), (rev_mass, _) in zip(forward_pieces, reversed_pieces):
            assert abs(fwd_mass - finals[final_mode] * rev_mass) <= MASS_TOL, final_mode
        # Each middle draw retraces from its reflected final cell.
        for _, _, modes, mid, reflected in forward_pieces:
            back, (num, den, _) = transport(plan, reflected)
            assert back == modes[::-1], (final_mode, mid)
            assert abs(num / den - (1 - mid / FULL)) <= MASS_TOL, (final_mode, mid)


def check_size(net, entry, rules):
    splitters = sum(el.kind == "beamsplitter" for stage in net.stages for el in stage)
    for direction, state, chain in runs(net, entry):
        for start in occupied(state if direction == "reversed" else chain[0]):
            edges, outcomes = _partition(_build_plan(net, direction, state, start, rules))
            assert len(outcomes) == len(edges) + 1 <= 1 + 2 * splitters, (direction, start)


CHAIN_NETS = {name: net for (name, net, _), _ in BOUNDARY_CHAINS}
CHECKS = {"equivariance": check_equivariance, "time-symmetry": check_time_symmetry,
          "size": check_size}


@pytest.mark.parametrize("check", CHECKS.values(), ids=CHECKS.keys())
@pytest.mark.parametrize("rules", RULES.values(), ids=RULES.keys())
@pytest.mark.parametrize("name", CHAIN_NETS)
def test_identities_on_chains(name, rules, check):
    net = CHAIN_NETS[name]
    check(net, Ket({net.sources[0]: 1.0 + 0j}), rules)


# Seeded balanced meshes, fed on every rail with seeded amplitudes: their
# beamsplitters meet unequal and partly interfering inputs.
MESHES = {f"mesh-{rails}": (rails, depth, pairs)
          for rails, depth, pairs in ((8, 8, 3), (16, 6, 5), (32, 4, 8))}


@pytest.mark.parametrize("check", CHECKS.values(), ids=CHECKS.keys())
@pytest.mark.parametrize("rules", RULES.values(), ids=RULES.keys())
@pytest.mark.parametrize("name", MESHES)
def test_identities_on_meshes(name, rules, check):
    rng = random.Random(name)
    net = balanced_mesh(rng, *MESHES[name])
    check(net, fed_on_all_rails(rng, net), rules)


def faint_start_cases():
    """(network, entry ket, start mode): the three-rail mesh from a start
    rail of 1.5e-12, and of 1.2e-12, whose splitter leaves both outputs at
    8.5e-13; and seeded balanced meshes fed on every rail, the start rail
    carrying 1.1e-12 to 2e-12."""
    cases = [pytest.param(three_rail_mesh(), FAINT_START, "r0", id="three-rail"),
             pytest.param(three_rail_mesh(), Ket({"r0": 1.2e-12, "r2": 1.0}), "r0",
                          id="three-rail-1.2e-12")]
    for seed in range(6):
        rng = random.Random(seed)
        rails = rng.randint(3, 16)
        net = balanced_mesh(rng, rails, rng.randint(2, 6), rng.randint(1, rails // 2))
        entries = dict(fed_on_all_rails(rng, net).entries)
        start = rng.choice(net.live[0])
        entries[start] = rng.uniform(1.1e-12, 2e-12) * entries[start] / abs(entries[start])
        cases.append(pytest.param(net, Ket(entries), start, id=f"mesh-{seed}"))
    return cases


@pytest.mark.parametrize("rules", RULES.values(), ids=RULES.keys())
@pytest.mark.parametrize("net,entry,start", faint_start_cases())
def test_particles_ride_occupied_ports_only(net, entry, start, rules):
    # Every trajectory that does not raise has |amplitude| > OCCUPANCY_TOL
    # on its port at every cut: at 64 midpoints and at every piece's start.
    chain = forward_chain(net, entry)
    plan = _build_plan(net, "forward", entry, start, rules)
    edges, _ = _partition(plan)
    for q in [(k + 0.5) / 64 for k in range(64)] + [lo / FULL for lo in (0, *edges)]:
        try:
            rec = _run(plan, q)
        except TrajectoryError:
            continue
        for state in rec.states:
            assert abs(chain[state.cut][state.mode]) > OCCUPANCY_TOL, (q, state)
