"""One traversal per selection: stage-application counts, the support
check shared by ``evolve`` and the two chains, and the traversal's bits
against contracting the stage couplings one by one."""
from __future__ import annotations

import json
import random

import numpy as np
import pytest

from conftest import contract, random_balanced_network
from prepost import cli, network
from prepost.cli import main
from prepost.hilbert import Bra, Ket, adjoint, basis_ket
from prepost.network import (UnknownModeError, backward_chain, build_network, evolve,
                             forward_chain, preset_double_mz)
from prepost.twotime import certainty_report
from test_pilot_classify import BOUNDARY_CHAINS, mz_cascade


@pytest.fixture
def stage_applications(monkeypatch):
    """Counts every stage contracted with a ket or a bra by the network layer."""
    counter = {"n": 0}
    contract = network._contract

    def counting(*args):
        counter["n"] += 1
        return contract(*args)

    monkeypatch.setattr(network, "_contract", counting)
    return counter


def _literal(state) -> str:
    return ";".join(f"{m}:{a.real!r},{a.imag!r}" for m, a in sorted(state.entries.items()))


def _selections():
    """(network, pre, post) on the preset and a seeded cascade; the post
    functional selects the whole final wave, so the pairing is 1."""
    cases = []
    for net in (preset_double_mz(), mz_cascade(random.Random(7), 5)):
        pre = basis_ket(net.sources[0])
        post = adjoint(forward_chain(net, pre)[-1])
        cases.append((net, pre, post))
    return cases


@pytest.mark.parametrize("case", _selections(), ids=["preset", "cascade"])
def test_certainty_report_applies_each_stage_once_per_direction(case, stage_applications):
    net, pre, post = case
    certainty_report(net, pre, post)
    assert stage_applications["n"] == 2 * net.n_stages


@pytest.mark.parametrize("case", _selections(), ids=["preset", "cascade"])
def test_evolve_command_applies_each_stage_once_per_direction(
    case, stage_applications, monkeypatch, capsys
):
    net, pre, post = case
    monkeypatch.setattr(cli, "preset_double_mz", lambda: net)
    code = main(["evolve", "--preset", "--pre", _literal(pre), "--post", _literal(post)])
    capsys.readouterr()
    assert code == 0
    assert stage_applications["n"] == 2 * net.n_stages


def test_chains_check_support_on_a_zero_stage_network():
    net = build_network({"modes": ["a"], "stages": []})
    assert net.n_stages == 0
    with pytest.raises(UnknownModeError, match="not live"):
        forward_chain(net, Ket({"zz": 1.0}))
    with pytest.raises(UnknownModeError, match="not live"):
        backward_chain(net, Bra({"zz": 1.0}))


@pytest.mark.parametrize("network_file", [{"modes": ["a"], "stages": []}, None],
                         ids=["zero-stage", "preset"])
def test_trajectory_from_an_undeclared_mode_exits_4(network_file, tmp_path, capsys):
    flags = ["--preset"]
    if network_file is not None:
        path = tmp_path / "net.json"
        path.write_text(json.dumps(network_file), encoding="utf-8")
        flags = ["--network", str(path)]
    code = main(["bohm", *flags, "--pre", "zz:1,0", "--quantile", "0.3"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (4, "")
    assert "not live" in captured.err


# ---------------------------------------------------------------------------
# traversal bits equal contracting the stage couplings one by one

def _chained(net, state, frm, to):
    """Reference traversal: the reference contraction of each stage's
    couplings in stored order, kets over the inputs and bras over the outputs."""
    states = [state]
    if isinstance(state, Ket):
        for k in range(frm, to):
            states.append(contract(net._couplings[k], states[-1], 1))
    else:
        for k in range(frm - 1, to - 1, -1):
            states.append(contract(net._couplings[k], states[-1], 0))
    return states


# Parts a sum can cancel on, or keep the sign of a zero from.
_PARTS = (0.0, -0.0, 0.5, -0.5, 2 ** -0.5, -(2 ** -0.5), 1.0)


def _states(cls, labels, rng):
    """Sparse, dense and single-mode states on ``labels``, with random and
    signed-zero parts."""
    labels = list(labels)
    nrng = np.random.default_rng(rng.randrange(2 ** 32))

    def gaussian(subset):
        amps = nrng.normal(size=len(subset)) + 1j * nrng.normal(size=len(subset))
        return cls({m: complex(a) for m, a in zip(subset, amps)})

    def signed(subset):
        return cls({m: complex(rng.choice(_PARTS), rng.choice(_PARTS)) for m in subset})

    sparse = rng.sample(labels, max(1, len(labels) // 3))
    single = rng.choice(labels)
    return [gaussian(labels), gaussian(sparse), signed(labels), signed(sparse),
            cls({single: complex(1.0, -0.0)}), cls({single: complex(-0.0, -1.0)}),
            cls({single: complex(rng.choice(_PARTS), rng.choice(_PARTS))})]


def _traversal_networks():
    nets = [pytest.param(random_balanced_network(np.random.default_rng(n), n_rails=n),
                         id=f"balanced-{n}") for n in range(3, 17)]
    nets += [pytest.param(net, id=name) for (_, net, _), name in BOUNDARY_CHAINS]
    return nets


@pytest.mark.parametrize("net", _traversal_networks())
def test_traversals_equal_stage_operator_chaining_bit_for_bit(net):
    rng = random.Random(repr(net.live))
    n = net.n_stages
    for pre in _states(Ket, net.live[0], rng):
        assert list(map(repr, forward_chain(net, pre))) == list(map(repr, _chained(net, pre, 0, n)))
    for post in _states(Bra, net.live[n], rng):
        assert (list(map(repr, backward_chain(net, post)))
                == list(map(repr, _chained(net, post, n, 0)[::-1])))
    for cut in range(net.n_cuts):
        for to in range(cut, net.n_cuts):
            for ket in _states(Ket, net.live[cut], rng)[:3]:
                assert repr(evolve(net, ket, cut, to)) == repr(_chained(net, ket, cut, to)[-1])
        for to in range(cut + 1):
            for bra in _states(Bra, net.live[cut], rng)[:3]:
                assert repr(evolve(net, bra, cut, to)) == repr(_chained(net, bra, cut, to)[-1])
