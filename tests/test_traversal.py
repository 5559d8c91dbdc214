"""One traversal per selection: stage-application counts and the support
check shared by ``evolve`` and the two chains."""
from __future__ import annotations

import json
import random

import pytest

from prepost import cli, network
from prepost.cli import main
from prepost.hilbert import Bra, Ket, adjoint, basis_ket
from prepost.network import (UnknownModeError, backward_chain, build_network, forward_chain,
                             preset_double_mz)
from prepost.twotime import certainty_report
from test_pilot_classify import mz_cascade


@pytest.fixture
def stage_applications(monkeypatch):
    """Counts every stage applied to a ket or a bra by the network layer."""
    counter = {"n": 0}

    def counting(fn):
        def wrapped(*args):
            counter["n"] += 1
            return fn(*args)
        return wrapped

    monkeypatch.setattr(network, "apply", counting(network.apply))
    monkeypatch.setattr(network, "apply_dual", counting(network.apply_dual))
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
