"""Unit tests for network construction, validation, and evolution."""
from __future__ import annotations

import json
from collections import Counter

import numpy as np
import pytest

from conftest import (
    S,
    np_forward,
    np_stage_matrix,
    random_balanced_network,
    random_bra,
    random_ket,
)
from prepost.hilbert import (
    Ket,
    adjoint,
    basis_bra,
    basis_ket,
    check_unitary,
    states_close,
)
from prepost.network import (
    DuplicateModeError,
    NetworkConfigError,
    OutOfRangeError,
    PRESET_DOUBLE_MZ,
    UnbalancedArmsError,
    UnknownModeError,
    backward_chain,
    build_network,
    evolve,
    preset_double_mz,
    stage_unitary,
)
from prepost.pilot import run_ensemble, run_trajectory


@pytest.fixture(scope="module")
def net():
    return preset_double_mz()


# ---------------------------------------------------------------------------
# preset structure

def test_preset_stage_and_element_counts(net):
    assert net.n_stages == 6
    counts = Counter(el.kind for stage in net.stages for el in stage)
    assert counts == {"beamsplitter": 3, "mirror": 4, "detector": 2}


def test_preset_live_modes(net):
    assert net.live[0] == ("a", "b")
    assert net.live[1] == net.live[2] == ("c", "d")
    assert net.live[3] == net.live[4] == ("e", "f")
    assert net.live[5] == net.live[6] == ("g", "h")
    assert net.sources == ("a",)


def test_preset_from_config_text_matches():
    rebuilt = build_network(json.dumps(PRESET_DOUBLE_MZ))
    assert rebuilt.stages == preset_double_mz().stages
    assert rebuilt.detectors == {"g": "G", "h": "H"}


# ---------------------------------------------------------------------------
# forward evolution

def test_forward_after_first_splitter(net):
    out = evolve(net, basis_ket("a"), 0, 1)
    assert states_close(out, Ket({"c": S, "d": 1j * S}), 1e-12)


def test_forward_after_second_splitter(net):
    out = evolve(net, basis_ket("a"), 0, 3)
    assert states_close(out, Ket({"e": 1j}), 1e-12)


def test_vacuum_port_input_funnels_into_f(net):
    # The first interferometer is balanced: a single wave from either entry
    # port ends up in a single middle arm (a -> e, b -> f).
    out = evolve(net, basis_ket("b"), 0, 3)
    assert states_close(out, Ket({"f": 1j}), 1e-12)


def test_forward_full_chain(net):
    out = evolve(net, basis_ket("a"), 0, 6)
    assert states_close(out, Ket({"g": -S, "h": 1j * S}), 1e-12)


def test_single_arm_c_reaches_dark_detector(net):
    # A wave only in c makes the second interferometer feed h with certainty.
    out = evolve(net, basis_ket("c"), 2, 6)
    assert states_close(out, Ket({"h": 1j}), 1e-12)
    out_from_1 = evolve(net, basis_ket("c"), 1, 6)
    assert states_close(out_from_1, Ket({"h": 1j}), 1e-12)


def test_single_arm_d_reaches_bright_detector(net):
    out = evolve(net, basis_ket("d"), 2, 6)
    assert states_close(out, Ket({"g": 1j}), 1e-12)


def test_mirror_stage_carries_unit_amplitude(net):
    out = evolve(net, basis_ket("c"), 1, 2)
    assert states_close(out, basis_ket("c"), 1e-12)


# ---------------------------------------------------------------------------
# backward evolution: the evolved functional's conjugate entries are the
# backward-traveling state's amplitudes.

def test_backward_to_second_gap(net):
    back = evolve(net, basis_bra("g"), 6, 4)
    assert states_close(adjoint(back), Ket({"f": S, "e": -1j * S}), 1e-12)


def test_backward_to_first_gap(net):
    back = evolve(net, basis_bra("g"), 6, 2)
    assert states_close(adjoint(back), Ket({"d": -1j}), 1e-12)


def test_backward_to_entry(net):
    back = evolve(net, basis_bra("g"), 6, 0)
    assert states_close(adjoint(back), Ket({"a": -S, "b": -1j * S}), 1e-12)


def test_backward_from_dark_detector(net):
    back = evolve(net, basis_bra("h"), 6, 2)
    assert states_close(adjoint(back), Ket({"c": -1j}), 1e-12)


def test_backward_chain_indexing(net):
    chain = backward_chain(net, basis_bra("g"))
    assert len(chain) == 7
    assert states_close(chain[6], basis_bra("g"))
    assert states_close(chain[0], evolve(net, basis_bra("g"), 6, 0))


# ---------------------------------------------------------------------------
# stage unitaries

def test_every_stage_unitary_passes_check(net):
    for k in range(net.n_stages):
        assert check_unitary(stage_unitary(net, k), 1e-12)


def test_stage_matrices_match_dense_oracle(net):
    for k in range(net.n_stages):
        op = stage_unitary(net, k)
        dense = np_stage_matrix(net, k)
        in_basis, out_basis = net.live[k], net.live[k + 1]
        for i, row in enumerate(out_basis):
            for j, col in enumerate(in_basis):
                assert abs(op[(row, col)] - dense[i, j]) <= 1e-15


def test_stage_index_range(net):
    with pytest.raises(ValueError):
        stage_unitary(net, 6)
    with pytest.raises(ValueError):
        stage_unitary(net, -1)


# ---------------------------------------------------------------------------
# evolve contract

def test_evolve_rejects_unsupported_modes(net):
    with pytest.raises(UnknownModeError):
        evolve(net, basis_ket("e"), 0, 1)


def test_evolve_direction_contract(net):
    with pytest.raises(ValueError):
        evolve(net, basis_ket("a"), 3, 1)
    with pytest.raises(ValueError):
        evolve(net, basis_bra("g"), 3, 5)
    with pytest.raises(ValueError):
        evolve(net, basis_ket("a"), 0, 7)


def test_forward_backward_roundtrip_randomized(net):
    rng = np.random.default_rng(11)
    for _ in range(25):
        ket = random_ket(["a", "b"], rng)
        fwd = evolve(net, ket, 0, 4)
        back = adjoint(evolve(net, adjoint(fwd), 4, 0))
        assert states_close(back, ket, 1e-12)


def test_pairing_invariance_randomized(net):
    rng = np.random.default_rng(12)
    for _ in range(25):
        pre = random_ket(["a", "b"], rng)
        post = random_bra(["g", "h"], rng)
        values = [
            evolve(net, post, 6, cut).pair(evolve(net, pre, 0, cut))
            for cut in range(7)
        ]
        for v in values[1:]:
            assert abs(v - values[0]) <= 1e-12


def test_forward_matches_dense_oracle_on_random_networks():
    rng = np.random.default_rng(13)
    for _ in range(10):
        net = random_balanced_network(rng)
        pre = random_ket(list(net.live[0]), rng)
        for cut in range(net.n_cuts):
            mine = evolve(net, pre, 0, cut)
            dense = np_forward(net, pre, cut)
            basis = list(net.live[cut])
            for j, m in enumerate(basis):
                assert abs(mine[m] - dense[j]) <= 1e-12


# ---------------------------------------------------------------------------
# config validation diagnostics

def _config(stages, modes=None, detectors=None, sources=None):
    cfg = {
        "modes": modes or ["a", "b", "c", "d"],
        "stages": stages,
    }
    if detectors is not None:
        cfg["detectors"] = detectors
    if sources is not None:
        cfg["sources"] = sources
    return cfg


def test_duplicate_mode_within_stage():
    cfg = _config(
        [{"elements": [{"type": "mirror", "in": "a", "out": "c"},
                       {"type": "mirror", "in": "c", "out": "d"}]}]
    )
    with pytest.raises(DuplicateModeError):
        build_network(cfg)


def test_mode_consumed_before_produced():
    cfg = _config(
        [
            {"elements": [{"type": "mirror", "in": "c", "out": "d"}]},
            {"elements": [{"type": "mirror", "in": "a", "out": "c"}]},
        ]
    )
    with pytest.raises(UnknownModeError, match="consumed"):
        build_network(cfg)


def test_unbalanced_arms_rejected():
    cfg = _config(
        [
            {"elements": [{"type": "mirror", "in": "a", "out": "c"}]},
            {"elements": [{"type": "beamsplitter", "in": ["c", "b"], "out": ["d", "e"]}]},
        ],
        modes=["a", "b", "c", "d", "e"],
    )
    with pytest.raises(UnbalancedArmsError):
        build_network(cfg)


def test_unknown_top_level_key_rejected():
    with pytest.raises(NetworkConfigError, match="unknown config keys"):
        build_network({"modes": ["a"], "stages": [], "extras": 1})


def test_unknown_element_key_rejected():
    cfg = _config([{"elements": [{"type": "mirror", "in": "a", "out": "c", "phase": 1}]}])
    with pytest.raises(NetworkConfigError, match="unknown keys"):
        build_network(cfg)


def test_unknown_element_type_rejected():
    cfg = _config([{"elements": [{"type": "absorber", "in": "a", "out": "c"}]}])
    with pytest.raises(NetworkConfigError, match="unknown element type"):
        build_network(cfg)


def test_undeclared_mode_rejected():
    cfg = _config([{"elements": [{"type": "mirror", "in": "a", "out": "zz"}]}])
    with pytest.raises(UnknownModeError, match="not declared"):
        build_network(cfg)


def test_beamsplitter_ports_must_be_distinct():
    cfg = _config([{"elements": [{"type": "beamsplitter", "in": ["a", "a"], "out": ["c", "d"]}]}])
    with pytest.raises(NetworkConfigError, match="pairwise distinct"):
        build_network(cfg)


def test_detector_mode_must_be_live():
    cfg = _config(
        [{"elements": [{"type": "mirror", "in": "a", "out": "c"}]}],
        detectors={"a": "A"},
    )
    with pytest.raises(UnknownModeError, match="not live"):
        build_network(cfg)


def test_declared_source_must_be_an_input():
    cfg = _config(
        [{"elements": [{"type": "mirror", "in": "a", "out": "c"}]}],
        sources=["c"],
    )
    with pytest.raises(NetworkConfigError, match="sources"):
        build_network(cfg)


def test_invalid_json_text_rejected():
    with pytest.raises(NetworkConfigError, match="not valid JSON"):
        build_network("{not json")


def test_malformed_shapes_rejected():
    with pytest.raises(NetworkConfigError, match="'stages' must be a list"):
        build_network({"modes": ["a"], "stages": 5})
    with pytest.raises(NetworkConfigError, match="'modes' must be a list"):
        build_network({"modes": "abc", "stages": []})
    with pytest.raises(NetworkConfigError, match="stage 0 must be an object"):
        build_network({"modes": ["a"], "stages": ["oops"]})
    with pytest.raises(NetworkConfigError, match="lacks 'type'"):
        build_network({"modes": ["a"], "stages": [{"elements": [17]}]})


@pytest.mark.parametrize("elements", [None, 5, "ab", {"type": "mirror"}],
                         ids=["null", "number", "string", "object"])
def test_stage_elements_must_be_a_list(elements):
    with pytest.raises(NetworkConfigError, match="'elements' must be a list"):
        build_network({"modes": ["a"], "stages": [{"elements": elements}]})


def test_mirror_may_rename_its_mode():
    cfg = _config(
        [{"elements": [{"type": "mirror", "in": "a", "out": "a2"}]}],
        modes=["a", "a2"],
    )
    net = build_network(cfg)
    assert states_close(evolve(net, basis_ket("a"), 0, 1), basis_ket("a2"))


def test_produced_while_live_rejected():
    cfg = _config(
        [
            {"elements": [{"type": "mirror", "in": "a", "out": "c"}]},
            {"elements": [{"type": "mirror", "in": "b", "out": "c"}]},
        ]
    )
    with pytest.raises(UnknownModeError, match="produced while still live"):
        build_network(cfg)


@pytest.mark.parametrize(
    "cfg",
    [
        _config([], modes=["a", ["b"]]),
        _config([{"elements": [{"type": "mirror", "in": "a", "out": "c"}]}], sources=[["a"]]),
        _config([{"elements": [{"type": "mirror", "in": ["a"], "out": "c"}]}]),
        _config([{"elements": [{"type": "beamsplitter", "in": ["a", "b"], "out": ["c", 4]}]}]),
    ],
    ids=["modes", "sources", "mirror-port", "beamsplitter-port"],
)
def test_non_string_labels_rejected(cfg):
    with pytest.raises(NetworkConfigError, match="not a string"):
        build_network(cfg)


def test_range_checks_raise_the_shared_out_of_range_error(net):
    assert issubclass(OutOfRangeError, ValueError)
    with pytest.raises(OutOfRangeError, match="cut 99"):
        net.check_cut(99)
    with pytest.raises(OutOfRangeError, match="quantile"):
        run_trajectory(net, 1.5)
    with pytest.raises(OutOfRangeError, match="samples"):
        run_ensemble(net, 0, 0)
