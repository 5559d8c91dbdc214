"""CLI contract tests: exit codes, report shapes, and determinism."""
from __future__ import annotations

import json
import subprocess
import sys

import pytest

from prepost.cli import main, parse_request, parse_state_literal, StateLiteralError
from prepost.hilbert import Bra, Ket
from prepost.network import PRESET_DOUBLE_MZ
from prepost.pointer import MeasurementSetup, measure_backward, measure_forward


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# literal grammar

def test_state_literal_grammar():
    entries = parse_state_literal("g:0.7071067811865476,0;h:0,-0.7071067811865476")
    assert entries["g"] == complex(0.7071067811865476, 0)
    assert entries["h"] == complex(0, -0.7071067811865476)


@pytest.mark.parametrize(
    "literal",
    ["", "g", "g:1", "g:1,2,3", "g:x,0", ":1,0", "g:1,0;g:0,1",
     "g:nan,0", "g:0,inf", "g:-inf,0", "g:1e400,0", "g:1,0;h:0,-1e400",
     pytest.param("g:1" + "0" * 400 + ",0", id="g-huge-int")],
)
def test_state_literal_rejects_malformed(literal):
    with pytest.raises(StateLiteralError):
        parse_state_literal(literal)


def test_parse_request_accepts_a_full_abl_invocation():
    args = parse_request(
        ["abl", "--preset", "--pre", "a:1,0", "--post", "g:1,0",
         "--cut", "1", "--basis", "path"]
    )
    assert args.command == "abl"
    assert args.preset is True
    assert args.cut == 1
    assert args.basis == "path"


# ---------------------------------------------------------------------------
# exit codes

def test_valid_abl_request(capsys):
    code, out, _ = run_cli(
        ["abl", "--preset", "--pre", "a:1,0", "--post", "g:1,0",
         "--cut", "1", "--basis", "path"],
        capsys,
    )
    assert code == 0
    assert "d: 1" in out


def test_unknown_flag_exits_2(capsys):
    code, _, _ = run_cli(["abl", "--nonsense"], capsys)
    assert code == 2


def test_malformed_literal_exits_5(capsys):
    code, _, err = run_cli(["abl", "--preset", "--pre", "a:oops", "--post", "g:1,0"], capsys)
    assert code == 5
    assert "error" in err


def test_out_of_range_quantile_exits_6(capsys):
    code, _, _ = run_cli(["bohm", "--preset", "--quantile", "1.5"], capsys)
    assert code == 6


def test_bohm_zero_samples_exits_6(capsys):
    code, out, _ = run_cli(["bohm", "--preset", "--samples", "0"], capsys)
    assert code == 6
    assert out == ""


def test_measure_zero_samples_exits_6(capsys):
    code, out, _ = run_cli(
        ["measure", "--system", "u:1,0", "--eigenbasis", "u", "--eigenvalues", "1",
         "--samples", "0"],
        capsys,
    )
    assert code == 6
    assert out == ""


def test_out_of_range_cut_exits_6(capsys):
    code, _, _ = run_cli(
        ["abl", "--preset", "--pre", "a:1,0", "--post", "g:1,0", "--cut", "9"], capsys
    )
    assert code == 6


def test_out_of_range_quantile_exits_6_before_the_source_check(tmp_path, capsys):
    # Trajectories on a two-source network fail with exit 4; the range
    # check on the quantile comes first.
    two_sources = dict(PRESET_DOUBLE_MZ, sources=["a", "b"])
    path = tmp_path / "two_sources.json"
    path.write_text(json.dumps(two_sources), encoding="utf-8")
    code, out, _ = run_cli(["bohm", "--network", str(path), "--quantile", "0.5"], capsys)
    assert code == 4
    code, out, _ = run_cli(["bohm", "--network", str(path), "--quantile", "1.5"], capsys)
    assert code == 6
    assert out == ""


def test_negative_cut_exits_6(capsys):
    code, out, _ = run_cli(
        ["abl", "--preset", "--pre", "a:1,0", "--post", "g:1,0", "--cut", "-1"], capsys
    )
    assert code == 6
    assert out == ""


def test_missing_network_file_exits_3(capsys):
    code, _, _ = run_cli(["evolve", "--network", "missing.json", "--pre", "a:1,0"], capsys)
    assert code == 3


def test_invalid_network_file_exits_3(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"modes": ["a"], "stages": [], "wat": 1}', encoding="utf-8")
    code, _, _ = run_cli(["evolve", "--network", str(bad), "--pre", "a:1,0"], capsys)
    assert code == 3


@pytest.mark.parametrize(
    "network",
    [
        dict(PRESET_DOUBLE_MZ, modes=["a", "b", ["c"], "d", "e", "f", "g", "h"]),
        dict(PRESET_DOUBLE_MZ, sources=[["a"]]),
        dict(PRESET_DOUBLE_MZ, stages=[
            {"elements": [{"type": "beamsplitter", "in": ["a", "b"], "out": [["c"], "d"]}]},
            *PRESET_DOUBLE_MZ["stages"][1:],
        ]),
        dict(PRESET_DOUBLE_MZ, stages=[
            PRESET_DOUBLE_MZ["stages"][0],
            {"elements": [{"type": "mirror", "in": ["c"], "out": "c"},
                          {"type": "mirror", "in": "d", "out": "d"}]},
            *PRESET_DOUBLE_MZ["stages"][2:],
        ]),
    ],
    ids=["mode", "source", "beamsplitter-port", "mirror-port"],
)
def test_non_string_network_label_exits_3(tmp_path, capsys, network):
    path = tmp_path / "net.json"
    path.write_text(json.dumps(network), encoding="utf-8")
    code, out, err = run_cli(["evolve", "--network", str(path), "--pre", "a:1,0"], capsys)
    assert (code, out) == (3, "")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "basis_file",
    [
        [{"label": "c", "modes": ["c"]}, {"label": "d", "modes": ["d"]}],
        {"outcomes": 5},
        {"outcomes": ["c", "d"]},
        {"outcomes": [{"label": ["c"], "modes": ["c"]}]},
        {"outcomes": [{"label": "c", "modes": "c"}, {"label": "d", "modes": ["d"]}]},
        {"outcomes": [{"label": "c", "modes": [["c"]]}, {"label": "d", "modes": ["d"]}]},
        {"outcomes": [{"label": "x", "ket": {"c": [1.0]}}]},
        {"outcomes": [{"label": "x", "ket": {"c": ["1", "0"]}}]},
        {"outcomes": [{"label": "x", "ket": {"c": [[1], 0]}}]},
        {"outcomes": [{"label": "x", "ket": [["c", 1, 0]]}]},
        {"outcomes": [{"label": "c", "modes": []}, {"label": "d", "modes": ["c", "d"]}]},
        {"outcomes": [{"label": "x", "ket": {}}]},
        {"outcomes": [{"label": "x", "ket": {"c": [0, 0]}}]},
        {"outcomes": [{"label": "x", "ket": {"c": [float("nan"), 0]}}]},
        {"outcomes": [{"label": "x", "ket": {"c": [1, float("inf")]}}]},
        {"outcomes": [{"label": "x", "ket": {"c": [10 ** 400, 0]}}]},
        {"outcomes": [{"label": "x", "modes": ["d"]}, {"label": "x", "modes": ["c"]}]},
    ],
    ids=["top-list", "outcomes-number", "outcome-string", "label-list", "modes-string",
         "modes-nested", "ket-one-number", "ket-strings", "ket-nested", "ket-list",
         "modes-empty", "ket-empty", "ket-zero", "ket-nan", "ket-inf", "ket-huge-int",
         "label-repeated"],
)
def test_malformed_projector_file_exits_3(tmp_path, capsys, basis_file):
    path = tmp_path / "basis.json"
    path.write_text(json.dumps(basis_file), encoding="utf-8")
    code, out, err = run_cli(
        ["abl", "--preset", "--pre", "a:1,0", "--post", "g:1,0", "--cut", "1",
         "--basis", str(path)],
        capsys,
    )
    assert (code, out) == (3, "")
    assert "Traceback" not in err


def test_state_on_non_live_mode_exits_4(capsys):
    code, _, err = run_cli(
        ["abl", "--preset", "--pre", "a:1,0", "--post", "a:1,0", "--cut", "1"], capsys
    )
    assert code == 4
    assert "not live" in err


def test_inconsistent_selection_exits_4(capsys):
    code, _, err = run_cli(
        ["abl", "--preset", "--pre", "a:1,0",
         "--post", "g:0.7071067811865476,0;h:0,-0.7071067811865476", "--cut", "1"],
        capsys,
    )
    assert code == 4
    assert "orthogonal" in err


# ---------------------------------------------------------------------------
# evolve output

def test_evolve_final_state_json(capsys):
    code, out, _ = run_cli(
        ["evolve", "--preset", "--pre", "a:1,0", "--format", "json"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    final = payload["cuts"][-1]["state"]
    assert final == {"g": [-0.707106781187, 0], "h": [0, 0.707106781187]}


def test_evolve_backward_table(capsys):
    code, out, _ = run_cli(
        ["evolve", "--preset", "--post", "g:1,0", "--format", "json"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["cuts"][2]["post"] == {"d": [0, 1]}


def test_evolve_pairing_when_both_given(capsys):
    code, out, _ = run_cli(
        ["evolve", "--preset", "--pre", "a:1,0", "--post", "g:1,0", "--format", "json"],
        capsys,
    )
    payload = json.loads(out)
    pairings = [tuple(rec["pairing"]) for rec in payload["cuts"]]
    assert len(set(pairings)) == 1
    assert abs(pairings[0][0] + 0.707106781187) < 1e-9


def test_evolve_requires_a_state(capsys):
    code, _, _ = run_cli(["evolve", "--preset"], capsys)
    assert code == 5


# ---------------------------------------------------------------------------
# abl output

def test_abl_json_probabilities(capsys):
    code, out, _ = run_cli(
        ["abl", "--preset", "--pre", "a:1,0", "--post", "g:1,0",
         "--cut", "1", "--format", "json"],
        capsys,
    )
    payload = json.loads(out)
    assert payload["probabilities"] == {"c": 0, "d": 1}
    assert payload["two_state"]["pre"]["d"] == [0, 0.707106781187]


def test_abl_certainty_report_and_diagram(capsys):
    code, out, _ = run_cli(
        ["abl", "--preset", "--pre", "a:1,0", "--post", "g:1,0",
         "--cut", "1", "--certainty"],
        capsys,
    )
    assert code == 0
    assert "cut 1: d" in out
    assert "d*" in out and "e*" in out  # diagram stars the certainty path


def test_abl_custom_projector_file(tmp_path, capsys):
    basis_file = {
        "outcomes": [
            {"label": "plus", "ket": {"c": [0.7071067811865476, 0], "d": [0.7071067811865476, 0]}},
            {"label": "minus", "ket": {"c": [0.7071067811865476, 0], "d": [-0.7071067811865476, 0]}},
        ]
    }
    path = tmp_path / "basis.json"
    path.write_text(json.dumps(basis_file), encoding="utf-8")
    code, out, _ = run_cli(
        ["abl", "--preset", "--pre", "a:1,0", "--post", "g:1,0",
         "--cut", "1", "--basis", str(path), "--format", "json"],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["probabilities"] == {"minus": 0.5, "plus": 0.5}


# ---------------------------------------------------------------------------
# bohm output

def test_bohm_reversed_truncated_with_diagnostic(capsys):
    code, out, _ = run_cli(
        ["bohm", "--preset", "--direction", "reversed", "--post", "g:1,0",
         "--quantile", "0.25", "--format", "json"],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["path"] == ["g", "f", "d"]
    assert any("empty-wave component absent" in d for d in payload["diagnostics"])


def test_bohm_reversed_ensemble_splits_between_source_and_vacuum(capsys):
    code, out, _ = run_cli(
        ["bohm", "--preset", "--direction", "reversed", "--post", "g:1,0",
         "--samples", "400", "--seed", "3", "--format", "json"],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert set(payload["detector_counts"]) == {"a", "b"}
    assert payload["conditional_paths"]["a"] == {"g>f>d": payload["detector_counts"]["a"]}
    assert payload["conditional_paths"]["b"] == {"g>e>d": payload["detector_counts"]["b"]}
    assert any("empty-wave component absent" in d for d in payload["diagnostics"])


def test_bohm_forward_trajectory_text(capsys):
    code, out, _ = run_cli(
        ["bohm", "--preset", "--quantile", "0.25"], capsys
    )
    assert code == 0
    assert "a -> c -> e" in out
    assert "terminal: G" in out


def test_bohm_ensemble_json(capsys):
    code, out, _ = run_cli(
        ["bohm", "--preset", "--samples", "400", "--seed", "11", "--format", "json"],
        capsys,
    )
    payload = json.loads(out)
    assert payload["samples"] == 400
    assert payload["seed"] == 11
    assert set(payload["detector_counts"]) == {"G", "H"}
    assert payload["conditional_paths"]["G"] == {"a>c>e": payload["detector_counts"]["G"]}


# ---------------------------------------------------------------------------
# measure output

def test_measure_forward_json(capsys):
    code, out, _ = run_cli(
        ["measure", "--system", "s0:1,0", "--eigenbasis", "s0,s1",
         "--eigenvalues", "0.5,-0.5", "--pointer", "0.25", "--format", "json"],
        capsys,
    )
    payload = json.loads(out)
    rec = payload["records"][0]
    assert rec["q_initial"] == 0.25
    assert rec["q_final"] == 0.75
    assert rec["deduced"] == 0.5


def test_measure_backward_batch(capsys):
    code, out, _ = run_cli(
        ["measure", "--direction", "backward",
         "--system", "s0:0.7071067811865476,0;s1:0,0.7071067811865476",
         "--eigenbasis", "s0,s1", "--eigenvalues", "0.5,-0.5",
         "--samples", "50", "--seed", "2", "--format", "json"],
        capsys,
    )
    payload = json.loads(out)
    assert len(payload["records"]) == 50
    for rec in payload["records"]:
        assert rec["q_initial"] - rec["q_final"] == rec["deduced"]


HALF = "s0:0.7071067811865476,0;s1:0,0.7071067811865476"
MEASURE_HALF = ["measure", "--system", HALF, "--eigenbasis", "s0,s1", "--eigenvalues", "0.5,-0.5",
                "--pointer", "0.25"]


@pytest.mark.parametrize("direction", ["forward", "backward"])
def test_measure_record_i_draws_from_seed_and_index(capsys, direction):
    code, out, _ = run_cli(MEASURE_HALF + ["--direction", direction, "--samples", "40",
                                           "--seed", "9", "--format", "json"], capsys)
    assert code == 0
    setup = MeasurementSetup(("s0", "s1"), (0.5, -0.5))
    amps = {"s0": 0.7071067811865476, "s1": 0.7071067811865476j}
    if direction == "forward":
        system, measure = Ket(amps), measure_forward
    else:
        system, measure = Bra(amps), measure_backward
    records = json.loads(out)["records"]
    assert records == [measure(setup, system, 0.25, 9, index=i).to_json() for i in range(40)]
    assert {r["seed"] for r in records} == {9}
    assert {r["deduced"] for r in records} == {0.5, -0.5}


def test_measure_single_sample_output_unchanged(capsys):
    # Pinned: one record per seed draws from derive_stream(seed, 0).
    deduced = []
    for seed in range(4):
        _, default, _ = run_cli(MEASURE_HALF + ["--seed", str(seed)], capsys)
        _, one, _ = run_cli(MEASURE_HALF + ["--seed", str(seed), "--samples", "1"], capsys)
        assert default == one
        deduced.append(default.splitlines()[1].split("value ")[1].split(",")[0])
    assert deduced == ["0.5", "-0.5", "0.5", "-0.5"]
    _, out, _ = run_cli(MEASURE_HALF + ["--direction", "backward", "--seed", "3"], capsys)
    assert out == ("backward pointer measurements (seed 3):\n"
                   "  readings (0.25, 0.75) -> value -0.5, collapsed ⟨s1|\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["abl", "--preset", "--pre", "a:1.0000000005,0", "--post", "g:1,0"],
        ["abl", "--preset", "--pre", "a:1,0", "--post", "g:1.0000000005,0"],
        ["measure", "--system", "u:1.0000000005,0", "--eigenbasis", "u,v",
         "--eigenvalues", "1,2"],
        ["measure", "--direction", "backward", "--system", "u:1.0000000005,0",
         "--eigenbasis", "u,v", "--eigenvalues", "1,2"],
    ],
)
def test_nearly_normalized_literal_is_renormalized(capsys, argv):
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    assert "state renormalized (norm was 1)" in out


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["evolve", "--preset", "--pre", "a:nan,0"], 5),
        (["evolve", "--preset", "--post", "g:0,inf"], 5),
        (["measure", "--system", "u:1e400,0", "--eigenbasis", "u,v", "--eigenvalues", "1,2"], 5),
        (["evolve", "--preset", "--pre", "a:1e200,0"], 4),
        (["measure", "--system", "u:1,0", "--eigenbasis", "u,v", "--eigenvalues", "nan,1",
          "--format", "json"], 4),
        (["measure", "--system", "u:1,0", "--eigenbasis", "u,v", "--eigenvalues", "1,inf"], 4),
        (["measure", "--system", "u:1,0", "--eigenbasis", "u,v", "--eigenvalues", "1,2",
          "--pointer", "inf"], 6),
        (["measure", "--direction", "backward", "--system", "u:1,0", "--eigenbasis", "u,v",
          "--eigenvalues", "1,2", "--pointer=-inf", "--format", "json"], 6),
        (["measure", "--system", "u:1,0", "--eigenbasis", "u,v", "--eigenvalues", "1e308,2",
          "--pointer", "1e308"], 6),
    ],
)
def test_non_finite_inputs_exit_with_an_error(capsys, argv, expected):
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (expected, "")
    assert err.startswith("error: ")


MEASURE_UV = ["measure", "--system", "u:1,0", "--eigenbasis", "u,v"]


@pytest.mark.parametrize(
    "head, flag, value",
    [
        (MEASURE_UV + ["--eigenvalues", "1,2"], "--pointer", "-1e-3"),
        (MEASURE_UV + ["--eigenvalues", "1,2"], "--pointer", "-inf"),
        (["bohm", "--preset"], "--quantile", "-1e-3"),
        (MEASURE_UV, "--eigenvalues", "-0.5,0.5"),
        (MEASURE_UV + ["--eigenvalues", "1,2"], "--pointer", "-.5"),
    ],
)
def test_negative_values_read_the_same_in_both_forms(capsys, head, flag, value):
    two_tokens = run_cli(head + [flag, value], capsys)
    joined = run_cli(head + [f"{flag}={value}"], capsys)
    assert two_tokens == joined
    assert two_tokens[0] != 2


@pytest.mark.parametrize(
    "argv, literal",
    [
        (["evolve", "--preset", "--pre", "a:1e200,0"], "a:1e200,0"),
        (["evolve", "--preset", "--post", "g:0,-1e200"], "g:0,-1e200"),
        (["evolve", "--preset", "--pre", "a:1e154,0;b:1e154,0"], "a:1e154,0;b:1e154,0"),
        (["measure", "--system", "u:1e200,0", "--eigenbasis", "u,v", "--eigenvalues", "1,2"],
         "u:1e200,0"),
    ],
)
def test_overflowing_norm_names_the_literal(capsys, argv, literal):
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (4, "")
    assert err == f"error: state literal {literal!r}: its norm overflows a float\n"


def test_abl_with_an_empty_literal_exits_5(capsys):
    code, out, err = run_cli(["abl", "--preset", "--pre", "", "--post", "g:1,0"], capsys)
    assert (code, out, err) == (5, "", "error: empty state literal\n")


# ---------------------------------------------------------------------------
# demo and determinism

def test_demo_all_pass(capsys):
    code, out, _ = run_cli(["demo", "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["failed"] == 0
    assert payload["passed"] == len(payload["items"]) == 12


def test_demo_text_has_pass_lines_and_diagram(capsys):
    code, out, _ = run_cli(["demo"], capsys)
    assert code == 0
    assert out.count("PASS") == 12
    assert "BS(a,b -> c,d)" in out


def test_repeated_runs_are_byte_identical(capsys):
    _, first, _ = run_cli(["demo", "--seed", "5", "--format", "json"], capsys)
    _, second, _ = run_cli(["demo", "--seed", "5", "--format", "json"], capsys)
    assert first == second
    _, third, _ = run_cli(
        ["bohm", "--preset", "--samples", "200", "--seed", "7", "--format", "json"], capsys
    )
    _, fourth, _ = run_cli(
        ["bohm", "--preset", "--samples", "200", "--seed", "7", "--format", "json"], capsys
    )
    assert third == fourth


def test_json_output_round_trips(capsys):
    _, out, _ = run_cli(["demo", "--format", "json"], capsys)
    assert json.loads(out)  # parses cleanly


def test_network_file_round_trip(tmp_path, capsys):
    path = tmp_path / "net.json"
    path.write_text(json.dumps(PRESET_DOUBLE_MZ), encoding="utf-8")
    code, out, _ = run_cli(
        ["evolve", "--network", str(path), "--pre", "a:1,0", "--format", "json"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["cuts"][-1]["state"]["g"] == [-0.707106781187, 0]


def test_console_entry_point_subprocess_deterministic():
    def run_once():
        proc = subprocess.run(
            [sys.executable, "-m", "prepost", "demo", "--format", "json"],
            capture_output=True,
            timeout=120,
        )
        assert proc.returncode == 0
        return proc.stdout

    first = run_once()
    second = run_once()
    assert first == second  # byte-identical across processes
    payload = json.loads(first)
    assert payload["failed"] == 0
