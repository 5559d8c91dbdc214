"""Per-request correctness checks against the oracle.

``check(plan, req, rec)`` returns ``None`` when the recorded result of
request ``req`` is right and a one-line reason otherwise.  ``rec`` is what
the worker recorded: ``rc``/``out``/``err`` (or ``exc``) for CLI requests,
``result`` for library calls.

A CLI request fails when an exception escapes ``main``, when its exit code
differs from the documented one, or when its output disagrees with the
oracle.  Checks on ``measure`` are properties of each record (the reading
difference is the deduced eigenvalue, the collapsed state carries that
eigenvalue and had weight in the system state), never digests of seeded
output.
"""
from __future__ import annotations

import json
import math
import re

import gen

TOL = 1e-9            # amplitudes and probabilities printed with 12 digits
TEXT_TOL = 2e-5       # amplitudes printed with 6 digits
# An outcome whose oracle probability is this close to 1 must be reported
# certain; one further from 1 than CERTAIN_NO must not be.
CERTAIN_YES = 1.0 - 1e-11
CERTAIN_NO = 1.0 - 1e-9
BORN_SIGMAS = 5.0


class CheckFailed(Exception):
    pass


def expect(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


def check(plan, req: dict, rec: dict) -> str | None:
    try:
        if req["kind"] == "cli":
            _check_cli(plan, req, rec)
        else:
            _check_library(plan, req, rec["result"])
    except CheckFailed as exc:
        return str(exc)
    except (KeyError, ValueError, TypeError, IndexError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"
    return None


# ---------------------------------------------------------------------------
# CLI requests


def _check_cli(plan, req, rec) -> None:
    if rec.get("exc"):
        raise CheckFailed(f"exception escaped main: {rec['exc']}")
    expect(rec["rc"] == req["expect_rc"],
           f"exit code {rec['rc']}, documented {req['expect_rc']}")
    if req["expect_rc"] != 0:
        expect(rec["out"] == "", "error request wrote to stdout")
        expect(rec["err"].strip() != "", "error request wrote no message")
        expect("Traceback" not in rec["err"], "traceback on stderr")
        return
    command = req["argv"][0]
    if command == "bohm":
        if "quantile" in req:
            _check_trajectory(plan, req, rec["out"])
        else:
            _check_ensemble(plan, req, rec["out"])
    elif command == "evolve":
        _check_evolve(plan, req, rec["out"])
    elif command == "abl":
        _check_abl(plan, req, rec["out"])
    elif command == "measure":
        _check_measure(req, rec["out"])
    else:
        raise CheckFailed(f"no check for {command!r}")


def _close(a: complex, b: complex, tol: float = TOL) -> bool:
    return abs(a - b) <= tol


def _state_from_json(obj: dict) -> dict[str, complex]:
    return {m: complex(re_, im) for m, (re_, im) in obj.items()}


def _expect_state(got: dict[str, complex], want: dict[str, complex], what: str,
                  tol: float = TOL) -> None:
    for m in set(got) | set(want):
        expect(_close(got.get(m, 0j), want.get(m, 0j), tol),
               f"{what}: amplitude of {m!r} is {got.get(m, 0j)}, oracle {want.get(m, 0j)}")


def _pruned(state: dict[str, complex]) -> dict[str, complex]:
    return {m: a for m, a in state.items() if abs(a) >= 1e-14}


# -- ensembles ---------------------------------------------------------------

_ENS_HEAD = re.compile(r"^(forward|reversed) ensemble of (\d+) samples \(seed (-?\d+)\):$")
_ENS_TERM = re.compile(r"^  (\S+): (\d+) \(([0-9.]+)\)$")
_ENS_PATH = re.compile(r"^    via (.+): (\d+)$")


def _parse_ensemble_text(out: str) -> dict:
    lines = out.rstrip("\n").split("\n")
    head = _ENS_HEAD.match(lines[0])
    expect(head is not None, f"bad ensemble header {lines[0]!r}")
    payload = {"direction": head.group(1), "samples": int(head.group(2)),
               "seed": int(head.group(3)), "detector_counts": {}, "conditional_paths": {},
               "diagnostics": []}
    term = None
    for line in lines[1:]:
        if line.startswith("note: "):
            payload["diagnostics"].append(line[6:])
        elif (m := _ENS_TERM.match(line)):
            term = m.group(1)
            payload["detector_counts"][term] = int(m.group(2))
            payload["conditional_paths"][term] = {}
        elif (m := _ENS_PATH.match(line)) and term is not None:
            path = ">".join(m.group(1).split(" -> "))
            payload["conditional_paths"][term][path] = int(m.group(2))
        else:
            raise CheckFailed(f"unexpected ensemble line {line!r}")
    return payload


def _check_ensemble(plan, req, out) -> None:
    payload = json.loads(out) if req["fmt"] == "json" else _parse_ensemble_text(out)
    n, seed = req["samples"], req["seed"]
    expect(payload["samples"] == n, f"samples {payload['samples']}, requested {n}")
    expect(payload["seed"] == seed, "seed not echoed")
    expect(payload["direction"] == req["direction"], "direction not echoed")
    o = plan.oracle(req["net"])
    amps = gen.amps_from_json(req["terminal"])
    leaks = req["direction"] == "reversed" and o.empty_wave_leaks(amps)
    expect(bool(payload["diagnostics"]) == bool(leaks),
           f"diagnostics {payload['diagnostics']}, oracle leaks {leaks or []}")
    reverse = req["rule"] == "reverse"
    counts, paths = o.ensemble(req["direction"], amps, req["start"], n, seed, reverse)
    got = payload["detector_counts"]
    expect(got == counts, f"detector counts {got}, oracle {counts}")
    expect(payload["conditional_paths"] == paths,
           f"conditional paths {payload['conditional_paths']}, oracle {paths}")
    born = o.born(req["direction"], amps, req["start"])
    for term in set(born) | set(got):
        p, k = born.get(term, 0.0), got.get(term, 0)
        sigma = math.sqrt(n * p * (1.0 - p))
        expect(abs(k - n * p) <= BORN_SIGMAS * sigma + 1e-9 * n,
               f"{term}: {k} of {n}, Born weight {p:.6g} ({BORN_SIGMAS:g} sigma = {sigma:.3g})")


# -- single trajectories ----------------------------------------------------


def _check_trajectory(plan, req, out) -> None:
    o = plan.oracle(req["net"])
    amps = gen.amps_from_json(req["terminal"])
    term, path, qs = o.transport_one(req["direction"], amps, req["start"], req["quantile"],
                                     req["rule"] == "reverse")
    if req["fmt"] == "json":
        payload = json.loads(out)
        expect(payload["direction"] == req["direction"], "direction not echoed")
        expect(payload["detector"] == term, f"terminal {payload['detector']}, oracle {term}")
        expect(tuple(payload["path"]) == path, f"path {payload['path']}, oracle {list(path)}")
        expect(len(payload["quantiles"]) == len(qs), "one quantile per cut expected")
        for got, want in zip(payload["quantiles"], qs):
            expect(abs(got - want) <= TOL, f"quantile {got}, oracle {want}")
        expect(payload["diagnostics"] == [], f"unexpected diagnostics {payload['diagnostics']}")
        return
    lines = out.rstrip("\n").split("\n")
    expect(lines[0].startswith(f"{req['direction']} trajectory from quantile "), "bad header")
    expect(lines[1] == "  path: " + " -> ".join(path), f"{lines[1]!r}, oracle path {path}")
    expect(lines[2] == f"  terminal: {term}", f"{lines[2]!r}, oracle terminal {term}")
    expect(len(lines) == 4, "unexpected diagnostics")


# -- evolve ------------------------------------------------------------------


def _check_evolve(plan, req, out) -> None:
    o = plan.oracle(req["net"])
    fwd = o.forward(gen.amps_from_json(req["pre"])) if req["pre"] else None
    bwd = o.backward(gen.amps_from_json(req["post"])) if req["post"] else None
    pairing = o.pair(bwd[0], fwd[0]) if fwd and bwd else None
    n_cuts = o.n_stages + 1
    if req["fmt"] == "json":
        cuts = json.loads(out)["cuts"]
        expect(len(cuts) == n_cuts, f"{len(cuts)} cuts, oracle {n_cuts}")
        for k, rec in enumerate(cuts):
            expect(rec["cut"] == k, "cuts out of order")
            if fwd:
                _expect_state(_state_from_json(rec["state"]), o.as_dict(fwd[k], k),
                              f"pre at cut {k}")
            if bwd:
                _expect_state(_state_from_json(rec["post"]), o.as_dict(bwd[k], k),
                              f"post at cut {k}")
            if pairing is not None:
                got = complex(*rec["pairing"])
                expect(_close(got, pairing), f"pairing {got} at cut {k}, oracle {pairing}")
        return
    lines = out.rstrip("\n").split("\n")
    expect(lines[0] == "per-cut states" and len(lines) == n_cuts + 1, "bad evolve table")
    for k, line in enumerate(lines[1:]):
        parts = line.split("  ")
        expect(parts[0] == f"cut {k}:", f"bad row {line!r}")
        fields = dict(p.split(" ", 1) for p in parts[1:])
        if fwd:
            _expect_state(parse_state(fields["forward"]), _pruned(o.as_dict(fwd[k], k)),
                          f"pre at cut {k}", TEXT_TOL)
        if bwd:
            _expect_state(parse_state(fields["backward"]), _pruned(o.as_dict(bwd[k], k)),
                          f"post at cut {k}", TEXT_TOL)
        if pairing is not None:
            expect(_close(complex(fields["pairing"]), pairing, TEXT_TOL), f"pairing at cut {k}")


_TERM_SPLIT = re.compile(r" ([+-]) ")


def parse_state(text: str) -> dict[str, complex]:
    """Inverse of ``format_state``: ``0.707107|c⟩ + 0.707107i|d⟩`` -> dict."""
    if text == "0":
        return {}
    pieces = _TERM_SPLIT.split(text)
    terms = [("+", pieces[0])] + list(zip(pieces[1::2], pieces[2::2]))
    state = {}
    for sign, term in terms:
        if term.endswith("⟩"):
            coeff, label = term[:-1].split("|")
        else:
            coeff, label = term[:-1].split("⟨")
        state[label] = (-1 if sign == "-" else 1) * _parse_amplitude(coeff)
    return state


def _parse_amplitude(text: str) -> complex:
    if text in ("", "i", "-i"):
        return {"": 1 + 0j, "i": 1j, "-i": -1j}[text]
    if text.startswith("("):
        return complex(text[1:-1].replace("i", "j"))
    if text.endswith("i"):
        return complex(0.0, float(text[:-1]))
    return complex(float(text), 0.0)


# -- abl ---------------------------------------------------------------------

_CERT_LINE = re.compile(r"^  cut (\d+): (\S+) \(probability ([0-9.e+-]+)\)$")


def _expected_certainty(table: dict) -> tuple[set, set]:
    must = {key for key, p in table.items() if p >= CERTAIN_YES}
    may = {key for key, p in table.items() if p > CERTAIN_NO}
    return must, may


def _expect_certainty(entries: list, table: dict) -> None:
    must, may = _expected_certainty(table)
    got = set()
    for cut, mode, p in entries:
        expect((cut, mode) in may,
               f"cut {cut} mode {mode} reported certain, oracle p={table.get((cut, mode))}")
        expect(abs(p - 1.0) <= TOL, f"certain outcome with probability {p}")
        got.add((cut, mode))
    expect(must <= got, f"certain outcomes {sorted(must - got)} missing")


def _check_abl(plan, req, out) -> None:
    o = plan.oracle(req["net"])
    pre, post = gen.amps_from_json(req["pre"]), gen.amps_from_json(req["post"])
    fwd, bwd = o.forward(pre), o.backward(post)
    cut = req["cut"]
    if req["basis"] == "path":
        want = o.which_path(bwd[cut], fwd[cut], cut)
    else:
        want = o.abl(bwd[cut], fwd[cut], cut, plan.proj_outcomes)
    table = o.path_table(pre, post) if req["certainty"] else None
    if req["fmt"] == "json":
        payload = json.loads(out)
        expect(payload["cut"] == cut, "cut not echoed")
        _expect_state(_state_from_json(payload["two_state"]["pre"]), o.as_dict(fwd[cut], cut),
                      "two-state pre")
        _expect_state(_state_from_json(payload["two_state"]["post"]), o.as_dict(bwd[cut], cut),
                      "two-state post")
        probs = payload["probabilities"]
        certain = [(e["cut"], e["mode"], e["probability"]) for e in payload.get("certainty", [])]
        expect(("certainty" in payload) == req["certainty"], "certainty report presence")
    else:
        lines = out.rstrip("\n").split("\n")
        expect(lines[0].startswith(f"two-state pair at cut {cut}: "), "bad abl header")
        expect(lines[1] == "outcome probabilities:", "bad abl layout")
        probs, certain, stars = {}, [], set()
        section = "probs"
        for line in lines[2:]:
            if line == "certain which-path outcomes:":
                section = "cert"
            elif line.startswith("cut "):
                section = "diagram"
                head, _, marks = line.partition(":  ")
                for mark in marks.split("  "):
                    if mark.endswith("*"):
                        stars.add((int(head[4:]), mark[:-1]))
            elif section == "probs":
                label, _, p = line.strip().rpartition(": ")
                probs[label] = float(p)
            elif section == "cert":
                m = _CERT_LINE.match(line)
                expect(m is not None, f"bad certainty line {line!r}")
                certain.append((int(m.group(1)), m.group(2), float(m.group(3))))
        expect(stars == {(c, m) for c, m, _ in certain}, "diagram stars differ from the report")
    expect(set(probs) == set(want), f"outcomes {sorted(probs)}, oracle {sorted(want)}")
    expect(abs(sum(probs.values()) - 1.0) <= TOL, f"ABL sum {sum(probs.values())}")
    for label, p in want.items():
        expect(abs(probs[label] - p) <= TOL, f"P({label}) = {probs[label]}, oracle {p}")
    if table is not None:
        _expect_certainty(certain, table)


# -- measure -----------------------------------------------------------------

_READING = re.compile(
    r"^  readings \((\S+), (\S+)\) -> value (\S+), collapsed (?:\|(\S+)⟩|⟨(\S+)\|)$")


def _check_measure(req, out) -> None:
    n = req["samples"] or 1
    system = gen.amps_from_json(req["system"])
    value_of = dict(zip(req["labels"], req["values"]))
    if req["fmt"] == "json":
        payload = json.loads(out)
        expect(payload["seed"] == req["seed"], "seed not echoed")
        records = []
        for r in payload["records"]:
            expect(r["direction"] == req["direction"], "direction not echoed")
            (label, amp), = r["collapsed"].items()
            expect(amp == [1, 0], f"collapsed state {r['collapsed']} is not a basis state")
            records.append((r["q_initial"], r["q_final"], r["deduced"], label))
    else:
        lines = out.rstrip("\n").split("\n")
        expect(lines[0] == f"{req['direction']} pointer measurements (seed {req['seed']}):",
               "bad measure header")
        records = []
        for line in lines[1:]:
            m = _READING.match(line)
            expect(m is not None, f"bad reading line {line!r}")
            label = m.group(4) or m.group(5)
            expect((m.group(4) is not None) == (req["direction"] == "forward"),
                   "collapsed state has the wrong type for the direction")
            records.append((float(m.group(1)), float(m.group(2)), float(m.group(3)), label))
    expect(len(records) == n, f"{len(records)} records, requested {n}")
    sign = 1.0 if req["direction"] == "forward" else -1.0
    for q_initial, q_final, deduced, label in records:
        expect(abs(q_initial - req["pointer"]) <= TOL, "pointer preparation not kept")
        expect(abs(sign * (q_final - q_initial) - deduced) <= TOL,
               f"readings {q_initial}, {q_final} do not decode to {deduced}")
        expect(label in value_of, f"collapsed onto unknown label {label!r}")
        expect(abs(value_of[label] - deduced) <= TOL,
               f"collapsed {label!r} has eigenvalue {value_of[label]}, deduced {deduced}")
        expect(abs(system.get(label, 0j)) > 1e-12, f"outcome {label!r} had zero weight")


# ---------------------------------------------------------------------------
# library calls (twostate)


def _check_library(plan, req, result) -> None:
    o = plan.oracle(req["net"])
    pre, post = gen.amps_from_json(req["pre"]), gen.amps_from_json(req["post"])
    fwd, bwd = o.forward(pre), o.backward(post)
    pairing = o.pair(bwd[0], fwd[0])
    if req["kind"] == "cert":
        _expect_certainty(result["entries"], o.path_table(pre, post))
    elif req["kind"] == "abl":
        cut = req["cut"]
        expect(result["basis"] == list(o.live[cut]), "two-state basis differs from live modes")
        got_pre = gen.amps_from_json(result["pre"])
        got_post = gen.amps_from_json(result["post"])
        _expect_state(got_pre, o.as_dict(fwd[cut], cut), f"pre at cut {cut}")
        _expect_state(got_post, o.as_dict(bwd[cut], cut), f"post at cut {cut}")
        got_pairing = complex(*result["pairing"])
        expect(_close(got_pairing, pairing), f"pairing {got_pairing} at cut {cut}, cut 0 {pairing}")
        if req["basis"] == "path":
            want = o.which_path(bwd[cut], fwd[cut], cut)
        else:
            want = o.abl(bwd[cut], fwd[cut], cut, plan.rotated[(req["net"], cut)])
        dist = result["dist"]
        expect(set(dist) == set(want), f"outcomes {sorted(dist)}, oracle {sorted(want)}")
        expect(abs(sum(dist.values()) - 1.0) <= TOL, f"ABL sum {sum(dist.values())}")
        for label, p in want.items():
            expect(abs(dist[label] - p) <= TOL, f"P({label}) = {dist[label]}, oracle {p}")
    elif req["kind"] == "evolve":
        pairings = []
        for cut, got_pre, got_post in result["states"]:
            _expect_state(gen.amps_from_json(got_pre), o.as_dict(fwd[cut], cut),
                          f"pre at cut {cut}")
            _expect_state(gen.amps_from_json(got_post), o.as_dict(bwd[cut], cut),
                          f"post at cut {cut}")
            pairings.append(complex(*result["pairings"][len(pairings)]))
        for p in pairings:
            expect(_close(p, pairing), f"pairing {p} differs from {pairing} at cut 0")
    else:
        raise CheckFailed(f"no check for {req['kind']!r}")
