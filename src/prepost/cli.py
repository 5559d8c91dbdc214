"""Command-line front end.

Subcommands: ``evolve`` (per-cut state tables), ``abl`` (two-state display,
conditional probabilities, optional certainty report), ``bohm`` (single
trajectory or seeded ensemble), ``measure`` (pointer records, forward or
backward), and ``demo`` (the full demonstration suite).

State literals use the grammar ``mode:re,im`` joined by ``;``, e.g.
``g:0.7071067811865476,0;h:0,-0.7071067811865476``, with finite ``re`` and
``im``.  ``--pre`` literals are kets; ``--post`` literals are postselection
functionals (their conjugates are the postselected state's amplitudes).  A
literal whose norm is off 1 by more than ``DEFAULT_TOL`` is renormalized,
with a note, before amplitudes under ``PRUNE_TOL`` are dropped.

Exit codes: 0 success; 2 usage errors (unknown flags, missing arguments);
3 configuration errors (missing or invalid network or projector files);
4 computation errors (inconsistent selections, basis mismatches); 5 malformed
state literals; 6 out-of-range parameters (cuts, quantiles, sample counts,
pointer readings that are not finite or too coarse to decode).  Output is
deterministic: identical invocations render byte-identical reports, with
seeds echoed in the output; record ``i`` of ``measure`` draws from
``derive_stream(seed, i)``.

The argument parser is built once per process, on the first request, and
reused by every later request.  A request led by a subcommand name is parsed by
that subcommand's parser alone, and leftover arguments are a top-level usage
error, as with ``parse_args``, which parses every other request.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
from dataclasses import dataclass, field

from .demo import network_diagram, run_demo
from .hilbert import (DEFAULT_TOL, Bra, Ket, Projector, make_projector, state_json, _left_sum,
                      _sig12)
from .network import (Network, NetworkConfigError, OutOfRangeError, backward_chain,
                      build_network, forward_chain, preset_double_mz)
from .pilot import RuleTable, run_ensemble, run_trajectory
from .pointer import MeasurementSetup, measure_backward, measure_forward
from .twotime import (
    CertaintyEntry,
    ProjectorSet,
    abl_distribution,
    certainty_report,
    two_state_at_cut,
    which_path_set,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CONFIG = 3
EXIT_COMPUTE = 4
EXIT_LITERAL = 5
EXIT_RANGE = 6


class StateLiteralError(ValueError):
    """A state literal does not follow the mode:re,im;... grammar."""


class ConfigFileError(ValueError):
    """A network or projector file is missing or invalid."""


@dataclass
class Report:
    payload: dict
    text: str
    fmt: str = "text"
    diagnostics: list[str] = field(default_factory=list)


def parse_state_literal(text: str) -> dict[str, complex]:
    entries: dict[str, complex] = {}
    if not text:
        raise StateLiteralError("empty state literal")
    for part in text.split(";"):
        if ":" not in part:
            raise StateLiteralError(f"term {part!r} lacks 'mode:re,im'")
        label, _, amp = part.partition(":")
        label = label.strip()
        if not label:
            raise StateLiteralError(f"term {part!r} has an empty mode label")
        pieces = amp.split(",")
        if len(pieces) != 2:
            raise StateLiteralError(f"amplitude {amp!r} must be 're,im'")
        try:
            re, im = float(pieces[0]), float(pieces[1])
        except ValueError as exc:
            raise StateLiteralError(f"non-numeric amplitude in {part!r}") from exc
        if not (math.isfinite(re) and math.isfinite(im)):
            raise StateLiteralError(f"non-finite amplitude in {part!r}")
        if label in entries:
            raise StateLiteralError(f"mode {label!r} repeated in literal")
        entries[label] = complex(re, im)
    return entries


def _read_state(cls: type, text: str, diagnostics: list[str]) -> Ket | Bra:
    entries = parse_state_literal(text)
    unit, norm = _unit_entries(entries, f"state literal {text!r}")
    if abs(norm - 1.0) > DEFAULT_TOL:
        diagnostics.append(f"{'pre' if cls is Ket else 'post'} state renormalized "
                           f"(norm was {norm:.6g})")
        entries = unit
    return cls(entries)


def _unit_entries(entries: dict[str, complex], name: str) -> tuple[dict[str, complex], float]:
    """``entries`` divided by their norm, and the norm.  The norm is taken over
    every parsed amplitude, in ``Ket`` order, before ``Ket``/``Bra`` prune
    the small ones, so a literal means the same at every scale."""
    try:
        norm = math.sqrt(_left_sum(abs(entries[m]) ** 2 for m in sorted(entries)))
    except OverflowError:  # a squared amplitude overflows
        norm = math.inf
    if norm == math.inf:  # also when only the sum of squares does
        raise OverflowError(f"{name}: its norm overflows a float")
    if norm == 0:
        raise StateLiteralError(f"{name} has zero norm")
    return {m: a / norm for m, a in entries.items()}, norm


def _load_network(args) -> Network:
    if not args.network:
        return preset_double_mz()
    try:
        with open(args.network, "r", encoding="utf-8") as fh:
            return build_network(fh.read())
    except (OSError, UnicodeDecodeError, NetworkConfigError) as exc:
        raise ConfigFileError(f"network file {args.network!r}: {exc}") from exc


def _projector_set(net: Network, cut: int, basis_arg: str) -> ProjectorSet:
    if basis_arg == "path":
        return which_path_set(net.live[cut])
    try:
        with open(basis_arg, "r", encoding="utf-8") as fh:
            basis_file = json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise ConfigFileError(f"projector file {basis_arg!r}: {exc}") from exc
    records = basis_file.get("outcomes", []) if isinstance(basis_file, dict) else None
    if not isinstance(records, list):
        raise ConfigFileError(f"projector file {basis_arg!r}: expected an object with an "
                              "'outcomes' list")
    try:
        return ProjectorSet(tuple(_outcome(rec) for rec in records))
    except ConfigFileError:
        raise
    except (ValueError, OverflowError) as exc:  # e.g. an empty or zero-norm projector
        raise ConfigFileError(f"projector file {basis_arg!r}: {exc}") from exc


def _outcome(rec) -> tuple[str, Projector]:
    if not isinstance(rec, dict):
        raise ConfigFileError("projector outcome must be an object")
    label = rec.get("label")
    if not isinstance(label, str) or not label:
        raise ConfigFileError("projector outcome lacks a label")
    if "modes" in rec:
        modes = rec["modes"]
        if not (isinstance(modes, list) and all(isinstance(m, str) for m in modes)):
            raise ConfigFileError(f"outcome {label!r}: 'modes' must be a list of mode labels")
        return label, make_projector(set(modes))
    if "ket" in rec:
        ket = rec["ket"]
        if not (isinstance(ket, dict) and all(_is_amplitude(a) for a in ket.values())):
            raise ConfigFileError(f"outcome {label!r}: 'ket' must map modes to [re, im]")
        amps = {m: complex(re, im) for m, (re, im) in ket.items()}
        return label, make_projector(Ket(_unit_entries(amps, f"outcome {label!r}: 'ket'")[0]))
    raise ConfigFileError(f"outcome {label!r} needs 'modes' or 'ket'")


def _is_amplitude(pair) -> bool:
    return isinstance(pair, list) and len(pair) == 2 and all(type(x) in (int, float) for x in pair)


# ---------------------------------------------------------------------------
# Subcommand executors

def _exec_evolve(args) -> Report:
    diagnostics: list[str] = []
    net = _load_network(args)
    if not args.pre and not args.post:
        raise StateLiteralError("evolve needs --pre and/or --post")
    payload: dict = {"cuts": []}
    lines = ["per-cut states"]
    pre_chain = post_chain = None
    if args.pre:
        pre_chain = forward_chain(net, _read_state(Ket, args.pre, diagnostics))
    if args.post:
        post_chain = backward_chain(net, _read_state(Bra, args.post, diagnostics))
    for k in range(net.n_cuts):
        rec: dict = {"cut": k}
        parts = [f"cut {k}:"]
        if pre_chain:
            rec["state"] = state_json(pre_chain[k])
            parts.append(f"forward {pre_chain[k]}")
        if post_chain:
            rec["post"] = state_json(post_chain[k])
            parts.append(f"backward {post_chain[k]}")
        if pre_chain and post_chain:
            pairing = post_chain[k].pair(pre_chain[k])
            rec["pairing"] = [_sig12(pairing.real), _sig12(pairing.imag)]
            parts.append(f"pairing {pairing:.6g}")
        payload["cuts"].append(rec)
        lines.append("  ".join(parts))
    return Report(payload=payload, text="\n".join(lines), diagnostics=diagnostics)


def _exec_abl(args) -> Report:
    diagnostics: list[str] = []
    net = _load_network(args)
    pre = _read_state(Ket, args.pre, diagnostics)
    post = _read_state(Bra, args.post, diagnostics)
    cut = args.cut
    tsv = two_state_at_cut(net, pre, post, cut)
    outcomes = _projector_set(net, cut, args.basis)
    dist = abl_distribution(tsv, outcomes)
    payload = {
        "cut": cut,
        "two_state": {
            "post": state_json(tsv.post),
            "pre": state_json(tsv.pre),
            "display": str(tsv),
        },
        "probabilities": {label: _sig12(p) for label, p in sorted(dist.items())},
    }
    lines = [
        f"two-state pair at cut {cut}: {tsv}",
        "outcome probabilities:",
    ]
    for label, p in sorted(dist.items()):
        lines.append(f"  {label}: {p:.12g}")
    report_entries: list[CertaintyEntry] = []
    if args.certainty:
        report_entries = certainty_report(net, pre, post)
        payload["certainty"] = [e.to_json() for e in report_entries]
        lines.append("certain which-path outcomes:")
        for e in report_entries:
            lines.append(f"  cut {e.cut}: {e.mode} (probability {e.probability:.12g})")
    certain = {(e.cut, e.mode) for e in report_entries}
    lines.extend(network_diagram(net, certain))
    return Report(payload=payload, text="\n".join(lines), diagnostics=diagnostics)


def _exec_bohm(args) -> Report:
    diagnostics: list[str] = []
    net = _load_network(args)
    rules = RuleTable(reverse_on_bs_reflection=(args.reflection_rule == "reverse"))
    if args.direction == "forward":
        terminal = _read_state(Ket, args.pre, diagnostics) if args.pre else None
    else:
        if not args.post:
            raise StateLiteralError("reversed runs need --post")
        terminal = _read_state(Bra, args.post, diagnostics)
    if args.quantile is not None:
        rec = run_trajectory(
            net, args.quantile, args.direction, terminal, start_mode=args.start_mode, rules=rules
        )
        payload = rec.to_json()
        payload["quantiles"] = [_sig12(q) for q in payload["quantiles"]]
        payload["quantile0"] = _sig12(payload["quantile0"])
        lines = [
            f"{rec.direction} trajectory from quantile {rec.quantile0:.12g}:",
            "  path: " + " -> ".join(rec.path),
            f"  terminal: {rec.terminal}",
            "  states: "
            + "; ".join(f"cut {s.cut} {s.mode} q={s.quantile:.6g}" for s in rec.states),
        ]
        diagnostics.extend(rec.diagnostics)
        return Report(payload=payload, text="\n".join(lines), diagnostics=diagnostics)
    stats = run_ensemble(
        net, args.samples, args.seed, args.direction, terminal, start_mode=args.start_mode, rules=rules
    )
    payload = stats.to_json()
    lines = [
        f"{stats.direction} ensemble of {stats.samples} samples (seed {stats.seed}):",
    ]
    for term, count in sorted(stats.detector_counts.items()):
        lines.append(f"  {term}: {count} ({count / stats.samples:.4f})")
        for path, n in sorted(stats.conditional_paths[term].items()):
            lines.append(f"    via {' -> '.join(path)}: {n}")
    diagnostics.extend(stats.diagnostics)
    return Report(payload=payload, text="\n".join(lines), diagnostics=diagnostics)


def _exec_measure(args) -> Report:
    diagnostics: list[str] = []
    labels = tuple(s.strip() for s in args.eigenbasis.split(","))
    try:
        values = tuple(float(s) for s in args.eigenvalues.split(","))
    except ValueError as exc:
        raise StateLiteralError(f"non-numeric eigenvalue list {args.eigenvalues!r}") from exc
    setup = MeasurementSetup(labels, values)
    if args.samples < 1:
        raise OutOfRangeError("samples must be >= 1")
    if args.direction == "forward":
        system, measure = _read_state(Ket, args.system, diagnostics), measure_forward
    else:
        system, measure = _read_state(Bra, args.system, diagnostics), measure_backward
    records = [measure(setup, system, args.pointer, args.seed, index=i)
               for i in range(args.samples)]
    payload = {"records": [r.to_json() for r in records], "seed": args.seed}
    lines = [f"{args.direction} pointer measurements (seed {args.seed}):"]
    for r in records:
        lines.append(
            f"  readings ({r.q_initial:.12g}, {r.q_final:.12g}) -> value {r.deduced:.12g}, "
            f"collapsed {r.collapsed}"
        )
    return Report(payload=payload, text="\n".join(lines), diagnostics=diagnostics)


def _exec_demo(args) -> Report:
    items = run_demo(args.seed)
    passed = sum(1 for it in items if it.passed)
    net = preset_double_mz()
    certain = {
        (e.cut, e.mode)
        for e in certainty_report(net, Ket({"a": 1.0}), Bra({"g": 1.0}))
    }
    lines = [f"demonstration suite (seed {args.seed})"]
    lines.extend(network_diagram(net, certain))
    for it in items:
        lines.append(f"{'PASS' if it.passed else 'FAIL'}  {it.name}: {it.detail}")
    lines.append(f"{passed} passed, {len(items) - passed} failed")
    payload = {
        "items": [it.to_json() for it in items],
        "passed": passed,
        "failed": len(items) - passed,
        "seed": args.seed,
    }
    return Report(payload=payload, text="\n".join(lines))


# ---------------------------------------------------------------------------
# Argument parsing and rendering

# argparse takes "-1e-3", "-inf" and "-0.5,0.5" for unknown options, so
# "--pointer -1e-3" would lack its value; read such tokens as values, as
# argparse already does for "-0.5".  No option of this parser looks like one.
_NEGATIVE_VALUE = re.compile(r"-\.?\d|-inf|-nan", re.IGNORECASE)


def build_parser() -> argparse.ArgumentParser:
    return _build_parsers()[0]


def _build_parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    parser = argparse.ArgumentParser(
        prog="prepost",
        description="Pre- and post-selected systems in beamsplitter networks.",
        epilog="Exit codes: 0 ok, 2 usage, 3 config file, 4 computation, "
               "5 state literal, 6 out-of-range parameter.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_network_flags(p):
        group = p.add_mutually_exclusive_group()
        group.add_argument("--preset", action="store_true", help="use the preset double interferometer")
        group.add_argument("--network", metavar="FILE", help="JSON network description")

    p_evolve = sub.add_parser("evolve", help="per-cut forward/backward state tables")
    add_network_flags(p_evolve)
    p_evolve.add_argument("--pre", help="entry ket literal (mode:re,im;...)")
    p_evolve.add_argument("--post", help="final-cut functional literal")
    _add_format(p_evolve)

    p_abl = sub.add_parser("abl", help="two-state pair and conditional probabilities")
    add_network_flags(p_abl)
    p_abl.add_argument("--pre", required=True)
    p_abl.add_argument("--post", required=True)
    p_abl.add_argument("--cut", type=int, default=1)
    p_abl.add_argument("--basis", default="path",
                       help="'path' for which-path projectors, or a JSON outcome file")
    p_abl.add_argument("--certainty", action="store_true",
                       help="also list probability-1 which-path outcomes at every cut")
    _add_format(p_abl)

    p_bohm = sub.add_parser("bohm", help="pilot-wave trajectories and ensembles")
    add_network_flags(p_bohm)
    p_bohm.add_argument("--direction", choices=("forward", "reversed"), default="forward")
    p_bohm.add_argument("--pre", help="forward terminal ket literal")
    p_bohm.add_argument("--post", help="reversed terminal functional literal")
    p_bohm.add_argument("--quantile", type=float, help="single-trajectory quantile in [0,1)")
    p_bohm.add_argument("--samples", type=int, default=1000, help="ensemble size (default 1000)")
    p_bohm.add_argument("--seed", type=int, default=0)
    p_bohm.add_argument("--start-mode", dest="start_mode",
                        help="particle entry port when the terminal state occupies several")
    p_bohm.add_argument("--reflection-rule", dest="reflection_rule",
                        choices=("reverse", "preserve"), default="reverse",
                        help="packet order convention at beamsplitter reflections")
    _add_format(p_bohm)

    p_measure = sub.add_parser("measure", help="pointer measurement records")
    p_measure.add_argument("--direction", choices=("forward", "backward"), default="forward")
    p_measure.add_argument("--system", required=True, help="system state literal")
    p_measure.add_argument("--eigenbasis", required=True, help="comma-separated labels")
    p_measure.add_argument("--eigenvalues", required=True, help="comma-separated reals")
    p_measure.add_argument("--pointer", type=float, default=0.0,
                           help="prepared pointer reading (q1 forward, q2 backward)")
    p_measure.add_argument("--samples", type=int, default=1)
    p_measure.add_argument("--seed", type=int, default=0)
    _add_format(p_measure)

    p_demo = sub.add_parser("demo", help="run the demonstration suite")
    p_demo.add_argument("--seed", type=int, default=0)
    _add_format(p_demo)

    for p in sub.choices.values():
        p._negative_number_matcher = _NEGATIVE_VALUE
    return parser, sub.choices


def _add_format(p) -> None:
    p.add_argument("--format", choices=("text", "json"), default="text")


_EXECUTORS = {
    "evolve": _exec_evolve,
    "abl": _exec_abl,
    "bohm": _exec_bohm,
    "measure": _exec_measure,
    "demo": _exec_demo,
}


_parsers = functools.cache(_build_parsers)


def parse_request(argv=None):
    """Parse and validate an argument vector; argparse exits 2 on usage errors."""
    parser, subs = _parsers()
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] not in subs:
        return parser.parse_args(argv)
    args, extras = subs[argv[0]].parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
    if extras:
        parser.error(f"unrecognized arguments: {' '.join(extras)}")
    return args


def execute(args) -> Report:
    report = _EXECUTORS[args.command](args)
    report.fmt = args.format
    return report


def render(report: Report) -> str:
    """Deterministic rendering: identical reports yield byte-identical output."""
    if report.fmt == "json":
        payload = dict(report.payload)
        payload["diagnostics"] = list(report.diagnostics)
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"
    out = report.text
    if report.diagnostics:
        out += "\n" + "\n".join(f"note: {d}" for d in report.diagnostics)
    return out + "\n"


def main(argv=None) -> int:
    try:
        args = parse_request(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        report = execute(args)
    except StateLiteralError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_LITERAL
    except OutOfRangeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RANGE
    except (ConfigFileError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ValueError, OverflowError) as exc:  # computation errors, and a norm that overflows
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_COMPUTE
    sys.stdout.write(render(report))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
