"""Staged beamsplitter networks: description, validation, and evolution.

A network is an ordered list of stages; each stage is a set of optical
elements acting on disjoint modes.  Cut ``k`` is the time slice between
stage ``k-1`` and stage ``k``, so cuts run from 0 (before the first stage)
to ``len(stages)`` (after the last).

Every balanced beamsplitter maps its input ports ``(u, v)`` to output ports
``(x, y)`` with transmitted amplitude 1/sqrt(2) and reflected amplitude
i/sqrt(2).  Mirrors carry unit amplitude from their input to their output
mode (no phase); they may keep the same label.  Detectors are terminal tags
on final-cut modes; detection probability is |amplitude|^2 there.

Equal path lengths are encoded structurally: the two modes entering a
beamsplitter must have become live at the same cut ("balanced arms").
Validation records each stage's couplings, the entries of its unitary;
kets evolve forward by them and bras evolve backward by right composition,
which makes the pairing <post|pre> identical at every cut.
"""
from __future__ import annotations

import json
import math
from collections.abc import Mapping  # typing.Mapping's isinstance is several times slower
from dataclasses import dataclass, field
from typing import Union

from .hilbert import Bra, Ket, _contract

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
BS_TRANSMIT = complex(_INV_SQRT2, 0.0)
BS_REFLECT = complex(0.0, _INV_SQRT2)

ELEMENT_KINDS = ("beamsplitter", "mirror", "detector")


class NetworkConfigError(ValueError):
    """A network description violates the structural rules."""


class OutOfRangeError(ValueError):
    """A cut, quantile or sample count lies outside its documented range."""


class DuplicateModeError(NetworkConfigError):
    """A mode appears in more than one element of a single stage."""


class UnknownModeError(NetworkConfigError):
    """A mode is undeclared, not live when consumed, or produced while live."""


class UnbalancedArmsError(NetworkConfigError):
    """A beamsplitter merges modes that became live at different cuts."""


@dataclass(frozen=True)
class Element:
    """One optical element.  Port order is significant for beamsplitters:
    ``ins=(u, v)``, ``outs=(x, y)`` with u<->x and v<->y the transmitted pairs."""

    kind: str
    ins: tuple[str, ...]
    outs: tuple[str, ...]
    name: str | None = None

    def __post_init__(self):
        if self.kind not in ELEMENT_KINDS:
            raise NetworkConfigError(f"unknown element kind {self.kind!r}")
        if self.kind == "beamsplitter":
            if len(self.ins) != 2 or len(self.outs) != 2:
                raise NetworkConfigError("beamsplitter needs two inputs and two outputs")
            ports = (*self.ins, *self.outs)
            if len(set(ports)) != 4:
                raise NetworkConfigError(f"beamsplitter ports not pairwise distinct: {ports}")
        elif self.kind == "mirror":
            if len(self.ins) != 1 or len(self.outs) != 1:
                raise NetworkConfigError("mirror needs one input and one output")
        elif self.kind == "detector":
            if len(self.ins) != 1 or self.outs != self.ins:
                raise NetworkConfigError("detector tags a single mode")
            if not self.name:
                raise NetworkConfigError("detector needs a display name")


@dataclass(frozen=True)
class Network:
    """Validated network.  Immutable; evolution is pure."""

    modes: tuple[str, ...]
    stages: tuple[tuple[Element, ...], ...]
    detectors: dict[str, str]
    sources: tuple[str, ...]
    live: tuple[tuple[str, ...], ...]  # live modes at each cut 0..n
    # Per stage, the stage unitary's entries {(out mode, in mode): amplitude}.
    _couplings: tuple[dict[tuple[str, str], complex], ...] = field(repr=False, compare=False)

    @property
    def n_stages(self) -> int:
        return len(self.stages)

    @property
    def n_cuts(self) -> int:
        return len(self.stages) + 1

    def check_cut(self, cut: int) -> None:
        if not isinstance(cut, int) or not 0 <= cut <= self.n_stages:
            raise OutOfRangeError(f"cut {cut!r} out of range 0..{self.n_stages}")


def build_network(config: Union[str, Mapping]) -> Network:
    """Build and validate a Network from a JSON string or an equivalent mapping.

    Schema: ``{"modes": [...], "stages": [{"elements": [...]}, ...],
    "detectors": {mode: name}, "sources": [...]}``.  Element records are
    ``{"type": "beamsplitter", "in": [u, v], "out": [x, y]}`` and
    ``{"type": "mirror", "in": m, "out": m2}``.  ``sources`` is optional;
    when omitted, every consumed-but-never-produced mode counts as a source.
    Unknown keys are rejected.
    """
    if isinstance(config, str):
        try:
            config = json.loads(config)
        except (json.JSONDecodeError, RecursionError) as exc:  # also nesting too deep to decode
            raise NetworkConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(config, Mapping):
        raise NetworkConfigError("config must be a JSON object")

    allowed = {"modes", "stages", "detectors", "sources"}
    unknown = set(config) - allowed
    if unknown:
        raise NetworkConfigError(f"unknown config keys: {sorted(unknown)}")
    if "modes" not in config or "stages" not in config:
        raise NetworkConfigError("config requires 'modes' and 'stages'")
    if not isinstance(config["modes"], (list, tuple)):
        raise NetworkConfigError("'modes' must be a list of labels")
    if not isinstance(config["stages"], (list, tuple)):
        raise NetworkConfigError("'stages' must be a list of stage records")
    if not isinstance(config.get("detectors", {}), Mapping):
        raise NetworkConfigError("'detectors' must be a mapping of mode to name")
    if not isinstance(config.get("sources", []), (list, tuple)):
        raise NetworkConfigError("'sources' must be a list of modes")

    modes = _labels(config["modes"], "'modes'")
    if len(set(modes)) != len(modes):
        raise NetworkConfigError("duplicate labels in 'modes'")

    stages: list[tuple[Element, ...]] = []
    for i, stage_rec in enumerate(config["stages"]):
        if not isinstance(stage_rec, Mapping):
            raise NetworkConfigError(f"stage {i} must be an object with 'elements'")
        if set(stage_rec) - {"elements"}:
            raise NetworkConfigError(
                f"unknown keys in stage {i}: {sorted(set(stage_rec) - {'elements'})}"
            )
        records = stage_rec.get("elements", [])
        if not isinstance(records, (list, tuple)):
            raise NetworkConfigError(f"stage {i}: 'elements' must be a list of element records")
        stages.append(tuple(_parse_element(rec, i) for rec in records))

    detectors = dict(config.get("detectors", {}))
    for mode, name in detectors.items():
        if not isinstance(name, str) or not name:
            raise NetworkConfigError(f"detector name for mode {mode!r} must be a nonempty string")
    if detectors:
        stages.append(
            tuple(
                Element("detector", (m,), (m,), name=detectors[m])
                for m in sorted(detectors)
            )
        )

    sources = config.get("sources")
    if sources is not None:
        sources = _labels(sources, "'sources'")
    return _validate(modes, tuple(stages), detectors, sources)


def _labels(values, where: str) -> tuple[str, ...]:
    labels = tuple(values)
    for m in labels:
        if not isinstance(m, str):
            raise NetworkConfigError(f"{where}: mode label {m!r} is not a string")
    return labels


def _parse_element(rec: Mapping, stage_index: int) -> Element:
    if not isinstance(rec, Mapping) or "type" not in rec:
        raise NetworkConfigError(f"element in stage {stage_index} lacks 'type'")
    kind = rec["type"]
    if kind not in ("beamsplitter", "mirror"):
        raise NetworkConfigError(f"unknown element type {kind!r} in stage {stage_index}")
    unknown = set(rec) - {"type", "in", "out"}
    if unknown:
        raise NetworkConfigError(f"unknown keys in {kind} record: {sorted(unknown)}")
    ins, outs = rec.get("in"), rec.get("out")
    if kind == "mirror":
        ins, outs = (ins,), (outs,)
    elif not (isinstance(ins, (list, tuple)) and isinstance(outs, (list, tuple))):
        raise NetworkConfigError("beamsplitter 'in'/'out' must be two-element lists")
    ins, outs = tuple(ins), tuple(outs)
    for m in ins + outs:
        if not isinstance(m, str):
            raise NetworkConfigError(f"{kind} in stage {stage_index}: mode label {m!r} is not a string")
    return Element(kind, ins, outs)


def _validate(
    modes: tuple[str, ...],
    stages: tuple[tuple[Element, ...], ...],
    detectors: dict[str, str],
    sources=None,
) -> Network:
    declared = set(modes)
    # A mode is an input when no element ever produces it afresh; an element
    # that consumes and re-emits the same label (a pass-through mirror or a
    # detector) does not count as producing it.
    freshly_produced = {
        out for stage in stages for el in stage for out in el.outs if out not in el.ins
    }
    inferred_inputs = {m for m in declared if m not in freshly_produced}

    if sources is None:
        source_set = set(inferred_inputs)
    else:
        source_set = set(sources)
        bad = source_set - inferred_inputs
        if bad:
            raise NetworkConfigError(
                f"declared sources {sorted(bad)} are produced by elements or unused"
            )

    # The live modes, each with the cut it became live at.
    live_since: dict[str, int] = {m: 0 for m in sorted(inferred_inputs)}
    live_per_cut: list[tuple[str, ...]] = [tuple(live_since)]
    couplings: list[dict[tuple[str, str], complex]] = []

    for k, stage in enumerate(stages):
        seen_ports: set[str] = set()
        for el in stage:
            ports = el.ins + el.outs
            if not declared.issuperset(ports):
                port = next(p for p in ports if p not in declared)
                raise UnknownModeError(f"stage {k}: mode {port!r} is not declared in 'modes'")
            if not seen_ports.isdisjoint(ports):
                raise DuplicateModeError(
                    f"stage {k}: mode {sorted(seen_ports.intersection(ports))} used by two elements"
                )
            seen_ports.update(ports)
        consumed: set[str] = set()
        produced: set[str] = set()
        entries: dict[tuple[str, str], complex] = {}
        for el in stage:
            if el.kind == "detector":
                if el.ins[0] not in live_since:
                    raise UnknownModeError(
                        f"stage {k}: detector on mode {el.ins[0]!r} which is not live"
                    )
                continue
            for m in el.ins:
                if m not in live_since:
                    raise UnknownModeError(
                        f"stage {k}: mode {m!r} consumed but not produced by an earlier stage or source"
                    )
            for m in el.outs:
                if m in live_since and not (m in el.ins and el.kind == "mirror"):
                    raise UnknownModeError(f"stage {k}: mode {m!r} produced while still live")
            consumed.update(el.ins)
            produced.update(el.outs)
            if el.kind == "beamsplitter":
                (u, v), (x, y) = el.ins, el.outs
                du, dv = live_since[u], live_since[v]
                if du != dv:
                    raise UnbalancedArmsError(
                        f"stage {k}: beamsplitter merges {u!r} (live since cut {du}) "
                        f"with {v!r} (live since cut {dv})"
                    )
                entries[(x, u)] = entries[(y, v)] = BS_TRANSMIT
                entries[(y, u)] = entries[(x, v)] = BS_REFLECT
            else:  # mirror
                entries[(el.outs[0], el.ins[0])] = 1.0 + 0j
        entries.update({(m, m): 1.0 + 0j for m in live_since if m not in consumed})
        for m in consumed:
            del live_since[m]
        live_since.update(dict.fromkeys(produced, k + 1))
        live_per_cut.append(tuple(sorted(live_since)))
        couplings.append(entries)

    return Network(
        modes=modes,
        stages=stages,
        detectors=detectors,
        sources=tuple(sorted(source_set)),
        live=tuple(live_per_cut),
        _couplings=tuple(couplings),
    )


PRESET_DOUBLE_MZ = {
    "modes": ["a", "b", "c", "d", "e", "f", "g", "h"],
    "sources": ["a"],
    "stages": [
        {"elements": [{"type": "beamsplitter", "in": ["a", "b"], "out": ["c", "d"]}]},
        {"elements": [{"type": "mirror", "in": "c", "out": "c"},
                      {"type": "mirror", "in": "d", "out": "d"}]},
        {"elements": [{"type": "beamsplitter", "in": ["d", "c"], "out": ["e", "f"]}]},
        {"elements": [{"type": "mirror", "in": "e", "out": "e"},
                      {"type": "mirror", "in": "f", "out": "f"}]},
        {"elements": [{"type": "beamsplitter", "in": ["f", "e"], "out": ["g", "h"]}]},
    ],
    "detectors": {"g": "G", "h": "H"},
}


def preset_double_mz() -> Network:
    """Two chained balanced Mach-Zehnder interferometers.

    Source on ``a``; BS1 (a,b -> c,d); mirrors on c and d; BS2 (d,c -> e,f);
    mirrors on e and f; BS3 (f,e -> g,h); detectors G on g and H on h.
    Port orientation is chosen so that c enters BS2 and e enters BS3 on the
    second (v) port, which reproduces the standard single-input evolution
    a -> (c + i d)/sqrt(2) -> i e -> (-g + i h)/sqrt(2).
    """
    return build_network(PRESET_DOUBLE_MZ)


def _traverse(
    net: Network,
    state: Union[Ket, Bra],
    frm: int,
    to: int,
) -> list[Union[Ket, Bra]]:
    """The state at every cut from ``frm`` to ``to``, in traversal order (see :func:`evolve`)."""
    net.check_cut(frm)
    net.check_cut(to)
    outside = set(state.entries) - set(net.live[frm])
    if outside:
        raise UnknownModeError(
            f"state supported on {sorted(outside)} which are not live at cut {frm}"
        )
    if isinstance(state, Ket):
        if frm > to:
            raise ValueError("kets evolve forward: need frm <= to")
        stages, src = range(frm, to), 1
    elif isinstance(state, Bra):
        if frm < to:
            raise ValueError("bras evolve backward: need frm >= to")
        stages, src = range(frm - 1, to - 1, -1), 0
    else:
        raise TypeError(f"cannot evolve {type(state).__name__}")
    # Each state stays on the live modes of its cut, so one support check suffices.
    states = [state]
    for k in stages:
        states.append(_contract(net._couplings[k], states[-1], src))
    return states


def evolve(
    net: Network,
    state: Union[Ket, Bra],
    frm: int,
    to: int,
) -> Union[Ket, Bra]:
    """Evolve a ket forward (frm <= to) or a bra backward (frm >= to).

    The state must be supported on modes live at the starting cut.  Kets
    are contracted with each stage's couplings over their input modes, bras
    over their output modes, so the pairing with any forward-evolved ket is
    the same at every cut.
    """
    return _traverse(net, state, frm, to)[-1]


def forward_chain(net: Network, pre: Ket) -> list[Ket]:
    """The pre state at every cut 0..n."""
    return _traverse(net, pre, 0, net.n_stages)


def backward_chain(net: Network, post: Bra) -> list[Bra]:
    """The post functional at every cut 0..n (index = cut)."""
    return _traverse(net, post, net.n_stages, 0)[::-1]
