"""Rule-based pilot-wave trajectories through beamsplitter networks.

A particle is a (mode, quantile) pair: the quantile q in [0, 1) is its
cumulative-probability position inside the wave packet occupying its mode,
measured from the leading edge.  Transport is exact: a particle is the
zero-width cell just above (or, after an order reversal, just below) a
dyadic rational, held as Python ints ``(num, den, side)`` and started from
the float q0 as the cell just above it.  Reported quantiles are num/den,
correctly rounded, so a particle at the trailing edge of its packet (the
cell just below 1) reads 1.0.  Every rule is one affine map, cut by cut:

* mirror: the packet is reflected, so particle order reverses: q -> 1 - q.
* beamsplitter, one occupied input (a split): a cell below 1/2 (the
  leading half) transmits, q -> 2q; the trailing half reflects,
  q -> 2(1 - q) (reflection reverses order; measure-preserving rescaling
  onto the reflected packet).
* beamsplitter, two coherent equal-weight occupied inputs interfering into
  a single occupied output (a merge): the reflected input fills the leading
  half with its order reversed, q -> (1 - q)/2; the transmitted input fills
  the trailing half preserving order, q -> (1 + q)/2.

A decreasing map flips the side of the cell.  Trajectories never cross:
distinct quantiles stay distinct, and a uniform quantile ensemble
reproduces |amplitude|^2 statistics at the detectors.

Whether reflection at a *beamsplitter* reverses packet order cannot be
settled by detector statistics; both conventions give the same terminal
assignment.  The default reverses (as at mirrors); a RuleTable switch
selects the alternative for robustness checks.

Time-reversed runs traverse the stages backward, guided by the backward
evolution of a supplied terminal functional.  That functional must include
every branch of the final wave, empty or not; if the wave it induces at the
entry cut leaks onto non-source ports, the run is flagged with the
diagnostic "empty-wave component absent".

Ensembles count their draws instead of transporting each one.  Every rule
is an affine map of the exact cell, the only branch on the position is
whether the cell lies below 1/2, and which element a particle meets, and
whether a merge routes it, depend on its mode alone.  So the draws k / 2^53
that share a route form a half-open interval of numerators k, and pushing
all of [0, 2^53) through the stages as integer affine maps of k yields the
exact partition by route.  Draws are counted per piece in index order, and
the counts are expanded in the order the pieces were first reached, so
every count dict is ordered by the first draw to reach each key, as when
every draw is transported.  A piece whose route raises keeps the error,
which is raised only if a draw lands in the piece.
"""
from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from itertools import chain, groupby, repeat
from typing import Iterable, Union

from .hilbert import Bra, Ket
from .network import (BS_REFLECT, BS_TRANSMIT, Element, Network, OutOfRangeError,
                      backward_chain, forward_chain)
from .rng import substream_draws

OCCUPANCY_TOL = 1e-12
EQUAL_WEIGHT_TOL = 1e-9
EMPTY_WAVE_DIAGNOSTIC = "empty-wave component absent"


class UnsupportedMergeError(ValueError):
    """Two-input amplitude pattern outside the supported rule table."""


class TrajectoryError(ValueError):
    """A trajectory cannot be started or continued as requested."""


@dataclass(frozen=True)
class RuleTable:
    """Transport conventions.  ``reverse_on_bs_reflection`` toggles packet
    order reversal at beamsplitter reflections (mirrors always reverse)."""

    reverse_on_bs_reflection: bool = True


DEFAULT_RULES = RuleTable()

# An exact position (num, den, side): the zero-width cell just above (side +1)
# or just below (side -1) the dyadic rational num/den.
Position = tuple[int, int, int]
# Each rule (scale, shift, halve) is x -> (scale*x + shift) / 2**halve, and a
# decreasing one flips the side; reflection rules are keyed by
# ``RuleTable.reverse_on_bs_reflection``.
Rule = tuple[int, int, int]
_IDENTITY = (1, 0, 0)
_MIRROR = (-1, 1, 0)
_SPLIT_TRANSMIT = (2, 0, 0)
_SPLIT_REFLECT = {True: (-2, 2, 0), False: (2, -1, 0)}
_MERGE_REFLECT = {True: (-1, 1, 1), False: (1, 0, 1)}
_MERGE_TRANSMIT = (1, 1, 1)


@dataclass(frozen=True)
class ParticleState:
    mode: str
    quantile: float
    cut: int


@dataclass(frozen=True)
class TrajectoryRecord:
    """A full trajectory: one ParticleState per cut, in traversal order."""

    direction: str  # "forward" | "reversed"
    quantile0: float
    states: tuple[ParticleState, ...]
    terminal: str
    diagnostics: tuple[str, ...] = ()

    @property
    def path(self) -> tuple[str, ...]:
        """Mode sequence with consecutive repeats removed and the terminal
        arm dropped (it is reported via ``terminal``)."""
        return _path(s.mode for s in self.states)

    def to_json(self) -> dict:
        return {
            "detector": self.terminal,
            "diagnostics": list(self.diagnostics),
            "direction": self.direction,
            "path": list(self.path),
            "quantile0": self.quantile0,
            "quantiles": [s.quantile for s in self.states],
        }


def _path(modes: Iterable[str]) -> tuple[str, ...]:
    """``TrajectoryRecord.path`` of a mode sequence."""
    collapsed = [mode for mode, _ in groupby(modes)]
    return tuple(collapsed[:-1]) if len(collapsed) > 1 else tuple(collapsed)


@dataclass(frozen=True)
class EnsembleStats:
    samples: int
    seed: int
    direction: str
    detector_counts: dict[str, int]
    conditional_paths: dict[str, dict[tuple[str, ...], int]]
    diagnostics: tuple[str, ...] = ()

    def frequency(self, terminal: str) -> float:
        return self.detector_counts.get(terminal, 0) / self.samples

    def to_json(self) -> dict:
        return {
            "detector_counts": dict(sorted(self.detector_counts.items())),
            "diagnostics": list(self.diagnostics),
            "direction": self.direction,
            "conditional_paths": {
                term: {">".join(path): n for path, n in sorted(paths.items())}
                for term, paths in sorted(self.conditional_paths.items())
            },
            "samples": self.samples,
            "seed": self.seed,
        }


@dataclass(frozen=True)
class TransferContext:
    """Wave information an element rule needs: complex amplitudes on the
    element's input ports for the traversal direction."""

    amplitudes: dict[str, complex]
    direction: str = "forward"
    rules: RuleTable = DEFAULT_RULES


def element_transfer(
    element: Element,
    mode: str,
    position: Position,
    context: TransferContext,
) -> tuple[str, Position]:
    """Transport one particle, at its exact cell ``position``, through one
    element (see module docstring): the output mode and the image cell."""
    branches = _branches(element, mode, context)
    num, den, side = position
    # A split sends a cell below 1/2 down its first branch, any other down its second.
    out, rule = branches[len(branches) == 2 and (2 * num, side) >= (den, 0)]
    return out, _image(position, rule)


def _branches(element: Element, mode: str, context: TransferContext) -> tuple[tuple[str, Rule], ...]:
    """Where ``element`` sends a particle on ``mode``: one ``(out_mode, rule)``
    branch, or a split's transmitted and reflected branches.  Which applies
    depends on the mode alone, and so does every error."""
    if element.kind == "mirror":
        ins, outs = _oriented_ports(element, context.direction)
        if mode != ins[0]:
            raise TrajectoryError(f"particle on {mode!r} is not at this mirror")
        return ((outs[0], _MIRROR),)
    if element.kind == "detector":
        if mode != element.ins[0]:
            raise TrajectoryError(f"particle on {mode!r} is not at this detector")
        return ((mode, _IDENTITY),)

    (p_in0, p_in1), (p_out0, p_out1) = _oriented_ports(element, context.direction)
    if mode not in (p_in0, p_in1):
        raise TrajectoryError(f"particle on {mode!r} is not an input of this beamsplitter")
    amp0, amp1 = context.amplitudes.get(p_in0, 0j), context.amplitudes.get(p_in1, 0j)
    occ0, occ1 = abs(amp0) > OCCUPANCY_TOL, abs(amp1) > OCCUPANCY_TOL
    if not (occ0 if mode == p_in0 else occ1):
        raise TrajectoryError(f"particle on {mode!r} but that port carries no amplitude")

    # Transmission keeps the port pairing (in0<->out0, in1<->out1).
    transmit_to = p_out0 if mode == p_in0 else p_out1
    reflect_to = p_out1 if mode == p_in0 else p_out0
    reverse = context.rules.reverse_on_bs_reflection

    if occ0 and occ1:
        scale = max(abs(amp0), abs(amp1))
        if abs(abs(amp0) - abs(amp1)) > EQUAL_WEIGHT_TOL * scale:
            raise UnsupportedMergeError(
                f"two occupied inputs with unequal weights ({abs(amp0):.6g} vs {abs(amp1):.6g})"
            )
        out0 = BS_TRANSMIT * amp0 + BS_REFLECT * amp1
        out1 = BS_REFLECT * amp0 + BS_TRANSMIT * amp1
        occupied_outs = [p for p, a in ((p_out0, out0), (p_out1, out1)) if abs(a) > OCCUPANCY_TOL * scale]
        if len(occupied_outs) != 1:
            raise UnsupportedMergeError(
                "two occupied inputs do not interfere into a single output"
            )
        target = occupied_outs[0]
        return ((target, _MERGE_TRANSMIT if target == transmit_to else _MERGE_REFLECT[reverse]),)
    return (transmit_to, _SPLIT_TRANSMIT), (reflect_to, _SPLIT_REFLECT[reverse])


def _image(position: Position, rule: Rule) -> Position:
    """The image of the cell ``position`` under ``rule``."""
    num, den, side = position
    scale, shift, halve = rule
    return scale * num + shift * den, den << halve, side if scale > 0 else -side


def _oriented_ports(element: Element, direction: str) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """``(ins, outs)`` of the element in the traversal direction."""
    if direction == "forward":
        return element.ins, element.outs
    return element.outs, element.ins


@dataclass(frozen=True)
class _Plan:
    """Precomputed per-run data shared by every sample of an ensemble."""

    direction: str
    cuts: tuple[int, ...]          # cut sequence in traversal order
    contexts: tuple[TransferContext, ...]
    elements: tuple[dict[str, Element], ...]  # per stage, by oriented input port
    start_mode: str
    terminal_names: dict[str, str]
    diagnostics: tuple[str, ...]


def _build_plan(
    net: Network,
    direction: str,
    terminal_state: Union[Ket, Bra],
    start_mode: str | None,
    rules: RuleTable,
) -> _Plan:
    if direction not in ("forward", "reversed"):
        raise ValueError(f"direction must be 'forward' or 'reversed', got {direction!r}")
    if not terminal_state.entries:
        raise TrajectoryError("terminal state carries no amplitude")
    forward = direction == "forward"
    if not isinstance(terminal_state, Ket if forward else Bra):
        raise TrajectoryError("forward runs start from a ket at the entry cut" if forward
                              else "reversed runs start from a functional at the final cut")
    chain = (forward_chain if forward else backward_chain)(net, terminal_state)
    cuts = tuple(range(net.n_cuts) if forward else range(net.n_stages, -1, -1))
    diagnostics: tuple[str, ...] = ()
    if not forward:
        scale = max(abs(a) for a in terminal_state.entries.values())
        leaked = [
            m
            for m, a in chain[0].entries.items()
            if m not in net.sources and abs(a) > OCCUPANCY_TOL * scale
        ]
        if leaked:
            diagnostics = (f"{EMPTY_WAVE_DIAGNOSTIC} (terminal state reaches non-source ports "
                           f"{leaked} at cut 0)",)

    occupied_entry = [m for m, a in chain[cuts[0]].entries.items()
                      if abs(a) > OCCUPANCY_TOL]
    if start_mode is None:
        if len(occupied_entry) != 1:
            raise TrajectoryError(
                f"terminal state occupies {occupied_entry}; start_mode is required"
            )
        start_mode = occupied_entry[0]
    elif start_mode not in occupied_entry:
        raise TrajectoryError(
            f"start mode {start_mode!r} carries no amplitude in the terminal state"
        )

    return _Plan(
        direction=direction,
        cuts=cuts,
        contexts=tuple(
            TransferContext(dict(chain[cut].entries), direction=direction, rules=rules)
            for cut in cuts[:-1]
        ),
        elements=tuple(
            {port: el for el in net.stages[min(a, b)]
             for port in _oriented_ports(el, direction)[0]}
            for a, b in zip(cuts, cuts[1:])
        ),
        start_mode=start_mode,
        terminal_names=dict(net.detectors) if forward else {},
        diagnostics=diagnostics,
    )


def _run(plan: _Plan, q0: float) -> TrajectoryRecord:
    mode, position = plan.start_mode, (*q0.as_integer_ratio(), 1)
    states = [ParticleState(mode=mode, quantile=q0, cut=plan.cuts[0])]
    for context, elements, cut in zip(plan.contexts, plan.elements, plan.cuts[1:]):
        el = elements.get(mode)
        if el is not None:
            mode, position = element_transfer(el, mode, position, context)
        states.append(ParticleState(mode=mode, quantile=position[0] / position[1], cut=cut))
    terminal = plan.terminal_names.get(mode, mode)
    return TrajectoryRecord(
        direction=plan.direction,
        quantile0=q0,
        states=tuple(states),
        terminal=terminal,
        diagnostics=plan.diagnostics,
    )


def _partition(plan: _Plan) -> tuple[tuple[int, ...], tuple]:
    """The exact partition of the draw numerators ``[0, 2**53)`` by route:
    the start edges of the pieces after the first, and per piece its
    ``(terminal, path)`` or the error its route raises; draw ``k`` lies in
    piece ``bisect_right(edges, k)``.  A piece carries its cell as the
    integer affine map ``(a*k + b) / d`` of ``k``, on the side of sign(a).
    """
    live = [(0, 1 << 53, 1, 0, 1 << 53, plan.start_mode, (plan.start_mode,))]
    pieces = []
    for context, elements in zip(plan.contexts, plan.elements):
        moved = []
        for lo, hi, a, b, d, mode, modes in live:
            element = elements.get(mode)
            try:
                branches = (((mode, _IDENTITY),) if element is None
                            else _branches(element, mode, context))
            except (UnsupportedMergeError, TrajectoryError) as exc:
                pieces.append((lo, exc))
                continue
            spans = [(lo, hi)]
            if len(branches) == 2:
                # The cell lies below 1/2 iff k < x (a > 0) or k >= x (a < 0).
                x = -((2 * b - d) // (2 * a))
                below, above = (lo, min(hi, x)), (max(lo, x), hi)
                spans = [below, above] if a > 0 else [above, below]
            for (start, end), (out, (scale, shift, halve)) in zip(spans, branches):
                if start < end:
                    moved.append((start, end, scale * a, scale * b + shift * d, d << halve,
                                  out, (*modes, out)))
        live = moved
    pieces += [(lo, (plan.terminal_names.get(mode, mode), _path(modes)))
               for lo, *_, mode, modes in live]
    los, outcomes = zip(*sorted(pieces, key=lambda piece: piece[0]))
    return los[1:], outcomes


def _terminal_or_default(
    net: Network, direction: str, terminal_state: Union[Ket, Bra, None]
) -> Union[Ket, Bra]:
    """``terminal_state``, or the entry ket on the network's single source."""
    if terminal_state is not None:
        return terminal_state
    if direction != "forward":
        raise TrajectoryError("reversed runs require an explicit terminal state")
    if len(net.sources) != 1:
        raise TrajectoryError("no default entry state: network has multiple sources")
    return Ket({net.sources[0]: 1.0 + 0j})


def run_trajectory(
    net: Network,
    q0: float,
    direction: str = "forward",
    terminal_state: Union[Ket, Bra, None] = None,
    start_mode: str | None = None,
    rules: RuleTable = DEFAULT_RULES,
) -> TrajectoryRecord:
    """Transport one particle through the network.

    Forward runs take the entry ket (default: the network's single source
    mode); reversed runs take the final-cut functional, including any
    empty-wave branches.  ``start_mode`` selects the particle's port when
    the terminal state occupies several.
    """
    if not (isinstance(q0, (int, float)) and 0.0 <= q0 < 1.0):
        raise OutOfRangeError(f"quantile must lie in [0, 1), got {q0!r}")
    plan = _build_plan(net, direction, _terminal_or_default(net, direction, terminal_state),
                       start_mode, rules)
    return _run(plan, q0)


def run_ensemble(
    net: Network,
    samples: int,
    seed: int,
    direction: str = "forward",
    terminal_state: Union[Ket, Bra, None] = None,
    start_mode: str | None = None,
    rules: RuleTable = DEFAULT_RULES,
) -> EnsembleStats:
    """Run many trajectories with quantiles drawn uniformly from derived
    per-sample streams, and aggregate terminal and path statistics.

    Draw ``i`` is ``derive_stream(seed, i).random()``, whose numerators
    ``substream_draws`` computes in blocks.  The draws are counted per piece
    of the route partition (see module docstring), so the result, dict order
    and exceptions included, equals transporting every draw with ``_run``.
    """
    if samples < 1:
        raise OutOfRangeError("samples must be >= 1")
    plan = _build_plan(net, direction, _terminal_or_default(net, direction, terminal_state),
                       start_mode, rules)
    edges, outcomes = _partition(plan)
    draws = chain.from_iterable(substream_draws(seed, samples))
    detector_counts: dict[str, int] = {}
    conditional: dict[str, dict[tuple[str, ...], int]] = {}
    for piece, n in Counter(map(bisect_right, repeat(edges), draws)).items():
        outcome = outcomes[piece]
        if isinstance(outcome, ValueError):
            raise outcome
        terminal, path = outcome
        detector_counts[terminal] = detector_counts.get(terminal, 0) + n
        paths = conditional.setdefault(terminal, {})
        paths[path] = paths.get(path, 0) + n
    return EnsembleStats(
        samples=samples,
        seed=seed,
        direction=direction,
        detector_counts=detector_counts,
        conditional_paths=conditional,
        diagnostics=plan.diagnostics,
    )
