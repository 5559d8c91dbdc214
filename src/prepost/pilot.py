"""Rule-based pilot-wave trajectories through beamsplitter networks.

A particle is a (mode, quantile) pair: the quantile q in [0, 1) is its
cumulative-probability position inside the wave packet occupying its mode,
measured from the leading edge.  Transport is exact: a particle is the
zero-width cell just above (or, after an order reversal, just below) a
rational, held as Python ints ``(num, den, side)`` and started from the
float q0 as the cell just above it.  Reported quantiles are num/den,
correctly rounded, so a particle at the trailing edge of its packet (the
cell just below 1) reads 1.0.  Every rule is one affine map, cut by cut:

* mirror: the packet is reflected, so particle order reverses: q -> 1 - q.
* beamsplitter, the product coupling: input i, of mass w_i = |a_i|^2 (the
  float read as an exact rational), sends w_i * v_j / W to output j, of
  mass v_j = |o_j|^2, W being the total.  An input packet is laid out as
  [transmitted | reflected], so a cell below v_t / (v_t + v_r) transmits;
  an output packet as [reflected inflow | transmitted inflow], and a
  reflected piece is reversed.  One occupied input gives the split,
  q -> 2q or 2(1 - q); one occupied output the merge, q -> (1 - q)/2 or
  (1 + q)/2.

A decreasing map flips the side of the cell.  Trajectories never cross:
distinct quantiles stay distinct, and a uniform quantile ensemble
reproduces |amplitude|^2 statistics at every cut.  A port is occupied iff
|amplitude| > OCCUPANCY_TOL there, the one occupancy test; a particle on an
empty port, or at a beamsplitter that leaves both outputs empty, raises
TrajectoryError, so every particle rides occupied ports only.

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
whether the cell lies below its element's threshold, and which element a
particle meets, and its threshold, depend on its mode alone.  So the draws
k / 2^53 that share a route form a half-open interval of numerators k, and
pushing all of [0, 2^53) through the stages as integer affine maps of k
yields the exact partition by route.  Draws are counted per piece in index
order, and the counts are expanded in the order the pieces were first
reached, so every count dict is ordered by the first draw to reach each
key, as when every draw is transported.  A piece whose route raises keeps
the error, which is raised only if a draw lands in the piece.
"""
from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from itertools import chain, groupby, repeat
from math import gcd
from typing import Iterable, Union

from .hilbert import Bra, Ket
from .network import (BS_REFLECT, BS_TRANSMIT, Element, Network, OutOfRangeError,
                      backward_chain, forward_chain)
from .rng import substream_draws

OCCUPANCY_TOL = 1e-12
EMPTY_WAVE_DIAGNOSTIC = "empty-wave component absent"


class TrajectoryError(ValueError):
    """A trajectory cannot be started or continued as requested."""


@dataclass(frozen=True)
class RuleTable:
    """Transport conventions.  ``reverse_on_bs_reflection`` toggles packet
    order reversal at beamsplitter reflections (mirrors always reverse)."""

    reverse_on_bs_reflection: bool = True


DEFAULT_RULES = RuleTable()

# An exact position (num, den, side): the zero-width cell just above (side +1)
# or just below (side -1) the rational num/den.
Position = tuple[int, int, int]
# Each rule (scale, shift, div) is x -> (scale*x + shift) / div, and a
# decreasing one flips the side.
Rule = tuple[int, int, int]
_IDENTITY = (1, 0, 1)
_MIRROR = (-1, 1, 1)
# The threshold (num, den) of an element with one branch: every cell lies below 1.
_WHOLE = (1, 1)


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
    branchings = _branches(element, context.amplitudes, context.direction, context.rules)
    return _transfer(mode, position, branchings.get(mode))


def _transfer(mode: str, position: Position, branching) -> tuple[str, Position]:
    """``element_transfer`` given the entry of ``_branches`` for the port of
    ``mode`` (``None`` if the element has no such port)."""
    if branching is None:
        raise TrajectoryError(f"particle on {mode!r} is not at this element")
    if isinstance(branching, TrajectoryError):
        raise branching
    num, den, side = position
    # The cell is the one-draw piece k -> (side*k + num) / den, k in [0, 1).
    ((_, _, a, b, d, out),) = _images(0, 1, side, num, den, *branching)
    return out, (b, d, 1 if a > 0 else -1)


def _branches(element: Element, amplitudes: dict[str, complex], direction: str,
              rules: RuleTable) -> dict[str, Union[tuple, TrajectoryError]]:
    """Where ``element`` sends a particle on each of its input ports in the
    traversal ``direction`` of the wave ``amplitudes``: a rational threshold
    ``(num, den)`` and the ``(out_mode, rule)`` branches of a cell below it
    and of any other cell (one branch serves both off a beamsplitter), or the
    error it raises if the port or both outputs are empty (see ``_share``)."""
    ins, outs = (element.ins, element.outs) if direction == "forward" else (element.outs, element.ins)
    if element.kind != "beamsplitter":
        return {ins[0]: (_WHOLE, ((outs[0], _MIRROR if element.kind == "mirror" else _IDENTITY),))}
    amp0, amp1 = amplitudes.get(ins[0], 0j), amplitudes.get(ins[1], 0j)
    scale = max(abs(amp0), abs(amp1))
    # The first input supplies the share sn/sd of each output packet, and
    # transmits the share tn/td of its own packet; the second input's
    # shares are the complements.
    sn, sd = _share(amp0, amp1, scale)
    tn, td = _share(BS_TRANSMIT * amp0 + BS_REFLECT * amp1,
                    BS_REFLECT * amp0 + BS_TRANSMIT * amp1, scale)
    reverse = rules.reverse_on_bs_reflection
    branches: dict[str, Union[tuple, TrajectoryError]] = {}
    # Transmission keeps the port pairing (in0<->out0, in1<->out1).
    for port, s, t, (transmit_to, reflect_to) in ((ins[0], sn, tn, outs),
                                                  (ins[1], sd - sn, td - tn, outs[::-1])):
        if not (s and td):
            why = "that port carries no amplitude" if not s else "its wave leaves no output occupied"
            branches[port] = TrajectoryError(f"particle on {port!r} but {why}")
            continue
        reflect = ((-s * td, s * td, sd * (td - t)) if reverse
                   else (s * td, -s * t, sd * (td - t)))
        branches[port] = (t, td), ((transmit_to, (s * td, (sd - s) * t, sd * t)),
                                   (reflect_to, reflect))
    return branches


def _share(x: complex, y: complex, scale: float) -> tuple[int, int]:
    """|x|^2 / (|x|^2 + |y|^2) as an exact fraction in lowest terms, of the
    float masses |x / scale|^2 and |y / scale|^2.  An amplitude is occupied
    iff its magnitude exceeds ``OCCUPANCY_TOL`` (the module's one occupancy
    test), an empty one has mass 0, and ``(0, 0)`` means both are empty."""
    p, q = ((abs(x) / scale) ** 2 if abs(x) > OCCUPANCY_TOL else 0.0).as_integer_ratio()
    r, s = ((abs(y) / scale) ** 2 if abs(y) > OCCUPANCY_TOL else 0.0).as_integer_ratio()
    g = gcd(p * s, p * s + r * q) or 1
    return p * s // g, (p * s + r * q) // g


def _images(lo: int, hi: int, a: int, b: int, d: int, threshold: tuple[int, int],
            branches: tuple[tuple[str, Rule], ...]) -> list[tuple]:
    """The piece of draws ``k`` in ``[lo, hi)`` whose cell is ``(a*k + b) / d``,
    on the side of sign(a), split at the rational ``threshold``: the
    nonempty parts below it and not below it, as ``(start, end, a, b, d,
    out_mode)`` of their images under ``branches`` (see ``_branches``)."""
    num, den = threshold
    # The cell lies below num/den iff k < x (a > 0) or k >= x (a < 0).
    x = -((b * den - num * d) // (a * den))
    below, above = (lo, min(hi, x)), (max(lo, x), hi)
    spans = (below, above) if a > 0 else (above, below)
    return [(start, end, scale * a, scale * b + shift * d, d * div, out)
            for (start, end), (out, (scale, shift, div)) in zip(spans, (branches[0], branches[-1]))
            if start < end]


@dataclass(frozen=True)
class _Plan:
    """Precomputed per-run data shared by every sample of an ensemble."""

    direction: str
    cuts: tuple[int, ...]          # cut sequence in traversal order
    # per stage, by oriented input port: ``_branches`` of the element there
    branchings: tuple[dict[str, Union[tuple, TrajectoryError]], ...]
    start_mode: str
    terminal_names: dict[str, str]
    diagnostics: tuple[str, ...]


def _build_plan(
    net: Network,
    direction: str,
    terminal_state: Union[Ket, Bra, None],
    start_mode: str | None,
    rules: RuleTable,
) -> _Plan:
    """The plan of a run from ``terminal_state``, by default the entry ket on
    the network's single source."""
    if terminal_state is None:
        if direction != "forward":
            raise TrajectoryError("reversed runs require an explicit terminal state")
        if len(net.sources) != 1:
            raise TrajectoryError("no default entry state: network has multiple sources")
        terminal_state = Ket({net.sources[0]: 1.0 + 0j})
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
        leaked = [
            m
            for m, a in chain[0].entries.items()
            if m not in net.sources and abs(a) > OCCUPANCY_TOL
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
        branchings=tuple(
            {port: branching for el in net.stages[min(a, b)]
             for port, branching in _branches(el, chain[a].entries, direction, rules).items()}
            for a, b in zip(cuts, cuts[1:])
        ),
        start_mode=start_mode,
        terminal_names=dict(net.detectors) if forward else {},
        diagnostics=diagnostics,
    )


def _run(plan: _Plan, q0: float) -> TrajectoryRecord:
    mode, position = plan.start_mode, (*q0.as_integer_ratio(), 1)
    states = [ParticleState(mode=mode, quantile=q0, cut=plan.cuts[0])]
    for branchings, cut in zip(plan.branchings, plan.cuts[1:]):
        if mode in branchings:
            mode, position = _transfer(mode, position, branchings[mode])
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
    for branchings in plan.branchings:
        moved = []
        for lo, hi, a, b, d, mode, modes in live:
            branching = branchings.get(mode, (_WHOLE, ((mode, _IDENTITY),)))
            if isinstance(branching, TrajectoryError):
                pieces.append((lo, branching))
                continue
            moved += [(*piece, (*modes, piece[-1]))
                      for piece in _images(lo, hi, a, b, d, *branching)]
        live = moved
    pieces += [(lo, (plan.terminal_names.get(mode, mode), _path(modes)))
               for lo, *_, mode, modes in live]
    los, outcomes = zip(*sorted(pieces, key=lambda piece: piece[0]))
    return los[1:], outcomes


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
    plan = _build_plan(net, direction, terminal_state, start_mode, rules)
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
    plan = _build_plan(net, direction, terminal_state, start_mode, rules)
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
