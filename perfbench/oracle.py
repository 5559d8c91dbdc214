"""Independent reference results for the benchmark's checks (stdlib only).

Nothing here imports prepost.  Stage matrices are rebuilt densely from the
element lists of a network description; kets evolve by matrix-vector
products and postselection functionals by row-vector products, so the
pairing ``<post|pre>`` must come out the same at every cut.  Conditional
(ABL) probabilities are ``|<post| P |pre>|^2`` normalized over the outcomes.

Pilot-wave transport is re-derived from the rules documented in
``prepost/pilot.py``: mirrors map ``q -> 1-q``; a split sends ``q < 1/2`` to
the transmitted port as ``2q`` and the rest to the reflected port as
``2(1-q)`` (``2q-1`` under the order-preserving convention); a coherent
equal-weight merge maps the reflected input to ``(1-q)/2`` (``q/2``) and the
transmitted one to ``(1+q)/2``.  Every rule is affine on pieces of [0, 1),
so :meth:`Network.pieces` pushes the whole unit interval through the network
once and yields the exact partition of start quantiles into (terminal, path)
cells.  Ensemble draws follow the documented SplitMix64 substream scheme of
``prepost/rng.py``, reimplemented in :func:`draw`.
"""
from __future__ import annotations

import bisect
import math

S = 1.0 / math.sqrt(2.0)
T_AMP = complex(S, 0.0)
R_AMP = complex(0.0, S)
OCC_TOL = 1e-12
EQUAL_TOL = 1e-9

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


class OracleError(ValueError):
    """The description is outside what the reference can evaluate."""


# ---------------------------------------------------------------------------
# SplitMix64 substreams


def _mix(z: int) -> int:
    z &= _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def draw(seed: int, index: int) -> float:
    """First uniform draw of substream ``index`` of master ``seed``."""
    state = _mix((seed & _MASK) ^ _mix(((index + 1) * _GAMMA) & _MASK))
    return (_mix((state + _GAMMA) & _MASK) >> 11) * 2.0 ** -53


# ---------------------------------------------------------------------------
# Dense network mirror


class Network:
    """Dense mirror of a network description (see ``build_network``)."""

    def __init__(self, desc: dict):
        stages = []
        for rec in desc["stages"]:
            els = []
            for el in rec.get("elements", []):
                if el["type"] == "beamsplitter":
                    els.append(("bs", tuple(el["in"]), tuple(el["out"]), None))
                else:
                    els.append(("mirror", (el["in"],), (el["out"],), None))
            stages.append(els)
        detectors = dict(desc.get("detectors", {}))
        if detectors:
            stages.append([("det", (m,), (m,), detectors[m]) for m in sorted(detectors)])
        self.stages = stages
        self.detectors = detectors
        produced = {o for st in stages for kind, ins, outs, _ in st
                    if kind != "det" for o in outs if o not in ins}
        inputs = sorted(m for m in desc["modes"] if m not in produced)
        self.sources = tuple(sorted(desc.get("sources", inputs)))
        live = set(inputs)
        self.live = [tuple(sorted(live))]
        for st in stages:
            for kind, ins, outs, _ in st:
                if kind == "det":
                    continue
                live -= set(ins)
            for kind, ins, outs, _ in st:
                if kind != "det":
                    live |= set(outs)
            self.live.append(tuple(sorted(live)))
        self.index = [{m: i for i, m in enumerate(b)} for b in self.live]
        self._mats: list | None = None
        self._pieces: dict = {}

    @property
    def mats(self) -> list[list[list[complex]]]:
        if self._mats is None:
            self._mats = [self._stage_matrix(k) for k in range(len(self.stages))]
        return self._mats

    @property
    def n_stages(self) -> int:
        return len(self.stages)

    def _stage_matrix(self, k: int) -> list[list[complex]]:
        col, row = self.index[k], self.index[k + 1]
        mat = [[0j] * len(col) for _ in row]
        touched = set()
        for kind, ins, outs, _ in self.stages[k]:
            if kind == "bs":
                (u, v), (x, y) = ins, outs
                mat[row[x]][col[u]] = T_AMP
                mat[row[y]][col[u]] = R_AMP
                mat[row[x]][col[v]] = R_AMP
                mat[row[y]][col[v]] = T_AMP
                touched |= {u, v}
            elif kind == "mirror":
                mat[row[outs[0]]][col[ins[0]]] = 1 + 0j
                touched.add(ins[0])
        for m, j in col.items():
            if m not in touched:
                mat[row[m]][j] = 1 + 0j
        return mat

    # -- states ------------------------------------------------------------

    def vector(self, amps: dict[str, complex], cut: int) -> list[complex]:
        idx = self.index[cut]
        vec = [0j] * len(idx)
        for m, a in amps.items():
            if m not in idx:
                raise OracleError(f"mode {m!r} not live at cut {cut}")
            vec[idx[m]] = a
        return vec

    def as_dict(self, vec, cut: int) -> dict[str, complex]:
        return dict(zip(self.live[cut], vec))

    def forward(self, amps: dict[str, complex]) -> list[list[complex]]:
        """The ket at every cut 0..n."""
        vecs = [self.vector(amps, 0)]
        for mat in self.mats:
            v = vecs[-1]
            vecs.append([sum(r * x for r, x in zip(row, v)) for row in mat])
        return vecs

    def backward(self, amps: dict[str, complex]) -> list[list[complex]]:
        """The postselection functional at every cut 0..n (row vectors)."""
        vecs = [self.vector(amps, self.n_stages)]
        for mat in reversed(self.mats):
            b = vecs[-1]
            n_in = len(mat[0]) if mat else 0
            vecs.append([sum(b[i] * mat[i][j] for i in range(len(b))) for j in range(n_in)])
        vecs.reverse()
        return vecs

    @staticmethod
    def pair(bra, ket) -> complex:
        return sum(b * k for b, k in zip(bra, ket))

    def which_path(self, bra, ket, cut: int) -> dict[str, float]:
        weights = {m: abs(b * k) ** 2 for m, b, k in zip(self.live[cut], bra, ket)}
        total = sum(weights.values())
        return {m: w / total for m, w in weights.items()}

    def abl(self, bra, ket, cut: int, outcomes: list) -> dict[str, float]:
        """ABL probabilities for projector-file ``outcomes`` at ``cut``."""
        idx = self.index[cut]
        weights = {}
        for rec in outcomes:
            if "modes" in rec:
                amp = sum(bra[idx[m]] * ket[idx[m]] for m in rec["modes"])
            else:
                t = {m: complex(re, im) for m, (re, im) in rec["ket"].items()}
                norm = math.sqrt(sum(abs(a) ** 2 for a in t.values()))
                t = {m: a / norm for m, a in t.items()}
                amp = (sum(bra[idx[m]] * a for m, a in t.items())
                       * sum(a.conjugate() * ket[idx[m]] for m, a in t.items()))
            weights[rec["label"]] = abs(amp) ** 2
        total = sum(weights.values())
        return {label: w / total for label, w in weights.items()}

    def path_table(self, pre: dict, post: dict) -> dict[tuple[int, str], float]:
        """Which-path probability of every (cut, live mode)."""
        fwd, bwd = self.forward(pre), self.backward(post)
        table = {}
        for cut in range(self.n_stages + 1):
            for m, p in self.which_path(bwd[cut], fwd[cut], cut).items():
                table[(cut, m)] = p
        return table

    # -- pilot-wave transport ---------------------------------------------

    def _wave(self, direction: str, amps: dict[str, complex]):
        if direction == "forward":
            vecs = self.forward(amps)
            return ([self.as_dict(v, c) for c, v in enumerate(vecs)],
                    list(range(self.n_stages)))
        vecs = self.backward(amps)
        return ([self.as_dict(v, c) for c, v in enumerate(vecs)],
                list(range(self.n_stages - 1, -1, -1)))

    def empty_wave_leaks(self, post: dict[str, complex]) -> list[str]:
        """Non-source ports the backward wave reaches at cut 0."""
        b0 = self.as_dict(self.backward(post)[0], 0)
        scale = max(abs(a) for a in post.values())
        return sorted(m for m, a in b0.items()
                      if m not in self.sources and abs(a) > OCC_TOL * scale)

    def _step(self, stage: int, direction: str, amps: dict, mode: str, reverse: bool):
        """The element rule for a particle on ``mode`` entering ``stage``.

        Returns ``None`` (no element) or ``(out_mode, route)`` where route
        is ``"mirror"``, ``"det"``, ``"split"`` (with both targets) or
        ``("merge", "transmit"|"reflect")``.
        """
        for kind, ins, outs, _ in self.stages[stage]:
            if direction != "forward":
                ins, outs = outs, ins
            if mode not in ins:
                continue
            if kind == "det":
                return mode, "det"
            if kind == "mirror":
                return outs[0], "mirror"
            a0, a1 = amps.get(ins[0], 0j), amps.get(ins[1], 0j)
            if abs(amps.get(mode, 0j)) <= OCC_TOL:
                raise OracleError(f"particle on empty port {mode!r}")
            transmit_to = outs[0] if mode == ins[0] else outs[1]
            reflect_to = outs[1] if mode == ins[0] else outs[0]
            if abs(a0) > OCC_TOL and abs(a1) > OCC_TOL:
                scale = max(abs(a0), abs(a1))
                if abs(abs(a0) - abs(a1)) > EQUAL_TOL * scale:
                    raise OracleError("unequal merge")
                o0 = T_AMP * a0 + R_AMP * a1
                o1 = R_AMP * a0 + T_AMP * a1
                occ = [p for p, a in ((outs[0], o0), (outs[1], o1)) if abs(a) > OCC_TOL * scale]
                if len(occ) != 1:
                    raise OracleError("merge into two outputs")
                return occ[0], ("merge", "transmit" if occ[0] == transmit_to else "reflect")
            return (transmit_to, reflect_to), "split"
        return None

    def pieces(self, direction: str, amps: dict[str, complex], start: str,
               reverse: bool = True):
        """Exact partition of start quantiles: sorted ``(lo, hi, terminal, path)``.

        Each piece carries the affine map ``q = s*q0 + c`` while it is pushed
        through the stages; only the cells are returned.
        """
        key = (direction, tuple(sorted(amps.items())), start, reverse)
        if key in self._pieces:
            return self._pieces[key]
        waves, order = self._wave(direction, amps)
        cells = [(0.0, 1.0, 1.0, 0.0, start, [start])]
        for stage in order:
            wave = waves[stage if direction == "forward" else stage + 1]
            nxt = []
            for lo, hi, s, c, mode, modes in cells:
                step = self._step(stage, direction, wave, mode, reverse)
                if step is None or step[1] == "det":
                    nxt.append((lo, hi, s, c, mode, modes))
                    continue
                out, route = step
                if route == "mirror":
                    nxt.append((lo, hi, -s, 1.0 - c, out, _extend(modes, out)))
                elif route == "split":
                    t_out, r_out = out
                    x = (0.5 - c) / s  # q0 where q == 1/2
                    t_map = (2 * s, 2 * c)
                    r_map = (-2 * s, 2 - 2 * c) if reverse else (2 * s, 2 * c - 1)
                    below = (lo, min(hi, x)) if s > 0 else (max(lo, x), hi)
                    above = (max(lo, x), hi) if s > 0 else (lo, min(hi, x))
                    if below[0] < below[1]:
                        nxt.append((*below, *t_map, t_out, _extend(modes, t_out)))
                    if above[0] < above[1]:
                        nxt.append((*above, *r_map, r_out, _extend(modes, r_out)))
                else:
                    if route[1] == "reflect":
                        m = (-s / 2, (1 - c) / 2) if reverse else (s / 2, c / 2)
                    else:
                        m = (s / 2, (1 + c) / 2)
                    nxt.append((lo, hi, *m, out, _extend(modes, out)))
            cells = nxt
        names = self.detectors if direction == "forward" else {}
        result = sorted(
            (lo, hi, names.get(mode, mode), _path(modes)) for lo, hi, _, _, mode, modes in cells
        )
        self._pieces[key] = result
        return result

    def transport_one(self, direction: str, amps: dict[str, complex], start: str,
                      q0: float, reverse: bool = True):
        """One particle, step by step: ``(terminal, path, quantiles per cut)``."""
        waves, order = self._wave(direction, amps)
        mode, q = start, q0
        modes, qs = [mode], [q]
        for stage in order:
            wave = waves[stage if direction == "forward" else stage + 1]
            step = self._step(stage, direction, wave, mode, reverse)
            if step is not None and step[1] != "det":
                out, route = step
                if route == "mirror":
                    mode, q = out, _clamp(1.0 - q)
                elif route == "split":
                    if q < 0.5:
                        mode, q = out[0], _clamp(2.0 * q)
                    else:
                        mode, q = out[1], _clamp(2.0 * (1.0 - q) if reverse else 2.0 * q - 1.0)
                elif route[1] == "reflect":
                    mode, q = out, _clamp((1.0 - q) / 2.0 if reverse else q / 2.0)
                else:
                    mode, q = out, _clamp((1.0 + q) / 2.0)
            modes.append(mode)
            qs.append(q)
        names = self.detectors if direction == "forward" else {}
        collapsed = []
        for m in modes:
            if not collapsed or collapsed[-1] != m:
                collapsed.append(m)
        return names.get(mode, mode), _path(collapsed), qs

    def ensemble(self, direction: str, amps: dict[str, complex], start: str,
                 samples: int, seed: int, reverse: bool = True):
        """Exact detector counts and conditional path counts of an ensemble."""
        cells = self.pieces(direction, amps, start, reverse)
        los = [c[0] for c in cells]
        edges = {c[0] for c in cells} | {c[1] for c in cells}
        counts: dict[str, int] = {}
        paths: dict[str, dict[str, int]] = {}
        for i in range(samples):
            q0 = draw(seed, i)
            if q0 in edges:
                term, path, _ = self.transport_one(direction, amps, start, q0, reverse)
            else:
                _, _, term, path = cells[bisect.bisect_right(los, q0) - 1]
            counts[term] = counts.get(term, 0) + 1
            key = ">".join(path)
            sub = paths.setdefault(term, {})
            sub[key] = sub.get(key, 0) + 1
        return counts, paths

    def born(self, direction: str, amps: dict[str, complex], start: str) -> dict[str, float]:
        """Terminal weights implied by the wave.

        Forward: ``|amplitude|^2`` at each detector mode (a single entry
        mode carries the whole packet).  Reversed: the backward wave's
        weights at the entry cut.
        """
        waves, _ = self._wave(direction, amps)
        final = waves[-1] if direction == "forward" else waves[0]
        total = sum(abs(a) ** 2 for a in final.values())
        names = self.detectors if direction == "forward" else {}
        return {names.get(m, m): abs(a) ** 2 / total for m, a in final.items()
                if abs(a) ** 2 / total > 1e-24}


def _extend(modes: list[str], mode: str) -> list[str]:
    return modes if modes[-1] == mode else modes + [mode]


def _path(modes: list[str]) -> tuple[str, ...]:
    return tuple(modes[:-1]) if len(modes) > 1 else tuple(modes)


def _clamp(q: float) -> float:
    if q >= 1.0:
        return math.nextafter(1.0, 0.0)
    if q < 0.0:
        return 0.0
    return q
