"""Span tracing of prepost's layers from outside the package.

:class:`Tracer` wraps the public functions of each layer module, plus a few
methods, in span recorders.  ``from .x import y`` copies the binding into
the importing module, so :meth:`Tracer.install` replaces every binding of a
wrapped function in every prepost module, and restores them on
:meth:`Tracer.uninstall`.

A span records its name, start, end and parent (the span open when it
began).  Spans stay in flat in-memory arrays until :meth:`Tracer.dump`
writes them out.  A span's self time is its duration minus the durations of
its children; :func:`layer_metrics` turns the spans into the per-layer
metrics of the benchmark.  Time outside every span is ``bench`` self time.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from array import array

LAYERS = ("cli", "network", "hilbert", "twotime", "pilot", "rng", "pointer")
# (module, class, method) pairs traced in addition to module functions.
METHODS = (
    ("rng", "SplitMix64", "random"),
    ("rng", "SplitMix64", "choice_index"),
    ("twotime", "ProjectorSet", "validate"),
)
# demo.network_diagram renders the CLI's ASCII sketch: traced as cli rendering.
EXTRA = (("demo", "network_diagram", "cli.network_diagram"),)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.notes: dict[int, object] = {}
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._keep: list[object] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, note=None):
        """``fn`` recording one span per call; ``note(args, result)`` is kept."""
        nid = self._id(name)
        name_of, parent, start, end = self.name_of, self.parent, self.start, self.end
        stack, notes, clock = self._stack, self.notes, time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            idx = len(name_of)
            name_of.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if note is not None:
                notes[idx] = note(args, result)
            return result

        span.__wrapped_original__ = fn
        return span

    def _notes(self):
        keep = self._keep

        def unitary(args, result):
            keep.append(args[0])  # keep the network alive so its id stays unique
            return (id(args[0]), args[1])

        return {
            "pilot.run_ensemble": lambda args, result: result.samples,
            "twotime.certainty_report": lambda args, result: args[0].n_stages,
            "network.stage_unitary": unitary,
            "cli.render": lambda args, result: len(result.encode("utf-8")),
        }

    def install(self, package: str = "prepost") -> None:
        """Wrap every layer's public functions and patch all their bindings."""
        mods = {name: importlib.import_module(f"{package}.{name}")
                for name in (*LAYERS, "demo")}
        mods[""] = importlib.import_module(package)
        notes = self._notes()
        originals = {}
        for layer in LAYERS:
            mod = mods[layer]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    name = f"{layer}.{attr}"
                    originals[id(obj)] = (obj, self.wrap(name, obj, notes.get(name)))
        for mod_name, attr, name in EXTRA:
            obj = getattr(mods[mod_name], attr)
            originals[id(obj)] = (obj, self.wrap(name, obj))
        for mod in mods.values():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in originals and originals[id(obj)][0] is obj:
                    self._patch(mod, attr, originals[id(obj)][1])
        for layer, cls_name, meth in METHODS:
            cls = getattr(mods[layer], cls_name)
            fn = cls.__dict__[meth]
            self._patch(cls, meth, self.wrap(f"{layer}.{cls_name}.{meth}", fn))

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr) if not isinstance(owner, type)
                              else owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        self._keep.clear()

    def dump(self, stem: str) -> None:
        """Write spans as ``stem.json`` (names, layout) and ``stem.bin`` (arrays)."""
        with open(stem + ".bin", "wb") as fh:
            for arr in (self.name_of, self.parent, self.start, self.end):
                arr.tofile(fh)
        with open(stem + ".json", "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "spans": len(self.name_of),
                       "arrays": ["name:int32", "parent:int32", "start:float64", "end:float64"]},
                      fh)


def self_times(tracer: Tracer) -> array:
    """Per span: duration minus the durations of its direct children."""
    own = array("d", (e - s for s, e in zip(tracer.start, tracer.end)))
    for i, p in enumerate(tracer.parent):
        if p >= 0:
            own[p] -= tracer.end[i] - tracer.start[i]
    return own


def layer_metrics(tracer: Tracer, wall: float) -> dict[str, float]:
    """Per-layer metrics from the spans of a traced run of ``wall`` seconds."""
    names, name_of, parent = tracer.names, tracer.name_of, tracer.parent
    start, end = tracer.start, tracer.end
    n = len(name_of)
    own = self_times(tracer)
    ids = {name: tracer._id(name) for name in (
        "cli.render", "cli.network_diagram", "cli.execute", "twotime.certainty_report",
        "network.evolve", "network.forward_chain", "network.backward_chain",
        "hilbert.apply", "hilbert.apply_dual")}
    layer_of = [LAYERS.index(name.split(".", 1)[0]) for name in names]
    calls = [0] * len(names)
    incl = [0.0] * len(names)
    selft = [0.0] * len(names)
    covered = 0.0
    # Ancestor marks, propagated forward (a parent always precedes its
    # children): the enclosing certainty_report span and whether the span
    # runs inside cli.execute.
    report = array("i", [-1]) * n
    in_execute = bytearray(n)
    report_id, execute_id = ids["twotime.certainty_report"], ids["cli.execute"]
    render_ids = {ids["cli.render"], ids["cli.network_diagram"]}
    stage_parents = {ids["network.evolve"], ids["network.forward_chain"],
                     ids["network.backward_chain"]}
    apply_ids = {ids["hilbert.apply"], ids["hilbert.apply_dual"]}
    cli_layer = LAYERS.index("cli")
    stage_apps = report_stages = 0
    exec_cli_self = 0.0
    for i in range(n):
        nid, p = name_of[i], parent[i]
        calls[nid] += 1
        incl[nid] += end[i] - start[i]
        selft[nid] += own[i]
        if p < 0:
            covered += end[i] - start[i]
        else:
            report[i] = report[p]
            in_execute[i] = in_execute[p]
        if nid == report_id:
            report[i] = i
            report_stages += 2 * tracer.notes[i]
        elif nid == execute_id:
            in_execute[i] = 1
        elif nid in apply_ids and p >= 0 and name_of[p] in stage_parents and report[i] >= 0:
            stage_apps += 1
        if in_execute[i] and layer_of[nid] == cli_layer and nid not in render_ids:
            exec_cli_self += own[i]
    by_name = {name: k for k, name in enumerate(names)}
    layer_self = {layer: 0.0 for layer in LAYERS}
    for k, name in enumerate(names):
        layer_self[LAYERS[layer_of[k]]] += selft[k]

    def total(*keys, table=incl):
        return sum(table[by_name[k]] for k in keys if k in by_name)

    def count(*keys):
        return sum(calls[by_name[k]] for k in keys if k in by_name)

    samples = sum(v for i, v in tracer.notes.items() if names[name_of[i]] == "pilot.run_ensemble")
    samples += count("pilot.run_trajectory")
    unitary = [v for i, v in tracer.notes.items() if names[name_of[i]] == "network.stage_unitary"]
    rendered = sum(v for i, v in tracer.notes.items() if names[name_of[i]] == "cli.render")
    metrics = {
        "pilot.element_transfer.calls": count("pilot.element_transfer"),
        "pilot.element_transfer_s": total("pilot.element_transfer"),
        "pilot.transfers_per_sample": count("pilot.element_transfer") / samples if samples else 0.0,
        "pilot.run_ensemble_self_s": total("pilot.run_ensemble", table=selft),
        "pilot.run_trajectory_s": total("pilot.run_trajectory"),
        "rng.derive_stream.calls": count("rng.derive_stream"),
        "rng.draw_s": layer_self["rng"],
        "hilbert.apply.calls": count("hilbert.apply", "hilbert.apply_dual"),
        "hilbert.apply_s": total("hilbert.apply", "hilbert.apply_dual"),
        "hilbert.compose.calls": count("hilbert.compose"),
        "hilbert.compose_s": total("hilbert.compose"),
        "twotime.certainty_s": total("twotime.certainty_report"),
        "twotime.abl_s": total("twotime.abl_distribution"),
        "twotime.validate.calls": count("twotime.ProjectorSet.validate"),
        "twotime.validate_s": total("twotime.ProjectorSet.validate"),
        "twotime.stage_app_efficiency": report_stages / stage_apps if stage_apps else 0.0,
        "network.stage_unitary.calls": len(unitary),
        "network.stage_unitary.hit_ratio":
            1.0 - len(set(unitary)) / len(unitary) if unitary else 0.0,
        "network.evolve_s": total("network.evolve"),
        "network.chain_s": total("network.forward_chain", "network.backward_chain"),
        "network.build.calls": count("network.build_network"),
        "network.build_s": total("network.build_network"),
        "cli.parse_s": total("cli.parse_request"),
        "cli.execute_self_s": exec_cli_self,
        "cli.render_s": total("cli.render", "cli.network_diagram"),
        "cli.render_bytes": rendered,
        "pointer.measure.calls": count("pointer.measure_forward", "pointer.measure_backward"),
        "pointer.measure_s": total("pointer.measure_forward", "pointer.measure_backward"),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = layer_self[layer]
    metrics["bench.self_s"] = wall - covered
    metrics["trace.wall_s"] = wall
    metrics["trace.spans"] = n
    return metrics
