"""Request plans of the three workloads (pure data, no prepost import).

A :class:`Plan` holds what a workload needs before its first request:
network descriptions, the files to write (network and projector JSON), the
prepared projector sets and the cycle of request slots.  ``plan.request(i)``
returns request ``i`` as plain data; it depends only on the workload, the
seed and ``i``.  Requests run in whole cycles, so every run sees the same
mix of slots.

Known defects (ROADMAP item 4) stay in the ``cli-mix`` cycle on purpose:
their requests carry ``defect`` with the documented exit code they should
return, and they count as failed while the program misbehaves.
"""
from __future__ import annotations

import json

import gen
import oracle

WORKLOADS = ("ensemble", "twostate", "cli-mix")

EXIT_OK, EXIT_USAGE, EXIT_CONFIG, EXIT_COMPUTE, EXIT_LITERAL, EXIT_RANGE = 0, 2, 3, 4, 5, 6


class Plan:
    """Base: networks, files and slot cycle of one workload at one seed."""

    name = ""
    # Tail percentile reported as latency_tail_ms, and the fewest requests a
    # run makes so that at least ten samples lie beyond it.
    tail_pct = 95.0
    n_min = 200
    # Whole cycles executed (untraced, then traced) per second of --seconds.
    trace_cycles_per_s = 0.1

    def __init__(self, seed: int):
        self.seed = seed
        self.networks: dict[str, dict] = {}
        self.files: dict[str, str] = {}
        self.slots: list[str] = []
        self._oracles: dict[str, oracle.Network] = {}

    def oracle(self, name: str) -> oracle.Network:
        if name not in self._oracles:
            self._oracles[name] = oracle.Network(self.networks[name])
        return self._oracles[name]

    def rng(self, *parts):
        return gen.rng_for(self.name, self.seed, *parts)

    def add_network_file(self, name: str, desc: dict) -> None:
        self.networks[name] = desc
        self.files[f"{name}.json"] = json.dumps(desc, indent=1)

    def trace_cycles(self, seconds: float) -> int:
        return max(1, round(seconds * self.trace_cycles_per_s))

    def request(self, i: int) -> dict:
        slot = self.slots[i % len(self.slots)]
        req = getattr(self, "_" + slot.replace("-", "_"))(self.rng("req", i), i)
        req.update(i=i, slot=slot)
        req.setdefault("expect_rc", EXIT_OK)
        return req

    # -- helpers shared by the CLI workloads -------------------------------

    def bohm(self, rng, net: str, direction: str, fmt: str, rule: str, flags: list[str],
             **fields) -> dict:
        """A ``bohm`` request; reversed runs get the full final functional
        and a seeded ``--start-mode``, forward runs start from ``|a>``."""
        argv = ["bohm", *_net_flag(net), *flags, "--reflection-rule", rule, "--format", fmt]
        req = dict(kind="cli", net=net, direction=direction, fmt=fmt, rule=rule, **fields)
        if direction == "reversed":
            post = self.full_functional(net)
            start = sorted(post)[rng.randrange(len(post))]
            argv += ["--direction", "reversed", "--post", gen.literal(post), "--start-mode", start]
            req.update(terminal=gen.amps_to_json(post), start=start)
        else:
            req.update(terminal=[["a", 1.0, 0.0]], start="a")
        req["argv"] = argv
        return req

    def full_functional(self, net: str) -> dict[str, complex]:
        """The complete final-cut functional of the source ket (adjoint of U|a>)."""
        o = self.oracle(net)
        fin = o.as_dict(o.forward({o.sources[0]: 1 + 0j})[-1], o.n_stages)
        return {m: a.conjugate() for m, a in fin.items() if abs(a) > 1e-12}


def _net_flag(net: str) -> list[str]:
    return ["--preset"] if net == "preset" else ["--network", f"@{net}.json"]


# ---------------------------------------------------------------------------
# ensemble: pilot-wave ensembles through cli.main


class EnsemblePlan(Plan):
    """``bohm --samples N`` on the preset and on seeded chained-MZ cascades.

    Slot ``(network, direction, samples, format, reflection rule)``; the
    cascade in each slot has a fixed depth, and its port orders and mirror
    positions are seeded.  Reversed slots pass the full final functional and
    a seeded ``--start-mode``.
    """

    name = "ensemble"
    tail_pct = 95.0
    n_min = 200
    trace_cycles_per_s = 0.25

    SLOTS = {
        "preset-fwd": ("preset", "forward", 2000, "json", "reverse"),
        "k3-fwd": ("k3", "forward", 2000, "json", "reverse"),
        "k5-fwd": ("k5", "forward", 1500, "json", "reverse"),
        "k8-fwd-preserve": ("k8", "forward", 1000, "json", "preserve"),
        "preset-rev": ("preset", "reversed", 2000, "json", "reverse"),
        "k4-rev": ("k4", "reversed", 1500, "json", "reverse"),
        "k7-fwd-text": ("k7", "forward", 1500, "text", "reverse"),
        "k6-rev-text": ("k6", "reversed", 1500, "text", "reverse"),
    }
    DEPTHS = {"k3": (3, 1), "k4": (4, 2), "k5": (5, 2), "k6": (6, 2), "k7": (7, 3), "k8": (8, 3)}

    def __init__(self, seed: int):
        super().__init__(seed)
        self.networks["preset"] = gen.PRESET
        for name, (k, mirrors) in self.DEPTHS.items():
            self.add_network_file(name, gen.mz_cascade(self.rng("net", name), k, mirrors))
        self.slots = list(self.SLOTS)

    def request(self, i: int) -> dict:
        slot = self.slots[i % len(self.slots)]
        net, direction, samples, fmt, rule = self.SLOTS[slot]
        rng = self.rng("req", i)
        seed = rng.randrange(2 ** 31)
        req = self.bohm(rng, net, direction, fmt, rule,
                        ["--samples", str(samples), "--seed", str(seed)],
                        samples=samples, seed=seed)
        req.update(i=i, slot=slot, expect_rc=EXIT_OK)
        return req


# ---------------------------------------------------------------------------
# twostate: library calls on meshes built once


class TwoStatePlan(Plan):
    """``certainty_report``, ``two_state_at_cut`` + ``abl_distribution`` and
    ``evolve`` on balanced meshes of mixed size, built once per process.

    Selections are either random (Gaussian amplitudes on every entry and
    final mode) or single modes, the latter chosen so that the pairing is
    not small; single-mode selections give non-empty certainty reports.
    Both 32x32 reports use random selections: a single mode spreads through
    a seeded mesh at a seed-dependent rate, which would make the cost of the
    largest requests depend on the seed.  Projector sets (which-path and
    rotated) are prepared for three seeded cuts of each mesh and reused.
    """

    name = "twostate"
    tail_pct = 95.0
    n_min = 200
    trace_cycles_per_s = 0.5

    MESHES = {"s6": (6, 6, 1), "s8": (8, 8, 2), "m16": (16, 16, 4), "l32": (32, 32, 8)}
    # slot -> (call, mesh, selection or projector set)
    SLOTS = {
        "cert-l32-random": ("cert", "l32", "random"),
        "cert-l32-random2": ("cert", "l32", "random"),
        "cert-m16-random": ("cert", "m16", "random"),
        "cert-m16-basis": ("cert", "m16", "basis"),
        "cert-s6-basis": ("cert", "s6", "basis"),
        "cert-s8-random": ("cert", "s8", "random"),
        **{f"abl-{kind}-{net}": ("abl", net, kind)
           for kind in ("path", "rot") for net in ("l32", "m16", "s6", "s8")},
        **{f"evolve-{net}": ("evolve", net, "random") for net in ("l32", "m16", "s6", "s8")},
        "cert-s6-random": ("cert", "s6", "random"),
        "cert-s8-basis": ("cert", "s8", "basis"),
    }

    def __init__(self, seed: int):
        super().__init__(seed)
        self.cuts: dict[str, list[int]] = {}
        self.rotated: dict[tuple[str, int], list] = {}
        for name, (rails, depth, pairs) in self.MESHES.items():
            desc = gen.balanced_mesh(self.rng("net", name), rails, depth, pairs)
            self.networks[name] = desc
            rng = self.rng("cuts", name)
            cuts = sorted(rng.sample(range(depth + 1), 3))
            self.cuts[name] = cuts
            live = self.oracle(name).live
            for cut in cuts:
                self.rotated[(name, cut)] = gen.rotated_outcomes(self.rng("rot", name, cut),
                                                                 live[cut])
        self.slots = list(self.SLOTS)
        self._columns: dict[tuple[str, str], dict[str, complex]] = {}

    def selection(self, net: str, rng, basis: bool):
        """Random states, or single modes whose pairing is not small."""
        o = self.oracle(net)
        if not basis:
            pre = gen.random_amps(rng, o.live[0])
            post = gen.random_amps(rng, o.live[-1])
            return pre, post
        start = o.live[0][rng.randrange(len(o.live[0]))]
        key = (net, start)
        if key not in self._columns:
            self._columns[key] = o.as_dict(o.forward({start: 1 + 0j})[-1], o.n_stages)
        reachable = sorted(m for m, a in self._columns[key].items() if abs(a) ** 2 >= 0.01)
        end = reachable[rng.randrange(len(reachable))]
        return {start: 1 + 0j}, {end: 1 + 0j}

    def request(self, i: int) -> dict:
        slot = self.slots[i % len(self.slots)]
        kind, net, variant = self.SLOTS[slot]
        rng = self.rng("req", i)
        pre, post = self.selection(net, rng, variant == "basis")
        req = dict(i=i, slot=slot, kind=kind, net=net,
                   pre=gen.amps_to_json(pre), post=gen.amps_to_json(post), expect_rc=EXIT_OK)
        if kind == "abl":
            req["cut"] = self.cuts[net][rng.randrange(3)]
            req["basis"] = variant
        elif kind == "evolve":
            req["cuts"] = sorted(rng.sample(range(self.oracle(net).n_stages + 1), 2))
        return req


# ---------------------------------------------------------------------------
# cli-mix: short CLI requests, every one loading its network cold


class CliMixPlan(Plan):
    """Short ``cli.main`` requests: evolve, abl (path basis, projector file,
    certainty), single trajectories, small ensembles, pointer measurements,
    text and JSON output, and one request per row of the exit-code table.
    Networks come from JSON files, so each request builds a new Network.
    """

    name = "cli-mix"
    tail_pct = 95.0
    n_min = 400
    trace_cycles_per_s = 4.0

    SLOTS = [
        "evolve-json", "evolve-text", "evolve-post-json",
        "abl-path-json", "abl-proj-json", "abl-cert-text", "abl-cert-preset-json",
        "bohm-q-fwd-json", "bohm-q-rev-text", "bohm-q-preset-text", "bohm-q-preserve-json",
        "bohm-ens-json", "bohm-ens-rev-text",
        "measure-fwd-json", "measure-bwd-text", "measure-one-json",
        "err-usage", "err-missing-arg", "err-missing-file", "err-bad-network",
        "err-literal", "err-cut", "err-quantile", "err-inconsistent", "err-nonlive",
        "err-sources",
        "defect-bohm-samples0", "defect-measure-samples0", "defect-proj-list",
        "defect-port-list", "defect-proj-badket",
    ]

    def __init__(self, seed: int):
        super().__init__(seed)
        self.networks["preset"] = gen.PRESET
        self.add_network_file("k3", gen.mz_cascade(self.rng("net", "k3"), 3, 1))
        self.add_network_file("k4", gen.mz_cascade(self.rng("net", "k4"), 4, 2))
        self.add_network_file("mesh6", gen.balanced_mesh(self.rng("net", "mesh6"), 6, 5, 2))
        self.add_network_file("mesh8", gen.balanced_mesh(self.rng("net", "mesh8"), 8, 6, 2))
        rng = self.rng("files")
        self.proj_cut = rng.randrange(1, 6)
        live = self.oracle("mesh8").live[self.proj_cut]
        self.proj_outcomes = gen.rotated_outcomes(self.rng("rot"), live)
        self.files["proj.json"] = json.dumps({"outcomes": self.proj_outcomes})
        self.files["proj_list.json"] = json.dumps(self.proj_outcomes)
        self.files["proj_badket.json"] = json.dumps(
            {"outcomes": [{"label": "x", "ket": {"c": [1.0]}}]})
        unbalanced = json.loads(json.dumps(gen.PRESET))
        unbalanced["stages"][1]["elements"] = [{"type": "mirror", "in": "c", "out": "c"}]
        self.files["unbalanced.json"] = json.dumps(unbalanced)
        port_list = json.loads(json.dumps(gen.PRESET))
        port_list["modes"][2] = ["c"]
        port_list["stages"][0]["elements"][0]["out"][0] = ["c"]
        self.files["port_list.json"] = json.dumps(port_list)
        self.slots = list(self.SLOTS)

    def _random_pre(self, net: str, rng) -> dict[str, complex]:
        return gen.random_amps(rng, self.oracle(net).live[0])

    def _random_post(self, net: str, rng) -> dict[str, complex]:
        return gen.random_amps(rng, self.oracle(net).live[-1])

    def _cli(self, argv, **kw) -> dict:
        return dict(kind="cli", argv=argv, **kw)

    # -- evolve
    def _evolve_json(self, rng, i):
        pre, post = self._random_pre("mesh6", rng), self._random_post("mesh6", rng)
        return self._cli(["evolve", "--network", "@mesh6.json", "--pre", gen.literal(pre),
                          "--post", gen.literal(post), "--format", "json"],
                         net="mesh6", fmt="json", pre=gen.amps_to_json(pre),
                         post=gen.amps_to_json(post))

    def _evolve_text(self, rng, i):
        return self._cli(["evolve", "--network", "@k3.json", "--pre", "a:1,0"],
                         net="k3", fmt="text", pre=[["a", 1.0, 0.0]], post=None)

    def _evolve_post_json(self, rng, i):
        post = self._random_post("preset", rng)
        return self._cli(["evolve", "--preset", "--post", gen.literal(post), "--format", "json"],
                         net="preset", fmt="json", pre=None, post=gen.amps_to_json(post))

    # -- abl
    def _abl_path_json(self, rng, i):
        pre, post = self._random_pre("mesh8", rng), self._random_post("mesh8", rng)
        cut = rng.randrange(self.oracle("mesh8").n_stages + 1)
        return self._cli(["abl", "--network", "@mesh8.json", "--pre", gen.literal(pre),
                          "--post", gen.literal(post), "--cut", str(cut), "--format", "json"],
                         net="mesh8", fmt="json", cut=cut, basis="path", certainty=False,
                         pre=gen.amps_to_json(pre), post=gen.amps_to_json(post))

    def _abl_proj_json(self, rng, i):
        pre, post = self._random_pre("mesh8", rng), self._random_post("mesh8", rng)
        return self._cli(["abl", "--network", "@mesh8.json", "--pre", gen.literal(pre),
                          "--post", gen.literal(post), "--cut", str(self.proj_cut),
                          "--basis", "@proj.json", "--format", "json"],
                         net="mesh8", fmt="json", cut=self.proj_cut, basis="proj",
                         certainty=False, pre=gen.amps_to_json(pre), post=gen.amps_to_json(post))

    def _abl_cert_text(self, rng, i):
        fin = self.full_functional("k4")
        end = sorted(fin)[rng.randrange(len(fin))]
        cut = rng.randrange(self.oracle("k4").n_stages + 1)
        return self._cli(["abl", "--network", "@k4.json", "--pre", "a:1,0", "--post",
                          f"{end}:1,0", "--cut", str(cut), "--certainty"],
                         net="k4", fmt="text", cut=cut, basis="path", certainty=True,
                         pre=[["a", 1.0, 0.0]], post=[[end, 1.0, 0.0]])

    def _abl_cert_preset_json(self, rng, i):
        end = rng.choice(["g", "h"])
        cut = rng.randrange(self.oracle("preset").n_stages + 1)
        return self._cli(["abl", "--preset", "--pre", "a:1,0", "--post", f"{end}:1,0",
                          "--cut", str(cut), "--certainty", "--format", "json"],
                         net="preset", fmt="json", cut=cut, basis="path", certainty=True,
                         pre=[["a", 1.0, 0.0]], post=[[end, 1.0, 0.0]])

    # -- bohm
    def _trajectory(self, rng, net, direction, fmt, rule="reverse"):
        q = gen.quantile(rng)
        return self.bohm(rng, net, direction, fmt, rule, ["--quantile", repr(q)], quantile=q)

    def _bohm_q_fwd_json(self, rng, i):
        return self._trajectory(rng, "k3", "forward", "json")

    def _bohm_q_rev_text(self, rng, i):
        return self._trajectory(rng, "k4", "reversed", "text")

    def _bohm_q_preset_text(self, rng, i):
        return self._trajectory(rng, "preset", "forward", "text")

    def _bohm_q_preserve_json(self, rng, i):
        return self._trajectory(rng, "k3", "forward", "json", rule="preserve")

    def _ensemble(self, rng, net, direction, samples, fmt):
        seed = rng.randrange(2 ** 31)
        return self.bohm(rng, net, direction, fmt, "reverse",
                         ["--samples", str(samples), "--seed", str(seed)],
                         samples=samples, seed=seed)

    def _bohm_ens_json(self, rng, i):
        return self._ensemble(rng, "k4", "forward", 200, "json")

    def _bohm_ens_rev_text(self, rng, i):
        return self._ensemble(rng, "preset", "reversed", 100, "text")

    # -- measure
    def _measure(self, rng, direction, samples, fmt):
        labels = ["u", "v", "w"][: rng.randrange(2, 4)]
        values = [round(rng.uniform(-3.0, 3.0), 6) for _ in labels]
        while len({round(v, 3) for v in values}) < len(values):
            values = [round(rng.uniform(-3.0, 3.0), 6) for _ in labels]
        system = gen.random_amps(rng, labels)
        pointer = round(rng.uniform(-5.0, 5.0), 6)
        seed = rng.randrange(2 ** 20)
        argv = ["measure", "--direction", direction, "--system", gen.literal(system),
                "--eigenbasis", ",".join(labels), "--eigenvalues=" + ",".join(map(repr, values)),
                f"--pointer={pointer!r}", "--seed", str(seed)]
        if samples is not None:
            argv += ["--samples", str(samples)]
        if fmt == "json":
            argv += ["--format", "json"]
        return self._cli(argv, direction=direction, labels=labels, values=values,
                         system=gen.amps_to_json(system), pointer=pointer, seed=seed,
                         samples=samples, fmt=fmt)

    def _measure_fwd_json(self, rng, i):
        return self._measure(rng, "forward", 5, "json")

    def _measure_bwd_text(self, rng, i):
        return self._measure(rng, "backward", 3, "text")

    def _measure_one_json(self, rng, i):
        return self._measure(rng, rng.choice(["forward", "backward"]), None, "json")

    # -- rows of the exit-code table
    def _err_usage(self, rng, i):
        return self._cli(["bohm", "--preset", "--bogus-flag"], expect_rc=EXIT_USAGE)

    def _err_missing_arg(self, rng, i):
        return self._cli(["abl", "--preset", "--pre", "a:1,0"], expect_rc=EXIT_USAGE)

    def _err_missing_file(self, rng, i):
        return self._cli(["evolve", "--network", "@missing.json", "--pre", "a:1,0"],
                         expect_rc=EXIT_CONFIG)

    def _err_bad_network(self, rng, i):
        return self._cli(["abl", "--network", "@unbalanced.json", "--pre", "a:1,0",
                          "--post", "g:1,0"], expect_rc=EXIT_CONFIG)

    def _err_literal(self, rng, i):
        return self._cli(["evolve", "--preset", "--pre", rng.choice(["a:1", "a1,0", ":1,0"])],
                         expect_rc=EXIT_LITERAL)

    def _err_cut(self, rng, i):
        return self._cli(["abl", "--preset", "--pre", "a:1,0", "--post", "g:1,0",
                          "--cut", str(rng.randrange(7, 99))], expect_rc=EXIT_RANGE)

    def _err_quantile(self, rng, i):
        return self._cli(["bohm", "--preset", "--quantile", repr(1.0 + rng.random())],
                         expect_rc=EXIT_RANGE)

    def _err_inconsistent(self, rng, i):
        # A final functional orthogonal to the evolved preselection.
        o = self.oracle("mesh6")
        pre = self._random_pre("mesh6", rng)
        fin = o.forward(pre)[-1]
        b = o.vector(self._random_post("mesh6", rng), o.n_stages)
        overlap = o.pair(b, fin) / sum(abs(x) ** 2 for x in fin)
        b = [bb - overlap * f.conjugate() for bb, f in zip(b, fin)]
        post = o.as_dict(b, o.n_stages)
        return self._cli(["abl", "--network", "@mesh6.json", "--pre", gen.literal(pre),
                          "--post", gen.literal(post)], expect_rc=EXIT_COMPUTE)

    def _err_nonlive(self, rng, i):
        return self._cli(["evolve", "--preset", "--pre", f"{rng.choice('cdefgh')}:1,0"],
                         expect_rc=EXIT_COMPUTE)

    def _err_sources(self, rng, i):
        # Trajectories need one entry port; meshes have several sources.
        return self._cli(["bohm", "--network", "@mesh6.json", "--quantile", "0.3"],
                         expect_rc=EXIT_COMPUTE)

    # -- ROADMAP item-4 defects, kept in the mix
    def _defect_bohm_samples0(self, rng, i):
        return self._cli(["bohm", "--preset", "--samples", "0"], expect_rc=EXIT_RANGE,
                         defect="bohm --samples 0 runs 1000 samples and exits 0")

    def _defect_measure_samples0(self, rng, i):
        return self._cli(["measure", "--system", "u:1,0", "--eigenbasis", "u,v",
                          "--eigenvalues", "1,2", "--samples", "0"], expect_rc=EXIT_RANGE,
                         defect="measure --samples 0 runs 1 sample and exits 0")

    def _defect_proj_list(self, rng, i):
        return self._cli(["abl", "--preset", "--pre", "a:1,0", "--post", "g:1,0", "--cut", "1",
                          "--basis", "@proj_list.json"],
                         expect_rc=EXIT_CONFIG,
                         defect="list-valued projector file raises AttributeError")

    def _defect_port_list(self, rng, i):
        return self._cli(["evolve", "--network", "@port_list.json", "--pre", "a:1,0"],
                         expect_rc=EXIT_CONFIG,
                         defect="list-valued port label raises TypeError")

    def _defect_proj_badket(self, rng, i):
        return self._cli(["abl", "--preset", "--pre", "a:1,0", "--post", "g:1,0", "--cut", "1",
                          "--basis", "@proj_badket.json"], expect_rc=EXIT_CONFIG,
                         defect="malformed ket in projector file exits 4")


PLANS = {"ensemble": EnsemblePlan, "twostate": TwoStatePlan, "cli-mix": CliMixPlan}


def make_plan(workload: str, seed: int) -> Plan:
    return PLANS[workload](seed)
