"""One workload process: set up, then run a closed loop with one client.

Run by ``run.py`` in a fresh interpreter::

    python3 perfbench/worker.py --workload W --seed N --mode setup|run|trace \
        --workdir DIR [--seconds S]

The worker imports prepost from ``src/`` of the checkout, writes the
workload's input files into DIR, builds what the workload keeps warm, then
prints ``READY <calibration seconds> <kernel seconds>`` (the parent times
set-up up to that line).  The calibration kernel runs at the start and at
the end of set-up; the parent subtracts the time it took and scales the
rest by the mean kernel time.  ``setup`` mode stops there.  ``run`` mode
sends requests in whole cycles until ``S`` seconds have passed and at
least the workload's minimum number of requests are done.  ``trace`` mode
runs a fixed number of cycles untraced and then the same requests again
with span tracing.  Each request's result goes to
``DIR/results.jsonl``; timings go to ``DIR/summary.json``.  The loop is
single-threaded: the next request starts when the previous one returned.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path[:0] = [SRC, HERE]

import calib  # noqa: E402
import workloads  # noqa: E402

KERNELS = 3  # kernel runs at the start and end of set-up (medians)


class Cli:
    """Requests through ``prepost.cli.main`` with captured stdout/stderr."""

    def __init__(self, plan, workdir: str):
        from prepost import cli

        self.cli = cli
        self.workdir = workdir

    def prepare(self, req: dict) -> list[str]:
        return [os.path.join(self.workdir, a[1:]) if a.startswith("@") else a
                for a in req["argv"]]

    def __call__(self, argv) -> tuple[float, dict]:
        out, err = io.StringIO(), io.StringIO()
        rec: dict = {}
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                rc = self.cli.main(argv)
            except Exception as exc:  # an escaping exception is a failed request
                rc = None
                rec["exc"] = f"{type(exc).__name__}: {exc}"
            lat = time.perf_counter() - t0
        rec.update(rc=rc, out=out.getvalue(), err=err.getvalue())
        return lat, rec


class Library:
    """twostate requests: library calls on networks built once at set-up.

    Set-up builds each mesh, applies every stage once (filling the
    stage-unitary cache) and builds the which-path and rotated projector
    sets of the prepared cuts.
    """

    def __init__(self, plan, workdir: str):
        import prepost
        from prepost import twotime

        self.pp, self.twotime = prepost, twotime
        self.nets = {}
        self.sets = {}
        for name, desc in plan.networks.items():
            net = prepost.build_network(desc)
            prepost.evolve(net, prepost.basis_ket(net.live[0][0]), 0, net.n_stages)
            self.nets[name] = net
            for cut in plan.cuts[name]:
                live = net.live[cut]
                self.sets[(name, cut, "path")] = twotime.which_path_set(live)
                outcomes = []
                for rec in plan.rotated[(name, cut)]:
                    if "modes" in rec:
                        proj = prepost.make_projector(set(rec["modes"]), basis=live)
                    else:
                        ket = prepost.Ket({m: complex(re, im)
                                           for m, (re, im) in rec["ket"].items()})
                        proj = prepost.make_projector(ket.normalized(), basis=live)
                    outcomes.append((rec["label"], proj))
                self.sets[(name, cut, "rot")] = prepost.ProjectorSet(tuple(outcomes))

    def prepare(self, req: dict) -> dict:
        return req

    def __call__(self, req) -> tuple[float, dict]:
        pp = self.pp
        net = self.nets[req["net"]]
        pre_amps = {m: complex(re, im) for m, re, im in req["pre"]}
        post_amps = {m: complex(re, im) for m, re, im in req["post"]}
        kind = req["kind"]
        t0 = time.perf_counter()
        pre, post = pp.Ket(pre_amps), pp.Bra(post_amps)
        if kind == "cert":
            out = pp.certainty_report(net, pre, post)
        elif kind == "abl":
            pset = self.sets[(req["net"], req["cut"], req["basis"])]
            tsv = pp.two_state_at_cut(net, pre, post, req["cut"])
            out = (tsv, self.twotime.abl_distribution(tsv, pset), tsv.pairing())
        else:
            out = []
            for cut in req["cuts"]:
                fwd = pp.evolve(net, pre, 0, cut)
                bwd = pp.evolve(net, post, net.n_stages, cut)
                out.append((cut, fwd, bwd, bwd.pair(fwd)))
        lat = time.perf_counter() - t0
        return lat, {"result": _plain(kind, out)}


def _entries(state) -> list:
    return [[m, a.real, a.imag] for m, a in sorted(state.entries.items())]


def _plain(kind: str, out) -> dict:
    if kind == "cert":
        return {"entries": [[e.cut, e.mode, e.probability] for e in out]}
    if kind == "abl":
        tsv, dist, pairing = out
        return {"basis": list(tsv.basis), "pre": _entries(tsv.pre), "post": _entries(tsv.post),
                "pairing": [pairing.real, pairing.imag], "dist": dist}
    return {"states": [[cut, _entries(f), _entries(b)] for cut, f, b, _ in out],
            "pairings": [[p.real, p.imag] for *_, p in out]}


def setup(workload: str, seed: int, workdir: str):
    plan = workloads.make_plan(workload, seed)
    os.makedirs(workdir, exist_ok=True)
    for name, text in plan.files.items():
        with open(os.path.join(workdir, name), "w", encoding="utf-8") as fh:
            fh.write(text)
    client = (Library if workload == "twostate" else Cli)(plan, workdir)
    return plan, client


def run_cycles(plan, client, sink, tag: str, *, cycles=None, seconds=None, n_min=0):
    """Whole cycles of requests; returns (latencies, kernel times, wall seconds).

    The calibration kernel runs between requests; each request gets the
    mean kernel time just before and just after it.
    """
    lats: list[float] = []
    kernels: list[float] = []
    i = 0
    done = 0
    calib.warm()
    before = calib.sample()
    start = time.perf_counter()
    while True:
        for _ in range(len(plan.slots)):
            payload = client.prepare(plan.request(i))
            lat, rec = client(payload)
            after = calib.sample()
            rec.update(i=i, tag=tag, lat=lat)
            sink.write(json.dumps(rec) + "\n")
            lats.append(lat)
            kernels.append((before + after) / 2)
            before = after
            i += 1
        done += 1
        if cycles is not None:
            if done >= cycles:
                break
        elif time.perf_counter() - start >= seconds and len(lats) >= n_min:
            break
    return lats, kernels, time.perf_counter() - start


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True, choices=("setup", "run", "trace"))
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    args = ap.parse_args(argv)
    spent = time.perf_counter()
    calib.warm(KERNELS)
    first = statistics.median(calib.sample() for _ in range(KERNELS))
    spent = time.perf_counter() - spent

    import prepost

    if os.path.dirname(os.path.abspath(prepost.__file__)) != os.path.join(SRC, "prepost"):
        print(f"prepost imported from {prepost.__file__}, not from {SRC}", file=sys.stderr)
        return 3
    plan, client = setup(args.workload, args.seed, args.workdir)
    last = time.perf_counter()
    kernel = (first + statistics.median(calib.sample() for _ in range(KERNELS))) / 2
    spent += time.perf_counter() - last
    print("READY", spent, kernel, flush=True)
    if args.mode == "setup":
        return 0
    summary: dict = {}
    with open(os.path.join(args.workdir, "results.jsonl"), "w", encoding="utf-8") as sink:
        if args.mode == "run":
            lats, kernels, wall = run_cycles(plan, client, sink, "run", seconds=args.seconds,
                                             n_min=plan.n_min)
            summary.update(latencies=lats, kernels=kernels, wall=wall,
                           peak_rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
        else:
            import spans

            cycles = plan.trace_cycles(args.seconds)
            plain = run_cycles(plan, client, sink, "untraced", cycles=cycles)
            tracer = spans.Tracer()
            tracer.install()
            try:
                traced = run_cycles(plan, client, sink, "traced", cycles=cycles)
            finally:
                tracer.uninstall()
            metrics = spans.layer_metrics(tracer, traced[2])
            tracer.dump(os.path.join(HERE, ".work", f"trace-{args.workload}"))
            summary.update(cycles=cycles, untraced=plain[:2], traced=traced[:2], layers=metrics)
    with open(os.path.join(args.workdir, "summary.json"), "w", encoding="utf-8") as fh:
        json.dump(summary, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
