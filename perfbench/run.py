"""prepost benchmark: three closed-loop workloads, checked against an oracle.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload ensemble|twostate|cli-mix \
        --seed N --seconds S --trace 0|1

``--trace 0`` measures the end-to-end metrics: set-up is timed over several
fresh interpreters (median), then one worker runs a closed loop with one
client for ``S`` seconds in whole request cycles.  ``--trace 1`` runs a
fixed number of cycles untraced and then traced, and reports per-layer
metrics from the spans plus the tracing overhead and interpreter start-up
probes.  Every request's output is checked (see ``checks.py``).

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it are a readable summary.
The exit code is 0 whenever a result was printed, and non-zero (with no
result) when the package under ``src/`` is missing or a worker fails.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import select
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")
sys.path.insert(0, HERE)

import calib  # noqa: E402
import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SETUPS = 5   # set-ups timed per end-to-end run; the median is reported
PROBES = 7   # interpreter start-up probe pairs per traced run
KERNELS = 5  # calibration kernel runs around each start-up probe pair (median)
SETUP_TIMEOUT = 60  # seconds a worker may take to set up

# Child interpreters always write and reuse bytecode caches (inside the
# checkout, ignored by git), so set-up times a warm import whatever the
# caller's environment says.
ENV = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


class BenchError(RuntimeError):
    pass


def layer_unit(name: str) -> str:
    if name.endswith(".calls") or name in ("pilot.transfers_per_sample", "trace.spans"):
        return "count"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    return "ratio"


# ---------------------------------------------------------------------------
# worker processes


def spawn(args, mode: str, workdir: str):
    """Start a worker; return (set-up seconds, its kernel time, process).

    Set-up runs from the spawn until the worker prints READY, less the time
    the worker spent timing its calibration kernel.
    """
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--mode", mode, "--workdir", workdir,
           "--seconds", str(args.seconds)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=ENV, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    ready, _, _ = select.select([proc.stdout], [], [], SETUP_TIMEOUT)
    line = proc.stdout.readline() if ready else ""
    elapsed = time.perf_counter() - t0
    words = line.split()
    if len(words) != 3 or words[0] != "READY":
        proc.kill()
        _, err = proc.communicate()
        raise BenchError(f"worker failed during set-up: {err.strip()[-2000:]}")
    spent, kernel = float(words[1]), float(words[2])
    return elapsed - spent, kernel, proc


def finish(proc, timeout: float) -> None:
    try:
        _, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker did not finish within {timeout:.0f} s")
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {err.strip()[-2000:]}")


def probe(code: str) -> float:
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=ENV, check=True, timeout=60)
    return time.perf_counter() - t0


# ---------------------------------------------------------------------------
# measurement


def tail(lats: list[float], pct: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples beyond it."""
    ordered = sorted(lats)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def kernel_time() -> float:
    calib.warm(5)
    return statistics.median(calib.sample() for _ in range(KERNELS))


def load_summary(workdir: str) -> dict:
    with open(os.path.join(workdir, "run", "summary.json"), encoding="utf-8") as fh:
        return json.load(fh)


def end_to_end(args, plan, workdir: str, notes: list[str]) -> dict:
    raw_setups, setups = [], []
    for k in range(SETUPS):
        mode = "run" if k == SETUPS - 1 else "setup"
        raw, kernel, proc = spawn(args, mode, os.path.join(workdir, "run" if k == SETUPS - 1
                                                            else f"setup{k}"))
        raw_setups.append(raw)
        setups.append(calib.scale(raw, kernel))
        if mode == "setup":
            finish(proc, 30)
    finish(proc, 3 * args.seconds + 30)
    summary = load_summary(workdir)
    raw = summary["latencies"]
    lats = [calib.scale(t, k) for t, k in zip(raw, summary["kernels"])]
    n = len(lats)
    busy = sum(lats)
    p_tail, beyond = tail(lats, plan.tail_pct)
    notes.append(f"requests: {n} in {n // len(plan.slots)} cycles of {len(plan.slots)}; "
                 f"{sum(raw):.3f} s raw request time in {summary['wall']:.3f} s wall")
    notes.append(f"times scaled to the reference speed: kernel median "
                 f"{statistics.median(summary['kernels']) * 1e6:.1f} us, reference "
                 f"{calib.REFERENCE_S * 1e6:.1f} us")
    notes.append(f"ops_per_s: {n} requests / {busy:.4f} s of scaled request time "
                 f"(raw {n / sum(raw):.4g}/s)")
    notes.append(f"latency_p50_ms: raw {statistics.median(raw) * 1e3:.4g} ms")
    notes.append(f"latency_tail_ms: p{plan.tail_pct:g} of {n} requests, {beyond} beyond it "
                 f"(raw {tail(raw, plan.tail_pct)[0] * 1e3:.4g} ms)")
    notes.append("setup_s: median of " + ", ".join(f"{s:.4f}" for s in setups)
                 + " s (raw " + ", ".join(f"{s:.4f}" for s in raw_setups) + " s)")
    return {
        "setup_s": statistics.median(setups),
        "ops_per_s": n / busy,
        "latency_p50_ms": statistics.median(lats) * 1e3,
        "latency_tail_ms": p_tail * 1e3,
        "peak_rss_mb": summary["peak_rss_kb"] / 1024.0,
    }


def traced(args, plan, workdir: str, notes: list[str]) -> dict:
    *_, proc = spawn(args, "trace", os.path.join(workdir, "run"))
    finish(proc, 4 * args.seconds + 30)
    summary = load_summary(workdir)
    layers = summary["layers"]
    (plain, plain_k), (spanned, spanned_k) = summary["untraced"], summary["traced"]
    factor = calib.scale(1.0, statistics.median(spanned_k))
    metrics = {name: value * factor if layer_unit(name) == "s" else value
               for name, value in layers.items()}
    plain_ops = len(plain) / sum(map(calib.scale, plain, plain_k))
    traced_ops = len(spanned) / sum(map(calib.scale, spanned, spanned_k))
    metrics["trace.untraced_ops_per_s"] = plain_ops
    metrics["trace.traced_ops_per_s"] = traced_ops
    metrics["trace.overhead_ratio"] = traced_ops / plain_ops
    interp, imports = [], []
    for _ in range(PROBES):
        # A bare interpreter and one that imports the CLI, back to back and
        # scaled by the kernel around the pair, so the difference is the import.
        before = kernel_time()
        bare = probe("pass")
        full = probe(f"import sys; sys.path.insert(0, {SRC!r}); import prepost.cli")
        pair_factor = calib.scale(1.0, (before + kernel_time()) / 2)
        interp.append(bare * pair_factor)
        imports.append((full - bare) * pair_factor)
    metrics["startup.interpreter_s"] = statistics.median(interp)
    metrics["startup.import_s"] = statistics.median(imports)
    layer_sum = sum(layers[f"{layer}.self_s"] for layer in spans.LAYERS)
    accounted = layer_sum + layers["bench.self_s"]
    metrics["trace.accounted_ratio"] = accounted / layers["trace.wall_s"]
    notes.append(f"traced {summary['cycles']} cycles ({len(spanned)} requests) after the same "
                 f"requests untraced; times scaled to the reference speed by {factor:.4f}")
    notes.append(f"trace.overhead_ratio: traced {traced_ops:.4g} / untraced {plain_ops:.4g} "
                 f"requests per second of scaled request time")
    notes.append(f"raw layer self times {layer_sum:.4f} s + bench self "
                 f"{layers['bench.self_s']:.4f} s = {accounted:.4f} s of "
                 f"{layers['trace.wall_s']:.4f} s traced wall")
    return metrics


def check_results(plan, workdir: str, notes: list[str]) -> tuple[int, int, int]:
    """Check every recorded request; returns (attempted, failed, unexpected)."""
    attempted = failed = unexpected = 0
    shown = 0
    defects: dict[str, int] = {}
    with open(os.path.join(workdir, "run", "results.jsonl"), encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            req = plan.request(rec["i"])
            attempted += 1
            reason = checks.check(plan, req, rec)
            if reason is None:
                continue
            failed += 1
            if req.get("defect"):
                defects[req["slot"]] = defects.get(req["slot"], 0) + 1
                continue
            unexpected += 1
            if shown < 5:
                shown += 1
                print(f"FAIL request {rec['i']} ({req['slot']}): {reason}", file=sys.stderr)
    notes.append(f"fail_ratio: {failed}/{attempted} = {failed / attempted:.4f}"
                 f" ({failed - unexpected} known-defect requests, {unexpected} unexpected)")
    for slot, k in sorted(defects.items()):
        notes.append(f"  known defect {slot}: {k} failed")
    return attempted, failed, unexpected


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="prepost benchmark")
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "prepost", "__init__.py")):
        print(f"error: no prepost package under {SRC}", file=sys.stderr)
        return 2
    workdir = os.path.join(WORK, f"run-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    plan = workloads.make_plan(args.workload, args.seed)
    notes: list[str] = []
    try:
        if args.trace:
            values = traced(args, plan, workdir, notes)
            units = {name: layer_unit(name) for name in values}
        else:
            values = end_to_end(args, plan, workdir, notes)
            units = END_TO_END_UNITS
        attempted, failed, unexpected = check_results(plan, workdir, notes)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    correct = unexpected == 0
    if args.trace and abs(values["trace.accounted_ratio"] - 1.0) > 1e-6:
        print("error: layer self times do not account for the traced wall time", file=sys.stderr)
        correct = False
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    for line in notes:
        print(line)
    for name, value in values.items():
        print(f"{name:36s} {value:.6g} {units[name]}")
    metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
