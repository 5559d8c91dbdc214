"""Self-tests of the benchmark: checker, generators, tracer and a smoke run.

Run from the root of a checkout::

    python3 -m unittest perfbench/test_bench.py      (or: python3 -m pytest perfbench)
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil
import sys
import tempfile
import time
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import checks  # noqa: E402
import gen  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def first(plan, slot: str) -> dict:
    """The first request of ``slot`` in the plan's cycle."""
    return plan.request(plan.slots.index(slot))


class Recorded(unittest.TestCase):
    """Real program results, recorded as the worker records them."""

    @classmethod
    def setUpClass(cls):
        cls.tmp = tempfile.mkdtemp(prefix="perfbench-test-")

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.tmp, ignore_errors=True)

    def record(self, workload: str, slot: str):
        plan, client = worker.setup(workload, 5, os.path.join(self.tmp, workload))
        req = first(plan, slot)
        _, rec = client(client.prepare(req))
        return plan, req, rec


class CheckerFlagsWrongResults(Recorded):
    def test_flipped_certainty_mode(self):
        plan, req, rec = self.record("twostate", "cert-s6-basis")
        self.assertIsNone(checks.check(plan, req, rec))
        entries = rec["result"]["entries"]
        self.assertTrue(entries, "single-mode selections give certain outcomes")
        cut, mode, p = entries[-1]
        live = plan.oracle(req["net"]).live[cut]
        other = next(m for m in live if m != mode)
        bad = {"result": {"entries": entries[:-1] + [[cut, other, p]]}}
        self.assertIn("reported certain", checks.check(plan, req, bad))

    def test_detector_count_off_by_ten_sigma(self):
        plan, req, rec = self.record("ensemble", "k3-fwd")
        self.assertIsNone(checks.check(plan, req, rec))
        payload = json.loads(rec["out"])
        counts = payload["detector_counts"]
        self.assertEqual(sorted(counts), ["G", "H"])
        shift = math.ceil(10 * math.sqrt(req["samples"] * 0.25))
        counts["G"] += shift
        counts["H"] -= shift
        bad = dict(rec, out=json.dumps(payload))
        self.assertIn("detector counts", checks.check(plan, req, bad))

    def test_wrong_exit_code(self):
        plan, req, rec = self.record("cli-mix", "err-cut")
        self.assertEqual(rec["rc"], workloads.EXIT_RANGE)
        self.assertIsNone(checks.check(plan, req, rec))
        self.assertIn("exit code", checks.check(plan, req, dict(rec, rc=workloads.EXIT_COMPUTE)))

    def test_escaped_exception_fails(self):
        plan, req, rec = self.record("cli-mix", "evolve-text")
        self.assertIsNone(checks.check(plan, req, rec))
        self.assertIn("escaped", checks.check(plan, req, dict(rec, exc="TypeError: boom")))

    def test_wrong_measure_decoding(self):
        plan, req, rec = self.record("cli-mix", "measure-fwd-json")
        self.assertIsNone(checks.check(plan, req, rec))
        payload = json.loads(rec["out"])
        payload["records"][0]["q_final"] += 0.5
        self.assertIn("decode", checks.check(plan, req, dict(rec, out=json.dumps(payload))))

    def test_wrong_abl_probability(self):
        plan, req, rec = self.record("twostate", "abl-rot-s8")
        self.assertIsNone(checks.check(plan, req, rec))
        dist = dict(rec["result"]["dist"])
        a, b = sorted(dist)[:2]
        dist[a], dist[b] = dist[b] + 1e-6, dist[a] - 1e-6
        bad = {"result": dict(rec["result"], dist=dist)}
        self.assertIsNotNone(checks.check(plan, req, bad))

    def test_known_defects_are_marked(self):
        plan = workloads.make_plan("cli-mix", 0)
        defects = [s for s in plan.slots if plan.request(plan.slots.index(s)).get("defect")]
        self.assertEqual(len(defects), 5)
        self.assertTrue(all(s.startswith("defect-") for s in defects))


class GeneratorsAreDeterministic(unittest.TestCase):
    def snapshot(self, workload: str, seed: int):
        plan = workloads.make_plan(workload, seed)
        reqs = [plan.request(i) for i in range(2 * len(plan.slots))]
        return json.dumps([plan.networks, plan.files, reqs], sort_keys=True, default=repr)

    def test_same_seed_same_inputs(self):
        for workload in workloads.WORKLOADS:
            with self.subTest(workload=workload):
                self.assertEqual(self.snapshot(workload, 7), self.snapshot(workload, 7))
                self.assertNotEqual(self.snapshot(workload, 7), self.snapshot(workload, 8))

    def test_cascades_support_trajectories(self):
        for k in range(1, 9):
            desc = gen.mz_cascade(gen.rng_for("t", k), k, k // 2)
            o = oracle.Network(desc)
            cells = o.pieces("forward", {"a": 1 + 0j}, "a")
            self.assertAlmostEqual(sum(hi - lo for lo, hi, _, _ in cells), 1.0)
            born = o.born("forward", {"a": 1 + 0j}, "a")
            for term, p in born.items():
                got = sum(hi - lo for lo, hi, t, _ in cells if t == term)
                self.assertAlmostEqual(got, p, places=12)

    def test_oracle_draws_follow_the_documented_substreams(self):
        from prepost.rng import derive_stream

        for seed, index in ((0, 0), (3, 17), (2 ** 40 + 5, 99999)):
            self.assertEqual(oracle.draw(seed, index), derive_stream(seed, index).random())


class TracerAccounting(unittest.TestCase):
    def test_self_times_add_up_and_bindings_are_restored(self):
        import prepost
        from prepost import cli, pilot, twotime

        originals = (pilot.derive_stream, twotime.apply, cli.certainty_report,
                     prepost.certainty_report)
        tracer = spans.Tracer()
        tracer.install()
        try:
            self.assertIsNot(pilot.derive_stream, originals[0])
            self.assertIs(twotime.apply.__wrapped_original__, originals[1])
            self.assertIs(cli.certainty_report, prepost.certainty_report)
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(io.StringIO()):
                cli.main(["abl", "--preset", "--pre", "a:1,0", "--post", "g:1,0", "--certainty"])
                cli.main(["bohm", "--preset", "--samples", "50"])
            wall = time.perf_counter() - t0
        finally:
            tracer.uninstall()
        self.assertEqual((pilot.derive_stream, twotime.apply, cli.certainty_report,
                          prepost.certainty_report), originals)
        metrics = spans.layer_metrics(tracer, wall)
        layers = sum(metrics[f"{layer}.self_s"] for layer in spans.LAYERS)
        self.assertAlmostEqual(layers + metrics["bench.self_s"], wall, places=9)
        self.assertEqual(metrics["rng.derive_stream.calls"], 50)
        self.assertEqual(metrics["twotime.stage_app_efficiency"], 2 * 6 / (7 * 6))
        self.assertGreater(metrics["cli.render_bytes"], 0)


class SmokeRun(unittest.TestCase):
    """Every metric of BENCHMARK.json comes out of a short run, with its unit."""

    @classmethod
    def setUpClass(cls):
        with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
            cls.spec = json.load(fh)

    def run_bench(self, workload: str, trace: int) -> dict:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = run.main(["--workload", workload, "--seed", "1", "--seconds", "1",
                             "--trace", str(trace)])
        self.assertEqual(code, 0)
        return json.loads(out.getvalue().strip().splitlines()[-1])

    def test_every_metric_with_its_unit(self):
        self.assertEqual([w["name"] for w in self.spec["workloads"]], list(workloads.WORKLOADS))
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in self.spec[key]}
            for workload in workloads.WORKLOADS:
                with self.subTest(workload=workload, trace=trace):
                    result = self.run_bench(workload, trace)
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, want)
                    if workload != "cli-mix":
                        self.assertEqual(result["failed"], 0)


if __name__ == "__main__":
    unittest.main()
