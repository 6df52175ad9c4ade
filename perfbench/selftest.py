"""Self-tests of the benchmark (kept out of the repository's pytest run).

    python3 perfbench/selftest.py

Covers a tiny-size run of every workload, traced and untraced; the checker
rejecting planted wrong outputs; self time on a synthetic span tree; and the
labels of bench_diff.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import bench_diff  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())


class SmokeTest(unittest.TestCase):
    def test_every_workload_tiny(self):
        e2e = {m["name"] for m in BENCH["end_to_end"]}
        layers = {m["name"] for m in BENCH["per_layer"]}
        for name in workloads.NAMES:
            for trace, expected in ((False, e2e), (True, layers)):
                with self.subTest(workload=name, trace=trace):
                    result, _, _, judge = run.run_workload(name, 1, 0.05, trace, "tiny")
                    self.assertTrue(result["correct"], judge.reasons)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(set(result["metrics"]), expected)


class CheckerTest(unittest.TestCase):
    """Genuine outputs pass; each planted corruption is rejected."""

    @classmethod
    def setUpClass(cls):
        cls.workdir = HERE / ".work" / "selftest"
        cls.workdir.mkdir(parents=True, exist_ok=True)
        cls.mrgrid = run.fresh_import()
        cls.cli = sys.modules["mrgrid.cli"]
        from checker import Checker
        cls.checker = Checker()

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.workdir, ignore_errors=True)

    def genuine(self, name, kind):
        workdir = self.workdir / name
        workdir.mkdir(exist_ok=True)
        ops = workloads.build(self.mrgrid, name, 2, str(workdir), "tiny")
        op = next(o for o in ops if o.kind == kind)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            status = self.cli.run(op.argv)
        self.assertIsNone(self.checker.check(op, status, out.getvalue()))
        return op, status, json.loads(out.getvalue())

    def rejects(self, op, status, report):
        self.assertIsNotNone(self.checker.check(op, status, json.dumps(report)))

    def test_flipped_verdicts(self):
        op, status, report = self.genuine("certify_sweep_gf16", "certify")
        self.assertEqual(report["report"]["verdict"], "failed_pattern")
        report["report"].update(verdict="certified", counterexample=None, rank_found=None)
        self.rejects(op, 0, report)
        op, status, report = self.genuine("certify_orbits_prime", "certify")
        self.assertEqual(report["report"]["verdict"], "certified")
        report["report"]["verdict"] = "failed_pattern"
        self.rejects(op, 1, report)

    def test_patterns_checked_off_by_one(self):
        op, status, report = self.genuine("certify_orbits_prime", "certify")
        report["report"]["patterns_checked"] += 1
        self.rejects(op, status, report)

    def test_corrupted_decoded_cell(self):
        op, status, report = self.genuine("attack_decode", "decode")
        report["grid"][0][0] = (report["grid"][0][0] + 1) % 257
        self.rejects(op, status, report)

    def test_full_rank_witness(self):
        op, status, report = self.genuine("attack_decode", "attack")
        self.assertIsNotNone(report["outcome"])
        report["outcome"]["pattern"] = [[0, 0], [1, 1]]
        report["outcome"]["rank_found"] = 2
        self.rejects(op, status, report)

    def test_digest_mismatch_counts_as_failure(self):
        op, status, report = self.genuine("attack_decode", "decode")
        judge = run.Judge("attack_decode", [op], 0, "tiny")
        judge.digests = ["0" * 64]
        out = json.dumps(report, sort_keys=True, indent=2) + "\n"
        judge(0, status, out, "")
        judge(0, status, out, "")
        judge.finish()
        self.assertEqual((judge.attempted, judge.failed), (2, 2))

    def test_each_op_starts_with_empty_caches(self):
        workdir = self.workdir / "caches"
        workdir.mkdir(exist_ok=True)
        ops = workloads.build(self.mrgrid, "attack_decode", 2, str(workdir), "tiny")
        op = next(o for o in ops if o.kind == "decode")
        mrgrid = run.fresh_import()
        caches = run.cached_functions()
        cached = mrgrid.codes.build_pseudo_parity
        self.assertIn(cached, caches)
        infos = []
        for _ in range(2):
            status = run.execute(mrgrid.cli, caches, op)[0]
            self.assertEqual(status, 0)
            infos.append(cached.cache_info())
        self.assertGreaterEqual(infos[0].misses, 1)
        self.assertEqual(infos[0], infos[1])

    def test_row_classes_match_library(self):
        from checker import row_classes
        for pt in self.mrgrid.enumerate_types(4, 2):
            lib = {tuple(sorted(mask)) for mask in self.mrgrid.patterns.type_orbit_masks(pt)}
            self.assertEqual(row_classes(pt.mask), lib)


class SelfTimeTest(unittest.TestCase):
    def test_synthetic_tree(self):
        # root [0, 10] holds a [1, 4] and b [5, 9]; a holds c [2, 3]; a second
        # root-level "a" [11, 12] has no children
        spans = [[0, -1, "root", 0.0, 10.0], [1, 0, "a", 1.0, 4.0],
                 [2, 1, "c", 2.0, 3.0], [3, 0, "b", 5.0, 9.0],
                 [4, -1, "a", 11.0, 12.0]]
        st = tracing.self_times(spans)
        self.assertEqual(st["root"], (1, 10.0, 3.0))
        self.assertEqual(st["a"], (2, 4.0, 3.0))
        self.assertEqual(st["b"], (1, 4.0, 4.0))
        self.assertEqual(st["c"], (1, 1.0, 1.0))

    def test_reference_scaling(self):
        clock = run.ReferenceClock()
        clock.samples = [(0.0, 1.0), (2.0, 3.0), (4.0, 3.0)]
        # [1, 3]: 1 s at mean 2, then 1 s at mean 3; [3.5, 4]: 0.5 s at mean 3
        scaled = clock.scaled([(1.0, 3.0), (3.5, 4.0)])
        self.assertAlmostEqual(scaled[0], 1 / 2 + 1 / 3)
        self.assertAlmostEqual(scaled[1], 0.5 / 3)

    def test_tracer_records_parents(self):
        tr = tracing.Tracer()
        tr.call("outer", lambda: tr.call("inner", lambda: None))
        (outer, inner) = tr.spans
        self.assertEqual((outer[1], inner[1]), (-1, outer[0]))


class DiffLabelTest(unittest.TestCase):
    def test_labels(self):
        base = [1.0, 1.01, 0.99, 1.0, 1.02, 0.98, 1.0, 1.01, 0.99, 1.0]
        self.assertEqual(bench_diff.label(base, [x * 0.5 for x in base], 0.1, False), "better")
        self.assertEqual(bench_diff.label(base, [x * 1.5 for x in base], 0.1, False), "worse")
        self.assertEqual(bench_diff.label(base, list(base), 0.1, False), "same")
        noisy = [0.6, 1.4, 0.7, 1.3, 1.0, 0.8, 1.2, 0.9, 1.1, 1.0]
        self.assertEqual(bench_diff.label(base, noisy, 0.1, False), "unresolved")


if __name__ == "__main__":
    unittest.main()
