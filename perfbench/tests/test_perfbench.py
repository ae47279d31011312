"""Tests of the benchmark's own logic: seeded draws, self-time arithmetic,
the correctness gate and the metric names promised in BENCHMARK.json.

Run from the repository root:  python3 -m unittest discover -s perfbench/tests
"""

import json
import sys
import unittest
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from quadlattice import cli, pdeverify  # noqa: E402
from quadlattice import families as fam  # noqa: E402


class SeedDrawTest(unittest.TestCase):
    def test_same_seed_same_draw(self):
        self.assertEqual(workloads.draw_params(7), workloads.draw_params(7))
        self.assertNotEqual(workloads.draw_params(7), workloads.draw_params(8))

    def test_draws_keep_the_height_class(self):
        for seed in range(6):
            for owner, params in workloads.draw_params(seed).items():
                for (name, value), p in zip(params.items(), workloads.PRIMES):
                    default = fam.DEFAULT_PARAMS[owner][name]
                    self.assertEqual(value.denominator, default.denominator * p, (owner, name))
                    self.assertTrue(0 < (value - default) * p < p)
            self.assertNotEqual(workloads.cli_seed(seed) % 23, 0)

    def test_draws_pass_family_spec_and_coefficients(self):
        for seed in (0, 1, 2, 3):
            draws = workloads.draw_params(seed)
            for family, owner in workloads.PARAM_OWNER.items():
                spec = fam.FamilySpec(family, draws[owner])
                table = pdeverify.coefficients(spec)
                self.assertEqual(table.nvars, spec.nvars)

    def test_every_workload_builds(self):
        for workload in workloads.WORKLOADS:
            items, tables, _ = workloads.build(workload, 3)
            self.assertTrue(items and tables)
            self.assertTrue(all(item.checks > 0 for item in items))


class SelfTimeTest(unittest.TestCase):
    def test_self_time_subtracts_the_union_of_children(self):
        spans = [
            ("root", 0.0, 10.0, -1, "t"),
            ("a", 1.0, 4.0, 0, "t"),
            ("b", 5.0, 7.0, 0, "t"),
            ("c", 6.0, 8.0, 0, "t"),  # overlaps b: the union [5, 8] counts once
            ("d", 2.0, 3.0, 1, "t"),
            ("e", 3.5, 4.5, 1, "t"),  # runs past its parent: clipped at 4
        ]
        got = tracing.self_times(spans)
        want = [10 - 3 - 3, 3 - 1 - 0.5, 2, 2, 1, 1]
        for g, w in zip(got, want):
            self.assertAlmostEqual(g, w)

    def test_layer_summary_sums_self_time_per_layer(self):
        spans = [
            (tracing.ITEM_LAYER, 0.0, 4.0, -1, "x"),
            ("cli.run", 0.0, 3.0, 0, "x"),
            ("families.eval", 1.0, 2.0, 1, "x"),
            ("families.eval", 2.0, 2.5, 1, "x"),
        ]
        summary = tracing.layer_summary(spans)
        self.assertEqual(summary["families.eval"], (2, 1.5))
        self.assertEqual(summary["cli.run"], (1, 1.5))
        self.assertEqual(summary[tracing.ITEM_LAYER], (1, 1.0))
        self.assertEqual(summary["matrix.mul"], (0, 0))


class GateTest(unittest.TestCase):
    expected = {(0, 0): 25, (1, 0): 36, (0, 1): 36}

    def report(self, **changes):
        results = [
            {"label": list(label), "points": points, "pass": True}
            for label, points in self.expected.items()
        ]
        for key, value in changes.items():
            results[1][key] = value
        return {"results": results}

    def test_clean_report_passes(self):
        self.assertEqual(workloads.gate_report(cli.EXIT_OK, self.report(), self.expected, True), 0)

    def test_truncated_point_count_fails_its_label(self):
        report = self.report(points=35)
        self.assertEqual(workloads.gate_report(cli.EXIT_OK, report, self.expected, True), 36)
        # an uncounted report (ladders, forms) is gated on labels and passes only
        self.assertEqual(workloads.gate_report(cli.EXIT_OK, report, self.expected, False), 0)

    def test_failed_result_fails_its_label(self):
        report = self.report(**{"pass": False})
        self.assertEqual(workloads.gate_report(cli.EXIT_OK, report, self.expected, False), 36)

    def test_bad_exit_or_missing_label_fails_everything(self):
        self.assertEqual(workloads.gate_report(cli.EXIT_MISMATCH, self.report(), self.expected, True), 97)
        report = self.report()
        report["results"].pop()
        self.assertEqual(workloads.gate_report(cli.EXIT_OK, report, self.expected, True), 97)

    def test_recovery_diff_fails(self):
        ok = {"match": True, "diffs": []}
        self.assertEqual(workloads.gate_report(cli.EXIT_OK, ok, None, False), 0)
        bad = {"match": False, "diffs": [{"coefficient": "f1"}]}
        self.assertEqual(workloads.gate_report(cli.EXIT_OK, bad, None, False), workloads.RECOVER_CHECKS)

    def test_sweep_expectation_restates_the_grid_rule(self):
        spec = fam.FamilySpec(fam.WILSON)
        for label in workloads.labels_up_to(2, 2):
            axes = pdeverify.residual_grid(spec, label)
            self.assertEqual(workloads.sweep_points(label, 2), len(axes[0]) * len(axes[1]))
        self.assertEqual(workloads.sweep_points((0, 0, 0), 3, grid_size=2), 8)


class TracerTest(unittest.TestCase):
    def test_install_patches_every_namespace_and_restores(self):
        import quadlattice
        from quadlattice import exactfield, families, ttrr

        original = exactfield.pochhammer
        tracer = tracing.Tracer()
        tracer.install()
        try:
            for module in (quadlattice, exactfield, families, ttrr):
                self.assertIsNot(module.pochhammer, original)
            families.eval_family(fam.FamilySpec(fam.CDH), (1, 1), (Fraction(8, 7), Fraction(9, 7)))
        finally:
            tracer.restore()
        for module in (quadlattice, exactfield, families, ttrr):
            self.assertIs(module.pochhammer, original)
        names = {span[0] for span in tracer.spans}
        self.assertIn("exactfield.pochhammer", names)
        self.assertGreater(tracer.value_bits, 0)


class MetricNamesTest(unittest.TestCase):
    def test_results_carry_exactly_the_declared_metrics(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        job = {"proof_s": 2.0, "proof_wall_s": 2.0, "checks": 10, "rss_mb": 20.0, "setup_wall_s": 0.1, "setup_scale": 1.0}
        e2e, _ = run.end_to_end([job], [job])
        self.assertEqual(set(e2e), {m["name"] for m in spec["end_to_end"]})

        layers = worker.layer_metrics(tracing.Tracer(), 2.0)
        traced = dict(job, layers=layers, report_bytes=100)
        per_layer = run.per_layer([job], [traced])
        self.assertEqual(set(per_layer), {m["name"] for m in spec["per_layer"]})
        for name, (_, unit) in per_layer.items():
            declared = next(m for m in spec["per_layer"] if m["name"] == name)
            self.assertEqual(unit, declared["unit"], name)


if __name__ == "__main__":
    unittest.main()
