"""The benchmark's own tests: the percentile rule, the compare rows, the
tracer, and every output check against a deliberately wrong output.

    python3 perfbench/selftest.py            (or: python3 -m pytest perfbench/selftest.py)

They run in about ten seconds and are not part of the repository's tests.
"""

from __future__ import annotations

import json
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import common  # noqa: E402
import inputs  # noqa: E402
import stats  # noqa: E402
import tracer as tracing  # noqa: E402
import workload_serve  # noqa: E402

inputs.add_src_path()


class PercentileRule(unittest.TestCase):
    def test_p99_needs_ten_samples_beyond_it(self):
        self.assertEqual(stats.beyond(1000, 99), 10)
        self.assertTrue(stats.reportable(1000, 99))
        self.assertFalse(stats.reportable(999, 99))
        self.assertEqual(stats.percentile(list(range(1, 1001)), 99), 990)
        with self.assertRaises(ValueError):
            stats.percentile(list(range(999)), 99)

    def test_below_forty_samples_only_the_median(self):
        self.assertTrue(stats.reportable(39, 50))
        self.assertFalse(stats.reportable(39, 75))  # 9 beyond, but too few
        self.assertTrue(stats.reportable(100, 90))
        self.assertFalse(stats.reportable(40, 90))  # 4 beyond
        self.assertEqual(stats.median([3.0, 1.0, 2.0]), 2.0)

    def test_tail_is_the_highest_percentile_the_rule_allows(self):
        self.assertEqual(stats.tail(list(range(1, 1001))), (99, 990))
        self.assertEqual(stats.tail(list(range(1, 501))), (98, 490))
        self.assertIsNone(stats.tail(list(range(39))))

    def test_spread_is_quartile_distance_over_median(self):
        self.assertAlmostEqual(stats.spread([1.0, 1.0, 1.0, 1.0]), 0.0)
        values = [9.0, 10.0, 10.0, 11.0, 12.0]
        self.assertAlmostEqual(stats.spread(values), (11.5 - 9.5) / 10.0)


def _run(workload, seed, value, name="op_ms", fingerprint="a"):
    return {"workload": workload, "seed": seed, "inputs": {"x": fingerprint},
            "metrics": {name: {"value": value, "unit": "s"}}}


SPECS = {"op_ms": {"name": "op_ms", "unit": "ms", "better": "lower", "bound": 0.1},
         "ops_per_s": {"name": "ops_per_s", "unit": "1/s",
                       "better": "higher", "bound": 0.1},
         "kernels.gbt_best_split.calls": {"name": "kernels.gbt_best_split.calls",
                                          "unit": "count", "better": "lower"}}


class CompareRows(unittest.TestCase):
    def verdict(self, base, new, name="op_ms"):
        rows = stats.compare_rows([_run("cv-nb", i, v, name) for i, v in enumerate(base)],
                                  [_run("cv-nb", i, v, name) for i, v in enumerate(new)],
                                  SPECS)
        self.assertEqual(len(rows), 1)
        return rows[0]

    def test_medians_ratio_and_inside(self):
        row = self.verdict([10.0, 10.1, 9.9, 10.0], [10.5, 10.4, 10.6, 10.5])
        self.assertEqual((row["base_median"], row["new_median"]), (10.0, 10.5))
        self.assertAlmostEqual(row["ratio"], 1.05)
        self.assertEqual(row["verdict"], "inside")

    def test_worse_and_better_respect_direction(self):
        self.assertEqual(self.verdict([10.0] * 4, [12.0] * 4)["verdict"], "worse")
        self.assertEqual(self.verdict([10.0] * 4, [8.0] * 4)["verdict"], "better")
        row = self.verdict([100.0] * 4, [80.0] * 4, "ops_per_s")
        self.assertEqual(row["verdict"], "worse")

    def test_wide_spread_is_unresolved_unless_every_run_is_better(self):
        self.assertEqual(self.verdict([5.0, 10.0, 15.0, 10.0],
                                      [10.0, 10.0, 10.0, 10.0])["verdict"],
                         "unresolved")
        self.assertEqual(self.verdict([5.0, 10.0, 15.0, 10.0],
                                      [1.0, 2.0, 3.0, 2.0])["verdict"], "better")

    def test_other_inputs_are_not_compared(self):
        rows = stats.compare_rows([_run("cv-nb", 1, 10.0)],
                                  [_run("cv-nb", 1, 10.0, fingerprint="b")], SPECS)
        self.assertEqual(rows[0]["verdict"], "inputs differ")

    def test_per_layer_rows_carry_no_verdict(self):
        row = self.verdict([5.0, 5.0], [6.0, 6.0], "kernels.gbt_best_split.calls")
        self.assertEqual(row["verdict"], "-")
        self.assertIn("kernels.gbt_best_split.calls", stats.format_rows([row]))


class Tracer(unittest.TestCase):
    def test_self_time_subtracts_direct_children(self):
        spans = [(0, -1, "a", 0.0, 1.0), (1, 0, "b", 0.1, 0.4),
                 (2, 1, "c", 0.2, 0.3), (3, 0, "b", 0.5, 0.7)]
        summary = tracing.summarize(spans)
        self.assertEqual(summary["b"]["calls"], 2)
        self.assertAlmostEqual(summary["a"]["self_ms"], 500.0)
        self.assertAlmostEqual(summary["b"]["self_ms"], 400.0)
        self.assertAlmostEqual(summary["b"]["ms"], 500.0)

    def test_wraps_where_callers_look_and_restores(self):
        from refdoc import service, terms, trees
        original = terms.match_patterns
        kernels = trees.get_kernels()
        best_split = kernels.gbt_best_split
        recorder = tracing.Tracer()
        recorder.install()
        try:
            self.assertIsNot(service.match_patterns, original)
            self.assertIsNot(kernels.gbt_best_split, best_split)
            service.match_patterns("extract method from the parser")
        finally:
            recorder.uninstall()
        self.assertIs(service.match_patterns, original)
        self.assertIs(terms.match_patterns, original)
        self.assertIs(kernels.gbt_best_split, best_split)
        self.assertEqual([s[2] for s in recorder.spans], ["terms.match_patterns"])

    def test_every_span_has_a_stage(self):
        modules = {m for ms in common.STAGES.values() for m in ms}
        for name in tracing.SPAN_NAMES:
            self.assertIn(name.split(".", 1)[0], modules, name)
        layers = {"textprep.preprocess": {"calls": 2, "ms": 3.0, "self_ms": 3.0},
                  "pipeline.fit": {"calls": 1, "ms": 9.0, "self_ms": 1.0},
                  "kernels.gbt_best_split": {"calls": 4, "ms": 5.0, "self_ms": 5.0}}
        self.assertEqual(common.stage_ms(layers), {
            "stage.text.ms": 3.0, "stage.model.ms": 5.0, "stage.glue.ms": 1.0})
        spans = [(0, -1, "a", 0.0, 1.0), (1, 0, "b", 0.1, 0.4),
                 (2, -1, "a", 2.0, 2.5)]
        self.assertAlmostEqual(common.outside_ms(spans, 2.0, 2), 250.0)

    def test_every_per_layer_metric_resolves(self):
        spec = json.loads((inputs.ROOT / "BENCHMARK.json").read_text())
        for m in spec["per_layer"]:
            span, _, kind = m["name"].rpartition(".")
            self.assertTrue(m["name"] in common.DERIVED or (
                span in tracing.SPAN_NAMES and kind in ("calls", "ms", "self_ms")),
                m["name"])


class ResultLine(unittest.TestCase):
    SPEC = {"end_to_end": [{"name": "setup_s", "unit": "s"},
                           {"name": "op_ms", "unit": "ms"}]}

    def test_every_end_to_end_metric_is_printed(self):
        import run
        outcome = common.Outcome(metrics={"setup_s": 0.5, "op_ms": 3.25})
        self.assertEqual(run.end_to_end(self.SPEC, outcome), {
            "setup_s": {"value": 0.5, "unit": "s"},
            "op_ms": {"value": 3.25, "unit": "ms"}})

    def test_a_missing_or_zero_metric_is_refused(self):
        import run
        for metrics in ({"setup_s": 0.5}, {"setup_s": 0.5, "op_ms": 0.0}):
            with self.assertRaises(RuntimeError):
                run.end_to_end(self.SPEC, common.Outcome(metrics=metrics))


class OutputChecks(unittest.TestCase):
    """Each check passes the program's real output and fails a wrong one."""

    @classmethod
    def setUpClass(cls):
        from refdoc import pipeline, service
        from refdoc.classifiers import ModelConfig
        from refdoc.evaluation import report_from_pairs
        from refdoc.corpus import METHOD_TYPES
        cls.baseline = checks.StemBaseline(inputs.RULES.read_text(encoding="utf-8"))
        training, heldout = inputs.train_inputs(1)
        cls.model = pipeline.fit(training, ModelConfig(algorithm="nb"))
        cls.message = heldout.records[0].message
        cls.body = json.dumps(service.predict_payload(cls.model, cls.message),
                              sort_keys=True).encode()
        pairs = [(r.label, pipeline.predict_message(cls.model, r.message)[0])
                 for r in heldout]
        cls.report = json.loads(report_from_pairs(
            pairs, METHOD_TYPES, {}, folds=10, seed=0).to_json())

    def test_stem_baseline_agrees_with_the_program(self):
        from refdoc.baseline import keyword_predict
        training, _ = inputs.train_inputs(1)
        for text in [r.message for r in training] + ["the movie was moved",
                                                     "push and pull"]:
            label, _ = keyword_predict(text)
            self.assertEqual(self.baseline.predict(text),
                             label.value if label else None, text)

    def test_cv_report(self):
        self.assertEqual(checks.check_cv_report(self.report, 600, 100, 0.5), [])
        wrong = json.loads(json.dumps(self.report))
        wrong["matrix"][0][0] += 1
        found = checks.check_cv_report(wrong, 600, 100, 0.5)
        self.assertTrue(any("sums to 601" in p for p in found))
        self.assertTrue(any("row ExtractMethod" in p for p in found))
        self.assertTrue(any("F of ExtractMethod" in p for p in found))
        wrong = json.loads(json.dumps(self.report))
        wrong["per_class"]["MoveMethod"]["f_measure"] += 1e-9
        self.assertTrue(checks.check_cv_report(wrong, 600, 100, 0.5))
        wrong = json.loads(json.dumps(self.report))
        wrong["macro"]["f_measure"] -= 1e-12
        self.assertTrue(checks.check_cv_report(wrong, 600, 100, 0.5))
        self.assertTrue(checks.check_cv_report(self.report, 600, 100, 0.999))

    def test_predict_body(self):
        self.assertEqual(checks.check_predict_body(self.body, self.message,
                                                   self.baseline), [])
        good = json.loads(self.body)
        others = [c for c in checks.METHOD_TYPES if c != good["label"]]

        def body(**change):
            return json.dumps(dict(good, **change)).encode()
        wrong_bodies = [
            body(label=others[0]),
            body(scores={k: v for k, v in good["scores"].items()
                         if k != others[0]}),
            body(scores=dict(good["scores"], **{others[0]: 1.5})),
            body(baseline="NotAType"),
            b"{truncated",
        ]
        for wrong in wrong_bodies:
            self.assertTrue(checks.check_predict_body(wrong, self.message,
                                                      self.baseline), wrong)

    def test_small_checks_reject_wrong_outputs(self):
        self.assertEqual(checks.check_identical_bodies([("m", b"1"), ("m", b"1")]), [])
        self.assertTrue(checks.check_identical_bodies([("m", b"1"), ("m", b"2")]))
        self.assertEqual(checks.check_statuses([("health", 200, 200)]), [])
        self.assertTrue(checks.check_statuses([("health", 200, None)]))
        self.assertEqual(checks.check_models_identical({"nb": ["a", "a"]}), [])
        self.assertTrue(checks.check_models_identical({"nb": ["a", "b"]}))
        self.assertEqual(checks.check_reload("nb", [("A", ())], [("A", ())]), [])
        self.assertTrue(checks.check_reload("nb", [("A", ())], [("B", ())]))
        self.assertEqual(checks.check_beats_baseline("x", 0.9, 0.5), [])
        self.assertTrue(checks.check_beats_baseline("x", 0.5, 0.5))

    def test_macro_f1_counts_no_match_as_a_miss(self):
        pairs = [("ExtractMethod", "ExtractMethod"), ("MoveMethod", None)]
        f = checks.f_scores(pairs, ("ExtractMethod", "MoveMethod"))
        self.assertEqual(f, [1.0, 0.0])

    def test_served_responses(self):
        label = json.loads(self.body)["label"]
        sent = [(self.message, label, 200, self.body)]
        self.assertEqual(workload_serve.check_responses(sent), [])
        wrong_label = "MoveMethod" if label != "MoveMethod" else "InlineMethod"
        self.assertTrue(workload_serve.check_responses(
            [(self.message, wrong_label, 200, self.body)]))
        self.assertTrue(workload_serve.check_responses(
            sent + [(self.message, label, 500, b"")]))


class Traffic(unittest.TestCase):
    def test_rounds_mix_and_determinism(self):
        a, b = inputs.Traffic(3), inputs.Traffic(3)
        self.assertEqual(a.fingerprint, b.fingerprint)
        self.assertNotEqual(a.fingerprint, inputs.Traffic(4).fingerprint)
        lengths = sorted(len(m) for m, _ in a.long)
        self.assertTrue(inputs.LONG_BYTES[0] <= lengths[0] and
                        lengths[-1] <= inputs.LONG_BYTES[1] + 400)
        words = sorted(len(m.split()) for m, _ in a.short)
        self.assertLessEqual(words[len(words) // 2], 8)
        for k in range(3):
            batch = a.round(k)
            self.assertEqual(len(batch), inputs.ROUND)
            self.assertEqual(sum(1 for m, _ in batch if len(m) >= inputs.LONG_BYTES[0]),
                             inputs.LONG_PER_ROUND)
            self.assertEqual(batch, b.round(k))


if __name__ == "__main__":
    unittest.main()
