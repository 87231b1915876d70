#!/usr/bin/env python3
"""Unit tests for check_perf.py's gating logic, in particular the
runner-class rule: latency/throughput drift is warn-only across machine
classes but strict when baseline and current carry the same non-empty
`runner_class` tag — and correctness keys are strict either way, including
when a baseline's correctness key is missing from the current run.

Run directly (`python3 bench/check_perf_test.py`) or via ctest.
"""

import importlib.util
import json
import os
import sys
import tempfile
import unittest

_SPEC = importlib.util.spec_from_file_location(
    "check_perf",
    os.path.join(os.path.dirname(os.path.abspath(__file__)), "check_perf.py"))
check_perf = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(check_perf)


class LeafKindTest(unittest.TestCase):
    def test_kinds(self):
        self.assertEqual(check_perf.leaf_kind("a.p50_us"), "latency")
        self.assertEqual(check_perf.leaf_kind("deep.total_ns"), "latency")
        self.assertEqual(check_perf.leaf_kind("x.goodput_per_s"),
                         "throughput")
        self.assertEqual(check_perf.leaf_kind("batch.speedup"), "throughput")
        self.assertEqual(check_perf.leaf_kind("results_identical_http"),
                         "correctness")
        self.assertEqual(check_perf.leaf_kind("constraint_ttfs_below_batch"),
                         "correctness")
        self.assertEqual(check_perf.leaf_kind("overload.x16.shed"), "info")


class RunnerClassTest(unittest.TestCase):
    def test_absent_or_empty_tags_never_match(self):
        self.assertFalse(check_perf.runner_classes_match({}, {}))
        self.assertFalse(check_perf.runner_classes_match(
            {"runner_class": ""}, {"runner_class": ""}))
        self.assertFalse(check_perf.runner_classes_match(
            {"runner_class": "ci"}, {}))
        self.assertFalse(check_perf.runner_classes_match(
            {}, {"runner_class": "ci"}))

    def test_equal_nonempty_tags_match(self):
        self.assertTrue(check_perf.runner_classes_match(
            {"runner_class": "gh-ubuntu-4core"},
            {"runner_class": "gh-ubuntu-4core"}))

    def test_different_tags_do_not_match(self):
        self.assertFalse(check_perf.runner_classes_match(
            {"runner_class": "gh-ubuntu-4core"},
            {"runner_class": "laptop"}))

    def test_non_string_tag_is_ignored(self):
        self.assertFalse(check_perf.runner_classes_match(
            {"runner_class": 7}, {"runner_class": 7}))


class GateTest(unittest.TestCase):
    """End-to-end exit codes of main() over temp baseline/current dirs."""

    def run_gate(self, baseline_doc, current_doc, extra_args=()):
        with tempfile.TemporaryDirectory() as tmp:
            baseline_dir = os.path.join(tmp, "baselines")
            current_dir = os.path.join(tmp, "current")
            os.mkdir(baseline_dir)
            os.mkdir(current_dir)
            for d, doc in ((baseline_dir, baseline_doc),
                           (current_dir, current_doc)):
                with open(os.path.join(d, "BENCH_gate.json"), "w") as f:
                    json.dump(doc, f)
            return check_perf.main(["--baseline-dir", baseline_dir,
                                    "--current-dir", current_dir,
                                    *extra_args])

    @staticmethod
    def doc(p50_us=100.0, identical=1, runner_class=None):
        doc = {"hardware_threads": 1, "results_identical_http": identical,
               "http_json": {"p50_us": p50_us}}
        if runner_class is not None:
            doc["runner_class"] = runner_class
        return doc

    def test_regression_without_tags_only_warns(self):
        self.assertEqual(self.run_gate(self.doc(100.0), self.doc(300.0)), 0)

    def test_regression_with_matching_tags_fails(self):
        self.assertEqual(
            self.run_gate(self.doc(100.0, runner_class="ci"),
                          self.doc(300.0, runner_class="ci")), 1)

    def test_regression_with_differing_tags_only_warns(self):
        self.assertEqual(
            self.run_gate(self.doc(100.0, runner_class="ci"),
                          self.doc(300.0, runner_class="laptop")), 0)

    def test_no_strict_perf_downgrades_a_tag_match(self):
        self.assertEqual(
            self.run_gate(self.doc(100.0, runner_class="ci"),
                          self.doc(300.0, runner_class="ci"),
                          ["--no-strict-perf"]), 0)

    def test_within_tolerance_passes_even_with_matching_tags(self):
        self.assertEqual(
            self.run_gate(self.doc(100.0, runner_class="ci"),
                          self.doc(120.0, runner_class="ci")), 0)

    def test_correctness_fails_regardless_of_tags(self):
        self.assertEqual(
            self.run_gate(self.doc(identical=1), self.doc(identical=0)), 1)

    def test_no_strict_correctness_does_not_unlock_perf_failures(self):
        self.assertEqual(
            self.run_gate(self.doc(100.0, runner_class="ci"),
                          self.doc(300.0, runner_class="ci"),
                          ["--no-strict-correctness"]), 1)

    def test_missing_correctness_keys_fail(self):
        baseline = self.doc()
        baseline["nested"] = {"constraint_ttfs_below_batch": 1}
        current = self.doc()
        del current["results_identical_http"]
        self.assertEqual(self.run_gate(baseline, current), 1)
        current = self.doc()
        self.assertEqual(self.run_gate(baseline, current), 1)

    def test_no_strict_correctness_downgrades_missing_keys(self):
        current = self.doc()
        del current["results_identical_http"]
        self.assertEqual(
            self.run_gate(self.doc(), current, ["--no-strict-correctness"]), 0)

    def test_missing_non_correctness_keys_pass(self):
        current = self.doc()
        del current["http_json"]
        self.assertEqual(self.run_gate(self.doc(), current, ["--strict"]), 0)

    def test_correctness_key_new_in_current_passes(self):
        current = self.doc()
        current["constraint_new"] = 1
        self.assertEqual(self.run_gate(self.doc(), current), 0)

    def test_clean_run_passes_strict(self):
        self.assertEqual(
            self.run_gate(self.doc(100.0, runner_class="ci"),
                          self.doc(101.0, runner_class="ci"),
                          ["--strict"]), 0)


if __name__ == "__main__":
    unittest.main(verbosity=2)
