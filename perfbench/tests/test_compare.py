"""Fixture tests for the compare command.

    python3 -m unittest discover -s perfbench/tests
"""

import json
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

import compare  # noqa: E402


def load(name):
    with open(os.path.join(HERE, "fixtures", name)) as f:
        return json.load(f)


class FixtureVerdicts(unittest.TestCase):
    """`old.json`/`new.json` hold ten seeds of two workloads, each metric built
    to land on one verdict."""

    def setUp(self):
        self.old, self.new = load("old.json"), load("new.json")
        self.lines, self.regressions = compare.compare(self.old, self.new)

    def line_of(self, workload, metric):
        current = None
        for line in self.lines:
            if line.startswith("== "):
                current = line[3:].split(":")[0]
            elif current == workload and line.split()[0] == metric:
                return line
        self.fail(f"no line for {workload}/{metric}")

    def verdict_of(self, workload, metric):
        words = self.line_of(workload, metric).split()
        return words[words.index("pairs") + 2]

    def test_each_rule(self):
        expected = {
            ("w1", "wall_s"): "improved",  # 10/10 wins, beyond the old quartiles
            ("w1", "setup_s"): "regressed",  # 30% worse, bound 25%
            ("w1", "peak_rss_mib"): "unchanged",  # 0.5% worse, 10/10 losses: within bound 10%
            ("w1", "max_aac"): "unchanged",  # every pair ties
            ("w1", "utility_hr20"): "unresolved",  # old spread 100% > bound 20%
            ("w1", "attack.eval_s"): "unchanged",  # per-layer, inside the old quartiles
            ("w2", "wall_s"): "unchanged",  # 3% worse, 8/10 losses, spread within bound
        }
        for (wl, metric), v in expected.items():
            self.assertEqual(self.verdict_of(wl, metric), v, f"{wl}/{metric}")

    def test_regressions_counted_on_end_to_end_only(self):
        self.assertEqual(self.regressions, 1)

    def test_consistent_loss_within_bound_is_noted(self):
        self.assertTrue(self.line_of("w1", "peak_rss_mib").endswith("(worse, within bound)"))
        self.assertFalse(self.line_of("w2", "wall_s").endswith("(worse, within bound)"))

    def test_failed_share_reported(self):
        self.assertIn("== w1: failed ops old 0/30 (0.0%), new 1/30 (3.3%)", self.lines)

    def test_exit_code(self):
        paths = [os.path.join(HERE, "fixtures", f) for f in ("old.json", "new.json")]
        self.assertEqual(compare.main(paths), 1)
        self.assertEqual(compare.main(paths[:1] * 2), 0)


class VerdictRule(unittest.TestCase):
    def test_pairs_by_seed(self):
        old = {1: 10.0, 2: 10.1, 3: 10.2, 4: 10.3}
        new = {2: 8.0, 3: 8.1, 4: 8.2, 9: 99.0}
        self.assertEqual(compare.verdict(old, new, "lower", 0.25), "improved")

    def test_nine_tenths_of_fewer_pairs(self):
        old = {s: 10.0 + s for s in range(5)}
        four_of_five = {s: (8.0 if s < 4 else 20.0) + s for s in range(5)}
        self.assertEqual(compare.verdict(old, four_of_five, "lower"), "unresolved")
        all_five = {s: 8.0 + s * 0.1 for s in range(5)}
        self.assertEqual(compare.verdict(old, all_five, "lower"), "improved")

    def test_higher_is_better(self):
        old = {s: 0.5 + 0.01 * s for s in range(10)}
        new = {s: v * 0.7 for s, v in old.items()}
        self.assertEqual(compare.verdict(old, new, "higher", 0.25), "regressed")
        self.assertEqual(compare.verdict(new, old, "higher", 0.25), "improved")

    def test_consistent_loss_within_bound_is_not_a_regression(self):
        old = {s: 100.0 + 0.01 * s for s in range(10)}
        new = {s: v * 1.05 for s, v in old.items()}
        self.assertEqual(compare.verdict(old, new, "lower", 0.1), "unchanged")
        self.assertTrue(compare.within_bound_loss(old, new, "lower", 0.1))
        self.assertEqual(compare.verdict(old, new, "lower"), "regressed")

    def test_consistent_loss_inside_quartiles_is_not_a_regression(self):
        old = {s: 10.0 + 0.1 * s for s in range(10)}
        new = {s: v + 0.01 for s, v in old.items()}
        self.assertEqual(compare.verdict(old, new, "lower", 0.25), "unchanged")

    def test_zero_median(self):
        old = {s: 0.0 for s in range(10)}
        self.assertEqual(compare.verdict(old, dict(old), "lower"), "unchanged")
        self.assertEqual(compare.verdict(old, {s: 1.0 for s in range(10)}, "lower", 0.1),
                         "regressed")

    def test_no_common_seeds(self):
        self.assertEqual(compare.verdict({1: 1.0}, {2: 1.0}, "lower", 0.1), "unresolved")


if __name__ == "__main__":
    unittest.main()
