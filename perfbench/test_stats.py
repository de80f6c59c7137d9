"""Self-tests of the benchmark's statistics: python3 perfbench/test_stats.py"""

import statistics
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import stats  # noqa: E402


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))  # 1..100
        self.assertEqual(stats.percentile(values, 50), 51)
        self.assertEqual(stats.percentile(values, 0), 1)
        self.assertEqual(stats.percentile(values, 100), 100)
        self.assertEqual(stats.percentile([7.0], 99), 7.0)

    def test_order_does_not_matter(self):
        self.assertEqual(stats.percentile([3, 1, 2], 50), 2)

    def test_empty_is_an_error(self):
        with self.assertRaises(ValueError):
            stats.percentile([], 50)


class TailRuleTest(unittest.TestCase):
    def test_p99_needs_ten_samples_beyond(self):
        value = stats.tail(list(range(1000)), 99)
        self.assertEqual(value, stats.percentile(range(1000), 99))
        self.assertGreaterEqual(stats.beyond(range(1000), value), 10)

    def test_too_few_samples_for_p99(self):
        self.assertIsNone(stats.tail(list(range(500)), 99))
        self.assertIsNotNone(stats.tail(list(range(500)), 90))

    def test_p90_needs_about_a_hundred_samples(self):
        self.assertIsNotNone(stats.tail(list(range(100)), 90))
        self.assertIsNone(stats.tail(list(range(90)), 90))

    def test_ties_do_not_count_as_beyond(self):
        # 980 fast samples and 20 equal slow ones: the p99 value is the slow
        # one and no sample lies strictly beyond it.
        values = [1.0] * 980 + [5.0] * 20
        self.assertIsNone(stats.tail(values, 99))
        self.assertEqual(stats.tail(values, 90), 1.0)
        self.assertEqual(stats.beyond(values, 1.0), 20)


class QuartileSpreadTest(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        values = [10.0, 11.0, 9.5, 10.2, 10.8, 9.9, 10.1, 10.4, 9.7, 10.0]
        q1, med, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(stats.quartile_spread(values), (q3 - q1) / med)

    def test_constant_values_have_no_spread(self):
        self.assertEqual(stats.quartile_spread([2.0] * 10), 0.0)

    def test_known_value(self):
        # quantiles(n=4) of 1..9 (exclusive method) are 2.5, 5, 7.5.
        self.assertAlmostEqual(stats.quartile_spread(range(1, 10)), 1.0)


class FailRatioTest(unittest.TestCase):
    def test_base_is_attempted(self):
        self.assertEqual(stats.fail_ratio(0, 500), 0.0)
        self.assertEqual(stats.fail_ratio(5, 500), 0.01)
        self.assertEqual(stats.fail_ratio(500, 500), 1.0)

    def test_zero_attempts_is_an_error(self):
        with self.assertRaises(ValueError):
            stats.fail_ratio(0, 0)

    def test_failures_cannot_exceed_attempts(self):
        with self.assertRaises(ValueError):
            stats.fail_ratio(6, 5)


if __name__ == "__main__":
    unittest.main()
