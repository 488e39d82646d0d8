#!/usr/bin/env python3
"""Fixed-input tests of the spread figure in spread.py.

Run from the root of a checkout:

    python3 perfbench/test_spread.py
"""

import os
import sys
import unittest

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from spread import seeds, spread  # noqa: E402


class SpreadTest(unittest.TestCase):
    def test_spread_is_iqr_over_median(self):
        # statistics.quantiles(1..10, n=4) == [2.75, 5.5, 8.25], median 5.5
        self.assertEqual(spread([float(i) for i in range(1, 11)]), 1.0)
        # unsorted input: quartiles [1.0, 2.0, 3.0], median 2
        self.assertEqual(spread([3.0, 1.0, 2.0]), 1.0)
        # quartiles [0.75, 1.5, 2.25], median 1.5
        self.assertEqual(spread([2.0, 1.0]), 1.0)
        self.assertEqual(spread([4.0] * 10), 0.0)

    def test_spread_is_undefined_without_two_values_or_a_median(self):
        self.assertIsNone(spread([]))
        self.assertIsNone(spread([1.0]))
        self.assertIsNone(spread([0.0, 0.0, 0.0]))

    def test_seed_ranges(self):
        self.assertEqual(list(seeds("1-3")), [1, 2, 3])
        self.assertEqual(list(seeds("7")), [7])


if __name__ == "__main__":
    unittest.main()
