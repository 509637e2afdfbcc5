"""Self-tests of the benchmark's own arithmetic.

    python3 -m unittest discover -s divbench -p 'test_*.py'
"""

import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import e2e  # noqa: E402
import stats  # noqa: E402
import trace  # noqa: E402


class TailPercentileTest(unittest.TestCase):
    def test_p90_of_100_has_exactly_ten_beyond(self):
        value, beyond = stats.tail_percentile(list(range(1, 101)), 0.9)
        self.assertEqual((value, beyond), (90, 10))

    def test_p90_of_99_is_refused(self):
        with self.assertRaises(ValueError):
            stats.tail_percentile(list(range(99)), 0.9)

    def test_order_of_samples_does_not_matter(self):
        samples = [float(x) for x in range(300, 0, -1)]
        self.assertEqual(stats.tail_percentile(samples, 0.9), (270.0, 30))

    def test_p99_needs_a_thousand(self):
        self.assertEqual(stats.tail_percentile(range(1000), 0.99)[1], 10)
        with self.assertRaises(ValueError):
            stats.tail_percentile(range(999), 0.99)


class SelfTimeTest(unittest.TestCase):
    def test_no_children_is_the_whole_span(self):
        self.assertEqual(stats.self_time((5, 25), []), 20)

    def test_sequential_children_subtract_their_sum(self):
        self.assertEqual(stats.self_time((0, 100), [(10, 20), (30, 50)]), 70)

    def test_parallel_children_count_once(self):
        # Four workers busy over the same stretch cover it once, not 4x.
        children = [(10, 90), (10, 90), (12, 88), (15, 60)]
        self.assertEqual(stats.self_time((0, 100), children), 20)

    def test_overlapping_chains_merge(self):
        children = [(10, 50), (20, 60), (70, 80)]
        self.assertEqual(stats.self_time((0, 100), children), 40)

    def test_children_are_clipped_to_the_parent(self):
        # A child stamped by another process may start before or end after
        # the parent span; only the shared part counts.
        children = [(-5, 10), (90, 130), (200, 300)]
        self.assertEqual(stats.self_time((0, 100), children), 80)


class TallyTest(unittest.TestCase):
    def test_error_rate_denominators(self):
        tally = stats.Tally()
        tally.replicas(64, 62)     # 2 capped or missing
        tally.campaign(True)
        tally.campaign(False)      # not complete
        tally.check(True, "summary repeats")
        tally.check(False, "journals differ")
        self.assertEqual(tally.attempted, 64 + 2 + 2)
        self.assertEqual(tally.failed, 2 + 1 + 1)
        self.assertAlmostEqual(tally.error_rate, 4 / 68)
        self.assertEqual(tally.misses, ["journals differ"])

    def test_more_completed_than_requested_is_not_negative(self):
        tally = stats.Tally()
        tally.replicas(4, 5)
        self.assertEqual((tally.attempted, tally.failed), (4, 0))

    def test_nothing_attempted_is_a_total_failure(self):
        self.assertEqual(stats.Tally().error_rate, 1.0)


class ParseRunTest(unittest.TestCase):
    OUTPUT = (
        "graph: n=1024 m=1024 deg=[2,2]\n"
        "process: div/vertex, engine: jump, opinions 1..4, stop: consensus, "
        "replicas: 256\n"
        "completed 255/256 replicas (1 capped); E[steps] = 126214144.5 "
        "+- 15724315.1\n"
        "jump engine: 78862425 effective steps simulated across completed "
        "replicas (scheduled steps reported above)\n"
        "winners:  2 x125  3 x129  4 x1\n")

    def test_summary_fields(self):
        result = e2e.parse_run(self.OUTPUT)
        self.assertEqual(result["completed"], 255)
        self.assertEqual(result["requested"], 256)
        self.assertEqual(result["note"], "(1 capped)")
        self.assertEqual(result["mean_steps"], 126214144.5)
        self.assertEqual(result["winners"], {2: 125, 3: 129, 4: 1})
        self.assertEqual(len(result["summary"].splitlines()), 3)

    def test_missing_summary(self):
        self.assertIsNone(e2e.parse_run("error: bad spec\n"))


class SpansTest(unittest.TestCase):
    def test_self_times_use_parent_links(self):
        rows = [[1, 0, "engine.supervisor", 0, 100, 2],
                [2, 1, "attempt", 10, 60, 1],
                [3, 1, "attempt", 20, 90, 1],
                [4, 0, "attempt", 0, 100, 1]]  # another parent's child
        spans = trace.Spans(rows)
        self.assertEqual(spans.self_times("engine.supervisor"), [(20, 2, 2)])

    def test_ns_per_op_is_the_median_of_spans(self):
        rows = [[1, 0, "rng.uniform_below", 0, 100, 10],
                [2, 0, "rng.uniform_below", 0, 300, 10],
                [3, 0, "rng.uniform_below", 0, 200, 10]]
        self.assertEqual(trace.Spans(rows).ns_per_op("rng.uniform_below"), 20)


if __name__ == "__main__":
    unittest.main()
