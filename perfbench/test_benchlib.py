"""Tests of the benchmark's own statistics, `/metrics` and span code.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import re
import statistics
import unittest
from pathlib import Path

import benchlib
import run

EXPOSITION_BEFORE = """\
# HELP ancstr_serve_cache_hits_total Extract requests answered from the result cache.
# TYPE ancstr_serve_cache_hits_total counter
ancstr_serve_cache_hits_total 4
ancstr_serve_cache_misses_total 10
ancstr_serve_request_duration_seconds_bucket{route="/v1/extract",code="200",cache="hit",model="ab",le="0.001"} 4
ancstr_serve_request_duration_seconds_sum{route="/v1/extract",code="200",cache="hit",model="ab"} 0.002
ancstr_serve_request_duration_seconds_count{route="/v1/extract",code="200",cache="hit",model="ab"} 4
ancstr_serve_request_duration_seconds_sum{route="/v1/extract",code="200",cache="miss",model="ab"} 1.5
ancstr_serve_request_duration_seconds_count{route="/v1/extract",code="200",cache="miss",model="ab"} 10
"""

EXPOSITION_AFTER = """\
ancstr_serve_cache_hits_total 10
ancstr_serve_cache_misses_total 13
ancstr_serve_request_duration_seconds_bucket{route="/v1/extract",code="200",cache="hit",model="ab",le="0.001"} 10
ancstr_serve_request_duration_seconds_sum{route="/v1/extract",code="200",cache="hit",model="ab"} 0.005
ancstr_serve_request_duration_seconds_count{route="/v1/extract",code="200",cache="hit",model="ab"} 10
ancstr_serve_request_duration_seconds_sum{route="/v1/extract",code="200",cache="miss",model="ab"} 2.1
ancstr_serve_request_duration_seconds_count{route="/v1/extract",code="200",cache="miss",model="ab"} 13
ancstr_serve_request_duration_seconds_sum{route="/v1/extract",code="503",cache="miss",model="ab"} 0.25
ancstr_serve_request_duration_seconds_count{route="/v1/extract",code="503",cache="miss",model="ab"} 1
ancstr_serve_request_duration_seconds_sum{route="/healthz",code="200",cache="none",model="ab"} 0.1
ancstr_serve_request_duration_seconds_count{route="/healthz",code="200",cache="none",model="ab"} 7
ancstr_http_requests_total{route="/v1/extract",code="503"} 1
"""


class TailRule(unittest.TestCase):
    def test_no_percentile_below_twenty_samples(self):
        # The median of 19 samples has only 9 beyond it.
        self.assertIsNone(benchlib.tail_level(19))
        self.assertEqual(benchlib.tail_level(20), 50.0)

    def test_highest_level_with_ten_beyond(self):
        self.assertEqual(benchlib.tail_level(40), 75.0)
        self.assertEqual(benchlib.tail_level(100), 90.0)
        self.assertEqual(benchlib.tail_level(199), 90.0)
        self.assertEqual(benchlib.tail_level(200), 95.0)
        self.assertEqual(benchlib.tail_level(1000), 99.0)
        self.assertEqual(benchlib.tail_level(10000), 99.9)

    def test_every_chosen_level_leaves_ten_beyond(self):
        for n in list(range(20, 400)) + [999, 1000, 1001, 9999, 10000, 10001]:
            level = benchlib.tail_level(n)
            values = list(range(n))
            beyond = sum(1 for v in values if v > benchlib.percentile(values, level))
            self.assertGreaterEqual(beyond, 10, n)

    def test_percentile_is_nearest_rank(self):
        values = [5, 1, 4, 2, 3]
        self.assertEqual(benchlib.percentile(values, 50), 3)
        self.assertEqual(benchlib.percentile(values, 80), 4)
        self.assertEqual(benchlib.percentile(values, 81), 5)
        self.assertEqual(benchlib.percentile(values, 0), 1)

    def test_timing_summary_counts_samples(self):
        s = benchlib.timing_summary([float(v) for v in range(1, 41)])
        self.assertEqual((s["n"], s["p50"], s["tail_level"], s["tail"]), (40, 20.5, 75.0, 30.0))
        self.assertAlmostEqual(s["spread"], benchlib.spread([float(v) for v in range(1, 41)]))
        s = benchlib.timing_summary([3.0, 1.0, 2.0])
        self.assertEqual((s["n"], s["p50"], s["tail"]), (3, 2.0, None))
        self.assertIsNone(benchlib.timing_summary([3.0])["spread"])


class Quartiles(unittest.TestCase):
    def test_match_statistics_quantiles(self):
        values = [10.0, 12.0, 11.0, 13.0, 9.0, 10.5, 12.5, 11.5, 10.2, 11.8]
        q = statistics.quantiles(values, n=4)
        self.assertEqual(benchlib.quartiles(values), (q[0], q[2]))

    def test_spread_is_iqr_over_median(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
        q1, q3 = statistics.quantiles(values, n=4)[0], statistics.quantiles(values, n=4)[2]
        self.assertAlmostEqual(benchlib.spread(values), (q3 - q1) / 5.5)
        self.assertEqual(benchlib.spread([2.0] * 10), 0.0)


class Steal(unittest.TestCase):
    STAT = "cpu  {} 5 {} 900 7 {} {} {} 0 0\ncpu0 1 2 3 4 5 6 7 8 0 0\n"

    def ticks(self, user, system, irq, softirq, steal):
        return benchlib.cpu_ticks(self.STAT.format(user, system, irq, softirq, steal))

    def test_busy_leaves_out_idle_and_iowait(self):
        self.assertEqual(self.ticks(100, 20, 3, 2, 9), (100 + 5 + 20 + 3 + 2, 9))

    def test_share_of_runnable_time(self):
        before = self.ticks(100, 20, 0, 0, 10)
        # 150 busy and 50 stolen jiffies between the readings.
        after = self.ticks(220, 50, 0, 0, 60)
        self.assertAlmostEqual(benchlib.steal_share(before, after), 0.25)
        self.assertAlmostEqual(benchlib.steal_free(4.0, before, after), 3.0)

    def test_no_steal_or_no_work_leaves_wall_alone(self):
        before = self.ticks(100, 20, 0, 0, 10)
        self.assertEqual(benchlib.steal_share(before, before), 0.0)
        after = self.ticks(300, 20, 0, 0, 10)
        self.assertEqual(benchlib.steal_free(2.5, before, after), 2.5)


class Metrics(unittest.TestCase):
    def setUp(self):
        self.before = benchlib.parse_prometheus(EXPOSITION_BEFORE)
        self.after = benchlib.parse_prometheus(EXPOSITION_AFTER)
        self.delta = benchlib.delta(self.before, self.after)

    def test_parse_keys_and_sorted_labels(self):
        key = ("ancstr_serve_request_duration_seconds_count",
               (("cache", "hit"), ("code", "200"), ("model", "ab"), ("route", "/v1/extract")))
        self.assertEqual(self.before[key], 4.0)
        self.assertEqual(self.before[("ancstr_serve_cache_hits_total", ())], 4.0)

    def test_counter_deltas(self):
        self.assertEqual(benchlib.counter_total(self.delta, "ancstr_serve_cache_hits_total"), 6.0)
        self.assertEqual(benchlib.counter_total(self.delta, "ancstr_serve_cache_misses_total"), 3.0)
        # A series first seen after the window opened counts from zero.
        self.assertEqual(benchlib.counter_total(
            self.delta, "ancstr_http_requests_total", route="/v1/extract", code="503"), 1.0)
        self.assertEqual(benchlib.counter_total(
            self.delta, "ancstr_http_requests_total", code="429"), 0.0)

    def test_histogram_split_by_cache_label(self):
        split = benchlib.histogram_by_label(
            self.delta, "ancstr_serve_request_duration_seconds", "cache", route="/v1/extract")
        self.assertEqual(set(split), {"hit", "miss"})
        hit_sum, hit_count = split["hit"]
        self.assertAlmostEqual(hit_sum, 0.003)
        self.assertEqual(hit_count, 6.0)
        # The miss series of both status codes are pooled; buckets and
        # other routes are left out.
        miss_sum, miss_count = split["miss"]
        self.assertAlmostEqual(miss_sum, 0.6 + 0.25)
        self.assertEqual(miss_count, 4.0)

    def test_bad_line_is_rejected(self):
        with self.assertRaises(ValueError):
            benchlib.parse_prometheus("not a sample line at all {")


class SelfTimes(unittest.TestCase):
    def test_children_are_subtracted_from_parents(self):
        spans = [
            {"id": 0, "parent": None, "name": "tour", "start_ns": 0, "end_ns": 100},
            {"id": 1, "parent": 0, "name": "input", "start_ns": 5, "end_ns": 60},
            {"id": 2, "parent": 1, "name": "gnn.embed", "start_ns": 10, "end_ns": 30},
            {"id": 3, "parent": 1, "name": "core.detect", "start_ns": 30, "end_ns": 55},
            {"id": 4, "parent": 0, "name": "input", "start_ns": 60, "end_ns": 90},
            {"id": 5, "parent": 4, "name": "gnn.embed", "start_ns": 61, "end_ns": 81},
        ]
        st = benchlib.self_times(spans)
        self.assertEqual(st["tour"], (100 - 55 - 30, 1))
        self.assertEqual(st["input"], ((55 - 45) + (30 - 20), 2))
        self.assertEqual(st["gnn.embed"], (40, 2))
        self.assertEqual(st["core.detect"], (25, 1))
        self.assertEqual(sum(t for t, _ in st.values()), 100)


class BenchmarkFile(unittest.TestCase):
    """BENCHMARK.json names what run.py reports, within the file format."""

    def setUp(self):
        self.doc = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())

    def test_metrics_match_the_runner(self):
        e2e = {m["name"]: (m["unit"], m["better"]) for m in self.doc["end_to_end"]}
        self.assertEqual(e2e, run.END_TO_END)
        layer = {m["name"]: (m["unit"], m["better"]) for m in self.doc["per_layer"]}
        self.assertEqual(layer, {k: v[:2] for k, v in run.PER_LAYER.items()})
        self.assertEqual([w["name"] for w in self.doc["workloads"]], list(run.WORKLOADS))

    def test_format_limits(self):
        name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
        unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
        metrics = self.doc["end_to_end"] + self.doc["per_layer"]
        names = [m["name"] for m in metrics] + [w["name"] for w in self.doc["workloads"]]
        self.assertEqual(len(names), len(set(names)))
        for m in metrics:
            self.assertRegex(m["name"], name)
            self.assertRegex(m["unit"], unit)
            self.assertIn(m["better"], ("lower", "higher"))
        for w in self.doc["workloads"]:
            self.assertLessEqual(len(w["why"]), 200)
        bounds = {m["name"]: m["bound"] for m in self.doc["end_to_end"]}
        self.assertTrue(all(0 < b <= 0.25 for b in bounds.values()))


if __name__ == "__main__":
    unittest.main()
