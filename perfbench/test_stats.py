"""Unit tests of the benchmark's metric helpers.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import unittest

import stats


class NearestRankTest(unittest.TestCase):
    def test_nearest_rank_on_a_known_list(self):
        values = list(range(1, 101))  # 1..100
        self.assertEqual(stats.nearest_rank(values, 50), (50, 50.0, 100))
        self.assertEqual(stats.percentile(values, 90), 90)

    def test_order_of_input_does_not_matter(self):
        values = [float(v) for v in range(200, 0, -1)]
        self.assertEqual(stats.percentile(values, 50), 100.0)

    def test_p99_is_exact_with_ten_samples_beyond(self):
        values = list(range(1, 1001))
        value, used, n = stats.nearest_rank(values, 99)
        self.assertEqual((value, used, n), (990, 99.0, 1000))
        self.assertEqual(sum(1 for v in values if v > value), 10)

    def test_tail_is_clamped_to_keep_ten_samples_beyond(self):
        values = list(range(1, 301))
        value, used, _ = stats.nearest_rank(values, 99)
        self.assertEqual(value, 290)
        self.assertAlmostEqual(used, 100.0 * 290 / 300)
        self.assertEqual(sum(1 for v in values if v > value), 10)

    def test_too_few_samples_is_an_error(self):
        with self.assertRaises(ValueError):
            stats.nearest_rank(list(range(10)), 50)


class DueTimeLatencyTest(unittest.TestCase):
    """A sender that stalls must not hide the stall from the latencies."""

    def simulate(self, stall_at, stall_s, count=200, rate=100.0,
                 service_s=0.002):
        records = []
        free_at = 0.0
        for i in range(count):
            due = i / rate
            sent = max(due, free_at)
            if i == stall_at:
                sent += stall_s  # the generator freezes before sending
            free_at = sent
            records.append((due, sent, sent + service_s))
        return records

    def test_no_stall_latency_is_the_service_time(self):
        latency, lag = stats.from_due(self.simulate(stall_at=-1, stall_s=0.0))
        self.assertAlmostEqual(max(latency), 2.0, places=6)
        self.assertAlmostEqual(max(lag), 0.0, places=6)

    def test_stall_is_charged_to_every_request_it_delayed(self):
        # A 150 ms stall at 100 req/s delays 15 requests.
        records = self.simulate(stall_at=50, stall_s=0.150)
        latency, lag = stats.from_due(records)
        from_send = [(done - sent) * 1e3 for _, sent, done in records]
        self.assertAlmostEqual(max(from_send), 2.0, places=6)
        self.assertAlmostEqual(max(latency), 152.0, places=6)
        # 15 of 200 requests were delayed: p95 lands among them.
        self.assertAlmostEqual(stats.percentile(latency, 95), 52.0, places=6)
        # p99 is clamped to rank 190, the fifth-smallest of the lags
        # 10, 20, ..., 150 ms.
        self.assertAlmostEqual(stats.percentile(lag, 99), 50.0, places=6)

    def test_unanswered_requests_are_left_out(self):
        latency, lag = stats.from_due([(0.0, 0.001, -1.0), (0.01, 0.01, 0.02)])
        self.assertEqual(len(latency), 1)
        self.assertEqual(len(lag), 2)


class TraceArithmeticTest(unittest.TestCase):
    LAYERS = {"jobs": 4, "truth_s": 0.1, "graph_s": 2.0, "measure_s": 0.2,
              "greedy_s": 0.3, "amp_s": 1.2, "eval_s": 0.05, "total_s": 4.0,
              "edges": 1000,
              "amp_jobs": 2, "amp_iterations": 20, "amp_converged": 1}

    def test_coverage_sums_the_layers_over_the_job_time(self):
        self.assertAlmostEqual(stats.coverage(self.LAYERS), 3.85 / 4.0)

    def test_coverage_of_a_fully_timed_job_is_one(self):
        layers = dict(self.LAYERS, total_s=3.85)
        self.assertAlmostEqual(stats.coverage(layers), 1.0)

    def test_coverage_of_an_empty_replay_is_an_error(self):
        with self.assertRaises(ValueError):
            stats.coverage(dict(self.LAYERS, total_s=0.0))

    def test_overhead_compares_mean_job_times(self):
        # Traced 1.0 s per job against an untraced mean of 0.8 s.
        self.assertAlmostEqual(
            stats.overhead(self.LAYERS, [0.6, 0.8, 1.0]), 1.25)

    def test_layer_metrics_share_one_per_job_denominator(self):
        study = {"engine": {"plan_s": [0.01], "job_s": [1.0] * 20,
                            "serial_job_s": [0.8] * 4, "run_s": 10.0,
                            "workers": 2, "report_s": 0.001},
                 "layers": self.LAYERS}
        metrics = stats.layer_metrics(study)
        self.assertAlmostEqual(metrics["pooling.graph_ms"][0], 500.0)
        self.assertAlmostEqual(metrics["solve.amp_ms"][0], 300.0)
        self.assertAlmostEqual(metrics["solve.amp_ms_per_iter"][0], 60.0)
        self.assertAlmostEqual(metrics["solve.amp_iterations"][0], 10.0)
        self.assertAlmostEqual(metrics["engine.parallel_eff"][0], 1.0)
        self.assertAlmostEqual(metrics["pooling.graph_ns_per_edge"][0], 2e6)
        self.assertAlmostEqual(metrics["trace.overhead"][0], 1.25)


if __name__ == "__main__":
    unittest.main()
