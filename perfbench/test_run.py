"""Tests of the benchmark's own aggregation, checks and metric names.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import os
import re
import statistics
import unittest

import run

HERE = os.path.dirname(os.path.abspath(__file__))


def sample(dataset, k=10, jobs=30, center_hash="aa", ok=True, **metrics):
    s = {"dataset": dataset, "ok": ok, "k": k, "jobs": jobs, "center_hash": center_hash,
         "points": 1000, "problems": [] if ok else ["boom"]}
    for m in run.END_TO_END:
        s[m] = metrics.get(m, 1.0)
    return s


class Statistics(unittest.TestCase):
    def test_median_of_odd_and_even_counts(self):
        self.assertEqual(run.median([3, 1, 2]), 2)
        self.assertEqual(run.median([4, 1, 3, 2]), 2.5)

    def test_quartiles_match_statistics_quantiles(self):
        values = [5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0, 4.0, 6.0, 10.0]
        q1, q2, q3 = run.quartiles(values)
        self.assertEqual([q1, q2, q3], statistics.quantiles(values, n=4))
        self.assertEqual(q2, 5.5)

    def test_quartiles_of_one_value(self):
        self.assertEqual(run.quartiles([2.5]), (2.5, 2.5, 2.5))

    def test_worsening_follows_the_better_direction(self):
        self.assertAlmostEqual(run.worsening(10.0, 11.0, "lower"), 0.1)
        self.assertAlmostEqual(run.worsening(10.0, 11.0, "higher"), -0.1)
        self.assertAlmostEqual(run.worsening(10.0, 9.0, "higher"), 0.1)

    def test_disagreement_counts_either_set_getting_worse(self):
        # B is 26% better than A: as the parent, B would make A 35% worse.
        self.assertAlmostEqual(run.disagreement(0.0491, 0.0363, "lower"), 0.0491 / 0.0363 - 1)
        self.assertAlmostEqual(run.disagreement(0.0363, 0.0491, "lower"), 0.0491 / 0.0363 - 1)
        self.assertAlmostEqual(run.disagreement(10.0, 8.0, "higher"), 0.2)
        self.assertEqual(run.disagreement(3.0, 3.0, "lower"), 0.0)

    def test_every_dataset_weighs_the_same(self):
        samples = [sample(0, wall_s=1.0), sample(0, wall_s=1.0), sample(0, wall_s=100.0),
                   sample(1, wall_s=3.0)]
        # Dataset 0's median is 1, dataset 1's is 3.
        self.assertEqual(run.dataset_mean_of_medians(samples, "wall_s"), 2.0)


class Checks(unittest.TestCase):
    def judge(self, workload, samples, references=None):
        measured = {"samples": samples, "references": references or {}}
        return run.judge(workload, measured)

    def test_agreeing_runs_pass(self):
        samples = [sample(d) for d in range(run.DATASETS) for _ in range(3)]
        self.assertEqual(self.judge("gmeans_ondisk", samples)[:2], (len(samples), 0))

    def test_a_run_that_disagrees_with_its_dataset_fails(self):
        samples = [sample(0), sample(0), sample(0, center_hash="bb"), sample(1, jobs=31)]
        attempted, failed, problems = self.judge("gmeans_ondisk", samples)
        self.assertEqual((attempted, failed), (4, 1))
        self.assertTrue(samples[2]["failed"])
        self.assertFalse(samples[3]["failed"])
        self.assertIn("differs", problems[0])

    def test_a_failed_sample_counts_and_is_left_out_of_the_metrics(self):
        samples = [sample(0, wall_s=1.0), sample(0, ok=False, wall_s=50.0)]
        self.assertEqual(self.judge("multik_cached", samples)[1], 1)
        self.assertEqual(run.end_to_end(samples)["wall_s"], 1.0)

    def test_spilled_answer_must_equal_the_buffered_reference(self):
        samples = [sample(0, center_hash="aa"), sample(1, center_hash="cc")]
        refs = {0: sample(0, center_hash="aa"), 1: sample(1, center_hash="dd")}
        attempted, failed, problems = self.judge(run.SPILLING, samples, refs)
        self.assertEqual(failed, 1)
        self.assertTrue(samples[1]["failed"])
        self.assertIn("buffered reference", problems[0])

    def test_pts_per_s_is_points_over_wall(self):
        samples = [sample(0, wall_s=2.0), sample(1, wall_s=2.0)]
        self.judge("gmeans_ondisk", samples)
        self.assertEqual(run.end_to_end(samples)["pts_per_s"], 500.0)


class Names(unittest.TestCase):
    def setUp(self):
        with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
            self.spec = json.load(f)

    def test_metric_names_match_the_contract(self):
        names = list(run.END_TO_END) + list(run.PER_LAYER)
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
            self.assertTrue(re.fullmatch(r"[A-Za-z0-9_.-]+", name), name)

    def test_workloads_are_the_ones_run_py_knows(self):
        self.assertEqual([w["name"] for w in self.spec["workloads"]], list(run.WORKLOADS))

    def test_setup_s_has_the_largest_bound(self):
        bounds = {m: spec["bound"] for m, spec in run.END_TO_END.items()}
        self.assertEqual(max(bounds.values()), bounds["setup_s"])
        self.assertTrue(all(0 < b <= 0.25 for b in bounds.values()))

    def test_every_layer_metric_the_replay_sets_is_declared(self):
        with open(os.path.join(HERE, "src", "layers.rs")) as f:
            source = f.read()
        set_names = set(re.findall(r'm\.set\(\s*"([^"]+)"', source))
        self.assertTrue(set_names)
        self.assertEqual(set_names - set(run.PER_LAYER), set())
        # Only these come from run.py rather than the traced sample.
        self.assertEqual(set(run.PER_LAYER) - set_names,
                         {"spill.sys_s", "spill.disk_sys_s", "trace.overhead"})


if __name__ == "__main__":
    unittest.main()
