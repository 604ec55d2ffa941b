"""Tests of the benchmark's own logic. Run from the repository root:

    python3 -m unittest discover -s perfbench/tests

The input-determinism test builds the benchmark's programs first (as a
benchmark run would) and writes only under .bench_build/.
"""

import json
import os
import shutil
import sys
import unittest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                ".."))
import analysis  # noqa: E402
import run  # noqa: E402

SCRATCH = os.path.join(run.ROOT, ".bench_build", "tests")

SMALL_INPUTS = {
    "stream_incremental": ["--num_nodes", "400", "--edges_per_node", "10",
                           "--windows", "4", "--rewire", "0.001",
                           "--anomaly_fraction", "0.01"],
    "stream_rebuild": ["--num_nodes", "300", "--edges_per_node", "10",
                       "--windows", "4", "--burst_edges", "20",
                       "--burst_weight", "6"],
    "server_fleet": ["--tenants", "2", "--employees", "60",
                     "--windows", "42"],
}


def fresh_dir(name):
    path = os.path.join(SCRATCH, name)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def directory_bytes(path):
    return {name: run.read_bytes(os.path.join(path, name))
            for name in sorted(os.listdir(path))}


class InputDeterminismTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()

    def generate(self, workload, seed, tag):
        out = fresh_dir(f"{workload}-{seed}-{tag}")
        run.subprocess.run(
            [os.path.join(run.BIN, "pb_gen"), "--workload", workload,
             "--seed", str(seed), "--out", out] + SMALL_INPUTS[workload],
            check=True)
        return directory_bytes(out)

    def test_same_seed_gives_same_bytes(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                first = self.generate(workload, 5, "a")
                self.assertGreater(len(first), 1)
                self.assertEqual(first, self.generate(workload, 5, "b"))
                self.assertNotEqual(first, self.generate(workload, 6, "c"))


class SelfTimeTest(unittest.TestCase):
    def span(self, sid, start, end, parent=-1, name="x"):
        return {"id": sid, "name": name, "start": start, "end": end,
                "parent": parent, "window": -1}

    def test_children_are_subtracted_once(self):
        spans = [self.span(0, 0, 100),
                 self.span(1, 10, 30, 0), self.span(2, 20, 50, 0),
                 self.span(3, 90, 120, 0),   # clipped at the parent's end
                 self.span(4, 12, 18, 1)]    # grandchild: only its parent
        selfs = analysis.self_times(spans)
        self.assertEqual(selfs[0], 100 - 40 - 10)
        self.assertEqual(selfs[1], 20 - 6)
        self.assertEqual(selfs[2], 30)
        self.assertEqual(selfs[4], 6)

    def test_leaf_self_time_is_its_duration(self):
        self.assertEqual(analysis.self_times([self.span(7, 5, 9)]), {7: 4})

    def test_layer_coverage_of_a_replay(self):
        spans = [self.span(0, 0, 1000, name="run"),
                 self.span(1, 0, 300, 0, "io.parse"),
                 self.span(2, 300, 400, 0, "io.aggregate"),
                 self.span(3, 400, 950, 0, "core.observe"),
                 self.span(4, 950, 990, 0, "checkpoint.save")]
        windows = [{"nodes": 10, "edges": 20,
                    "counters": {"pcg.iterations": 3},
                    "timers_ns": {"span.approx_commute_build": 500}}]
        metrics, wall = analysis.stream_layers(spans, windows)
        self.assertEqual(wall, 1000 / 1e9)
        self.assertAlmostEqual(metrics["trace.layer_coverage"], 0.99)
        self.assertAlmostEqual(metrics["core.score_select_s"], 50 / 1e9)
        self.assertEqual(metrics["linalg.spmm_bytes_computed"],
                         3 * (12 * 50 + 24 * 10 + 8))


class PercentileTest(unittest.TestCase):
    def test_p99_needs_ten_samples_beyond(self):
        values = list(range(1000))
        self.assertEqual(analysis.samples_beyond(1000, 0.99), 10)
        self.assertEqual(analysis.percentile(values, 0.99), 989)
        with self.assertRaises(ValueError):
            analysis.percentile(list(range(999)), 0.99)

    def test_reported_p99_keeps_ten_beyond(self):
        for n in (1000, 1500, 2632, 10000):
            values = list(range(n))
            p99 = analysis.percentile(values, 0.99)
            self.assertGreaterEqual(sum(1 for v in values if v > p99), 10)

    def test_fleet_has_enough_window_samples(self):
        tenants = run.tenant_count(1)
        windows = 48  # pb_gen --windows for server_fleet
        self.assertGreaterEqual(
            analysis.samples_beyond(tenants * (windows - 1), 0.99), 10)


class MetricNamesTest(unittest.TestCase):
    def setUp(self):
        path = os.path.join(run.BENCH_DIR, "..", "BENCHMARK.json")
        with open(path) as f:
            self.spec = json.load(f)

    def test_names_are_well_formed(self):
        for group in ("end_to_end", "per_layer", "workloads"):
            for entry in self.spec[group]:
                self.assertRegex(entry["name"], r"^[A-Za-z0-9_.-]+$")


HEADER = b"transition,u,v,score,weight_delta,commute_delta\n"


class OutputCheckTest(unittest.TestCase):
    truth = {frozenset(("1", "2")), frozenset(("3", "4")),
             frozenset(("4", "9"))}
    good = (HEADER + b"2,7,8,1.5,1,1\n"
            b"3,2,1,9.0,1,1\n3,3,4,8.0,1,1\n3,3,9,7.0,1,1\n"
            b"3,4,9,6.0,1,1\n")

    def test_good_report_passes(self):
        self.assertEqual(analysis.stream_output_problems(
            self.good, [3], self.truth, 0.5, self.good), [])
        self.assertAlmostEqual(
            analysis.anomaly_precision(self.good, [3], self.truth), 3 / 4)

    def test_precision_pools_the_anomaly_transitions(self):
        report = self.good + b"4,9,4,5.0,1,1\n"
        self.assertAlmostEqual(
            analysis.anomaly_precision(report, [3, 4], self.truth), 4 / 5)
        self.assertEqual(analysis.anomaly_precision(report, [5], self.truth),
                         0.0)

    def test_endpoints_alone_do_not_count(self):
        # Every endpoint below is an injected endpoint, but no edge is.
        report = HEADER + b"3,1,3,9.0,1,1\n3,2,4,8.0,1,1\n"
        self.assertEqual(
            analysis.anomaly_precision(report, [3], self.truth), 0.0)
        self.assertTrue(analysis.stream_output_problems(
            report, [3], self.truth, 0.5))

    def test_corrupted_report_is_rejected(self):
        flipped = bytearray(self.good)
        flipped[-3] ^= 1
        self.assertTrue(analysis.stream_output_problems(
            bytes(flipped), [3], self.truth, 0.5, self.good))
        missing = HEADER + b"2,7,8,1.5,1,1\n"
        self.assertTrue(analysis.stream_output_problems(
            missing, [3], self.truth, 0.5))
        self.assertTrue(analysis.stream_output_problems(
            self.good[5:], [3], self.truth, 0.5))
        self.assertTrue(analysis.stream_output_problems(
            self.good + b"3,1\n", [3], self.truth, 0.5))

    def test_server_check_rejects_a_corrupted_tenant_report(self):
        data = fresh_dir("server-check")
        os.makedirs(os.path.join(data, "reference"))
        served = os.path.join(data, "served")
        os.makedirs(served)
        with open(os.path.join(data, "meta.json"), "w") as f:
            json.dump({"tenants": 2}, f)
        for i in range(2):
            for where in ("reference", "served"):
                with open(os.path.join(data, where, f"t{i:03d}.csv"),
                          "wb") as f:
                    f.write(self.good)
        results = {"requests": 10, "errors": 0, "failed_tenants": 0}
        tally = run.Tally()
        run.server_checks(data, served, results, tally)
        self.assertEqual(tally.failed, 0)
        with open(os.path.join(served, "t001.csv"), "ab") as f:
            f.write(b"3,5,6,1,1,1\n")
        tally = run.Tally()
        run.server_checks(data, served, results, tally)
        self.assertEqual(tally.failed, 1)
        self.assertEqual(tally.attempted, 12)


if __name__ == "__main__":
    unittest.main()
