"""Self-tests of the benchmark runner.

Run from the repository root:

    python3 -m unittest discover -s perfbench -p 'test_*.py'

The smoke test builds the benchmark on first use and runs every workload
in both modes, on the benchmark's own captures, for a fraction of a second
each.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def bench(cwd, *args):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        timeout=900,
    )


class MetricNames(unittest.TestCase):
    def test_grammar(self):
        for good in ("pkts_per_s", "x86.decode_ns_per_byte", "core.shard-depth", "0a", "A" * 64):
            self.assertTrue(run.valid_metric_name(good), good)
        for bad in ("", "two words", "a/b", "semi;colon", "tab\t", "ünicode", "x\n", "A" * 65):
            self.assertFalse(run.valid_metric_name(bad), bad)

    def test_benchmark_json_follows_the_grammar(self):
        s = spec()
        names = [m["name"] for m in s["end_to_end"] + s["per_layer"]]
        names += [w["name"] for w in s["workloads"]]
        for name in names:
            self.assertTrue(run.valid_metric_name(name), name)
        self.assertEqual(len(names), len(set(names)))
        self.assertEqual([w["name"] for w in s["workloads"]], run.WORKLOADS)


class Helpers(unittest.TestCase):
    def test_quantile_interpolates_between_order_statistics(self):
        self.assertEqual(run.quantile([3, 1, 2], 0.5), 2)
        self.assertAlmostEqual(run.quantile([0, 10], 0.9), 9.0)
        self.assertEqual(run.quantile([5], 0.9), 5)

    def test_unsharded_drops_only_the_shard_flag(self):
        flags = ["--dark", "10.99.0.0/16", "--shards", "2", "--memory-budget", "256k"]
        self.assertEqual(run.unsharded(flags), ["--dark", "10.99.0.0/16", "--memory-budget", "256k"])

    def test_detection_counts_against_the_generator_truth(self):
        truth = {"planted": ["1.1.1.1", "2.2.2.2", "3.3.3.3"], "touched": ["3.3.3.3"]}
        alerts = [{"src": "1.1.1.1"}, {"src": "1.1.1.1"}, {"src": "9.9.9.9"}]
        det = run.detection(alerts, truth)
        self.assertEqual(det["detect_ratio"], 0.5)
        self.assertEqual(det["source_precision"], 0.5)
        self.assertEqual(det["alerts_per_source"], 3.0)
        self.assertEqual(det["false_alert_sources"], 1)


class Smoke(unittest.TestCase):
    """A short run of every workload in both modes: the result line has
    exactly the keys correct, attempted, failed and metrics, every check
    holds, and every metric BENCHMARK.json names is printed with its unit.
    Each traced run shows what its workload was chosen for: the front door
    dominates worm-trace, the analysis layers dominate poly-storm, and
    hostile-mix sheds, defragments, resolves overlap conflicts and runs
    the dataflow second pass."""

    def test_every_workload_in_both_modes(self):
        s = spec()
        for workload in run.WORKLOADS:
            for trace, section in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    done = bench(
                        ROOT, "--workload", workload, "--seed", "7", "--seconds", "0.2",
                        "--trace", str(trace),
                    )
                    self.assertEqual(done.returncode, 0, done.stderr[-3000:])
                    result = json.loads(done.stdout.strip().splitlines()[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"], done.stdout[-3000:])
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                    got = {n: m["unit"] for n, m in result["metrics"].items()}
                    self.assertEqual(got, {m["name"]: m["unit"] for m in s[section]})
                    share = lambda *fams: sum(
                        result["metrics"][f"{f}.share"]["value"] for f in fams
                    )
                    if workload == "worm-trace" and trace:
                        self.assertGreater(share("packet", "classify"), 0.5)
                        self.assertLess(share("extract", "x86", "ir", "semantic"), 0.05)
                    if workload == "poly-storm" and trace:
                        self.assertGreater(share("extract", "x86", "ir", "semantic"), 0.5)
                    if workload == "hostile-mix" and trace:
                        for name in ("flow.shed_flows", "flow.conflict_bytes",
                                     "flow.defrag_frags", "semantic.slice_frames"):
                            self.assertGreater(result["metrics"][name]["value"], 0, name)

    def test_a_tree_without_the_program_fails_without_a_result(self):
        bare = os.path.join(ROOT, ".bench_work", "bare-tree")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("target", "__pycache__"))
            done = bench(bare, "--workload", "worm-trace", "--seed", "1", "--seconds", "1")
            self.assertNotEqual(done.returncode, 0)
            self.assertEqual(done.stdout.strip(), "")
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
