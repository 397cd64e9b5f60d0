#!/usr/bin/env python3
"""Tests of the study-pipeline benchmark itself.

    python3 perfbench/test_perfbench.py

Builds the benchmark like run.py does, then checks that the traced
run's deterministic per-layer counts repeat exactly, that its self
times cover its wall time, that the outputs match the pinned report
hashes, and that the benchmark refuses to run without the sources.
Takes about two minutes.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402

# Per-layer metrics that must repeat exactly: every count the
# simulation determines. Timings and the daemon's latency digest vary.
DETERMINISTIC = [
    "apps.refs", "apps.syncs", "trace.batches",
    "replay.migrations", "replay.intervals", "analysis.race_refs",
    "sim.read_coherence", "sim.invalidations_sent", "sim.upgrades_sent",
    "sim.max_footprint_bytes", "memsys.profiler_bytes",
    "memsys.l1_misses", "memsys.l2_misses",
    "stats.curve_points", "stats.knees", "core.report_bytes",
    "serve.hits", "serve.misses", "serve.joins", "serve.overloaded",
    "campaign.retries",
]


def bench(*args):
    """Run the benchmark; return (exit status, result object or None)."""
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py")]
                          + list(args), cwd=run.ROOT,
                          capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc.returncode, result


def traced(workload, seed):
    status, result = bench("--workload", workload, "--seed", str(seed),
                           "--seconds", "1", "--trace", "1")
    return status, result


def value(result, name):
    return result["metrics"][name]["value"]


class TracedRun(unittest.TestCase):

    @classmethod
    def setUpClass(cls):
        run.build()

    def check_repeats(self, workload, seed):
        first_status, first = traced(workload, seed)
        second_status, second = traced(workload, seed)
        for status, result in ((first_status, first), (second_status, second)):
            self.assertEqual(status, 0)
            self.assertTrue(result["correct"])
            self.assertEqual(result["failed"], 0)
        for name in DETERMINISTIC:
            self.assertEqual(value(first, name), value(second, name), name)
        return first

    def test_axes_counts_repeat_at_an_unpinned_seed(self):
        result = self.check_repeats("axes", 7)
        # The axes workload drives every sink in the chain.
        for name in ("replay.migrations", "analysis.race_refs",
                     "memsys.l1_misses", "memsys.l2_misses"):
            self.assertGreater(value(result, name), 0, name)
        self.assertEqual(value(result, "analysis.race_refs"),
                         value(result, "apps.refs"))

    def test_campaign_counts_repeat(self):
        result = self.check_repeats("campaign", 1)
        self.assertEqual(value(result, "serve.misses"), 126)
        self.assertEqual(value(result, "serve.hits"), 8 * 126)

    def test_self_times_cover_the_traced_wall(self):
        for workload in ("axes", "campaign"):
            status, result = traced(workload, 1)
            self.assertEqual(status, 0)
            frac = value(result, "trace.attributed_frac")
            self.assertGreater(frac, 0.95, workload)
            self.assertLess(frac, 1.02, workload)

    def test_untraced_run_matches_the_pins(self):
        status, result = bench("--workload", "axes", "--seed", "1",
                               "--seconds", "1", "--trace", "0")
        self.assertEqual(status, 0)
        self.assertTrue(result["correct"])
        self.assertEqual(result["attempted"], 14)
        self.assertEqual(sorted(result["metrics"]),
                         sorted(["setup_s", "wall_s", "refs_per_s",
                                 "peak_rss_mb"]))

    def test_refuses_to_run_without_the_sources(self):
        with tempfile.TemporaryDirectory() as bare:
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(bare, "b"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "suite",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, env=env, capture_output=True, text=True,
                timeout=60)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
