"""Self-tests of the benchmark harness; ``run.py --selftest`` runs them.

They test the harness, not the program, and are not part of the repo's
tier-1 suite.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
import unittest

import run
import spans
import workloads


class FakeClock:
    """A clock the test advances by hand."""

    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class SelfTimeArithmetic(unittest.TestCase):
    def test_self_time_is_duration_minus_direct_children(self):
        clock = FakeClock()
        rec = spans.Recorder(clock=clock)

        def leaf():
            clock.now += 1.0

        leaf = rec.wrap(leaf, "leaf")

        def middle():
            clock.now += 2.0
            leaf()
            leaf()
            clock.now += 0.5

        middle = rec.wrap(middle, "middle")

        root = rec.open(spans.STEP)
        clock.now += 0.25
        middle()
        leaf()
        rec.close(root)
        outside = rec.open("after")  # a later root is not a descendant
        leaf()
        rec.close(outside)

        times = rec.self_times(root)
        self.assertEqual(times["leaf"], (3.0, 3))
        self.assertEqual(times["middle"], (2.5, 1))
        self.assertEqual(times[spans.STEP], (0.25, 1))
        self.assertNotIn("after", times)
        self.assertAlmostEqual(sum(t for t, _ in times.values()), 5.75)
        rows = rec.spans_under(root)
        self.assertEqual([row[0] for row in rows], [spans.STEP, "middle", "leaf", "leaf", "leaf"])
        self.assertEqual([row[3] for row in rows], [-1, 0, 1, 1, 0])

    def test_span_cost_is_what_the_wrapper_adds(self):
        ticks = iter(range(10**6))
        rec = spans.Recorder(clock=lambda: next(ticks) * 1e-6)
        # Only the wrapper reads the clock: twice per call, one tick each.
        self.assertAlmostEqual(rec.span_cost(calls=50, repeats=3), 2e-6)
        self.assertEqual(len(rec), 0)  # calibration spans go to a scratch recorder

    def test_exception_closes_the_span(self):
        rec = spans.Recorder(clock=FakeClock())

        def boom():
            raise KeyError("x")

        with self.assertRaises(KeyError):
            rec.wrap(boom, "boom")()
        root = rec.open("next")
        rec.close(root)
        self.assertEqual(rec.parents[root], -1)


class Percentiles(unittest.TestCase):
    def test_p90_needs_a_hundred_samples(self):
        with self.assertRaises(ValueError):
            run.percentile(list(range(99)), 0.90)
        self.assertEqual(run.percentile(list(range(1, 101)), 0.90), 90)
        # 120 steps: the 108th smallest, twelve beyond it.
        self.assertEqual(run.percentile(list(range(1, 121)), 0.90), 108)

    def test_spread_is_quartile_distance_over_median(self):
        values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
        self.assertAlmostEqual(run.spread(values), (17.25 - 11.75) / 14.5)


class ChildEnvironment(unittest.TestCase):
    def test_repro_switches_are_scrubbed_and_hash_seed_pinned(self):
        env = run.child_env(
            {"REPRO_NO_BATCH": "1", "REPRO_OBS": "1", "PYTHONHASHSEED": "random", "HOME": "/h"}
        )
        self.assertFalse([key for key in env if key.startswith("REPRO_")])
        self.assertEqual(env["PYTHONHASHSEED"], "0")
        self.assertEqual(env["HOME"], "/h")
        self.assertEqual(env["PYTHONPATH"], run.SRC)

    def test_the_child_really_runs_that_way(self):
        os.environ["REPRO_NO_COMPILE"] = "1"
        try:
            code = (
                "import os, sys, json; print(json.dumps([sys.flags.hash_randomization, "
                "os.environ['PYTHONHASHSEED'], [k for k in os.environ if k.startswith('REPRO_')]]))"
            )
            out = subprocess.run(
                [sys.executable, "-c", code],
                env=run.child_env(),
                capture_output=True,
                text=True,
                timeout=30,
                check=True,
            )
        finally:
            del os.environ["REPRO_NO_COMPILE"]
        self.assertEqual(json.loads(out.stdout), [0, "0", []])


class SpecAgreesWithTheCode(unittest.TestCase):
    def test_benchmark_json_names_what_the_code_emits(self):
        spec = run.load_spec()
        self.assertEqual(spec["paths"], ["benchmarks/pool"])
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS))
        self.assertEqual([m["name"] for m in spec["per_layer"]], run.per_layer_names())
        self.assertEqual(
            [m["name"] for m in spec["end_to_end"]],
            [
                "setup_s",
                "wall_s_per_sim_hour",
                "cpu_s_per_sim_hour",
                "step_wall_p50_ms",
                "step_wall_p90_ms",
                "peak_rss_mb",
            ],
        )


class WrappersAreRestored(unittest.TestCase):
    def test_every_patched_attribute_is_the_original_again(self):
        sys.path.insert(0, run.SRC)
        try:
            import repro.condor  # noqa: F401
        finally:
            sys.path.remove(run.SRC)
        rec = spans.Recorder()
        rec.install()
        patched = list(rec.patched)
        self.assertGreater(len(patched), len(spans.LAYER_CALLS))
        for holder, attr, original in patched:
            self.assertIsNot(holder.__dict__[attr], original, f"{holder}.{attr} not wrapped")
        # stable_equal is imported by name into the agents' modules.
        import repro.condor.machine as machine
        import repro.protocols.advertising as advertising

        self.assertIs(machine.stable_equal, advertising.stable_equal)
        self.assertTrue(hasattr(machine.stable_equal, "__wrapped__"))
        rec.restore()
        self.assertEqual(rec.patched, [])
        for holder, attr, original in patched:
            self.assertIs(holder.__dict__[attr], original, f"{holder}.{attr} not restored")


class Smoke(unittest.TestCase):
    """Each workload at 50 machines and 40 steps, untraced then traced."""

    def test_each_workload_small(self):
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                children = []
                for traced in (False, True):
                    started = time.perf_counter()
                    children.append(run.run_child(name, 3, steps=40, machines=50, traced=traced))
                    self.assertLess(time.perf_counter() - started, 5.0)
                plain, traced = children
                for child in children:
                    self.assertEqual(child["failed"], 0, child["violations"])
                    self.assertGreater(child["attempted"], 0)
                    self.assertEqual(child["machines"], 50)
                self.assertEqual(plain["digest"], traced["digest"])
                metrics = run.per_layer_metrics([traced])
                self.assertEqual(list(metrics), run.per_layer_names())
                self.assertGreater(metrics["condor.machine.build_ad_calls"], 50 * 40 - 1)
                self.assertNotIn("step_wall_p90_ms", run.end_to_end_metrics([plain], [0.1]))


if __name__ == "__main__":
    unittest.main()
