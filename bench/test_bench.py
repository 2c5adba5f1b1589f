"""Self-tests of the benchmark harness.

    python3 -m unittest discover -s bench -p "test_*.py"

They run each workload once traced (about a minute in all) and check that
every per-layer counter the workload is meant to move is nonzero, that the
traced pass reproduces the untraced pass's outputs, and that the harness
refuses to run without the library.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402

run.import_library()

import controlforge  # noqa: E402
import controlforge.cli  # noqa: E402,F401  (not imported by the package)
import tracer  # noqa: E402

# The per-layer metrics each workload is meant to move (see README.md).
EXPECTED_NONZERO = {
    "scan": (
        "elections.winners.calls",
        "elections.winners.self_us_per_call",
        "elections.winner_cache.hit_ratio",
        "elections.masked.calls",
        "elections.masked.self_us_per_call",
        "elections.select_voters.calls",
        "elections.select_voters.self_us_per_call",
        "elections.elections_built",
        "control.check_solution.calls",
        "control.check_solution.self_us_per_call",
        "control.verify_solution.calls",
        "control.verify_solution.true_ratio",
        "solvers.brute_force_search.calls",
        "solvers.brute_force_search.self_us_per_call",
        "solvers.partitions_per_search",
        "solvers.iter_instances.s",
        "elections.self_share",
        "control.self_share",
        "solvers.self_share",
        "trace_overhead_ratio",
    ),
    "transfer": (
        "elections.masked.calls",
        "control.check_solution.calls",
        "control.check_solution.self_us_per_call",
        "solvers.iter_instances.s",
        "reductions.apply.calls",
        "reductions.apply.self_us_per_call",
        "reductions.fallback_ratio",
        "elections.self_share",
        "control.self_share",
        "reductions.self_share",
        "trace_overhead_ratio",
    ),
    "cli": (
        "elections.select_voters.calls",
        "solvers.partitions_per_search",
        "solvers.oracle.calls",
        "solvers.oracle.self_us_per_call",
        "hardness.encode.self_us_per_call",
        "hardness.extract.self_us_per_call",
        "cli.run_command.self_us_per_call",
        "cli.render.self_us_per_call",
        "elections.self_share",
        "control.self_share",
        "solvers.self_share",
        "reductions.self_share",
        "hardness.self_share",
        "cli.self_share",
        "trace_overhead_ratio",
    ),
}


class TracedWorkloads(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.workdir = tempfile.mkdtemp(prefix="bench-test-", dir=run.ROOT)
        seed = run.load_baseline()["default_seed"]
        cls.results = {
            name: run.measure(name, seed, 1, True, os.path.join(cls.workdir, name))
            for name in EXPECTED_NONZERO
        }

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.workdir, ignore_errors=True)

    def test_outputs_are_correct(self):
        for name, result in self.results.items():
            with self.subTest(workload=name):
                self.assertEqual(result["failed"], 0)
                self.assertGreater(result["items"], 0)

    def test_traced_digest_equals_untraced(self):
        for name, result in self.results.items():
            with self.subTest(workload=name):
                untraced, traced = result["digests"]
                self.assertEqual(untraced, traced)

    def test_assigned_counters_are_nonzero(self):
        for name, expected in EXPECTED_NONZERO.items():
            metrics = run.per_layer_metrics(self.results[name])
            for metric in expected:
                with self.subTest(workload=name, metric=metric):
                    self.assertGreater(metrics[metric][0], 0)


class Binding(unittest.TestCase):
    def test_wrappers_replace_every_binding(self):
        originals = {}
        for name, path in tracer.SPANS:
            owner = sys.modules[f"controlforge.{tracer.layer_of(name)}"]
            for part in path.split("."):
                owner = getattr(owner, part)
            originals[path] = owner
        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "controlforge"]

        def bindings():
            return [
                (module.__name__, key)
                for module in modules
                for key, value in vars(module).items()
                if any(value is original for original in originals.values())
            ]

        before = bindings()
        self.assertIn(("controlforge.solvers", "winners"), before)
        self.assertIn(("controlforge.reductions", "verify_solution"), before)
        traced = tracer.Tracer(controlforge)
        traced.install()
        try:
            self.assertEqual(bindings(), [])
        finally:
            traced.uninstall()
        self.assertEqual(bindings(), before)


class Timing(unittest.TestCase):
    def test_item_time_is_its_mean_over_passes(self):
        times = run.PassTimes()
        # Two whole passes and a partial third, in ns.
        for first, values in ((True, (10, 40)), (False, (30, 20)), (False, (80,))):
            times.start_pass(first)
            for ns in values:
                times.add(ns)
            times.add_unit(sum(values), len(values))
        self.assertEqual(times.quantile_us(0.0), 0.03)
        self.assertEqual(times.quantile_us(0.99), 0.04)
        self.assertEqual(times.items_per_s(), 5 / 180e-9)

    def test_each_yardstick_task_runs_once_a_pass(self):
        yardstick = run.Yardstick()
        for units in (1, 7, 1000):
            due = yardstick.schedule(units)
            self.assertEqual(len(due), units)
            self.assertEqual(sorted(task for tasks in due for task in tasks),
                             list(range(len(yardstick.tasks))))


class Refusal(unittest.TestCase):
    def test_exits_nonzero_without_the_library(self):
        with tempfile.TemporaryDirectory(dir=run.ROOT) as root:
            shutil.copytree(HERE, os.path.join(root, "bench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            done = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", "scan", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=root, capture_output=True, text=True, timeout=60,
            )
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout, "")


if __name__ == "__main__":
    unittest.main()
