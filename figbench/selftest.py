#!/usr/bin/env python3
"""Self-tests of the benchmark itself (not of the simulator).

    python3 figbench/selftest.py

Builds like run.py does on first use, then runs a few short benchmark
invocations (~1 min on a 4-core host).
"""

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import layers  # noqa: E402
import run  # noqa: E402


def bench(*args):
    p = subprocess.run([sys.executable, str(HERE / "run.py"), *args],
                       capture_output=True, text=True, cwd=ROOT)
    if p.returncode != 0:
        raise AssertionError(f"run.py {' '.join(args)} exited {p.returncode}:\n"
                             + p.stderr[-2000:])
    return json.loads(p.stdout.strip().splitlines()[-1])


class LayerMapTest(unittest.TestCase):
    def test_every_src_module_maps_to_a_layer(self):
        modules = sorted(d.name for d in (ROOT / "src").iterdir() if d.is_dir())
        self.assertTrue(modules)
        for m in modules:
            self.assertIn(m, layers.MODULE_LAYER, f"src/{m} has no layer")
            self.assertIn(layers.MODULE_LAYER[m], layers.LAYERS)
            self.assertEqual(layers.layer_of(f"emc::{m}::f"),
                             layers.MODULE_LAYER[m])

    def test_qualified_name(self):
        cases = {
            "void emc::sim::Kernel::run<int>(double) const": "emc::sim::Kernel::run",
            "(anonymous namespace)::body(emc::exp::Recorder&)":
                "(anonymous namespace)::body",
            "emc::repro::(anonymous namespace)::read_file(std::string const&)":
                "emc::repro::(anonymous namespace)::read_file",
            "emc::exp::Workbench::run(std::function<void (int)> const&)::"
            "{lambda(unsigned long)#1}::operator()(unsigned long) const":
                "emc::exp::Workbench::run",
        }
        for demangled, want in cases.items():
            self.assertEqual(layers.qualified_name(demangled), want)
        self.assertEqual(layers.layer_of("emc::sim::Rng::keyed"), "sim.rng")
        self.assertEqual(layers.layer_of("(anonymous namespace)::body"), "figure")


class BenchmarkRunTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        cls.untraced = bench("--workload", "mc_yield", "--seed", "3",
                             "--seconds", "1", "--trace", "0")
        cls.traced = bench("--workload", "suite", "--seed", "3",
                           "--seconds", "1", "--trace", "1")

    def test_metric_names_match_benchmark_json(self):
        self.assertEqual(set(self.untraced["metrics"]),
                         {m["name"] for m in self.spec["end_to_end"]})
        self.assertEqual(set(self.traced["metrics"]),
                         {m["name"] for m in self.spec["per_layer"]})
        for result, group in ((self.untraced, "end_to_end"),
                              (self.traced, "per_layer")):
            for m in self.spec[group]:
                self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"])

    def test_runs_are_correct(self):
        for r in (self.untraced, self.traced):
            self.assertTrue(r["correct"])
            self.assertEqual(r["failed"], 0)
            self.assertGreater(r["attempted"], 0)

    def test_layer_self_times_sum_to_traced_wall(self):
        m = {k: v["value"] for k, v in self.traced["metrics"].items()}
        self_sum = sum(m[f"{lay}.self_s"] for lay in run.SELF_LAYERS)
        self.assertGreaterEqual(m["unattributed_s"], 0.0)
        self.assertAlmostEqual(self_sum + m["unattributed_s"], m["trace.wall_s"],
                               delta=1e-9 * m["trace.wall_s"] + 1e-12)
        # Nearly all of the traced time lands in a named layer.
        self.assertLess(m["unattributed_s"], 0.1 * m["trace.wall_s"])

    def test_empty_refs_fail_every_figure_run(self):
        empty = ROOT / ".bench_build" / "figbench" / "selftest-empty-refs"
        shutil.rmtree(empty, ignore_errors=True)
        empty.mkdir(parents=True)
        try:
            r = bench("--workload", "suite", "--seed", "3", "--seconds", "1",
                      "--trace", "0", "--refs", str(empty))
        finally:
            shutil.rmtree(empty)
        self.assertFalse(r["correct"])
        self.assertEqual(r["failed"], r["attempted"])
        self.assertEqual(r["metrics"]["ok_frac"]["value"], 0.0)


if __name__ == "__main__":
    unittest.main()
