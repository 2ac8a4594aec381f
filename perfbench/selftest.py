"""Self-tests for the benchmark: its oracle, its span arithmetic and a
reduced-size pass of every workload.

    python3 perfbench/selftest.py

The file is deliberately not named ``test_*.py``: it runs the benchmark in
subprocesses and is kept out of the program's own pytest suite.
"""

from __future__ import annotations

import json
import pathlib
import subprocess
import sys
import tempfile
import unittest
from types import SimpleNamespace

import run

run.limit_blas_threads()
run.import_program()

import numpy as np  # noqa: E402  (imported once BLAS threads are capped)

import oracle  # noqa: E402
import workloads  # noqa: E402
from spans import Site, Span, Tracer, layer_self_times, self_times  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def small_learn_pass():
    with tempfile.TemporaryDirectory() as work:
        wl = workloads.LearnV64(seed=5, small=True, work=pathlib.Path(work))
        return wl, wl.run()


class OracleTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.wl, cls.out = small_learn_pass()
        cls.costs = oracle.oracle_costs([b @ s for b, s in cls.out["reps"]])

    def test_program_output_passes(self):
        checks = workloads.Checks()
        self.wl.check(self.out, checks)
        self.assertEqual(checks.failed, 0, checks.messages)
        self.assertGreater(checks.attempted, 0)

    def test_flags_cost_perturbed_by_1e_6(self):
        cands = [SimpleNamespace(u=c.u, v=c.v, cost=c.cost) for c in self.out["cands"]]
        self.assertEqual(oracle.check_candidate_costs(cands, self.costs), [])
        i = max(range(len(cands)), key=lambda k: cands[k].cost)
        cands[i].cost *= 1.0 + 1e-6
        self.assertEqual(len(oracle.check_candidate_costs(cands, self.costs)), 1)

    def test_flags_swapped_selected_edge(self):
        selected = list(self.out["selection"].selected)
        E0 = len(selected)
        self.assertEqual(oracle.check_selection(selected, E0, self.costs), [])
        dearest = max((p for p in self.costs if p not in selected), key=lambda p: self.costs[p][0])
        selected[0] = dearest
        self.assertNotEqual(oracle.check_selection(selected, E0, self.costs), [])

    def test_flags_missing_pair_and_bad_total_variation(self):
        cands = [SimpleNamespace(u=c.u, v=c.v, cost=c.cost) for c in self.out["cands"][1:]]
        self.assertNotEqual(oracle.check_candidate_costs(cands, self.costs), [])
        tv = self.out["tv"] * (1.0 + 1e-6)
        self.assertNotEqual(
            oracle.check_total_variation(tv, self.out["selection"].selected, self.costs), [])

    def test_flags_non_orthonormal_map(self):
        self.assertEqual(oracle.check_orthonormal([np.eye(4)]), [])
        self.assertEqual(len(oracle.check_orthonormal([np.eye(4), 1.001 * np.eye(4)])), 1)

    def test_union_find_on_a_path(self):
        costs = {(0, 1): (1.0, 1.0), (1, 2): (2.0, 1.0), (0, 2): (3.0, 1.0), (2, 3): (4.0, 1.0),
                 (0, 3): (5.0, 1.0), (1, 3): (6.0, 1.0)}
        self.assertEqual(oracle.connected_at(costs, 4), 4)


class SpanTest(unittest.TestCase):
    def test_self_time_on_hand_built_tree(self):
        spans = [
            Span(0, "bench.pass", 0.0, 10.0, None, 1),
            Span(1, "infer.enumerate_aligned", 1.0, 4.0, 0, 1),
            Span(2, "align.procrustes", 2.0, 3.0, 1, 1),
            Span(3, "core.assemble", 5.0, 9.0, 0, 1),
            Span(4, "core.incidence", 5.5, 6.5, 3, 1),
            Span(5, "core.incidence", 7.0, 8.5, 3, 1),
        ]
        selfs = self_times(spans)
        self.assertEqual(selfs, {0: 3.0, 1: 2.0, 2: 1.0, 3: 1.5, 4: 1.0, 5: 1.5})
        layers = layer_self_times(spans)
        self.assertEqual(layers, {"bench": 3.0, "infer": 2.0, "align": 1.0, "core": 4.0})
        self.assertAlmostEqual(sum(layers.values()), 10.0)

    def test_missing_function_reads_zero(self):
        tracer = Tracer()
        sites = [Site("sheaflearn.infer", "no_such_function", "align.procrustes"),
                 Site("sheaflearn.no_such_module", "f", "core.assemble")]
        with tracer.installed(sites):
            with tracer.span("bench.pass"):
                pass
        self.assertEqual(tracer.missing, ["sheaflearn.infer.no_such_function",
                                          "sheaflearn.no_such_module.f"])
        metrics = workloads.layer_metrics(tracer.spans, tracer.counters, tracer.samples)
        self.assertEqual(metrics["align.procrustes_calls"][0], 0)
        self.assertEqual(metrics["core.assemble_s"][0], 0)

    def test_wrappers_are_removed_after_the_block(self):
        import sheaflearn.infer as infer

        original = infer.procrustes_align
        with Tracer().installed(workloads.SITES):
            self.assertIsNot(infer.procrustes_align, original)
        self.assertIs(infer.procrustes_align, original)

    def test_nested_memory_peaks(self):
        tracer = Tracer(memory_prefixes=("core.",))
        with tracer.span("core.assemble"):
            with tracer.span("core.incidence"):
                a = np.ones(4 * 2 ** 20 // 8)
            b = np.ones(2 * 2 ** 20 // 8)
            del a, b
        peaks = {s.name: s.peak_bytes / 2 ** 20 for s in tracer.spans}
        self.assertGreaterEqual(peaks["core.incidence"], 4.0)
        self.assertGreaterEqual(peaks["core.assemble"], 6.0)


class SmokeTest(unittest.TestCase):
    """Reduced-size runs of every workload end with no failed check and
    report every metric BENCHMARK.json names."""

    def run_all(self, trace: int) -> dict:
        proc = subprocess.run(
            [sys.executable, str(run.HERE / "run.py"), "--workload", "all", "--seed", "3",
             "--seconds", "0.3", "--trace", str(trace), "--smoke"],
            cwd=run.ROOT, capture_output=True, text=True, timeout=600)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def check_result(self, result, names):
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreater(result["attempted"], 0)
        for workload in run.WORKLOAD_NAMES:
            for name in names:
                self.assertIn(f"{workload}.{name}", result["metrics"])

    def test_untraced(self):
        self.check_result(self.run_all(0), [m["name"] for m in BENCHMARK["end_to_end"]])

    def test_traced(self):
        result = self.run_all(1)
        self.check_result(result, [m["name"] for m in BENCHMARK["per_layer"]])
        self.assertGreater(result["metrics"]["learn_v64.core.assemble_s"]["value"], 0)
        self.assertGreater(result["metrics"]["cli_v32.serialize.bytes_written"]["value"], 0)


if __name__ == "__main__":
    unittest.main()
