"""Self-tests of the benchmark itself (not of the library).

    python3 bench/selftest.py

Takes about half a minute: it runs the ``enumerate`` workload, the
cheapest, through ``run.py`` a few times.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import worker  # noqa: E402
import workloads  # noqa: E402
from clock import Sampler  # noqa: E402

COUNTS = ("_calls", "_ops", "_items", "_builds", ".errors", ".output_bytes")


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


def result_of(done: subprocess.CompletedProcess) -> dict:
    return json.loads(done.stdout.splitlines()[-1])


class SeededInputs(unittest.TestCase):
    def test_same_seed_same_inputs_and_other_seed_other_inputs(self):
        for workload in workloads.WORKLOADS.values():
            first, again, other = (workload().requests(s) for s in (7, 7, 8))
            self.assertEqual(first, again, workload.name)
            if workload.exhaustive:
                self.assertEqual(first, other, workload.name)
            else:
                self.assertNotEqual(first, other, workload.name)

    def test_deep_scan_always_queries_the_running_example(self):
        for seed in range(5):
            requests = workloads.DeepScan().requests(seed)
            self.assertEqual(requests[0], workloads.RUNNING_EXAMPLE)
            self.assertTrue(all(r["n"] == 10 for r in requests))

    def test_frieze_request_mixes_p4_and_p6_on_42_vertices(self):
        requests = workloads.FriezeRequest().requests(3)
        self.assertEqual({r["p"] for r in requests}, {4, 6})
        self.assertTrue(all(r["dissection"]["n"] == 42 for r in requests))


class CorruptedFrieze(workloads.FriezeRequest):
    """Changes one interior entry of the integer frieze the chain printed."""

    def run(self, request: dict) -> dict:
        output = super().run(request)
        code, text = output["steps"]["cc"]
        frieze = json.loads(text)
        entry = frieze["rows"][4][3]
        entry["rat"] = str(int(entry["rat"]) + 1)
        output["steps"]["cc"] = (code, json.dumps(frieze))
        return output


def measure_first_request(workload) -> worker.Phase:
    sampler = Sampler()
    sampler.start()
    try:
        return worker.measure(workload, workload.requests(1)[:1], 0, sampler)
    finally:
        sampler.stop()


class OutputChecks(unittest.TestCase):
    def test_corrupted_frieze_entry_is_counted_as_a_failure(self):
        phase = measure_first_request(CorruptedFrieze())
        self.assertEqual((phase.ops, phase.failed), (1, 1))
        self.assertTrue(any("diamond rule" in fault for fault in phase.faults), phase.faults)

    def test_uncorrupted_request_passes(self):
        phase = measure_first_request(workloads.FriezeRequest())
        self.assertEqual((phase.ops, phase.failed), (1, 0), phase.faults)


class Runs(unittest.TestCase):
    def test_printed_metrics_match_benchmark_json(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        for trace, declared in (("0", spec["end_to_end"]), ("1", spec["per_layer"])):
            done = run_bench("--workload", "enumerate", "--seed", "1", "--seconds", "1",
                             "--trace", trace)
            self.assertEqual(done.returncode, 0, done.stderr)
            result = result_of(done)
            self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
            self.assertTrue(result["correct"])
            self.assertEqual(list(result["metrics"]), [m["name"] for m in declared])
            for metric in declared:
                self.assertEqual(result["metrics"][metric["name"]]["unit"], metric["unit"])

    def test_traced_counts_repeat_exactly(self):
        runs = [result_of(run_bench("--workload", "enumerate", "--seed", "2", "--seconds", "1",
                                    "--trace", "1"))["metrics"] for _ in range(2)]
        counts = [name for name in runs[0] if name.endswith(COUNTS)]
        self.assertIn("exact.quadnum_ops", counts)
        self.assertEqual(runs[0]["exact.quadnum_ops"]["value"], 0)
        for name in counts:
            self.assertEqual(runs[0][name], runs[1][name], name)

    def test_fails_without_the_library(self):
        bare = ROOT / ".bench_out" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        try:
            done = run_bench("--workload", "sweep", "--seed", "1", "--seconds", "1",
                             "--trace", "0", cwd=bare)
        finally:
            shutil.rmtree(bare)
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout, "")


if __name__ == "__main__":
    unittest.main()
