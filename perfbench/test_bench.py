#!/usr/bin/env python3
"""The benchmark's own tests: every workload at a tiny size.

    python3 perfbench/test_bench.py

Checks that every metric BENCHMARK.json names is emitted with its unit, in
the untraced and in the traced run; that the correctness gates pass; that
the traced run writes a loadable Chrome trace; and that the simulated
outcome (fingerprints, rounds, peer-round counts) is identical between 1
and 4 engine threads and between two runs of the same seed.
"""

import json
import pathlib
import subprocess
import sys
import tempfile
import unittest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
import run  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
TINY_N = {"bringup": 64, "crash-recovery": 96, "steady-lookups": 128}
BINARY = None


def bench(workload, trace=0, threads=None, seed=7, extra=()):
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", "0", "--trace", str(trace), "--reps", "2",
           "--n", str(TINY_N[workload]), *extra]
    if threads:
        cmd += ["--threads", str(threads)]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    lines = done.stdout.strip().split("\n")
    return done.returncode, lines, json.loads(lines[-1]), done.stderr


def outcomes(lines):
    return [l for l in lines if l.startswith("outcome ")]


class BenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        global BINARY
        BINARY = run.build(run.build_dir())

    def check_metrics(self, result, declared):
        got = result["metrics"]
        self.assertEqual(set(got), {m["name"] for m in declared})
        for m in declared:
            self.assertEqual(got[m["name"]]["unit"], m["unit"], m["name"])
            self.assertIsInstance(got[m["name"]]["value"], (int, float))

    def test_untraced_metrics_and_gates(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                rc, _, result, err = bench(w["name"])
                self.assertEqual(rc, 0, err)
                self.assertTrue(result["correct"])
                self.assertGreater(result["attempted"], 0)
                self.check_metrics(result, SPEC["end_to_end"])
                for m in SPEC["end_to_end"]:
                    self.assertGreater(result["metrics"][m["name"]]["value"],
                                       0, m["name"])

    def test_traced_metrics_trace_file_and_shares(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                with tempfile.TemporaryDirectory() as tmp:
                    path = pathlib.Path(tmp) / "trace.json"
                    rc, lines, result, err = bench(
                        w["name"], trace=1, extra=("--trace-out", str(path)))
                    self.assertEqual(rc, 0, err)
                    self.assertTrue(result["correct"])
                    self.check_metrics(result, SPEC["per_layer"])
                    events = json.loads(path.read_text())["traceEvents"]
                    names = {e["name"] for e in events}
                    self.assertTrue({"bench.round", "core.engine.step",
                                     "net.on_round"} <= names)
                # Traced and untraced instance report the same outcome.
                got = outcomes(lines)
                self.assertEqual(len(got), 2)
                self.assertEqual(got[0], got[1])
                share = result["metrics"]["core.engine.phase_share_sum"]
                self.assertLessEqual(share["value"], 1.0)

    def test_outcome_independent_of_threads_and_repeats(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                runs = [bench(w["name"], threads=t) for t in (1, 4, 4)]
                for rc, _, _, err in runs:
                    self.assertEqual(rc, 0, err)
                first = outcomes(runs[0][1])
                self.assertEqual(len(first), 2)
                for _, lines, _, _ in runs[1:]:
                    self.assertEqual(outcomes(lines), first)

    def test_bad_arguments_fail(self):
        done = subprocess.run([str(BINARY), "--workload", "nope"],
                              capture_output=True, text=True)
        self.assertNotEqual(done.returncode, 0)


if __name__ == "__main__":
    unittest.main()
