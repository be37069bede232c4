"""Self-tests for perfbench/run.py: quartiles, bound comparison, run
parsing and the host-fingerprint refusal.

    cd perfbench && python3 -m unittest test_run
"""

import argparse
import contextlib
import io
import json
import statistics
import tempfile
import unittest
from pathlib import Path

import run

LOWER = {"name": "full_ms_p50", "unit": "ms", "better": "lower", "bound": 0.1}
HIGHER = {"name": "rps", "unit": "1/s", "better": "higher", "bound": 0.1}


class Quartiles(unittest.TestCase):
    def test_quartiles_are_statistics_quantiles(self):
        values = [float(v) for v in range(1, 11)]
        self.assertEqual(run.quartiles(values), (2.75, 5.5, 8.25))
        self.assertEqual(list(run.quartiles(values)), statistics.quantiles(values, n=4))

    def test_spread_is_iqr_over_median(self):
        self.assertAlmostEqual(run.spread([float(v) for v in range(1, 11)]), 1.0)
        self.assertEqual(run.spread([5.0] * 10), 0.0)


class BoundComparison(unittest.TestCase):
    def test_worsening_follows_the_better_direction(self):
        self.assertAlmostEqual(run.worsening(100, 110, "lower"), 0.10)
        self.assertAlmostEqual(run.worsening(100, 90, "higher"), 0.10)
        self.assertAlmostEqual(run.worsening(100, 90, "lower"), -0.10)

    def test_verdicts(self):
        steady = [100.0, 100.5, 99.5, 100.2, 99.8]
        self.assertEqual(run.verdict(steady, [x * 1.2 for x in steady], LOWER), "regressed")
        self.assertEqual(run.verdict(steady, [x * 1.05 for x in steady], LOWER), "same")
        self.assertEqual(run.verdict(steady, [x * 0.9 for x in steady], LOWER), "better")
        self.assertEqual(run.verdict(steady, [x * 0.8 for x in steady], HIGHER), "regressed")
        noisy = [50.0, 100.0, 150.0, 80.0, 120.0]
        self.assertEqual(run.verdict(noisy, noisy, LOWER), "unresolved")

    def test_a_bound_breach_wins_over_noise(self):
        noisy = [50.0, 100.0, 150.0, 80.0, 120.0]
        self.assertEqual(run.verdict(noisy, [x * 2 for x in noisy], LOWER), "regressed")


def record(cpu, workload="suite-baseline", value=10.0, commit="git:a", failed=0):
    fp = {"nproc": 2, "cpu": cpu, "rustc": "rustc 1", "profile": "release",
          "commit": commit, "workload": workload, "seed": 1}
    metrics = {m["name"]: {"value": value, "unit": m["unit"]}
               for m in run.benchmark_spec()["end_to_end"]}
    return {"fingerprint": fp, "trace": 0,
            "result": {"correct": failed == 0, "attempted": 10, "failed": failed,
                       "metrics": metrics}}


class RunSets(unittest.TestCase):
    def write(self, records):
        f = tempfile.NamedTemporaryFile("w", suffix=".jsonl", delete=False)
        f.write("".join(json.dumps(r) + "\n" for r in records))
        f.close()
        self.addCleanup(Path(f.name).unlink)
        return f.name

    def compare(self, a, b):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run.compare(argparse.Namespace(base=self.write(a), new=self.write(b)))
        return code, out.getvalue(), err.getvalue()

    def test_refuses_different_hosts(self):
        code, _, err = self.compare([record("cpu A")] * 3, [record("cpu B")] * 3)
        self.assertEqual(code, 2)
        self.assertIn("refusing", err)

    def test_same_host_different_commits_compare_row_by_row(self):
        code, out, _ = self.compare([record("cpu A")] * 3, [record("cpu A", commit="git:b")] * 3)
        self.assertEqual(code, 0)
        rows = [l for l in out.splitlines() if l.startswith("suite-baseline")]
        self.assertEqual(len(rows), len(run.benchmark_spec()["end_to_end"]))

    def test_regression_fails_the_comparison(self):
        code, out, _ = self.compare([record("cpu A")] * 3, [record("cpu A", value=20.0)] * 3)
        self.assertEqual(code, 1)
        self.assertIn("regressed", out)

    def test_a_failed_new_run_fails_the_comparison(self):
        new = [record("cpu A")] * 2 + [record("cpu A", failed=1)]
        code, out, _ = self.compare([record("cpu A")] * 3, new)
        self.assertEqual(code, 1)
        self.assertIn("1 of 3 new runs failed their checks", out)

    def test_a_failed_base_run_is_left_out(self):
        base = [record("cpu A")] * 3 + [record("cpu A", value=1000.0, failed=2)]
        code, out, _ = self.compare(base, [record("cpu A")] * 3)
        self.assertEqual(code, 0)
        self.assertIn("1 of 4 base runs failed their checks; left out", out)
        self.assertNotIn("regressed", out)

    def test_parse_run_reads_fingerprint_and_last_line(self):
        fp = {"nproc": 2, "workload": "serve-mixed", "seed": 3}
        stdout = (run.FINGERPRINT_PREFIX + json.dumps(fp) + "\n# note\n"
                  + json.dumps({"correct": True, "attempted": 1, "failed": 0, "metrics": {}}) + "\n")
        got_fp, result = run.parse_run(stdout)
        self.assertEqual(got_fp, fp)
        self.assertTrue(result["correct"])


if __name__ == "__main__":
    unittest.main()
