"""Fast self-test of the benchmark harness at tiny sizes.

Usage: python3 perfbench/selftest.py

Checks the result contract of run.py on every workload in both trace modes,
that a checkout without the program fails without printing a result, that
the output checks reject corrupted outputs, and that spans nest as expected.
"""

from __future__ import annotations

import io
import json
import math
import os
import shutil
import subprocess
import sys
import time
import unittest
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=str(cwd),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=180,
    )


class ResultContract(unittest.TestCase):
    def test_every_workload_in_both_modes(self):
        for workload in SPEC["workloads"]:
            for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload["name"], trace=trace):
                    proc = _run(ROOT, "--workload", workload["name"], "--seed", "3", "--seconds", "1",
                                "--trace", str(trace), "--tiny")
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    result = json.loads(proc.stdout.strip().split("\n")[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"], proc.stdout)
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()},
                                     {m["name"]: m["unit"] for m in SPEC[kind]})
                    for value in result["metrics"].values():
                        self.assertTrue(math.isfinite(value["value"]))
                    if trace == 0:
                        self.assertTrue(all(v["value"] > 0 for v in result["metrics"].values()))

    def test_checkout_without_program_fails_without_result(self):
        bare = ROOT / ".bench_work" / f"selftest-bare-{os.getpid()}"
        try:
            shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
            proc = _run(bare, "--workload", "figure", "--seed", "1", "--seconds", "1", "--trace", "0")
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


class OutputChecks(unittest.TestCase):
    """A real tiny pass must verify clean, and the same pass with one output corrupted must not."""

    def _pass(self, name):
        work = ROOT / ".bench_work" / f"selftest-{name}-{os.getpid()}"
        work.mkdir(parents=True, exist_ok=True)
        self.addCleanup(shutil.rmtree, work, True)
        workload = workloads.WORKLOADS[name](5, work, True)
        workload.prepare()
        runner = run.Runner(workload, work, time.monotonic() + 120)
        result = runner.run_pass()
        self.assertEqual(runner.failed, 0, runner.failures)
        return workload, result["steps"]

    def test_codes_flipped_bit(self):
        workload, steps = self._pass("codes")
        data = bytearray(workload.codes_path.read_bytes())
        data[21] ^= 1
        workload.codes_path.write_bytes(bytes(data))
        self.assertIn(0, workload.verify(steps))

    def test_codes_wrong_max_deviation(self):
        workload, steps = self._pass("codes")
        steps[1]["stdout"] = steps[1]["stdout"].replace("max deviation = 0.", "max deviation = 0.0")
        self.assertEqual(set(workload.verify(steps)), {1})

    def test_crosscheck_wrong_estimate(self):
        workload, steps = self._pass("crosscheck")
        lines = steps[0]["stdout"].split("\n")
        fields = lines[1].split(",")
        fields[2] = str(int(fields[2]) // 2)
        fields[3] = repr(int(fields[2]) / int(fields[1]))
        lines[1] = ",".join(fields)
        steps[0]["stdout"] = "\n".join(lines)
        self.assertIn(0, workload.verify(steps))

    def test_figure_outside_window(self):
        workload, steps = self._pass("figure")
        csv = workload.base.with_suffix(".csv")
        lines = csv.read_text(encoding="utf-8").split("\n")
        fields = lines[1].split(",")
        fields[6:8] = ["0.9999", "1"]  # a window the row cannot reach
        lines[1] = ",".join(fields)
        csv.write_text("\n".join(lines), encoding="utf-8")
        self.assertEqual(set(workload.verify(steps)), {0})

    def test_exact_references(self):
        self.assertEqual(workloads.birthday(2, 1), Fraction(1, 2))
        self.assertEqual(workloads.rip_three_exact(1), 0)
        # m=3: the band |2H-3| <= 1.2 needs H in {1, 2} for all three pairs.
        self.assertEqual(workloads.rip_three_exact(3), Fraction(24, 64))


class Spans(unittest.TestCase):
    def test_nesting_and_self_time(self):
        sys.path.insert(0, str(ROOT / "src"))
        import onebit
        import onebit.cli

        spans = tracer.Tracer()
        spans.install(onebit)
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            self.assertEqual(onebit.cli.main(["oracle", "eta", "--n", "10", "--m", "7"]), 0)
        trace = tracer.Trace(json.loads(json.dumps(spans.dump())))
        names = {s[0]: s[2] for s in trace.spans}
        parents = {s[2]: names.get(s[1]) for s in trace.spans}
        self.assertEqual(parents["oracles.eta_comparison"], "cli.main")
        self.assertNotIn("cli.build_parser", parents)  # cli helpers are cli.main's self time
        self.assertEqual(parents["oracles.birthday_exact"], "oracles.eta_comparison")
        calls, seconds = trace.function("cli.main")
        self.assertEqual(calls, 1)
        self.assertTrue(0 < trace.self_seconds("cli.main") < seconds)


if __name__ == "__main__":
    unittest.main()
