"""The benchmark's own checks. Usage: python3 perfbench/selftest.py

Takes a few minutes: it runs the CLI traced and untraced, and the
benchmark itself once per mode on the shortest workload.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import time
import unittest
from pathlib import Path

from oracle import Oracle, closed_form_holds, request_lines
from run import ROOT, WORK_DIR, Runner, Sample
from workloads import BATCH, COLUMN_STRATA, WORKLOADS, batch_inputs

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


class BenchTest(unittest.TestCase):
    def setUp(self):
        WORK_DIR.mkdir(exist_ok=True)
        self.work = Path(tempfile.mkdtemp(prefix="selftest-", dir=WORK_DIR))
        self.runner = Runner(self.work, time.monotonic() + 600)

    def tearDown(self):
        shutil.rmtree(self.work, ignore_errors=True)

    def test_traced_runs_repeat_and_keep_stdout(self):
        for name, text in batch_inputs(7).items():
            (self.work / name).write_text(text)
        commands = [
            ("verify", "--theorem", "lemma9"),
            ("verify", "--theorem", "thm6-pset"),
            ("period", "--game", "diet-chomp", "--k", "2", "--convention", "misere",
             "--translation", "12", "--max-a1", "2", "--max-extent", "6"),
            ("batch", "--game", "nim", "--input", "nim.txt"),
        ]
        for args in commands:
            plain = self.runner.cli(args, self.work, 60)
            traces = []
            for i in range(2):
                out = self.work / f"trace{i}.json"
                traced = self.runner.cli(args, self.work, 60, out)
                self.assertEqual(traced.stdout, plain.stdout, args)
                self.assertEqual(traced.rc, plain.rc, args)
                traces.append(json.loads(out.read_text()))
            a, b = traces
            self.assertEqual(a["counts"], b["counts"], args)
            self.assertEqual(a["memo_entries"], b["memo_entries"], args)
            self.assertGreater(a["counts"]["core.canonicalize.calls"], 0, args)

    def test_timeout_stops_unbounded_solve(self):
        start = time.monotonic()
        s = self.runner.cli(
            ("outcome", "--game", "nim", "--position", "60,60,60"), self.work, 1.0
        )
        self.assertTrue(s.timed_out)
        self.assertLess(time.monotonic() - start, 10)

    def test_generator_is_seeded_and_covered_by_references(self):
        self.assertEqual(batch_inputs(3), batch_inputs(3))
        self.assertNotEqual(batch_inputs(3), batch_inputs(4))
        oracle = Oracle()
        for seed in range(5):
            inputs = batch_inputs(seed)
            for c in BATCH.commands:
                lines = oracle.expected_batch(c, inputs[c.input_file])
                self.assertEqual(len(lines), len(request_lines(inputs[c.input_file])))
            heights = [int(x) for x in request_lines(inputs["dc2.txt"]) if "," not in x]
            self.assertEqual(len(heights), len(COLUMN_STRATA))

    def test_oracle_counts_wrong_outputs(self):
        oracle = Oracle()
        inputs = batch_inputs(1)
        dc2, nim = BATCH.commands
        good = b"\n".join(oracle.expected_batch(nim, inputs["nim.txt"])) + b"\n"
        n = len(request_lines(inputs["nim.txt"]))
        ok = oracle.check(BATCH, nim, Sample(1, 1, 1, 0, False, good), self.work, inputs["nim.txt"])
        self.assertEqual((ok.attempted, ok.failed), (n, 0))
        bad = good.replace(b'"outcome": "P"', b'"outcome": "N"', 1)
        wrong = oracle.check(BATCH, nim, Sample(1, 1, 1, 0, False, bad), self.work, inputs["nim.txt"])
        self.assertEqual(wrong.failed, 1)
        hung = oracle.check(BATCH, nim, Sample(1, 1, 1, -9, True, good), self.work, inputs["nim.txt"])
        self.assertEqual(hung.failed, n)
        self.assertFalse(closed_form_holds("nim", b'{"position": [1, 2], "outcome": "N", "grundy": 0}'))
        self.assertFalse(closed_form_holds("diet-chomp", b'{"position": [4], "outcome": "N", "grundy": null}'))
        self.assertTrue(closed_form_holds("diet-chomp", b'{"position": [4], "outcome": "P", "grundy": null}'))

    def test_every_metric_is_emitted_with_its_unit(self):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = run_bench("--workload", "verify-nim", "--seed", "1",
                             "--seconds", "1", "--trace", str(trace))
            self.assertEqual(proc.returncode, 0, proc.stderr)
            result = json.loads(proc.stdout.splitlines()[-1])
            self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
            self.assertTrue(result["correct"], proc.stderr)
            self.assertEqual(result["failed"], 0)
            want = {m["name"]: m["unit"] for m in BENCHMARK[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            self.assertEqual(got, want)
            report = json.loads(proc.stdout.splitlines()[-2])["report"]["workloads"]["verify-nim"]
            self.assertGreaterEqual(report["wall_s"]["n"], 2)
            if trace:
                self.assertGreaterEqual(report["traced_wall_s"]["n"], 2)
                self.assertTrue(report["trace_counts_repeat"])

    def test_fails_without_the_program(self):
        bare = self.work / "bare"
        bare.mkdir()
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in BENCHMARK["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench("--workload", next(iter(WORKLOADS)), "--seed", "1",
                         "--seconds", "1", "--trace", "0", cwd=bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
