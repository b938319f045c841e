"""Smoke test of the benchmark itself, at tiny sizes (about a minute).

    python3 perfbench/smoke.py

Checks that every metric BENCHMARK.json names is emitted with its unit, by
an untraced run of each workload and a traced run; that failed_frac and
converged_frac are printed; that a deliberately corrupted output is counted
as a failed operation; and that the command fails without the sources.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path[:0] = [BENCH_DIR, os.path.join(ROOT, "src")]

import run  # noqa: E402
import worker  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import build  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def units(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def bench(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace), "--size", "small"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def printed(stdout):
    """name -> unit for the human-readable metric lines."""
    lines = stdout.splitlines()[:-1]
    return {m[1]: m[3] for m in (re.match(r"^(\S+)\s+(\S+)\s+(\S+)$", line)
                                 for line in lines) if m}


class Smoke(unittest.TestCase):
    def check_result(self, proc, kind):
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        self.assertEqual(got, units(kind))
        for m in result["metrics"].values():
            self.assertIsInstance(m["value"], float)
        return printed(proc.stdout)

    def test_end_to_end_metrics(self):
        for workload in ("synth", "survey", "cli"):
            with self.subTest(workload=workload):
                shown = self.check_result(bench(workload, 0), "end_to_end")
                self.assertEqual(shown.get("failed_frac"), "ratio")
                if workload == "synth":
                    self.assertEqual(shown.get("converged_frac"), "ratio")
                for name, unit in units("end_to_end").items():
                    self.assertEqual(shown.get(name), unit)

    def test_per_layer_metrics(self):
        proc = bench("survey", 1)
        shown = self.check_result(proc, "per_layer")
        self.assertEqual(shown.get("failed_frac"), "ratio")
        self.assertTrue(os.path.isfile(os.path.join(
            ROOT, ".perfbench", "spans-survey-seed7.jsonl")))

    def test_corrupted_output_is_counted(self):
        os.environ.update(run.worker_env())     # cli runs spinmux as a process
        corruptions = {
            # ODMR contrast pushed out of [0, 1]
            ("survey", "odmr"): lambda out, wd: out + 2.0,
            # a pulse that no longer matches its trace
            ("synth", "optimize[0]"): lambda out, wd: (
                type(out[0]).from_arrays(*(a * 1.01 for a in out[0].amplitudes()),
                                         out[0].dt), out[1]),
            # an address file with a site moved by 10 MHz
            ("cli", "address_map"): corrupt_addresses,
        }
        for (name, key), corrupt in corruptions.items():
            with self.subTest(workload=name), tempfile.TemporaryDirectory(
                    dir=os.path.join(ROOT, ".perfbench")) as workdir:
                workload = build(name, 7, "small", workdir)
                workload.warm_up()
                if name == "cli":
                    workload.ops = workload.ops[:1]
                op = next(o for o in workload.ops if o.key == key)
                call = op.call
                op.call = lambda outputs, call=call: corrupt(call(outputs), workdir)
                _, failed = worker.run_pass(workload, Tracer(False), 0)
                self.assertEqual(failed, 1)

    def test_fails_without_sources(self):
        with tempfile.TemporaryDirectory(dir=os.path.join(ROOT, ".perfbench")) as bare:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            for path in SPEC["paths"]:
                shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                                ignore=shutil.ignore_patterns("__pycache__"))
            proc = bench("synth", 0, cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn("{", proc.stdout)


def corrupt_addresses(result, workdir):
    path = os.path.join(workdir, "addresses.csv")
    with open(path) as fh:
        lines = fh.read().splitlines()
    site, u_um, f_ghz = lines[1].split(",")
    lines[1] = f"{site},{u_um},{float(f_ghz) + 0.01!r}"
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return result


if __name__ == "__main__":
    unittest.main(verbosity=2)
