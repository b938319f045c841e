"""spinmux benchmark: one command for the synth, survey and cli workloads.

    python3 perfbench/run.py --workload synth --seed 1 --seconds 30 --trace 0

Run from anywhere inside a checkout; the package is imported from the
checkout's src/.  With --trace 0 the last line of stdout is a JSON object
with the end-to-end metrics (wall_s, setup_s, peak_rss_mb); with --trace 1
it holds the per-layer metrics of a traced run.  Lines before it give the
same numbers for people, with failed_frac, converged_frac (synth) and the
environment.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("synth", "survey", "cli")

# Fresh set-ups per untraced run; setup_s is their median.
SETUP_SAMPLES = 5
# The whole command must finish inside this many seconds.
BUDGET_S = 170.0


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    threads = str(nproc())
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def spawn(args, mode: str, deadline: float) -> dict:
    """Run worker.py in a fresh interpreter; returns its result plus setup_s,
    the time from just before the interpreter started to the end of set-up."""
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--size", args.size,
           "--mode", mode, "--root", str(ROOT), "--spans", spans_path(args)]
    started = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=worker_env(),
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SystemExit(f"{args.workload} {mode} worker overran the time budget")
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0:
        raise SystemExit(f"{args.workload} {mode} worker exited {proc.returncode}")
    result = json.loads(out.strip().splitlines()[-1])
    result["setup_s"] = result["t_ready"] - started
    return result


def spans_path(args) -> str:
    return str(ROOT / ".perfbench" / f"spans-{args.workload}-seed{args.seed}.jsonl")


def environment(seed: int) -> dict:
    """Versions, machine and source facts recorded next to every result."""

    def version(package):
        try:
            return metadata.version(package)
        except metadata.PackageNotFoundError:
            return None

    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        git_sha = sha.stdout.strip() if sha.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        git_sha = None
    src_lines = 0
    for path in sorted((ROOT / "src").rglob("*.py")):
        with open(path, "rb") as fh:
            src_lines += sum(1 for _ in fh)
    return {
        "python": platform.python_version(), "numpy": version("numpy"),
        "scipy": version("scipy"), "nproc": nproc(), "cpu_model": cpu,
        "git_sha": git_sha, "seed": seed, "blas_threads": nproc(),
        "src_lines": src_lines,
    }


def metric(value, unit):
    return {"value": value, "unit": unit}


def untraced(args, deadline):
    setups = [spawn(args, "setup", deadline)["setup_s"]
              for _ in range(SETUP_SAMPLES - 1)]
    run = spawn(args, "run", deadline)
    setups.append(run["setup_s"])
    passes = run["pass_walls"]
    metrics = {
        "wall_s": metric(run["wall_s"], "s"),
        "setup_s": metric(statistics.median(setups), "s"),
        "peak_rss_mb": metric(run["peak_rss_mb"], "MB"),
    }
    notes = [f"passes: {len(passes)} x {run['ops_per_pass']} operations; whole passes "
             f"took {min(passes):.4f} to {max(passes):.4f} s, median "
             f"{statistics.median(passes):.4f} s; reference loop median "
             f"{1e6 * run['reference_s']:.1f} us",
             f"setup_s samples {[round(s, 4) for s in setups]}"]
    extra = {"failed_frac": metric(run["failed"] / run["attempted"], "ratio")}
    if "converged" in run:
        extra["converged_frac"] = metric(run["converged"] / run["tasks"], "ratio")
        notes.append(f"converged: {run['converged']} of {run['tasks']} tasks "
                     f"meet the README tolerance")
    return metrics, extra, run["attempted"], run["failed"], notes


def traced(args, deadline):
    run = spawn(args, "trace", deadline)
    attempted = run["attempted"] + run["probe_attempted"]
    failed = run["failed"] + run["probe_failed"]
    notes = [f"traced run: {len(run['pass_walls'])} untraced and "
             f"{run['traced_passes']} traced passes, then the layer probe",
             f"spans written to {os.path.relpath(spans_path(args))}",
             "wait time: none; the program is single-threaded with no queues"]
    for part, values in (("one traced pass", run["self_per_pass"]),
                         ("probe", run["self_probe"])):
        shown = ", ".join(f"{k} {v:.4f}" for k, v in values.items() if v)
        notes.append(f"self seconds, {part}: {shown}")
    extra = {"failed_frac": metric(failed / attempted, "ratio")}
    return run["metrics"], extra, attempted, failed, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "small"), default="full",
                        help="small shrinks every input, for the smoke test")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + BUDGET_S

    if not (ROOT / "src" / "spinmux" / "__init__.py").is_file():
        print(f"error: no spinmux sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    (ROOT / ".perfbench").mkdir(exist_ok=True)

    measured = traced if args.trace else untraced
    metrics, extra, attempted, failed, notes = measured(args, deadline)
    env = environment(args.seed)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}

    print(f"spinmux benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace} size={args.size}")
    print("env: " + json.dumps(env))
    for note in notes:
        print(note)
    for name, m in {**metrics, **extra}.items():
        print(f"{name:44s} {m['value']:.6g} {m['unit']}")
    record = ROOT / ".perfbench" / (f"result-{args.workload}-seed{args.seed}"
                                    f"-trace{args.trace}.json")
    record.write_text(json.dumps({**result, "extra": extra, "env": env}, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
