"""One benchmark process: set up a workload, then run passes of it.

Started by run.py with the checkout's src/ on PYTHONPATH and the BLAS thread
pools capped.  Modes:

  setup  set up and stop; reports when set-up ended, for setup_s
  run    set up, then run untraced passes for --seconds
  trace  set up, alternate untraced and traced passes for --seconds, then
         run the per-layer probe under tracing and write the spans out

The result is one JSON line on stdout.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback

import numpy as np

from probe import Probe
from tracing import LAYERS, Tracer, self_times
from workloads import WORKLOADS, CheckFailed, build


# The reference loop measures the host's speed next to every operation.  It
# has the mix of the package's hot paths (2x2 complex products in a Python
# loop, scalar arithmetic, short numpy vector calls) and lives here, so no
# change under src/ can alter it.
_REF_MATRICES = np.random.default_rng(1).standard_normal((48, 2, 2)) / 2 + 0j
_REF_X = np.linspace(0.0, 1.0, 256)
# wall_s is given in seconds of a host on which one reference loop takes this
# long; where the benchmark was built, that was the host's fast state.
REFERENCE_S = 200e-6


def reference() -> float:
    """Seconds per reference loop, the mean of two runs."""
    start = time.perf_counter()
    for _ in range(2):
        u = np.eye(2, dtype=complex)
        for m in _REF_MATRICES:
            u = m @ u
        total = 0.0
        for i in range(400):
            total += i * 0.5
        np.cos(_REF_X).sum()
        np.sin(2.0 * _REF_X).sum()
    return (time.perf_counter() - start) / 2


def run_pass(workload, tracer, first_op: int):
    """Run every operation once, each just after a reference loop; returns
    ((operation seconds, reference seconds) per operation, failed
    operations).  Only the operations are timed; their checks run afterwards.
    """
    outputs, errors, timings = {}, {}, []
    with tracer.span("bench.pass"):
        for i, op in enumerate(workload.ops):
            ref = reference()
            start = time.perf_counter()
            with tracer.span(op.name, op=first_op + i):
                try:
                    outputs[op.key] = op.call(outputs)
                except Exception:  # counted as a failed operation
                    errors[op.key] = traceback.format_exc()
            timings.append((time.perf_counter() - start, ref))
    failed = 0
    for op in workload.ops:
        if op.key in errors:
            failed += 1
            print(f"{op.key} raised:\n{errors[op.key]}", file=sys.stderr)
            continue
        try:
            op.check(outputs[op.key], outputs)
        except CheckFailed as exc:
            failed += 1
            print(f"{op.key} failed its check: {exc}", file=sys.stderr)
        except Exception:  # a check that cannot read the output fails it too
            failed += 1
            print(f"{op.key} check raised:\n{traceback.format_exc()}", file=sys.stderr)
    return timings, failed


def host_wall(passes) -> float:
    """Seconds of the operation list at the reference host speed: for each
    operation, the median over passes of its time over the reference loop's
    time just before it, summed and scaled by REFERENCE_S.

    The host's CPU speed swings by up to 2x within seconds, and the share of
    time it runs slow changes from minute to minute.  The ratio to a reference
    timed next to the operation cancels that; the median does not fall as a
    faster commit fits more passes into the run.
    """
    return REFERENCE_S * sum(statistics.median(op / ref for op, ref in column)
                             for column in zip(*passes))


def pass_seconds(passes) -> list:
    return [sum(op for op, _ in p) for p in passes]


def peak_rss_mb(workload_name: str) -> float:
    """Peak RSS of this process, or of its largest child for cli."""
    who = resource.RUSAGE_CHILDREN if workload_name == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss * 1024 / 1e6   # ru_maxrss is KiB


def measure(workload, seconds: float, min_passes: int, tracer=None):
    """Passes until the next would overrun `seconds`, and at least
    `min_passes` untraced ones; with a tracer, passes alternate untraced and
    traced so both see the same machine state.  Returns the seconds per
    operation of every pass, by kind."""
    off = Tracer(False)
    passes = {"untraced": [], "traced": []}
    attempted = failed = 0
    start = time.monotonic()
    while True:
        for kind, t in (("untraced", off), ("traced", tracer)):
            if t is None:
                continue
            op_seconds, n_failed = run_pass(workload, t, attempted)
            passes[kind].append(op_seconds)
            attempted += len(workload.ops)
            failed += n_failed
        per_round = sum(statistics.median(pass_seconds(p)) for p in passes.values() if p)
        if (len(passes["untraced"]) >= min_passes
                and time.monotonic() - start + per_round > seconds):
            return passes, attempted, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--size", choices=("full", "small"), required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--root", required=True)
    parser.add_argument("--spans", help="where trace mode writes its spans")
    args = parser.parse_args(argv)

    tmp_root = os.path.join(args.root, ".perfbench", "tmp")
    os.makedirs(tmp_root, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=tmp_root)
    try:
        if args.workload != "cli":
            import spinmux

            src = os.path.join(args.root, "src", "")
            if not os.path.abspath(spinmux.__file__).startswith(src):
                raise SystemExit(f"spinmux imported from {spinmux.__file__}, not {src}")
        workload = build(args.workload, args.seed, args.size, workdir)
        workload.warm_up()
        result = {"t_ready": time.monotonic()}
        if args.mode == "setup":
            print(json.dumps(result))
            return 0

        tracer = Tracer(True) if args.mode == "trace" else None
        min_passes = 1 if args.size == "small" else (2 if tracer else 3)
        passes, attempted, failed = measure(workload, args.seconds, min_passes, tracer)
        untraced = passes["untraced"]
        result.update(pass_walls=pass_seconds(untraced),
                      reference_s=statistics.median(ref for p in untraced for _, ref in p),
                      attempted=attempted, failed=failed, ops_per_pass=len(workload.ops))
        if workload.converged:
            result["converged"] = sum(workload.converged.values())
            result["tasks"] = len(workload.converged)
        if tracer is None:
            result.update(wall_s=host_wall(untraced), peak_rss_mb=peak_rss_mb(args.workload))
        else:
            result["traced_passes"] = len(passes["traced"])
            result.update(trace_metrics(tracer, passes, args, workdir))
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def trace_metrics(tracer, passes, args, workdir) -> dict:
    """Probe metrics, self time per layer and the tracing overhead."""
    tracer.section = "probe"
    probe = Probe(tracer, args.root, workdir, args.size)
    metrics = probe.run()
    n_traced = len(passes["traced"])
    in_passes = self_times(tracer.spans, "workload")
    in_probe = self_times(tracer.spans, "probe")
    for layer in LAYERS:
        # one traced pass of the workload (mean over traced passes) + the probe
        seconds = in_passes[layer] / n_traced + in_probe[layer]
        metrics[f"self.{layer}_s"] = {"value": seconds, "unit": "s"}
    overhead = host_wall(passes["traced"]) / host_wall(passes["untraced"]) - 1.0
    metrics["trace.overhead_frac"] = {"value": overhead, "unit": "ratio"}
    tracer.write(args.spans)
    return {
        "metrics": metrics,
        "probe_attempted": probe.attempted,
        "probe_failed": probe.failed,
        "self_per_pass": {k: v / n_traced for k, v in in_passes.items()},
        "self_probe": in_probe,
    }


if __name__ == "__main__":
    sys.exit(main())
