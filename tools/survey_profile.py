"""Median in-process time of each survey operation for a `src/` tree.

    python tools/survey_profile.py SRC [--against SRC2] [--pairs 5] [--passes 20] [--seed 1]

SRC (and SRC2) is a directory that holds the `spinmux` package, such as this
checkout's `src` or the `src` of a `git archive` export.  Each tree is
measured in its own fresh worker process, which imports `spinmux` from that
tree only.

The worker builds the benchmark's survey workload (`perfbench/workloads.py`
at its full size, in a temporary directory), runs its warm-up and then
`--passes` passes of perfbench's own `run_pass`: each operation is timed just
after perfbench's reference loop, and the workload's checks run untimed after
every pass; a failed operation or check stops the script.  Each operation's
time is divided by the reference loop's and given in seconds of the reference
host, as perfbench does for `wall_s`, so that the host's speed drifting
between workers cancels.  For each operation (calibration, the 8 address
maps, Rabi, Ramsey, ODMR, the two crosstalk maps, and the write, read, cost
and sweep of each of the three pulses) the script prints the median over the
passes, and then their sum, which is the pass's `wall_s`.

With `--against`, each of the N pairs runs one worker per tree, alternating
which runs first, and the script also prints the median and quartiles of the
paired ratios SRC / SRC2 of every operation and of `wall_s`; a ratio below 1
means SRC is faster.  The workers, pairs and ratios are `profile_pairs.py`'s,
shared with `descent_profile.py`.

Needs only the standard library and numpy (and what the measured trees need).
"""

from __future__ import annotations

import statistics
import sys
import tempfile
from pathlib import Path

import profile_pairs


def _profile(seed: int, passes: int) -> dict:
    """The medians in reference-host seconds by operation key, then wall_s."""
    from tracing import Tracer
    from worker import REFERENCE_S, host_wall, run_pass
    from workloads import build

    with tempfile.TemporaryDirectory() as workdir:
        workload = build("survey", seed, "full", workdir)
        workload.warm_up()
        runs = []
        for _ in range(passes):
            timings, failed = run_pass(workload, Tracer(False), 0)
            if failed:
                raise SystemExit(f"{failed} survey operations failed")
            runs.append(timings)
    timings = {op.key: REFERENCE_S * statistics.median(t / ref for t, ref in column)
               for op, column in zip(workload.ops, zip(*runs))}
    return {"timings": {**timings, "wall_s": host_wall(runs)}}


def print_profile(src: Path, result: dict, passes: int) -> None:
    print(f"## {src}\n")
    print(f"| operation | median of {passes} passes (reference-host ms) |")
    print("|---|---|")
    for key, seconds in result["timings"].items():
        print(f"| {key} | {1e3 * seconds:.3f} |")
    print()


if __name__ == "__main__":
    sys.exit(profile_pairs.main(__file__, __doc__, _profile, print_profile,
                                "survey workload seed",
                                counts={"passes": (20, "survey passes per worker")}))
