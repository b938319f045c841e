"""Median in-process time of each survey operation for a `src/` tree.

    python tools/survey_profile.py SRC [--against SRC2] [--pairs 5] [--passes 20] [--seed 1]

SRC (and SRC2) is a directory that holds the `spinmux` package, such as this
checkout's `src` or the `src` of a `git archive` export.  Each tree is
measured in its own fresh worker process, which imports `spinmux` from a
copy of that tree only.

The worker builds the benchmark's survey workload (`perfbench/workloads.py`
at its full size, in a temporary directory) and times it by
`profile_pairs.time_passes`, perfbench's reference rule: its warm-up, then
`--passes` passes of perfbench's own `run_pass`, each operation timed just
after perfbench's reference loop and the workload's checks run untimed after
every pass; a failed operation or check stops the script.  Each operation's
time is divided by the reference loop's and given in seconds of the reference
host, as perfbench does for `wall_s`, so that the host's speed drifting
between workers cancels.  For each operation (calibration, the 8 address
maps, Rabi, Ramsey, ODMR, the two crosstalk maps, and the write, read, cost
and sweep of each of the three pulses) the script prints the median over the
passes, then their sum, which is the pass's `wall_s`, and the median minor
page faults per pass (`getrusage` of the worker).

With `--against`, each of the N pairs runs one worker per tree, alternating
which runs first, and the script also prints the median and quartiles of the
paired ratios SRC / SRC2 of every operation and of `wall_s`; a ratio below 1
means SRC is faster.  The staging of both trees at paths of equal length,
the workers, pairs and ratios are `profile_pairs.py`'s, shared with
`descent_profile.py`.

Needs only the standard library and numpy (and what the measured trees need).
"""

from __future__ import annotations

import sys
from pathlib import Path

import profile_pairs


def _profile(seed: int, passes: int) -> dict:
    """The medians in reference-host seconds by operation key, then wall_s."""
    from workloads import build

    timings, wall, faults = profile_pairs.time_passes(
        lambda workdir: build("survey", seed, "full", workdir), passes)
    return {"timings": {**timings, "wall_s": wall}, "faults_per_pass": faults}


def print_profile(src: Path, result: dict, passes: int) -> None:
    print(f"## {src}\n")
    print(f"| operation | median of {passes} passes (reference-host ms) |")
    print("|---|---|")
    for key, seconds in result["timings"].items():
        print(f"| {key} | {1e3 * seconds:.3f} |")
    print(f"\nminor page faults per pass (median): {result['faults_per_pass']:.0f}\n")


if __name__ == "__main__":
    sys.exit(profile_pairs.main(__file__, __doc__, _profile, print_profile,
                                "survey workload seed",
                                counts={"passes": (20, "survey passes per worker")}))
