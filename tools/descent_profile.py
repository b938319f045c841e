"""Kernel calls, heap peak and in-process time of `optimize` for a `src/` tree.

    python tools/descent_profile.py SRC [--against SRC2] [--pairs 5] [--passes 20] [--seed 1]

SRC (and SRC2) is a directory that holds the `spinmux` package, such as this
checkout's `src` or the `src` of a `git archive` export.  Each tree is
measured in its own fresh worker process, which imports `spinmux` from a
copy of that tree only.

The worker times everything by `profile_pairs.time_passes`, perfbench's
reference rule (as `survey_profile.py` times the survey): a workload's
warm-up and then `--passes` passes of perfbench's own `run_pass`, each
operation timed just after perfbench's reference loop, divided by that
loop's time and given in seconds of the reference host, with the workload's
checks untimed after every pass (a failed operation or check stops the
script).  First the benchmark's synth workload (`perfbench/workloads.py` at
its full size: 6 seeded tasks, m = 200, 2 restarts x 20 iterations, tol 0):
the synth pass is perfbench's `host_wall` of its passes, the synth `wall_s`
in seconds of the reference host, and the median minor page faults per pass
(`getrusage` of the worker, checks and reference loops included) are
printed beside it.  The script also prints, per task, the stacked
`_objective` calls, the pulses they evaluated, the `_objective_gradient`
calls and the tracemalloc peak of the `optimize` call, and the
ensemble-scale table: 6, 12, 30 and 90 members (2 to 30 spins, hyperfine
triplet on), each one `optimize` of 2 restarts x 20 iterations, tol 0,
m = 200, as one operation of a workload passed `--passes` times, in
reference-host ms per restart-iteration and us per member.

With `--against`, each of the N pairs runs one worker per tree, alternating
which runs first, and the script also prints the median and quartiles of the
paired ratios SRC / SRC2 of the synth pass and of each table row; a ratio
below 1 means SRC is faster.  The staging of both trees at paths of equal
length, the workers, pairs and ratios are `profile_pairs.py`'s, shared with
`survey_profile.py`.

Needs only the standard library and numpy (and what the measured trees need).
"""

from __future__ import annotations

import statistics
import sys
import tracemalloc
from pathlib import Path

import profile_pairs

MEMBERS = (6, 12, 30, 90)
ITERS, RESTARTS, M = 20, 2, 200


def _profile(seed: int, passes: int) -> dict:
    """The worker's measurements; `spinmux` is already importable."""
    import spinmux as smx
    import spinmux.synthesis as synthesis
    from workloads import SIZES, Op, Workload, build, synth_tasks

    _, synth_wall, faults = profile_pairs.time_passes(
        lambda workdir: build("synth", seed, "full", workdir), passes)
    size = SIZES["full"]
    tasks = synth_tasks(seed, size["synth_tasks"], size["synth_iters"],
                        size["synth_restarts"])
    objective, objective_gradient = synthesis._objective, synthesis._objective_gradient
    counts = {}

    def counting_objective(ens, i_amps, *rest):
        counts["objective"] += 1
        counts["pulses"] += len(i_amps)
        return objective(ens, i_amps, *rest)

    def counting_gradient(*args):
        counts["gradient"] += 1
        return objective_gradient(*args)

    rows = []
    synthesis._objective, synthesis._objective_gradient = counting_objective, counting_gradient
    tracemalloc.start()
    try:
        for scenario, config in tasks:
            counts.update(objective=0, pulses=0, gradient=0)
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            smx.optimize(scenario, config)
            rows.append({**counts, "peak_mb": (tracemalloc.get_traced_memory()[1] - base) / 1e6})
    finally:
        tracemalloc.stop()
        synthesis._objective, synthesis._objective_gradient = objective, objective_gradient

    config = smx.OptimizerConfig(m=M, dt=10e-6 / M, lam=1e-9, tol=0.0, restarts=RESTARTS,
                                 max_iters=ITERS)

    def member_op(members):
        scenario = smx.ControlScenario(
            idle_detunings=tuple(0.45e6 * k for k in range(1, members // 3)))
        return Op(f"{members} members", "synthesis.optimize",
                  lambda _: smx.optimize(scenario, config), lambda *_: None)

    ensemble = Workload([member_op(members) for members in MEMBERS], lambda: None)
    timings, _, _ = profile_pairs.time_passes(lambda _: ensemble, passes)
    return {"tasks": rows, "faults_per_pass": faults, "timings": {"synth": synth_wall, **timings}}


def print_profile(src: Path, result: dict, passes: int) -> None:
    print(f"## {src}\n")
    print("| task | objective calls | pulses | gradients | tracemalloc peak (MB) |")
    print("|---|---|---|---|---|")
    tasks = result["tasks"]
    for k, row in enumerate(tasks):
        print(f"| {k} | {row['objective']} | {row['pulses']} | {row['gradient']} "
              f"| {row['peak_mb']:.2f} |")
    mean = {key: statistics.fmean(row[key] for row in tasks) for key in tasks[0]}
    print(f"| mean | {mean['objective']:.1f} | {mean['pulses']:.1f} | "
          f"{mean['gradient']:.1f} | {mean['peak_mb']:.2f} |\n")
    print(f"synth pass (6 tasks, perfbench `host_wall` of {passes} passes): "
          f"{result['timings']['synth']:.4f} reference-host s; minor page faults per "
          f"pass (median): {result['faults_per_pass']:.0f}\n")
    print("| members | ms per restart-iteration (reference host) | us per member |")
    print("|---|---|---|")
    for members in MEMBERS:
        per_iter = result["timings"][f"{members} members"] / (RESTARTS * ITERS)
        print(f"| {members} | {1e3 * per_iter:.2f} | {1e6 * per_iter / members:.0f} |")
    print()


def main(argv=None) -> int:
    return profile_pairs.main(__file__, __doc__, _profile, print_profile, "synth task seed",
                              counts={"passes": (20, "synth and ensemble passes per worker")}, argv=argv)


if __name__ == "__main__":
    sys.exit(main())
