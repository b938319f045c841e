"""Kernel calls, heap peak and in-process time of `optimize` for a `src/` tree.

    python tools/descent_profile.py SRC [--against SRC2] [--pairs 5] [--seed 1]

SRC (and SRC2) is a directory that holds the `spinmux` package, such as this
checkout's `src` or the `src` of a `git archive` export.  Each tree is
measured in its own fresh worker process, which imports `spinmux` from that
tree only.

For the benchmark's seeded synth tasks (`synth_tasks` of
`perfbench/workloads.py` at its full size: 6 tasks, m = 200, 2 restarts x 20
iterations, tol 0) the script prints, per task, the stacked `_objective`
calls, the pulses they evaluated, the `_objective_gradient` calls and the
tracemalloc peak of the `optimize` call.  It then prints the ensemble-scale
table: 6, 12, 30 and 90 members (2 to 30 spins, hyperfine triplet on), each
one `optimize` of 2 restarts x 20 iterations, tol 0, m = 200, as the best of
3 calls in ms per restart-iteration and us per member.

With `--against`, each of the N pairs runs one worker per tree, alternating
which runs first, and the script also prints the median and quartiles of the
paired ratios SRC / SRC2 of the synth pass (the 6 tasks, best of 3) and of
each table row; a ratio below 1 means SRC is faster.

Needs only the standard library and numpy (and what the measured trees need).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
MEMBERS = (6, 12, 30, 90)
ITERS, RESTARTS, M = 20, 2, 200
REPEATS = 3


def _profile(seed: int) -> dict:
    """The worker's measurements; `spinmux` is already importable."""
    import spinmux as smx
    import spinmux.synthesis as synthesis
    from perfbench.workloads import SIZES, synth_tasks

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

    smx.optimize(*tasks[0])     # warm-up, untimed and uncounted
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

    def best_time(call) -> float:
        times = []
        for _ in range(REPEATS):
            started = time.perf_counter()
            call()
            times.append(time.perf_counter() - started)
        return min(times)

    timings = {"synth": best_time(lambda: [smx.optimize(s, c) for s, c in tasks])}
    config = smx.OptimizerConfig(m=M, dt=10e-6 / M, lam=1e-9, tol=0.0, restarts=RESTARTS,
                                 max_iters=ITERS)
    for members in MEMBERS:
        spectators = members // 3 - 1
        scenario = smx.ControlScenario(
            idle_detunings=tuple(0.45e6 * k for k in range(1, spectators + 1)))
        timings[f"{members} members"] = best_time(lambda: smx.optimize(scenario, config))
    return {"tasks": rows, "timings": timings}


def run_worker(src: Path, seed: int) -> dict:
    proc = subprocess.run([sys.executable, __file__, str(src), "--seed", str(seed),
                           "--worker"], capture_output=True, text=True, cwd=REPO)
    if proc.returncode:
        raise SystemExit(f"worker for {src} failed:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def print_profile(src: Path, result: dict) -> None:
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
    print(f"synth pass (6 tasks, best of {REPEATS}): {result['timings']['synth']:.4f} s\n")
    print("| members | ms per restart-iteration | us per member |")
    print("|---|---|---|")
    for members in MEMBERS:
        per_iter = result["timings"][f"{members} members"] / (RESTARTS * ITERS)
        print(f"| {members} | {1e3 * per_iter:.2f} | {1e6 * per_iter / members:.0f} |")
    print()


def print_ratios(src: Path, against: Path, pairs: list) -> None:
    print(f"## paired ratios {src} / {against}, {len(pairs)} alternated pairs\n")
    print("| timing | median | q1 | q3 |")
    print("|---|---|---|---|")
    for key in pairs[0][0]["timings"]:
        ratios = [mine["timings"][key] / theirs["timings"][key] for mine, theirs in pairs]
        if len(ratios) > 1:
            q1, median, q3 = statistics.quantiles(ratios, n=4, method="inclusive")
        else:
            q1 = median = q3 = ratios[0]
        print(f"| {key} | {median:.3f} | {q1:.3f} | {q3:.3f} |")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", type=Path, help="directory holding the spinmux package")
    parser.add_argument("--against", type=Path, default=None,
                        help="a second such directory to pair against")
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--seed", type=int, default=1, help="synth task seed")
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    src = args.src.resolve()
    if args.worker:
        sys.path[:0] = [str(src), str(REPO)]
        print(json.dumps(_profile(args.seed)))
        return 0
    if args.against is None:
        print_profile(src, run_worker(src, args.seed))
        return 0
    against = args.against.resolve()
    pairs = []
    for n in range(args.pairs):
        order = (src, against) if n % 2 == 0 else (against, src)
        result = {tree: run_worker(tree, args.seed) for tree in order}
        pairs.append((result[src], result[against]))
        print(f"pair {n + 1}/{args.pairs} done", file=sys.stderr, flush=True)
    print_profile(src, pairs[0][0])
    print_profile(against, pairs[0][1])
    print_ratios(src, against, pairs)
    return 0


if __name__ == "__main__":
    sys.exit(main())
