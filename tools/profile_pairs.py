"""The shared driver of the per-tree profile tools, `descent_profile.py` and
`survey_profile.py`.

A tool hands `main` its own measurement (`profile`, run inside a fresh worker
process that imports `spinmux` from a copy of one `src/` tree only) and its
printout (`print_profile`).  `main` parses the common command line

    SRC [--against SRC2] [--pairs N] [--seed S] [the tool's own counts]

Before any worker starts it copies SRC to `<tmp>/change/src` and SRC2 to
`<tmp>/parent/src`, the sides of `bench_pairs.py`, so both trees sit at paths
of equal length (the path alone moves a tree's timings).  It runs one worker
for SRC, or with `--against` N alternated pairs of workers, one per tree, and
prints each tree's profile, labelled with the path given, and then the
median and quartiles (`bench_pairs.quartiles`) of the paired ratios
SRC / SRC2 of every entry of the result's "timings"; a ratio below 1 means
SRC is faster.  Every timed entry is measured by `time_passes`, perfbench's
reference rule.

Needs only the standard library.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_pairs import SIDES, quartiles

REPO = Path(__file__).resolve().parents[1]


def time_passes(build, passes: int):
    """Warm up the perfbench `Workload` that `build(workdir)` returns, then
    run `passes` passes of perfbench's `run_pass`, stopping at any failed
    operation.  Returns each operation's median of its time over the
    reference loop's, times `REFERENCE_S`, by key; perfbench's `host_wall`
    of the passes; and the median minor page faults per pass."""
    from tracing import Tracer
    from worker import REFERENCE_S, host_wall, run_pass

    runs, faults = [], []
    with tempfile.TemporaryDirectory() as workdir:
        workload = build(workdir)
        workload.warm_up()
        for _ in range(passes):
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            timings, failed = run_pass(workload, Tracer(False), 0)
            faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
            if failed:
                raise SystemExit(f"{failed} operations failed")
            runs.append(timings)
    medians = {op.key: REFERENCE_S * statistics.median(t / ref for t, ref in column)
               for op, column in zip(workload.ops, zip(*runs))}
    return medians, host_wall(runs), statistics.median(faults)


def print_ratios(src: Path, against: Path, pairs: list) -> None:
    """Median [q1, q3] of mine / theirs per timing over (mine, theirs) results."""
    print(f"## paired ratios {src} / {against}, {len(pairs)} alternated pairs\n")
    print("| timing | median | q1 | q3 |")
    print("|---|---|---|---|")
    for key in pairs[0][0]["timings"]:
        stats = quartiles([mine["timings"][key] / theirs["timings"][key]
                           for mine, theirs in pairs])
        print(f"| {key} | {stats['median']:.3f} | {stats['q1']:.3f} | {stats['q3']:.3f} |")


def main(script: str, doc: str, profile, print_profile, seed_help: str, counts=None,
         argv=None) -> int:
    """The command line of `script`.  `profile(seed, **counts)` returns a JSON
    result holding "timings"; `print_profile(src, result, **counts)` prints it.
    `counts` maps the name of each further option, a count of at least 1, to
    its (default, help)."""
    counts = counts or {}
    parser = argparse.ArgumentParser(description=doc.splitlines()[0])
    parser.add_argument("src", type=Path, help="directory holding the spinmux package")
    parser.add_argument("--against", type=Path, default=None,
                        help="a second such directory to pair against")
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--seed", type=int, default=1, help=seed_help)
    for name, (default, text) in counts.items():
        parser.add_argument(f"--{name}", type=int, default=default, help=text)
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    settings = {name: getattr(args, name) for name in counts}
    if min([args.pairs, *settings.values()]) < 1:
        parser.error(f"{', '.join(f'--{n}' for n in ('pairs', *counts))} must be >= 1")
    given = {side: path for side, path in (("change", args.src), ("parent", args.against))
             if path is not None}
    for path in given.values():
        if not (path / "spinmux" / "__init__.py").is_file():
            parser.error(f"no spinmux package under {path}")
    if args.worker:
        sys.path[:0] = [str(args.src.resolve()), str(REPO), str(REPO / "perfbench")]
        print(json.dumps(profile(args.seed, **settings)))
        return 0

    def run_worker(tree: Path) -> dict:
        flags = [f"--{name}={value}" for name, value in settings.items()]
        proc = subprocess.run([sys.executable, script, str(tree), f"--seed={args.seed}",
                               *flags, "--worker"], capture_output=True, text=True, cwd=REPO)
        if proc.returncode:
            raise SystemExit(f"worker for {tree} failed:\n{proc.stderr.strip()}")
        return json.loads(proc.stdout.strip().splitlines()[-1])

    with tempfile.TemporaryDirectory() as tmp:
        trees = {side: shutil.copytree(path, Path(tmp) / side / "src",
                                       ignore=shutil.ignore_patterns("__pycache__"))
                 for side, path in given.items()}
        if args.against is None:
            print_profile(args.src, run_worker(trees["change"]), **settings)
            return 0
        pairs = []
        for n in range(args.pairs):
            order = SIDES[::-1] if n % 2 == 0 else SIDES
            result = {side: run_worker(trees[side]) for side in order}
            pairs.append((result["change"], result["parent"]))
            print(f"pair {n + 1}/{args.pairs} done", file=sys.stderr, flush=True)
    print_profile(args.src, pairs[0][0], **settings)
    print_profile(args.against, pairs[0][1], **settings)
    print_ratios(args.src, args.against, pairs)
    return 0
