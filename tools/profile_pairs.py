"""The shared driver of the per-tree profile tools, `descent_profile.py` and
`survey_profile.py`.

A tool hands `main` its own measurement (`profile`, run inside a fresh worker
process that imports `spinmux` from one `src/` tree only) and its printout
(`print_profile`).  `main` parses the common command line

    SRC [--against SRC2] [--pairs N] [--seed S] [the tool's own counts]

runs one worker for SRC, or with `--against` N alternated pairs of workers,
one per tree, and prints each tree's profile and then the median and
quartiles of the paired ratios SRC / SRC2 of every entry of the result's
"timings"; a ratio below 1 means SRC is faster.

Needs only the standard library.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]


def print_ratios(src: Path, against: Path, pairs: list) -> None:
    """Median [q1, q3] of mine / theirs per timing over (mine, theirs) results."""
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
    src = args.src.resolve()
    if args.worker:
        sys.path[:0] = [str(src), str(REPO), str(REPO / "perfbench")]
        print(json.dumps(profile(args.seed, **settings)))
        return 0

    def run_worker(tree: Path) -> dict:
        flags = [f"--{name}={value}" for name, value in settings.items()]
        proc = subprocess.run([sys.executable, script, str(tree), f"--seed={args.seed}",
                               *flags, "--worker"], capture_output=True, text=True, cwd=REPO)
        if proc.returncode:
            raise SystemExit(f"worker for {tree} failed:\n{proc.stderr.strip()}")
        return json.loads(proc.stdout.strip().splitlines()[-1])

    if args.against is None:
        print_profile(src, run_worker(src), **settings)
        return 0
    against = args.against.resolve()
    pairs = []
    for n in range(args.pairs):
        order = (src, against) if n % 2 == 0 else (against, src)
        result = {tree: run_worker(tree) for tree in order}
        pairs.append((result[src], result[against]))
        print(f"pair {n + 1}/{args.pairs} done", file=sys.stderr, flush=True)
    print_profile(src, pairs[0][0], **settings)
    print_profile(against, pairs[0][1], **settings)
    print_ratios(src, against, pairs)
    return 0
