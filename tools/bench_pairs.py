"""Paired benchmark of a parent revision against a change, written to BENCH_<pr>.json.

    python tools/bench_pairs.py --pr 7 --parent HEAD [--change REV] [--pairs 10]
        [--seed0 7000] [--seconds 30] [--workload survey ...] [--out BENCH_7.json]

The parent (and the change, when `--change` names a revision) is exported
with `git archive` into a temporary directory; without `--change` the change
is a copy, beside it, of this checkout's tracked files with their uncommitted
contents, so that neither side runs among untracked or ignored files such as
`.perfbench/`.  For each workload and each of N pairs,
`perfbench/run.py --trace 0` runs once on each tree with the same fresh seed
(seed0, seed0 + 1, ...; the workloads use disjoint seed ranges), and the
side that runs first alternates from pair to pair.  Runs go one at a time.

The JSON file holds, per workload and end-to-end metric of BENCHMARK.json:
the median, q1 and q3 of each side (quartiles by the inclusive method of
`statistics.quantiles`), the pairs the change won, the relative change of
the medians and the metric's bound; per workload the failed and attempted
operation counts of each side; the environment block perfbench prints; the
`src/` line count of each tree; and every run's values.  A markdown table
of the same numbers goes to stdout.  Its exporter, side names and quartile
rule serve `compare_outputs.py` and `profile_pairs.py` too.

Needs only the standard library; the measured trees need what perfbench needs.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")
# Seeds of workload k start at seed0 + k * SEED_STRIDE.
SEED_STRIDE = 100


def git(*args, repo: Path = REPO) -> str:
    proc = subprocess.run(["git", "-C", str(repo), *args], capture_output=True,
                          text=True, check=True)
    return proc.stdout.strip()


def export(rev: str, dest: Path) -> Path:
    """The tree of `rev` under dest, from `git archive`."""
    archive = dest.with_suffix(".tar")
    git("archive", "--format=tar", "-o", str(archive), rev)
    dest.mkdir()
    with tarfile.open(archive) as tar:
        tar.extractall(dest, filter="data")
    archive.unlink()
    return dest


def copy_worktree(repo: Path, dest: Path) -> Path:
    """The tracked files of `repo`'s working tree, as they are on disk, under
    dest.  A tracked file deleted from the working tree is skipped."""
    for name in git("ls-files", "-z", repo=repo).split("\0"):
        source = repo / name
        if name and source.exists():
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, dest / name)
    return dest


def src_lines(tree: Path) -> int:
    return sum(len(p.read_bytes().splitlines()) for p in (tree / "src").rglob("*.py"))


def run_once(tree: Path, workload: str, seed: int, seconds: int) -> dict:
    """One untraced perfbench run; its JSON result plus the env block."""
    cmd = [sys.executable, str(tree / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    started = time.monotonic()
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        return {"error": f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}"}
    result = json.loads(lines[-1])
    env = next((json.loads(line[5:]) for line in lines if line.startswith("env: ")), {})
    result["env"] = env
    result["elapsed_s"] = round(time.monotonic() - started, 1)
    return result


def quartiles(values) -> dict:
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(runs, spec) -> dict:
    """Per-metric statistics over the pairs in which both sides ran."""
    pairs = [r for r in runs if all("error" not in r[s] for s in SIDES)]
    out = {"pairs_run": len(pairs), "pairs_errored": len(runs) - len(pairs)}
    for side in SIDES:
        out[f"{side}_attempted"] = sum(r[side]["attempted"] for r in pairs)
        out[f"{side}_failed"] = sum(r[side]["failed"] for r in pairs)
    metrics = out["metrics"] = {}
    for m in spec["end_to_end"] if pairs else ():
        name, lower = m["name"], m["better"] == "lower"
        values = {s: [r[s]["metrics"][name]["value"] for r in pairs] for s in SIDES}
        stats = {s: quartiles(values[s]) for s in SIDES}
        won = sum((c < p) if lower else (c > p)
                  for p, c in zip(values["parent"], values["change"]))
        parent, change = stats["parent"], stats["change"]
        metrics[name] = {
            "unit": pairs[0]["change"]["metrics"][name]["unit"], "better": m["better"],
            "bound": m["bound"], "parent": parent, "change": change,
            "change_better_pairs": won,
            "median_change_frac":
                (change["median"] - parent["median"]) / parent["median"],
            "gain_exceeds_parent_iqr": (
                (parent["median"] - change["median"]) if lower
                else (change["median"] - parent["median"])) > parent["q3"] - parent["q1"],
        }
    return out


def table(bench: dict) -> str:
    rows = ["| workload | metric | parent | change | change better |",
            "|---|---|---|---|---|"]
    for workload, w in bench["workloads"].items():
        for name, m in w["metrics"].items():
            p, c = m["parent"], m["change"]
            rows.append(f"| {workload} | `{name}` | {p['median']:.4g} [{p['q1']:.4g}, "
                        f"{p['q3']:.4g}] | {c['median']:.4g} [{c['q1']:.4g}, "
                        f"{c['q3']:.4g}] | {m['change_better_pairs']}/{w['pairs_run']}, "
                        f"{100 * m['median_change_frac']:+.1f}% |")
    return "\n".join(rows)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pr", required=True, help="label of the output file")
    parser.add_argument("--parent", default="HEAD", help="git revision (default HEAD)")
    parser.add_argument("--change", default=None,
                        help="git revision; default: this checkout's tracked files as on disk")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed0", type=int, default=7000)
    parser.add_argument("--seconds", type=int, default=None,
                        help="seconds per run; default run_seconds of BENCHMARK.json")
    parser.add_argument("--workload", action="append", default=None,
                        help="repeatable; default every workload of BENCHMARK.json")
    parser.add_argument("--out", type=Path, default=None,
                        help="default BENCH_<pr>.json at the repository root")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")

    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    workloads = args.workload or names
    unknown = sorted(set(workloads) - set(names))
    if unknown:
        parser.error(f"unknown workload(s) {unknown}; choose from {names}")
    seconds = args.seconds or spec["run_seconds"]
    out = args.out or REPO / f"BENCH_{args.pr}.json"

    with tempfile.TemporaryDirectory() as tmp:
        trees = {"parent": export(args.parent, Path(tmp) / "parent"),
                 "change": (export(args.change, Path(tmp) / "change") if args.change
                            else copy_worktree(REPO, Path(tmp) / "change"))}
        bench = {
            "pr": args.pr,
            "source": "tools/bench_pairs.py",
            "parent": git("rev-parse", args.parent),
            "change": git("rev-parse", args.change) if args.change else "working tree",
            "command": f"perfbench/run.py --seconds {seconds} --trace 0",
            "pairs": args.pairs, "seed0": args.seed0, "seed_stride": SEED_STRIDE,
            "src_lines": {s: src_lines(trees[s]) for s in SIDES},
            "environment": None,
            "workloads": {},
        }
        for k, workload in enumerate(workloads):
            runs = []
            for n in range(args.pairs):
                seed = args.seed0 + k * SEED_STRIDE + n
                order = SIDES if n % 2 == 0 else SIDES[::-1]
                run = {"seed": seed, "first": order[0]}
                for side in order:
                    run[side] = run_once(trees[side], workload, seed, seconds)
                    print(f"{workload} seed {seed} {side}: "
                          f"{run[side].get('metrics', run[side].get('error'))}",
                          file=sys.stderr, flush=True)
                env = run["change"].get("env")
                if env and bench["environment"] is None:
                    bench["environment"] = {
                        key: v for key, v in env.items()
                        if key not in ("seed", "git_sha", "src_lines")}
                for side in SIDES:
                    run[side].pop("env", None)
                runs.append(run)
            bench["workloads"][workload] = {**summarize(runs, spec), "runs": runs}
            out.write_text(json.dumps(bench, indent=1) + "\n")

    print(table(bench))
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
