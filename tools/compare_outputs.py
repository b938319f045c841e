"""Run the README's eight CLI commands and compare their outputs between trees.

    python tools/compare_outputs.py run SRC OUTDIR [--pulse PULSE_CSV]
    python tools/compare_outputs.py run --rev REV OUTDIR [--pulse PULSE_CSV]
    python tools/compare_outputs.py diff OUTDIR_A OUTDIR_B [--tol TOL] [--rtol RTOL]

`run` executes address-map, simulate rabi/ramsey/odmr, crosstalk-map,
optimize, simulate pulse and sweep exactly as the README quick start does,
each as a fresh `python -m spinmux` process importing the package from SRC
(a `src/` directory) and reading the demo configs bundled there.  It also
runs one optimize that misses its tolerance (the close pair with 20 steps
over 0.3 us and 3 restarts, about 1 s, exit 4), so that every restart runs
and the choice of the best one is compared too (`pulse_missed.csv`,
`trace_missed.jsonl`, exit code under "optimize missed").  It then
runs `demo_configs()` of the `tools/regen_demo_configs.py` beside SRC and
writes each config's calibrated wire anchor, DC current and carrier to
`calibration.jsonl`, so a change in `calibrate_wire`, which no README
command runs, shows too.  With `--rev`, SRC is that git revision's `src/`
(and its `tools/regen_demo_configs.py`), the revision exported whole by
`bench_pairs.export` into a temporary directory that is removed afterwards;
an unknown revision exits 2.  Outputs and the exit codes (`exit_codes.json`)
land in OUTDIR.  With `--pulse`, `simulate pulse` and `sweep` read that
pulse file instead of the one `optimize` wrote, so two trees can be compared
on identical inputs.  A revision against the working tree is then three
commands:

    python tools/compare_outputs.py run --rev HEAD~1 A
    python tools/compare_outputs.py run src B --pulse A/pulse.csv
    python tools/compare_outputs.py diff A B --tol 1e-14 --rtol 1e-14

`diff` prints, per file and column, the maximum absolute difference between
the two directories: CSV columns by header name, trace JSON-lines fields by
key (list entries as key[k]), with the largest relative difference beside
it.  Text columns must match exactly.  With `--tol` and/or `--rtol`, a cell
passes when |a - b| <= tol + rtol * max(|a|, |b|), a column with a failing
cell ends its line with FAIL, the last line names every failing file and
column ("all within tolerance" when there is none), and the exit status is 1
when any cell fails, a file or column is missing on one side, row counts
differ, or the exit codes differ.

Needs only the standard library and numpy.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from bench_pairs import export


def readme_commands(data: Path, out: Path, pulse: Path):
    """The README commands, with the missed-tolerance optimize after the README one."""
    cfg, pair = str(data / "demo_register.json"), str(data / "demo_close_pair.json")
    return [
        ["address-map", "--config", cfg, "--idc-ma", "150",
         "--out", str(out / "addresses.csv")],
        ["simulate", "rabi", "--config", cfg, "--rabi-mhz", "7.5", "--t-max-ns", "300",
         "--out", str(out / "rabi.csv")],
        ["simulate", "ramsey", "--config", cfg, "--delta-mhz", "3", "--tau-max-us", "8",
         "--out", str(out / "ramsey.csv")],
        ["simulate", "odmr", "--config", cfg, "--f-min-ghz", "2.99", "--f-max-ghz", "3.01",
         "--out", str(out / "odmr.csv")],
        ["crosstalk-map", "--config", cfg, "--idc-ma", "0", "--idc-ma", "150",
         "--target-u-um", "1.5", "--rabi-mhz", "10", "--u-min-um", "-4",
         "--u-max-um", "4", "--nu", "65", "--out-prefix", str(out / "xtalk")],
        ["optimize", "--config", pair, "--target-site", "nv-b", "--idle-site", "nv-c",
         "--lambda", "1e-9", "--steps", "200", "--duration", "10e-6", "--seed", "0",
         "--restarts", "5", "--out-pulse", str(out / "pulse.csv"),
         "--out-trace", str(out / "trace.jsonl")],
        ["optimize", "--config", pair, "--target-site", "nv-b", "--idle-site", "nv-c",
         "--steps", "20", "--duration", "0.3e-6", "--restarts", "3",
         "--out-pulse", str(out / "pulse_missed.csv"),
         "--out-trace", str(out / "trace_missed.jsonl")],
        ["simulate", "pulse", "--config", pair, "--pulse", str(pulse),
         "--out", str(out / "eps.csv")],
        ["sweep", "--config", pair, "--pulse", str(pulse), "--target-site", "nv-b",
         "--idle-site", "nv-c", "--delta-range=-0.2:0.2:21", "--amp-range", "0.9:1.1:5",
         "--out", str(out / "sweep.csv")],
    ]


# Writes the calibrated quantities of the demo configs as JSON lines; argv is
# the tools directory and the output file, and spinmux comes from PYTHONPATH.
CALIBRATION = """\
import json, sys
sys.path.insert(0, sys.argv[1])
from regen_demo_configs import demo_configs
with open(sys.argv[2], "w") as fh:
    for name, doc in demo_configs().items():
        fh.write(json.dumps({"config": name,
                             "anchor_um": doc["environment"]["wire"]["anchor_um"],
                             "i_dc_ma": doc["drive"]["i_dc_ma"],
                             "carrier_ghz": doc["drive"]["carrier_ghz"]}) + "\\n")
"""


def run(src: Path, out: Path, pulse: Path | None) -> int:
    src = src.resolve()
    if not (src / "spinmux" / "__init__.py").is_file():
        print(f"error: no spinmux package under {src}", file=sys.stderr)
        return 2
    out.mkdir(parents=True, exist_ok=True)
    out = out.resolve()
    if pulse is not None:
        given = out / "given_pulse.csv"
        shutil.copyfile(pulse, given)
        pulse = given
    env = dict(os.environ, PYTHONPATH=str(src))
    codes = {}
    for argv in readme_commands(src / "spinmux" / "data", out, pulse or out / "pulse.csv"):
        name = " ".join(argv[:2]) if argv[0] == "simulate" else argv[0]
        if name in codes:
            name += " missed"
        proc = subprocess.run([sys.executable, "-m", "spinmux", *argv], env=env,
                              capture_output=True, text=True)
        codes[name] = proc.returncode
        print(f"{name}: exit {proc.returncode}")
        if proc.stderr.strip():
            print("  " + proc.stderr.strip().replace("\n", "\n  "))
    tools = src.parent / "tools"
    if (tools / "regen_demo_configs.py").is_file():
        proc = subprocess.run([sys.executable, "-c", CALIBRATION, str(tools),
                               str(out / "calibration.jsonl")], env=env,
                              capture_output=True, text=True)
        codes["calibration"] = proc.returncode
        print(f"calibration: exit {proc.returncode}")
        if proc.stderr.strip():
            print("  " + proc.stderr.strip().replace("\n", "\n  "))
    else:
        print(f"calibration: skipped, no {tools / 'regen_demo_configs.py'}")
    (out / "exit_codes.json").write_text(json.dumps(codes, indent=1) + "\n")
    return 0


def run_rev(rev: str, out: Path, pulse: Path | None) -> int:
    """`run` on the `src/` of git revision `rev` of this repository."""
    with tempfile.TemporaryDirectory() as tmp:
        try:
            tree = export(rev, Path(tmp) / "tree")
        except subprocess.CalledProcessError as exc:
            print(f"error: git archive {rev}: {exc.stderr.strip()}", file=sys.stderr)
            return 2
        return run(tree / "src", out, pulse)


def _columns(path: Path) -> tuple[dict, int]:
    """{column: list of cells} and the row count of a CSV or JSON-lines file."""
    lines = path.read_text().splitlines()
    cols: dict[str, list] = {}
    if path.suffix == ".jsonl":
        for row in map(json.loads, lines):
            for key, value in row.items():
                values = value if isinstance(value, list) else [value]
                for k, v in enumerate(values):
                    name = f"{key}[{k}]" if isinstance(value, list) else key
                    cols.setdefault(name, []).append(v)
        return cols, len(lines)
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    for k, name in enumerate(header):
        cols[name] = [row[k] for row in rows]
    return cols, len(rows)


def _differences(a: list, b: list) -> tuple[np.ndarray, np.ndarray]:
    """Per-cell |a - b| and max(|a|, |b|); text cells differ by inf."""
    try:
        x = np.array(a, dtype=float)
        y = np.array(b, dtype=float)
    except ValueError:
        same = np.array([p == q for p, q in zip(a, b)])
        return np.where(same, 0.0, np.inf), np.ones(len(a))
    same = (x == y) | (np.isnan(x) & np.isnan(y))
    with np.errstate(invalid="ignore"):
        return np.where(same, 0.0, np.abs(x - y)), np.maximum(np.abs(x), np.abs(y))


def diff(dir_a: Path, dir_b: Path, tol: float | None, rtol: float | None) -> int:
    gated, failed = tol is not None or rtol is not None, []
    names = sorted({p.name for d in (dir_a, dir_b) for p in d.iterdir()
                    if p.suffix in (".csv", ".jsonl") and p.name != "given_pulse.csv"})
    for name in names:
        pa, pb = dir_a / name, dir_b / name
        if not (pa.is_file() and pb.is_file()):
            print(f"{name}: only in {dir_a if pa.is_file() else dir_b}")
            failed.append(name)
            continue
        if pa.read_bytes() == pb.read_bytes():
            print(f"{name}: byte-identical")
            continue
        cols_a, rows_a = _columns(pa)
        cols_b, rows_b = _columns(pb)
        if rows_a != rows_b:
            print(f"{name}: {rows_a} rows against {rows_b}")
            failed.append(name)
            continue
        for col in list(cols_a) + [c for c in cols_b if c not in cols_a]:
            if col not in cols_a or col not in cols_b:
                print(f"{name} {col}: missing on one side")
                failed.append(f"{name} {col}")
                continue
            delta, size = _differences(cols_a[col], cols_b[col])
            with np.errstate(invalid="ignore", divide="ignore"):
                rel = np.where(delta > 0.0, delta / size, 0.0)
            with np.errstate(invalid="ignore"):     # rtol 0 times an infinite cell
                passed = (delta == 0.0) | (delta <= (tol or 0.0) + (rtol or 0.0) * size)
            fail = not np.all(passed)
            print(f"{name} {col}: max abs diff {np.max(delta, initial=0.0):.3g}, "
                  f"max rel diff {np.max(rel, initial=0.0):.3g}"
                  + (" FAIL" if fail and gated else ""))
            if fail:
                failed.append(f"{name} {col}")
    codes = [json.loads((d / "exit_codes.json").read_text())
             if (d / "exit_codes.json").is_file() else None for d in (dir_a, dir_b)]
    if codes[0] != codes[1]:
        print(f"exit codes differ: {codes[0]} against {codes[1]}")
        failed.append("exit codes")
    if not gated:
        return 0
    print(f"not within tolerance: {', '.join(failed)}" if failed else "all within tolerance")
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("run", help="run the README commands into a directory")
    p.add_argument("src", type=Path, nargs="?", default=None,
                   help="the src/ directory holding spinmux")
    p.add_argument("out", type=Path)
    p.add_argument("--rev", default=None,
                   help="use this git revision's src/ instead of SRC")
    p.add_argument("--pulse", type=Path, default=None,
                   help="pulse CSV for simulate pulse and sweep")
    p = sub.add_parser("diff", help="max abs difference per file and column")
    p.add_argument("dir_a", type=Path)
    p.add_argument("dir_b", type=Path)
    p.add_argument("--tol", type=float, default=None, help="absolute tolerance")
    p.add_argument("--rtol", type=float, default=None, help="relative tolerance")
    args = parser.parse_args(argv)
    if args.command == "run":
        if (args.src is None) == (args.rev is None):
            parser.error("run needs exactly one of SRC and --rev")
        if args.rev is not None:
            return run_rev(args.rev, args.out, args.pulse)
        return run(args.src, args.out, args.pulse)
    return diff(args.dir_a, args.dir_b, args.tol, args.rtol)


if __name__ == "__main__":
    sys.exit(main())
