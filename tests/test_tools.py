"""The two tools that gate a change, imported by path: `compare_outputs.py`
(CLI outputs of two trees, and its export of a revision) and `bench_pairs.py`
(paired benchmark statistics, and the copy of the working tree it measures);
the harness of `profile_pairs.py`, which both profile tools share (its
staging of the two trees, its pass timing and its paired ratios); the
command line of `descent_profile.py`; and every tool's `--help` in a fresh
process.  Nothing here runs the CLI, a profile worker or a benchmark."""

import importlib.util
import json
import math
import os
import re
import shlex
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOLS = ROOT / "tools"
sys.path.insert(0, str(TOOLS))      # the tools import each other by name


def load_tool(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


compare_outputs = load_tool("compare_outputs")
bench_pairs = load_tool("bench_pairs")
profile_pairs = load_tool("profile_pairs")


def write_outputs(out):
    """A small output directory as `compare_outputs.py run` writes one."""
    out.mkdir()
    rows = [(k * 0.5, math.sin(k) ** 2) for k in range(6)]
    (out / "rabi.csv").write_text(
        "t_ns,p1\n" + "".join(f"{t:.17g},{p:.17g}\n" for t, p in rows))
    (out / "addresses.csv").write_text("site,u_um,f_ghz\nnv-a,0,3.0000000000000004\n")
    (out / "trace.jsonl").write_text(
        json.dumps({"iter": 0, "f": 1.25, "eps_j": [0.5, 0.25]}) + "\n"
        + json.dumps({"iter": 1, "f": 0.75, "eps_j": [0.125, 1.0 / 3.0]}) + "\n")
    (out / "exit_codes.json").write_text(json.dumps({"optimize": 0, "sweep": 0}))
    return out


def diff(a, b, *tolerances):
    return compare_outputs.main(["diff", str(a), str(b), *tolerances])


EXACT = ("--tol", "0", "--rtol", "0")


class TestCompareOutputsDiff:
    def test_a_directory_matches_itself_exactly(self, tmp_path, capsys):
        a = write_outputs(tmp_path / "a")
        assert diff(a, a, *EXACT) == 0
        out = capsys.readouterr().out
        assert out.count("byte-identical") == 3 and "exit codes differ" not in out

    @pytest.mark.parametrize("name", ["rabi.csv", "trace.jsonl"])
    def test_one_ulp_fails_exactly_and_passes_a_relative_tolerance(self, tmp_path, name):
        a = write_outputs(tmp_path / "a")
        b = tmp_path / "b"
        shutil.copytree(a, b)
        if name == "rabi.csv":
            lines = (b / name).read_text().splitlines()
            t, p = lines[3].split(",")
            lines[3] = f"{t},{math.nextafter(float(p), math.inf):.17g}"
        else:
            lines = [json.loads(line) for line in (b / name).read_text().splitlines()]
            lines[1]["eps_j"][1] = math.nextafter(lines[1]["eps_j"][1], 0.0)
            lines = [json.dumps(row) for row in lines]
        (b / name).write_text("\n".join(lines) + "\n")
        assert (a / name).read_bytes() != (b / name).read_bytes()
        assert diff(a, b, *EXACT) == 1
        assert diff(a, b, "--rtol", "1e-15") == 0
        assert diff(a, b) == 0      # with no tolerance the diff only reports

    def test_differing_exit_codes_fail(self, tmp_path, capsys):
        a = write_outputs(tmp_path / "a")
        b = tmp_path / "b"
        shutil.copytree(a, b)
        (b / "exit_codes.json").write_text(json.dumps({"optimize": 4, "sweep": 0}))
        assert diff(a, b, *EXACT) == 1
        assert "exit codes differ" in capsys.readouterr().out

    def test_a_missing_file_fails(self, tmp_path, capsys):
        a = write_outputs(tmp_path / "a")
        b = tmp_path / "b"
        shutil.copytree(a, b)
        (b / "addresses.csv").unlink()
        assert diff(a, b, *EXACT) == 1
        assert f"addresses.csv: only in {a}" in capsys.readouterr().out

    def test_an_equal_infinite_cell_passes_a_tolerance(self, tmp_path, capsys):
        # a crosstalk map's bound is inf on the target; rtol 0 times inf made
        # an equal cell fail, and numpy warn
        a, b = tmp_path / "a", tmp_path / "b"
        for out, eps in ((a, 0.25), (b, math.nextafter(0.25, 1.0))):
            out.mkdir()
            (out / "xtalk.csv").write_text(f"epsilon,bound\n{eps!r},inf\n0.5,2\n")
        assert diff(a, b, "--tol", "1e-15", "--rtol", "0") == 0
        assert diff(a, b, *EXACT) == 1
        assert "Warning" not in capsys.readouterr().err

    def test_only_the_failing_column_is_marked(self, tmp_path, capsys):
        a = write_outputs(tmp_path / "a")
        b = tmp_path / "b"
        shutil.copytree(a, b)
        for name, old, new in (("rabi.csv", "0.5,", "0.50000000000000089,"),
                               ("trace.jsonl", "1.25", "1.2500000000000002")):
            (b / name).write_text((b / name).read_text().replace(old, new, 1))
        assert diff(a, b, "--rtol", "1e-15") == 1     # t_ns moves 8 ulps, f 1
        lines = capsys.readouterr().out.splitlines()
        assert [line for line in lines if line.endswith(" FAIL")] == [
            line for line in lines if line.startswith("rabi.csv t_ns: ")]
        assert "trace.jsonl f: max abs diff 2.22e-16, max rel diff 1.78e-16" in lines
        assert lines[-1] == "not within tolerance: rabi.csv t_ns"
        assert diff(a, b, "--rtol", "1e-15", "--tol", "1e-15") == 0
        assert capsys.readouterr().out.splitlines()[-1] == "all within tolerance"

    def test_a_differing_text_cell_fails_at_any_tolerance(self, tmp_path):
        a = write_outputs(tmp_path / "a")
        b = tmp_path / "b"
        shutil.copytree(a, b)
        text = (b / "addresses.csv").read_text()
        (b / "addresses.csv").write_text(text.replace("nv-a", "nv-b"))
        assert diff(a, b, "--tol", "1e300") == 1


def readme_quick_start():
    """The `spinmux` commands of README's quick-start block, without the
    program name, each as shlex splits it after joining continued lines."""
    text = (ROOT / "README.md").read_text()
    block = re.search(r"## Quick start\n.*?```bash\n(.*?)```", text, re.S).group(1)
    return [shlex.split(line)[1:] for line in block.replace("\\\n", " ").splitlines()
            if line.startswith("spinmux ")]


def without_paths(argv):
    """argv with each path cut to its file name, and README's $CFG and $PAIR
    to the demo configs they name."""
    names = {"$CFG": "demo_register.json", "$PAIR": "demo_close_pair.json"}
    return [names.get(arg, os.path.basename(arg)) for arg in argv]


class TestReadmeCommandsInTheOutputGate:
    def test_the_gate_runs_the_quick_start(self):
        # the gate adds one optimize that misses its tolerance after the README's
        gate = [without_paths(argv) for argv in compare_outputs.readme_commands(
            Path("/data"), Path("/out"), Path("/out/pulse.csv"))]
        missed = [argv for argv in gate if "pulse_missed.csv" in argv]
        assert len(missed) == 1 and missed[0][0] == "optimize"
        gate.remove(missed[0])
        assert [without_paths(argv) for argv in readme_quick_start()] == gate


def side(wall_s, rate, attempted=10, failed=0):
    return {"attempted": attempted, "failed": failed,
            "metrics": {"wall_s": {"value": wall_s, "unit": "s"},
                        "rate": {"value": rate, "unit": "1/s"}}}


SPEC = {"end_to_end": [{"name": "wall_s", "better": "lower", "bound": 0.24},
                       {"name": "rate", "better": "higher", "bound": 0.1}]}


class TestBenchPairsStatistics:
    def test_quartiles_are_inclusive(self):
        assert bench_pairs.quartiles([5.0, 1.0, 4.0, 2.0, 3.0]) == {
            "median": 3.0, "q1": 2.0, "q3": 4.0}
        assert bench_pairs.quartiles([1.0, 2.0, 3.0, 4.0]) == {
            "median": 2.5, "q1": 1.75, "q3": 3.25}
        assert bench_pairs.quartiles([7.0]) == {"median": 7.0, "q1": 7.0, "q3": 7.0}

    def test_summarize_counts_pairs_won_and_the_gain_against_the_parent_iqr(self):
        parent_wall = [1.0, 1.1, 1.2, 1.3, 1.4]        # q1 1.1, median 1.2, q3 1.3
        change_wall = [0.8, 0.9, 1.3, 0.85, 0.95]      # median 0.9: wins 4 of 5
        change_rate = [10.0, 11.0, 10.0, 10.0, 10.0]   # median unchanged: wins 1
        runs = [{"parent": side(p, 10.0, failed=k % 2), "change": side(c, r)}
                for k, (p, c, r) in enumerate(zip(parent_wall, change_wall, change_rate))]
        runs.append({"parent": {"error": "exit 1: boom"}, "change": side(0.1, 99.0)})
        out = bench_pairs.summarize(runs, SPEC)
        assert (out["pairs_run"], out["pairs_errored"]) == (5, 1)
        assert (out["parent_attempted"], out["parent_failed"]) == (50, 2)
        assert (out["change_attempted"], out["change_failed"]) == (50, 0)

        wall = out["metrics"]["wall_s"]
        assert wall["parent"] == {"median": 1.2, "q1": 1.1, "q3": 1.3}
        assert wall["change"]["median"] == 0.9
        assert wall["change_better_pairs"] == 4
        assert wall["median_change_frac"] == pytest.approx(-0.25)
        assert wall["gain_exceeds_parent_iqr"] is True     # 0.3 against 0.2
        assert (wall["unit"], wall["better"], wall["bound"]) == ("s", "lower", 0.24)

        rate = out["metrics"]["rate"]
        assert rate["change_better_pairs"] == 1
        assert rate["median_change_frac"] == 0.0
        assert rate["gain_exceeds_parent_iqr"] is False    # 0 against 0

        table = bench_pairs.table({"workloads": {"synth": out}})
        assert "| synth | `wall_s` | 1.2 [1.1, 1.3] | 0.9 [0.85, 0.95] | 4/5, -25.0% |" \
            in table.splitlines()

    def test_a_gain_inside_the_parent_iqr_is_not_claimed(self):
        runs = [{"parent": side(p, 1.0), "change": side(p - 0.05, 1.0)}
                for p in (1.0, 1.2, 1.4, 1.6, 1.8)]
        wall = bench_pairs.summarize(runs, SPEC)["metrics"]["wall_s"]
        assert wall["change_better_pairs"] == 5
        assert wall["gain_exceeds_parent_iqr"] is False    # 0.05 against 0.4


class TestBenchPairsCopy:
    def test_the_change_side_is_the_tracked_files_as_on_disk(self, tmp_path):
        repo = tmp_path / "repo"
        (repo / "sub").mkdir(parents=True)
        (repo / ".gitignore").write_text(".perfbench/\n")
        (repo / "edited.py").write_text("committed\n")
        (repo / "sub" / "kept.py").write_text("kept\n")
        (repo / "deleted.py").write_text("gone\n")
        bench_pairs.git("init", "-q", repo=repo)
        bench_pairs.git("add", "-A", repo=repo)
        bench_pairs.git("-c", "user.name=t", "-c", "user.email=t@t",
                        "-c", "commit.gpgsign=false", "commit", "-q",
                        "-m", "base", repo=repo)
        (repo / "edited.py").write_text("edited\n")
        (repo / "deleted.py").unlink()
        (repo / "untracked.py").write_text("untracked\n")
        (repo / ".perfbench").mkdir()
        (repo / ".perfbench" / "ignored.json").write_text("{}\n")

        copy = bench_pairs.copy_worktree(repo, tmp_path / "change")
        assert copy == tmp_path / "change"
        assert sorted(str(p.relative_to(copy)) for p in copy.rglob("*") if p.is_file()) \
            == [".gitignore", "edited.py", "sub/kept.py"]
        assert (copy / "edited.py").read_text() == "edited\n"


class TestProfilePairsRatios:
    def test_ratios_are_paired_per_timing(self, capsys):
        pairs = [({"timings": {"cost[0]": 1.0, "wall_s": 2.0}},
                  {"timings": {"cost[0]": 2.0, "wall_s": 2.0}}),
                 ({"timings": {"cost[0]": 3.0, "wall_s": 1.0}},
                  {"timings": {"cost[0]": 2.0, "wall_s": 2.0}})]
        profile_pairs.print_ratios(Path("a"), Path("b"), pairs)
        lines = capsys.readouterr().out.splitlines()
        assert "| cost[0] | 1.000 | 0.750 | 1.250 |" in lines     # ratios 0.5 and 1.5
        assert "| wall_s | 0.750 | 0.625 | 0.875 |" in lines      # ratios 1.0 and 0.5

    @pytest.mark.parametrize("argv", (["src", "--pairs", "0"], ["src", "--passes", "0"]))
    def test_counts_below_one_are_refused(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_:
            profile_pairs.main("tool.py", "A tool.", None, None, "seed",
                               counts={"passes": (20, "passes")}, argv=argv)
        assert exit_.value.code == 2
        assert "--pairs, --passes must be >= 1" in capsys.readouterr().err

    def test_descent_profile_refuses_zero_passes(self, monkeypatch, capsys):
        monkeypatch.syspath_prepend(str(TOOLS))     # it imports profile_pairs by name
        with pytest.raises(SystemExit) as exit_:
            load_tool("descent_profile").main(["src", "--passes", "0"])
        assert exit_.value.code == 2
        assert "--pairs, --passes must be >= 1" in capsys.readouterr().err


def tree_files(tree):
    return {str(p.relative_to(tree)): p.read_bytes() for p in tree.rglob("*") if p.is_file()}


class TestProfilePairsStaging:
    def test_workers_get_copies_at_paths_of_equal_length(self, tmp_path, monkeypatch):
        src, against = tmp_path / "src", tmp_path / "a much longer directory" / "src"
        for tree, text in ((src, "change = 1\n"), (against, "parent = 1\n")):
            (tree / "spinmux").mkdir(parents=True)
            (tree / "spinmux" / "__init__.py").write_text(text)
            (tree / "spinmux" / "__pycache__").mkdir()
            (tree / "spinmux" / "__pycache__" / "stale.pyc").write_bytes(b"stale")
        seen, labels = [], []

        def fake_run(cmd, **kwargs):
            tree = Path(cmd[2])
            seen.append((tree, tree_files(tree)))
            return subprocess.CompletedProcess(cmd, 0, stdout='{"timings": {"t": 1.0}}\n')

        monkeypatch.setattr(subprocess, "run", fake_run)
        profile_pairs.main("tool.py", "A tool.", None,
                           lambda tree, result: labels.append(tree), "seed",
                           argv=[str(src), "--against", str(against), "--pairs", "2"])
        assert [files for _, files in seen[:2]] == [{"spinmux/__init__.py": b"change = 1\n"},
                                                    {"spinmux/__init__.py": b"parent = 1\n"}]
        assert [tree.parent.name for tree, _ in seen] == ["change", "parent", "parent", "change"]
        assert len({len(str(tree)) for tree, _ in seen}) == 1
        assert {tree.name for tree, _ in seen} == {"src"}
        assert labels == [src, against]

    def test_a_tree_without_the_package_is_refused(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exit_:
            profile_pairs.main("tool.py", "A tool.", None, None, "seed",
                               argv=[str(ROOT / "src"), "--against", str(tmp_path)])
        assert exit_.value.code == 2
        assert f"no spinmux package under {tmp_path}" in capsys.readouterr().err


def fake_workload(calls):
    from workloads import Op, Workload

    def second(_):
        calls.append("second")
        if calls.count("second") == 2:
            raise RuntimeError("boom")

    return Workload([Op("first", "bench.first", lambda _: calls.append("first"),
                        lambda *_: None),
                     Op("second", "bench.second", second, lambda *_: None)],
                    lambda: calls.append("warm up"))


class TestProfilePairsPasses:
    @pytest.fixture(autouse=True)
    def perfbench_on_path(self, monkeypatch):
        monkeypatch.syspath_prepend(str(ROOT / "perfbench"))

    def test_medians_of_op_over_reference_faults_and_the_host_wall(self, monkeypatch):
        import worker

        passes = iter([[(1.0, 2.0), (3.0, 1.0)], [(3.0, 2.0), (1.0, 1.0)],
                       [(2.0, 1.0), (2.0, 1.0)]])
        monkeypatch.setattr(worker, "run_pass", lambda workload, tracer, first: (next(passes), 0))
        faults = iter([0, 10, 10, 30, 30, 60])       # 10, 20 and 30 per pass
        monkeypatch.setattr(profile_pairs.resource, "getrusage",
                            lambda who: SimpleNamespace(ru_minflt=next(faults)))
        calls = []
        medians, wall, per_pass = profile_pairs.time_passes(lambda _: fake_workload(calls), 3)
        assert calls == ["warm up"]
        # ratios 0.5, 1.5, 2 and 3, 1, 2
        assert medians == {"first": 1.5 * worker.REFERENCE_S, "second": 2 * worker.REFERENCE_S}
        assert wall == pytest.approx(3.5 * worker.REFERENCE_S, rel=1e-15)
        assert per_pass == 20

    def test_a_failed_operation_stops_the_passes(self, capsys):
        calls = []
        with pytest.raises(SystemExit, match="^1 operations failed$"):
            profile_pairs.time_passes(lambda _: fake_workload(calls), 5)
        assert calls == ["warm up", "first", "second", "first", "second"]
        assert "second raised" in capsys.readouterr().err


def test_an_unknown_revision_exits_2_naming_it(tmp_path, capsys):
    assert compare_outputs.main(["run", "--rev", "no-such-revision", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("error: git archive no-such-revision: ")


@pytest.mark.parametrize("argv", (["bench_pairs.py"], ["compare_outputs.py", "run"],
                                  ["descent_profile.py"], ["survey_profile.py"]))
def test_every_tool_command_line_starts_outside_the_repository(argv, tmp_path):
    # loading a tool by path hides a broken import of another tool
    proc = subprocess.run([sys.executable, str(TOOLS / argv[0]), *argv[1:], "--help"],
                          cwd=tmp_path, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: ")
