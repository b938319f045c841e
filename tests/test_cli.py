import argparse
import csv
import dataclasses
import inspect
import json
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

import spinmux.cli as cli
from spinmux import (
    Diverged,
    OptimizationTrace,
    PulseProgram,
    demo_config_path,
    read_pulse,
    rect_pi_pulse,
    regularization,
    write_pulse,
)
from spinmux.synthesis import TraceRow


def read_csv(path):
    with open(path) as fh:
        reader = csv.DictReader(fh)
        return list(reader)


class TestAddressMapCommand:
    def run(self, demo_config, tmp_path, idc_ma, name):
        out = tmp_path / name
        code = cli.main(["address-map", "--config", demo_config,
                         "--idc-ma", str(idc_ma), "--out", str(out)])
        assert code == 0
        return read_csv(out)

    def test_no_current_no_gradient(self, demo_config, tmp_path):
        rows = self.run(demo_config, tmp_path, 0.0, "a0.csv")
        freqs = [float(r["f_ghz"]) for r in rows]
        assert max(freqs) - min(freqs) < 1e-9

    def test_calibrated_spread(self, demo_config, tmp_path):
        rows = self.run(demo_config, tmp_path, 150.0, "a150.csv")
        freqs = [float(r["f_ghz"]) for r in rows]
        assert max(freqs) - min(freqs) > 0.16
        assert [r["site"] for r in rows] == sorted(r["site"] for r in rows)

    def test_shifts_scale_linearly_with_current(self, demo_config, tmp_path):
        full = self.run(demo_config, tmp_path, 150.0, "full.csv")
        half = self.run(demo_config, tmp_path, 75.0, "half.csv")
        zero = self.run(demo_config, tmp_path, 0.0, "zero.csv")
        for rf, rh, rz in zip(full, half, zero):
            shift_full = float(rf["f_ghz"]) - float(rz["f_ghz"])
            shift_half = float(rh["f_ghz"]) - float(rz["f_ghz"])
            assert shift_half == pytest.approx(shift_full / 2.0, abs=1e-12)


class TestSimulateCommand:
    def test_rabi_first_maximum(self, demo_config, tmp_path):
        out = tmp_path / "rabi.csv"
        code = cli.main(["simulate", "rabi", "--config", demo_config,
                         "--rabi-mhz", "7.5", "--t-max-ns", "150",
                         "--points", "301", "--out", str(out)])
        assert code == 0
        rows = read_csv(out)
        times = np.array([float(r["t_ns"]) for r in rows])
        pops = np.array([float(r["p1"]) for r in rows])
        first_max = times[int(np.argmax(pops))]
        assert abs(first_max - 66.67) <= times[1] - times[0]

    def test_ramsey_matches_library(self, demo_config, tmp_path):
        from spinmux import HyperfineManifold, simulate_ramsey

        out = tmp_path / "ramsey.csv"
        code = cli.main(["simulate", "ramsey", "--config", demo_config,
                         "--delta-mhz", "3", "--tau-max-us", "8",
                         "--points", "401", "--out", str(out)])
        assert code == 0
        rows = read_csv(out)
        taus = np.array([float(r["tau_us"]) for r in rows]) * 1e-6
        got = np.array([float(r["signal"]) for r in rows])
        expected = simulate_ramsey(3e6, HyperfineManifold.triplet(), 1.7e-6, taus)
        assert np.max(np.abs(got - expected)) < 1e-12
        assert got[0] == 1.0

    def test_odmr_smoke(self, demo_config, tmp_path):
        out = tmp_path / "odmr.csv"
        code = cli.main(["simulate", "odmr", "--config", demo_config,
                         "--f-min-ghz", "2.999", "--f-max-ghz", "3.001",
                         "--points", "41", "--probe-rabi-mhz", "1",
                         "--linewidth-mhz", "0.2", "--out", str(out)])
        assert code == 0
        rows = read_csv(out)
        assert len(rows) == 41
        assert all(0.0 <= float(r["contrast"]) <= 1.0 for r in rows)

    def test_zero_pulse_leaves_all_sites_untouched(self, demo_config, tmp_path):
        pulse_path = tmp_path / "zero.csv"
        write_pulse(pulse_path, PulseProgram.from_arrays(np.zeros(5), np.zeros(5),
                                                         50e-9))
        out = tmp_path / "eps.csv"
        code = cli.main(["simulate", "pulse", "--config", demo_config,
                         "--pulse", str(pulse_path), "--out", str(out)])
        assert code == 0
        for row in read_csv(out):
            assert abs(float(row["eps"])) <= 1e-12

    def test_pulse_kind_needs_pulse_flag(self, demo_config, tmp_path):
        code = cli.main(["simulate", "pulse", "--config", demo_config,
                         "--out", str(tmp_path / "x.csv")])
        assert code == 1


class TestOptimizeCommand:
    def test_small_run_writes_artifacts(self, close_pair_config, tmp_path):
        pulse_path = tmp_path / "pulse.csv"
        trace_path = tmp_path / "trace.jsonl"
        code = cli.main([
            "optimize", "--config", close_pair_config,
            "--target-site", "nv-b", "--idle-site", "nv-c",
            "--lambda", "1e-9", "--steps", "100", "--duration", "8e-6",
            "--seed", "1", "--restarts", "1",
            "--out-pulse", str(pulse_path), "--out-trace", str(trace_path),
        ])
        assert code == 0
        pulse = read_pulse(pulse_path)
        assert len(pulse.steps) == 100
        assert pulse.duration == pytest.approx(8e-6, rel=1e-9)
        rows = [json.loads(line) for line in trace_path.read_text().splitlines()]
        assert rows[0]["iteration"] == 0
        fs = [r["f"] for r in rows]
        assert all(b <= a for a, b in zip(fs, fs[1:]))
        assert rows[-1]["eps_i"] >= 0.99

    def test_smoothing_flag_reduces_total_variation(self, close_pair_config, tmp_path):
        # lambda = 1e-7 stops short of the 1e-3 tolerance, so that run exits 4
        tv = {}
        for lam, expected_code in (("0", 0), ("1e-7", 4)):
            pulse_path = tmp_path / f"pulse_{lam}.csv"
            code = cli.main([
                "optimize", "--config", close_pair_config,
                "--target-site", "nv-b", "--idle-site", "nv-c",
                "--lambda", lam, "--steps", "100", "--duration", "8e-6",
                "--seed", "0", "--restarts", "1",
                "--out-pulse", str(pulse_path),
                "--out-trace", str(tmp_path / f"trace_{lam}.jsonl"),
            ])
            assert code == expected_code
            # the penalty at unit weight is the total variation itself
            tv[lam] = regularization(read_pulse(pulse_path), 1.0)
        assert tv["1e-7"] <= tv["0"]

    def test_missed_tolerance_exits_4_and_still_writes_artifacts(
            self, close_pair_config, tmp_path, capsys):
        # 20 steps over 0.3 us cannot separate a 1.1 MHz pair
        pulse_path = tmp_path / "pulse.csv"
        trace_path = tmp_path / "trace.jsonl"
        code = cli.main([
            "optimize", "--config", close_pair_config,
            "--target-site", "nv-b", "--idle-site", "nv-c",
            "--steps", "20", "--duration", "0.3e-6",
            "--out-pulse", str(pulse_path), "--out-trace", str(trace_path),
        ])
        assert code == 4
        assert len(read_pulse(pulse_path).steps) == 20
        last = json.loads(trace_path.read_text().splitlines()[-1])
        assert (1.0 - last["eps_i"]) + sum(last["eps_j"]) > 1e-3
        stderr = capsys.readouterr().err.strip().splitlines()
        assert len(stderr) == 1
        assert f"eps_i={last['eps_i']:.6g}" in stderr[0]
        assert f"sum(eps_j)={sum(last['eps_j']):.6g}" in stderr[0]
        assert "tol=0.001" in stderr[0]
        assert stderr[0].endswith("stopped: stationary")

    def test_a_converged_restart_is_written_over_a_lower_objective(
            self, close_pair_config, tmp_path, capsys):
        # restart 0 stops stationary at f = 0.072, missing the tolerance;
        # restart 1 converges after 8 iterations at f = 0.094, and exits 0
        trace_path = tmp_path / "trace.jsonl"
        code = cli.main([
            "optimize", "--config", close_pair_config,
            "--target-site", "nv-b", "--idle-site", "nv-c",
            "--lambda", "1e-8", "--steps", "100", "--duration", "6e-6",
            "--restarts", "4", "--seed", "1",
            "--out-pulse", str(tmp_path / "pulse.csv"), "--out-trace", str(trace_path),
        ])
        assert code == 0 and capsys.readouterr().err == ""
        rows = [json.loads(line) for line in trace_path.read_text().splitlines()]
        assert len(rows) == 9
        assert (1.0 - rows[-1]["eps_i"]) + sum(rows[-1]["eps_j"]) <= 1e-3

    def test_divergence_exit_code_still_writes_artifacts(self, close_pair_config,
                                                         tmp_path, monkeypatch):
        best = rect_pi_pulse(1e6, m=4)
        trace = OptimizationTrace(
            rows=(TraceRow(0, 1.0, 0.0, (0.0,), 0.0, 0.0),),
            restart=0, stop_reason="diverged",
        )

        def stalled(scenario, config):
            raise Diverged("stalled", pulse=best, trace=trace)

        monkeypatch.setattr(cli, "optimize", stalled)
        pulse_path = tmp_path / "pulse.csv"
        trace_path = tmp_path / "trace.jsonl"
        code = cli.main([
            "optimize", "--config", close_pair_config,
            "--target-site", "nv-b", "--idle-site", "nv-c",
            "--out-pulse", str(pulse_path), "--out-trace", str(trace_path),
        ])
        assert code == 3
        assert pulse_path.exists() and trace_path.exists()

    def test_missing_idle_site_is_usage_error(self, close_pair_config, tmp_path):
        code = cli.main([
            "optimize", "--config", close_pair_config, "--target-site", "nv-b",
            "--out-pulse", str(tmp_path / "p.csv"),
            "--out-trace", str(tmp_path / "t.jsonl"),
        ])
        assert code == 1

    def test_target_off_the_carrier_is_designed_in_the_carrier_frame(
            self, close_pair_config, tmp_path):
        # the carrier sits on nv-b: a pulse for nv-c must flip nv-c, and
        # simulate pulse and sweep must report what the trace reports
        pulse_path, trace_path = tmp_path / "pulse.csv", tmp_path / "trace.jsonl"
        sites = ["--target-site", "nv-c", "--idle-site", "nv-b"]
        assert cli.main([
            "optimize", "--config", close_pair_config, *sites,
            "--lambda", "1e-9", "--steps", "200", "--duration", "10e-6",
            "--seed", "0", "--restarts", "5",
            "--out-pulse", str(pulse_path), "--out-trace", str(trace_path),
        ]) == 0
        last = json.loads(trace_path.read_text().splitlines()[-1])
        eps_out, sweep_out = tmp_path / "eps.csv", tmp_path / "sweep.csv"
        assert cli.main(["simulate", "pulse", "--config", close_pair_config,
                         "--pulse", str(pulse_path), "--out", str(eps_out)]) == 0
        assert cli.main(["sweep", "--config", close_pair_config, "--pulse", str(pulse_path),
                         *sites, "--delta-range", "0:0:1", "--amp-range", "1:1:1",
                         "--out", str(sweep_out)]) == 0
        eps = {r["site"]: float(r["eps"]) for r in read_csv(eps_out)}
        [row] = read_csv(sweep_out)
        assert last["eps_i"] >= 0.99
        for eps_i, eps_j in ((eps["nv-c"], eps["nv-b"]),
                             (float(row["eps_i"]), float(row["eps_j"]))):
            assert eps_i == pytest.approx(last["eps_i"], abs=1e-9)
            assert eps_j == pytest.approx(sum(last["eps_j"]), abs=1e-9)


class TestCrosstalkMapCommand:
    def test_maps_with_and_without_gradient(self, demo_config, tmp_path):
        prefix = tmp_path / "map"
        code = cli.main([
            "crosstalk-map", "--config", demo_config,
            "--idc-ma", "0", "--idc-ma", "150",
            "--target-u-um", "1.5", "--rabi-mhz", "10",
            "--u-min-um", "-4", "--u-max-um", "4", "--nu", "33",
            "--out-prefix", str(prefix),
        ])
        assert code == 0
        flat = {float(r["u_um"]): float(r["epsilon"])
                for r in read_csv(f"{prefix}_idc0ma.csv")}
        steep = {float(r["u_um"]): float(r["epsilon"])
                 for r in read_csv(f"{prefix}_idc150ma.csv")}
        assert flat[1.5] == pytest.approx(1.0, abs=1e-10)
        assert steep[1.5] == pytest.approx(1.0, abs=1e-10)
        assert flat[-3.5] > 0.5
        for u, eps in steep.items():
            if abs(u - 1.5) >= 3.0:
                assert eps < 0.01


    def test_a_far_point_gets_no_drive_and_no_warning(self, demo_config, tmp_path,
                                                      capsys):
        # its squared distance to the wire overflows to inf, which leaves it no
        # field; the AC field used to print numpy's "overflow encountered"
        prefix = tmp_path / "far"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(["crosstalk-map", "--config", demo_config, "--idc-ma", "0",
                             "--target-u-um", "1.5", "--u-min-um", "0", "--u-max-um",
                             "1e300", "--nu", "2", "--out-prefix", str(prefix)])
        assert code == 0 and capsys.readouterr().err == ""
        far = read_csv(f"{prefix}_idc0ma.csv")[1]
        assert float(far["u_um"]) > 1e299 and float(far["epsilon"]) == 0.0


class TestSweepCommand:
    @pytest.mark.parametrize("config, target, idle", [
        ("demo_close_pair", "nv-b", "nv-c"),
        ("demo_close_pair", "nv-c", "nv-b"),
        ("demo_register", "nv-c", "nv-b"),     # 130 MHz off the 3.0 GHz carrier
    ], ids=["pair-nv-b", "pair-nv-c", "register-nv-c"])
    def test_nominal_point_matches_pulse_simulation(self, tmp_path, config, target, idle):
        config = demo_config_path(config)
        pulse_path = tmp_path / "p.csv"
        write_pulse(pulse_path, rect_pi_pulse(1e6, m=20))
        sweep_out = tmp_path / "sweep.csv"
        code = cli.main([
            "sweep", "--config", config, "--pulse", str(pulse_path),
            "--target-site", target, "--idle-site", idle,
            "--delta-range", "0:0:1", "--amp-range", "1:1:1",
            "--out", str(sweep_out),
        ])
        assert code == 0
        [row] = read_csv(sweep_out)
        assert float(row["offset_mhz"]) == 0.0
        assert float(row["scale"]) == 1.0

        eps_out = tmp_path / "eps.csv"
        code = cli.main(["simulate", "pulse", "--config", config,
                         "--pulse", str(pulse_path), "--out", str(eps_out)])
        assert code == 0
        eps = {r["site"]: float(r["eps"]) for r in read_csv(eps_out)}
        # one flip probability for every site: the same bits in both commands
        assert float(row["eps_i"]) == eps[target]
        assert float(row["eps_j"]) == eps[idle]

    def test_zero_scale_row_is_all_zero(self, close_pair_config, tmp_path):
        pulse_path = tmp_path / "p.csv"
        write_pulse(pulse_path, rect_pi_pulse(1e6, m=10))
        out = tmp_path / "sweep.csv"
        code = cli.main([
            "sweep", "--config", close_pair_config, "--pulse", str(pulse_path),
            "--target-site", "nv-b", "--idle-site", "nv-c",
            "--delta-range", "0:0:1", "--amp-range", "0:1:2",
            "--out", str(out),
        ])
        assert code == 0
        rows = read_csv(out)
        zero = next(r for r in rows if float(r["scale"]) == 0.0)
        assert abs(float(zero["eps_i"])) <= 1e-12
        assert abs(float(zero["eps_j"])) <= 1e-12

    def test_grid_shape(self, close_pair_config, tmp_path):
        pulse_path = tmp_path / "p.csv"
        write_pulse(pulse_path, rect_pi_pulse(1e6, m=10))
        out = tmp_path / "sweep.csv"
        code = cli.main([
            "sweep", "--config", close_pair_config, "--pulse", str(pulse_path),
            "--target-site", "nv-b", "--idle-site", "nv-c",
            "--delta-range=-0.2:0.2:5", "--amp-range", "0.9:1.1:3",
            "--out", str(out),
        ])
        assert code == 0
        assert len(read_csv(out)) == 15


class TestExitCodes:
    def test_usage_error_is_1(self):
        assert cli.main(["address-map"]) == 1
        assert cli.main(["simulate", "nope", "--config", "x", "--out", "y"]) == 1

    def test_validation_error_is_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "environment": {
                "b_ext_mt": [0, 0, 1],
                "wire": {"anchor_um": [0, 0, -1], "direction": [0, 1, 0]},
            },
            "sites": [
                {"id": "a", "position_um": [0, 0, 0]},
                {"id": "a", "position_um": [1, 0, 0]},
            ],
        }))
        code = cli.main(["address-map", "--config", str(bad),
                         "--idc-ma", "0", "--out", str(tmp_path / "o.csv")])
        assert code == 2

    @pytest.mark.parametrize("drive, position, field", [
        ({"i_dc_ma": float("nan")}, [0, 0, 0], "drive.i_dc_ma"),
        ({"carrier_ghz": True}, [0, 0, 0], "drive.carrier_ghz"),
        ({}, [float("inf"), 0, 0], "sites[0].position_um"),
    ])
    def test_bad_numbers_exit_2_and_name_the_field(self, tmp_path, capsys, drive,
                                                   position, field):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "environment": {
                "b_ext_mt": [0, 0, 1],
                "wire": {"anchor_um": [0, 0, -1], "direction": [0, 1, 0]},
            },
            "drive": drive,
            "sites": [{"id": "a", "position_um": position}],
        }))
        code = cli.main(["address-map", "--config", str(bad),
                         "--idc-ma", "0", "--out", str(tmp_path / "o.csv")])
        assert code == 2
        assert field in capsys.readouterr().err

    def test_misspelled_config_key_exits_2_and_names_it(self, tmp_path, capsys):
        # "i_dc_mA" used to load as the 0 mA default and exit 0
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "environment": {
                "b_ext_mt": [0, 0, 1],
                "wire": {"anchor_um": [0, 0, -1], "direction": [0, 1, 0]},
            },
            "drive": {"i_dc_mA": 150},
            "sites": [{"id": "a", "position_um": [0, 0, 0]}],
        }))
        code = cli.main(["simulate", "odmr", "--config", str(bad),
                         "--out", str(tmp_path / "o.csv")])
        assert code == 2
        assert "drive.i_dc_mA" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, flag", [
        (["address-map", "--idc-ma", "nan"], "--idc-ma"),
        (["simulate", "rabi", "--rabi-mhz", "nan"], "--rabi-mhz"),
        (["simulate", "odmr", "--f-min-ghz", "inf", "--f-max-ghz", "3"],
         "--f-min-ghz"),
        (["crosstalk-map", "--idc-ma", "0", "--idc-ma=-inf",
          "--target-u-um", "1.5", "--u-min-um", "-4", "--u-max-um", "4",
          "--nu", "3"], "--idc-ma"),
        (["sweep", "--delta-range=nan:0.2:2", "--amp-range", "1:1:1"],
         "--delta-range"),
        (["sweep", "--delta-range", "0:0:1", "--amp-range", "1:1e999:1"],
         "--amp-range"),
    ], ids=["address-map", "rabi", "odmr", "crosstalk-map", "delta-range",
            "amp-range"])
    def test_non_finite_flag_exits_2_and_names_it(self, close_pair_config, tmp_path,
                                                  capsys, argv, flag):
        pulse_path = tmp_path / "p.csv"
        write_pulse(pulse_path, rect_pi_pulse(1e6, m=4))
        paths = {"sweep": ["--pulse", str(pulse_path), "--target-site", "nv-b",
                           "--idle-site", "nv-c", "--out", str(tmp_path / "o.csv")],
                 "crosstalk-map": ["--out-prefix", str(tmp_path / "o")]}
        out = paths.get(argv[0], ["--out", str(tmp_path / "o.csv")])
        code = cli.main([*argv, "--config", close_pair_config, *out])
        assert code == 2
        assert flag in capsys.readouterr().err
        assert not list(tmp_path.glob("o*"))

    @pytest.mark.parametrize("argv, flag", [
        (["optimize", "--steps", "0"], "--steps"),
        (["optimize", "--restarts", "0"], "--restarts"),
        (["optimize", "--seed=-1"], "--seed"),
        (["simulate", "rabi", "--points", "0"], "--points"),
        (["crosstalk-map", "--nu", "0"], "--nu"),
        (["crosstalk-map", "--nu", "3", "--nv=-1"], "--nv"),
    ], ids=["steps", "restarts", "seed", "points", "nu", "nv"])
    def test_count_flag_below_its_least_value_exits_2_and_names_it(
            self, close_pair_config, tmp_path, capsys, argv, flag):
        outs = {"optimize": ["--target-site", "nv-b", "--idle-site", "nv-c",
                             "--out-pulse", str(tmp_path / "o.csv"),
                             "--out-trace", str(tmp_path / "o.jsonl")],
                "crosstalk-map": ["--idc-ma", "0", "--target-u-um", "1.5",
                                  "--u-min-um", "-4", "--u-max-um", "4",
                                  "--out-prefix", str(tmp_path / "o")]}
        out = outs.get(argv[0], ["--out", str(tmp_path / "o.csv")])
        code = cli.main([*argv, "--config", close_pair_config, *out])
        assert code == 2
        assert flag in capsys.readouterr().err
        assert not list(tmp_path.glob("o*"))

    @pytest.mark.parametrize("argv, flag", [
        (["optimize", "--duration", "0"], "--duration"),
        (["simulate", "ramsey", "--tau-max-us=-8"], "--tau-max-us"),
        (["simulate", "odmr", "--probe-rabi-mhz=0"], "--probe-rabi-mhz"),
        (["simulate", "rabi", "--t-max-ns=-5"], "--t-max-ns"),
        (["simulate", "odmr", "--linewidth-mhz=-1"], "--linewidth-mhz"),
    ], ids=["duration", "tau-max", "probe-rabi", "t-max", "linewidth"])
    def test_value_a_library_call_rejects_names_the_flag(
            self, close_pair_config, tmp_path, capsys, argv, flag):
        out = (["--target-site", "nv-b", "--idle-site", "nv-c",
                "--out-pulse", str(tmp_path / "o.csv"), "--out-trace", str(tmp_path / "o.jsonl")]
               if argv[0] == "optimize" else ["--out", str(tmp_path / "o.csv")])
        code = cli.main([*argv, "--config", close_pair_config, *out])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: {flag}: must be")
        assert not list(tmp_path.glob("o*"))

    @pytest.mark.parametrize("rabi", ["0", "-5"])
    def test_crosstalk_map_rabi_must_be_positive_and_names_the_flag(
            self, close_pair_config, tmp_path, capsys, rabi):
        code = cli.main(["crosstalk-map", "--config", close_pair_config, "--idc-ma", "150",
                         "--target-u-um", "1.5", f"--rabi-mhz={rabi}", "--u-min-um", "-4",
                         "--u-max-um", "4", "--nu", "3",
                         "--out-prefix", str(tmp_path / "o")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: --rabi-mhz: must be >= 5e-22")
        assert not list(tmp_path.glob("o*"))

    @pytest.mark.parametrize("rabi", ["0", "-5"])
    def test_simulate_rabi_takes_any_rabi_rate(self, close_pair_config, tmp_path, rabi):
        out = tmp_path / "o.csv"
        assert cli.main(["simulate", "rabi", "--config", close_pair_config,
                         f"--rabi-mhz={rabi}", "--points", "5", "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 6

    @pytest.mark.parametrize("argv", [
        ["ramsey", "--tau-max-us=-8"],
        ["odmr", "--linewidth-mhz=-1"],
    ], ids=["ramsey-delay", "odmr-linewidth"])
    def test_negative_delay_or_linewidth_exits_2(self, demo_config, tmp_path, argv):
        out = tmp_path / "o.csv"
        code = cli.main(["simulate", *argv, "--config", demo_config, "--points", "11",
                         "--out", str(out)])
        assert code == 2
        assert not out.exists()

    def test_fractional_filament_count_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "environment": {
                "b_ext_mt": [0, 0, 1],
                "wire": {"anchor_um": [0, 0, -1], "direction": [0, 1, 0],
                         "num_filaments": 2.7, "width_um": 1.0},
            },
            "sites": [{"id": "a", "position_um": [0, 0, 0]}],
        }))
        code = cli.main(["address-map", "--config", str(bad),
                         "--idc-ma", "0", "--out", str(tmp_path / "o.csv")])
        assert code == 2
        assert "environment.wire.num_filaments" in capsys.readouterr().err

    def test_nan_lambda_exits_2(self, close_pair_config, tmp_path, capsys):
        code = cli.main([
            "optimize", "--config", close_pair_config,
            "--target-site", "nv-b", "--idle-site", "nv-c", "--lambda", "nan",
            "--out-pulse", str(tmp_path / "p.csv"),
            "--out-trace", str(tmp_path / "t.jsonl"),
        ])
        assert code == 2
        assert "lam" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["--lambda", "1"], "--lambda: must be < 1e-06"),
        (["--lambda=-1"], "--lambda: must be >= 0"),
        (["--lambda", "1e-6"], "--lambda: must be < 1e-06"),
        (["--steps", "2", "--duration", "5e-324"],
         "--duration/--steps: the step duration underflows to 0"),
    ], ids=["lambda-1", "lambda-negative", "lambda-1e-6", "duration-underflow"])
    def test_optimizer_rules_name_their_flags(self, close_pair_config, tmp_path, capsys,
                                              argv, message):
        # each used to exit 2 naming the library's `lam` or `dt`
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(["optimize", "--config", close_pair_config,
                             "--target-site", "nv-b", "--idle-site", "nv-c", *argv,
                             "--out-pulse", str(tmp_path / "o.csv"),
                             "--out-trace", str(tmp_path / "o.jsonl")])
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("lam", ["0", repr(math.nextafter(1e-6, 0.0))])
    def test_lambda_parses_up_to_its_bound(self, lam):
        args = cli.build_parser().parse_args([
            "optimize", "--config", "c.json", "--target-site", "a", "--lambda", lam,
            "--out-pulse", "p.csv", "--out-trace", "t.jsonl"])
        assert getattr(args, "lambda") == float(lam)

    def test_missing_config_is_2(self, tmp_path):
        code = cli.main(["address-map", "--config", str(tmp_path / "none.json"),
                         "--idc-ma", "0", "--out", str(tmp_path / "o.csv")])
        assert code == 2

    def test_bad_range_spec_is_1(self, close_pair_config, tmp_path):
        pulse_path = tmp_path / "p.csv"
        write_pulse(pulse_path, rect_pi_pulse(1e6, m=4))
        code = cli.main([
            "sweep", "--config", close_pair_config, "--pulse", str(pulse_path),
            "--target-site", "nv-b", "--idle-site", "nv-c",
            "--delta-range", "oops", "--amp-range", "1:1:1",
            "--out", str(tmp_path / "s.csv"),
        ])
        assert code == 1


def subcommands(parser):
    """(name, parser) of each subcommand of `parser`; none when it has none."""
    return [item for action in parser._actions
            if isinstance(action, argparse._SubParsersAction)
            for item in action.choices.items()]


def typed_flags():
    """(argv prefix, action) for every option that has an argparse type, of
    every subcommand and of each `simulate` kind under its own prefix, walked
    from `build_parser()`."""
    for name, command in subcommands(cli.build_parser()):
        for prefix, parser in ([([name, kind], p) for kind, p in subcommands(command)]
                               or [([name], command)]):
            for action in parser._actions:
                if action.type is not None and action.option_strings:
                    yield prefix, action


def rules(action):
    """The variables a flag's argparse type closes over: flag, kind, least and
    above for `_number`, bound for `_range`, none for a bare `float`."""
    return inspect.getclosurevars(action.type).nonlocals if inspect.isfunction(
        action.type) else {}


TYPED_FLAGS = list(typed_flags())
# (prefix, action, "least" or "above") for every bound a flag's type enforces
BOUNDED_FLAGS = [(prefix, action, bound) for prefix, action in TYPED_FLAGS
                 for bound in ("least", "above") if rules(action).get(bound) is not None]


def flag_id(flag):
    """"command --flag [bound]"; a flag an earlier `simulate` kind also takes
    names its own kind too, so ids stay unique and the first kind's keep their
    names."""
    prefix, action = flag[:2]
    name = action.option_strings[0]
    first = next(p for p, a in TYPED_FLAGS
                 if p[0] == prefix[0] and a.option_strings[0] == name)
    where = prefix[0] if first == prefix else " ".join(prefix)
    return f"{where} {name}" + (f" {flag[2]}" if flag[2:] else "")


class TestFlagRules:
    """Each numeric flag's rules live in its argparse type, so every flag the
    parser has is checked here, including flags added later."""

    def test_every_subcommand_has_numeric_flags(self):
        assert {prefix[0] for prefix, _ in TYPED_FLAGS} == {
            "address-map", "simulate", "optimize", "crosstalk-map", "sweep"}
        bounded = {flag_id(f) for f in BOUNDED_FLAGS}
        assert {"crosstalk-map --rabi-mhz least", "optimize --steps least"} <= bounded
        assert not {"simulate --rabi-mhz least", "simulate --rabi-mhz above"} & bounded

    @pytest.mark.parametrize("flag", TYPED_FLAGS, ids=flag_id)
    def test_every_numeric_flag_rejects_nan_and_names_itself(self, capsys, flag):
        prefix, action = flag
        name = action.option_strings[0]
        ranged = "bound" in rules(action)
        code = cli.main([*prefix, f"{name}={'nan:0:1' if ranged else 'nan'}"])
        err = capsys.readouterr().err
        if action.type.__name__ == "int":   # "nan" does not parse as a count
            assert code == 1
            assert f"argument {name}: invalid int value: 'nan'" in err
        else:   # rejected as the flag is parsed, before the missing --config
            assert code == 2
            assert err == f"error: {name}: must be a finite number\n"

    @pytest.mark.parametrize("flag", BOUNDED_FLAGS, ids=flag_id)
    def test_every_bound_is_enforced_on_its_own_flag(self, capsys, flag):
        prefix, action, bound = flag
        name, limit = action.option_strings[0], rules(action)[bound]
        counted = rules(action)["kind"] is int

        def next_value(x, direction):   # the next count, or the next float
            return x + direction if counted else math.nextafter(x, x + direction)

        if bound == "least":
            bad, good, message = next_value(limit, -1), limit, f">= {limit}"
        else:
            bad, good, message = limit, next_value(limit, 1), f"> {limit}"
        assert cli.main([*prefix, f"{name}={bad}"]) == 2
        assert capsys.readouterr().err == f"error: {name}: must be {message}\n"
        assert action.type(str(good)) == good


def si_scale(action):
    """The factor to SI units that a flag's type checks its values against:
    its own `si`, or its bounds' for a `_range`; 1.0 when it checks none."""
    own = rules(action)
    if "bound" in own:
        own = inspect.getclosurevars(own["bound"]).nonlocals
    return own.get("si") or 1.0


def si_factor(action):
    """The factor to Hz or s of a rate or duration flag, whose SI magnitude
    its type bounds by the ceiling: its own, or its bounds' for a `_range`;
    None when it has no ceiling."""
    own = rules(action)
    if "bound" in own:
        own = inspect.getclosurevars(own["bound"]).nonlocals
    return own.get("si")


class TestSIUnits:
    """A value finite in the flag's unit must stay finite in SI units, as a
    config value must; the walk covers every typed flag, as TestFlagRules does."""

    def test_every_mhz_and_ghz_flag_checks_its_conversion(self):
        scales = {action.option_strings[0]: si_scale(action) for _, action in TYPED_FLAGS}
        assert {flag: scale for flag, scale in scales.items() if scale > 1.0} == {
            "--rabi-mhz": 1e6, "--delta-mhz": 1e6, "--f-min-ghz": 1e9,
            "--f-max-ghz": 1e9, "--probe-rabi-mhz": 1e6, "--linewidth-mhz": 1e6,
            "--delta-range": 1e6}

    @pytest.mark.parametrize("flag", [f for f in TYPED_FLAGS if si_scale(f[1]) > 1.0],
                             ids=flag_id)
    def test_an_overflow_in_si_units_names_the_flag(self, capsys, flag):
        prefix, action = flag
        name = action.option_strings[0]
        value = "1e308:0:1" if "bound" in rules(action) else "1e308"
        assert cli.main([*prefix, f"{name}={value}"]) == 2
        assert capsys.readouterr().err == f"error: {name}: too large to convert to SI units\n"

    def test_every_rate_and_duration_flag_has_the_ceiling(self):
        factors = {action.option_strings[0]: si_factor(action) for _, action in TYPED_FLAGS}
        assert {flag: si for flag, si in factors.items() if si is not None} == {
            "--rabi-mhz": 1e6, "--delta-mhz": 1e6, "--f-min-ghz": 1e9,
            "--f-max-ghz": 1e9, "--probe-rabi-mhz": 1e6, "--linewidth-mhz": 1e6,
            "--delta-range": 1e6, "--t-max-ns": 1e-9, "--tau-max-us": 1e-6,
            "--duration": 1.0}

    @pytest.mark.parametrize("flag", [f for f in TYPED_FLAGS if si_factor(f[1])],
                             ids=flag_id)
    def test_the_ceiling_in_si_units_names_the_flag(self, capsys, flag):
        # the largest value whose SI magnitude is within the ceiling parses,
        # and one a millionth above it exits 2 naming the flag
        prefix, action = flag
        name, si = action.option_strings[0], si_factor(action)
        ranged = "bound" in rules(action)
        ceiling = inspect.getclosurevars(
            rules(action)["bound"] if ranged else action.type).nonlocals["ceiling"]
        good = ceiling / si
        while good * si > ceiling:
            good = math.nextafter(good, 0.0)
        text = f"{good!r}:{good!r}:1" if ranged else repr(good)
        assert action.type(text) == ((good, good, 1) if ranged else good)
        bad = repr(good * 1.000001)
        assert cli.main([*prefix, f"{name}={bad}:0:1" if ranged else f"{name}={bad}"]) == 2
        assert capsys.readouterr().err == (f"error: {name}: beyond {ceiling:g} "
                                           "in SI units (Hz or s)\n")

    @pytest.mark.parametrize("flag", [f for f in TYPED_FLAGS
                                      if rules(f[1]).get("kind") is int], ids=flag_id)
    def test_a_count_beyond_the_float_range_names_the_flag(self, capsys, flag):
        # used to end in an OverflowError traceback
        prefix, action = flag
        name = action.option_strings[0]
        assert cli.main([*prefix, f"{name}=1{'0' * 400}"]) == 2
        assert capsys.readouterr().err == f"error: {name}: must be a finite number\n"


class TestOverflowNamesItsSource:
    """Values finite as given whose address, SI value or grid span overflows:
    each exits 2 naming its flag, or i_dc, before numpy warns, and writes no
    file.  All used to print a numpy RuntimeWarning first, and the current
    cases to exit 0 writing inf or nan.  The one field pass refuses an address
    beyond 1e15 Hz, so an overflowing one is refused by that rule."""

    def run(self, argv, out, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(argv) == 2
        assert not list(out.parent.glob(out.name + "*"))
        return capsys.readouterr().err

    def test_address_map_current_whose_addresses_overflow(self, demo_config, tmp_path,
                                                          capsys):
        out = tmp_path / "a.csv"
        err = self.run(["address-map", "--config", demo_config, "--idc-ma", "1e306",
                        "--out", str(out)], out, capsys)
        assert err == "error: address beyond 1e+15 Hz at i_dc=1e+303 A\n"

    @pytest.mark.parametrize("window", [[], ["--f-min-ghz", "2.99", "--f-max-ghz", "3.01"]],
                             ids=["default-window", "given-window"])
    def test_config_current_whose_addresses_overflow(self, demo_config, tmp_path, capsys,
                                                     window):
        doc = json.loads(Path(demo_config).read_text())
        doc["drive"]["i_dc_ma"] = 1e306
        config, out = tmp_path / "big.json", tmp_path / "odmr.csv"
        config.write_text(json.dumps(doc))
        err = self.run(["simulate", "odmr", "--config", str(config), *window,
                        "--out", str(out)], out, capsys)
        assert err == "error: address beyond 1e+15 Hz at i_dc=1e+303 A\n"

    @pytest.mark.parametrize("command, argv, message", [
        (["simulate", "odmr"], ["--f-min-ghz", "1e300", "--f-max-ghz", "1.7e308"],
         "--f-min-ghz: too large to convert to SI units"),
        (["crosstalk-map"], ["--idc-ma", "0", "--target-u-um", "1.5", "--u-min-um=-1e308",
                             "--u-max-um", "1e308", "--nu", "3"],
         "--u-min-um/--u-max-um: the span hi - lo must be finite"),
        (["sweep"], ["--target-site", "nv-b", "--idle-site", "nv-c",
                     "--delta-range=-1e308:1e308:3", "--amp-range", "0.9:1.1:5"],
         "--delta-range: too large to convert to SI units"),
    ], ids=["odmr", "crosstalk-map", "sweep"])
    def test_grid_that_overflows_names_its_flag(self, demo_config, close_pair_config,
                                                tmp_path, capsys, command, argv, message):
        out = tmp_path / "o.csv"
        if command == ["sweep"]:
            pulse = tmp_path / "pulse.csv"
            write_pulse(pulse, rect_pi_pulse(1e6, m=4))
            given = ["--config", close_pair_config, "--pulse", str(pulse), "--out", str(out)]
        else:
            given = ["--config", demo_config,
                     "--out-prefix" if command == ["crosstalk-map"] else "--out", str(out)]
        err = self.run([*command, *given, *argv], out, capsys)
        assert err == f"error: {message}\n"


    @pytest.mark.parametrize("command, argv, flag", [
        (["simulate", "rabi"], ["--rabi-mhz", "1e300"], "--rabi-mhz"),
        (["simulate", "rabi"], ["--delta-mhz", "1e290"], "--delta-mhz"),
        (["simulate", "odmr"], ["--f-min-ghz", "1e290", "--f-max-ghz", "1e291"],
         "--f-min-ghz"),
        (["sweep"], ["--target-site", "nv-b", "--idle-site", "nv-c",
                     "--delta-range=1e301:1e302:2", "--amp-range", "0.9:1.1:5"],
         "--delta-range"),
        (["optimize"], ["--steps", "2", "--duration", "1e300"], "--duration"),
        (["optimize"], ["--steps", "2", "--duration", "1e200"], "--duration"),
    ], ids=["rabi-rate", "rabi-detuning", "odmr", "sweep", "optimize", "optimize-1e200"])
    def test_a_value_beyond_the_ceiling_names_its_flag(self, demo_config, close_pair_config,
                                                       tmp_path, capsys, command, argv,
                                                       flag):
        # each used to print numpy RuntimeWarnings; the simulations then exited
        # 2 blaming a CSV column holding NaN, and optimize exited 3 writing a
        # pulse whose t_ns column was inf
        out = tmp_path / "o"
        if command == ["sweep"]:
            pulse = tmp_path / "pulse.csv"
            write_pulse(pulse, rect_pi_pulse(1e6, m=4))
            given = ["--config", close_pair_config, "--pulse", str(pulse), "--out", str(out)]
        elif command == ["optimize"]:
            given = ["--config", close_pair_config, "--target-site", "nv-b",
                     "--idle-site", "nv-c", "--out-pulse", f"{out}.csv",
                     "--out-trace", f"{out}.jsonl"]
        else:
            given = ["--config", demo_config, "--out", str(out)]
        err = self.run([*command, *given, *argv], out, capsys)
        assert err == f"error: {flag}: beyond 1e+15 in SI units (Hz or s)\n"

    @pytest.mark.parametrize("command, argv", [
        (["simulate", "odmr"], ["--f-min-ghz=-1e6", "--f-max-ghz", "1e6",
                                "--probe-rabi-mhz", "1e-300"]),
        (["crosstalk-map"], ["--idc-ma", "0", "--target-u-um", "1.5", "--u-min-um=-4",
                             "--u-max-um", "4", "--nu", "3", "--rabi-mhz", "1e-300"]),
    ], ids=["odmr", "crosstalk-map"])
    def test_a_rate_whose_pi_pulse_passes_the_ceiling_names_its_flag(
            self, demo_config, tmp_path, capsys, command, argv):
        # a pi pulse lasts 1/(2 rate), 5e293 s at 1e-300 MHz: both used to
        # print numpy RuntimeWarnings, then blame a CSV column or an epsilon
        out = tmp_path / "o"
        given = ["--config", demo_config,
                 "--out-prefix" if command == ["crosstalk-map"] else "--out", str(out)]
        err = self.run([*command, *given, *argv], out, capsys)
        assert err == f"error: {argv[-2]}: must be >= 5e-22\n"


class TestValuesAtTheCeiling:
    """Rates of 1e15 Hz and durations of 1e15 s, the ceiling of each, run
    without a numpy warning and write finite numbers."""

    @staticmethod
    def run(argv, code=0):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(argv) == code

    def assert_finite(self, path):
        rows = read_csv(path)
        assert rows and all(math.isfinite(float(v)) for row in rows
                            for k, v in row.items() if k not in ("site", "bound"))

    def test_simulations(self, demo_config, tmp_path):
        given = ["--config", demo_config, "--points", "7", "--out"]
        for kind, argv in [
            ("rabi", ["--rabi-mhz=-1e9", "--delta-mhz=1e9", "--t-max-ns", "1e24"]),
            ("ramsey", ["--delta-mhz=-1e9", "--tau-max-us", "1e21"]),
            ("odmr", ["--f-min-ghz=-1e6", "--f-max-ghz", "1e6",
                      "--probe-rabi-mhz", "1e9", "--linewidth-mhz", "1e9"]),
        ]:
            self.run(["simulate", kind, *given, str(tmp_path / f"{kind}.csv"), *argv])
            self.assert_finite(tmp_path / f"{kind}.csv")

    def test_crosstalk_map(self, demo_config, tmp_path):
        self.run(["crosstalk-map", "--config", demo_config, "--idc-ma", "150",
                  "--target-u-um", "1.5", "--rabi-mhz", "1e9", "--u-min-um=-4",
                  "--u-max-um", "4", "--nu", "5", "--out-prefix", str(tmp_path / "x")])
        self.assert_finite(tmp_path / "x_idc150ma.csv")

    def test_optimize_and_sweep(self, close_pair_config, tmp_path):
        # so long a pulse cannot be descended (exit 3), but its files are finite
        pulse = tmp_path / "pulse.csv"
        sites = ["--config", close_pair_config, "--target-site", "nv-b", "--idle-site", "nv-c"]
        self.run(["optimize", *sites, "--steps", "7", "--duration", "1e15",
                  "--restarts", "2", "--out-pulse", str(pulse),
                  "--out-trace", str(tmp_path / "trace.jsonl")], code=3)
        self.assert_finite(pulse)
        self.run(["sweep", *sites, "--pulse", str(pulse), "--delta-range=-1e9:1e9:3",
                  "--amp-range", "0.9:1.1:2", "--out", str(tmp_path / "sweep.csv")])
        self.assert_finite(tmp_path / "sweep.csv")

    def test_least_rates(self, demo_config, tmp_path):
        # 5e-22 MHz gives a pi pulse of 1e15 s, the ceiling of a duration
        self.run(["simulate", "odmr", "--config", demo_config, "--points", "7",
                  "--f-min-ghz=-1e6", "--f-max-ghz", "1e6", "--probe-rabi-mhz", "5e-22",
                  "--out", str(tmp_path / "odmr.csv")])
        self.assert_finite(tmp_path / "odmr.csv")
        self.run(["crosstalk-map", "--config", demo_config, "--idc-ma", "0",
                  "--target-u-um", "1.5", "--rabi-mhz", "5e-22", "--u-min-um=-4",
                  "--u-max-um", "4", "--nu", "3", "--out-prefix", str(tmp_path / "x")])
        self.assert_finite(tmp_path / "x_idc0ma.csv")

    def test_pulse_file_at_the_ceiling(self, close_pair_config, tmp_path):
        # amplitudes of 1e9 MHz and steps of 1e15 s, swept at scales up to 1
        pulse = tmp_path / "pulse.csv"
        pulse.write_text("t_ns,i_mhz,q_mhz\n1e24,1e9,-1e9\n2e24,-1e9,1e9\n3e24,1e9,1e9\n")
        sites = ["--config", close_pair_config, "--pulse", str(pulse)]
        self.run(["simulate", "pulse", *sites, "--out", str(tmp_path / "eps.csv")])
        self.assert_finite(tmp_path / "eps.csv")
        self.run(["sweep", *sites, "--target-site", "nv-b", "--idle-site", "nv-c",
                  "--delta-range=-1e9:1e9:3", "--amp-range=-1:1:3",
                  "--out", str(tmp_path / "sweep.csv")])
        self.assert_finite(tmp_path / "sweep.csv")


class TestNaNIsNeverWritten:
    """Finite inputs whose dynamics would overflow to NaN.  A pulse file's
    amplitudes, `--amp-range` products, a config's carrier and every detuning
    the pulse commands form beyond the ceiling exit 2 naming their line, flag,
    field or site before any simulation, with no numpy warning; the one CSV
    writer's NaN check stays behind them.  None writes a file.  Each used to
    exit 0 writing nan."""

    def run(self, argv, out, capsys):
        """stderr and the warning categories of a command that exits 2."""
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli.main([*argv, "--out", str(out)]) == 2
        assert not out.exists()
        return capsys.readouterr().err, [w.category for w in caught]

    def test_simulate_pulse(self, close_pair_config, tmp_path, capsys):
        pulse, out = tmp_path / "big.csv", tmp_path / "eps.csv"
        pulse.write_text("t_ns,i_mhz,q_mhz\n50,1e300,0\n100,1e300,0\n")
        err, warned = self.run(["simulate", "pulse", "--config", close_pair_config,
                                "--pulse", str(pulse)], out, capsys)
        assert (err, warned) == ("error: line 2: amplitude beyond 1e+09 MHz\n", [])

    def test_sweep(self, close_pair_config, close_pair_run, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        err, warned = self.run(["sweep", "--config", close_pair_config,
                                "--pulse", str(close_pair_run[0]),
                                "--target-site", "nv-b", "--idle-site", "nv-c",
                                "--delta-range=-0.2:0.2:3", "--amp-range", "1e300:1e301:2"],
                               out, capsys)
        assert (err, warned) == ("error: --amp-range: scaled pulse beyond 1e+15 Hz\n", [])

    @staticmethod
    def pulse_commands(close_pair_config, drive, tmp_path, capsys):
        """(stderr, warning categories) of `simulate pulse`, `sweep` and
        `optimize` on the close pair with `drive` merged into its config; each
        must exit 2 and write no file."""
        doc = json.loads(Path(close_pair_config).read_text())
        doc["drive"].update(drive)
        config, pulse = tmp_path / "far.json", tmp_path / "p.csv"
        config.write_text(json.dumps(doc))
        write_pulse(pulse, rect_pi_pulse(1e6, m=4))
        sites = ["--target-site", "nv-b", "--idle-site", "nv-c"]
        out = str(tmp_path / "out.csv")
        results = []
        for argv in (["simulate", "pulse", "--pulse", str(pulse), "--out", out],
                     ["sweep", "--pulse", str(pulse), *sites, "--delta-range", "0:0:1",
                      "--amp-range", "1:1:1", "--out", out],
                     ["optimize", *sites, "--steps", "4", "--out-pulse", out,
                      "--out-trace", str(tmp_path / "out.jsonl")]):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                assert cli.main([*argv, "--config", str(config)]) == 2
            assert sorted(p.name for p in tmp_path.iterdir()) == ["far.json", "p.csv"]
            results.append((capsys.readouterr().err, [w.category for w in caught]))
        return results

    def test_config_carrier_far_from_every_address(self, close_pair_config, tmp_path,
                                                    capsys):
        # used to overflow where the steps are built: numpy warned, `simulate
        # pulse` refused a NaN column, and `sweep` and `optimize` blamed
        # --idle-site, as both detunings rounded to the same -1e308 Hz
        results = self.pulse_commands(close_pair_config, {"carrier_ghz": 1e299},
                                      tmp_path, capsys)
        assert results == [("error: drive.carrier_ghz: 1e+299 GHz, beyond 1e+06 GHz\n",
                            [])] * 3

    def test_address_far_from_the_carrier_names_its_site(self, close_pair_config,
                                                          tmp_path, capsys):
        # a finite address 4e295 Hz away: `optimize` used to exit 3 writing
        # its files, the other two refused a NaN column after numpy warnings.
        # The field pass now refuses the address itself, beyond 1e15 Hz, so
        # the message names i_dc, as every address reader's does
        results = self.pulse_commands(close_pair_config, {"i_dc_ma": 1e290}, tmp_path,
                                      capsys)
        assert results == [("error: address beyond 1e+15 Hz at i_dc=1e+287 A\n", [])] * 3


class TestOneAddressRange:
    """Every command that reads an address gets it from the one field pass,
    which refuses one beyond 1e15 Hz naming i_dc: each exits 2 with that one
    stderr line, no numpy warning and no file."""

    @pytest.mark.parametrize("command, argv, drive, i_dc", [
        (["address-map"], ["--idc-ma", "1e300", "--out"], {}, "1e+297"),
        (["crosstalk-map"], ["--idc-ma", "1e300", "--target-u-um", "1.5", "--u-min-um",
                             "0", "--u-max-um", "3", "--nu", "4", "--out-prefix"],
         {}, "1e+297"),
        (["simulate", "odmr"], ["--out"], {"i_dc_ma": 1e290}, "1e+287"),
    ], ids=["address-map", "crosstalk-map", "odmr"])
    def test_address_beyond_the_ceiling_names_i_dc(self, demo_config, tmp_path, capsys,
                                                   command, argv, drive, i_dc):
        # address-map used to exit 0 writing nv-b at 4.05e296 GHz; crosstalk-map
        # and odmr printed numpy warnings, then blamed "epsilon out of [0, 1] at
        # g0000" and "column 'contrast' holds NaN"
        doc = json.loads(Path(demo_config).read_text())
        doc["drive"].update(drive)
        config = tmp_path / "register.json"
        config.write_text(json.dumps(doc))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main([*command, "--config", str(config), *argv,
                             str(tmp_path / "out")])
        assert code == 2
        assert [p.name for p in tmp_path.iterdir()] == ["register.json"]
        err = capsys.readouterr().err
        assert err == f"error: address beyond 1e+15 Hz at i_dc={i_dc} A\n"


class TestFlagErrors:
    @pytest.mark.parametrize("given, missing", [
        ("--f-min-ghz", "--f-max-ghz"),
        ("--f-max-ghz", "--f-min-ghz"),
    ])
    def test_half_an_odmr_window_is_a_usage_error(self, demo_config, tmp_path, capsys,
                                                  given, missing):
        # used to scan the default window around the first site, exit 0
        out = tmp_path / "o.csv"
        code = cli.main(["simulate", "odmr", "--config", demo_config, given, "3.01",
                         "--points", "5", "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and missing in err
        assert not out.exists()

    def test_unknown_ramsey_site_names_the_flag(self, demo_config, tmp_path, capsys):
        out = tmp_path / "o.csv"
        code = cli.main(["simulate", "ramsey", "--config", demo_config, "--site", "nope",
                         "--points", "5", "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == "error: --site: unknown site id 'nope'\n"
        assert not out.exists()

    @staticmethod
    def site_argv(command, config, tmp_path, target, idle):
        pulse_path = tmp_path / "in.csv"
        write_pulse(pulse_path, rect_pi_pulse(1e6, m=4))
        outs = {"optimize": ["--out-pulse", str(tmp_path / "o.csv"),
                             "--out-trace", str(tmp_path / "o.jsonl")],
                "sweep": ["--pulse", str(pulse_path), "--delta-range", "0:0:1",
                          "--amp-range", "1:1:1", "--out", str(tmp_path / "o.csv")]}
        return [command, "--config", config, "--target-site", target,
                "--idle-site", idle, *outs[command]]

    @pytest.mark.parametrize("command", ["optimize", "sweep"])
    def test_target_as_idle_site_names_the_flag_and_the_site(
            self, close_pair_config, tmp_path, capsys, command):
        # used to print "idle detunings must differ from the target's"
        argv = self.site_argv(command, close_pair_config, tmp_path, "nv-b", "nv-b")
        assert cli.main(argv) == 2
        assert capsys.readouterr().err.startswith("error: --idle-site: site 'nv-b' ")
        assert not list(tmp_path.glob("o*"))

    @pytest.mark.parametrize("command", ["optimize", "sweep"])
    def test_repeated_idle_site_names_the_flag_and_the_site(
            self, close_pair_config, tmp_path, capsys, command):
        # used to count nv-c twice: two equal eps_j, sum(eps_j) doubled in f and tol
        argv = self.site_argv(command, close_pair_config, tmp_path, "nv-b", "nv-c")
        assert cli.main([*argv, "--idle-site", "nv-c"]) == 2
        assert capsys.readouterr().err == "error: --idle-site: site 'nv-c' given twice\n"
        assert not list(tmp_path.glob("o*"))

    @pytest.mark.parametrize("command", ["optimize", "sweep"])
    @pytest.mark.parametrize("target, idle, flag", [
        ("nope", "nv-c", "--target-site"),
        ("nv-b", "nope", "--idle-site"),
    ], ids=["target", "idle"])
    def test_unknown_site_names_its_flag(self, close_pair_config, tmp_path, capsys,
                                         command, target, idle, flag):
        code = cli.main(self.site_argv(command, close_pair_config, tmp_path, target, idle))
        assert code == 2
        assert capsys.readouterr().err == f"error: {flag}: unknown site id 'nope'\n"
        assert not list(tmp_path.glob("o*"))

    @pytest.mark.parametrize("flag, spec", [
        ("--delta-range", "0:1:0"),
        ("--amp-range", "1:1:0"),
        ("--amp-range", "1:1:-3"),
    ], ids=["delta-zero", "amp-zero", "amp-negative"])
    def test_range_count_below_one_exits_2_and_names_the_flag(
            self, close_pair_config, tmp_path, capsys, flag, spec):
        # used to be a usage error, "needs n >= 1" (exit 1), unlike every count flag
        pulse_path = tmp_path / "in.csv"
        write_pulse(pulse_path, rect_pi_pulse(1e6, m=4))
        ranges = {"--delta-range": "0:0:1", "--amp-range": "1:1:1", flag: spec}
        out = tmp_path / "o.csv"
        code = cli.main(["sweep", "--config", close_pair_config, "--pulse", str(pulse_path),
                         "--target-site", "nv-b", "--idle-site", "nv-c",
                         *(f"{name}={value}" for name, value in ranges.items()),
                         "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == f"error: {flag}: must be >= 1\n"
        assert not out.exists()


class TestSimulateKinds:
    """Each `simulate` kind declares only the flags it reads."""

    FLAGS = {
        "rabi": ["--config", "--out", "--points", "--rabi-mhz", "--delta-mhz",
                 "--t-max-ns"],
        "ramsey": ["--config", "--out", "--points", "--delta-mhz", "--tau-max-us",
                   "--site"],
        "odmr": ["--config", "--out", "--points", "--f-min-ghz", "--f-max-ghz",
                 "--probe-rabi-mhz", "--linewidth-mhz"],
        "pulse": ["--config", "--out", "--pulse"],
    }

    def test_each_kind_declares_only_its_own_flags(self):
        [simulate] = [p for name, p in subcommands(cli.build_parser())
                      if name == "simulate"]
        kinds = dict(subcommands(simulate))
        assert list(kinds) == list(self.FLAGS)
        for kind, parser in kinds.items():
            flags = [a.option_strings[0] for a in parser._actions
                     if a.option_strings and a.dest != "help"]
            assert flags == self.FLAGS[kind]
            assert set(re.findall(r"--[\w-]+", parser.format_help())) == {
                "--help", *self.FLAGS[kind]}

    @pytest.mark.parametrize("kind, extra", [
        ("rabi", ["--site", "nope", "--pulse", "nofile.csv", "--f-min-ghz", "1"]),
        ("rabi", ["--tau-max-us", "8"]),
        ("ramsey", ["--rabi-mhz", "nan"]),
        ("odmr", ["--delta-mhz", "3"]),
        ("pulse", ["--points", "0"]),
    ], ids=["rabi-others", "rabi-tau", "ramsey-rabi-nan", "odmr-delta", "pulse-points"])
    def test_another_kinds_flag_is_a_usage_error(self, demo_config, tmp_path, capsys,
                                                 kind, extra):
        # the first used to exit 0 and write the Rabi curve
        pulse_path = tmp_path / "in.csv"
        write_pulse(pulse_path, rect_pi_pulse(1e6, m=4))
        out = tmp_path / "o.csv"
        given = ["--pulse", str(pulse_path)] if kind == "pulse" else []
        code = cli.main(["simulate", kind, "--config", demo_config, *given, *extra,
                         "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: unrecognized arguments: ")
        assert extra[0] in err
        assert not out.exists()


def command_argvs(demo, pair, pulse, out):
    """A small run of every command and `simulate` kind, by its name."""
    return {
        "address-map": ["--config", demo, "--idc-ma", "150", "--out", out],
        "simulate rabi": ["--config", demo, "--points", "3", "--out", out],
        "simulate ramsey": ["--config", demo, "--points", "3", "--out", out],
        "simulate odmr": ["--config", demo, "--points", "3", "--out", out],
        "simulate pulse": ["--config", pair, "--pulse", pulse, "--out", out],
        "optimize": ["--config", pair, "--target-site", "nv-b", "--idle-site", "nv-c",
                     "--steps", "4", "--duration", "1e-7", "--out-pulse", out,
                     "--out-trace", out + ".jsonl"],
        "crosstalk-map": ["--config", demo, "--idc-ma", "150", "--target-u-um", "1.5",
                          "--u-min-um", "0", "--u-max-um", "1", "--nu", "3",
                          "--out-prefix", out],
        "sweep": ["--config", pair, "--pulse", pulse, "--target-site", "nv-b",
                  "--idle-site", "nv-c", "--delta-range", "0:0:1", "--amp-range",
                  "1:1:1", "--out", out],
    }


class TestOneConfigLoad:
    def test_every_command_is_covered(self):
        names = [f"{name} {kind}" if kind else name
                 for name, command in subcommands(cli.build_parser())
                 for kind in ([k for k, _ in subcommands(command)] or [None])]
        assert sorted(names) == sorted(command_argvs("", "", "", ""))

    @pytest.mark.parametrize("command", list(command_argvs("", "", "", "")))
    def test_each_command_loads_its_config_once(self, demo_config, close_pair_config,
                                                tmp_path, monkeypatch, command):
        load, calls = cli.load_config, []

        def counted(path):
            calls.append(path)
            return load(path)

        monkeypatch.setattr(cli, "load_config", counted)
        pulse = tmp_path / "pulse.csv"
        write_pulse(pulse, rect_pi_pulse(1e7, m=4))
        argv = command_argvs(demo_config, close_pair_config, str(pulse),
                             str(tmp_path / "o"))[command]
        assert cli.main([*command.split(), *argv]) in (0, 4)
        assert calls == [argv[argv.index("--config") + 1]]


class TestOptimizeArtifacts:
    ROWS = (TraceRow(0, 1.25, 0.5, (0.5, 0.25), 0.5, 0.0),
            TraceRow(1, 0.75, 0.625, (0.125, 0.0625), 0.1875, 3e-9))

    def test_trace_keys_are_the_trace_row_fields_in_order(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        cli._write_trace(path, OptimizationTrace(self.ROWS, 0, "max_iters"))
        lines = path.read_text().splitlines()
        names = [f.name for f in dataclasses.fields(TraceRow)]
        for line, row in zip(lines, self.ROWS, strict=True):
            obj = json.loads(line)
            assert list(obj) == names
            assert obj == {**vars(row), "eps_j": list(row.eps_j)}

    def test_divergence_writes_what_a_missed_tolerance_writes(
            self, close_pair_config, tmp_path, monkeypatch, capsys):
        best = rect_pi_pulse(1e6, m=4)
        trace = OptimizationTrace(self.ROWS, 0, "diverged")

        def diverged(scenario, config):
            raise Diverged("stalled", pulse=best, trace=trace)

        files, errs = {}, {}
        for code, fake in ((3, diverged), (4, lambda scenario, config: (best, trace))):
            monkeypatch.setattr(cli, "optimize", fake)
            pulse_path, trace_path = tmp_path / f"p{code}.csv", tmp_path / f"t{code}.jsonl"
            assert cli.main([
                "optimize", "--config", close_pair_config,
                "--target-site", "nv-b", "--idle-site", "nv-c",
                "--out-pulse", str(pulse_path), "--out-trace", str(trace_path),
            ]) == code
            files[code] = pulse_path.read_bytes(), trace_path.read_bytes()
            errs[code] = capsys.readouterr().err
        assert files[3] == files[4]
        assert len(files[3][1].splitlines()) == 2
        assert errs[3] == "error: stalled\n"
        assert errs[4].startswith("warning: tolerance missed: ")
        assert errs[4].endswith("stopped: diverged\n")
