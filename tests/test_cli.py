import csv
import json

import numpy as np
import pytest

import spinmux.cli as cli
from spinmux import (
    Diverged,
    OptimizationTrace,
    PulseProgram,
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

    def test_divergence_exit_code_still_writes_artifacts(self, close_pair_config,
                                                         tmp_path, monkeypatch):
        best = rect_pi_pulse(1e6, m=4)
        trace = OptimizationTrace(
            rows=(TraceRow(0, 1.0, 0.0, (0.0,), 0.0, 0.0),),
            converged=False, restart=0,
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


class TestSweepCommand:
    def test_nominal_point_matches_pulse_simulation(self, close_pair_config, tmp_path):
        pulse_path = tmp_path / "p.csv"
        write_pulse(pulse_path, rect_pi_pulse(1e6, m=20))
        sweep_out = tmp_path / "sweep.csv"
        code = cli.main([
            "sweep", "--config", close_pair_config, "--pulse", str(pulse_path),
            "--target-site", "nv-b", "--idle-site", "nv-c",
            "--delta-range", "0:0:1", "--amp-range", "1:1:1",
            "--out", str(sweep_out),
        ])
        assert code == 0
        [row] = read_csv(sweep_out)
        assert float(row["offset_mhz"]) == 0.0
        assert float(row["scale"]) == 1.0

        eps_out = tmp_path / "eps.csv"
        code = cli.main(["simulate", "pulse", "--config", close_pair_config,
                         "--pulse", str(pulse_path), "--out", str(eps_out)])
        assert code == 0
        eps = {r["site"]: float(r["eps"]) for r in read_csv(eps_out)}
        # the carrier sits on nv-b's address in this config, so the pulse-kind
        # epsilons are exactly the sweep's nominal target/spectator numbers
        assert float(row["eps_i"]) == pytest.approx(eps["nv-b"], abs=1e-12)
        assert float(row["eps_j"]) == pytest.approx(eps["nv-c"], abs=1e-12)

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
        assert capsys.readouterr().err.startswith("error: --rabi-mhz: must be > 0")
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
