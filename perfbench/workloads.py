"""The benchmark's three workloads: seeded inputs, the operation list of one
pass, and an output check for every operation.

A workload is built once per process (untimed set-up).  One pass runs its
operations in order; each operation returns its output and the checks run
after the pass, outside the timed region.  A check raises CheckFailed.
Sizes are fixed per workload and the seed chooses values only, so every seed
asks for the same amount of work.
"""

from __future__ import annotations

import csv
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

WORKLOADS = ("synth", "survey", "cli")

# "full" is the benchmark; "small" keeps every operation but shrinks its
# inputs so the smoke test finishes in about a minute.
SIZES = {
    "full": {
        "synth_tasks": 6, "synth_iters": 20, "synth_restarts": 2,
        "sites": 5, "currents": 8, "curve_points": 601, "odmr_points": 401,
        "grid": (40, 25), "pulses": ((1500, 1), (2000, 4), (3000, 2)),
        "sweep": (5, 3), "cli_points": 601, "cli_nu": 65, "cli_sweep": (21, 5),
    },
    "small": {
        "synth_tasks": 2, "synth_iters": 2, "synth_restarts": 2,
        "sites": 3, "currents": 2, "curve_points": 11, "odmr_points": 9,
        "grid": (3, 2), "pulses": ((40, 1), (60, 2)),
        "sweep": (3, 3), "cli_points": 11, "cli_nu": 5, "cli_sweep": (3, 3),
    },
}

# Synthesis tasks in the README regime: 200 steps over 10 us, lambda 1e-9,
# hyperfine triplet on.  tol=0 makes every restart run exactly synth_iters
# descent iterations: with the README tolerance the time per task is
# heavy-tailed (see perfbench/README.md), so a pass would not be the same
# amount of work on every seed.  Convergence is judged against README_TOL.
SYNTH_M = 200
SYNTH_DT = 10e-6 / SYNTH_M
SYNTH_LAMBDA = 1e-9
README_TOL = 1e-3
# Agreement required between the optimizer's trace and an independent
# re-evaluation of its pulse through dynamics.evolve.
EPS_AGREEMENT = 1e-9

# Addresses the README lists for the demo register at 150 mA, by site id.
README_ADDRESSES_GHZ = {"nv-a": 3.000, "nv-b": 3.061, "nv-c": 3.130,
                        "nv-d": 3.160, "nv-e": 3.170}

# Two evaluations of the same quantity may round differently once a kernel
# reorders its sums; they must still agree to this much.
ROUNDING = 1e-12


class CheckFailed(Exception):
    """An operation's output failed its check."""


@dataclass
class Op:
    key: str                               # unique within a pass
    name: str                              # span name, "<layer>.<function>"
    call: Callable[[dict], object]         # gets the outputs so far, by key
    check: Callable[[object, dict], None]  # raises CheckFailed


@dataclass
class Workload:
    ops: list
    warm_up: Callable[[], None]
    # filled in by synth checks: task index -> met README_TOL
    converged: dict = field(default_factory=dict)


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def build(name: str, seed: int, size: str, workdir: str) -> Workload:
    by_name = {"synth": _synth, "survey": _survey, "cli": _cli}
    return by_name[name](seed, SIZES[size], workdir)


# --------------------------------------------------------------------- synth

def evolve_eps(pulse, scenario):
    """(eps_i, eps_j) of a pulse, one dynamics.evolve per hyperfine member."""
    import spinmux as smx

    ground = smx.QubitState.ground()
    offsets = scenario.manifold.detuning_offsets

    def members(delta):
        return [smx.evolve(pulse, delta + off) for off in offsets]

    eps_i = float(np.mean([u.apply(ground).population_excited
                           for u in members(scenario.target_detuning)]))
    eps_j = tuple(float(np.mean([smx.state_error(u, ground) for u in members(d)]))
                  for d in scenario.idle_detunings)
    return eps_i, eps_j


def _check_eps(eps_i, eps_j, ref_i, ref_j, what):
    expect(len(eps_j) == len(ref_j), f"{what}: spectator count")
    expect(abs(eps_i - ref_i) <= EPS_AGREEMENT,
           f"{what}: eps_i {eps_i!r} vs evolve {ref_i!r}")
    for got, ref in zip(eps_j, ref_j):
        expect(abs(got - ref) <= EPS_AGREEMENT,
               f"{what}: eps_j {got!r} vs evolve {ref!r}")


def synth_tasks(seed: int, n_tasks: int, iters: int, restarts: int):
    """Seeded selective-pulse tasks: 1-3 spectators at 0.9-2.5 MHz, either
    sign, cycling the spectator count so every seed has the same mix."""
    import spinmux as smx

    rng = np.random.default_rng([seed, 1])
    tasks = []
    for k in range(n_tasks):
        n = 1 + k % 3
        detunings = rng.uniform(0.9e6, 2.5e6, n) * rng.choice([-1.0, 1.0], n)
        scenario = smx.ControlScenario(idle_detunings=tuple(detunings))
        config = smx.OptimizerConfig(
            m=SYNTH_M, dt=SYNTH_DT, lam=SYNTH_LAMBDA, max_iters=iters,
            restarts=restarts, tol=0.0, seed=int(rng.integers(2**31)))
        tasks.append((scenario, config))
    return tasks


def _synth(seed, size, workdir):
    import spinmux as smx

    tasks = synth_tasks(seed, size["synth_tasks"], size["synth_iters"],
                        size["synth_restarts"])

    def warm_up():
        scenario = smx.ControlScenario(idle_detunings=(1.1e6,))
        smx.optimize(scenario, smx.OptimizerConfig(
            m=SYNTH_M, dt=SYNTH_DT, lam=SYNTH_LAMBDA, max_iters=3, tol=0.0))

    workload = Workload([], warm_up)

    def task_op(k, scenario, config):
        def check(result, _):
            pulse, trace = result
            expect(len(pulse.steps) == config.m, "pulse length")
            i_amps, q_amps = pulse.amplitudes()
            expect(bool(np.all(np.abs(i_amps) <= config.max_amp)
                        and np.all(np.abs(q_amps) <= config.max_amp)),
                   "amplitude clamp")
            last = trace.rows[-1]
            eps_i, eps_j = evolve_eps(pulse, scenario)
            _check_eps(last.eps_i, last.eps_j, eps_i, eps_j, f"task {k}")
            workload.converged[k] = (1.0 - eps_i) + sum(eps_j) <= README_TOL

        return Op(f"optimize[{k}]", "synthesis.optimize",
                  lambda _: smx.optimize(scenario, config), check)

    workload.ops = [task_op(k, s, c) for k, (s, c) in enumerate(tasks)]
    return workload


# -------------------------------------------------------------------- survey

def smooth_pulse(rng, m: int, duration: float):
    """A smooth, roughly pi-area I/Q waveform: sin^2 envelope times a few
    random low Fourier modes."""
    import spinmux as smx

    t = (np.arange(m) + 0.5) / m
    envelope = np.sin(math.pi * t) ** 2
    i_shape = np.ones(m)
    q_shape = np.zeros(m)
    for k in (1, 2, 3):
        i_shape += rng.uniform(-0.3, 0.3) * np.cos(2 * math.pi * k * t
                                                   + rng.uniform(0, 2 * math.pi))
        q_shape += rng.uniform(-0.3, 0.3) * np.sin(2 * math.pi * k * t
                                                   + rng.uniform(0, 2 * math.pi))
    amp = 1.0 / duration      # sin^2 averages 1/2, so the I area is about 1/2
    return smx.PulseProgram.from_arrays(amp * envelope * i_shape,
                                        amp * envelope * q_shape, duration / m)


def _survey(seed, size, workdir):
    import spinmux as smx

    rng = np.random.default_rng([seed, 2])
    cfg = smx.load_config(smx.demo_config_path())
    env = cfg.environment
    constants = env.constants
    us = np.sort(rng.uniform(0.0, 2.0e-6, size["sites"]))
    sites = tuple(smx.SpinSite(id=f"s{k}", position=np.array([u, 0.0, 0.0]))
                  for k, u in enumerate(us))
    ops = []

    def op(key, name, call, check):
        ops.append(Op(key, name, call, check))

    # wire calibration against a seeded shift at u = 2 um, 150 mA
    target_shift = rng.uniform(150e6, 190e6)
    point = np.array([2e-6, 0.0, 0.0])

    def check_calibration(wire, _):
        trial = smx.FieldEnvironment(env.b_ext, wire, constants)
        residual = smx.zeeman_shift(trial, 0.15, point) - target_shift
        expect(abs(residual) <= 1e3, f"calibrated shift off by {residual:.3g} Hz")

    op("calibrate", "fields.calibrate_wire",
       lambda _: smx.calibrate_wire(env, target_shift, 2e-6, 0.15),
       check_calibration)

    # address maps; the reference goes through zeeman_shift, not field_sample
    axis = smx.dipole_axis(smx.DipoleOrientation())
    b_ext_z, _ = smx.project_field(env.b_ext, axis)

    def address_op(k, i_dc):
        def check(result, _):
            ids = [e.site_id for e in result.entries]
            expect(ids == sorted(s.id for s in sites), "address map site ids")
            for entry, site in zip(result.entries, sorted(sites, key=lambda s: s.id)):
                ref = (constants.d_zfs + constants.gamma_nv * b_ext_z
                       + smx.zeeman_shift(env, i_dc, site.position))
                expect(abs(entry.omega_plus - ref) <= 1.0,
                       f"address of {site.id} at {i_dc:.4f} A")

        drive = smx.WireDrive(i_dc=i_dc, i_ac=cfg.drive.i_ac)
        op(f"address_map[{k}]", "fields.address_map",
           lambda _: smx.address_map(env, drive, sites), check)

    for k, i_dc in enumerate(np.sort(rng.uniform(0.0, 0.2, size["currents"]))):
        address_op(k, float(i_dc))

    # Rabi and Ramsey curves against their closed forms
    n_curve = size["curve_points"]
    rabi, rabi_delta = rng.uniform(5e6, 10e6), rng.uniform(0.0, 3e6)
    durations = np.linspace(0.0, 300e-9, n_curve)

    def check_rabi(pops, _):
        general = math.hypot(rabi, rabi_delta)
        ref = (rabi / general) ** 2 * np.sin(math.pi * general * durations) ** 2
        expect(pops.shape == ref.shape, "rabi length")
        expect(bool(np.all(np.abs(pops - ref) <= 1e-9)), "rabi vs closed form")

    op("rabi", "experiments.simulate_rabi",
       lambda _: smx.simulate_rabi(rabi, rabi_delta, durations), check_rabi)

    ramsey_delta, t2_star = rng.uniform(1e6, 4e6), rng.uniform(1e-6, 3e-6)
    taus = np.linspace(0.0, 8e-6, n_curve)

    def check_ramsey(signal, _):
        offsets = np.asarray(cfg.manifold.detuning_offsets)
        ref = (np.cos(2 * math.pi * np.outer(taus, ramsey_delta + offsets)).mean(axis=1)
               * np.exp(-taus / t2_star))
        expect(signal.shape == ref.shape, "ramsey length")
        expect(bool(np.all(np.abs(signal - ref) <= 1e-12)), "ramsey vs closed form")

    op("ramsey", "experiments.simulate_ramsey",
       lambda _: smx.simulate_ramsey(ramsey_delta, cfg.manifold, t2_star, taus),
       check_ramsey)

    # ODMR scan across every address of the register at the default drive
    addresses = [e.omega_plus for e in smx.address_map(env, cfg.drive, sites).entries]
    scan = np.linspace(min(addresses) - 5e6, max(addresses) + 5e6,
                       size["odmr_points"])

    def check_odmr(contrast, _):
        expect(contrast.shape == scan.shape, "odmr length")
        expect(bool(np.all(np.isfinite(contrast))), "odmr contrast not finite")
        expect(bool(np.all((contrast >= 0.0) & (contrast <= 1.0))),
               "odmr contrast outside [0, 1]")

    op("odmr", "experiments.simulate_odmr",
       lambda _: smx.simulate_odmr(env, cfg.drive, sites, 0.2e6, scan, 2e5),
       check_odmr)

    # 2-D crosstalk maps of a 10 MHz pi-pulse at 0 and 150 mA
    nu, nv = size["grid"]
    grid = [np.array([u, v, 0.0]) for u in np.linspace(-4e-6, 4e-6, nu)
            for v in np.linspace(-2e-6, 2e-6, nv)]
    target_u = rng.uniform(0.5e-6, 1.5e-6)

    def check_crosstalk(report, _):
        expect(len(report.entries) == len(grid), "crosstalk point count")
        for e in report.entries:
            expect(0.0 <= e.epsilon <= 1.0, f"epsilon out of [0, 1] at {e.site_id}")
            expect(e.epsilon <= e.bound,
                   f"epsilon {e.epsilon:.3g} above bound {e.bound:.3g} at {e.site_id}")

    for i_dc in (0.0, 0.15):
        op(f"crosstalk[{i_dc:g}]", "experiments.crosstalk_landscape",
           lambda _, i_dc=i_dc: smx.crosstalk_landscape(env, i_dc, target_u,
                                                        10e6, grid),
           check_crosstalk)

    # smooth long pulses: file round trip, cost and a sensitivity sweep
    n_off, n_scale = size["sweep"]
    half = n_off // 2
    offsets = [k * 0.1e6 for k in range(-half, half + 1)]
    scales = [1.0 + k * 0.05 for k in range(-(n_scale // 2), n_scale // 2 + 1)]
    for p, (m, n_spec) in enumerate(size["pulses"]):
        pulse = smooth_pulse(rng, m, rng.uniform(5e-6, 20e-6))
        scenario = smx.ControlScenario(idle_detunings=tuple(
            rng.uniform(0.9e6, 5e6, n_spec) * rng.choice([-1.0, 1.0], n_spec)))
        _pulse_ops(op, p, pulse, scenario, offsets, scales,
                   os.path.join(workdir, f"pulse{p}.csv"))

    def warm_up():
        smx.simulate_rabi(rabi, 0.0, durations[:5])
        smx.simulate_odmr(env, cfg.drive, sites[:1], 0.2e6, scan[:3], 2e5)
        smx.crosstalk_landscape(env, 0.15, target_u, 10e6, grid[:2])
        small = smooth_pulse(np.random.default_rng(0), 20, 1e-6)
        path = os.path.join(workdir, "warmup.csv")
        smx.write_pulse(path, small)
        scenario = smx.ControlScenario(idle_detunings=(1e6,))
        smx.cost(smx.read_pulse(path), scenario, SYNTH_LAMBDA)
        smx.sensitivity_sweep(small, scenario, [0.0], [1.0])

    return Workload(ops, warm_up)


def _pulse_ops(op, p, pulse, scenario, offsets, scales, path):
    import spinmux as smx

    reference = {}

    def evolve_reference():
        if not reference:
            reference["eps"] = evolve_eps(pulse, scenario)
        return reference["eps"]

    def check_write(_, __):
        with open(path) as fh:
            lines = fh.read().splitlines()
        expect(lines[0] == "t_ns,i_mhz,q_mhz", "pulse header")
        expect(len(lines) == len(pulse.steps) + 1, "pulse row count")

    def check_read(back, _):
        i0, q0 = pulse.amplitudes()
        i1, q1 = back.amplitudes()
        expect(i1.shape == i0.shape, "round trip length")
        # the README promises 1e-9 MHz
        expect(bool(np.all(np.abs(i1 - i0) <= 1e-3) and np.all(np.abs(q1 - q0) <= 1e-3)),
               "round trip amplitudes")
        expect(abs(back.dt - pulse.dt) <= 1e-9 * pulse.dt, "round trip dt")

    def check_cost(bd, _):
        ref_i, ref_j = evolve_reference()
        _check_eps(bd.eps_i, bd.eps_j, ref_i, ref_j, f"pulse {p} cost")

    def check_sweep(points, outputs):
        expect(len(points) == len(offsets) * len(scales), "sweep point count")
        bd = outputs[f"cost[{p}]"]
        centre = [q for q in points if q.delta_offset == 0.0 and q.amp_scale == 1.0]
        expect(len(centre) == 1, "sweep has no point at offset 0, scale 1")
        expect(abs(centre[0].eps_i - bd.eps_i) <= ROUNDING
               and all(abs(a - b) <= ROUNDING for a, b in zip(centre[0].eps_j, bd.eps_j)),
               "sweep at offset 0, scale 1 differs from cost")
        for q in points:
            expect(0.0 <= q.eps_i <= 1.0 and all(0.0 <= e <= 1.0 for e in q.eps_j),
                   "sweep eps outside [0, 1]")

    op(f"write[{p}]", "pulse_io.write_pulse",
       lambda _: smx.write_pulse(path, pulse), check_write)
    op(f"read[{p}]", "pulse_io.read_pulse", lambda _: smx.read_pulse(path), check_read)
    op(f"cost[{p}]", "synthesis.cost",
       lambda out: smx.cost(out[f"read[{p}]"], scenario, SYNTH_LAMBDA), check_cost)
    op(f"sweep[{p}]", "synthesis.sensitivity_sweep",
       lambda out: smx.sensitivity_sweep(out[f"read[{p}]"], scenario, offsets, scales),
       check_sweep)


# ----------------------------------------------------------------------- cli

def read_csv(path, header: str, rows: int):
    """Rows of a CLI output file after checking its header and row count."""
    with open(path, newline="") as fh:
        lines = list(csv.reader(fh))
    expect(bool(lines) and ",".join(lines[0]) == header, f"{path}: header")
    expect(len(lines) - 1 == rows, f"{path}: {len(lines) - 1} rows, expected {rows}")
    return lines[1:]


def _floats(rows, column):
    return np.array([float(r[column]) for r in rows])


def readme_commands(seed: int, size: dict, root: str, workdir: str):
    """The README workflow as (name, argv, check) with seeded parameters.

    The seed moves values that do not change the amount of work (Rabi rate,
    Ramsey detuning, ODMR window, crosstalk target); the optimize call is the
    README's, seed 0 included.
    """
    rng = np.random.default_rng([seed, 3])
    data = os.path.join(root, "src", "spinmux", "data")
    cfg = os.path.join(data, "demo_register.json")
    pair = os.path.join(data, "demo_close_pair.json")

    def out(name):
        return os.path.join(workdir, name)

    points = str(size["cli_points"])
    n_pts = size["cli_points"]
    nu = size["cli_nu"]
    n_delta, n_amp = size["cli_sweep"]
    window = rng.choice(sorted(README_ADDRESSES_GHZ.values()))

    def check_addresses():
        rows = read_csv(out("addresses.csv"), "site,u_um,f_ghz", 5)
        for site, _, f_ghz in rows:
            expect(abs(float(f_ghz) - README_ADDRESSES_GHZ[site]) <= 1e-3,
                   f"address of {site}: {f_ghz} GHz")

    def check_curve(name, header, lo, hi):
        def check():
            values = _floats(read_csv(out(name), header, n_pts), 1)
            expect(bool(np.all(np.isfinite(values))
                        and np.all((values >= lo) & (values <= hi))),
                   f"{name}: values outside [{lo}, {hi}]")
        return check

    def check_crosstalk():
        for idc in ("0", "150"):
            rows = read_csv(out(f"xtalk_idc{idc}ma.csv"), "u_um,v_um,epsilon,bound", nu)
            eps, bound = _floats(rows, 2), _floats(rows, 3)
            expect(bool(np.all((eps >= 0) & (eps <= 1) & (eps <= bound))),
                   f"crosstalk at {idc} mA above its bound")

    def final_trace_row():
        with open(out("trace.jsonl")) as fh:
            rows = [json.loads(line) for line in fh if line.strip()]
        expect(bool(rows), "empty trace")
        return rows[-1]

    def check_optimize():
        read_csv(out("pulse.csv"), "t_ns,i_mhz,q_mhz", 200)
        last = final_trace_row()
        expect(last["eps_i"] >= 0.99 and sum(last["eps_j"]) <= 0.01,
               f"optimize reached eps_i={last['eps_i']}, eps_j={last['eps_j']}")

    def check_pulse_eps():
        rows = dict(read_csv(out("eps.csv"), "site,eps", 2))
        last = final_trace_row()
        expect(abs(float(rows["nv-b"]) - last["eps_i"]) <= EPS_AGREEMENT
               and abs(float(rows["nv-c"]) - sum(last["eps_j"])) <= EPS_AGREEMENT,
               f"simulate pulse gave {rows}, the optimize trace ended at "
               f"eps_i={last['eps_i']}, eps_j={last['eps_j']}")

    def check_sweep():
        rows = read_csv(out("sweep.csv"), "offset_mhz,scale,eps_i,eps_j",
                        n_delta * n_amp)
        last = final_trace_row()
        centre = [r for r in rows if abs(float(r[0])) < 1e-9 and abs(float(r[1]) - 1) < 1e-9]
        expect(len(centre) == 1, "sweep has no centre point")
        expect(abs(float(centre[0][2]) - last["eps_i"]) <= EPS_AGREEMENT
               and abs(float(centre[0][3]) - sum(last["eps_j"])) <= EPS_AGREEMENT,
               "sweep centre differs from the optimize trace")

    return [
        ("address_map", ["address-map", "--config", cfg, "--idc-ma", "150",
                         "--out", out("addresses.csv")], check_addresses),
        ("simulate_rabi", ["simulate", "rabi", "--config", cfg,
                           "--rabi-mhz", f"{rng.uniform(5, 10):.6f}", "--t-max-ns", "300",
                           "--points", points, "--out", out("rabi.csv")],
         check_curve("rabi.csv", "t_ns,p1", 0.0, 1.0)),
        ("simulate_ramsey", ["simulate", "ramsey", "--config", cfg,
                             "--delta-mhz", f"{rng.uniform(2, 4):.6f}", "--tau-max-us", "8",
                             "--points", points, "--out", out("ramsey.csv")],
         check_curve("ramsey.csv", "tau_us,signal", -1.0, 1.0)),
        ("simulate_odmr", ["simulate", "odmr", "--config", cfg,
                           "--f-min-ghz", f"{window - 0.01:.6f}",
                           "--f-max-ghz", f"{window + 0.01:.6f}",
                           "--points", points, "--out", out("odmr.csv")],
         check_curve("odmr.csv", "f_ghz,contrast", 0.0, 1.0)),
        ("crosstalk_map", ["crosstalk-map", "--config", cfg, "--idc-ma", "0",
                           "--idc-ma", "150", "--target-u-um", f"{rng.uniform(0.5, 1.5):.6f}",
                           "--rabi-mhz", "10", "--u-min-um", "-4", "--u-max-um", "4",
                           "--nu", str(nu), "--out-prefix", out("xtalk")], check_crosstalk),
        ("optimize", ["optimize", "--config", pair, "--target-site", "nv-b",
                      "--idle-site", "nv-c", "--lambda", "1e-9", "--steps", "200",
                      "--duration", "10e-6", "--seed", "0", "--restarts", "5",
                      "--out-pulse", out("pulse.csv"), "--out-trace", out("trace.jsonl")],
         check_optimize),
        ("simulate_pulse", ["simulate", "pulse", "--config", pair,
                            "--pulse", out("pulse.csv"), "--out", out("eps.csv")],
         check_pulse_eps),
        ("sweep", ["sweep", "--config", pair, "--pulse", out("pulse.csv"),
                   "--target-site", "nv-b", "--idle-site", "nv-c",
                   f"--delta-range=-0.2:0.2:{n_delta}", f"--amp-range=0.9:1.1:{n_amp}",
                   "--out", out("sweep.csv")], check_sweep),
    ]


# A fresh command gets this long before it is killed and counted as failed.
COMMAND_TIMEOUT_S = 120


def run_command(argv, env=None):
    """Run `python -m spinmux argv` as a fresh process; returns (code, stderr)."""
    proc = subprocess.run([sys.executable, "-m", "spinmux", *argv], env=env,
                          capture_output=True, text=True, timeout=COMMAND_TIMEOUT_S)
    return proc.returncode, proc.stderr


def _cli(seed, size, workdir):
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

    def command_op(name, argv, check):
        def check_exit(result, _):
            code, stderr = result
            expect(code == 0, f"{name} exited {code}: {stderr.strip()[-300:]}")
            check()

        return Op(name, f"cli.{name}", lambda _: run_command(argv), check_exit)

    ops = [command_op(*c) for c in readme_commands(seed, size, root, workdir)]

    def warm_up():
        subprocess.run([sys.executable, "-c", "import spinmux"], check=True,
                       timeout=COMMAND_TIMEOUT_S)

    return Workload(ops, warm_up)
