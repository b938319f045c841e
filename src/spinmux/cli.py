"""Command-line workbench.

Subcommands turn a register config plus flags into plot-ready CSV/JSON files;
every CSV table goes through `pulse_io.write_csv`, so all numbers are written
alike ("%.17g"):

    spinmux address-map    per-site frequency addresses at a DC current
    spinmux simulate       rabi | ramsey | odmr | pulse curves
    spinmux optimize       synthesize a selective pulse, write pulse + trace
    spinmux crosstalk-map  spatial flip-error maps for a targeted pi-pulse
    spinmux sweep          detuning/amplitude sensitivity grid for a pulse

Exit codes: 0 success, 1 usage error, 2 validation or physics error,
3 optimizer divergence, 4 optimizer tolerance missed (in both cases the
best artifacts are still written).
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import __version__
from .config_io import RegisterConfig, load_config
from .dynamics import PulseProgram, QubitState
from .errors import Diverged, SpinmuxError, UsageError, ValidationError
from .experiments import crosstalk_landscape, simulate_odmr, simulate_rabi, \
    simulate_ramsey
from .fields import WireDrive, address_map, field_sample
from .synthesis import ControlScenario, OptimizerConfig, _Ensemble, optimize, \
    sensitivity_sweep
from .pulse_io import read_pulse, write_csv, write_pulse


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit code 1, not argparse's default 2
        raise UsageError(message)


def _range(spec: str):
    """Parse "lo:hi:n" into (lo, hi, n); an argparse type."""
    try:
        lo, hi, n = spec.split(":")
        lo, hi, n = float(lo), float(hi), int(n)
    except ValueError:
        raise argparse.ArgumentTypeError("must look like lo:hi:n") from None
    if n < 1:
        raise argparse.ArgumentTypeError("needs n >= 1")
    return lo, hi, n


def _grid(lo, hi, n):
    """An evenly spaced list of n values from lo to hi."""
    return [lo] if n == 1 else list(np.linspace(lo, hi, n))


def _check_finite(args) -> None:
    """Reject NaN and infinite values of every float flag, range bounds too."""
    for name, value in vars(args).items():
        values = value if isinstance(value, (list, tuple)) else [value]
        if any(isinstance(v, float) and not math.isfinite(v) for v in values):
            raise ValidationError("must be a finite number",
                                  field="--" + name.replace("_", "-"))


# (least value, whether it is allowed) per numeric flag; checked here so the
# error names the flag, not the library parameter that would reject it.  A
# subcommand adds its own entries as the `least` default of its parser.
_LEAST = {"steps": (1, True), "restarts": (1, True), "points": (1, True),
          "nu": (1, True), "nv": (1, True), "seed": (0, True),
          "duration": (0, False), "probe_rabi_mhz": (0, False),
          "t_max_ns": (0, True), "tau_max_us": (0, True), "linewidth_mhz": (0, True)}


def _check_least(args) -> None:
    """Reject numeric flags below their least meaningful value."""
    for name, (least, allowed) in {**_LEAST, **getattr(args, "least", {})}.items():
        value = getattr(args, name, None)   # None: not a flag of this command
        if value is not None and (value < least or (value == least and not allowed)):
            raise ValidationError(f"must be {'>=' if allowed else '>'} {least}",
                                  field="--" + name.replace("_", "-"))


def _scenario_from_config(cfg: RegisterConfig, target_id: str, idle_ids):
    """Detunings from the frequency addresses at the configured DC current."""
    if not idle_ids:
        raise UsageError("need at least one --idle-site")
    addr = {e.site_id: e.omega_plus
            for e in address_map(cfg.environment, cfg.drive, cfg.sites).entries}
    if target_id not in addr:
        raise ValidationError(f"unknown site id {target_id!r}", field="--target-site")
    idle = []
    for site_id in idle_ids:
        if site_id not in addr:
            raise ValidationError(f"unknown site id {site_id!r}", field="--idle-site")
        idle.append(addr[site_id] - addr[target_id])
    return ControlScenario(idle_detunings=tuple(idle), manifold=cfg.manifold)


def cmd_address_map(args) -> int:
    cfg = load_config(args.config)
    drive = WireDrive(i_dc=args.idc_ma * 1e-3, i_ac=0.0)
    entries = address_map(cfg.environment, drive, cfg.sites).entries
    write_csv(args.out, "site,u_um,f_ghz", ([e.site_id for e in entries],
                                            [e.position_u * 1e6 for e in entries],
                                            [e.omega_plus * 1e-9 for e in entries]))
    return 0


def _site_epsilons(cfg: RegisterConfig, pulse: PulseProgram):
    """(site ids, manifold-averaged departure from |0> per site), at the
    config carrier."""
    ground = QubitState.ground()
    entries = address_map(cfg.environment, cfg.drive, cfg.sites).entries
    spins = [(e.omega_plus - cfg.carrier, ground, ground) for e in entries]
    stay = _Ensemble(spins, cfg.manifold).transfer_means(*pulse.amplitudes(), pulse.dt)
    return [e.site_id for e in entries], 1.0 - stay


def cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    if args.kind == "rabi":
        times = np.linspace(0.0, args.t_max_ns * 1e-9, args.points)
        pops = simulate_rabi(args.rabi_mhz * 1e6, args.delta_mhz * 1e6, times)
        write_csv(args.out, "t_ns,p1", (times * 1e9, pops))
    elif args.kind == "ramsey":
        site = cfg.site(args.site) if args.site else cfg.sites[0]
        taus = np.linspace(0.0, args.tau_max_us * 1e-6, args.points)
        signal = simulate_ramsey(args.delta_mhz * 1e6, cfg.manifold,
                                 site.t2_star, taus)
        write_csv(args.out, "tau_us,signal", (taus * 1e6, signal))
    elif args.kind == "odmr":
        if args.f_min_ghz is None or args.f_max_ghz is None:
            sample = field_sample(cfg.environment, cfg.drive, cfg.sites[0])
            center = sample.omega_plus
            lo, hi = center - 10e6, center + 10e6
        else:
            lo, hi = args.f_min_ghz * 1e9, args.f_max_ghz * 1e9
        scan = np.linspace(lo, hi, args.points)
        contrast = simulate_odmr(cfg.environment, cfg.drive, cfg.sites,
                                 args.probe_rabi_mhz * 1e6, scan,
                                 args.linewidth_mhz * 1e6)
        write_csv(args.out, "f_ghz,contrast", (scan * 1e-9, contrast))
    else:  # "pulse"; argparse admits no other kind
        if not args.pulse:
            raise UsageError("simulate pulse requires --pulse")
        pulse = read_pulse(args.pulse)
        write_csv(args.out, "site,eps", _site_epsilons(cfg, pulse))
    return 0


def _write_trace(path, trace) -> None:
    with open(path, "w", newline="") as fh:
        for row in trace.rows:
            fh.write(json.dumps({
                "iteration": row.iteration,
                "f": row.f,
                "eps_i": row.eps_i,
                "eps_j": list(row.eps_j),
                "reg": row.reg,
                "step_size": row.step_size,
            }) + "\n")


def cmd_optimize(args) -> int:
    cfg = load_config(args.config)
    scenario = _scenario_from_config(cfg, args.target_site, args.idle_site)
    opt = OptimizerConfig(
        m=args.steps,
        dt=args.duration / args.steps,
        lam=getattr(args, "lambda"),
        seed=args.seed,
        restarts=args.restarts,
    )
    try:
        pulse, trace = optimize(scenario, opt)
    except Diverged as exc:
        if exc.pulse is not None:
            write_pulse(args.out_pulse, exc.pulse)
        if exc.trace is not None:
            _write_trace(args.out_trace, exc.trace)
        print(f"error: {exc}", file=sys.stderr)
        return 3
    write_pulse(args.out_pulse, pulse)
    _write_trace(args.out_trace, trace)
    if not trace.converged:
        eps_i, eps_j = trace.rows[-1].eps_i, sum(trace.rows[-1].eps_j)
        print(f"warning: tolerance missed: eps_i={eps_i:.6g}, sum(eps_j)={eps_j:.6g}, "
              f"(1 - eps_i) + sum(eps_j) = {1.0 - eps_i + eps_j:.6g} > tol={opt.tol:g}, "
              f"stopped: {trace.stop_reason}", file=sys.stderr)
        return 4
    return 0


def cmd_crosstalk_map(args) -> int:
    cfg = load_config(args.config)
    us = np.linspace(args.u_min_um, args.u_max_um, args.nu) * 1e-6
    vs = np.linspace(args.v_min_um, args.v_max_um, args.nv) * 1e-6
    grid = [np.array([u, v, 0.0]) for u in us for v in vs]
    for idc_ma in args.idc_ma:
        entries = crosstalk_landscape(
            cfg.environment, idc_ma * 1e-3, args.target_u_um * 1e-6,
            args.rabi_mhz * 1e6, grid,
        ).entries
        write_csv(f"{args.out_prefix}_idc{idc_ma:g}ma.csv", "u_um,v_um,epsilon,bound",
                  ([pos[0] * 1e6 for pos in grid], [pos[1] * 1e6 for pos in grid],
                   [e.epsilon for e in entries], [e.bound for e in entries]))
    return 0


def cmd_sweep(args) -> int:
    cfg = load_config(args.config)
    scenario = _scenario_from_config(cfg, args.target_site, args.idle_site)
    pulse = read_pulse(args.pulse)
    offsets = [x * 1e6 for x in _grid(*args.delta_range)]
    scales = _grid(*args.amp_range)
    points = sensitivity_sweep(pulse, scenario, offsets, scales)
    write_csv(args.out, "offset_mhz,scale,eps_i,eps_j",
              ([p.delta_offset * 1e-6 for p in points], [p.amp_scale for p in points],
               [p.eps_i for p in points], [sum(p.eps_j) for p in points]))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="spinmux",
                     description="Frequency-addressed spin-register workbench")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("address-map", parents=[], help="per-site addresses")
    p.add_argument("--config", required=True)
    p.add_argument("--idc-ma", type=float, required=True,
                   help="DC current in milliamperes")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_address_map)

    p = sub.add_parser("simulate", help="measurement curves")
    p.add_argument("kind", choices=["rabi", "ramsey", "odmr", "pulse"])
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--rabi-mhz", type=float, default=7.5)
    p.add_argument("--delta-mhz", type=float, default=0.0)
    p.add_argument("--t-max-ns", type=float, default=300.0)
    p.add_argument("--tau-max-us", type=float, default=8.0)
    p.add_argument("--points", type=int, default=601)
    p.add_argument("--site", default=None, help="site id (ramsey), default first")
    p.add_argument("--f-min-ghz", type=float, default=None)
    p.add_argument("--f-max-ghz", type=float, default=None)
    p.add_argument("--probe-rabi-mhz", type=float, default=0.2)
    p.add_argument("--linewidth-mhz", type=float, default=0.2)
    p.add_argument("--pulse", default=None, help="pulse CSV (pulse kind)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("optimize", help="synthesize a selective pulse")
    p.add_argument("--config", required=True)
    p.add_argument("--target-site", required=True)
    p.add_argument("--idle-site", action="append", default=[])
    p.add_argument("--lambda", type=float, default=1e-7,
                   help="smoothness weight, 1/Hz")
    p.add_argument("--steps", type=int, default=200)
    p.add_argument("--duration", type=float, default=10e-6,
                   help="total pulse duration in seconds")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--restarts", type=int, default=1)
    p.add_argument("--out-pulse", required=True)
    p.add_argument("--out-trace", required=True)
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("crosstalk-map", help="spatial flip-error maps")
    p.add_argument("--config", required=True)
    p.add_argument("--idc-ma", type=float, action="append", required=True,
                   help="repeatable; one CSV per value")
    p.add_argument("--target-u-um", type=float, required=True)
    p.add_argument("--rabi-mhz", type=float, default=10.0)
    p.add_argument("--u-min-um", type=float, required=True)
    p.add_argument("--u-max-um", type=float, required=True)
    p.add_argument("--nu", type=int, required=True)
    p.add_argument("--v-min-um", type=float, default=0.0)
    p.add_argument("--v-max-um", type=float, default=0.0)
    p.add_argument("--nv", type=int, default=1)
    p.add_argument("--out-prefix", required=True)
    p.set_defaults(func=cmd_crosstalk_map, least={"rabi_mhz": (0, False)})

    p = sub.add_parser("sweep", help="pulse sensitivity grid")
    p.add_argument("--config", required=True)
    p.add_argument("--pulse", required=True)
    p.add_argument("--target-site", required=True)
    p.add_argument("--idle-site", action="append", default=[])
    p.add_argument("--delta-range", type=_range, required=True, help="lo:hi:n in MHz")
    p.add_argument("--amp-range", type=_range, required=True,
                   help="lo:hi:n scale factors")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _check_finite(args)
        _check_least(args)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (FileNotFoundError, SpinmuxError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
