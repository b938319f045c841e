"""Command-line workbench.

Subcommands turn a register config plus flags into plot-ready CSV/JSON files;
every CSV table goes through `pulse_io.write_csv`, so all numbers are written
alike ("%.17g"):

    spinmux address-map    per-site frequency addresses at a DC current
    spinmux simulate       rabi | ramsey | odmr | pulse curves
    spinmux optimize       synthesize a selective pulse, write pulse + trace
    spinmux crosstalk-map  spatial flip-error maps for a targeted pi-pulse
    spinmux sweep          detuning/amplitude sensitivity grid for a pulse

Exit codes: 0 success, 1 usage error, 2 validation or physics error (an
output holding NaN too), 3 optimizer divergence, 4 optimizer tolerance missed
(in both cases the best artifacts are still written).  Each numeric flag's
argparse type states its rules, so a bad value exits 2 even when a required
flag is missing, and the n of a lo:hi:n range is checked as a count flag is.
Each `simulate` kind takes only its own flags: another's is a usage error,
whatever its value.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import __version__
from .config_io import RegisterConfig, _is_number, load_config
from .dynamics import SI_CEILING
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


def _number(flag, kind=float, least=None, above=None, below=None, si=None):
    """An argparse type for `flag`: `kind` of the text, finite; for a rate or
    duration finite times `si`, its factor to Hz or s, and within the ceiling
    there; at least `least`, above `above`, below `below`.  A bad value is a
    ValidationError naming the flag (exit 2), text that does not parse a usage error (1)."""
    ceiling = SI_CEILING
    def parse(text):
        value = kind(text)
        if not _is_number(value):
            raise ValidationError("must be a finite number", field=flag)
        if si is not None and not math.isfinite(value * si):
            raise ValidationError("too large to convert to SI units", field=flag)
        if si is not None and abs(value * si) > ceiling:
            raise ValidationError(f"beyond {ceiling:g} in SI units (Hz or s)", field=flag)
        if least is not None and value < least:
            raise ValidationError(f"must be >= {least}", field=flag)
        if above is not None and value <= above:
            raise ValidationError(f"must be > {above}", field=flag)
        if below is not None and not value < below:
            raise ValidationError(f"must be < {below}", field=flag)
        return value

    parse.__name__ = kind.__name__    # argparse's "invalid float value" message
    return parse


def _range(flag, **rules):
    """An argparse type for `flag`: "lo:hi:n" as (lo, hi, n), each bound checked
    as a float flag of those `_number` rules is and n as a count flag is."""
    bound, count = _number(flag, **rules), _number(flag, int, least=1)

    def parse(spec):
        try:
            lo, hi, n = spec.split(":")
            lo, hi, n = float(lo), float(hi), int(n)
        except ValueError:
            raise argparse.ArgumentTypeError("must look like lo:hi:n") from None
        return bound(lo), bound(hi), count(n)

    return parse


def _grid(lo, hi, n, flags):
    """np.linspace(lo, hi, n), or a ValidationError naming `flags` when the
    span hi - lo overflows."""
    if not math.isfinite(hi - lo):
        raise ValidationError("the span hi - lo must be finite", field=flags)
    return np.linspace(lo, hi, n)


def _site(table, site_id, flag):
    """`table[site_id]`, or a ValidationError naming the flag that gave the id."""
    if site_id not in table:
        raise ValidationError(f"unknown site id {site_id!r}", field=flag)
    return table[site_id]


def _detunings(cfg: RegisterConfig):
    """{site id: detuning} in the one rotating frame of every pulse command:
    the site's address at the configured DC current minus `cfg.carrier`.  A
    carrier beyond the SI ceiling is a ValidationError naming
    drive.carrier_ghz; the field pass checks each address."""
    if cfg.carrier > SI_CEILING:
        raise ValidationError(f"{cfg.carrier / 1e9:g} GHz, beyond {SI_CEILING / 1e9:g} GHz",
                              field="drive.carrier_ghz")
    return {e.site_id: e.omega_plus - cfg.carrier
            for e in address_map(cfg.environment, cfg.drive, cfg.sites).entries}


def _scenario_from_config(cfg: RegisterConfig, target_id: str, idle_ids):
    """The target and spectators at their `_detunings`."""
    if not idle_ids:
        raise UsageError("need at least one --idle-site")
    detuning = _detunings(cfg)
    target = _site(detuning, target_id, "--target-site")
    idle = []
    for n, site_id in enumerate(idle_ids):
        idle.append(_site(detuning, site_id, "--idle-site"))
        if site_id in idle_ids[:n]:     # it would count twice in f and in tol
            raise ValidationError(f"site {site_id!r} given twice", field="--idle-site")
        if idle[-1] == target:
            raise ValidationError(f"site {site_id!r} has the target's address",
                                  field="--idle-site")
    return ControlScenario(idle_detunings=tuple(idle), target_detuning=target,
                           manifold=cfg.manifold)


def cmd_address_map(args, cfg: RegisterConfig) -> int:
    drive = WireDrive(i_dc=args.idc_ma * 1e-3, i_ac=0.0)
    entries = address_map(cfg.environment, drive, cfg.sites).entries
    write_csv(args.out, "site,u_um,f_ghz", ([e.site_id for e in entries],
                                            [e.position_u * 1e6 for e in entries],
                                            [e.omega_plus * 1e-9 for e in entries]))
    return 0


def cmd_simulate(args, cfg: RegisterConfig) -> int:
    if args.kind == "rabi":
        times = np.linspace(0.0, args.t_max_ns * 1e-9, args.points)
        pops = simulate_rabi(args.rabi_mhz * 1e6, args.delta_mhz * 1e6, times)
        write_csv(args.out, "t_ns,p1", (times * 1e9, pops))
    elif args.kind == "ramsey":
        site = (_site({s.id: s for s in cfg.sites}, args.site, "--site")
                if args.site else cfg.sites[0])
        taus = np.linspace(0.0, args.tau_max_us * 1e-6, args.points)
        signal = simulate_ramsey(args.delta_mhz * 1e6, cfg.manifold,
                                 site.t2_star, taus)
        write_csv(args.out, "tau_us,signal", (taus * 1e6, signal))
    elif args.kind == "odmr":
        if args.f_min_ghz is None and args.f_max_ghz is None:
            sample = field_sample(cfg.environment, cfg.drive, cfg.sites[0])
            center = sample.omega_plus
            lo, hi = center - 10e6, center + 10e6
        elif args.f_max_ghz is None or args.f_min_ghz is None:
            raise UsageError("--f-min-ghz and --f-max-ghz go together; missing "
                             + ("--f-max-ghz" if args.f_max_ghz is None else "--f-min-ghz"))
        else:
            lo, hi = args.f_min_ghz * 1e9, args.f_max_ghz * 1e9
        scan = _grid(lo, hi, args.points, "--f-min-ghz/--f-max-ghz")
        contrast = simulate_odmr(cfg.environment, cfg.drive, cfg.sites,
                                 args.probe_rabi_mhz * 1e6, scan,
                                 args.linewidth_mhz * 1e6)
        write_csv(args.out, "f_ghz,contrast", (scan * 1e-9, contrast))
    else:  # "pulse"; argparse admits no other kind
        pulse, detuning = read_pulse(args.pulse), _detunings(cfg)
        flips = _Ensemble(list(detuning.values()), cfg.manifold).transfer_means(
            *pulse.amplitudes(), pulse.dt)
        write_csv(args.out, "site,eps", (list(detuning), flips))
    return 0


def _write_trace(path, trace) -> None:
    """One JSON object per accepted iteration, keyed by the TraceRow fields."""
    with open(path, "w", newline="") as fh:
        fh.writelines(json.dumps(vars(row)) + "\n" for row in trace.rows)


def cmd_optimize(args, cfg: RegisterConfig) -> int:
    scenario = _scenario_from_config(cfg, args.target_site, args.idle_site)
    if args.duration / args.steps == 0.0:
        raise ValidationError("the step duration underflows to 0", field="--duration/--steps")
    opt = OptimizerConfig(
        m=args.steps,
        dt=args.duration / args.steps,
        lam=getattr(args, "lambda"),
        seed=args.seed,
        restarts=args.restarts,
    )
    diverged = None
    try:
        pulse, trace = optimize(scenario, opt)
    except Diverged as exc:     # carries the best pulse and trace of the restarts
        pulse, trace, diverged = exc.pulse, exc.trace, exc
    write_pulse(args.out_pulse, pulse)
    _write_trace(args.out_trace, trace)
    if diverged is not None:
        print(f"error: {diverged}", file=sys.stderr)
        return 3
    if not trace.converged:
        row = trace.rows[-1]
        print(f"warning: tolerance missed: eps_i={row.eps_i:.6g}, sum(eps_j)="
              f"{sum(row.eps_j):.6g}, (1 - eps_i) + sum(eps_j) = {row.f - row.reg:.6g} "
              f"> tol={opt.tol:g}, stopped: {trace.stop_reason}", file=sys.stderr)
        return 4
    return 0


def cmd_crosstalk_map(args, cfg: RegisterConfig) -> int:
    us = _grid(args.u_min_um, args.u_max_um, args.nu, "--u-min-um/--u-max-um") * 1e-6
    vs = _grid(args.v_min_um, args.v_max_um, args.nv, "--v-min-um/--v-max-um") * 1e-6
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


def cmd_sweep(args, cfg: RegisterConfig) -> int:
    scenario = _scenario_from_config(cfg, args.target_site, args.idle_site)
    pulse = read_pulse(args.pulse)
    offsets = _grid(*args.delta_range, "--delta-range") * 1e6
    scales = _grid(*args.amp_range, "--amp-range")
    # a product of Python floats overflows to inf without a numpy warning
    if np.abs(scales).max().item() * np.abs(pulse.amplitudes()).max().item() > SI_CEILING:
        raise ValidationError(f"scaled pulse beyond {SI_CEILING:g} Hz", field="--amp-range")
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
    config = argparse.ArgumentParser(add_help=False)    # `main` loads it, once
    config.add_argument("--config", required=True)

    p = sub.add_parser("address-map", parents=[config], help="per-site addresses")
    p.add_argument("--idc-ma", type=_number("--idc-ma"), required=True,
                   help="DC current in milliamperes")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_address_map)

    p = sub.add_parser("simulate", help="measurement curves")
    p.set_defaults(func=cmd_simulate)
    kinds = p.add_subparsers(dest="kind", required=True)
    rabi, ramsey, odmr, pulse = (kinds.add_parser(kind, parents=[config])
                                 for kind in ("rabi", "ramsey", "odmr", "pulse"))
    for k in (rabi, ramsey, odmr, pulse):
        k.add_argument("--out", required=True)
    for k in (rabi, ramsey, odmr):
        k.add_argument("--points", type=_number("--points", int, least=1), default=601)
    rabi.add_argument("--rabi-mhz", type=_number("--rabi-mhz", si=1e6), default=7.5)
    for k in (rabi, ramsey):
        k.add_argument("--delta-mhz", type=_number("--delta-mhz", si=1e6), default=0.0)
    rabi.add_argument("--t-max-ns", type=_number("--t-max-ns", least=0, si=1e-9),
                      default=300.0)
    ramsey.add_argument("--tau-max-us", type=_number("--tau-max-us", least=0, si=1e-6),
                        default=8.0)
    ramsey.add_argument("--site", default=None, help="site id, default first")
    for flag in ("--f-min-ghz", "--f-max-ghz"):
        odmr.add_argument(flag, type=_number(flag, si=1e9), default=None)
    odmr.add_argument("--probe-rabi-mhz", default=0.2,
                      type=_number("--probe-rabi-mhz", least=5e-22, si=1e6))
    odmr.add_argument("--linewidth-mhz", default=0.2,
                      type=_number("--linewidth-mhz", least=0, si=1e6))
    pulse.add_argument("--pulse", required=True, help="pulse CSV")

    p = sub.add_parser("optimize", parents=[config], help="synthesize a selective pulse")
    p.add_argument("--target-site", required=True)
    p.add_argument("--idle-site", action="append", default=[])
    p.add_argument("--lambda", type=_number("--lambda", least=0, below=1e-6),
                   default=1e-7, help="smoothness weight, 1/Hz")
    p.add_argument("--steps", type=_number("--steps", int, least=1), default=200)
    p.add_argument("--duration", type=_number("--duration", above=0, si=1.0), default=10e-6,
                   help="total pulse duration in seconds")
    p.add_argument("--seed", type=_number("--seed", int, least=0), default=0)
    p.add_argument("--restarts", type=_number("--restarts", int, least=1), default=1)
    p.add_argument("--out-pulse", required=True)
    p.add_argument("--out-trace", required=True)
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("crosstalk-map", parents=[config], help="spatial flip-error maps")
    p.add_argument("--idc-ma", type=_number("--idc-ma"), action="append", required=True,
                   help="repeatable; one CSV per value")
    p.add_argument("--target-u-um", type=_number("--target-u-um"), required=True)
    p.add_argument("--rabi-mhz", default=10.0, type=_number("--rabi-mhz", least=5e-22, si=1e6))
    p.add_argument("--u-min-um", type=_number("--u-min-um"), required=True)
    p.add_argument("--u-max-um", type=_number("--u-max-um"), required=True)
    p.add_argument("--nu", type=_number("--nu", int, least=1), required=True)
    p.add_argument("--v-min-um", type=_number("--v-min-um"), default=0.0)
    p.add_argument("--v-max-um", type=_number("--v-max-um"), default=0.0)
    p.add_argument("--nv", type=_number("--nv", int, least=1), default=1)
    p.add_argument("--out-prefix", required=True)
    p.set_defaults(func=cmd_crosstalk_map)

    p = sub.add_parser("sweep", parents=[config], help="pulse sensitivity grid")
    p.add_argument("--pulse", required=True)
    p.add_argument("--target-site", required=True)
    p.add_argument("--idle-site", action="append", default=[])
    p.add_argument("--delta-range", type=_range("--delta-range", si=1e6), required=True,
                   help="lo:hi:n in MHz")
    p.add_argument("--amp-range", type=_range("--amp-range"), required=True,
                   help="lo:hi:n scale factors")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args, load_config(args.config))
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
