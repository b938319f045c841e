"""Simulated register measurements: Rabi, Ramsey, swept-frequency spectra,
and spatial crosstalk maps for a pi-pulse aimed at one spin.

Ramsey fringes and spectra average hyperfine members with `_member_mean`.  A
crosstalk map's one field pass yields its columns, and each grid point's
`CrosstalkEntry` is a NamedTuple built from one row of them.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .dynamics import SI_CEILING, TWO_PI, _check_finite, _clamp_unit, _su2_pairs
from .fields import FieldEnvironment, WireDrive, _field_arrays, _site_arrays, rabi_frequency
from .spins import DipoleOrientation, HyperfineManifold, _member_mean, dipole_axis, \
    hyperfine_detunings, transition_frequencies


class CrosstalkEntry(NamedTuple):
    """One grid point of a crosstalk map.  A NamedTuple, not a frozen
    dataclass: a map builds one per point, and a frozen dataclass's __init__
    costs about three times as much as building a tuple."""

    site_id: str
    detuning: float    # Hz, relative to the pulse carrier
    epsilon: float     # simulated flip error on |0>
    bound: float       # analytic ceiling (rabi/detuning)^2, inf on resonance


@dataclass(frozen=True)
class CrosstalkReport:
    """Per-position flip errors for one pi-pulse, with the analytic bound."""

    entries: tuple

    def __post_init__(self):
        for e in self.entries:
            if not 0.0 <= e.epsilon <= 1.0:
                raise ValueError(f"epsilon out of [0, 1] at {e.site_id}")
        object.__setattr__(self, "entries", tuple(self.entries))


@functools.lru_cache(maxsize=4)
def _point_ids(n: int) -> tuple:
    """The ids g0000, g0001, ... of a map's n grid points.  Formatting them
    took a fifth of a 40 x 25 map's time, so each size is formatted once."""
    return tuple(f"g{k:04d}" for k in range(n))


def _flip_populations(rabi, delta, duration) -> np.ndarray:
    """|<1|U|0>|^2 after constant drives; the arguments broadcast together."""
    return np.abs(_su2_pairs(TWO_PI * rabi, 0.0, TWO_PI * delta, duration)[1]) ** 2


def simulate_rabi(rabi: float, delta: float, durations) -> np.ndarray:
    """Excited-state population vs. pulse length for a constant drive."""
    durations = np.asarray(list(durations), dtype=float)
    if not (np.isfinite([rabi, delta]).all() and np.isfinite(durations).all()
            and (durations >= 0.0).all()):
        raise ValueError("rabi, delta and durations must be finite, durations >= 0")
    return _flip_populations(rabi, delta, durations)


def simulate_ramsey(
    delta: float, manifold: HyperfineManifold, t2_star: float, taus
) -> np.ndarray:
    """Free-precession fringe signal averaged over the nuclear manifold.

    S(tau) = mean_m cos(2*pi*delta_m*tau) * exp(-tau/t2_star).
    """
    if not t2_star > 0:
        raise ValueError("t2_star must be positive")
    taus = np.asarray(list(taus), dtype=float)
    if not (np.isfinite(delta) and np.isfinite(taus).all() and np.all(taus >= 0.0)):
        raise ValueError("delta and taus must be finite, taus >= 0")
    detunings = hyperfine_detunings(delta, manifold)
    phases = 2.0 * math.pi * np.outer(taus, detunings)
    return _member_mean(np.cos(phases)) * np.exp(-taus / t2_star)


def _lorentzian_smooth(scan: np.ndarray, values: np.ndarray, fwhm: float) -> np.ndarray:
    """Normalized Lorentzian convolution over a (possibly uneven) scan grid."""
    half = fwhm / 2.0
    # built in place, so one (points, points) array is alive at a time
    kernel = scan[:, None] - scan[None, :]
    kernel *= kernel
    kernel += half * half
    np.divide(half * half, kernel, out=kernel)
    return kernel @ values / kernel.sum(axis=1)


def simulate_odmr(
    env: FieldEnvironment,
    drive: WireDrive,
    sites,
    probe_rabi: float,
    scan,
    linewidth_floor: float = 2e5,
) -> np.ndarray:
    """Swept-frequency spectrum: mean pi-pulse flip population of the register.

    For each scanned carrier frequency the contrast averages the flip
    population over sites, both (upper/lower) transitions, and the three
    nuclear states.  A nonzero linewidth_floor (Hz) convolves the result with
    a Lorentzian of that full width.
    """
    scan = np.asarray(list(scan), dtype=float)
    if scan.size == 0 or not np.isfinite(scan).all():
        raise ValueError("scan must be non-empty and finite")
    sites = list(sites)
    if not sites:
        raise ValueError("sites must be non-empty")
    if not 0 < probe_rabi < math.inf:
        raise ValueError("probe_rabi must be positive and finite")
    if not 0 <= linewidth_floor <= SI_CEILING:
        raise ValueError(f"linewidth_floor must be >= 0 and at most {SI_CEILING:g} Hz")
    manifold = HyperfineManifold.triplet(env.constants.hyperfine_splitting)
    duration = 1.0 / (2.0 * probe_rabi)

    b_dc_z, b_ext_z, *_ = _field_arrays(env, WireDrive(drive.i_dc, 0.0),
                                        *_site_arrays(sites))
    # per site: upper then lower transition, each split by the manifold
    omegas = np.stack(transition_frequencies(env.constants, b_ext_z + b_dc_z), axis=1)
    members = hyperfine_detunings(omegas.ravel()[:, None], manifold)
    # one flat (points, lines x members) evaluation, then the members' mean
    flips = _flip_populations(probe_rabi, members.ravel() - scan[:, None], duration)
    contrast = np.mean(_member_mean(flips.reshape(len(scan), *members.shape)), axis=1)
    if linewidth_floor > 0:
        contrast = _lorentzian_smooth(scan, contrast, linewidth_floor)
    return contrast


def crosstalk_landscape(
    env: FieldEnvironment,
    drive_dc: float,
    target_u: float,
    rabi_target: float,
    grid,
    orientation: DipoleOrientation | None = None,
) -> CrosstalkReport:
    """Flip error across the chip for a rectangular pi-pulse on one target spin.

    The pulse carrier sits on the transition of a spin at (target_u, 0, 0) and
    the AC current is chosen so that spin is driven at `rabi_target`.  One
    field pass at unit current covers the target and the grid; the drive
    scales with the current, so each position's Rabi rate is its rate per
    ampere times rabi_target / (the target's), at its own detuning.
    """
    _check_finite(drive_dc=drive_dc, target_u=target_u)
    if not 0 < rabi_target < math.inf:
        raise ValueError("rabi_target must be positive and finite")
    axis = dipole_axis(orientation or DipoleOrientation())
    positions = np.asarray(list(grid), dtype=float)
    if positions.size and (positions.ndim != 2 or positions.shape[1] != 3):
        raise ValueError("grid positions must be 3-vectors")
    points = np.vstack(([target_u, 0.0, 0.0], positions.reshape(-1, 3)))

    *_, b_ac_unit, omega_plus = _field_arrays(env, WireDrive(i_dc=drive_dc, i_ac=1.0),
                                              points, axis)
    rabi_per_amp = rabi_frequency(env.constants, b_ac_unit)
    if rabi_per_amp[0] <= 0:
        raise ValueError("target spin sees no transverse drive field")
    rabis = rabi_per_amp[1:] * (rabi_target / rabi_per_amp[0])
    deltas = omega_plus[1:] - omega_plus[0]
    duration = 1.0 / (2.0 * rabi_target)
    eps = _clamp_unit(_flip_populations(rabis, deltas, duration))
    rabis, deltas = rabis.tolist(), deltas.tolist()
    # scalar (rabi/delta)**2: numpy's array power can round it one ulp apart
    bounds = [math.inf if d == 0.0 else (r / d) ** 2 for r, d in zip(rabis, deltas)]
    return CrosstalkReport(entries=tuple(map(CrosstalkEntry._make,
                                             zip(_point_ids(len(deltas)), deltas,
                                                 eps.tolist(), bounds))))
