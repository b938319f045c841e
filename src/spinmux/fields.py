"""Magnetic fields of the on-chip drive wire and per-site frequency addresses.

The wire is modeled as one or more straight, infinitely long filaments; each
contributes the textbook azimuthal field mu0*I/(2*pi*d).  A strip of finite
width spreads the current over parallel filaments in the chip plane.  This
analytic model replaces a mesh-based solver; one depth parameter is
calibrated against a measured Zeeman shift instead.

`wire_field` alone evaluates the wire's field; `calibrate_wire` tries each
depth by moving the point, not the wire.  Every address, Zeeman shift and
drive field (`field_sample`, `address_map`, `zeeman_shift`, the ODMR and
crosstalk simulators) comes from one field pass, `_field_arrays`, over
stacked positions, each with its own dipole axis; it is also the one place
that checks an address's range, at most SI_CEILING in magnitude.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dynamics import SI_CEILING
from .errors import DegeneratePoint, NoSolution
from .spins import (
    DipoleOrientation,
    PhysicalConstants,
    SpinSite,
    _dot,
    dipole_axis,
    project_field,
    transition_frequencies,
)

MU0 = 4e-7 * math.pi  # T*m/A

# Field evaluation closer than this to a filament centerline is rejected.
MIN_FILAMENT_DISTANCE = 1e-9  # m

# Largest filament count; a (points, filaments, 3) float temporary on a
# 1,000-point grid stays at 24 MB.
MAX_FILAMENTS = 1000

W_HAT = np.array([0.0, 0.0, 1.0])


@dataclass(frozen=True)
class WireGeometry:
    """A straight drive wire: centerline point, direction, and current spread."""

    anchor: np.ndarray                 # m, point on the centerline
    direction: np.ndarray              # unit vector
    num_filaments: int = 1
    width: float = 0.0                 # m, lateral extent in the chip plane

    def __post_init__(self):
        anchor = np.asarray(self.anchor, dtype=float)
        direction = np.asarray(self.direction, dtype=float)
        if anchor.shape != (3,) or direction.shape != (3,):
            raise ValueError("anchor and direction must be 3-vectors")
        norm = np.linalg.norm(direction)
        if abs(norm - 1.0) > 1e-9:
            raise ValueError("direction must be unit-norm")
        if not 1 <= self.num_filaments <= MAX_FILAMENTS:
            raise ValueError(f"num_filaments must be in [1, {MAX_FILAMENTS}]")
        if self.width < 0:
            raise ValueError("width must be >= 0")
        if self.width == 0.0 and self.num_filaments != 1:
            raise ValueError("a zero-width wire must have exactly one filament")
        object.__setattr__(self, "anchor", anchor)
        object.__setattr__(self, "direction", direction)

    def filament_anchors(self) -> np.ndarray:
        """Centerline points of the individual filaments, shape (n, 3)."""
        if self.num_filaments == 1:
            return self.anchor[None, :]
        # spread across the width, perpendicular to the wire in the chip plane;
        # filaments sit at the centers of equal-width sub-strips
        perp = np.cross(W_HAT, self.direction)
        norm = np.linalg.norm(perp)
        if norm < 1e-12:
            raise ValueError("cannot spread filaments for an out-of-plane wire")
        perp = perp / norm
        n = self.num_filaments
        offsets = (np.arange(n) + 0.5) / n * self.width - self.width / 2.0
        return self.anchor[None, :] + offsets[:, None] * perp[None, :]

    def with_depth(self, depth: float) -> "WireGeometry":
        """Same wire with the centerline moved to w = -depth."""
        anchor = self.anchor.copy()
        anchor[2] = -depth
        return WireGeometry(anchor, self.direction, self.num_filaments, self.width)


@dataclass(frozen=True)
class FieldEnvironment:
    """Uniform external bias field plus the drive-wire geometry."""

    b_ext: np.ndarray                  # T, chip frame
    wire: WireGeometry
    constants: PhysicalConstants = field(default_factory=PhysicalConstants)

    def __post_init__(self):
        b_ext = np.asarray(self.b_ext, dtype=float)
        if b_ext.shape != (3,):
            raise ValueError("b_ext must be a 3-vector")
        if not np.all(np.isfinite(b_ext)):
            raise ValueError("b_ext must be finite")
        object.__setattr__(self, "b_ext", b_ext)


@dataclass(frozen=True)
class WireDrive:
    """Currents on the wire: DC bias plus the AC envelope amplitude."""

    i_dc: float                        # A, signed
    i_ac: float                        # A, peak envelope value, >= 0

    def __post_init__(self):
        if not math.isfinite(self.i_dc):
            raise ValueError("i_dc must be finite")
        if not 0 <= self.i_ac < math.inf:
            raise ValueError("i_ac must be finite and >= 0")


@dataclass(frozen=True)
class FieldSample:
    """Field components seen by one site, resolved along its dipole axis."""

    b_dc_z: float      # T, wire DC field along the axis (signed)
    b_ext_z: float     # T, external field along the axis (signed)
    b_ac_xy: float     # T, AC field perpendicular to the axis (>= 0)
    omega_plus: float  # Hz, upper transition frequency


@dataclass(frozen=True)
class AddressMapEntry:
    site_id: str
    position_u: float          # m
    omega_plus: float          # Hz


@dataclass(frozen=True)
class AddressMap:
    """Per-site frequency addresses, ordered by site id."""

    entries: tuple

    def __post_init__(self):
        ids = [e.site_id for e in self.entries]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate site ids in address map")
        object.__setattr__(self, "entries", tuple(self.entries))


def wire_field(wire: WireGeometry, current: float, point: np.ndarray) -> np.ndarray:
    """Static field (T) of the wire carrying `current` (A) at `point` (m).

    `point` may stack positions as (..., 3); all points and filaments are
    evaluated in one array pass and the result has the shape of `point`.
    A straight wire moved by a vector acts as the point moved by its negative:
    at depth d it acts on (u, v, 0) as `with_depth(0.0)` on (u, v, d), bit for bit.
    """
    points = np.asarray(point, dtype=float)
    d_hat = wire.direction
    r = points[..., None, :] - wire.filament_anchors()       # (..., filaments, 3)
    r_perp = r - _dot(r, d_hat)[..., None] * d_hat
    dist = np.sqrt(_dot(r_perp, r_perp))
    # the degeneracy check runs even at zero current, keeping the
    # precondition independent of the drive
    bad = dist <= MIN_FILAMENT_DISTANCE
    if bad.any():
        offender = points[tuple(np.argwhere(bad)[0][:-1])]
        raise DegeneratePoint(
            f"point {offender.tolist()} lies within {MIN_FILAMENT_DISTANCE} m "
            "of a filament centerline"
        )
    # azimuthal field, right-hand rule around the current direction: d x r_perp
    # from its component formulas, which round as np.cross does
    scale = MU0 * (current / wire.num_filaments) / (2.0 * math.pi * dist * dist)
    (dx, dy, dz), (rx, ry, rz) = d_hat.tolist(), r_perp.T
    cross = np.array([dy * rz - dz * ry, dz * rx - dx * rz, dx * ry - dy * rx]).T
    return np.sum(scale[..., None] * cross, axis=-2)


def rabi_frequency(constants: PhysicalConstants, b_ac_xy):
    """Cyclic Rabi frequency (Hz) driven by a transverse AC field (T).

    Accepts a float or an array of fields.
    """
    if np.any(np.asarray(b_ac_xy) < 0):
        raise ValueError("b_ac_xy must be >= 0")
    return constants.gamma_nv * b_ac_xy / math.sqrt(2.0)


def _field_arrays(env: FieldEnvironment, drive: WireDrive, positions, axes):
    """(b_dc_z, b_ext_z, b_ac_xy, omega_plus) at stacked positions (..., 3),
    each resolved along its own dipole axis (..., 3); one axis broadcasts.
    The one field pass behind every site address and drive, and the one check of
    an address's range: beyond SI_CEILING, or NaN, is a ValueError naming i_dc.
    The DC call checks the positions, so zero AC current skips its field."""
    b_ext_z = _dot(env.b_ext, axes)
    with np.errstate(over="ignore", invalid="ignore"):     # omega checked below
        b_dc_z = _dot(wire_field(env.wire, drive.i_dc, positions), axes)
        omega_plus, _ = transition_frequencies(env.constants, b_ext_z + b_dc_z)
        b_ac_xy = (project_field(wire_field(env.wire, drive.i_ac, positions), axes)[1]
                   if drive.i_ac != 0.0 else np.zeros_like(b_dc_z))
    if not (np.abs(omega_plus) <= SI_CEILING).all():
        raise ValueError(f"address beyond {SI_CEILING:g} Hz at i_dc={drive.i_dc:g} A")
    return b_dc_z, b_ext_z, b_ac_xy, omega_plus


def _site_arrays(sites):
    """(positions, dipole axes) of the sites, stacked in the order given."""
    return (np.array([site.position for site in sites]),
            np.array([dipole_axis(site.orientation) for site in sites]))


def field_sample(env: FieldEnvironment, drive: WireDrive, site: SpinSite) -> FieldSample:
    """Resolve DC and AC wire fields plus the bias field at one site."""
    values = _field_arrays(env, drive, site.position, dipole_axis(site.orientation))
    return FieldSample(*(float(v) for v in values))


def address_map(env: FieldEnvironment, drive: WireDrive, sites) -> AddressMap:
    """Frequency address of every site at the given DC current."""
    if not sites:
        raise ValueError("sites must be non-empty")
    ordered = sorted(sites, key=lambda s: s.id)
    *_, omega_plus = _field_arrays(env, WireDrive(drive.i_dc, 0.0), *_site_arrays(ordered))
    return AddressMap(entries=tuple(
        AddressMapEntry(site_id=site.id, position_u=float(site.position[0]),
                        omega_plus=omega)
        for site, omega in zip(ordered, omega_plus.tolist())))


def zeeman_shift(
    env: FieldEnvironment,
    i_dc: float,
    position: np.ndarray,
    orientation: DipoleOrientation | None = None,
) -> float:
    """Wire-induced shift (Hz) of the upper transition at a chip position:
    gamma_nv * b_dc_z of the field pass behind every address."""
    axis = dipole_axis(orientation or DipoleOrientation())
    b_dc_z, *_ = _field_arrays(env, WireDrive(i_dc, 0.0), position, axis)
    return env.constants.gamma_nv * float(b_dc_z)


# Depth search domain for wire calibration (m).
CALIBRATION_DEPTH_RANGE = (1e-7, 1e-4)

# A 64-point geometric scan brackets the depth within 11.6% of it; each later
# round of 64 even steps narrows that 63-fold, so 9 rounds leave a few ulps.
CALIBRATION_ROUNDS = 9


def calibrate_wire(
    env: FieldEnvironment,
    target_shift: float,
    at_u: float,
    i_dc: float,
    orientation: DipoleOrientation | None = None,
) -> WireGeometry:
    """Find the wire standoff depth that reproduces a measured Zeeman shift.

    Each of CALIBRATION_ROUNDS rounds brackets the first zero or sign change of
    the residual over 64 depths, a geometric scan of CALIBRATION_DEPTH_RANGE, then
    even steps over the last bracket; the shift at (at_u, 0, 0) of its midpoint
    must match `target_shift` within 1 kHz.  Depth d is tried as
    `with_depth(0.0)` at (at_u, 0, d).  Raises NoSolution when no depth reaches it.
    """
    if target_shift <= 0:
        raise NoSolution("target shift must be positive and reachable")
    axis = dipole_axis(orientation or DipoleOrientation())
    point, surface = np.array([at_u, 0.0, 0.0]), env.wire.with_depth(0.0)

    def residuals(*depths) -> np.ndarray:
        """zeeman_shift - target_shift at each depth, in one call: the surface
        wire at the point moved up by the depth."""
        b = wire_field(surface, i_dc, point + np.multiply.outer(depths, W_HAT))
        return env.constants.gamma_nv * _dot(b, axis) - target_shift

    grid = np.geomspace(*CALIBRATION_DEPTH_RANGE, 64)
    for _ in range(CALIBRATION_ROUNDS):
        values = residuals(*grid)
        # the first depth with a zero residual or a sign change to the next
        zero = values == 0.0
        hits = np.flatnonzero(zero | np.append(values[:-1] * values[1:] < 0, False))
        if not hits.size:
            raise NoSolution(f"shift {target_shift:.6g} Hz unreachable for depths in "
                             "[{:g}, {:g}] m".format(*CALIBRATION_DEPTH_RANGE))
        k = hits[0]
        lo, hi = grid[k], grid[k] if zero[k] else grid[k + 1]
        grid = np.linspace(lo, hi, 64)
    depth = 0.5 * (lo + hi)
    if abs(residuals(depth)[0]) > 1e3:
        raise NoSolution("bracketing converged but missed the 1 kHz tolerance")
    return env.wire.with_depth(depth)
