"""Spin sites and transition-frequency algebra for two-level solid-state qubits.

Everything here works in cyclic frequency units (Hz, not rad/s); the 2*pi
factors are applied once, inside the dynamics layer.  Positions live in the
chip frame (u, v, w): u along the waveguide, v in-plane transverse, w
out-of-plane.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

# Ground-state defaults for NV-like centers (cyclic Hz).
D_ZFS_DEFAULT = 2.87e9        # zero-field splitting
GAMMA_NV_DEFAULT = 2.803e10   # gyromagnetic ratio, Hz per tesla
HYPERFINE_DEFAULT = 2.2e6     # 14N hyperfine splitting

# Dipole tilt for [100]-oriented diamond; azimuth matches the orientation
# subpopulation used by the bundled demo register.
THETA_W_DEFAULT = 54.7        # degrees from the out-of-plane w axis
THETA_U_DEFAULT = 41.0        # degrees from the waveguide axis u


@dataclass(frozen=True)
class PhysicalConstants:
    """Static spin parameters, overridable per register."""

    d_zfs: float = D_ZFS_DEFAULT              # Hz
    gamma_nv: float = GAMMA_NV_DEFAULT        # Hz/T
    hyperfine_splitting: float = HYPERFINE_DEFAULT  # Hz

    def __post_init__(self):
        if not (self.d_zfs > 0 and self.gamma_nv > 0 and self.hyperfine_splitting >= 0):
            raise ValueError("d_zfs and gamma_nv must be positive and "
                             "hyperfine_splitting >= 0 (0 disables the triplet)")


@dataclass(frozen=True)
class DipoleOrientation:
    """Dipole axis direction given as polar/azimuthal angles in degrees."""

    theta_w: float = THETA_W_DEFAULT  # polar angle from w, [0, 180]
    theta_u: float = THETA_U_DEFAULT  # azimuth from u, [-180, 180]

    def __post_init__(self):
        if not 0.0 <= self.theta_w <= 180.0:
            raise ValueError(f"theta_w={self.theta_w} outside [0, 180] degrees")
        if not -180.0 <= self.theta_u <= 180.0:
            raise ValueError(f"theta_u={self.theta_u} outside [-180, 180] degrees")


@dataclass(frozen=True)
class HyperfineManifold:
    """Detuning offsets of the three nuclear-spin states, (-a, 0, +a) in Hz."""

    detuning_offsets: tuple = (-HYPERFINE_DEFAULT, 0.0, HYPERFINE_DEFAULT)

    def __post_init__(self):
        offs = tuple(float(x) for x in self.detuning_offsets)
        if len(offs) != 3 or offs[1] != 0.0 or offs[0] != -offs[2] or offs[2] < 0:
            raise ValueError("offsets must be (-a, 0, +a) with a >= 0")
        object.__setattr__(self, "detuning_offsets", offs)

    @property
    def splitting(self) -> float:
        return self.detuning_offsets[2]

    @classmethod
    def triplet(cls, splitting: float = HYPERFINE_DEFAULT) -> "HyperfineManifold":
        return cls((-splitting, 0.0, splitting))


@dataclass(frozen=True)
class SpinSite:
    """One spin qubit: label, chip-frame position (m), orientation, t2_star (s)."""

    id: str
    position: np.ndarray
    orientation: DipoleOrientation = field(default_factory=DipoleOrientation)
    t2_star: float = 1.7e-6

    def __post_init__(self):
        pos = np.asarray(self.position, dtype=float)
        if pos.shape != (3,) or not np.isfinite(pos).all():
            raise ValueError("position must be a finite 3-vector")
        if not self.t2_star > 0:
            raise ValueError("t2_star must be positive")
        object.__setattr__(self, "position", pos)


def dipole_axis(orientation: DipoleOrientation) -> np.ndarray:
    """Unit vector of the dipole axis in the (u, v, w) chip frame."""
    tw = math.radians(orientation.theta_w)
    tu = math.radians(orientation.theta_u)
    return np.array(
        [math.sin(tw) * math.cos(tu), math.sin(tw) * math.sin(tu), math.cos(tw)]
    )


def _dot(x, y):
    """Dot products over the last axis, broadcast over the leading ones.

    A stacked (1 x n) @ (n x 1) matmul rounds each entry exactly as np.dot of
    the two vectors, so batched and single evaluations agree bit for bit.
    """
    return np.matmul(np.asarray(x)[..., None, :], np.asarray(y)[..., :, None])[..., 0, 0]


def project_field(b: np.ndarray, axis: np.ndarray):
    """Split a field into (signed parallel, non-negative perpendicular) parts.

    `axis` must be unit-norm; the decomposition satisfies
    b_z**2 + b_xy**2 == |b|**2.  Stacks of fields and of axes (..., 3)
    broadcast together and give arrays of the leading shape; a single field
    along a single axis gives floats.
    """
    b = np.asarray(b, dtype=float)
    axis = np.asarray(axis, dtype=float)
    if np.any(np.abs(_dot(axis, axis) - 1.0) > 1e-9):
        raise ValueError("axis must be unit-norm")
    b_z = _dot(b, axis)
    perp = b - b_z[..., None] * axis
    b_xy = np.sqrt(_dot(perp, perp))
    if b.ndim == axis.ndim == 1:
        return float(b_z), float(b_xy)
    return b_z, b_xy


def transition_frequencies(
    constants: PhysicalConstants, b_z_total: float
) -> tuple[float, float]:
    """Upper and lower spin transition frequencies (Hz) at a given axial field.

    b_z_total is the total static field along the dipole axis, external plus
    wire contribution.
    """
    zeeman = constants.gamma_nv * b_z_total
    return constants.d_zfs + zeeman, constants.d_zfs - zeeman


def hyperfine_detunings(delta: float, manifold: HyperfineManifold) -> np.ndarray:
    """Per-nuclear-state detunings (Hz): delta plus each distinct manifold
    offset, so a zero splitting leaves one member, at the first offset (-0.0 in
    `triplet(0.0)`, which keeps the sign of a -0.0 delta)."""
    return delta + np.asarray(manifold.detuning_offsets[:3 if manifold.splitting else 1])


def _member_mean(values: np.ndarray) -> np.ndarray:
    """Mean over the last axis, one spin's `hyperfine_detunings` members, as the
    left-to-right sum (v0 + v1) + v2 times 1/n: the one average over the manifold."""
    n = values.shape[-1]
    return functools.reduce(np.add, (values[..., k] for k in range(n))) * (1.0 / n)
