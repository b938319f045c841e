"""Two-level dynamics under piecewise-constant in-phase/quadrature controls.

Controls are cyclic amplitudes in Hz: a step (I, Q) drives the rotating-frame
Hamiltonian H/hbar = 0.5*(2*pi*delta*sz + 2*pi*I*sx + 2*pi*Q*sy) for its
duration.  Each step is exponentiated in closed form (exact for constant
controls), so products stay unitary to rounding even over 1e4 steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ZeroDetuning

TWO_PI = 2.0 * math.pi

# |z|^2 may stray past [0, 1] by accumulated rounding; clamp only that much.
_BOUNDARY_SLACK = 1e-12


@dataclass(frozen=True)
class DriveCarrier:
    """Microwave carrier frequency (Hz); it defines the rotating frame."""

    omega_mw: float

    def __post_init__(self):
        if self.omega_mw <= 0:
            raise ValueError("carrier frequency must be positive")


@dataclass(frozen=True)
class PulseStep:
    """One piecewise-constant control step, amplitudes in cyclic Hz."""

    i_amp: float
    q_amp: float


@dataclass(frozen=True)
class PulseProgram:
    """An ordered list of control steps with a uniform step duration."""

    steps: tuple
    dt: float  # s

    def __post_init__(self):
        steps = tuple(self.steps)
        if len(steps) < 1:
            raise ValueError("a pulse needs at least one step")
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        object.__setattr__(self, "steps", steps)

    @property
    def duration(self) -> float:
        return len(self.steps) * self.dt

    def amplitudes(self) -> tuple[np.ndarray, np.ndarray]:
        """The (I, Q) amplitude arrays in Hz."""
        i = np.array([s.i_amp for s in self.steps])
        q = np.array([s.q_amp for s in self.steps])
        return i, q

    @classmethod
    def from_arrays(cls, i_amps, q_amps, dt: float) -> "PulseProgram":
        i_amps = np.asarray(i_amps, dtype=float)
        q_amps = np.asarray(q_amps, dtype=float)
        if i_amps.shape != q_amps.shape or i_amps.ndim != 1:
            raise ValueError("I and Q must be 1-d arrays of equal length")
        steps = tuple(PulseStep(float(a), float(b)) for a, b in zip(i_amps, q_amps))
        return cls(steps=steps, dt=dt)

    def total_variation(self) -> float:
        """Sum of absolute adjacent I and Q differences, Hz."""
        i, q = self.amplitudes()
        return float(np.sum(np.abs(np.diff(i))) + np.sum(np.abs(np.diff(q))))


@dataclass(frozen=True)
class QubitState:
    """Pure two-level state (c0, c1) over the {|0>, |1>} basis."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amp = np.asarray(self.amplitudes, dtype=complex)
        if amp.shape != (2,):
            raise ValueError("state must have two amplitudes")
        if abs(np.vdot(amp, amp).real - 1.0) > 1e-10:
            raise ValueError("state must be normalized")
        object.__setattr__(self, "amplitudes", amp)

    @classmethod
    def ground(cls) -> "QubitState":
        return cls(np.array([1.0 + 0.0j, 0.0j]))

    @classmethod
    def excited(cls) -> "QubitState":
        return cls(np.array([0.0j, 1.0 + 0.0j]))

    @property
    def population_excited(self) -> float:
        return float(abs(self.amplitudes[1]) ** 2)


@dataclass(frozen=True)
class Propagator:
    """A 2x2 unitary time propagator."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (2, 2):
            raise ValueError("propagator must be a 2x2 matrix")
        drift = np.max(np.abs(m.conj().T @ m - np.eye(2)))
        if drift > 1e-10:
            raise ValueError(f"matrix is not unitary (drift {drift:.3e})")
        object.__setattr__(self, "matrix", m)

    def __matmul__(self, other: "Propagator") -> "Propagator":
        return Propagator(self.matrix @ other.matrix)

    def apply(self, state: QubitState) -> QubitState:
        return QubitState(self.matrix @ state.amplitudes)


def _pauli(c, x, y, z) -> np.ndarray:
    """The matrices c*1 - i*(x*sx + y*sy + z*sz), broadcast over the inputs."""
    out = np.empty(np.broadcast(c, x, y, z).shape + (2, 2), dtype=complex)
    out[..., 0, 0] = c - 1j * z
    out[..., 0, 1] = -1j * x - y
    out[..., 1, 0] = -1j * x + y
    out[..., 1, 1] = c + 1j * z
    return out


def _su2_matrices(ax, ay, az, dt, derivatives: bool = False):
    """exp(-i*(dt/2)*(ax*sx + ay*sy + az*sz)) for stacked angular rates (rad/s).

    ax, ay, az and dt broadcast together; the result gains a trailing (2, 2).
    This is the only place a step unitary is built.  With `derivatives`, also
    returns the exact dU/dax and dU/day.  Writing U = cos(theta) - i*k*(a.sigma)
    with theta = |a| dt/2 and k = sin(theta)/|a|, d/da_x gives
    d(cos) = -(dt/2) k a_x and d(k a) = q a_x a + k e_x, where
    q = ((dt/2) cos(theta) - k)/|a|^2 takes its series as |a| -> 0.
    """
    ax = np.asarray(ax, dtype=float)
    ay = np.asarray(ay, dtype=float)
    az = np.asarray(az, dtype=float)
    half_dt = 0.5 * np.asarray(dt, dtype=float)
    omega2 = ax * ax + ay * ay + az * az
    omega = np.sqrt(omega2)
    theta = half_dt * omega
    cos_t = np.cos(theta)
    # k = sin(theta)/omega, finite (dt/2) at omega -> 0
    with np.errstate(invalid="ignore", divide="ignore"):
        k = np.where(omega > 0.0, np.sin(theta) / np.where(omega > 0, omega, 1.0),
                     half_dt)
    u = _pauli(cos_t, k * ax, k * ay, k * az)
    if not derivatives:
        return u
    # q series: -(dt/2)^3 * (1/3 - theta^2/30)
    q = np.where(theta < 1e-3, -(half_dt ** 3) * (1.0 / 3.0 - theta * theta / 30.0),
                 (half_dt * cos_t - k) / np.where(omega2 > 0.0, omega2, 1.0))
    du_dax = _pauli(-half_dt * k * ax, q * ax * ax + k, q * ax * ay, q * ax * az)
    du_day = _pauli(-half_dt * k * ay, q * ay * ax, q * ay * ay + k, q * ay * az)
    return u, du_dax, du_day


def _propagate(steps: np.ndarray, kets: np.ndarray) -> np.ndarray:
    """Apply steps[:, 0], steps[:, 1], ... in order to a batch of kets.

    `steps` is (members, m, 2, 2), or (1, m, 2, 2) to share one pulse across
    all members; `kets` is (members, 2).  Returns the (members, m + 1, 2)
    trajectory: entry l is the ket entering step l, entry m the final ket.
    Every ordered step product in the package runs through this loop.
    """
    steps = np.broadcast_to(steps, (len(kets),) + steps.shape[1:])
    out = np.empty((steps.shape[1] + 1, len(kets), 2, 1), dtype=complex)
    out[0] = kets[..., None]
    for l, u in enumerate(steps.swapaxes(0, 1)):
        np.matmul(u, out[l], out=out[l + 1])
    return out[..., 0].swapaxes(0, 1)


def _clamp_unit(p):
    """Snap values that rounding pushed within 1e-12 outside [0, 1] onto it."""
    p = np.asarray(p, dtype=float)
    p = np.where((p < 0.0) & (p > -_BOUNDARY_SLACK), 0.0, p)
    return np.where((p > 1.0) & (p < 1.0 + _BOUNDARY_SLACK), 1.0, p)


def step_propagator(delta: float, i_amp: float, q_amp: float, dt: float) -> Propagator:
    """Closed-form propagator of one constant step at a given detuning (Hz)."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    u = _su2_matrices(TWO_PI * i_amp, TWO_PI * q_amp, TWO_PI * delta, dt)
    return Propagator(u)


def evolve(pulse: PulseProgram, delta: float) -> Propagator:
    """Total propagator of a pulse at detuning `delta`, step 1 applied first."""
    i_amps, q_amps = pulse.amplitudes()
    steps = _su2_matrices(TWO_PI * i_amps, TWO_PI * q_amps, TWO_PI * delta, pulse.dt)
    # the images of the basis kets are the columns of the product
    return Propagator(_propagate(steps[None], np.eye(2, dtype=complex))[:, -1].T)


def state_error(u: Propagator, initial: QubitState) -> float:
    """Departure 1 - |<psi|U|psi>|^2 of a state evolved by `u`.

    Values are clamped to [0, 1] only when rounding pushes them within 1e-12
    of either end.
    """
    amp = initial.amplitudes
    overlap = np.vdot(amp, u.matrix @ amp)
    return float(_clamp_unit(1.0 - float(abs(overlap) ** 2)))


def crosstalk_bound(rabi: float, delta: float) -> float:
    """Off-resonant flip-error ceiling (rabi/delta)^2; meaningful when < 1."""
    if delta == 0:
        raise ZeroDetuning("bound undefined at zero detuning")
    return (rabi / delta) ** 2


def rect_pi_pulse(rabi: float, m: int = 1) -> PulseProgram:
    """Resonant rectangular pi-pulse at `rabi` (Hz), split into m equal steps."""
    if rabi <= 0:
        raise ValueError("rabi must be positive")
    if m < 1:
        raise ValueError("m must be >= 1")
    dt = 1.0 / (2.0 * rabi * m)
    return PulseProgram(steps=tuple(PulseStep(rabi, 0.0) for _ in range(m)), dt=dt)
