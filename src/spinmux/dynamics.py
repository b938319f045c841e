"""Two-level dynamics under piecewise-constant in-phase/quadrature controls.

Controls are cyclic amplitudes in Hz: a step (I, Q) drives the rotating-frame
Hamiltonian H/hbar = 0.5*(2*pi*delta*sz + 2*pi*I*sx + 2*pi*Q*sy) for its
duration.  Each step is exponentiated in closed form (exact for constant
controls), so products stay unitary to rounding even over 1e4 steps.  Its
cos(theta) = (1 - t^2)/(1 + t^2) and sin(theta) = 2t/(1 + t^2) take one
t = tan(theta/2), which numpy vectorizes (AVX-512) where its float64 sin and
cos call scalar libm; they stay within 3.4e-16 of libm's (`_su2_pairs`).

Every step unitary lies in SU(2), U = [[a, -b*], [b, a*]], so internally a
step is one complex array of shape (2, ...) whose axis 0 holds its
Cayley-Klein pair (a, b).  Pairs compose element-wise, U2 U1 =
(a2 a1 - b2* b1, b2 a1 + a2* b1), also onto a ket (x, y) in place of
(a1, b1); U^H is (a*, -b).  dU/da_j is never formed: the gradient contracts
it in closed form from two real coefficients per step.  Ordered products
over the step axis run as one pairwise tree (`_tree`) whose top is the
final propagator (`_product`); every level is kept, because the gradient's
prefix scan is that tree's down-sweep.  2x2 matrices are built only for
`Propagator` at the API boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ZeroDetuning

TWO_PI = 2.0 * math.pi

# |z|^2 may stray past [0, 1] by accumulated rounding; clamp only that much.
_BOUNDARY_SLACK = 1e-12

SI_CEILING = 1e15  # Hz or s: inside it no product the step builder forms overflows


@dataclass(frozen=True)
class PulseStep:
    """One piecewise-constant control step, amplitudes in cyclic Hz."""

    i_amp: float
    q_amp: float


@dataclass(frozen=True, init=False, eq=False)
class PulseProgram:
    """An ordered list of control steps with a uniform step duration.

    The I and Q amplitudes (Hz) are stored as read-only float arrays;
    `steps` rebuilds the `PulseStep` view on demand.  Build one with
    `from_arrays`.
    """

    i_amps: np.ndarray
    q_amps: np.ndarray
    dt: float  # s

    @classmethod
    def from_arrays(cls, i_amps, q_amps, dt: float) -> "PulseProgram":
        i_amps = np.array(i_amps, dtype=float)
        q_amps = np.array(q_amps, dtype=float)
        if i_amps.shape != q_amps.shape or i_amps.ndim != 1:
            raise ValueError("I and Q must be 1-d arrays of equal length")
        if len(i_amps) < 1:
            raise ValueError("a pulse needs at least one step")
        if not (np.isfinite(i_amps).all() and np.isfinite(q_amps).all()):
            raise ValueError("i_amps and q_amps must be finite")
        if not 0 < dt < math.inf:
            raise ValueError("dt must be positive and finite")
        i_amps.setflags(write=False)
        q_amps.setflags(write=False)
        pulse = cls.__new__(cls)
        object.__setattr__(pulse, "i_amps", i_amps)
        object.__setattr__(pulse, "q_amps", q_amps)
        object.__setattr__(pulse, "dt", dt)
        return pulse

    @property
    def steps(self) -> tuple:
        return tuple(PulseStep(float(i), float(q))
                     for i, q in zip(self.i_amps, self.q_amps))

    @property
    def duration(self) -> float:
        return len(self.i_amps) * self.dt

    def amplitudes(self) -> tuple[np.ndarray, np.ndarray]:
        """The stored (read-only) (I, Q) amplitude arrays in Hz."""
        return self.i_amps, self.q_amps


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
        if not drift <= 1e-10:     # a NaN drift fails too
            raise ValueError(f"matrix is not unitary (drift {drift:.3e})")
        object.__setattr__(self, "matrix", m)

    def apply(self, state: QubitState) -> QubitState:
        return QubitState(self.matrix @ state.amplitudes)


def _pair(c, x, y, z, k=1.0):
    """The SU(2)-form pair (c - i*k*z, k*y - i*k*x) of
    c*1 - i*k*(x*sx + y*sy + z*sz) for real c, x, y, z and k, in one (2, ...)
    array.  The parts are written into it directly: no mixed real/complex
    ufunc (with its buffered cast) runs and no k*x temporary is made.  The
    imaginary parts are 0.0 - k*z and 0.0 - k*x, signed zeros included."""
    u = np.empty((2, *np.broadcast(c, k, x, y, z).shape), dtype=complex)
    a, b = u[0, ...], u[1, ...]     # views, 0-d ones too
    a.real = c
    np.multiply(k, z, out=a.imag)
    np.subtract(0.0, a.imag, out=a.imag)
    np.multiply(k, y, out=b.real)
    np.multiply(k, x, out=b.imag)
    np.subtract(0.0, b.imag, out=b.imag)
    return u


def _su2_pairs(ax, ay, az, dt, coefficient: bool = False):
    """exp(-i*(dt/2)*(ax*sx + ay*sy + az*sz)) as one (2, ...) pair array for
    stacked angular rates (rad/s).

    ax, ay, az and dt broadcast together to the pair's trailing shape.
    This is the only place a step unitary is built.  Writing
    U = cos(theta) - i*k*(a.sigma) with theta = |a| dt/2 and
    k = sin(theta)/|a|, the exact derivative is

        dU/da_j = -(dt/2) k a_j 1 - i sum_n (q a_j a_n + k delta_jn) sigma_n

    with q = ((dt/2) cos(theta) - k)/|a|^2 (`_su2_q`), which takes its series
    as |a| -> 0.  With `coefficient`, returns (pair, k).

    With t = tan(theta/2), cos(theta) = (1 - t^2)/(1 + t^2) and
    sin(theta) = 2t/(1 + t^2): for theta from 1e-9 to 1e12, Re(a) is within
    2.3e-16 of libm's cos(theta), k|a| within 3.4e-16 of its sin(theta), and
    |a|^2 + |b|^2 within 6.4e-16 of 1.  omega, t and 1 + t^2 are updated in
    place, because each float temporary more adds page faults per call.
    """
    ax = np.asarray(ax, dtype=float)
    ay = np.asarray(ay, dtype=float)
    az = np.asarray(az, dtype=float)
    half_dt = 0.5 * np.asarray(dt, dtype=float)
    # omega, then t = tan(theta/2): arrays (0-d too) that sqrt and tan write into
    omega = np.asarray(ax * ax + ay * ay + az * az)
    np.sqrt(omega, out=omega)
    k = np.asarray(0.5 * half_dt * omega)
    np.tan(k, out=k)
    d = k * k
    cos_t = 1.0 - d
    d += 1.0
    cos_t /= d
    k += k
    k /= d      # sin(theta)
    if omega.min(initial=1.0) > 0.0:    # no step at rest (a NaN takes the guards)
        k /= omega
    else:   # k = sin(theta)/omega, finite (dt/2) at omega -> 0
        moving = omega > 0.0
        k = np.where(moving, k / np.where(moving, omega, 1.0), half_dt)
    u = _pair(cos_t, ax, ay, az, k)
    return (u, k) if coefficient else u


def _su2_q(cos_t, k, omega2, dt):
    """q of `_su2_pairs` from its cos(theta) = Re(a) and k, and omega2 = |a|^2."""
    half_dt = 0.5 * np.asarray(dt, dtype=float)
    theta = half_dt * np.sqrt(omega2)
    if theta.min(initial=1.0) >= 1e-3:     # no step takes the series
        return (half_dt * cos_t - k) / omega2
    # series as |a| -> 0: -(dt/2)^3 * (1/3 - theta^2/30)
    return np.where(theta < 1e-3, -(half_dt ** 3) * (1.0 / 3.0 - theta * theta / 30.0),
                    (half_dt * cos_t - k) / np.where(omega2 > 0.0, omega2, 1.0))


def _compose(u2, u1):
    """U2 U1 of pair arrays of equal rank (u1's shape broadcasts to u2's) in
    five calls, each half by the IEEE operations of a2 a1 - b2* b1 and
    b2 a1 + a2* b1 in that order.  A ket (x, y) as u1 gives U2 (x, y)."""
    out = u2 * u1[0]
    w = u2[::-1].conj()
    w *= u1[1]
    out[0] -= w[0]
    out[1] += w[1]
    return out


def _tree(u):
    """The levels of the pairwise product tree of a pair array along its last
    axis, steps first: each composes the (odd, even) neighbours below, and an
    odd leftover rides up.  The top is `_product`; `_scan` reads every level."""
    levels = [u]
    while u.shape[-1] > 1:
        n = u.shape[-1]
        p = _compose(u[..., 1::2], u[..., 0:n - 1:2])
        u = np.concatenate([p, u[..., -1:]], axis=-1) if n % 2 else p
        levels.append(u)
    return levels


def _product(u):
    """Ordered product U[..., n-1] ... U[..., 0] along the last axis: `_tree`'s top."""
    return _tree(u)[-1][..., 0]


def _scan(levels):
    """Inclusive prefix products along the last axis from the levels of
    `_tree`, as one pair array: entry l of the result is U_l ... U_0.

    The down-sweep of the log-depth odd/even scan (Blelloch 1990): from the
    top down, each odd entry of a level is its parent's prefix, and each even
    entry is its own element composed onto the odd prefix before it.  The
    last entry is the tree's top, so it is `_product`'s bits.
    """
    top = s = levels[-1]
    for u in reversed(levels[:-1]):
        n = u.shape[-1]
        out = np.empty_like(u)
        out[..., 1::2] = s[..., :n // 2]
        out[..., 0] = u[..., 0]
        out[..., 2::2] = _compose(u[..., 2::2], s[..., :(n - 1) // 2])
        s = out
    if len(levels) > 1:     # two steps or more: the top is not the steps themselves
        s[..., -1] = top[..., 0]
    return s


def _matrix(u) -> np.ndarray:
    """The 2x2 unitary [[a, -b*], [b, a*]] of one (2,) pair."""
    return np.array([[u[0], -np.conj(u[1])], [u[1], np.conj(u[0])]], dtype=complex)


def _clamp_unit(p):
    """Snap values that rounding pushed within 1e-12 outside [0, 1] onto it."""
    p = np.asarray(p, dtype=float)
    p = np.where((p < 0.0) & (p > -_BOUNDARY_SLACK), 0.0, p)
    return np.where((p > 1.0) & (p < 1.0 + _BOUNDARY_SLACK), 1.0, p)


def _check_finite(**values) -> None:
    """Raise a ValueError naming the first of the scalar `values` that is not finite."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite")


def step_propagator(delta: float, i_amp: float, q_amp: float, dt: float) -> Propagator:
    """Closed-form propagator of one constant step at a given detuning (Hz)."""
    _check_finite(delta=delta, i_amp=i_amp, q_amp=q_amp)
    if not 0 < dt < math.inf:
        raise ValueError("dt must be positive and finite")
    return Propagator(_matrix(_su2_pairs(TWO_PI * i_amp, TWO_PI * q_amp,
                                         TWO_PI * delta, dt)))


def evolve(pulse: PulseProgram, delta: float) -> Propagator:
    """Total propagator of a pulse at detuning `delta`, step 1 applied first."""
    _check_finite(delta=delta)
    steps = _su2_pairs(TWO_PI * pulse.i_amps, TWO_PI * pulse.q_amps,
                       TWO_PI * delta, pulse.dt)
    return Propagator(_matrix(_product(steps)))


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
    if not 0 < rabi < math.inf:
        raise ValueError("rabi must be positive and finite")
    if m < 1:
        raise ValueError("m must be >= 1")
    dt = 1.0 / (2.0 * rabi * m)
    return PulseProgram.from_arrays(np.full(m, float(rabi)), np.zeros(m), dt)
