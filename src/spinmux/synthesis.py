"""Gradient-based synthesis of selective control pulses.

The objective for a target spin i and spectators j is

    f(I, Q) = (1 - eps_i) + sum_j eps_j + R

where eps_i and each eps_j are the target's and the spectators' (nuclear-
manifold averaged) flip probabilities |<1|U|0>|^2, and R a total-variation
penalty that keeps the waveform generator-friendly.  The epsilon terms carry
exact analytic gradients through the closed-form step exponentials; R
contributes a sign subgradient.

Every evaluation runs one forward path, `_Ensemble.forward`, and the gradient
reads the product trees it keeps.  Both take (P, m) amplitude stacks, one pulse
per row, and give per-pulse results (`cost` passes a stack of one), so that
`optimize` runs a group of restarts with one gradient call per iteration and
one forward call per line-search round, which tries two trials per restart.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from .dynamics import (TWO_PI, PulseProgram, _clamp_unit, _compose, _scan, _su2_pairs,
                       _su2_q, _tree)
from .errors import Diverged
from .spins import HyperfineManifold, _member_mean, hyperfine_detunings

# Line-search constants: Armijo sufficient decrease with halving backtracks.
ARMIJO_C = 1e-4
BACKTRACK_FACTOR = 0.5
MAX_BACKTRACKS = 50
STEP_GROWTH = 2.0

# Requested decreases below this resolution mean the descent has hit the
# floating-point floor; treat that as a stationary stop, not divergence.
_DECREASE_FLOOR = 1e-15

# Member-steps per forward block, 32 B of step pairs each.  Paired ratios to 16k
# (2 vCPUs; survey_profile.py 6 x 15 passes, descent_profile.py 6 x 20): survey
# wall_s 8k 1.239, 24k 0.963, 32k 0.961; synth 8k 1.025, 24k 0.993, 32k 0.995,
# its calls fitting one block from 10k on.  A 225 x 2000 evaluation's heap peak
# is 1.3 MB at 16k, 1.8 MB at 24k and 2.4 MB at 32k; cli's sweep fits one block.
_BLOCK_MEMBER_STEPS = 2 ** 14


@dataclass(frozen=True)
class ControlScenario:
    """A selective-control task: flip the target |0> -> |1>, keep the
    spectators in |0>."""

    idle_detunings: tuple                      # Hz from the carrier, one per spectator
    target_detuning: float = 0.0               # Hz from the carrier (0: on the target)
    manifold: HyperfineManifold = field(default_factory=HyperfineManifold.triplet)

    def __post_init__(self):
        idles = tuple(float(d) for d in self.idle_detunings)
        if not np.isfinite((*idles, self.target_detuning)).all():
            raise ValueError("idle_detunings and target_detuning must be finite")
        for d in idles:
            if d == self.target_detuning:
                raise ValueError("idle detunings must differ from the target's")
        object.__setattr__(self, "idle_detunings", idles)


@dataclass(frozen=True)
class OptimizerConfig:
    """Descent settings; dt defaults to 0.05/max_amp (small per-step angles)."""

    m: int = 200
    dt: float | None = None
    lam: float = 1e-7        # total-variation weight, 1/Hz
    max_iters: int = 2000
    tol: float = 1e-3        # stop when (1 - eps_i) + sum eps_j <= tol
    seed: int = 0
    restarts: int = 1
    max_amp: float = 1e7     # Hz, hardware amplitude clamp

    def __post_init__(self):
        for name, least in (("m", 1), ("max_iters", 0), ("restarts", 1), ("seed", 0)):
            value = getattr(self, name)
            try:    # numpy integers too, but not 2.5 or 2.0
                object.__setattr__(self, name, operator.index(value))
            except TypeError:
                raise ValueError(f"{name} must be an integer, got {value!r}") from None
            if value < least:
                raise ValueError(f"{name} must be >= {least}")
        # written as "not (valid)" so that NaN is rejected too
        if not 0 <= self.lam < 1e-6:
            raise ValueError("lam must satisfy 0 <= lam < 1e-6 per Hz")
        if not 0 < self.max_amp < np.inf:
            raise ValueError("max_amp must be positive and finite")
        if self.dt is not None and not 0 < self.dt < np.inf:
            raise ValueError("dt must be positive and finite")
        if not self.tol >= 0:
            raise ValueError("tol must be >= 0")

    @property
    def step_duration(self) -> float:
        return self.dt if self.dt is not None else 0.05 / self.max_amp

    @property
    def total_duration(self) -> float:
        return self.m * self.step_duration


@dataclass(frozen=True)
class CostBreakdown:
    """Objective decomposition; f = (1 - eps_i) + sum(eps_j) + reg, assembled
    here from the parts and nowhere else."""

    eps_i: float       # averaged target flip probability
    eps_j: tuple       # averaged spectator flip probabilities
    reg: float
    f: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "eps_j", tuple(self.eps_j))
        object.__setattr__(self, "f", (1.0 - self.eps_i) + sum(self.eps_j) + self.reg)


@dataclass(frozen=True)
class TraceRow:
    iteration: int
    f: float
    eps_i: float
    eps_j: tuple
    reg: float
    step_size: float


@dataclass(frozen=True)
class OptimizationTrace:
    """Accepted-iteration history of the descent that produced a pulse, the
    restart it came from, and why it stopped: converged, stationary,
    max_iters or diverged.  `converged` is read from `stop_reason`."""

    rows: tuple
    restart: int
    stop_reason: str

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(self.rows))

    @property
    def converged(self) -> bool:
        return self.stop_reason == "converged"


class _Ensemble:
    """Flattened per-member detunings and goal signs for a set of spins.

    Each spin expands, spin-major, into its `hyperfine_detunings` members, and
    every member reads its flip amplitude z = <1|U|0>, the `b` of its
    propagator; `transfer_means` averages |z|^2 back per spin with
    `_member_mean`, as every pulse evaluation does.  A spin's goal is a sign
    that only the gradient reads: -1 for a target (1 - |z|^2 in f), +1 for a
    spectator (|z|^2).
    """

    def __init__(self, detunings, manifold: HyperfineManifold, signs=1.0):
        deltas = hyperfine_detunings(np.array(detunings)[:, None], manifold)
        self.num_spins, self.per_spin = deltas.shape
        self.deltas = deltas.ravel()
        self.signs = np.repeat(np.broadcast_to(signs, self.num_spins), self.per_spin)
        self.weight = 1.0 / self.per_spin

    @classmethod
    def for_scenario(cls, scenario: ControlScenario) -> "_Ensemble":
        """Target first (sign -1), then the spectators (sign +1)."""
        idle = scenario.idle_detunings
        return cls((scenario.target_detuning, *idle), scenario.manifold,
                   [-1.0] + [1.0] * len(idle))

    def forward(self, i_amps, q_amps, dt, rows):
        """z = <1|U|0> of the members in `rows` per pulse of the (..., m)
        amplitudes, and the record the gradient reads: (rows, the levels of
        the steps' `_tree`, each a (2, ..., members, width) pair array, and
        `_su2_pairs`'s k of shape (..., members, m))."""
        steps, k = _su2_pairs(TWO_PI * np.asarray(i_amps)[..., None, :],
                              TWO_PI * np.asarray(q_amps)[..., None, :],
                              TWO_PI * self.deltas[rows, None], dt, coefficient=True)
        levels = _tree(steps)
        return levels[-1][1, ..., 0], (rows, levels, k)

    def transfer_means(self, i_amps, q_amps, dt, record=None) -> np.ndarray:
        """Mean |<1|U|0>|^2 per pulse and spin, in spin order, from `forward`
        in row blocks of at most _BLOCK_MEMBER_STEPS member-steps over all
        pulses (one member per block when the pulses alone are longer).  Each
        block's record is appended to the list `record` when one is given."""
        n, rows = len(self.deltas), max(1, _BLOCK_MEMBER_STEPS // np.size(i_amps))
        members = np.empty(np.shape(i_amps)[:-1] + (n,))
        for start in range(0, n, rows):
            z, block_record = self.forward(i_amps, q_amps, dt, slice(start, start + rows))
            members[..., block_record[0]] = np.abs(z) ** 2
            if record is not None:
                record.append(block_record)
            del z, block_record     # not alive while the next block is built
        return _clamp_unit(self._per_spin(members))

    def _per_spin(self, member_values: np.ndarray) -> np.ndarray:
        """`_member_mean` of each spin's members, which are laid out spin-major."""
        shape = member_values.shape[:-1] + (self.num_spins, self.per_spin)
        return _member_mean(member_values.reshape(shape))


def regularization(pulse: PulseProgram, lam: float) -> float:
    """Total-variation penalty lam * sum(|dI| + |dQ|) over adjacent steps."""
    return float(_regularization(*pulse.amplitudes(), lam))


def _checked_lam(lam: float) -> float:
    if not 0 <= lam < np.inf:
        raise ValueError("lam must be finite and >= 0")
    return lam


def _regularization(i_amps, q_amps, lam: float):
    """The penalty per pulse of (..., m) amplitudes, from one diff and sum."""
    tv = np.abs(np.diff(np.stack((i_amps, q_amps)))).sum(axis=-1)
    return _checked_lam(lam) * (tv[0] + tv[1])


def _regularization_gradient(i_amps, q_amps, lam: float):
    """Sign subgradient of the total-variation term (zero at ties), as the
    (I, Q) pair of (..., m) arrays, from one diff as `_regularization` takes."""
    s = np.sign(np.diff(np.stack((i_amps, q_amps), dtype=float)))
    g = np.zeros(s.shape[:-1] + (s.shape[-1] + 1,))
    g[..., :-1] += s   # d|a_l - a_{l+1}|/da_l = sign(a_l - a_{l+1}) = -s
    g[..., 1:] -= s
    return -_checked_lam(lam) * g


def _objective(ens: _Ensemble, i_amps, q_amps, dt, lam: float, record=None):
    """f and its parts, one CostBreakdown per pulse of (P, m) amplitude stacks."""
    flips = ens.transfer_means(i_amps, q_amps, dt, record).tolist()
    regs = _regularization(i_amps, q_amps, lam).tolist()
    return [CostBreakdown(f[0], f[1:], reg) for f, reg in zip(flips, regs)]


def cost(pulse: PulseProgram, scenario: ControlScenario, lam: float) -> CostBreakdown:
    """Evaluate the full objective, manifold-averaged per spin."""
    ens = _Ensemble.for_scenario(scenario)
    return _objective(ens, *(a[None] for a in pulse.amplitudes()), pulse.dt, lam)[0]


def gradient(pulse: PulseProgram, scenario: ControlScenario, lam: float):
    """Exact df/dI_l and df/dQ_l (1/Hz), including the R subgradient."""
    ens, record = _Ensemble.for_scenario(scenario), []
    ens.transfer_means(*pulse.amplitudes(), pulse.dt, record)
    return _objective_gradient(ens, *pulse.amplitudes(), pulse.dt, lam, record)


def _objective_gradient(ens: _Ensemble, i_amps, q_amps, dt, lam: float, record):
    """df/dI_l and df/dQ_l (1/Hz) per pulse of (..., m) amplitudes whose
    forward `record` holds the same pulse axes: GRAPE for the epsilon part,
    plus R's `_regularization_gradient`.

    GRAPE-style (Khaneja et al., J. Magn. Reson. 172, 296, 2005), from one
    prefix scan P_l = U_l ... U_0 with U = P_{m-1}, the down-sweep of each
    member block's tree in the forward `record`.  The state entering step l is
    psi_l = P_{l-1}|0>, the prefix pair (a, b)_{l-1} itself (psi_0 = |0>).  By
    unitarity U_{m-1} ... U_{l+1} = U P_l^H, so the costate after step l is

        chi_l = P_l U^H |1>,   with U^H |1> = (b*, a) of U,

    and dz/da_j = <chi_l|dU_l/da_j|psi_l> with z = <1|U|0>.  A member of goal
    sign s adds s |z|^2 to f, up to a constant, so its gradient is
    2 Re(conj(s z) dz/da_j).  With the step derivative of `_su2_pairs`,

        Re(conj(s z) dz/da_j) = a_j (q (a.R) - (dt/2) k R_0) + k R_j,

    where R_0 = Re(conj(s z) <chi|psi>) and R_n = Im(conj(s z) <chi|sigma_n|psi>)
    per member and step.  s z is folded into the costate,
    s z chi_l = P_l (s z U^H |1>): one `_compose` of conj(P) with a seed per
    member, whose products with the pair array psi and with psi's halves
    swapped give the four forms, and dU is never formed.
    """
    ax = TWO_PI * np.asarray(i_amps, dtype=float)[..., None, :]
    ay = TWO_PI * np.asarray(q_amps, dtype=float)[..., None, :]
    terms = np.empty((3, *ax.shape[:-2], len(ens.deltas), ax.shape[-1]))  # summed once
    while record:   # consumed: a block's tree is freed once it is swept
        rows, levels, k = record.pop(0)
        az = TWO_PI * ens.deltas[rows, None]
        q = _su2_q(levels[0][0].real, k, ax * ax + ay * ay + az * az, dt)
        prefix = _scan(levels)
        del levels
        # conj(s z chi_l) = conj(P_l) v with v = conj(s z U^H |1>) = conj(s z (b*, a))
        z = ens.signs[rows] * prefix[1, ..., -1]
        v = prefix[::-1, ..., -1:].conj()
        v[1] = prefix[0, ..., -1:]
        np.multiply(z[..., None], v, out=v)
        np.conjugate(v, out=v)
        c = _compose(prefix.conj(), v)
        psi = np.empty_like(prefix)
        psi[0, ..., 0], psi[1, ..., 0] = 1.0, 0.0
        psi[..., 1:] = prefix[..., :-1]
        del prefix, v

        # the four forms, from the products conj(s z chi)_i psi_j
        u = c * psi     # (u00, u11), then in its place (u01, u10)
        r0 = u[0].real + u[1].real
        rz = u[0].imag - u[1].imag
        np.multiply(c, psi[::-1], out=u)
        del c, psi
        rx = u[0].imag + u[1].imag
        ry = u[1].real - u[0].real
        del u

        # a_x and a_y are shared by every member, so they multiply the member sum
        terms[0, ..., rows, :] = q * (ax * rx + ay * ry + az * rz) - (0.5 * dt) * k * r0
        terms[1, ..., rows, :], terms[2, ..., rows, :] = k * rx, k * ry
    t, kx, ky = (term.sum(axis=-2) for term in terms)
    # 2 per member, manifold-weighted; 2*pi chains a_x, a_y to I, Q
    coeff = 2.0 * TWO_PI * ens.weight
    r_i, r_q = _regularization_gradient(i_amps, q_amps, lam)
    return coeff * (ax[..., 0, :] * t + kx) + r_i, coeff * (ay[..., 0, :] * t + ky) + r_q


def _initial_amplitudes(config: OptimizerConfig, restart: int):
    """Rectangular pi-area pulse (mean feasible amplitude) with +-10% noise."""
    rng = np.random.default_rng([config.seed, restart])
    base = min(1.0 / (2.0 * config.total_duration), config.max_amp)
    i_amps = base * (1.0 + 0.1 * rng.uniform(-1.0, 1.0, config.m))
    q_amps = base * 0.1 * rng.uniform(-1.0, 1.0, config.m)
    clip = config.max_amp
    return np.clip(i_amps, -clip, clip), np.clip(q_amps, -clip, clip)


def _group_record(parts):
    """The forward record of the stacked pulses `parts`, [(record, p)] in stack
    order: a record as it is when it holds exactly these pulses, else their
    blocks gathered level by level, pair axis first, by `np.array`.  The
    gradient's records run in one block each (`_descend`); a gather's one
    record can span blocks in a one-restart group."""
    record = parts[0][0]
    if len(record[0][2]) == len(parts) and all(
            rec is record and p == n for n, (rec, p) in enumerate(parts)):
        return record
    return [(rows, [np.array([[rec[j][1][n][h, p] for rec, p in parts] for h in (0, 1)])
                    for n in range(len(levels))],
             np.array([rec[j][2][p] for rec, p in parts]))
            for j, (rows, levels, _) in enumerate(record)]


def _descend(ens: _Ensemble, config: OptimizerConfig, restarts):
    """Projected-gradient descent with Armijo backtracking for a range of
    restarts, each taking exactly the steps it would take alone.  They run in
    lockstep groups of as many as keep every call in one forward block.  When
    the block holds two pulses of every restart, a line-search round tries two
    trials per restart, else one.  A group after a converged restart is not
    run.  Returns the kept restarts in order, with their `stop` reason (None
    at max_iters)."""
    room = _BLOCK_MEMBER_STEPS // (len(ens.deltas) * config.m)     # pulses per block
    # only in one group: a split into more groups adds a gradient call per group
    width = 2 if room >= 2 * len(restarts) else 1
    group = max(1, room // width)
    runs = []
    for start in range(0, len(restarts), group):
        runs += _lockstep(ens, config, restarts[start:start + group], width)
        if runs[-1].stop == "converged":
            break
    return runs


def _lockstep(ens: _Ensemble, config: OptimizerConfig, restarts, width):
    """One `_descend` group in lockstep: one stacked gradient per iteration,
    and per line-search round one stacked objective call of the next `width`
    trials alpha * 2**-j of every searching restart.  Each takes its first
    Armijo trial, the step of the one-trial loop (MAX_BACKTRACKS counts
    trials; the float floor is checked per trial, in order), and only taken
    pulses keep their record.  A converged restart drops the later ones."""
    dt, lam, clip = config.step_duration, config.lam, config.max_amp
    runs = [SimpleNamespace(restart=r, rows=[], alpha=None, searching=False, stop=None)
            for r in restarts]

    def evaluate(candidates, it):
        """One stacked objective call over (run, I, Q, move, trial) candidates,
        each run's in trial order (at iteration 0 one each, taken unconditionally)."""
        record, taken = [], []
        bds = _objective(ens, np.array([c[1] for c in candidates]),
                         np.array([c[2] for c in candidates]), dt, lam, record)
        for p, ((run, i_amps, q_amps, move, trial), bd) in enumerate(zip(candidates, bds)):
            if it and not (run.searching and bd.f <= run.bd.f - ARMIJO_C * move):
                continue    # failed Armijo, or took an earlier trial of this call
            run.i_amps, run.q_amps, run.bd = i_amps, q_amps, bd
            taken.append((run, p))
            run.rows.append(TraceRow(it, bd.f, bd.eps_i, bd.eps_j, bd.reg, trial))
            if it:
                run.alpha, run.searching = trial * STEP_GROWTH, False
            if bd.f - bd.reg <= config.tol:
                run.stop = "converged"
                del runs[run.restart - runs[0].restart + 1:]
        if taken:   # one gather: the taken pulses alone stay alive
            record = _group_record([(record, p) for _, p in taken])
        for j, (run, _) in enumerate(taken):
            run.record = (record, j)

    evaluate([(run, *_initial_amplitudes(config, run.restart), 0.0, 0.0) for run in runs], 0)
    for it in range(1, config.max_iters + 1):
        active = [run for run in runs if run.stop is None]
        if not active:
            break
        # records handed over, so that a stacked copy is not alive beside them
        grads = _objective_gradient(ens, np.array([run.i_amps for run in active]),
                                    np.array([run.q_amps for run in active]), dt, lam,
                                    _group_record([vars(run).pop("record") for run in active]))
        for run, g_i, g_q in zip(active, *grads):
            if float(np.dot(g_i, g_i) + np.dot(g_q, g_q)) == 0.0:
                run.stop = "stationary"
                continue
            if run.alpha is None:
                run.alpha = 0.1 * clip / max(np.max(np.abs(g_i)), np.max(np.abs(g_q)))
            run.g_i, run.g_q, run.searching = g_i, g_q, True
        for first in range(0, MAX_BACKTRACKS, width):
            candidates, floored = [], []
            for run in (run for run in runs if run.searching):
                for j in range(first, min(first + width, MAX_BACKTRACKS)):
                    trial = run.alpha * BACKTRACK_FACTOR ** j
                    cand_i = np.clip(run.i_amps - trial * run.g_i, -clip, clip)
                    cand_q = np.clip(run.q_amps - trial * run.g_q, -clip, clip)
                    # projected Armijo: decrease measured against the realized move
                    move = float(np.dot(run.g_i, run.i_amps - cand_i)
                                 + np.dot(run.g_q, run.q_amps - cand_q))
                    if ARMIJO_C * move < _DECREASE_FLOOR * max(1.0, abs(run.bd.f)):
                        floored.append(run)     # float resolution, if this trial is reached
                        break
                    candidates.append((run, cand_i, cand_q, move, trial))
            if candidates:
                evaluate(candidates, it)
            for run in (run for run in floored if run.searching):
                run.stop, run.searching = "stationary", False
            if not candidates:
                break
        for run in (run for run in runs if run.searching):
            run.stop, run.searching = "diverged", False
    return runs


def optimize(scenario: ControlScenario, config: OptimizerConfig):
    """Synthesize a pulse for the scenario; returns (pulse, trace).

    Runs up to `config.restarts` independently seeded descents, stopping early
    once one reaches the tolerance; that one wins, else the least final
    objective (penalty included).  Restarts run in lockstep groups, two
    line-search trials each per forward call, with the result of running them
    one after another, one trial at a time.  Raises Diverged (carrying the
    best artifacts so far) only if every restart stalls in its line search.
    """
    runs = _descend(_Ensemble.for_scenario(scenario), config, range(config.restarts))
    # a converged restart drops the later ones, so it is the last kept
    best = runs[-1] if runs[-1].stop == "converged" else min(runs, key=lambda run: run.bd.f)
    pulse = PulseProgram.from_arrays(best.i_amps, best.q_amps, config.step_duration)
    trace = OptimizationTrace(best.rows, best.restart, best.stop or "max_iters")
    if all(run.stop == "diverged" for run in runs):
        raise Diverged("no descent step accepted in any restart", pulse=pulse, trace=trace)
    return pulse, trace


@dataclass(frozen=True)
class SweepPoint:
    delta_offset: float   # Hz added to every detuning, the target's too
    amp_scale: float      # multiplier on all amplitudes
    eps_i: float          # the target's flip probability
    eps_j: tuple          # the spectators' flip probabilities


def sensitivity_sweep(
    pulse: PulseProgram,
    scenario: ControlScenario,
    delta_offsets,
    amp_scales,
):
    """Re-evaluate the scenario over a grid of common detuning offsets (a
    carrier error: the target moves too) and amplitude scales, each point the
    `cost` of the shifted scenario and scaled pulse, row-major in the given
    order.  One ensemble holds every site at every offset, so each scale is
    one forward evaluation."""
    offsets, scales = list(delta_offsets), list(amp_scales)
    for name, values in (("delta_offsets", offsets), ("amp_scales", scales)):
        if not np.isfinite(values).all():
            raise ValueError(f"{name} must be finite")
    sites = np.add.outer(offsets, (scenario.target_detuning, *scenario.idle_detunings))
    ens = _Ensemble(sites.ravel(), scenario.manifold)
    i_amps, q_amps = pulse.amplitudes()
    flips = [ens.transfer_means(i_amps * scale, q_amps * scale, pulse.dt)
             .reshape(sites.shape).tolist() for scale in scales]
    return [SweepPoint(float(offset), float(scale), f[k][0], tuple(f[k][1:]))
            for k, offset in enumerate(offsets) for scale, f in zip(scales, flips)]
