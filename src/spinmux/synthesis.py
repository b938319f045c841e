"""Gradient-based synthesis of selective control pulses.

The objective for a target spin i and spectators j is

    f(I, Q) = (1 - eps_i) + sum_j eps_j + R

where eps_i is the (nuclear-manifold averaged) probability that the target
goes from |0> to |1>, eps_j the averaged departure of each spectator from |0>,
and R a total-variation penalty that keeps the waveform
generator-friendly.  The epsilon terms carry exact analytic gradients through
the closed-form step exponentials; R contributes a sign subgradient.

The forward kernel and the gradient take (P, m) amplitude stacks, one pulse
per row, and give per-pulse results (a 1-d pulse is a stack of one), so that
`optimize` runs a group of restarts with one gradient call per iteration and
one forward call per line-search round, which tries two trials per restart.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field, replace
from types import SimpleNamespace

import numpy as np

from .dynamics import (TWO_PI, PulseProgram, QubitState, _clamp_unit, _compose,
                       _scan, _su2_pairs, _su2_q, _tree)
from .errors import Diverged
from .spins import HyperfineManifold, hyperfine_detunings

# Line-search constants: Armijo sufficient decrease with halving backtracks.
ARMIJO_C = 1e-4
BACKTRACK_FACTOR = 0.5
MAX_BACKTRACKS = 50
STEP_GROWTH = 2.0

# Requested decreases below this resolution mean the descent has hit the
# floating-point floor; treat that as a stationary stop, not divergence.
_DECREASE_FLOOR = 1e-15

# Member-steps per forward block.  Survey wall_s by size (perfbench, 2 vCPUs):
# 4k 0.148 s, 8k 0.122, 12k 0.115, 16k 0.108, 20k-24k 0.109, 32k 0.136, and
# 64k 0.139 with peak RSS up 2.5 MB.  The cli workload's one sweep (66 members
# x 200 steps, a fresh `spinmux sweep` per run, median of 12): 8k 8.1 ms, 16k
# 8.6, 32k 10.0, all inside its quartile spread of about 2 ms.
_BLOCK_MEMBER_STEPS = 2 ** 14


@dataclass(frozen=True)
class ControlScenario:
    """A selective-control task: flip the target |0> -> |1>, keep the
    spectators in |0>."""

    idle_detunings: tuple                      # Hz, one per spectator
    target_detuning: float = 0.0               # Hz, normally 0 (carrier on target)
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

    eps_i: float       # averaged target transfer probability
    eps_j: tuple       # averaged spectator errors
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
    """Flattened per-member detunings and state vectors for a set of spins.

    Each spin is (detuning, bra state, ket state) and expands, spin-major,
    into its `hyperfine_detunings` members; `transfer_means` averages
    |<bra|U|ket>|^2 back per spin.  This is the only place pulses are
    averaged over the manifold.  When the manifold splitting is zero a spin
    keeps only its first member, of weight 1, which keeps results identical
    to the single-member computation.
    """

    def __init__(self, spins, manifold: HyperfineManifold):
        detunings, bras, kets = zip(*spins)
        deltas = hyperfine_detunings(np.array(detunings)[:, None], manifold)
        per_spin = 1 if manifold.splitting == 0.0 else deltas.shape[1]
        self.deltas = deltas[:, :per_spin].ravel()
        self.bras = np.repeat([state.amplitudes for state in bras], per_spin, axis=0)
        self.kets = np.repeat([state.amplitudes for state in kets], per_spin, axis=0)
        self.num_spins = len(spins)
        self.weight = 1.0 / per_spin

    @classmethod
    def for_scenario(cls, scenario: ControlScenario) -> "_Ensemble":
        """Target first (|0> -> |1>), then the spectators (|0> -> |0>, so
        1 - |z|^2 is their departure)."""
        ground, excited = QubitState.ground(), QubitState.excited()
        spins = [(scenario.target_detuning, excited, ground)]
        spins += [(d, ground, ground) for d in scenario.idle_detunings]
        return cls(spins, scenario.manifold)

    def forward(self, i_amps, q_amps, dt, rows):
        """<bra|U|ket> of the members in `rows` per pulse of the (..., m)
        amplitudes, and the record the gradient reads: (rows, the levels of
        the steps' `_tree`, `_su2_pairs`'s k), each with the pulse axes first."""
        steps, k = _su2_pairs(TWO_PI * np.asarray(i_amps)[..., None, :],
                              TWO_PI * np.asarray(q_amps)[..., None, :],
                              TWO_PI * self.deltas[rows, None], dt, coefficient=True)
        levels = _tree(*steps)
        final = _compose(levels[-1][0][..., 0], levels[-1][1][..., 0], *self.kets[rows].T)
        return self._overlaps(*final, rows), (rows, levels, k)

    def transfer_means(self, i_amps, q_amps, dt, record=None) -> np.ndarray:
        """Mean |<bra|U|ket>|^2 per pulse and spin, in spin order, evaluated in
        row blocks of at most _BLOCK_MEMBER_STEPS member-steps over all pulses
        (one member per block when the pulses alone are longer).  Each block's
        `forward` record is appended to the list `record` when one is given."""
        n, rows = len(self.deltas), max(1, _BLOCK_MEMBER_STEPS // np.size(i_amps))
        members = np.empty(np.shape(i_amps)[:-1] + (n,))
        for start in range(0, n, rows):
            z, block_record = self.forward(i_amps, q_amps, dt, slice(start, start + rows))
            members[..., block_record[0]] = np.abs(z) ** 2
            if record is not None:
                record.append(block_record)
            del z, block_record     # not alive while the next block is built
        return _clamp_unit(self._per_spin(members))

    def _overlaps(self, x, y, rows=slice(None)):
        """<bra|(x, y)> per member in `rows`."""
        return self.bras[rows, 0].conj() * x + self.bras[rows, 1].conj() * y

    def _per_spin(self, member_values: np.ndarray) -> np.ndarray:
        """Mean over each spin's members, which are laid out spin-major."""
        shape = member_values.shape[:-1] + (self.num_spins, -1)
        return member_values.reshape(shape).sum(axis=-1) * self.weight


def regularization(pulse: PulseProgram, lam: float) -> float:
    """Total-variation penalty lam * sum(|dI| + |dQ|) over adjacent steps."""
    return float(_regularization(*pulse.amplitudes(), lam))


def _regularization(i_amps, q_amps, lam: float):
    """The penalty per pulse of (..., m) amplitudes, from one diff and sum."""
    if lam < 0:
        raise ValueError("lam must be >= 0")
    tv = np.abs(np.diff(np.stack((i_amps, q_amps)))).sum(axis=-1)
    return lam * (tv[0] + tv[1])


def _regularization_gradient(i_amps, q_amps, lam: float):
    """Sign subgradient of the total-variation term (zero at ties)."""

    def sub(a):
        s = np.sign(np.diff(a))
        g = np.zeros_like(a)
        g[..., :-1] += s   # d|a_l - a_{l+1}|/da_l = sign(a_l - a_{l+1}) = -s
        g[..., 1:] -= s
        return -lam * g

    return sub(np.asarray(i_amps, dtype=float)), sub(np.asarray(q_amps, dtype=float))


def _errors(target_transfer, spectator_transfers):
    """(eps_i, eps_j) from the target's and the spectators' transfer means."""
    return float(target_transfer), tuple(1.0 - float(v) for v in spectator_transfers)


def _objective(ens: _Ensemble, i_amps, q_amps, dt, lam: float, record=None):
    """f and its parts for amplitude arrays, one CostBreakdown per pulse of a
    (P, m) stack (one for a 1-d pulse)."""
    transfer = ens.transfer_means(i_amps, q_amps, dt, record)
    regs = np.atleast_1d(_regularization(i_amps, q_amps, lam)).tolist()
    out = [CostBreakdown(*_errors(t[0], t[1:]), reg)
           for t, reg in zip(np.atleast_2d(transfer), regs)]
    return out if transfer.ndim > 1 else out[0]


def _objective_gradient(ens: _Ensemble, i_amps, q_amps, dt, lam: float, record):
    """df/dI_l and df/dQ_l (1/Hz), R subgradient included, from the arrays' `record`."""
    g_i, g_q = _cost_gradient_arrays(ens, i_amps, q_amps, dt, record)
    r_i, r_q = _regularization_gradient(i_amps, q_amps, lam)
    return g_i + r_i, g_q + r_q


def cost(pulse: PulseProgram, scenario: ControlScenario, lam: float) -> CostBreakdown:
    """Evaluate the full objective, manifold-averaged per spin."""
    return _objective(_Ensemble.for_scenario(scenario), *pulse.amplitudes(),
                      pulse.dt, lam)


def gradient(pulse: PulseProgram, scenario: ControlScenario, lam: float):
    """Exact df/dI_l and df/dQ_l (1/Hz), including the R subgradient."""
    ens, record = _Ensemble.for_scenario(scenario), []
    ens.transfer_means(*pulse.amplitudes(), pulse.dt, record)
    return _objective_gradient(ens, *pulse.amplitudes(), pulse.dt, lam, record)


def _cost_gradient_arrays(ens: _Ensemble, i_amps, q_amps, dt, record):
    """Gradient of the epsilon part of f with respect to I and Q, per pulse of
    (..., m) amplitudes whose forward `record` holds the same pulse axes.

    GRAPE-style, from one prefix scan P_l = U_l ... U_0 with U = P_{m-1}, the
    down-sweep of each member block's tree in the forward `record`.  The state
    entering step l is psi_l = P_{l-1} ket (psi_0 = ket).  By unitarity
    U_{m-1} ... U_{l+1} = U P_l^H, so the costate after step l is

        chi_l = P_l U^H bra,

    and dz/da_j = <chi_l|dU_l/da_j|psi_l> with z = <bra|U|ket>.  Every spin
    contributes a (1 - |z|^2) term to f, so a member's gradient is
    -2 Re(conj(z) dz/da_j).  With the step derivative of `_su2_pairs`,

        Re(conj(z) dz/da_j) = a_j (q (a.R) - (dt/2) k R_0) + k R_j,

    where R_0 = Re(conj(z) <chi|psi>) and R_n = Im(conj(z) <chi|sigma_n|psi>)
    per member and step.  z is folded into the costate,
    z chi_l = P_l (z U^H bra), so the four forms take four complex products
    and dU is never formed.  Members and steps are the last two axes.
    """
    ax = TWO_PI * np.asarray(i_amps, dtype=float)[..., None, :]
    ay = TWO_PI * np.asarray(q_amps, dtype=float)[..., None, :]
    terms = np.empty((3, *ax.shape[:-2], len(ens.deltas), ax.shape[-1]))  # summed once
    while record:   # consumed: a block's tree is freed once it is swept
        rows, levels, k = record.pop(0)
        az = TWO_PI * ens.deltas[rows, None]
        q = _su2_q(levels[0][0].real, k, ax * ax + ay * ay + az * az, dt)
        a, b = _scan(levels)
        del levels
        (ket0, ket1), bras = ens.kets[rows].T, ens.bras[rows].T
        # f_l = P_l ket, so psi_l = f_{l-1} and z = <bra|f_{m-1}>
        f0, f1 = _compose(a, b, ket0[:, None], ket1[:, None])
        z = ens._overlaps(f0[..., -1], f1[..., -1], rows)
        # conj(z chi_l) = conj(P_l) v with v = conj(z U^H bra), U^H = (a*, -b)
        w0, w1 = _compose(a[..., -1].conj(), -b[..., -1], *bras)
        c0, c1 = _compose(a.conj(), b.conj(),
                          (z * w0).conj()[..., None], (z * w1).conj()[..., None])
        del a, b
        psi0, psi1 = np.empty_like(f0), np.empty_like(f1)
        psi0[..., 0], psi1[..., 0] = ket0, ket1
        psi0[..., 1:], psi1[..., 1:] = f0[..., :-1], f1[..., :-1]
        del f0, f1

        # the four forms, from the products conj(z chi)_i psi_j
        u00, u11 = c0 * psi0, c1 * psi1
        r0 = u00.real + u11.real
        rz = u00.imag - u11.imag
        del u00, u11
        u01, u10 = c0 * psi1, c1 * psi0
        del c0, c1, psi0, psi1
        rx = u01.imag + u10.imag
        ry = u10.real - u01.real
        del u01, u10

        # a_x and a_y are shared by every member, so they multiply the member sum
        terms[0, ..., rows, :] = q * (ax * rx + ay * ry + az * rz) - (0.5 * dt) * k * r0
        terms[1, ..., rows, :], terms[2, ..., rows, :] = k * rx, k * ry
    t, kx, ky = (term.sum(axis=-2) for term in terms)
    # -2 per member, manifold-weighted; 2*pi chains a_x, a_y to I, Q
    coeff = -2.0 * TWO_PI * ens.weight
    return coeff * (ax[..., 0, :] * t + kx), coeff * (ay[..., 0, :] * t + ky)


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
    blocks stacked level by level (every call of a lockstep group runs in one
    block, see `_descend`)."""
    record = parts[0][0]
    if len(record[0][2]) == len(parts) and all(
            rec is record and p == n for n, (rec, p) in enumerate(parts)):
        return record
    return [(rows, [tuple(np.stack([rec[j][1][n][s][p] for rec, p in parts]) for s in (0, 1))
                    for n in range(len(levels))],
             np.stack([rec[j][2][p] for rec, p in parts]))
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
    trials (alpha, alpha/2) of every searching restart.  Each takes its first
    Armijo trial, the step of the one-trial loop (MAX_BACKTRACKS counts
    trials; the float floor is checked per trial, in order), and only taken
    pulses keep their record.  A converged restart drops the later ones."""
    dt, lam, clip = config.step_duration, config.lam, config.max_amp
    runs = [SimpleNamespace(restart=r, rows=[], alpha=None, trial=None, stop=None)
            for r in restarts]

    def evaluate(candidates, it):
        """One stacked objective call over (run, I, Q, move) candidates, each
        run's in trial order (at iteration 0 one each, taken unconditionally)."""
        record, taken = [], []
        bds = _objective(ens, np.array([c[1] for c in candidates]),
                         np.array([c[2] for c in candidates]), dt, lam, record)
        for p, ((run, i_amps, q_amps, move), bd) in enumerate(zip(candidates, bds)):
            if it and run.trial is None:
                continue    # took an earlier trial of this call
            if it and not bd.f <= run.bd.f - ARMIJO_C * move:
                run.trial *= BACKTRACK_FACTOR
                continue
            run.i_amps, run.q_amps, run.bd = i_amps, q_amps, bd
            taken.append((run, p))
            run.rows.append(TraceRow(it, bd.f, bd.eps_i, bd.eps_j, bd.reg, run.trial or 0.0))
            if it:
                run.alpha, run.trial = run.trial * STEP_GROWTH, None
            if bd.f - bd.reg <= config.tol:
                run.stop = "converged"
                del runs[run.restart - runs[0].restart + 1:]
        if 0 < len(taken) < len(bds):   # one gather: the taken pulses alone stay alive
            index = [p for _, p in taken]
            record = [(rows, [(a[index], b[index]) for a, b in levels], k[index])
                      for rows, levels, k in record]
        for j, (run, _) in enumerate(taken):
            run.record = (record, j)

    evaluate([(run, *_initial_amplitudes(config, run.restart), 0.0) for run in runs], 0)
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
            run.g_i, run.g_q, run.trial = g_i, g_q, run.alpha
        for first in range(0, MAX_BACKTRACKS, width):
            candidates, floored = [], []
            for run in (run for run in runs if run.trial is not None):
                trial = run.trial
                for _ in range(min(width, MAX_BACKTRACKS - first)):
                    cand_i = np.clip(run.i_amps - trial * run.g_i, -clip, clip)
                    cand_q = np.clip(run.q_amps - trial * run.g_q, -clip, clip)
                    # projected Armijo: decrease measured against the realized move
                    move = float(np.dot(run.g_i, run.i_amps - cand_i)
                                 + np.dot(run.g_q, run.q_amps - cand_q))
                    if ARMIJO_C * move < _DECREASE_FLOOR * max(1.0, abs(run.bd.f)):
                        floored.append(run)     # float resolution, if this trial is reached
                        break
                    candidates.append((run, cand_i, cand_q, move))
                    trial *= BACKTRACK_FACTOR
            if candidates:
                evaluate(candidates, it)
            for run in (run for run in floored if run.trial is not None):
                run.stop, run.trial = "stationary", None
            if not candidates:
                break
        for run in (run for run in runs if run.trial is not None):
            run.stop, run.trial = "diverged", None
    return runs


def optimize(scenario: ControlScenario, config: OptimizerConfig):
    """Synthesize a pulse for the scenario; returns (pulse, trace).

    Runs up to `config.restarts` independently seeded descents, stopping early
    once one reaches the tolerance; the best final objective wins.  Restarts
    run in lockstep groups, two line-search trials each per forward call, with
    the result of running them one after another, one trial at a time.  Raises
    Diverged (carrying the best artifacts so far) only if every restart stalls
    in its line search.
    """
    runs = _descend(_Ensemble.for_scenario(scenario), config, range(config.restarts))
    best = min(runs, key=lambda run: run.bd.f)
    pulse = PulseProgram.from_arrays(best.i_amps, best.q_amps, config.step_duration)
    trace = OptimizationTrace(best.rows, best.restart, best.stop or "max_iters")
    if all(run.stop == "diverged" for run in runs):
        raise Diverged("no descent step accepted in any restart", pulse=pulse, trace=trace)
    return pulse, trace


@dataclass(frozen=True)
class SweepPoint:
    delta_offset: float   # Hz added to every spectator detuning
    amp_scale: float      # multiplier on all amplitudes
    eps_i: float
    eps_j: tuple


def sensitivity_sweep(
    pulse: PulseProgram,
    scenario: ControlScenario,
    delta_offsets,
    amp_scales,
):
    """Re-evaluate the scenario over a grid of detuning offsets and amplitude
    scales; the Cartesian grid is returned row-major in the given order.
    One ensemble holds every spectator at every offset, so each scale is one
    forward evaluation."""
    offsets, scales = list(delta_offsets), list(amp_scales)
    n = len(scenario.idle_detunings)
    shifted = tuple(d + offset for offset in offsets for d in scenario.idle_detunings)
    ens = _Ensemble.for_scenario(replace(scenario, idle_detunings=shifted))
    i_amps, q_amps = pulse.amplitudes()
    transfers = [ens.transfer_means(i_amps * scale, q_amps * scale, pulse.dt)
                 for scale in scales]
    return [SweepPoint(float(offset), float(scale),
                       *_errors(t[0], t[1 + k * n:1 + (k + 1) * n]))
            for k, offset in enumerate(offsets) for scale, t in zip(scales, transfers)]
