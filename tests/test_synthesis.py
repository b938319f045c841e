import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import spinmux.synthesis as synthesis

from spinmux import (
    ControlScenario,
    HyperfineManifold,
    OptimizerConfig,
    PulseProgram,
    QubitState,
    cost,
    demo_config_path,
    gradient,
    optimize,
    rect_pi_pulse,
    regularization,
    sensitivity_sweep,
    SweepPoint,
    hyperfine_detunings,
    load_config,
)
from spinmux.errors import Diverged
from spinmux.synthesis import (OptimizationTrace, TraceRow, _Ensemble, _initial_amplitudes,
                               _objective)

TRIPLET = HyperfineManifold.triplet()
NO_MANIFOLD = HyperfineManifold.triplet(0.0)


def random_pulse(rng, m=20, dt=50e-9, scale=5e6):
    return PulseProgram.from_arrays(rng.uniform(-scale, scale, m),
                                    rng.uniform(-scale, scale, m), dt)


class TestRegularization:
    def test_constant_pulse_is_free(self):
        pulse = PulseProgram.from_arrays([2e6] * 5, [1e6] * 5, 50e-9)
        assert regularization(pulse, 1e-7) == 0.0

    def test_direct_sum(self):
        pulse = PulseProgram.from_arrays([0.0, 2e6, 2e6], [0.0, 0.0, 1e6], 50e-9)
        assert regularization(pulse, 1e-7) == pytest.approx(0.3, rel=1e-12)

    def test_zero_weight(self):
        rng = np.random.default_rng(0)
        assert regularization(random_pulse(rng), 0.0) == 0.0

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            regularization(PulseProgram.from_arrays([0.0], [0.0], 1e-9), -1e-9)


class TestEnsembleMembers:
    """Every spin expands into its `hyperfine_detunings`, spin-major."""

    @staticmethod
    def assert_members(ens, spins, manifold, per_spin):
        want = np.concatenate([hyperfine_detunings(d, manifold)[:per_spin]
                               for d, _, _ in spins])
        assert ens.deltas.shape == want.shape
        assert np.array_equal(ens.deltas, want)
        assert np.array_equal(np.signbit(ens.deltas), np.signbit(want))
        for states, k in ((ens.bras, 1), (ens.kets, 2)):
            assert np.array_equal(states, [spin[k].amplitudes for spin in spins
                                           for _ in range(per_spin)])
        assert (ens.num_spins, ens.weight) == (len(spins), 1.0 / per_spin)

    @pytest.mark.parametrize("splitting", (2.2e6, 0.37e6))
    def test_members_are_hyperfine_detunings(self, splitting):
        rng = np.random.default_rng(int(splitting))
        ground, excited = QubitState.ground(), QubitState.excited()
        spins = [(0.0, excited, ground), (-0.0, ground, ground)]
        spins += [(float(d), ground, excited) for d in rng.uniform(-3e6, 3e6, 4)]
        manifold = HyperfineManifold.triplet(splitting)
        self.assert_members(_Ensemble(spins, manifold), spins, manifold, 3)

    def test_zero_hyperfine_keeps_one_member_of_weight_1(self, tmp_path):
        doc = json.loads(Path(demo_config_path("demo_close_pair")).read_text())
        doc["constants"]["hyperfine_mhz"] = 0
        path = tmp_path / "no_hyperfine.json"
        path.write_text(json.dumps(doc))
        manifold = load_config(str(path)).manifold
        ground = QubitState.ground()
        spins = [(d, ground, ground) for d in (0.0, -0.0, 1.1e6, -2.3e6)]
        self.assert_members(_Ensemble(spins, manifold), spins, manifold, 1)


class TestCost:
    def test_zero_pulse(self):
        scen = ControlScenario(idle_detunings=(1.1e6,), manifold=TRIPLET)
        pulse = PulseProgram.from_arrays(np.zeros(10), np.zeros(10), 50e-9)
        bd = cost(pulse, scen, 1e-7)
        assert bd.eps_i == pytest.approx(0.0, abs=1e-12)
        assert bd.eps_j[0] == pytest.approx(0.0, abs=1e-12)
        assert bd.reg == 0.0
        assert bd.f == pytest.approx(1.0, abs=1e-12)

    def test_assembly_identity(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            scen = ControlScenario(
                idle_detunings=tuple(rng.uniform(0.5e6, 5e6, rng.integers(1, 4))),
                manifold=TRIPLET,
            )
            bd = cost(random_pulse(rng), scen, 1e-8)
            assert abs(bd.f - ((1 - bd.eps_i) + sum(bd.eps_j) + bd.reg)) <= 1e-12

    def test_resonant_pi_without_manifold(self):
        scen = ControlScenario(idle_detunings=(1.6e8,), manifold=NO_MANIFOLD)
        bd = cost(rect_pi_pulse(1e7, m=8), scen, 0.0)
        assert bd.eps_i == pytest.approx(1.0, abs=1e-10)

    def test_disabled_manifold_equals_single_member(self):
        # zero offsets collapse the three coincident members into one, so the
        # "average" reproduces the plain single-spin numbers
        rng = np.random.default_rng(6)
        pulse = random_pulse(rng)
        scen3 = ControlScenario(idle_detunings=(2.2e6,), manifold=NO_MANIFOLD)
        bd = cost(pulse, scen3, 0.0)
        from spinmux import evolve, state_error, QubitState

        g = QubitState.ground()
        eps_i = state_error(evolve(pulse, 0.0), g)
        eps_j = state_error(evolve(pulse, 2.2e6), g)
        assert bd.eps_i == pytest.approx(eps_i, rel=1e-12, abs=1e-15)
        assert bd.eps_j[0] == pytest.approx(eps_j, rel=1e-12, abs=1e-15)

    def test_idle_detuning_must_differ_from_target(self):
        with pytest.raises(ValueError):
            ControlScenario(idle_detunings=(0.0,))


class TestGradient:
    def test_regularizer_gradient_of_constant_pulse_is_zero(self):
        pulse = PulseProgram.from_arrays([1e6] * 8, [-2e6] * 8, 50e-9)
        scen = ControlScenario(idle_detunings=(2e6,), manifold=NO_MANIFOLD)
        g0_i, g0_q = gradient(pulse, scen, 0.0)
        g1_i, g1_q = gradient(pulse, scen, 1e-7)
        assert np.array_equal(g0_i, g1_i)
        assert np.array_equal(g0_q, g1_q)

    def test_matches_central_differences(self):
        # oracle: central finite differences of the scalar cost, h = 1 Hz
        rng = np.random.default_rng(7)
        m, dt, h = 20, 50e-9, 1.0
        pulse = random_pulse(rng, m=m, dt=dt)
        scen = ControlScenario(idle_detunings=(1.1e6,), manifold=TRIPLET)
        g_i, g_q = gradient(pulse, scen, 0.0)
        i_amps, q_amps = pulse.amplitudes()

        def f(iv, qv):
            return cost(PulseProgram.from_arrays(iv, qv, dt), scen, 0.0).f

        for l in range(m):
            up, dn = i_amps.copy(), i_amps.copy()
            up[l] += h
            dn[l] -= h
            fd = (f(up, q_amps) - f(dn, q_amps)) / (2 * h)
            if abs(fd) > 1e-12:
                assert g_i[l] == pytest.approx(fd, rel=1e-5)
            up, dn = q_amps.copy(), q_amps.copy()
            up[l] += h
            dn[l] -= h
            fd = (f(i_amps, up) - f(i_amps, dn)) / (2 * h)
            if abs(fd) > 1e-12:
                assert g_q[l] == pytest.approx(fd, rel=1e-5)

    def test_quadrature_rotation_equivariance(self):
        # (I, Q) -> (Q, -I) is a global drive-phase rotation, so the cost is
        # invariant and the gradient components permute accordingly
        rng = np.random.default_rng(8)
        dt = 50e-9
        pulse = random_pulse(rng, dt=dt)
        i_amps, q_amps = pulse.amplitudes()
        rotated = PulseProgram.from_arrays(q_amps, -i_amps, dt)
        scen = ControlScenario(idle_detunings=(1.1e6, -0.7e6), manifold=TRIPLET)
        assert cost(pulse, scen, 0.0).f == pytest.approx(
            cost(rotated, scen, 0.0).f, rel=1e-12)
        g_i, g_q = gradient(pulse, scen, 0.0)
        gr_i, gr_q = gradient(rotated, scen, 0.0)
        assert g_i == pytest.approx(-gr_q, rel=1e-9, abs=1e-18)
        assert g_q == pytest.approx(gr_i, rel=1e-9, abs=1e-18)


class TestOptimize:
    def test_trivial_tolerance_returns_initial_pulse(self):
        scen = ControlScenario(idle_detunings=(1.1e6,), manifold=TRIPLET)
        config = OptimizerConfig(m=16, dt=50e-9, tol=2.0, seed=12, restarts=1)
        pulse, trace = optimize(scen, config)
        init_i, init_q = _initial_amplitudes(config, 0)
        got_i, got_q = pulse.amplitudes()
        assert np.array_equal(got_i, init_i)
        assert np.array_equal(got_q, init_q)
        assert len(trace.rows) == 1 and trace.rows[0].iteration == 0
        assert trace.converged

    def test_well_resolved_scenario_converges_fast(self):
        scen = ControlScenario(idle_detunings=(1.6e8,), manifold=NO_MANIFOLD)
        config = OptimizerConfig(m=24, dt=50e-9, lam=0.0, tol=1e-3, seed=0,
                                 restarts=1, max_iters=300)
        pulse, trace = optimize(scen, config)
        last = trace.rows[-1]
        assert trace.converged
        assert (1 - last.eps_i) + sum(last.eps_j) <= 1e-3
        assert last.iteration <= 50

    def test_accepted_objective_is_monotone(self):
        scen = ControlScenario(idle_detunings=(1.1e6,), manifold=TRIPLET)
        config = OptimizerConfig(m=60, dt=100e-9, lam=1e-9, tol=1e-4, seed=2,
                                 restarts=1, max_iters=150)
        _, trace = optimize(scen, config)
        fs = [row.f for row in trace.rows]
        assert all(b <= a for a, b in zip(fs, fs[1:]))

    def test_deterministic_given_seed(self):
        scen = ControlScenario(idle_detunings=(1.1e6,), manifold=TRIPLET)
        config = OptimizerConfig(m=40, dt=100e-9, lam=1e-9, tol=5e-3, seed=5,
                                 restarts=2, max_iters=200)
        p1, t1 = optimize(scen, config)
        p2, t2 = optimize(scen, config)
        assert np.array_equal(p1.amplitudes()[0], p2.amplitudes()[0])
        assert np.array_equal(p1.amplitudes()[1], p2.amplitudes()[1])
        assert [r.f for r in t1.rows] == [r.f for r in t2.rows]

    def test_amplitudes_respect_clamp(self):
        scen = ControlScenario(idle_detunings=(2e6,), manifold=NO_MANIFOLD)
        config = OptimizerConfig(m=30, dt=50e-9, lam=0.0, tol=1e-6, seed=1,
                                 restarts=1, max_iters=100, max_amp=2e5)
        pulse, _ = optimize(scen, config)
        i_amps, q_amps = pulse.amplitudes()
        assert np.max(np.abs(i_amps)) <= 2e5
        assert np.max(np.abs(q_amps)) <= 2e5

    def test_flanked_target_with_two_spectators(self):
        # spectator errors add in f, so a target squeezed between neighbors at
        # +-1.1 MHz must be flipped while both stay put
        scen = ControlScenario(idle_detunings=(1.1e6, -1.1e6), manifold=TRIPLET)
        config = OptimizerConfig(m=200, dt=50e-9, lam=1e-9, tol=5e-3, seed=0,
                                 restarts=5, max_iters=4000)
        _, trace = optimize(scen, config)
        last = trace.rows[-1]
        assert trace.converged
        assert last.eps_i >= 0.99
        assert all(e <= 0.01 for e in last.eps_j)

    def test_smoothing_weight_reduces_total_variation(self):
        scen = ControlScenario(idle_detunings=(1.1e6,), manifold=TRIPLET)
        tvs = {}
        for lam in (0.0, 1e-7):
            config = OptimizerConfig(m=100, dt=100e-9, lam=lam, tol=5e-3, seed=0,
                                     restarts=1, max_iters=400)
            pulse, _ = optimize(scen, config)
            tvs[lam] = regularization(pulse, 1.0)  # the total variation
        assert tvs[1e-7] <= tvs[0.0]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            OptimizerConfig(lam=1e-6)  # at the documented ceiling
        with pytest.raises(ValueError):
            OptimizerConfig(m=0)
        with pytest.raises(ValueError):
            OptimizerConfig(max_amp=0.0)
        for bad in ({"lam": float("nan")}, {"max_amp": float("nan")},
                    {"dt": float("nan")}):
            with pytest.raises(ValueError):
                OptimizerConfig(**bad)


class TestCompareRectangular:
    """Fast (10 MHz) and slow (200 kHz) rectangular pi-pulses on the scenario."""

    def test_fast_pulse_has_large_crosstalk(self):
        scen = ControlScenario(idle_detunings=(1.1e6,), manifold=TRIPLET)
        assert cost(rect_pi_pulse(1e7), scen, 0.0).eps_j[0] > 0.9

    def test_slow_pulse_is_nuclear_state_selective(self):
        scen = ControlScenario(idle_detunings=(1.1e6,), manifold=TRIPLET)
        assert 0.33 <= cost(rect_pi_pulse(2e5), scen, 0.0).eps_i <= 0.40

    def test_resolved_slow_pulse_meets_bound(self):
        scen = ControlScenario(idle_detunings=(4e6,), manifold=NO_MANIFOLD)
        # delta/rabi = 20
        assert cost(rect_pi_pulse(2e5), scen, 0.0).eps_j[0] <= 1.0 / 400.0


class TestSensitivitySweep:
    def converged_pulse_and_scenario(self):
        scen = ControlScenario(idle_detunings=(1.1e6,), manifold=TRIPLET)
        config = OptimizerConfig(m=200, dt=50e-9, lam=1e-9, tol=5e-3, seed=0,
                                 restarts=5, max_iters=3000)
        pulse, _ = optimize(scen, config)
        return pulse, scen

    def test_nominal_point_reproduces_cost(self):
        pulse, scen = self.converged_pulse_and_scenario()
        bd = cost(pulse, scen, 0.0)
        [point] = sensitivity_sweep(pulse, scen, [0.0], [1.0])
        assert point.eps_i == bd.eps_i
        assert point.eps_j == bd.eps_j

    def test_zero_scale_kills_the_drive(self):
        pulse, scen = self.converged_pulse_and_scenario()
        [point] = sensitivity_sweep(pulse, scen, [0.0], [0.0])
        assert point.eps_i == pytest.approx(0.0, abs=1e-12)
        assert point.eps_j[0] == pytest.approx(0.0, abs=1e-12)

    def test_detuning_offsets_blow_up_spectator_error(self):
        # the selective notch is narrow: moving the spectator by a fraction of
        # a megahertz must cost at least 5x the nominal error
        pulse, scen = self.converged_pulse_and_scenario()
        offsets = np.linspace(-2e5, 2e5, 9)
        points = sensitivity_sweep(pulse, scen, offsets, [1.0])
        nominal = next(p for p in points if p.delta_offset == 0.0)
        worst = max(sum(p.eps_j) for p in points)
        assert worst >= 5.0 * sum(nominal.eps_j)

    def test_symmetric_offsets_for_real_pulse_and_symmetric_spectators(self):
        # a Q-free palindromic pulse with spectators at +-delta gives an
        # offset-even summed spectator error (conjugation symmetry)
        rng = np.random.default_rng(3)
        half = rng.uniform(-2e6, 2e6, 10)
        i_amps = np.concatenate([half, half[::-1]])
        pulse = PulseProgram.from_arrays(i_amps, np.zeros_like(i_amps), 50e-9)
        scen = ControlScenario(idle_detunings=(1.1e6, -1.1e6), manifold=TRIPLET)
        for x in (0.05e6, 0.2e6, 0.73e6):
            plus = sensitivity_sweep(pulse, scen, [x], [1.0])[0]
            minus = sensitivity_sweep(pulse, scen, [-x], [1.0])[0]
            assert sum(plus.eps_j) == pytest.approx(sum(minus.eps_j), abs=1e-10)
            assert plus.eps_i == pytest.approx(minus.eps_i, abs=1e-10)

    def test_grid_is_cartesian(self):
        pulse = PulseProgram.from_arrays([1e6] * 4, [0.0] * 4, 50e-9)
        scen = ControlScenario(idle_detunings=(2e6,), manifold=NO_MANIFOLD)
        points = sensitivity_sweep(pulse, scen, [0.0, 1e5], [0.5, 1.0, 1.5])
        assert len(points) == 6
        assert [(p.delta_offset, p.amp_scale) for p in points] == [
            (0.0, 0.5), (0.0, 1.0), (0.0, 1.5),
            (1e5, 0.5), (1e5, 1.0), (1e5, 1.5),
        ]


def reference_sweep(pulse, scenario, delta_offsets, amp_scales):
    """The per-point sweep: one ensemble per offset, one forward evaluation
    per grid point."""
    i_amps, q_amps = pulse.amplitudes()
    out = []
    for offset in delta_offsets:
        shifted = replace(
            scenario, idle_detunings=tuple(d + offset for d in scenario.idle_detunings))
        ens = _Ensemble.for_scenario(shifted)
        for scale in amp_scales:
            bd = _objective(ens, i_amps * scale, q_amps * scale, pulse.dt, 0.0)
            out.append(SweepPoint(delta_offset=float(offset), amp_scale=float(scale),
                                  eps_i=bd.eps_i, eps_j=bd.eps_j))
    return out


class TestBatchedSweep:
    """One ensemble over every offset gives the per-point sweep bit for bit."""

    @pytest.mark.parametrize("seed", range(6))
    def test_random_grids_equal_per_point_sweep(self, seed):
        rng = np.random.default_rng([9, seed])
        spectators = int(rng.integers(0, 4))
        scen = ControlScenario(
            idle_detunings=tuple(rng.uniform(0.3e6, 3e6, spectators)
                                 * rng.choice([-1.0, 1.0], spectators)),
            manifold=TRIPLET if seed % 2 else NO_MANIFOLD)
        pulse = random_pulse(rng, m=int(rng.integers(1, 300)))
        offsets = rng.uniform(-0.5e6, 0.5e6, int(rng.integers(1, 6)))
        scales = rng.uniform(0.0, 1.5, int(rng.integers(1, 4)))
        got = sensitivity_sweep(pulse, scen, offsets, scales)
        assert got == reference_sweep(pulse, scen, offsets, scales)

    def test_duplicate_offsets_zero_scale_and_long_pulse(self):
        # 1 + 3 x 4 spins x 3 members x 3000 steps runs in many blocks
        rng = np.random.default_rng(10)
        scen = ControlScenario(idle_detunings=(1.1e6, -2.3e6, 4.4e6), manifold=TRIPLET)
        pulse = random_pulse(rng, m=3000, dt=5e-9)
        offsets, scales = [0.0, 1e5, 0.0, -1e5], [0.0, 1.0, 1.0, 1.05]
        got = sensitivity_sweep(pulse, scen, offsets, scales)
        assert got == reference_sweep(pulse, scen, offsets, scales)
        # scale 0 is free precession: only rounding moves the spectators
        assert got[0].eps_i == 0.0 and max(got[0].eps_j) <= 1e-12

    def test_zero_spectators(self):
        pulse = random_pulse(np.random.default_rng(11))
        scen = ControlScenario(idle_detunings=(), manifold=TRIPLET)
        got = sensitivity_sweep(pulse, scen, [-1e5, 0.0], [0.9, 1.1])
        assert got == reference_sweep(pulse, scen, [-1e5, 0.0], [0.9, 1.1])
        assert all(p.eps_j == () for p in got)

    def test_one_forward_evaluation_per_scale(self, monkeypatch):
        calls = []
        transfer_means = _Ensemble.transfer_means

        def counting(ens, *args):
            calls.append(len(ens.deltas))
            return transfer_means(ens, *args)

        monkeypatch.setattr(_Ensemble, "transfer_means", counting)
        pulse = random_pulse(np.random.default_rng(12))
        scen = ControlScenario(idle_detunings=(1.1e6, -0.7e6), manifold=TRIPLET)
        sensitivity_sweep(pulse, scen, np.linspace(-2e5, 2e5, 5), [0.95, 1.0, 1.05])
        assert calls == [3 * (1 + 5 * 2)] * 3

    def test_small_budget_equals_per_point_sweep(self, monkeypatch):
        rng = np.random.default_rng(13)
        scen = ControlScenario(idle_detunings=(1.1e6, -0.7e6), manifold=TRIPLET)
        pulse = random_pulse(rng, m=40)
        want = reference_sweep(pulse, scen, [-1e5, 0.0, 2e5], [0.5, 1.0])
        monkeypatch.setattr(synthesis, "_BLOCK_MEMBER_STEPS", 100)
        assert sensitivity_sweep(pulse, scen, [-1e5, 0.0, 2e5], [0.5, 1.0]) == want

    def test_offset_onto_the_target_raises(self):
        pulse = random_pulse(np.random.default_rng(14))
        scen = ControlScenario(idle_detunings=(1.1e6, 2e6), manifold=TRIPLET)
        with pytest.raises(ValueError, match="must differ from the target") as want:
            reference_sweep(pulse, scen, [0.0, -1.1e6], [1.0])
        with pytest.raises(ValueError) as got:
            sensitivity_sweep(pulse, scen, [0.0, -1.1e6], [1.0])
        assert str(got.value) == str(want.value)


class TestGradientReuse:
    """The descent hands each accepted iterate's forward record to its
    gradient, which then rebuilds no step; with restarts in lockstep, records
    accepted in different line-search rounds are stacked into one gradient."""

    @staticmethod
    def descent_gradients(monkeypatch, scenario, config):
        """(I, Q, gradient) of every pulse at every gradient the descent takes."""
        seen = []
        objective_gradient = synthesis._objective_gradient

        def capturing(ens, i_amps, q_amps, dt, lam, record):
            g = objective_gradient(ens, i_amps, q_amps, dt, lam, record)
            seen.extend(zip(np.array(i_amps), np.array(q_amps), zip(*g)))
            return g

        monkeypatch.setattr(synthesis, "_objective_gradient", capturing)
        optimize(scenario, config)
        monkeypatch.undo()
        return seen

    def assert_equal_from_scratch(self, seen, scenario, config):
        assert len(seen) >= 2      # the initial pulse and an accepted candidate
        for i_amps, q_amps, (g_i, g_q) in seen:
            pulse = PulseProgram.from_arrays(i_amps, q_amps, config.step_duration)
            want_i, want_q = gradient(pulse, scenario, config.lam)
            assert np.array_equal(g_i, want_i) and np.array_equal(g_q, want_q)

    @pytest.mark.parametrize("m", (1, 2, 37, 200))
    @pytest.mark.parametrize("manifold", (TRIPLET, NO_MANIFOLD), ids=("triplet", "hf0"))
    @pytest.mark.parametrize("spectators", (0, 1, 2, 3))
    def test_record_fed_gradient_equals_from_scratch(self, monkeypatch, m, manifold,
                                                     spectators):
        idle = (1.1e6, -0.7e6, 2.3e6)[:spectators]
        scenario = ControlScenario(idle_detunings=idle, manifold=manifold)
        config = OptimizerConfig(m=m, dt=1e-6 / m, lam=1e-9, max_iters=4, tol=0.0,
                                 seed=m + spectators, restarts=3)
        seen = self.descent_gradients(monkeypatch, scenario, config)
        self.assert_equal_from_scratch(seen, scenario, config)

    def test_record_fed_gradient_of_a_clipped_pulse(self, monkeypatch):
        # the pi-area amplitude (5e5 Hz) lies above max_amp, so I is clipped
        scenario = ControlScenario(idle_detunings=(1.1e6, -0.7e6), manifold=TRIPLET)
        config = OptimizerConfig(m=37, dt=1e-6 / 37, lam=1e-9, max_iters=4, tol=0.0,
                                 max_amp=4e5, restarts=3)
        seen = self.descent_gradients(monkeypatch, scenario, config)
        assert all(np.sum(np.abs(i_amps) == config.max_amp) > 0 for i_amps, _, _ in seen)
        self.assert_equal_from_scratch(seen, scenario, config)

    def test_su2_pairs_runs_once_per_objective_and_never_in_the_gradient(
            self, monkeypatch):
        counts = count_kernel_calls(monkeypatch, optimize, ControlScenario(
            idle_detunings=(1.1e6, -2.3e6), manifold=TRIPLET), OptimizerConfig(
            m=200, dt=5e-8, lam=1e-9, max_iters=10, tol=0.0, restarts=2))
        # both restarts in one lockstep group: one stacked gradient per iteration
        assert counts["gradient"] == 10
        assert counts["objective"] > counts["gradient"]
        assert counts["pairs"] == counts["objective"]
        assert counts["in_gradient"] == 0


def count_kernel_calls(monkeypatch, run_optimize, scenario, config):
    """Calls of `_su2_pairs` (in all, and inside the gradient), `_objective` and
    `_objective_gradient` made by one `run_optimize(scenario, config)`."""
    counts = {"pairs": 0, "objective": 0, "gradient": 0, "in_gradient": 0}
    inside = [False]
    su2_pairs = synthesis._su2_pairs
    objective, objective_gradient = synthesis._objective, synthesis._objective_gradient

    def counting_pairs(*args, **kwargs):
        counts["pairs"] += 1
        counts["in_gradient"] += inside[0]
        return su2_pairs(*args, **kwargs)

    def counting_objective(*args):
        counts["objective"] += 1
        return objective(*args)

    def flagging_gradient(*args):
        counts["gradient"] += 1
        inside[0] = True
        try:
            return objective_gradient(*args)
        finally:
            inside[0] = False

    monkeypatch.setattr(synthesis, "_su2_pairs", counting_pairs)
    monkeypatch.setattr(synthesis, "_objective", counting_objective)
    monkeypatch.setattr(synthesis, "_objective_gradient", flagging_gradient)
    try:
        run_optimize(scenario, config)
    finally:
        monkeypatch.undo()
    return counts


def count_stacked_calls(monkeypatch, run_optimize, scenario, config):
    """The pulses of each `_objective` call, in order, and the number of
    `_objective_gradient` calls made by one `run_optimize(scenario, config)`."""
    pulses, gradients = [], []
    objective, objective_gradient = synthesis._objective, synthesis._objective_gradient

    def counting_objective(ens, i_amps, *args):
        pulses.append(len(i_amps) if np.ndim(i_amps) == 2 else 1)
        return objective(ens, i_amps, *args)

    def counting_gradient(*args):
        gradients.append(1)
        return objective_gradient(*args)

    monkeypatch.setattr(synthesis, "_objective", counting_objective)
    monkeypatch.setattr(synthesis, "_objective_gradient", counting_gradient)
    try:
        outcome(run_optimize, scenario, config)
    finally:
        monkeypatch.undo()
    return pulses, len(gradients)


def reference_trials(monkeypatch, ens, config, restart):
    """The trials (objective calls) of each iteration of one restart run alone,
    and its trace."""
    events = []
    objective, objective_gradient = synthesis._objective, synthesis._objective_gradient
    monkeypatch.setattr(synthesis, "_objective",
                        lambda *args: events.append("o") or objective(*args))
    monkeypatch.setattr(synthesis, "_objective_gradient",
                        lambda *args: events.append("g") or objective_gradient(*args))
    try:
        _, trace, _, _ = reference_descend(ens, config, restart)
    finally:
        monkeypatch.undo()
    return [len(trials) for trials in "".join(events[1:]).split("g")[1:]], trace


def reference_descend(ens, config, restart):
    """One restart of projected-gradient descent with Armijo backtracking, on
    its own: the loop the lockstep descent must reproduce step for step."""
    dt = config.step_duration
    lam = config.lam
    clip = config.max_amp
    i_amps, q_amps = _initial_amplitudes(config, restart)
    record = []           # the forward record of the accepted iterate
    bd = synthesis._objective(ens, i_amps, q_amps, dt, lam, record)
    rows = [TraceRow(0, bd.f, bd.eps_i, bd.eps_j, bd.reg, 0.0)]
    alpha = None
    converged = bd.f - bd.reg <= config.tol
    diverged = False

    for it in range(1, config.max_iters + 1):
        if converged:
            break
        g_i, g_q = synthesis._objective_gradient(ens, i_amps, q_amps, dt, lam, record)
        gnorm2 = float(np.dot(g_i, g_i) + np.dot(g_q, g_q))
        if gnorm2 == 0.0:
            break
        if alpha is None:
            gmax = max(np.max(np.abs(g_i)), np.max(np.abs(g_q)))
            alpha = 0.1 * config.max_amp / gmax
        trial = alpha
        accepted = False
        floor_hit = False
        for _ in range(synthesis.MAX_BACKTRACKS):
            cand_i = np.clip(i_amps - trial * g_i, -clip, clip)
            cand_q = np.clip(q_amps - trial * g_q, -clip, clip)
            # projected Armijo: decrease measured against the realized move
            move = float(np.dot(g_i, i_amps - cand_i) + np.dot(g_q, q_amps - cand_q))
            if synthesis.ARMIJO_C * move < synthesis._DECREASE_FLOOR * max(1.0, abs(bd.f)):
                floor_hit = True
                break
            cand_record = []
            cand_bd = synthesis._objective(ens, cand_i, cand_q, dt, lam, cand_record)
            if cand_bd.f <= bd.f - synthesis.ARMIJO_C * move:
                i_amps, q_amps, bd, record = cand_i, cand_q, cand_bd, cand_record
                rows.append(TraceRow(it, bd.f, bd.eps_i, bd.eps_j, bd.reg, trial))
                alpha = trial * synthesis.STEP_GROWTH
                accepted = True
                break
            trial *= synthesis.BACKTRACK_FACTOR
        if not accepted:
            if floor_hit:
                break  # decrease below float resolution: stationary
            diverged = True
            break
        converged = bd.f - bd.reg <= config.tol

    pulse = PulseProgram.from_arrays(i_amps, q_amps, dt)
    trace = OptimizationTrace(rows=tuple(rows), restart=restart,
                              stop_reason="converged" if converged else "max_iters")
    return pulse, trace, bd, diverged


def reference_optimize(scenario, config):
    """Restarts one after another, stopping after the first that converges;
    the lowest final objective wins."""
    ens = _Ensemble.for_scenario(scenario)
    best = None
    any_ok = False
    for restart in range(config.restarts):
        pulse, trace, bd, diverged = reference_descend(ens, config, restart)
        if best is None or bd.f < best[2].f:
            best = (pulse, trace, bd)
        any_ok = any_ok or not diverged
        if trace.converged:
            break
    if not any_ok:
        raise Diverged("no descent step accepted in any restart",
                       pulse=best[0], trace=best[1])
    return best[0], best[1]


def outcome(run_optimize, scenario, config):
    """(Diverged message or None, pulse, trace) of one optimize call."""
    try:
        return (None, *run_optimize(scenario, config))
    except Diverged as exc:
        return str(exc), exc.pulse, exc.trace


class TestLockstepRestarts:
    """Restarts descending in lockstep give what one after another give, bit
    for bit: the pulse, every trace row, the converged flag and the winning
    restart, or the same Diverged payload."""

    @staticmethod
    def assert_same_as_sequential(scenario, config):
        want = outcome(reference_optimize, scenario, config)
        got = outcome(optimize, scenario, config)
        assert got[0] == want[0]
        assert np.array_equal(got[1].i_amps, want[1].i_amps)
        assert np.array_equal(got[1].q_amps, want[1].q_amps)
        assert got[2].rows == want[2].rows
        assert (got[2].converged, got[2].restart) == (want[2].converged, want[2].restart)
        return got

    # 4 us pulses against one spectator at 1.1 MHz; 37 steps keep them quick
    SCENARIO = ControlScenario(idle_detunings=(1.1e6,), manifold=TRIPLET)

    @staticmethod
    def config(**kwargs):
        return OptimizerConfig(**{"m": 37, "dt": 4e-6 / 37, "lam": 1e-9, **kwargs})

    @pytest.mark.parametrize("restarts", (1, 2, 3, 4, 5))
    @pytest.mark.parametrize("tol", (0.0, 1e-3, 2.0))
    def test_restarts_and_tolerances(self, restarts, tol):
        config = self.config(tol=tol, restarts=restarts, seed=9, max_iters=25)
        _, _, trace = self.assert_same_as_sequential(self.SCENARIO, config)
        if tol == 2.0:      # every initial pulse meets it: restart 0 wins at once
            assert (trace.converged, trace.restart, len(trace.rows)) == (True, 0, 1)
        if tol == 0.0:
            assert not trace.converged

    def test_a_later_restart_converges_first(self):
        # alone, restart 0 converges after 38 iterations and restart 1 after 7
        config = self.config(tol=3e-3, restarts=4, seed=9, max_iters=60)
        _, _, trace = self.assert_same_as_sequential(self.SCENARIO, config)
        assert (trace.converged, trace.restart, len(trace.rows)) == (True, 0, 39)
        # within 20 iterations only restart 1 converges, and it wins
        _, _, trace = self.assert_same_as_sequential(self.SCENARIO,
                                                     replace(config, max_iters=20))
        assert (trace.converged, trace.restart, len(trace.rows)) == (True, 1, 8)

    def test_restart_0_converges_while_the_others_search(self):
        # alone, the restarts converge after 8, 12, 10 and 9 iterations
        config = self.config(tol=3e-3, restarts=4, seed=0, max_iters=60)
        _, _, trace = self.assert_same_as_sequential(self.SCENARIO, config)
        assert (trace.converged, trace.restart, len(trace.rows)) == (True, 0, 9)

    def test_a_tie_goes_to_the_lower_restart(self):
        # at a 1 mHz max_amp the transfers round away: every restart stops at
        # once on f = 1.0, each with its own pulse
        config = self.config(m=1, dt=4e-6, tol=0.0, restarts=3, max_amp=1e-3, seed=9)
        ens = _Ensemble.for_scenario(self.SCENARIO)
        assert len({reference_descend(ens, config, r)[2].f for r in range(3)}) == 1
        _, _, trace = self.assert_same_as_sequential(self.SCENARIO, config)
        assert trace.restart == 0

    @pytest.mark.parametrize("m", (1, 2, 37, 200))
    @pytest.mark.parametrize("manifold", (TRIPLET, NO_MANIFOLD), ids=("triplet", "hf0"))
    @pytest.mark.parametrize("spectators", (0, 1, 2, 3))
    def test_spectators_manifolds_and_lengths(self, m, manifold, spectators):
        scenario = ControlScenario(idle_detunings=(1.1e6, -0.7e6, 2.3e6)[:spectators],
                                   manifold=manifold)
        config = OptimizerConfig(m=m, dt=2e-6 / m, lam=1e-9, tol=1e-3, restarts=3,
                                 seed=m + spectators, max_iters=6)
        self.assert_same_as_sequential(scenario, config)

    def test_clipped_pulse(self):
        # the pi-area amplitude (5e5 Hz) lies above max_amp, so I is clipped
        scenario = ControlScenario(idle_detunings=(1.1e6, -0.7e6), manifold=TRIPLET)
        config = OptimizerConfig(m=37, dt=1e-6 / 37, lam=1e-9, tol=1e-3, max_amp=4e5,
                                 restarts=3, max_iters=30)
        _, pulse, _ = self.assert_same_as_sequential(scenario, config)
        assert np.max(np.abs(pulse.i_amps)) == config.max_amp

    @pytest.mark.parametrize("group", (1, 2))
    def test_small_groups(self, monkeypatch, group):
        # a budget of `group` pulses' member-steps runs the restarts in groups
        # of that size, each call in one block
        config = self.config(tol=3e-3, restarts=5, seed=9, max_iters=60)
        monkeypatch.setattr(synthesis, "_BLOCK_MEMBER_STEPS", group * 3 * 2 * 37)
        self.assert_same_as_sequential(self.SCENARIO, config)
        self.assert_same_as_sequential(self.SCENARIO, replace(config, max_iters=20))

    def test_stalled_line_searches_give_the_same_divergence(self, monkeypatch):
        # with steps growing 16x and 6 backtracks, seed 5 stalls every restart
        # after 2, 2, 3 and 5 accepted steps; seed 7 stalls restarts 0-2 and
        # restart 3 converges
        monkeypatch.setattr(synthesis, "MAX_BACKTRACKS", 6)
        monkeypatch.setattr(synthesis, "STEP_GROWTH", 16.0)
        config = self.config(tol=1e-3, restarts=4, seed=5, max_iters=60)
        message, _, trace = self.assert_same_as_sequential(self.SCENARIO, config)
        assert message == "no descent step accepted in any restart"
        assert trace.stop_reason == "diverged" and len(trace.rows) > 1
        message, _, trace = self.assert_same_as_sequential(self.SCENARIO,
                                                           replace(config, seed=7))
        assert message is None
        assert (trace.stop_reason, trace.restart) == ("converged", 3)

    @pytest.mark.parametrize("kwargs, reason", [
        (dict(tol=2.0), "converged"),
        (dict(tol=0.0, max_iters=3), "max_iters"),
        # 20 steps over 0.3 us cannot separate the pair: the steps shrink
        # below float resolution
        (dict(m=20, dt=0.3e-6 / 20, tol=1e-3, max_iters=2000), "stationary"),
    ], ids=["converged", "max-iters", "stationary"])
    def test_stop_reason(self, kwargs, reason):
        config = self.config(**{"restarts": 2, "seed": 9, "max_iters": 30, **kwargs})
        _, _, trace = self.assert_same_as_sequential(self.SCENARIO, config)
        assert trace.stop_reason == reason

    def test_descend_splits_its_restarts_into_one_block_groups(self):
        # 30 members x 200 steps leave room for two pulses per forward block;
        # a direct call over three restarts runs groups of two and one (it
        # used to fail inside np.stack on a group that spanned two blocks)
        scenario = ControlScenario(idle_detunings=tuple(0.45e6 * k for k in range(1, 10)),
                                   manifold=TRIPLET)
        config = OptimizerConfig(m=200, dt=10e-6 / 200, lam=1e-9, tol=0.0, restarts=3,
                                 seed=4, max_iters=4)
        ens = _Ensemble.for_scenario(scenario)
        assert synthesis._BLOCK_MEMBER_STEPS // (len(ens.deltas) * config.m) == 2
        runs = synthesis._descend(ens, config, range(3))
        assert [run.restart for run in runs] == [0, 1, 2]
        for run in runs:
            pulse, trace, bd, _ = reference_descend(ens, config, run.restart)
            assert np.array_equal(run.i_amps, pulse.i_amps)
            assert np.array_equal(run.q_amps, pulse.q_amps)
            assert (tuple(run.rows), run.bd) == (trace.rows, bd)
        pulse, trace = reference_optimize(scenario, config)
        best = min(runs, key=lambda run: run.bd.f)
        assert np.array_equal(best.i_amps, pulse.i_amps)
        assert np.array_equal(best.q_amps, pulse.q_amps)
        assert (tuple(best.rows), best.restart) == (trace.rows, trace.restart)

    def test_one_restart_per_group_makes_the_sequential_calls(self, monkeypatch):
        # 12 members x 2000 steps leave room for one pulse per forward block
        scenario = ControlScenario(idle_detunings=(1.1e6, -0.7e6, 2.3e6), manifold=TRIPLET)
        config = OptimizerConfig(m=2000, dt=5e-9, lam=1e-9, tol=0.0, restarts=2,
                                 max_iters=3)
        want = count_kernel_calls(monkeypatch, reference_optimize, scenario, config)
        assert count_kernel_calls(monkeypatch, optimize, scenario, config) == want


    def test_a_first_trial_taken_wastes_the_second(self, monkeypatch):
        # one restart, so each round's call holds its two trials: an
        # iteration of t trials makes ceil(t / 2) calls of two pulses
        config = self.config(tol=0.0, restarts=1, seed=9, max_iters=12)
        ens = _Ensemble.for_scenario(self.SCENARIO)
        trials, _ = reference_trials(monkeypatch, ens, config, 0)
        assert 1 in trials and 3 in trials
        pulses, gradients = count_stacked_calls(monkeypatch, optimize, self.SCENARIO, config)
        assert pulses == [1] + [2] * sum(-(-t // 2) for t in trials)
        assert gradients == len(trials) == 12
        self.assert_same_as_sequential(self.SCENARIO, config)

    def test_the_float_floor_on_a_speculative_second_trial(self, monkeypatch):
        # alone, the last iteration evaluates its first trial, which fails,
        # and the second trial's decrease lies below float resolution
        config = self.config(m=20, dt=0.3e-6 / 20, tol=1e-3, restarts=1, seed=1,
                             max_iters=2000)
        ens = _Ensemble.for_scenario(self.SCENARIO)
        trials, trace = reference_trials(monkeypatch, ens, config, 0)
        assert (trials[-1], len(trace.rows)) == (1, 177)
        pulses, _ = count_stacked_calls(monkeypatch, optimize, self.SCENARIO, config)
        assert pulses[-1] == 1
        _, _, trace = self.assert_same_as_sequential(self.SCENARIO, config)
        assert trace.stop_reason == "stationary"

    def test_an_odd_max_backtracks_runs_out_in_the_middle_of_a_pair(self, monkeypatch):
        # with steps growing 16x and 5 trials, every restart stalls at its
        # first iteration: rounds of 2, 2 and 1 trials per restart
        monkeypatch.setattr(synthesis, "MAX_BACKTRACKS", 5)
        monkeypatch.setattr(synthesis, "STEP_GROWTH", 16.0)
        config = self.config(tol=1e-3, restarts=3, seed=0, max_iters=60)
        message, _, trace = self.assert_same_as_sequential(self.SCENARIO, config)
        assert (message, trace.stop_reason) == ("no descent step accepted in any restart",
                                                "diverged")
        monkeypatch.setattr(synthesis, "MAX_BACKTRACKS", 5)
        monkeypatch.setattr(synthesis, "STEP_GROWTH", 16.0)
        pulses, _ = count_stacked_calls(monkeypatch, optimize, self.SCENARIO, config)
        assert pulses == [3, 6, 6, 3]

    def test_a_later_restart_converges_on_its_second_trial_while_an_earlier_searches(
            self, monkeypatch):
        # at iteration 5 restart 1 converges on its second trial, while
        # restart 0 needs a third; alone, restart 0 converges there and wins
        config = self.config(tol=1e-2, restarts=3, seed=35, max_iters=60)
        ens = _Ensemble.for_scenario(self.SCENARIO)
        trials_0, trace_0 = reference_trials(monkeypatch, ens, config, 0)
        trials_1, trace_1 = reference_trials(monkeypatch, ens, config, 1)
        assert (trials_0[4], trials_1[4]) == (3, 2)
        assert trace_0.converged and trace_1.converged and len(trace_1.rows) == 6
        _, _, trace = self.assert_same_as_sequential(self.SCENARIO, config)
        assert (trace.converged, trace.restart, len(trace.rows)) == (True, 0, 6)

    @pytest.mark.parametrize("restarts", (1, 2))
    @pytest.mark.parametrize("spare", (0, -1), ids=("two-pulses-each-fit", "one-short"))
    def test_the_group_size_boundary(self, monkeypatch, restarts, spare):
        # 6 members x 37 steps: a budget of exactly two pulses per restart
        # runs two trials per round; one member-step less runs the one-trial
        # calls of the restarts in one group
        budget = 2 * restarts * 6 * 37 + spare
        config = self.config(tol=0.0, restarts=restarts, seed=9, max_iters=8)
        reference = count_kernel_calls(monkeypatch, reference_optimize, self.SCENARIO, config)
        monkeypatch.setattr(synthesis, "_BLOCK_MEMBER_STEPS", budget)
        got = count_kernel_calls(monkeypatch, optimize, self.SCENARIO, config)
        monkeypatch.setattr(synthesis, "_BLOCK_MEMBER_STEPS", budget)
        pulses, _ = count_stacked_calls(monkeypatch, optimize, self.SCENARIO, config)
        want = {(1, 0): (12, 23, 8), (1, -1): (21, 21, 8),
                (2, 0): (12, 46, 8), (2, -1): (22, 42, 8)}[restarts, spare]
        assert (got["objective"], sum(pulses), got["gradient"]) == want
        if restarts == 1 and spare < 0:
            assert got == reference
        monkeypatch.setattr(synthesis, "_BLOCK_MEMBER_STEPS", budget)
        self.assert_same_as_sequential(self.SCENARIO, config)

    def test_synth_task_call_counts(self, monkeypatch):
        # task 0 of the benchmark's synth workload at seed 1; one trial per
        # round made 52 calls of 96 pulses
        scenario = ControlScenario(idle_detunings=(-1430995.8269889606,))
        config = OptimizerConfig(m=200, dt=10e-6 / 200, lam=1e-9, max_iters=20, tol=0.0,
                                 seed=1314036597, restarts=2)
        pulses, gradients = count_stacked_calls(monkeypatch, optimize, scenario, config)
        assert (len(pulses), sum(pulses), gradients) == (32, 118, 20)

    def test_runs_keep_the_records_of_their_taken_pulses_only(self, monkeypatch):
        # every record a run holds is made of pulses that runs took, and the
        # gradient gets each pulse's own record
        group_record, objective_gradient = synthesis._group_record, synthesis._objective_gradient
        shapes = []

        def checking_group_record(parts):
            records = {id(record): record for record, _ in parts}
            for key, record in records.items():
                held = [p for rec, p in parts if id(rec) == key]
                assert sorted(held) == list(range(len(record[0][2])))
            shapes.append(len(records))
            return group_record(parts)

        def checking_gradient(ens, i_amps, q_amps, dt, lam, record):
            for rows, levels, k in record:
                want = ens.forward(i_amps, q_amps, dt, rows)[1]
                assert np.array_equal(k, want[2])
                assert all(np.array_equal(got[0], ref[0]) and np.array_equal(got[1], ref[1])
                           for got, ref in zip(levels, want[1]))
            return objective_gradient(ens, i_amps, q_amps, dt, lam, record)

        monkeypatch.setattr(synthesis, "_group_record", checking_group_record)
        monkeypatch.setattr(synthesis, "_objective_gradient", checking_gradient)
        config = self.config(tol=0.0, restarts=3, seed=9, max_iters=15)
        self.assert_same_as_sequential(self.SCENARIO, config)
        assert 1 in shapes and max(shapes) > 1    # shared and separate rounds both seen


class TestNonFiniteInput:
    @pytest.mark.parametrize("kwargs, name", [
        (dict(idle_detunings=(1e6, math.nan)), "idle_detunings"),
        (dict(idle_detunings=(math.inf,)), "idle_detunings"),
        (dict(idle_detunings=(1e6,), target_detuning=math.nan), "target_detuning"),
    ], ids=["idle-nan", "idle-inf", "target-nan"])
    def test_scenario_rejects_non_finite_detunings(self, kwargs, name):
        # NaN detunings used to give cost(...).f == nan
        with pytest.raises(ValueError, match=name):
            ControlScenario(**kwargs)

    @pytest.mark.parametrize("kwargs, name", [
        (dict(max_amp=math.inf), "max_amp"),
        (dict(dt=math.inf), "dt"),
    ], ids=["max-amp-inf", "dt-inf"])
    def test_optimizer_rejects_infinite_settings(self, kwargs, name):
        # an infinite max_amp made optimize divide by zero in _initial_amplitudes
        with pytest.raises(ValueError, match=name):
            optimize(ControlScenario(idle_detunings=(1e6,)),
                     OptimizerConfig(m=4, max_iters=1, **kwargs))


class TestOptimizerConfigFields:
    """Counts must be integers and seed non-negative, and tol a number: each
    bad value raises a ValueError that names its field."""

    @pytest.mark.parametrize("kwargs, name", [
        # optimize used to die with a bare TypeError from range()
        (dict(m=2.5), "m"),
        (dict(max_iters=3.0), "max_iters"),
        (dict(restarts=1.5), "restarts"),
        # used to fail inside numpy's SeedSequence
        (dict(seed=-1), "seed"),
        # used to run silently to max_iters
        (dict(tol=math.nan), "tol"),
    ], ids=["m-float", "max-iters-float", "restarts-float", "seed-negative", "tol-nan"])
    def test_bad_value_names_its_field(self, kwargs, name):
        with pytest.raises(ValueError, match=f"^{name} must"):
            OptimizerConfig(**kwargs)

    def test_numpy_integers_are_taken_as_ints(self):
        config = OptimizerConfig(m=np.int64(4), max_iters=np.int32(1), restarts=np.uint8(2),
                                 seed=np.int64(3))
        assert [type(v) for v in (config.m, config.max_iters, config.restarts,
                                  config.seed)] == [int] * 4
        pulse, trace = optimize(ControlScenario(idle_detunings=(1e6,)), config)
        assert len(pulse.i_amps) == 4 and len(trace.rows) == 2

    def test_negative_tol_is_rejected_and_zero_kept(self):
        # tol=-1 used to run every restart silently to max_iters
        with pytest.raises(ValueError, match="^tol must be >= 0$"):
            OptimizerConfig(tol=-1.0)
        assert OptimizerConfig(tol=0.0).tol == 0.0


class TestResultRecords:
    """Each outcome is stored once: f is assembled by CostBreakdown, and
    `converged` is read from `stop_reason`."""

    def test_cost_breakdown_assembles_f(self):
        bd = synthesis.CostBreakdown(0.875, [0.0625, 0.03125], 0.25)
        assert (bd.eps_j, bd.f) == ((0.0625, 0.03125), 0.125 + 0.0625 + 0.03125 + 0.25)
        with pytest.raises(TypeError):
            synthesis.CostBreakdown(0.875, (0.0625,), 0.25, 1.0)

    @pytest.mark.parametrize("reason", ["converged", "stationary", "max_iters", "diverged"])
    def test_converged_is_read_from_the_stop_reason(self, reason):
        trace = OptimizationTrace([], 2, reason)
        assert (trace.rows, trace.restart) == ((), 2)
        assert trace.converged == (reason == "converged")

    def test_the_outcome_cannot_be_stated_twice(self):
        with pytest.raises(TypeError):
            OptimizationTrace(rows=(), converged=True, restart=0, stop_reason="max_iters")
