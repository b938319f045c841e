import math

import numpy as np
import pytest

from spinmux import (
    PulseProgram,
    PulseStep,
    Propagator,
    QubitState,
    ZeroDetuning,
    crosstalk_bound,
    evolve,
    rect_pi_pulse,
    state_error,
    step_propagator,
)

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def midpoint_propagator(delta, i_amp, q_amp, dt, nsub=10_000):
    """Oracle: explicit midpoint integration of the step at dt/nsub."""
    h = math.pi * (2 * i_amp * SX + 2 * q_amp * SY + 2 * delta * SZ) / 2.0
    a = -1j * h * (dt / nsub)
    sub = np.eye(2) + a + a @ a / 2.0
    return np.linalg.matrix_power(sub, nsub)


class TestStepPropagator:
    def test_resonant_pi_flip(self):
        # Omega/2pi = 10 MHz for 50 ns is exactly a pi rotation
        u = step_propagator(0.0, 1e7, 0.0, 50e-9)
        assert np.allclose(u.matrix, -1j * SX, atol=1e-12)
        out = u.apply(QubitState.ground())
        assert out.amplitudes == pytest.approx([0.0, -1.0j], abs=1e-12)

    def test_free_precession(self):
        delta, dt = 2.5e6, 80e-9
        u = step_propagator(delta, 0.0, 0.0, dt)
        phase = math.pi * delta * dt
        expected = np.diag([np.exp(-1j * phase), np.exp(1j * phase)])
        assert np.allclose(u.matrix, expected, atol=1e-14)

    def test_matches_fine_step_integrator(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            delta, i_amp, q_amp = rng.uniform(-1e7, 1e7, 3)
            dt = rng.uniform(5e-9, 25e-9)
            u = step_propagator(delta, i_amp, q_amp, dt).matrix
            ref = midpoint_propagator(delta, i_amp, q_amp, dt)
            assert np.max(np.abs(u - ref)) <= 1e-8

    def test_zero_everything_is_identity(self):
        u = step_propagator(0.0, 0.0, 0.0, 1e-6)
        assert np.array_equal(u.matrix, np.eye(2))

    def test_requires_positive_duration(self):
        with pytest.raises(ValueError):
            step_propagator(0.0, 1e6, 0.0, 0.0)

    @pytest.mark.parametrize("args, name", [
        ((1e6, 1e6, 0.0, math.inf), "dt"),
        ((0.0, 1e6, 0.0, math.nan), "dt"),
        ((math.nan, 1e6, 0.0, 1e-9), "delta"),
        ((math.inf, 0.0, 0.0, 1e-9), "delta"),
        ((0.0, math.inf, 0.0, 1e-9), "i_amp"),
        ((0.0, 1e6, -math.inf, 1e-9), "q_amp"),
    ], ids=["dt-inf", "dt-nan", "delta-nan", "delta-inf", "i-inf", "q-inf"])
    def test_non_finite_input_names_the_parameter(self, args, name):
        # each used to return a NaN matrix
        with pytest.raises(ValueError, match=f"^{name} must be"):
            step_propagator(*args)


class TestEvolve:
    def test_single_step_matches_step_propagator(self):
        pulse = PulseProgram.from_arrays([3e6], [-2e6], 70e-9)
        u1 = evolve(pulse, 1.5e6)
        u2 = step_propagator(1.5e6, 3e6, -2e6, 70e-9)
        assert np.allclose(u1.matrix, u2.matrix, atol=1e-15)

    def test_two_quarter_rotations_compose_to_pi_over_two_each(self):
        # each step rotates by pi/2 about x; two of them give -i*sx
        rabi = 5e6
        dt = 1.0 / (8.0 * rabi)  # quarter of a pi time
        pulse = PulseProgram.from_arrays([rabi] * 2, [0.0] * 2, 2 * dt)
        u = evolve(pulse, 0.0)
        assert np.allclose(u.matrix, -1j * SX, atol=1e-12)

    def test_order_is_first_step_first(self):
        # a pi/2 about x then pi/2 about y is distinguishable from the reverse
        a = PulseProgram.from_arrays([2.5e6], [0.0], 50e-9)
        b = PulseProgram.from_arrays([0.0], [2.5e6], 50e-9)
        u_ab = evolve(PulseProgram.from_arrays([2.5e6, 0.0], [0.0, 2.5e6], 50e-9),
                      0.0).matrix
        expected = evolve(b, 0.0).matrix @ evolve(a, 0.0).matrix
        assert np.allclose(u_ab, expected, atol=1e-14)
        u_ba = evolve(PulseProgram.from_arrays([0.0, 2.5e6], [2.5e6, 0.0], 50e-9),
                      0.0).matrix
        assert not np.allclose(u_ab, u_ba, atol=1e-3)

    def test_composition_identity(self):
        rng = np.random.default_rng(9)
        dt = 40e-9
        a_i, a_q = rng.uniform(-5e6, 5e6, 7), rng.uniform(-5e6, 5e6, 7)
        b_i, b_q = rng.uniform(-5e6, 5e6, 5), rng.uniform(-5e6, 5e6, 5)
        a = PulseProgram.from_arrays(a_i, a_q, dt)
        b = PulseProgram.from_arrays(b_i, b_q, dt)
        ab = PulseProgram.from_arrays(np.concatenate([a_i, b_i]),
                                      np.concatenate([a_q, b_q]), dt)
        lhs = evolve(ab, 2.2e6).matrix
        rhs = evolve(b, 2.2e6).matrix @ evolve(a, 2.2e6).matrix
        assert np.max(np.abs(lhs - rhs)) <= 1e-12

    def test_matches_ordered_product_of_step_propagators(self):
        # reference: the step propagators multiplied one by one, step 1 first
        rng = np.random.default_rng(10)
        i_amps, q_amps = rng.uniform(-5e6, 5e6, 30), rng.uniform(-5e6, 5e6, 30)
        total = np.eye(2, dtype=complex)
        for i_amp, q_amp in zip(i_amps, q_amps):
            total = step_propagator(1.3e6, i_amp, q_amp, 40e-9).matrix @ total
        u = evolve(PulseProgram.from_arrays(i_amps, q_amps, 40e-9), 1.3e6).matrix
        assert np.max(np.abs(u - total)) <= 1e-12

    def test_unitary_over_ten_thousand_steps(self):
        rng = np.random.default_rng(5)
        m = 10_000
        pulse = PulseProgram.from_arrays(rng.uniform(-1e7, 1e7, m),
                                         rng.uniform(-1e7, 1e7, m), 2e-9)
        u = evolve(pulse, 3.3e6).matrix
        assert np.max(np.abs(u.conj().T @ u - np.eye(2))) <= 1e-10
        # drift against the re-unitarized (polar) factor stays tiny too
        w, _, vh = np.linalg.svd(u)
        assert np.max(np.abs(u - w @ vh)) <= 1e-10


    @pytest.mark.parametrize("delta", [math.nan, math.inf, -math.inf])
    def test_non_finite_detuning_names_it(self, delta):
        # used to return a NaN matrix, and state_error then NaN
        with pytest.raises(ValueError, match="^delta must be finite"):
            evolve(rect_pi_pulse(1e6, m=4), delta)


class TestStateError:
    def test_identity_is_errorless(self):
        assert state_error(Propagator(np.eye(2)), QubitState.ground()) == 0.0

    def test_full_flip(self):
        assert state_error(Propagator(SX), QubitState.ground()) == 1.0

    def test_half_rotation(self):
        u = step_propagator(0.0, 1e7, 0.0, 25e-9)  # pi/2 about x
        assert state_error(u, QubitState.ground()) == pytest.approx(0.5, abs=1e-12)

    def test_norm_preserved_by_propagators(self):
        rng = np.random.default_rng(14)
        for _ in range(100):
            u = step_propagator(*rng.uniform(-1e7, 1e7, 3), dt=30e-9)
            amp = rng.normal(size=2) + 1j * rng.normal(size=2)
            state = QubitState(amp / np.linalg.norm(amp))
            out = u.apply(state)
            norm = float(np.vdot(out.amplitudes, out.amplitudes).real)
            assert norm == pytest.approx(1.0, abs=1e-10)


class TestCrosstalkBound:
    def test_operating_point_value(self):
        assert crosstalk_bound(1e7, 1.6e8) == pytest.approx(3.906e-3, rel=1e-3)

    def test_degenerate_at_equal_rates(self):
        assert crosstalk_bound(5e6, 5e6) == 1.0

    def test_zero_detuning_rejected(self):
        with pytest.raises(ZeroDetuning):
            crosstalk_bound(1e6, 0.0)

    def test_bound_holds_for_rectangular_pulses(self):
        # oracle: direct evolution of the pi-pulse at each detuning
        rng = np.random.default_rng(11)
        ground = QubitState.ground()
        for _ in range(200):
            rabi = rng.uniform(1e5, 1e7)
            ratio = rng.uniform(0.02, 0.5)
            delta = rabi / ratio * rng.choice([-1.0, 1.0])
            m = int(rng.integers(1, 9))
            eps = state_error(evolve(rect_pi_pulse(rabi, m), delta), ground)
            assert eps <= crosstalk_bound(rabi, delta) + 1e-12


class TestRectPiPulse:
    def test_duration(self):
        pulse = rect_pi_pulse(7.5e6, m=10)
        assert pulse.duration == pytest.approx(66.67e-9, rel=1e-3)
        assert len(pulse.steps) == 10
        assert all(s.i_amp == 7.5e6 and s.q_amp == 0.0 for s in pulse.steps)

    def test_resonant_flip(self):
        eps = state_error(evolve(rect_pi_pulse(5e6, m=3), 0.0),
                          QubitState.ground())
        assert eps == pytest.approx(1.0, abs=1e-10)

    def test_detuned_error_below_bound(self):
        eps = state_error(evolve(rect_pi_pulse(1e7, m=4), 1.6e8),
                          QubitState.ground())
        assert eps <= 3.906e-3

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            rect_pi_pulse(0.0)
        with pytest.raises(ValueError):
            rect_pi_pulse(1e6, m=0)

    @pytest.mark.parametrize("rabi", (math.nan, math.inf))
    def test_non_finite_rabi_rejected(self, rabi):
        with pytest.raises(ValueError, match="rabi"):
            rect_pi_pulse(rabi)


class TestPhaseCovariance:
    def test_common_phase_shift_leaves_error_invariant(self):
        rng = np.random.default_rng(21)
        ground = QubitState.ground()
        for _ in range(20):
            m = 12
            i_amps = rng.uniform(-5e6, 5e6, m)
            q_amps = rng.uniform(-5e6, 5e6, m)
            phi = rng.uniform(-math.pi, math.pi)
            rot_i = i_amps * math.cos(phi) - q_amps * math.sin(phi)
            rot_q = i_amps * math.sin(phi) + q_amps * math.cos(phi)
            delta = rng.uniform(-5e6, 5e6)
            e1 = state_error(evolve(PulseProgram.from_arrays(i_amps, q_amps, 50e-9),
                                    delta), ground)
            e2 = state_error(evolve(PulseProgram.from_arrays(rot_i, rot_q, 50e-9),
                                    delta), ground)
            assert e1 == pytest.approx(e2, abs=1e-12)


class TestTypeInvariants:
    def test_propagator_must_be_unitary(self):
        with pytest.raises(ValueError):
            Propagator(np.array([[1.0, 0.0], [0.0, 2.0]], dtype=complex))

    def test_nan_matrix_is_not_unitary(self):
        # a NaN drift used to pass the "drift > tolerance" test
        with pytest.raises(ValueError, match="not unitary"):
            Propagator(np.array([[math.nan, 0.0], [0.0, 1.0]], dtype=complex))

    def test_state_must_be_normalized(self):
        with pytest.raises(ValueError):
            QubitState(np.array([1.0, 1.0], dtype=complex))

    def test_pulse_stores_read_only_amplitude_arrays(self):
        i_in, q_in = np.array([1e6, 2e6, 3e6]), np.array([0.0, -1e6, 5e5])
        pulse = PulseProgram.from_arrays(i_in, q_in, 50e-9)
        i_amps, q_amps = pulse.amplitudes()
        assert i_amps is pulse.amplitudes()[0] and q_amps is pulse.amplitudes()[1]
        assert np.array_equal(i_amps, i_in) and np.array_equal(q_amps, q_in)
        with pytest.raises(ValueError):
            i_amps[0] = 0.0
        i_in[0] = 7e6  # the pulse holds its own copy
        assert pulse.amplitudes()[0][0] == 1e6

    def test_steps_and_arrays_describe_the_same_pulse(self):
        pulse = PulseProgram.from_arrays([1e6, 3e6], [-2e6, 4e6], 20e-9)
        assert pulse.steps == (PulseStep(1e6, -2e6), PulseStep(3e6, 4e6))
        assert np.array_equal(pulse.amplitudes()[0], [1e6, 3e6])
        assert np.array_equal(pulse.amplitudes()[1], [-2e6, 4e6])
        assert pulse.duration == pytest.approx(40e-9)

    def test_pulse_needs_steps_and_positive_dt(self):
        with pytest.raises(ValueError):
            PulseProgram.from_arrays([], [], 1e-9)
        with pytest.raises(ValueError):
            PulseProgram.from_arrays([0.0], [0.0], 0.0)
        with pytest.raises(ValueError):
            PulseProgram.from_arrays([0.0, 1.0], [0.0], 1e-9)

    @pytest.mark.parametrize("i_amps, q_amps, dt, name", [
        ([0.0], [0.0], math.nan, "dt"),
        ([0.0], [0.0], math.inf, "dt"),
        ([1e6, math.nan], [0.0, 0.0], 1e-9, "i_amps"),
        ([1e6, 1e6], [0.0, -math.inf], 1e-9, "q_amps"),
    ], ids=["dt-nan", "dt-inf", "i-nan", "q-inf"])
    def test_pulse_rejects_non_finite_input(self, i_amps, q_amps, dt, name):
        with pytest.raises(ValueError, match=name):
            PulseProgram.from_arrays(i_amps, q_amps, dt)
