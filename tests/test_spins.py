import math

import numpy as np
import pytest

from spinmux import (
    DipoleOrientation,
    HyperfineManifold,
    PhysicalConstants,
    SpinSite,
    dipole_axis,
    hyperfine_detunings,
    project_field,
    transition_frequencies,
)
from spinmux.spins import _member_mean


class TestDipoleAxis:
    def test_axis_along_w(self):
        axis = dipole_axis(DipoleOrientation(theta_w=0.0, theta_u=0.0))
        assert axis == pytest.approx([0.0, 0.0, 1.0], abs=1e-15)

    def test_axis_along_u(self):
        axis = dipole_axis(DipoleOrientation(theta_w=90.0, theta_u=0.0))
        assert axis == pytest.approx([1.0, 0.0, 0.0], abs=1e-15)

    def test_default_tilt_w_component(self):
        axis = dipole_axis(DipoleOrientation(theta_w=54.7, theta_u=41.0))
        assert axis[2] == pytest.approx(math.cos(math.radians(54.7)), abs=1e-12)
        assert axis[2] == pytest.approx(0.578, abs=5e-4)
        assert np.linalg.norm(axis) == pytest.approx(1.0, abs=1e-12)

    def test_unit_norm_for_random_orientations(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            o = DipoleOrientation(theta_w=rng.uniform(0, 180),
                                  theta_u=rng.uniform(-180, 180))
            assert np.linalg.norm(dipole_axis(o)) == pytest.approx(1.0, abs=1e-12)

    def test_angle_ranges_validated(self):
        with pytest.raises(ValueError):
            DipoleOrientation(theta_w=200.0)
        with pytest.raises(ValueError):
            DipoleOrientation(theta_u=181.0)


class TestProjectField:
    def test_parallel_field(self):
        b_z, b_xy = project_field(np.array([0.0, 0.0, 5e-3]), np.array([0, 0, 1.0]))
        assert b_z == pytest.approx(5e-3)
        assert b_xy == 0.0

    def test_perpendicular_field(self):
        b_z, b_xy = project_field(np.array([5e-3, 0.0, 0.0]), np.array([0, 0, 1.0]))
        assert b_z == 0.0
        assert b_xy == pytest.approx(5e-3)

    def test_pythagorean_decomposition(self):
        # oracle: componentwise vector arithmetic
        rng = np.random.default_rng(1)
        for _ in range(1000):
            b = rng.normal(0.0, 1e-3, 3)
            axis = rng.normal(0.0, 1.0, 3)
            axis /= np.linalg.norm(axis)
            b_z, b_xy = project_field(b, axis)
            norm2 = float(np.dot(b, b))
            assert b_z**2 + b_xy**2 == pytest.approx(norm2, rel=1e-12)
            assert b_xy >= 0.0

    def test_rejects_non_unit_axis(self):
        with pytest.raises(ValueError):
            project_field(np.zeros(3), np.array([0.0, 0.0, 2.0]))

    def test_stacked_axes_match_one_axis_at_a_time(self):
        rng = np.random.default_rng(5)
        fields = rng.normal(0.0, 1e-3, (6, 3))
        axes = np.array([dipole_axis(DipoleOrientation(rng.uniform(0, 180),
                                                       rng.uniform(-180, 180)))
                         for _ in range(6)])
        b_z, b_xy = project_field(fields, axes)
        want = np.array([project_field(b, axis) for b, axis in zip(fields, axes)])
        assert np.array_equal(np.stack([b_z, b_xy], axis=1), want)
        # one field against every axis
        b_z, b_xy = project_field(fields[0], axes)
        want = np.array([project_field(fields[0], axis) for axis in axes])
        assert np.array_equal(np.stack([b_z, b_xy], axis=1), want)

    def test_rejects_a_stack_with_one_non_unit_axis(self):
        axes = np.array([dipole_axis(DipoleOrientation(t, 0.0)) for t in (0.0, 45.0, 90.0)])
        axes[1] *= 1.001
        for b in (np.zeros(3), np.zeros((3, 3))):
            with pytest.raises(ValueError, match="unit-norm"):
                project_field(b, axes)


class TestTransitionFrequencies:
    def test_zero_field_degeneracy(self):
        c = PhysicalConstants()
        assert transition_frequencies(c, 0.0) == (2.87e9, 2.87e9)

    def test_field_inversion_for_3ghz(self):
        # oracle: invert omega_plus = d_zfs + gamma*b for omega_plus = 3.00 GHz
        c = PhysicalConstants()
        b = (3.00e9 - c.d_zfs) / c.gamma_nv
        assert b == pytest.approx(4.64e-3, rel=1e-3)
        plus, minus = transition_frequencies(c, b)
        assert plus == pytest.approx(3.00e9, abs=1e-3)
        assert minus == pytest.approx(2.74e9, rel=1e-12)

    def test_60_mhz_shift_needs_2p14_mt(self):
        # moving the upper transition 3.00 -> 3.06 GHz takes ~2.14 mT more
        c = PhysicalConstants()
        b0 = (3.00e9 - c.d_zfs) / c.gamma_nv
        b1 = (3.06e9 - c.d_zfs) / c.gamma_nv
        assert b1 - b0 == pytest.approx(2.14e-3, rel=1e-2)

    def test_affine_in_field(self):
        c = PhysicalConstants()
        rng = np.random.default_rng(2)
        for _ in range(100):
            b1, b2 = rng.uniform(-0.05, 0.05, 2)
            p1, _ = transition_frequencies(c, b1)
            p2, _ = transition_frequencies(c, b2)
            assert p1 - p2 == pytest.approx(c.gamma_nv * (b1 - b2), rel=1e-12)

    def test_sum_rule(self):
        c = PhysicalConstants()
        for b in (-3e-3, 0.0, 1e-2, 0.4):
            plus, minus = transition_frequencies(c, b)
            assert plus + minus == pytest.approx(2 * c.d_zfs, rel=1e-15)


class TestHyperfine:
    def test_triplet_at_zero_detuning(self):
        out = hyperfine_detunings(0.0, HyperfineManifold.triplet())
        assert out == pytest.approx([-2.2e6, 0.0, 2.2e6])

    def test_additive_shift(self):
        out = hyperfine_detunings(1.1e6, HyperfineManifold.triplet())
        assert out == pytest.approx([-1.1e6, 1.1e6, 3.3e6])

    def test_disabled_manifold(self):
        # one member, the first: a -0.0 detuning keeps its sign bit
        out = hyperfine_detunings(5e5, HyperfineManifold.triplet(0.0))
        assert out.tolist() == [5e5]
        [zero] = hyperfine_detunings(-0.0, HyperfineManifold.triplet(0.0))
        assert zero == 0.0 and math.copysign(1.0, zero) == -1.0

    def test_symmetric_about_middle(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            delta = rng.uniform(-5e6, 5e6)
            a = rng.uniform(0.0, 5e6)
            lo, mid, hi = hyperfine_detunings(delta, HyperfineManifold.triplet(a))
            assert mid - lo == pytest.approx(hi - mid, rel=1e-12, abs=1e-6)

    @pytest.mark.parametrize("shape", [(3,), (5, 1), (4, 2, 3), (601, 10, 3), (7, 33, 3)])
    def test_member_mean_is_the_left_fold_times_one_over_n(self, shape):
        # the code, not numpy's reduction, sets the order: (v0 + v1) + v2
        rng = np.random.default_rng(len(shape) + shape[0])
        values = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 8, shape)
        n = shape[-1]
        want = values[..., 0]
        for k in range(1, n):
            want = want + values[..., k]
        got = _member_mean(values)
        assert np.shape(got) == shape[:-1] and np.array_equal(got, want * (1.0 / n))

    def test_offsets_must_be_symmetric(self):
        with pytest.raises(ValueError):
            HyperfineManifold((-1e6, 0.0, 2e6))
        with pytest.raises(ValueError):
            HyperfineManifold((-1e6, 5.0, 1e6))


class TestParameterValidation:
    def test_constants_must_be_positive(self):
        with pytest.raises(ValueError):
            PhysicalConstants(d_zfs=-1.0)
        with pytest.raises(ValueError):
            PhysicalConstants(gamma_nv=0.0)

    def test_site_t2_star_must_be_positive(self):
        for t2_star in (0.0, -1e-6, float("nan")):
            with pytest.raises(ValueError):
                SpinSite(id="q", position=np.zeros(3), t2_star=t2_star)
        assert SpinSite(id="q", position=np.zeros(3)).t2_star == 1.7e-6

    @pytest.mark.parametrize("bad", (math.nan, math.inf, -math.inf))
    def test_site_position_must_be_finite(self, bad):
        # a NaN position made address_map and zeeman_shift return NaN
        with pytest.raises(ValueError, match="position"):
            SpinSite(id="q", position=np.array([1e-6, bad, 0.0]))
