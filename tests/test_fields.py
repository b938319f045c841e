import math

import numpy as np
import pytest

from spinmux import (
    DegeneratePoint,
    DipoleOrientation,
    FieldEnvironment,
    NoSolution,
    PhysicalConstants,
    SpinSite,
    WireDrive,
    WireGeometry,
    address_map,
    calibrate_wire,
    dipole_axis,
    field_sample,
    project_field,
    rabi_frequency,
    simulate_odmr,
    transition_frequencies,
    wire_field,
    zeeman_shift,
)
import spinmux.fields as fields
from spinmux.fields import (CALIBRATION_DEPTH_RANGE, CALIBRATION_ROUNDS,
                            MIN_FILAMENT_DISTANCE, MU0)
from spinmux.spins import _dot

U_HAT = np.array([1.0, 0.0, 0.0])
V_HAT = np.array([0.0, 1.0, 0.0])


def thin_wire_along_u(depth=0.0):
    return WireGeometry(anchor=np.array([0.0, 0.0, -depth]), direction=U_HAT)


def demo_environment():
    """Reduced copy of the bundled demo geometry (calibrated tilted wire)."""
    constants = PhysicalConstants()
    axis = dipole_axis(DipoleOrientation())
    b_ext = (3.00e9 - constants.d_zfs) / constants.gamma_nv * axis
    tu = math.radians(41.0)
    wire = WireGeometry(
        anchor=np.array([0.0, 0.0, -1.4243757886646795e-6]),
        direction=-np.array([math.cos(tu), math.sin(tu), 0.0]),
    )
    return FieldEnvironment(b_ext=b_ext, wire=wire, constants=constants)


def strip_environment():
    """The demo bias field over a 5-filament, 2 um strip wire in the chip plane."""
    env = demo_environment()
    wire = WireGeometry(anchor=np.array([0.3e-6, -0.0, -1.2e-6]),
                        direction=np.array([0.6, -0.8, 0.0]), num_filaments=5,
                        width=2e-6)
    return FieldEnvironment(env.b_ext, wire, env.constants)


# References: the per-call paths that the stacked evaluations replaced.  Each
# stacked path must give the same bits, signed zeros and messages included.

def reference_wire_field(wire, current, point):
    """wire_field with np.cross, one wire per call."""
    points = np.asarray(point, dtype=float)
    d_hat = wire.direction
    r = points[..., None, :] - wire.filament_anchors()
    r_perp = r - _dot(r, d_hat)[..., None] * d_hat
    dist = np.sqrt(_dot(r_perp, r_perp))
    bad = dist <= MIN_FILAMENT_DISTANCE
    if bad.any():
        offender = points[tuple(np.argwhere(bad)[0][:-1])]
        raise DegeneratePoint(
            f"point {offender.tolist()} lies within {MIN_FILAMENT_DISTANCE} m "
            "of a filament centerline"
        )
    i_fil = current / wire.num_filaments
    scale = MU0 * i_fil / (2.0 * math.pi * dist * dist)
    return np.sum(scale[..., None] * np.cross(d_hat, r_perp), axis=-2)


def reference_omega_plus(env, i_dc, site):
    """A site's address as the per-site field_sample rounds it."""
    axis = dipole_axis(site.orientation)
    b_dc_z, _ = project_field(reference_wire_field(env.wire, i_dc, site.position), axis)
    b_ext_z, _ = project_field(env.b_ext, axis)
    return transition_frequencies(env.constants, b_ext_z + b_dc_z)[0]


def reference_field_sample(env, drive, site):
    """field_sample's four values at one site, each part by its own projection."""
    axis = dipole_axis(site.orientation)
    b_dc_z, _ = project_field(reference_wire_field(env.wire, drive.i_dc, site.position), axis)
    _, b_ac_xy = project_field(reference_wire_field(env.wire, drive.i_ac, site.position), axis)
    b_ext_z, _ = project_field(env.b_ext, axis)
    omega_plus, _ = transition_frequencies(env.constants, b_ext_z + b_dc_z)
    return b_dc_z, b_ext_z, b_ac_xy, omega_plus


def reference_address_map(env, drive, sites):
    """(site id, u, omega_plus) per site in id order, one site per evaluation."""
    return [(site.id, float(site.position[0]), reference_omega_plus(env, drive.i_dc, site))
            for site in sorted(sites, key=lambda s: s.id)]


def reference_residual(env, target_shift, at_u, i_dc):
    """zeeman_shift - target_shift at one depth, from a FieldEnvironment whose
    wire is moved there."""
    axis = dipole_axis(DipoleOrientation())
    point = np.array([at_u, 0.0, 0.0])

    def residual(depth):
        trial = FieldEnvironment(env.b_ext, env.wire.with_depth(depth), env.constants)
        b_z, _ = project_field(reference_wire_field(trial.wire, i_dc, point), axis)
        return trial.constants.gamma_nv * b_z - target_shift

    return residual


def reference_bracket(residual, grid):
    """(lo, hi) at the first grid depth with a zero residual (lo == hi) or a
    sign change to the next, one depth at a time."""
    values = [residual(d) for d in grid]
    for a, b, fa, fb in zip(grid[:-1], grid[1:], values[:-1], values[1:]):
        if fa == 0.0:
            return a, a
        if fa * fb < 0:
            return a, b
    if values[-1] == 0.0:
        return grid[-1], grid[-1]
    raise NoSolution("unreachable")


def reference_calibrate_wire(env, target_shift, at_u, i_dc):
    """calibrate_wire with one FieldEnvironment and one field evaluation per depth."""
    residual = reference_residual(env, target_shift, at_u, i_dc)
    grid = np.geomspace(*CALIBRATION_DEPTH_RANGE, 64)
    for _ in range(CALIBRATION_ROUNDS):
        lo, hi = reference_bracket(residual, grid)
        grid = np.linspace(lo, hi, 64)
    depth = 0.5 * (lo + hi)
    if abs(residual(depth)) > 1e3:
        raise NoSolution("missed the 1 kHz tolerance")
    return env.wire.with_depth(depth)


def reference_bisection(env, target_shift, at_u, i_dc, halvings=46):
    """The depth search the rounds replaced: the 64-point geometric scan's
    bracket, then bisected `halvings` times on the sign of its low end."""
    residual = reference_residual(env, target_shift, at_u, i_dc)
    lo, hi = reference_bracket(residual, np.geomspace(*CALIBRATION_DEPTH_RANGE, 64))
    lo_negative = residual(lo) < 0.0
    for _ in range(halvings if lo != hi else 0):
        mid = 0.5 * (lo + hi)
        if (residual(mid) < 0.0) == lo_negative:
            lo = mid
        else:
            hi = mid
    return env.wire.with_depth(0.5 * (lo + hi))


def assert_same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def mixed_sites(rng, n):
    """Sites at seeded chip positions (w = +-0) with seeded dipole orientations."""
    sites = []
    for k in range(n):
        position = np.array([rng.uniform(-3e-6, 3e-6), rng.uniform(-2e-6, 2e-6),
                             rng.choice([0.0, -0.0])])
        orientation = DipoleOrientation(rng.uniform(0.0, 180.0), rng.uniform(-180.0, 180.0))
        sites.append(SpinSite(id=f"s{rng.integers(1000):03d}-{k}", position=position,
                              orientation=orientation))
    return sites


class TestWireField:
    def test_thin_wire_closed_form(self):
        b = wire_field(thin_wire_along_u(), 0.15, np.array([0.0, 3e-6, 0.0]))
        assert np.linalg.norm(b) == pytest.approx(MU0 * 0.15 / (2 * math.pi * 3e-6),
                                                  rel=1e-12)
        assert np.linalg.norm(b) == pytest.approx(1.0e-2, rel=1e-12)
        # right-hand rule: current along +u, point at +v, field along +w
        assert b[2] > 0 and abs(b[0]) < 1e-18 and abs(b[1]) < 1e-18

    def test_zero_current(self):
        b = wire_field(thin_wire_along_u(), 0.0, np.array([0.0, 3e-6, 0.0]))
        assert np.all(b == 0.0)

    def test_linear_in_current(self):
        wire = thin_wire_along_u()
        point = np.array([1e-6, 2e-6, 1e-6])
        assert np.array_equal(2.0 * wire_field(wire, 0.07, point),
                              wire_field(wire, 0.14, point))

    def test_inverse_distance_decay(self):
        wire = thin_wire_along_u()
        products = [np.linalg.norm(wire_field(wire, 0.1, np.array([0, d, 0]))) * d
                    for d in (1e-6, 3e-6, 9e-6, 27e-6)]
        assert np.ptp(products) / products[0] < 1e-9

    def test_strip_matches_thin_wire_in_far_field(self):
        # oracle: direct evaluation of both models at 10 um standoff
        strip = WireGeometry(anchor=np.zeros(3), direction=U_HAT,
                             num_filaments=5, width=2e-6)
        thin = thin_wire_along_u()
        point = np.array([0.0, 10e-6, 0.0])
        b_strip = wire_field(strip, 0.15, point)
        b_thin = wire_field(thin, 0.15, point)
        assert np.linalg.norm(b_strip - b_thin) / np.linalg.norm(b_thin) < 0.01

    def test_degenerate_point_rejected(self):
        with pytest.raises(DegeneratePoint):
            wire_field(thin_wire_along_u(), 0.1, np.array([5e-6, 0.0, 0.0]))
        with pytest.raises(DegeneratePoint):
            wire_field(thin_wire_along_u(), 0.1, np.array([0.0, 0.5e-9, 0.0]))

    def test_stacked_points_match_single_points_bitwise(self):
        strip = WireGeometry(anchor=np.array([0.0, 0.0, -1e-6]), direction=U_HAT,
                             num_filaments=4, width=2e-6)
        rng = np.random.default_rng(8)
        points = rng.uniform(-5e-6, 5e-6, (6, 7, 3))
        stacked = wire_field(strip, 0.12, points)
        assert stacked.shape == points.shape
        for index in np.ndindex(points.shape[:-1]):
            assert np.array_equal(stacked[index], wire_field(strip, 0.12, points[index]))

    def test_degenerate_point_in_a_stack_is_named_even_at_zero_current(self):
        points = np.array([[0.0, 3e-6, 0.0], [4e-6, 0.0, 0.2e-9], [1e-6, 1e-6, 0.0]])
        with pytest.raises(DegeneratePoint, match=r"\[4e-06, 0\.0, 2e-10\]"):
            wire_field(thin_wire_along_u(), 0.0, points)

    def test_geometry_validation(self):
        with pytest.raises(ValueError):
            WireGeometry(anchor=np.zeros(3), direction=np.array([0.0, 2.0, 0.0]))
        with pytest.raises(ValueError):
            WireGeometry(anchor=np.zeros(3), direction=V_HAT, num_filaments=0)
        with pytest.raises(ValueError):
            WireGeometry(anchor=np.zeros(3), direction=V_HAT, width=0.0,
                         num_filaments=3)


class TestRabiFrequency:
    def test_zero_field(self):
        assert rabi_frequency(PhysicalConstants(), 0.0) == 0.0

    def test_matches_measured_7p5_mhz(self):
        c = PhysicalConstants()
        exact = 7.5e6 * math.sqrt(2.0) / c.gamma_nv
        assert rabi_frequency(c, exact) == pytest.approx(7.5e6, rel=1e-12)
        assert exact == pytest.approx(3.78e-4, rel=2e-3)
        assert rabi_frequency(c, 3.78e-4) == pytest.approx(7.5e6, rel=2e-3)

    def test_linearity(self):
        c = PhysicalConstants()
        assert rabi_frequency(c, 2e-4) == pytest.approx(2 * rabi_frequency(c, 1e-4),
                                                        rel=1e-15)

    def test_negative_field_rejected(self):
        with pytest.raises(ValueError):
            rabi_frequency(PhysicalConstants(), -1e-4)


class TestFieldSample:
    def test_external_field_only(self):
        env = demo_environment()
        site = SpinSite(id="s", position=np.array([1e-6, 0.0, 0.0]))
        sample = field_sample(env, WireDrive(i_dc=0.0, i_ac=0.0), site)
        assert sample.b_dc_z == 0.0
        assert sample.b_ac_xy == 0.0
        # b_ext is aligned with the dipole axis and sized for 3.00 GHz
        assert sample.omega_plus == pytest.approx(3.00e9, abs=1.0)

    def test_calibrated_shift_exceeds_160_mhz_at_2um(self):
        env = demo_environment()
        site = SpinSite(id="edge", position=np.array([2e-6, 0.0, 0.0]))
        sample = field_sample(env, WireDrive(i_dc=0.15, i_ac=0.0), site)
        assert env.constants.gamma_nv * sample.b_dc_z >= 1.6e8

    def test_degeneracy_propagates(self):
        env = demo_environment()
        on_wire = SpinSite(id="bad", position=env.wire.anchor)
        with pytest.raises(DegeneratePoint):
            field_sample(env, WireDrive(i_dc=0.1, i_ac=0.0), on_wire)
        with pytest.raises(DegeneratePoint):
            field_sample(env, WireDrive(i_dc=0.0, i_ac=0.0), on_wire)

    def test_zero_ac_current_is_one_wire_evaluation(self, monkeypatch):
        env = demo_environment()
        axis = dipole_axis(DipoleOrientation())
        positions = np.array([[u, v, 0.0] for u in (-1e-6, 0.0, 2e-6)
                              for v in (0.0, 1e-6)])
        _, want = project_field(wire_field(env.wire, 0.0, positions), axis)
        calls = []

        def counting(*args):
            calls.append(args[1])
            return wire_field(*args)

        monkeypatch.setattr(fields, "wire_field", counting)
        for i_ac, evaluations in ((0.0, 1), (0.02, 2)):
            calls.clear()
            fields._field_arrays(env, WireDrive(i_dc=0.1, i_ac=i_ac), positions, axis)
            assert len(calls) == evaluations
        got = fields._field_arrays(env, WireDrive(i_dc=0.1, i_ac=0.0), positions, axis)
        assert got[2].shape == want.shape and np.array_equal(got[2], want)


class TestAddressMap:
    def sites(self):
        return [SpinSite(id=f"nv-{tag}", position=np.array([u, 0.0, 0.0]))
                for tag, u in zip("abcde", [0.0, 0.4e-6, 1.0e-6, 1.5e-6, 2.0e-6])]

    def test_no_gradient_without_dc_current(self):
        env = demo_environment()
        amap = address_map(env, WireDrive(i_dc=0.0, i_ac=1e-3), self.sites())
        freqs = [e.omega_plus for e in amap.entries]
        assert np.ptp(freqs) < 1e-3

    def test_affine_in_dc_current(self):
        env = demo_environment()
        sites = self.sites()
        maps = [address_map(env, WireDrive(i_dc=i, i_ac=0.0), sites)
                for i in (0.0, 0.075, 0.15)]
        for e0, e1, e2 in zip(*(m.entries for m in maps)):
            lo, mid, hi = e0.omega_plus, e1.omega_plus, e2.omega_plus
            if hi == lo:
                continue
            assert abs(hi - 2 * mid + lo) / abs(hi - lo) <= 1e-9

    def test_calibrated_spread_exceeds_160_mhz(self):
        env = demo_environment()
        amap = address_map(env, WireDrive(i_dc=0.15, i_ac=0.0), self.sites())
        freqs = [e.omega_plus for e in amap.entries]
        assert max(freqs) - min(freqs) >= 1.6e8

    def test_entries_ordered_by_id(self):
        env = demo_environment()
        amap = address_map(env, WireDrive(i_dc=0.1, i_ac=0.0),
                           list(reversed(self.sites())))
        ids = [e.site_id for e in amap.entries]
        assert ids == sorted(ids)

    def test_empty_register_rejected(self):
        with pytest.raises(ValueError):
            address_map(demo_environment(), WireDrive(i_dc=0.0, i_ac=0.0), [])


class TestCalibrateWire:
    def test_roundtrip_through_field_sample(self):
        env = demo_environment()
        wire = calibrate_wire(env, target_shift=1.6e8, at_u=2e-6, i_dc=0.15)
        out = FieldEnvironment(env.b_ext, wire, env.constants)
        site = SpinSite(id="s", position=np.array([2e-6, 0.0, 0.0]))
        sample = field_sample(out, WireDrive(i_dc=0.15, i_ac=0.0), site)
        assert env.constants.gamma_nv * sample.b_dc_z == pytest.approx(1.6e8, abs=1e3)

    def test_zero_target_has_no_solution(self):
        with pytest.raises(NoSolution):
            calibrate_wire(demo_environment(), target_shift=0.0, at_u=2e-6,
                           i_dc=0.15)

    def test_unreachable_target_has_no_solution(self):
        with pytest.raises(NoSolution):
            calibrate_wire(demo_environment(), target_shift=1e12, at_u=2e-6,
                           i_dc=0.15)

    def test_current_and_target_scale_together(self):
        env = demo_environment()
        w1 = calibrate_wire(env, target_shift=1.2e8, at_u=2e-6, i_dc=0.15)
        w2 = calibrate_wire(env, target_shift=2.4e8, at_u=2e-6, i_dc=0.30)
        assert w1.anchor[2] == pytest.approx(w2.anchor[2], abs=1e-12)

    @pytest.mark.parametrize("make_env", (demo_environment, strip_environment),
                             ids=["thin", "strip"])
    def test_each_trial_depth_is_the_shift_of_the_wire_moved_there(self, make_env,
                                                                    monkeypatch):
        # calibrate_wire tries depth d as the surface wire at (at_u, 0, d):
        # each field it evaluates, and the field at random depths, gives the
        # zeeman_shift of the wire moved to that depth, bit for bit
        env, rng = make_env(), np.random.default_rng(5)
        surface = env.wire.with_depth(0.0)
        calls = []

        def recorded(wire, current, point):
            assert np.array_equal(wire.anchor, surface.anchor)
            calls.append((current, np.array(point), wire_field(wire, current, point)))
            return calls[-1][-1]

        monkeypatch.setattr(fields, "wire_field", recorded)
        for _ in range(3):
            calibrate_wire(env, rng.uniform(30e6, 150e6), rng.uniform(2e-6, 3e-6),
                           rng.uniform(0.12, 0.2))
        monkeypatch.undo()
        # per calibration: one call per round of 64 depths, and the check
        assert len(calls) == 3 * (CALIBRATION_ROUNDS + 1)
        depths = np.exp(rng.uniform(*np.log(CALIBRATION_DEPTH_RANGE), 40))
        points = np.array([[rng.uniform(2e-6, 3e-6), 0.0, d] for d in depths])
        calls.append((0.15, points, wire_field(surface, 0.15, points)))
        axis = dipole_axis(DipoleOrientation())
        for i_dc, points, b in calls:
            for point, b_point in zip(points.reshape(-1, 3), b.reshape(-1, 3)):
                moved = FieldEnvironment(env.b_ext, env.wire.with_depth(point[2]),
                                         env.constants)
                want = zeeman_shift(moved, i_dc, np.array([point[0], 0.0, 0.0]))
                assert point[1] == 0.0
                assert env.constants.gamma_nv * float(_dot(b_point, axis)) == want


    @pytest.mark.parametrize("make_env", (demo_environment, strip_environment),
                             ids=["thin", "strip"])
    def test_depth_is_within_16_ulps_of_the_bisection(self, make_env):
        # the rounds replaced 46 halvings of the scan's bracket, whose last
        # bracket was about 1.6e-15 of the depth wide
        env, rng = make_env(), np.random.default_rng(21)
        for _ in range(25):
            target = rng.uniform(30e6, 150e6)
            at_u, i_dc = rng.uniform(2e-6, 3e-6), rng.uniform(0.12, 0.2)
            want = -reference_bisection(env, target, at_u, i_dc).anchor[2]
            got = -calibrate_wire(env, target, at_u, i_dc).anchor[2]
            assert abs(got - want) <= 16 * np.spacing(want)


class TestZeemanShift:
    def test_vanishes_above_the_wire_crossing(self):
        # the demo wire runs along the in-plane dipole projection, so the
        # azimuthal field right above it is orthogonal to the dipole axis
        env = demo_environment()
        assert abs(zeeman_shift(env, 0.15, np.zeros(3))) < 1e-3

    @pytest.mark.parametrize("seed", (4, 5))
    def test_matches_the_projected_field_bit_for_bit(self, seed):
        # the shift comes from the shared field pass, not from project_field
        def reference_zeeman_shift(env, i_dc, position, orientation):
            axis = dipole_axis(orientation or DipoleOrientation())
            b_dc_z, _ = project_field(wire_field(env.wire, i_dc, position), axis)
            return env.constants.gamma_nv * b_dc_z

        rng = np.random.default_rng(seed)
        for make_env in (demo_environment, strip_environment):
            env = make_env()
            for site in mixed_sites(rng, 6):
                for i_dc in (0.15, -0.04, 0.0, -0.0):
                    for orientation in (site.orientation, None):
                        got = zeeman_shift(env, i_dc, site.position, orientation)
                        assert type(got) is float
                        assert_same_bits(got, reference_zeeman_shift(
                            env, i_dc, site.position, orientation))


class TestWireDrive:
    @pytest.mark.parametrize("i_dc, i_ac, name", [
        (math.nan, 0.0, "i_dc"),
        (math.inf, 0.0, "i_dc"),
        (-math.inf, 1e-3, "i_dc"),
        (0.15, math.nan, "i_ac"),
        (0.15, math.inf, "i_ac"),
        (0.15, -1e-3, "i_ac"),
    ], ids=["dc-nan", "dc-inf", "dc-minus-inf", "ac-nan", "ac-inf", "ac-negative"])
    def test_bad_current_names_it(self, i_dc, i_ac, name):
        # a NaN or infinite DC current gave NaN addresses and an ODMR
        # "contrast" of (pi/2)**2 at every scan point
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            WireDrive(i_dc=i_dc, i_ac=i_ac)



class TestStackedPathsMatchReferences:
    @pytest.mark.parametrize("make_env", (demo_environment, strip_environment),
                             ids=["thin", "strip"])
    def test_wire_field_matches_np_cross(self, make_env):
        wire = make_env().wire
        rng = np.random.default_rng(31)
        points = rng.uniform(-5e-6, 5e-6, (5, 4, 3))
        points[0, :, 1] = -0.0            # signed zeros in every coordinate
        points[1, :, 2] = 0.0
        points[2, :, 0] = -0.0
        points[3, :, 2] = -0.0
        for current in (0.15, -0.07, 0.0, -0.0):
            assert_same_bits(wire_field(wire, current, points),
                             reference_wire_field(wire, current, points))
            assert_same_bits(wire_field(wire, current, points[1, 2]),
                             reference_wire_field(wire, current, points[1, 2]))

    def test_wire_field_signed_zeros_on_an_axis_aligned_wire(self):
        # d_hat and r_perp with zero components make most cross terms +-0
        wire = WireGeometry(anchor=np.array([0.0, -0.0, -1e-6]), direction=U_HAT)
        points = np.array([[0.0, 0.0, 0.0], [-0.0, -0.0, -0.0], [1e-6, -0.0, 2e-6],
                           [-1e-6, 3e-6, -0.0]])
        for current in (0.1, -0.1, 0.0, -0.0):
            assert_same_bits(wire_field(wire, current, points),
                             reference_wire_field(wire, current, points))

    @pytest.mark.parametrize("make_env", (demo_environment, strip_environment),
                             ids=["thin", "strip"])
    def test_calibrated_depth_matches_per_depth_reference(self, make_env):
        env = make_env()
        rng = np.random.default_rng(9)
        for _ in range(10):
            # reachable on both wires: their shift at 2-3 um and 0.12-0.2 A
            # spans at least 0-170 MHz over the depth range
            target = rng.uniform(30e6, 150e6)
            at_u, i_dc = rng.uniform(2e-6, 3e-6), rng.uniform(0.12, 0.2)
            want = reference_calibrate_wire(env, target, at_u, i_dc)
            got = calibrate_wire(env, target, at_u, i_dc)
            assert_same_bits(got.anchor, want.anchor)
            assert got.num_filaments == want.num_filaments and got.width == want.width

    @pytest.mark.parametrize("k", (0, 1, 10, 62, 63))
    def test_zero_residual_on_the_scan_grid(self, k):
        # a target equal to the shift at scan depth k gives an exact zero there,
        # so the bracket collapses onto that depth with no halvings
        env = demo_environment()
        depth = np.geomspace(*CALIBRATION_DEPTH_RANGE, 64)[k]
        point = np.array([2e-6, 0.0, 0.0])
        axis = dipole_axis(DipoleOrientation())
        b_z, _ = project_field(reference_wire_field(env.wire.with_depth(depth), 0.15,
                                                    point), axis)
        target = env.constants.gamma_nv * b_z
        want = reference_calibrate_wire(env, target, 2e-6, 0.15)
        assert want.anchor[2] == -depth
        assert_same_bits(calibrate_wire(env, target, 2e-6, 0.15).anchor, want.anchor)

    def test_unreachable_shift_agrees_with_reference(self):
        env = strip_environment()
        with pytest.raises(NoSolution):
            reference_calibrate_wire(env, 1e12, 2e-6, 0.15)
        with pytest.raises(NoSolution):
            calibrate_wire(env, 1e12, 2e-6, 0.15)

    @pytest.mark.parametrize("seed", (1, 2, 3))
    def test_address_map_matches_per_site_reference(self, seed):
        # and the field pass under it, one axis per point, against per-site
        # field_sample for all four values
        rng = np.random.default_rng(seed)
        sites = mixed_sites(rng, 7)
        positions = np.array([site.position for site in sites])
        axes = np.array([dipole_axis(site.orientation) for site in sites])
        for make_env in (demo_environment, strip_environment):
            env = make_env()
            for i_dc in (0.15, -0.04, 0.0, -0.0):
                drive = WireDrive(i_dc=i_dc, i_ac=1e-3)
                got = [(e.site_id, e.position_u, e.omega_plus)
                       for e in address_map(env, drive, sites).entries]
                want = reference_address_map(env, drive, sites)
                assert [g[0] for g in got] == [w[0] for w in want]
                assert_same_bits([g[1:] for g in got], [w[1:] for w in want])
                got = fields._field_arrays(env, drive, positions, axes)
                samples = [field_sample(env, drive, site) for site in sites]
                want = [reference_field_sample(env, drive, site) for site in sites]
                for k, name in enumerate(("b_dc_z", "b_ext_z", "b_ac_xy", "omega_plus")):
                    assert_same_bits(got[k], [getattr(sample, name) for sample in samples])
                    assert_same_bits(got[k], [values[k] for values in want])
        # the AC part is the projection that checks the axes
        axes[int(rng.integers(len(sites)))] *= 1.001
        with pytest.raises(ValueError, match="unit-norm"):
            fields._field_arrays(env, WireDrive(i_dc=0.15, i_ac=1e-3), positions, axes)

    def test_degenerate_site_is_named_in_evaluation_order(self):
        # two sites sit on the wire: the address map names the first in id
        # order, the ODMR scan the first in the order given, as per-site
        # evaluation did
        env = demo_environment()
        on_wire = [env.wire.anchor + t * env.wire.direction for t in (1e-6, -2e-6)]
        sites = [SpinSite(id="nv-b", position=on_wire[0]),
                 SpinSite(id="nv-c", position=np.array([1e-6, 0.0, 0.0])),
                 SpinSite(id="nv-a", position=on_wire[1])]
        drive = WireDrive(i_dc=0.1, i_ac=1e-3)
        with pytest.raises(DegeneratePoint) as want:
            reference_address_map(env, drive, sites)
        with pytest.raises(DegeneratePoint) as got:
            address_map(env, drive, sites)
        assert str(got.value) == str(want.value)
        assert str(on_wire[1].tolist()) in str(got.value)
        with pytest.raises(DegeneratePoint) as want:
            [reference_omega_plus(env, drive.i_dc, site) for site in sites]
        with pytest.raises(DegeneratePoint) as got:
            simulate_odmr(env, drive, sites, 2e5, [3.0e9])
        assert str(got.value) == str(want.value)
        assert str(on_wire[0].tolist()) in str(got.value)
