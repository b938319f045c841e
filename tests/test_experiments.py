import dataclasses
import math

import numpy as np
import pytest

from spinmux import (
    DipoleOrientation,
    HyperfineManifold,
    PhysicalConstants,
    QubitState,
    SpinSite,
    WireDrive,
    crosstalk_landscape,
    demo_config_path,
    field_sample,
    load_config,
    rabi_frequency,
    simulate_odmr,
    simulate_rabi,
    simulate_ramsey,
    state_error,
    step_propagator,
)
from spinmux.dynamics import TWO_PI, _clamp_unit, _su2_pairs
from spinmux.experiments import CrosstalkEntry, CrosstalkReport, _flip_populations, \
    _lorentzian_smooth
from spinmux.fields import _field_arrays
from spinmux.spins import _member_mean, dipole_axis, hyperfine_detunings, \
    transition_frequencies

from test_fields import (assert_same_bits, demo_environment, mixed_sites,
                         reference_omega_plus, strip_environment)


def flip_population(rabi, delta, duration):
    """Reference: |<1|U|0>|^2 from one per-point step propagator."""
    if duration == 0.0:
        return 0.0
    return abs(step_propagator(delta, rabi, 0.0, duration).matrix[1, 0]) ** 2


class TestSimulateRabi:
    def test_resonant_pi_time(self):
        rabi = 7.5e6
        [p] = simulate_rabi(rabi, 0.0, [1.0 / (2 * rabi)])
        assert p == pytest.approx(1.0, abs=1e-12)

    def test_resonant_half_time(self):
        rabi = 7.5e6
        [p] = simulate_rabi(rabi, 0.0, [1.0 / (4 * rabi)])
        assert p == pytest.approx(0.5, abs=1e-12)

    def test_detuned_contrast_is_half_at_delta_equal_rabi(self):
        rabi = 4e6
        peak_time = 1.0 / (2.0 * math.sqrt(2.0) * rabi)
        times = np.linspace(0.0, 1e-6, 400)
        pops = simulate_rabi(rabi, rabi, list(times) + [peak_time])
        assert np.max(pops) == pytest.approx(0.5, abs=1e-12)

    def test_matches_closed_form_on_resonance(self):
        rabi = 3e6
        times = np.linspace(0.0, 5e-7, 101)
        pops = simulate_rabi(rabi, 0.0, times)
        expected = np.sin(math.pi * rabi * times) ** 2
        assert np.max(np.abs(pops - expected)) <= 1e-10

    @pytest.mark.parametrize("make_env", (demo_environment, strip_environment),
                             ids=["thin", "strip"])
    def test_the_target_anywhere_in_a_random_grid_has_zero_detuning(self, make_env):
        # the target and the grid share one field pass, so a grid point on
        # the target rounds as the target does
        env, rng = make_env(), np.random.default_rng(11)
        for _ in range(5):
            target_u, k = rng.uniform(-3e-6, 3e-6), rng.integers(50)
            grid = rng.uniform(-4e-6, 4e-6, (50, 3)) * [1.0, 1.0, 0.0]
            grid[k] = [target_u, 0.0, 0.0]
            entry = crosstalk_landscape(env, rng.uniform(0.05, 0.2), target_u, 1e7,
                                        grid).entries[k]
            assert entry.detuning == 0.0 and entry.bound == math.inf
            assert entry.epsilon == pytest.approx(1.0, abs=1e-12)

    def test_matches_per_point_propagators(self):
        times = np.linspace(0.0, 4e-7, 57)
        for rabi, delta in ((7.5e6, 0.0), (3e6, 2.2e6), (1e6, -4e6), (0.0, 1e6)):
            pops = simulate_rabi(rabi, delta, times)
            expected = [flip_population(rabi, delta, t) for t in times]
            assert np.max(np.abs(pops - expected)) <= 1e-12

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            simulate_rabi(1e6, 0.0, [1e-7, -1e-9])


class TestSimulateRamsey:
    def test_starts_at_unity(self):
        [s] = simulate_ramsey(3e6, HyperfineManifold.triplet(), 1.7e-6, [0.0])
        assert s == 1.0

    def test_pure_cosine_when_manifold_disabled(self):
        taus = np.linspace(0.0, 4e-6, 101)
        sig = simulate_ramsey(1e6, HyperfineManifold.triplet(0.0), math.inf, taus)
        assert np.max(np.abs(sig - np.cos(2 * math.pi * 1e6 * taus))) <= 1e-12

    def test_zero_splitting_is_one_damped_cosine_bit_for_bit(self):
        # one member, so no mean over three copies rounds the cosine
        taus = np.linspace(0.0, 8e-6, 601)
        sig = simulate_ramsey(3e6, HyperfineManifold.triplet(0.0), 1.7e-6, taus)
        assert_same_bits(sig, np.cos(2.0 * math.pi * (taus * 3e6)) * np.exp(-taus / 1.7e-6))

    def test_triplet_is_the_member_mean_of_its_cosines_bit_for_bit(self):
        # the one member average of every pulse evaluation, not np.mean's sum / 3
        taus = np.linspace(0.0, 8e-6, 601)
        manifold = HyperfineManifold.triplet()
        sig = simulate_ramsey(3e6, manifold, 1.7e-6, taus)
        cosines = np.cos(2.0 * math.pi * np.outer(taus, hyperfine_detunings(3e6, manifold)))
        assert_same_bits(sig, _member_mean(cosines) * np.exp(-taus / 1.7e-6))

    def test_triplet_beat_spectrum(self):
        # oracle: DFT of the generated signal; peaks at |3 -+ 2.2| and 3+2.2 MHz
        taus = np.linspace(0.0, 8e-6, 800, endpoint=False)
        sig = simulate_ramsey(3e6, HyperfineManifold.triplet(), 1.7e-6, taus)
        spectrum = np.abs(np.fft.rfft(sig))
        freqs = np.fft.rfftfreq(len(taus), d=taus[1] - taus[0])
        bin_width = freqs[1] - freqs[0]
        local_max = [k for k in range(1, len(spectrum) - 1)
                     if spectrum[k] > spectrum[k - 1]
                     and spectrum[k] >= spectrum[k + 1]]
        top = sorted(sorted(local_max, key=lambda k: spectrum[k])[-3:])
        found = [freqs[k] for k in top]
        for expect, got in zip([0.8e6, 3.0e6, 5.2e6], found):
            assert abs(got - expect) <= bin_width

    def test_envelope_decay_constant(self):
        from scipy.optimize import curve_fit

        taus = np.linspace(0.0, 8e-6, 800)
        sig = simulate_ramsey(3e6, HyperfineManifold.triplet(), 1.7e-6, taus)

        def model(tau, amp, t2s):
            beat = np.mean(np.cos(2 * math.pi * np.outer(tau, [0.8e6, 3e6, 5.2e6])),
                           axis=1)
            return amp * beat * np.exp(-tau / t2s)

        popt, _ = curve_fit(model, taus, sig, p0=[0.9, 1.0e-6])
        assert popt[1] == pytest.approx(1.7e-6, rel=0.05)

    def test_rejects_nonpositive_t2star(self):
        with pytest.raises(ValueError):
            simulate_ramsey(1e6, HyperfineManifold.triplet(), 0.0, [1e-6])

    def test_rejects_negative_delays(self):
        # exp(-tau/t2_star) grows for tau < 0 and would push the signal
        # outside [-1, 1]
        with pytest.raises(ValueError, match="taus"):
            simulate_ramsey(1e6, HyperfineManifold.triplet(), 1.7e-6, [0.0, -1e-6])


class TestSimulateOdmr:
    def setup_method(self):
        self.env = demo_environment()
        self.drive = WireDrive(i_dc=0.0, i_ac=1e-3)
        from spinmux import SpinSite

        self.site = SpinSite(id="s", position=np.array([0.5e-6, 0.0, 0.0]))
        self.omega = field_sample(self.env, self.drive, self.site).omega_plus

    def scan(self, halfwidth=6e6, points=241):
        return self.omega + np.linspace(-halfwidth, halfwidth, points)

    def test_contrast_peaks_on_resonance(self):
        scan = self.scan()
        contrast = simulate_odmr(self.env, self.drive, [self.site], 2e5, scan,
                                 linewidth_floor=0.0)
        assert np.argmax(contrast) == len(scan) // 2

    def _count_peaks(self, contrast):
        threshold = 0.5 * contrast.max()
        return sum(
            1 for k in range(1, len(contrast) - 1)
            if contrast[k] >= threshold
            and contrast[k] > contrast[k - 1] and contrast[k] >= contrast[k + 1]
        )

    def test_weak_probe_resolves_triplet(self):
        contrast = simulate_odmr(self.env, self.drive, [self.site], 2e5,
                                 self.scan(), linewidth_floor=0.0)
        assert self._count_peaks(contrast) == 3

    def test_strong_probe_merges_triplet(self):
        contrast = simulate_odmr(self.env, self.drive, [self.site], 1e7,
                                 self.scan(), linewidth_floor=0.0)
        assert self._count_peaks(contrast) == 1

    def test_matches_explicit_triplet_sum(self):
        # oracle: rebuild the spectrum by averaging the three detuned line
        # responses (and the far lower transition) by hand, one step
        # propagator per point
        scan = self.scan(points=61)
        contrast = simulate_odmr(self.env, self.drive, [self.site], 2e5, scan,
                                 linewidth_floor=0.0)
        omega_minus = 2 * self.env.constants.d_zfs - self.omega
        duration = 1.0 / (2 * 2e5)
        expected = []
        for omega_mw in scan:
            acc = []
            for center in (self.omega, omega_minus):
                for off in (-2.2e6, 0.0, 2.2e6):
                    acc.append(flip_population(2e5, center + off - omega_mw,
                                               duration))
            expected.append(np.mean(acc))
        assert np.max(np.abs(contrast - np.asarray(expected))) <= 1e-12

    def test_linewidth_floor_smooths(self):
        scan = self.scan()
        sharp = simulate_odmr(self.env, self.drive, [self.site], 2e5, scan, 0.0)
        smooth = simulate_odmr(self.env, self.drive, [self.site], 2e5, scan, 2e5)
        assert smooth.max() < sharp.max()
        assert self._count_peaks(smooth) == 3  # 0.2 MHz floor keeps the triplet

    def test_linewidth_kernel_matches_its_formula(self):
        # the in-place kernel against the expression it evaluates
        scan = np.sort(np.random.default_rng(6).uniform(-5e6, 5e6, 301))
        values = np.random.default_rng(7).uniform(0.0, 1.0, 301)
        half = 3e5 / 2.0
        diffs = scan[:, None] - scan[None, :]
        kernel = half * half / (diffs * diffs + half * half)
        want = kernel @ values / kernel.sum(axis=1)
        assert np.array_equal(_lorentzian_smooth(scan, values, 3e5), want)

    def test_rejects_negative_linewidth_floor(self):
        # a negative width would silently skip the smoothing, as zero does
        with pytest.raises(ValueError, match="linewidth_floor"):
            simulate_odmr(self.env, self.drive, [self.site], 2e5, self.scan(), -2e5)

    @pytest.mark.parametrize("floor", (math.inf, 1e200, math.nan))
    def test_rejects_a_linewidth_floor_beyond_the_ceiling(self, floor):
        # inf and 1e200 returned all-NaN contrast, with a numpy warning
        with pytest.raises(ValueError, match="^linewidth_floor must be >= 0 and at most"):
            simulate_odmr(self.env, self.drive, [self.site], 2e5, self.scan(), floor)

    def test_the_ceiling_itself_is_a_finite_linewidth_floor(self):
        contrast = simulate_odmr(self.env, self.drive, [self.site], 2e5, self.scan(), 1e15)
        assert np.isfinite(contrast).all()

    @pytest.mark.parametrize("floor", (0.0, 2e5))
    def test_zero_splitting_is_one_member_per_line_bit_for_bit(self, floor):
        # each site's upper and lower line once, from transition_frequencies
        env = dataclasses.replace(demo_environment(),
                                  constants=PhysicalConstants(hyperfine_splitting=0.0))
        sites = mixed_sites(np.random.default_rng(4), 5)
        drive, scan = WireDrive(i_dc=0.12, i_ac=0.0), np.linspace(2.7e9, 3.3e9, 61)
        lines = []
        for site in sites:
            sample = field_sample(env, drive, site)
            lines += transition_frequencies(env.constants, sample.b_ext_z + sample.b_dc_z)
        want = np.mean(_flip_populations(2e5, np.array(lines)[None, :] - scan[:, None],
                                         1.0 / (2.0 * 2e5)), axis=1)
        if floor:
            want = _lorentzian_smooth(scan, want, floor)
        assert_same_bits(simulate_odmr(env, drive, sites, 2e5, scan, floor), want)

    def test_empty_scan_rejected(self):
        with pytest.raises(ValueError):
            simulate_odmr(self.env, self.drive, [self.site], 2e5, [], 0.0)

    def test_nonpositive_probe_rejected(self):
        with pytest.raises(ValueError):
            simulate_odmr(self.env, self.drive, [self.site], 0.0, self.scan(), 0.0)


class TestCrosstalkLandscape:
    def grid(self):
        return [np.array([u, 0.0, 0.0]) for u in np.linspace(-4e-6, 4e-6, 33)]

    def test_target_point_is_fully_flipped(self):
        env = demo_environment()
        report = crosstalk_landscape(env, 0.15, 1.5e-6, 1e7, self.grid())
        by_u = {round(p[0] * 1e6, 2): e
                for p, e in zip(self.grid(), report.entries)}
        assert by_u[1.5].epsilon == pytest.approx(1.0, abs=1e-10)
        assert by_u[1.5].detuning == pytest.approx(0.0, abs=1e-6)

    def test_without_gradient_error_stays_large_far_away(self):
        env = demo_environment()
        report = crosstalk_landscape(env, 0.0, 1.5e-6, 1e7, self.grid())
        by_u = {round(p[0] * 1e6, 2): e
                for p, e in zip(self.grid(), report.entries)}
        assert by_u[-3.5].epsilon > 0.5

    def test_with_gradient_error_collapses_within_microns(self):
        env = demo_environment()
        report = crosstalk_landscape(env, 0.15, 1.5e-6, 1e7, self.grid())
        for pos, entry in zip(self.grid(), report.entries):
            if abs(pos[0] - 1.5e-6) >= 3e-6:
                assert entry.epsilon < 0.01

    @pytest.mark.parametrize("drive_dc", (0.0, 0.15))
    def test_readme_maps_match_the_rabi_closed_form(self, drive_dc):
        # epsilon is |<1|U|0>|^2, as in the Rabi and ODMR simulators;
        # 1 - |<0|U|0>|^2 loses digits to cancellation where it is small
        env = load_config(demo_config_path()).environment
        grid = [np.array([u, 0.0, 0.0]) for u in np.linspace(-4.0, 4.0, 65) * 1e-6]
        entries = crosstalk_landscape(env, drive_dc, 1.5e-6, 1e7, grid).entries
        target = SpinSite(id="t", position=np.array([1.5e-6, 0.0, 0.0]))
        unit = field_sample(env, WireDrive(i_dc=drive_dc, i_ac=1.0), target).b_ac_xy
        drive = WireDrive(i_dc=drive_dc, i_ac=1e7 / rabi_frequency(env.constants, unit))
        duration = 1.0 / (2.0 * 1e7)
        for pos, entry in zip(grid, entries):
            site = SpinSite(id="p", position=pos)
            rabi = rabi_frequency(env.constants, field_sample(env, drive, site).b_ac_xy)
            rate = math.hypot(rabi, entry.detuning)
            want = (rabi / rate) ** 2 * math.sin(math.pi * rate * duration) ** 2
            assert abs(entry.epsilon - want) <= 1e-11 * want

    def test_simulated_error_never_beats_the_bound(self):
        env = demo_environment()
        report = crosstalk_landscape(env, 0.15, 1.5e-6, 1e7, self.grid())
        for entry in report.entries:
            assert entry.epsilon <= entry.bound + 1e-12

    def test_grid_point_on_the_target_has_zero_detuning(self):
        env = demo_environment()
        grid = [np.array([u, 0.0, 0.0]) for u in (-1e-6, 1.5e-6, 3e-6)]
        for drive_dc in (0.0, 0.15):
            entry = crosstalk_landscape(env, drive_dc, 1.5e-6, 1e7, grid).entries[1]
            assert entry.detuning == 0.0 and entry.bound == math.inf

    @pytest.mark.parametrize("make_env", (demo_environment, strip_environment),
                             ids=["thin", "strip"])
    def test_the_target_anywhere_in_a_random_grid_has_zero_detuning(self, make_env):
        # the target and the grid share one field pass, so a grid point on
        # the target rounds as the target does
        env, rng = make_env(), np.random.default_rng(11)
        for _ in range(5):
            target_u, k = rng.uniform(-3e-6, 3e-6), rng.integers(50)
            grid = rng.uniform(-4e-6, 4e-6, (50, 3)) * [1.0, 1.0, 0.0]
            grid[k] = [target_u, 0.0, 0.0]
            entry = crosstalk_landscape(env, rng.uniform(0.05, 0.2), target_u, 1e7,
                                        grid).entries[k]
            assert entry.detuning == 0.0 and entry.bound == math.inf
            assert entry.epsilon == pytest.approx(1.0, abs=1e-12)

    def test_matches_per_point_propagators(self):
        # reference: the per-point loop, one field sample, step propagator
        # and state error per grid position
        env = demo_environment()
        grid = [np.array([u, v, 0.0]) for u in np.linspace(-4e-6, 4e-6, 17)
                for v in (-1e-6, 0.0)]
        for drive_dc in (0.0, 0.15):
            report = crosstalk_landscape(env, drive_dc, 1.5e-6, 1e7, grid)
            probe = WireDrive(i_dc=drive_dc, i_ac=1.0)
            target = SpinSite(id="t", position=np.array([1.5e-6, 0.0, 0.0]))
            target_sample = field_sample(env, probe, target)
            i_ac = 1e7 / rabi_frequency(env.constants, target_sample.b_ac_xy)
            drive = WireDrive(i_dc=drive_dc, i_ac=i_ac)
            duration = 1.0 / (2.0 * 1e7)
            assert len(report.entries) == len(grid)
            for k, (position, entry) in enumerate(zip(grid, report.entries)):
                site = SpinSite(id="p", position=position,
                                orientation=DipoleOrientation())
                sample = field_sample(env, drive, site)
                rabi = rabi_frequency(env.constants, sample.b_ac_xy)
                delta = sample.omega_plus - target_sample.omega_plus
                u = step_propagator(delta, rabi, 0.0, duration)
                assert entry.site_id == f"g{k:04d}"
                assert entry.detuning == delta
                assert abs(entry.epsilon - state_error(u, QubitState.ground())) <= 1e-12
                bound = math.inf if delta == 0.0 else (rabi / delta) ** 2
                assert entry.bound == pytest.approx(bound, rel=1e-12)


class TestNonFiniteInput:
    """Bad numbers stop with a ValueError naming the parameter, never a NaN result."""

    @pytest.mark.parametrize("args, name", [
        ((7.5e6, 0.0, [0.0, math.nan]), "durations"),
        ((7.5e6, 0.0, [math.inf]), "durations"),
        ((math.nan, 0.0, [1e-9]), "rabi"),
        ((7.5e6, math.inf, [1e-9]), "delta"),
    ], ids=["duration-nan", "duration-inf", "rabi-nan", "delta-inf"])
    def test_rabi(self, args, name):
        with pytest.raises(ValueError, match=name):
            simulate_rabi(*args)

    @pytest.mark.parametrize("delta, t2_star, taus, name", [
        (1e6, math.nan, [0.0, 1e-6], "t2_star"),
        (math.nan, 1.7e-6, [0.0, 1e-6], "delta"),
        (1e6, 1.7e-6, [0.0, math.inf], "taus"),
    ], ids=["t2-nan", "delta-nan", "tau-inf"])
    def test_ramsey(self, delta, t2_star, taus, name):
        with pytest.raises(ValueError, match=name):
            simulate_ramsey(delta, HyperfineManifold.triplet(), t2_star, taus)

    @pytest.mark.parametrize("drive_dc, target_u, rabi_target, name", [
        (0.15, 1.5e-6, math.nan, "rabi_target"),
        (0.15, 1.5e-6, math.inf, "rabi_target"),
        # these two used to fail as "epsilon out of [0, 1] at g0000"
        (math.nan, 1.5e-6, 1e7, "drive_dc"),
        (0.15, math.nan, 1e7, "target_u"),
        (math.inf, 1.5e-6, 1e7, "drive_dc"),
    ], ids=["rabi-nan", "rabi-inf", "dc-nan", "target-u-nan", "dc-inf"])
    def test_crosstalk(self, drive_dc, target_u, rabi_target, name):
        grid = [np.array([u, 0.0, 0.0]) for u in (-1e-6, 2e-6)]
        with pytest.raises(ValueError, match=name):
            crosstalk_landscape(demo_environment(), drive_dc, target_u, rabi_target, grid)

    @pytest.mark.parametrize("sites, probe_rabi, name", [
        ([], 2e5, "sites"),
        (None, math.nan, "probe_rabi"),
    ], ids=["no-sites", "probe-nan"])
    def test_odmr(self, sites, probe_rabi, name):
        # an empty register gave NaN and a "Mean of empty slice" warning
        site = SpinSite(id="s", position=np.array([0.5e-6, 0.0, 0.0]))
        with pytest.raises(ValueError, match=name):
            simulate_odmr(demo_environment(), WireDrive(i_dc=0.0, i_ac=1e-3),
                          [site] if sites is None else sites, probe_rabi,
                          np.linspace(2.99e9, 3.01e9, 5))


    @pytest.mark.parametrize("linewidth", [0.0, 2e5], ids=["raw", "smoothed"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_odmr_scan_point(self, linewidth, bad):
        # a NaN point read (pi/2)**2 there, or NaN everywhere once smoothed
        site = SpinSite(id="s", position=np.array([0.5e-6, 0.0, 0.0]))
        scan = np.linspace(2.99e9, 3.01e9, 5)
        scan[2] = bad
        with pytest.raises(ValueError, match="^scan must be"):
            simulate_odmr(demo_environment(), WireDrive(i_dc=0.15, i_ac=0.0), [site],
                          2e5, scan, linewidth)


def reference_odmr(env, drive, sites, probe_rabi, scan, linewidth_floor):
    """simulate_odmr with its lines collected site by site: each line's members
    averaged by `_member_mean`, then the lines (sites and transitions) by np.mean."""
    manifold = HyperfineManifold.triplet(env.constants.hyperfine_splitting)
    lines = []
    for site in sites:
        omega_plus = reference_omega_plus(env, drive.i_dc, site)
        omega_minus = 2.0 * env.constants.d_zfs - omega_plus
        for omega in (omega_plus, omega_minus):
            members = hyperfine_detunings(omega, manifold)
            lines.append(_member_mean(_flip_populations(
                probe_rabi, members[None, :] - scan[:, None], 1.0 / (2.0 * probe_rabi))))
    contrast = np.mean(np.stack(lines, axis=1), axis=1)
    if linewidth_floor > 0:
        contrast = _lorentzian_smooth(scan, contrast, linewidth_floor)
    return contrast


def reference_crosstalk_entries(env, drive_dc, target_u, rabi_target, grid):
    """crosstalk_landscape's entries, built one by one in an enumerate/zip loop.
    The target's field comes from its own field_sample; every point is driven
    at its rate per ampere times rabi_target / (the target's rate per ampere)."""
    positions = np.asarray(list(grid), dtype=float).reshape(-1, 3)
    orientation = DipoleOrientation()
    target = SpinSite(id="target", position=np.array([target_u, 0.0, 0.0]),
                      orientation=orientation)
    unit = WireDrive(i_dc=drive_dc, i_ac=1.0)
    target_sample = field_sample(env, unit, target)
    target_per_amp = rabi_frequency(env.constants, target_sample.b_ac_xy)
    duration = 1.0 / (2.0 * rabi_target)
    *_, b_ac_unit, omega_plus = _field_arrays(env, unit, positions, dipole_axis(orientation))
    rabis = rabi_frequency(env.constants, b_ac_unit) * (rabi_target / target_per_amp)
    deltas = omega_plus - target_sample.omega_plus
    _, b = _su2_pairs(TWO_PI * rabis, 0.0, TWO_PI * deltas, duration)
    eps = _clamp_unit(np.abs(b) ** 2)
    return [
        CrosstalkEntry(site_id=f"g{k:04d}", detuning=delta, epsilon=e,
                       bound=math.inf if delta == 0.0 else (rabi / delta) ** 2)
        for k, (rabi, delta, e) in enumerate(zip(rabis.tolist(), deltas.tolist(),
                                                 eps.tolist()))
    ]


def entry_columns(entries):
    return ([e.site_id for e in entries],
            np.array([[e.detuning, e.epsilon, e.bound] for e in entries]).reshape(-1, 3))


class TestStackedPathsMatchReferences:
    @pytest.mark.parametrize("seed", (1, 2, 3))
    def test_odmr_matches_site_by_site_lines(self, seed):
        rng = np.random.default_rng(seed)
        sites = mixed_sites(rng, 5)
        for make_env in (demo_environment, strip_environment):
            env = make_env()
            drive = WireDrive(i_dc=rng.uniform(-0.2, 0.2), i_ac=1e-3)
            scan = np.linspace(2.7e9, 3.3e9, 61)
            for floor in (0.0, 2e5):
                assert_same_bits(simulate_odmr(env, drive, sites, 0.2e6, scan, floor),
                                 reference_odmr(env, drive, sites, 0.2e6, scan, floor))

    @pytest.mark.parametrize("seed", (1, 2, 3))
    def test_crosstalk_entries_match_entry_loop(self, seed):
        rng = np.random.default_rng(seed)
        target_u = rng.uniform(0.5e-6, 1.5e-6)
        grid = [np.array([u, v, 0.0]) for u in np.linspace(-4e-6, 4e-6, 40)
                for v in np.linspace(-2e-6, 2e-6, 25)]
        grid[7] = np.array([target_u, 0.0, 0.0])     # zero detuning, infinite bound
        for make_env in (demo_environment, strip_environment):
            env = make_env()
            for drive_dc in (0.0, 0.15):
                got = crosstalk_landscape(env, drive_dc, target_u, 1e7, grid).entries
                want = reference_crosstalk_entries(env, drive_dc, target_u, 1e7, grid)
                (got_ids, got_values), (want_ids, want_values) = map(entry_columns,
                                                                      (got, want))
                assert got_ids == want_ids
                assert_same_bits(got_values, want_values)
                assert got[7].bound == math.inf


@pytest.mark.parametrize("epsilons, first", [
    ((0.5, 1.5, -0.1), "g0001"),
    ((0.0, 1.0, -1e-300), "g0002"),
    ((math.nan, 0.5, 2.0), "g0000"),
], ids=["above", "below", "nan"])
def test_crosstalk_epsilon_out_of_range_names_the_first_bad_point(epsilons, first):
    entries = [CrosstalkEntry(f"g{k:04d}", 1e6, eps, 1.0) for k, eps in enumerate(epsilons)]
    with pytest.raises(ValueError, match=rf"^epsilon out of \[0, 1\] at {first}$"):
        CrosstalkReport(entries=tuple(entries))
