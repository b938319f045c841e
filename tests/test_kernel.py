"""The pair kernel (tree product and prefix scan) against a stepwise 2x2 loop,
the scan as the tree's down-sweep against the recursive scan, the step pairs
and q against their always-guarded build, and the one-scan gradient against
the two-scan, derivative-pair gradient; the product against the top of the
tree; blocked forward evaluation against one block, and with a record against
without; pulse stacks against one pulse at a time."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import spinmux.synthesis as synthesis
from spinmux import (ControlScenario, HyperfineManifold, PulseProgram, evolve,
                     step_propagator)
from spinmux.dynamics import (TWO_PI, _compose, _matrix, _pair, _product, _scan,
                              _su2_pairs, _su2_q, _tree)
from spinmux.synthesis import _Ensemble, _objective_gradient

DT = 40e-9


def stepwise_prefixes(i_amps, q_amps, delta):
    """Reference: U_l ... U_0 for every l, one 2x2 matmul per step."""
    total = np.eye(2, dtype=complex)
    out = []
    for i_amp, q_amp in zip(i_amps, q_amps):
        total = step_propagator(delta, i_amp, q_amp, DT).matrix @ total
        out.append(total)
    return np.array(out)


def random_pulse(rng, m):
    return rng.uniform(-5e6, 5e6, m), rng.uniform(-5e6, 5e6, m)


def as_matrices(a, b):
    return np.moveaxis(np.array([[a, -np.conj(b)], [b, np.conj(a)]]), (0, 1), (-2, -1))


def compose_pairs(a2, b2, a1, b1):
    """U2 U1 with each pair as two arrays, the formula written out: the
    reference that the one-array `_compose` reproduces bit for bit."""
    return a2 * a1 - b2.conj() * b1, b2 * a1 + a2.conj() * b1


M_VALUES = (1, 2, 3, 7, 200, 1001)


@pytest.mark.parametrize("m", M_VALUES)
def test_shared_pulse_per_member_detunings(m):
    # one pulse, one member per detuning: the ensemble's (members, steps) case
    rng = np.random.default_rng(m)
    i_amps, q_amps = random_pulse(rng, m)
    deltas = np.array([-2.2e6, 0.0, 1.1e6, 3.3e6])
    u = _su2_pairs(TWO_PI * i_amps[None, :], TWO_PI * q_amps[None, :],
                   TWO_PI * deltas[:, None], DT)
    assert u.shape == (2, len(deltas), m)
    final = as_matrices(*_product(u))
    prefixes = as_matrices(*_scan(_tree(u)))
    for n, delta in enumerate(deltas):
        ref = stepwise_prefixes(i_amps, q_amps, delta)
        assert np.max(np.abs(prefixes[n] - ref)) <= 1e-12
        assert np.max(np.abs(final[n] - ref[-1])) <= 1e-12


@pytest.mark.parametrize("m", M_VALUES)
def test_one_pulse_without_member_axis(m):
    rng = np.random.default_rng(100 + m)
    i_amps, q_amps = random_pulse(rng, m)
    ref = stepwise_prefixes(i_amps, q_amps, 1.3e6)
    u = _su2_pairs(TWO_PI * i_amps, TWO_PI * q_amps, TWO_PI * 1.3e6, DT)
    assert np.max(np.abs(_matrix(_product(u)) - ref[-1])) <= 1e-12
    assert np.max(np.abs(as_matrices(*_scan(_tree(u))) - ref)) <= 1e-12
    u = evolve(PulseProgram.from_arrays(i_amps, q_amps, DT), 1.3e6).matrix
    assert np.max(np.abs(u - ref[-1])) <= 1e-12


@pytest.mark.parametrize("m", (1, 2, 7, 200))
def test_distinct_pulse_per_member(m):
    rng = np.random.default_rng(200 + m)
    pulses = [random_pulse(rng, m) for _ in range(3)]
    deltas = np.array([0.5e6, -1.5e6, 2.5e6])
    i_amps = np.array([p[0] for p in pulses])
    q_amps = np.array([p[1] for p in pulses])
    u = _su2_pairs(TWO_PI * i_amps, TWO_PI * q_amps, TWO_PI * deltas[:, None], DT)
    final, prefixes = as_matrices(*_product(u)), as_matrices(*_scan(_tree(u)))
    for n, ((i_n, q_n), delta) in enumerate(zip(pulses, deltas)):
        ref = stepwise_prefixes(i_n, q_n, delta)
        assert np.max(np.abs(prefixes[n] - ref)) <= 1e-12
        assert np.max(np.abs(final[n] - ref[-1])) <= 1e-12


def test_compose_applies_a_pair_to_kets():
    rng = np.random.default_rng(3)
    u = _su2_pairs(*rng.uniform(-1e7, 1e7, (3, 5)), DT)
    kets = rng.normal(size=(2, 5)) + 1j * rng.normal(size=(2, 5))
    got = _compose(u, kets)
    want = np.einsum("nij,jn->in", as_matrices(*u), kets)
    assert np.max(np.abs(got - want)) <= 1e-15


def reference_scan(a, b):
    """The recursive odd/even scan that `_scan` replaced, with `_scan`'s rule
    that the last prefix is the pairwise tree's product, on pairs as two
    arrays."""
    sa, sb = odd_even_scan(a, b)
    if a.shape[-1]:
        sa[..., -1], sb[..., -1] = reference_product(a, b)
    return sa, sb


def odd_even_scan(a, b):
    """Scan the products of neighbouring pairs recursively, which gives every
    odd entry, then compose each even entry's step onto the odd entry before it."""
    n = a.shape[-1]
    if n <= 1:
        return a, b
    pa, pb = compose_pairs(a[..., 1::2], b[..., 1::2], a[..., 0:n - 1:2], b[..., 0:n - 1:2])
    sa, sb = odd_even_scan(pa, pb)
    out_a, out_b = np.empty_like(a), np.empty_like(b)
    out_a[..., 1::2], out_b[..., 1::2] = sa, sb
    out_a[..., 0], out_b[..., 0] = a[..., 0], b[..., 0]
    k = (n - 1) // 2
    out_a[..., 2::2], out_b[..., 2::2] = compose_pairs(a[..., 2::2], b[..., 2::2],
                                                       sa[..., :k], sb[..., :k])
    return out_a, out_b


def reference_tree(a, b):
    """The levels of the pairwise product tree on pairs as two arrays."""
    levels = [(a, b)]
    while a.shape[-1] > 1:
        n = a.shape[-1]
        pa, pb = compose_pairs(a[..., 1::2], b[..., 1::2], a[..., 0:n - 1:2], b[..., 0:n - 1:2])
        if n % 2:
            pa = np.concatenate([pa, a[..., -1:]], axis=-1)
            pb = np.concatenate([pb, b[..., -1:]], axis=-1)
        a, b = pa, pb
        levels.append((a, b))
    return levels


def reference_product(a, b):
    """The pairwise tree product on pairs as two arrays."""
    a, b = reference_tree(a, b)[-1]
    return a[..., 0], b[..., 0]


@settings(max_examples=150, deadline=None)
@given(m=st.integers(1, 70), members=st.integers(1, 12), seed=st.integers(0, 2**32 - 1))
def test_down_sweep_equals_the_recursive_scan(m, members, seed):
    rng = np.random.default_rng(seed)
    u = _su2_pairs(TWO_PI * rng.uniform(-5e6, 5e6, (1, m)),
                   TWO_PI * rng.uniform(-5e6, 5e6, (1, m)),
                   TWO_PI * rng.uniform(-3e6, 3e6, (members, 1)), DT)
    levels = _tree(u)
    sa, sb = _scan(levels)
    want_a, want_b = reference_scan(*u)
    assert np.array_equal(sa, want_a) and np.array_equal(sb, want_b)
    pa, pb = _product(u)
    top_a, top_b = levels[-1]
    assert np.array_equal(pa, top_a[:, 0]) and np.array_equal(pb, top_b[:, 0])
    ra, rb = reference_product(*u)
    assert np.array_equal(pa, ra) and np.array_equal(pb, rb)


def random_pairs(rng, shape):
    """Step pairs of the given trailing shape (0-d too) from random rates."""
    rates = rng.uniform(-5e6, 5e6, (3, *shape))
    return _su2_pairs(*(TWO_PI * rates), DT)


@settings(max_examples=200, deadline=None)
@given(lead=st.lists(st.integers(1, 3), max_size=2), m=st.integers(0, 70),
       seed=st.integers(0, 2**32 - 1))
def test_one_array_kernel_equals_the_two_array_formula_bit_for_bit(lead, m, seed):
    # leading pulse and member axes, odd and even widths, m = 1 and an empty axis
    rng = np.random.default_rng(seed)
    u = random_pairs(rng, (*lead, m))
    u1 = random_pairs(rng, (*lead, m))
    assert same_bits(_compose(u, u1), np.array(compose_pairs(*u, *u1)))
    levels, want = _tree(u), reference_tree(*u)
    assert len(levels) == len(want)
    assert all(same_bits(level, np.array(pair)) for level, pair in zip(levels, want))
    assert same_bits(_scan(levels), np.array(reference_scan(*u)))
    if m:
        assert same_bits(_product(u), np.array(reference_product(*u)))


def test_one_array_compose_of_0d_steps_equals_the_formula_bit_for_bit():
    rng = np.random.default_rng(13)
    u2, u1 = random_pairs(rng, ()), random_pairs(rng, ())
    assert u2.shape == (2,)
    assert same_bits(_compose(u2, u1), np.array(compose_pairs(*u2, *u1)))
    # a stack of pairs onto one 0-d pair broadcasts as the gradient's costate seed does
    stack = random_pairs(rng, (4,))
    assert same_bits(_compose(stack, u1[:, None]), np.array(compose_pairs(*stack, *u1)))


@pytest.mark.parametrize("m", range(1, 71))
def test_last_prefix_is_the_product_bit_for_bit(m):
    # the down-sweep alone composes an odd leftover at the bottom level, the
    # tree at the top, which rounds differently from m = 7 on
    rng = np.random.default_rng(m)
    u = _su2_pairs(TWO_PI * rng.uniform(-5e6, 5e6, (1, m)),
                   TWO_PI * rng.uniform(-5e6, 5e6, (1, m)),
                   TWO_PI * rng.uniform(-3e6, 3e6, (3, 1)), DT)
    sa, sb = _scan(_tree(u))
    pa, pb = _product(u)
    assert same_bits(sa[:, -1], pa) and same_bits(sb[:, -1], pb)


@pytest.mark.parametrize("m", range(1, 71))
def test_streamed_product_is_the_top_of_the_kept_tree(m):
    # pulses x members x steps, as `forward` stacks them
    rng = np.random.default_rng([m, 71])
    u = _su2_pairs(TWO_PI * rng.uniform(-5e6, 5e6, (2, 1, m)),
                   TWO_PI * rng.uniform(-5e6, 5e6, (2, 1, m)),
                   TWO_PI * rng.uniform(-3e6, 3e6, (4, 1)), DT)
    top_a, top_b = _tree(u)[-1]
    pa, pb = _product(u)
    assert pa.shape == pb.shape == (2, 4)
    assert same_bits(pa, top_a[..., 0]) and same_bits(pb, top_b[..., 0])


def test_scan_of_an_empty_axis_is_empty():
    a = np.ones((2, 0), dtype=complex)
    sa, sb = _scan(_tree(np.array([a, np.zeros_like(a)])))
    assert sa.shape == sb.shape == (2, 0)


@pytest.mark.parametrize("m", (1, 3, 200))
def test_transfer_means_match_stepwise_loop(m):
    rng = np.random.default_rng(300 + m)
    i_amps, q_amps = random_pulse(rng, m)
    scenario = ControlScenario(idle_detunings=(1.1e6, -0.7e6))
    ens = _Ensemble.for_scenario(scenario)
    per_member = []
    for delta in ens.deltas:
        u = stepwise_prefixes(i_amps, q_amps, delta)[-1]
        per_member.append(abs(u[1, 0]) ** 2)
    want = np.array(per_member).reshape(ens.num_spins, -1).mean(axis=1)
    got = ens.transfer_means(i_amps, q_amps, DT)
    assert np.max(np.abs(got - want)) <= 1e-12


def test_pair_matches_the_complex_formula():
    # zeros of both signs, negatives, and operands of different shapes
    rng = np.random.default_rng(4)
    c = np.array([[0.0], [-0.0], [1.5], [-2.0]])
    x = np.concatenate([[0.0, -0.0, -3.0], rng.normal(size=4)])
    y = rng.normal(size=(4, 1))
    z = np.float64(-0.25)
    for args in ((c, x, y, z), (x, c, z, y), (0.5, -0.0, 0.0, -1.0)):
        a, b = _pair(*args)
        want_a, want_b = args[0] - 1j * args[3], args[2] - 1j * args[1]
        # one array holds both halves, over the operands' common shape
        shape = np.broadcast(want_a, want_b).shape
        assert np.shape(a) == np.shape(b) == shape
        assert np.array_equal(a, np.broadcast_to(want_a, shape))
        assert np.array_equal(b, np.broadcast_to(want_b, shape))


def reference_su2_pairs(ax, ay, az, dt, coefficient=False):
    """The step pairs as they were built before `_pair` took k: both guards
    always, and the k*x products made before they are copied in."""
    ax = np.asarray(ax, dtype=float)
    ay = np.asarray(ay, dtype=float)
    az = np.asarray(az, dtype=float)
    half_dt = 0.5 * np.asarray(dt, dtype=float)
    omega = np.sqrt(ax * ax + ay * ay + az * az)
    theta = half_dt * omega
    t = np.tan(0.5 * theta)
    cos_t, sin_t = (1.0 - t * t) / (1.0 + t * t), 2.0 * t / (1.0 + t * t)
    moving = omega > 0.0
    k = np.where(moving, sin_t / np.where(moving, omega, 1.0), half_dt)
    x, y, z = k * ax, k * ay, k * az
    a = np.empty(np.broadcast(cos_t, z).shape, dtype=complex)
    a.real = cos_t
    np.subtract(0.0, z, out=a.imag)
    b = np.empty(np.broadcast(x, y).shape, dtype=complex)
    b.real = y
    np.subtract(0.0, x, out=b.imag)
    return ((a, b), k) if coefficient else (a, b)


def reference_su2_q(cos_t, k, omega2, dt):
    """q with the series and the exact branch both evaluated everywhere."""
    half_dt = 0.5 * np.asarray(dt, dtype=float)
    theta = half_dt * np.sqrt(omega2)
    return np.where(theta < 1e-3, -(half_dt ** 3) * (1.0 / 3.0 - theta * theta / 30.0),
                    (half_dt * cos_t - k) / np.where(omega2 > 0.0, omega2, 1.0))


def same_bits(got, want):
    """Equal shapes, dtypes and bytes: signed zeros and NaN payloads count."""
    got, want = np.asarray(got), np.asarray(want)
    return (got.shape == want.shape and got.dtype == want.dtype
            and np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes())


def su2_inputs():
    """(name, ax, ay, az, dt) cases for the pair builders."""
    rng = np.random.default_rng(12)
    amps = rng.uniform(-3e7, 3e7, (3, 2, 1, 9))
    amps[:, :, :, ::3] = 0.0                      # some steps without drive
    amps[1, 0, :, 1] = -0.0
    deltas = np.array([[0.0], [-0.0], [1.3e7], [-2.1e6]])   # (members, 1)
    zeros = np.zeros((2, 3, 5))
    return [
        ("rows-at-rest-mixed", amps[0], amps[1], deltas, DT),
        ("stack", amps[0], amps[1], deltas, np.array(DT)),
        ("no-row-at-rest", amps[0] + 1e3, amps[2] - 1e3, deltas + 5e5, DT),
        ("all-zero-at-zero-detuning", zeros, zeros, 0.0, DT),
        ("negative-zero-controls", -zeros, zeros, -0.0, DT),
        ("0-d", 2.5e6, -1.5e6, 0.0, DT),
        ("0-d-at-rest", 0.0, -0.0, 0.0, DT),
        ("nan-control", np.array([1e6, np.nan, 0.0]), 0.0, 0.0, DT),
        ("1-d", amps[2, 0, 0], amps[0, 1, 0], 3.3e5, DT),
        ("1-d-long-steps", amps[2, 0, 0], amps[0, 1, 0], 0.0, 2e-6),
        ("pulse-member-step", amps[:, :, None, 0, :], amps[:, None, :, 0, :],
         deltas[None, :2], DT),
    ]


@pytest.mark.parametrize("case", su2_inputs(), ids=lambda case: case[0])
@pytest.mark.parametrize("coefficient", (False, True))
def test_su2_pairs_equal_the_guarded_build_bit_for_bit(case, coefficient):
    _, ax, ay, az, dt = case
    got = _su2_pairs(ax, ay, az, dt, coefficient=coefficient)
    want = reference_su2_pairs(ax, ay, az, dt, coefficient=coefficient)
    if coefficient:
        (got, got_k), (want, want_k) = got, want
        assert same_bits(got_k, want_k)
    assert same_bits(got[0], want[0]) and same_bits(got[1], want[1])


@pytest.mark.parametrize("case", su2_inputs(), ids=lambda case: case[0])
def test_su2_q_equals_both_branches_bit_for_bit(case):
    _, ax, ay, az, dt = case
    (a, _), k = _su2_pairs(ax, ay, az, dt, coefficient=True)
    omega2 = np.asarray(ax) ** 2 + np.asarray(ay) ** 2 + np.asarray(az) ** 2
    assert same_bits(_su2_q(a.real, k, omega2, dt), reference_su2_q(a.real, k, omega2, dt))


@pytest.mark.parametrize("dt, series, exact", [
    (1e-12, True, False), (1e-9, True, True), (1e-5, False, True)],
    ids=("series-only", "both", "exact-only"))
def test_su2_q_on_both_sides_of_the_series_threshold(dt, series, exact):
    # rates from 1e3 to 1e7 rad/s put theta = rate * dt / 2 on either side of 1e-3
    rates = np.geomspace(1e3, 1e7, 41)
    theta = 0.5 * dt * rates
    assert ((theta < 1e-3).any(), (theta >= 1e-3).any()) == (series, exact)
    (a, _), k = _su2_pairs(rates, 0.0, 0.0, dt, coefficient=True)
    assert same_bits(_su2_q(a.real, k, rates ** 2, dt),
                     reference_su2_q(a.real, k, rates ** 2, dt))


@pytest.mark.parametrize("axis", (0, 1, 2), ids=("x", "y", "z"))
def test_half_angle_steps_match_libm(axis):
    # dt = 2 makes theta = |a| dt/2 the rate itself
    theta = np.concatenate([np.geomspace(1e-9, 1e6, 20001), [np.pi, 2.0 * np.pi],
                            np.nextafter(1e-3, [0.0, 1.0])])
    rates = [0.0, 0.0, 0.0]
    rates[axis] = theta
    (a, b), k = _su2_pairs(*rates, 2.0, coefficient=True)
    assert np.max(np.abs(a.real - np.cos(theta))) <= 4.5e-16
    assert np.max(np.abs(k * theta - np.sin(theta))) <= 4.5e-16
    assert np.max(np.abs(np.abs(a) ** 2 + np.abs(b) ** 2 - 1.0)) <= 1e-15


def reference_gradient(ens, i_amps, q_amps, dt):
    """The two-scan gradient of sum_s s |<1|U|0>|^2 over the members' goal
    signs s: exact dU/dax and dU/day pairs applied to the forward states from
    |0>, and costates from a scan of the reversed U^H steps from |1>."""
    ax = TWO_PI * np.asarray(i_amps)[None, :]
    ay = TWO_PI * np.asarray(q_amps)[None, :]
    az = TWO_PI * ens.deltas[:, None]
    half_dt = 0.5 * dt
    omega2 = ax * ax + ay * ay + az * az
    omega = np.sqrt(omega2)
    theta = half_dt * omega
    cos_t = np.cos(theta)
    with np.errstate(invalid="ignore", divide="ignore"):
        k = np.where(omega > 0.0, np.sin(theta) / np.where(omega > 0, omega, 1.0),
                     half_dt)
    q = np.where(theta < 1e-3, -(half_dt ** 3) * (1.0 / 3.0 - theta * theta / 30.0),
                 (half_dt * cos_t - k) / np.where(omega2 > 0.0, omega2, 1.0))

    def pair(c, x, y, z):
        return c - 1j * z, y - 1j * x

    a, b = pair(cos_t, k * ax, k * ay, k * az)
    du_dax = pair(-half_dt * k * ax, q * ax * ax + k, q * ax * ay, q * ax * az)
    du_day = pair(-half_dt * k * ay, q * ay * ax, q * ay * ay + k, q * ay * az)
    ones, zeros = np.ones((len(ens.deltas), 1)), np.zeros((len(ens.deltas), 1))
    kets, bras = (ones, zeros), (zeros, ones)

    forward = compose_pairs(*reference_scan(a, b), *kets)
    psi = [np.concatenate([kt, f[:, :-1]], axis=1) for kt, f in zip(kets, forward)]
    z = ens.signs * forward[1][:, -1]
    backward = compose_pairs(*reference_scan(a[:, :0:-1].conj(), -b[:, :0:-1]), *bras)
    chi = [np.concatenate([c[:, ::-1], br], axis=1).conj()
           for br, c in zip(bras, backward)]

    def dz(du):
        v0, v1 = compose_pairs(*du, *psi)
        return chi[0] * v0 + chi[1] * v1

    coeff = 2.0 * TWO_PI * ens.weight
    g_i = coeff * np.real(z.conj()[:, None] * dz(du_dax)).sum(axis=0)
    g_q = coeff * np.real(z.conj()[:, None] * dz(du_day)).sum(axis=0)
    return g_i, g_q


def forward_record(ens, i_amps, q_amps, dt):
    """The forward record the gradient reads, as the descent builds it."""
    record = []
    ens.transfer_means(i_amps, q_amps, dt, record)
    return record


def random_goals(rng, spins):
    """A goal sign per spin, -1 (target) or +1 (spectator), at random."""
    return rng.choice([-1.0, 1.0], spins)


@pytest.mark.parametrize("m", M_VALUES + (3000,))
@pytest.mark.parametrize("triplet", (True, False))
@pytest.mark.parametrize("spectators", (1, 4))
@pytest.mark.parametrize("random_signs", (False, True))
def test_gradient_matches_two_scan_reference(m, triplet, spectators, random_signs):
    rng = np.random.default_rng([m, triplet, spectators, random_signs])
    signs = rng.choice([-1.0, 1.0], spectators)
    idle = tuple(rng.uniform(0.3e6, 3e6, spectators) * signs)
    manifold = HyperfineManifold.triplet() if triplet else HyperfineManifold.triplet(0.0)
    if random_signs:
        # any mix of targets and spectators, each spin with its own goal
        ens = _Ensemble((0.0, *idle), manifold, random_goals(rng, 1 + spectators))
    else:
        ens = _Ensemble.for_scenario(ControlScenario(idle_detunings=idle,
                                                     manifold=manifold))
    i_amps, q_amps = random_pulse(rng, m)
    dt = 10e-6 / m
    want = np.concatenate(reference_gradient(ens, i_amps, q_amps, dt))
    got = np.concatenate(_objective_gradient(ens, i_amps, q_amps, dt, 0.0,
                                             forward_record(ens, i_amps, q_amps, dt)))
    # float64 rounding over a log-depth scan, set before measuring
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def reference_one_pass_gradient(ens, i_amps, q_amps, dt):
    """The one-scan gradient in one unblocked pass that builds its own steps,
    k and q and runs the recursive scan: the arithmetic the record-fed
    gradient must reproduce bit for bit."""
    ax = TWO_PI * np.asarray(i_amps, dtype=float)
    ay = TWO_PI * np.asarray(q_amps, dtype=float)
    az = TWO_PI * ens.deltas[:, None]
    half_dt = 0.5 * np.asarray(dt, dtype=float)
    omega2 = ax[None, :] * ax[None, :] + ay[None, :] * ay[None, :] + az * az
    omega = np.sqrt(omega2)
    theta = half_dt * omega
    t = np.tan(0.5 * theta)
    cos_t, sin_t = (1.0 - t * t) / (1.0 + t * t), 2.0 * t / (1.0 + t * t)
    moving = omega > 0.0
    k = np.where(moving, sin_t / np.where(moving, omega, 1.0), half_dt)
    a, b = _pair(cos_t, k * ax[None, :], k * ay[None, :], k * az)
    q = np.where(theta < 1e-3, -(half_dt ** 3) * (1.0 / 3.0 - theta * theta / 30.0),
                 (half_dt * cos_t - k) / np.where(omega2 > 0.0, omega2, 1.0))
    a, b = reference_scan(a, b)
    # psi_l = P_{l-1}|0> = (a, b)_{l-1}; the costate seed is U^H|1> = (b*, a)
    z = ens.signs * b[:, -1]
    c0, c1 = compose_pairs(a.conj(), b.conj(),
                           (z * b[:, -1].conj()).conj()[:, None], (z * a[:, -1]).conj()[:, None])
    n = len(ens.deltas)
    psi0 = np.concatenate([np.ones((n, 1)), a[:, :-1]], axis=1)
    psi1 = np.concatenate([np.zeros((n, 1)), b[:, :-1]], axis=1)
    u00, u11, u01, u10 = c0 * psi0, c1 * psi1, c0 * psi1, c1 * psi0
    r0, rz = u00.real + u11.real, u00.imag - u11.imag
    rx, ry = u01.imag + u10.imag, u10.real - u01.real
    t = (q * (ax * rx + ay * ry + az * rz) - (0.5 * dt) * k * r0).sum(axis=0)
    coeff = 2.0 * TWO_PI * ens.weight
    return (coeff * (ax * t + (k * rx).sum(axis=0)),
            coeff * (ay * t + (k * ry).sum(axis=0)))


@pytest.mark.parametrize("m", (1, 2, 7, 200))
@pytest.mark.parametrize("budget", (2 ** 14, 1000, 1))
@pytest.mark.parametrize("triplet", (True, False))
def test_record_fed_gradient_reproduces_one_pass_bit_for_bit(monkeypatch, m, budget,
                                                             triplet):
    rng = np.random.default_rng([m, budget, triplet])
    manifold = HyperfineManifold.triplet() if triplet else HyperfineManifold.triplet(0.0)
    ens = _Ensemble((0.0, *rng.uniform(-3e6, 3e6, 4)), manifold, random_goals(rng, 5))
    i_amps, q_amps = random_pulse(rng, m)
    want = reference_one_pass_gradient(ens, i_amps, q_amps, DT)
    monkeypatch.setattr(synthesis, "_BLOCK_MEMBER_STEPS", budget)
    got = _objective_gradient(ens, i_amps, q_amps, DT, 0.0,
                              forward_record(ens, i_amps, q_amps, DT))
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


def test_gradient_runs_one_scan(monkeypatch):
    calls = []

    def counting_scan(levels):
        calls.append(levels[0][0].shape)
        return _scan(levels)

    monkeypatch.setattr(synthesis, "_scan", counting_scan)
    rng = np.random.default_rng(5)
    ens = _Ensemble.for_scenario(ControlScenario(idle_detunings=(1.1e6, -0.7e6)))
    i_amps, q_amps = random_pulse(rng, 50)
    _objective_gradient(ens, i_amps, q_amps, DT, 0.0, forward_record(ens, i_amps, q_amps, DT))
    assert calls == [(len(ens.deltas), 50)]


def blocked_transfer_means(monkeypatch, ens, i_amps, q_amps, budget):
    """transfer_means under a member-step budget, with the (members, steps)
    shape of each block (`forward` call) it ran."""
    calls = []
    forward = _Ensemble.forward

    def counting_forward(self, *args):
        z, record = forward(self, *args)
        calls.append(record[1][0][0].shape)
        return z, record

    monkeypatch.setattr(synthesis, "_BLOCK_MEMBER_STEPS", budget)
    monkeypatch.setattr(_Ensemble, "forward", counting_forward)
    got = ens.transfer_means(i_amps, q_amps, DT)
    monkeypatch.undo()
    return got, calls


def mixed_ensemble(rng, spectators):
    """A spin at 0 and `spectators` more at random detunings, each with a
    random goal sign, all over the triplet."""
    detunings = (0.0, *rng.uniform(-3e6, 3e6, spectators))
    return _Ensemble(detunings, HyperfineManifold.triplet(),
                     random_goals(rng, 1 + spectators))


@pytest.mark.parametrize("m, budget, blocks", [
    (5, 61, 1),     # members x m = budget - 1: one block
    (5, 60, 1),     # members x m = budget: one block
    (5, 59, 2),     # members x m = budget + 1: blocks of 11 and 1 members
    (5, 17, 4),     # three members per block, none left over
    (7, 3, 12),     # m above the budget: one member per block
    (1, 5, 3),      # m = 1: blocks of 5, 5 and 2 members
])
def test_blocked_transfer_means_equal_one_block(monkeypatch, m, budget, blocks):
    rng = np.random.default_rng([m, budget])
    ens = mixed_ensemble(rng, 3)          # 4 spins x 3 members
    i_amps, q_amps = random_pulse(rng, m)
    whole, calls = blocked_transfer_means(monkeypatch, ens, i_amps, q_amps, 10**9)
    assert calls == [(12, m)]
    got, calls = blocked_transfer_means(monkeypatch, ens, i_amps, q_amps, budget)
    assert len(calls) == blocks and sum(shape[0] for shape in calls) == 12
    assert all(shape[1] == m for shape in calls)
    assert np.array_equal(got, whole)


def test_long_pulse_transfer_means_equal_one_block(monkeypatch):
    # the default budget at survey sizes: 225 members x 2000 steps
    rng = np.random.default_rng(7)
    ens = mixed_ensemble(rng, 74)
    i_amps, q_amps = random_pulse(rng, 2000)
    whole, _ = blocked_transfer_means(monkeypatch, ens, i_amps, q_amps, 10**9)
    got, calls = blocked_transfer_means(monkeypatch, ens, i_amps, q_amps,
                                        synthesis._BLOCK_MEMBER_STEPS)
    assert len(calls) > 1
    assert np.array_equal(got, whole)


@pytest.mark.parametrize("m", (1, 2, 7, 200, 2000))
@pytest.mark.parametrize("budget", (2 ** 14, 1000, 1))
def test_transfer_means_with_and_without_a_record_agree(monkeypatch, m, budget):
    # a block gives the same bits whether or not its record is kept
    rng = np.random.default_rng([m, budget, 3])
    ens = mixed_ensemble(rng, 3)
    i_amps, q_amps = rng.uniform(-5e6, 5e6, (2, 3, m))
    monkeypatch.setattr(synthesis, "_BLOCK_MEMBER_STEPS", budget)
    record = []
    kept = ens.transfer_means(i_amps, q_amps, DT, record)
    assert record and np.array_equal(ens.transfer_means(i_amps, q_amps, DT), kept)


def test_transfer_means_memory_stays_flat():
    # one (225 x 2000) step build takes 43.7 MB; blocks keep it near 1.5 MB,
    # and 2.6 MB when a block's product tree stays alive into the next block
    rng = np.random.default_rng(8)
    ens = _Ensemble.for_scenario(ControlScenario(
        idle_detunings=tuple(rng.uniform(0.5e6, 3e6, 74))))
    assert len(ens.deltas) == 225
    i_amps, q_amps = random_pulse(rng, 2000)
    ens.transfer_means(i_amps, q_amps, DT)
    tracemalloc.start()
    try:
        ens.transfer_means(i_amps, q_amps, DT)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2e6



@pytest.mark.parametrize("m", (1, 2, 7, 200))
@pytest.mark.parametrize("budget", (2 ** 14, 1000, 1))
@pytest.mark.parametrize("spectators", (1, 2, 3))
def test_stacked_pulses_equal_one_pulse_at_a_time(monkeypatch, m, budget, spectators):
    # a (P, m) stack gives each pulse's transfers and gradient bit for bit,
    # whatever blocks the stack and the single pulse are cut into
    rng = np.random.default_rng([m, budget, spectators])
    ens = mixed_ensemble(rng, spectators)
    i_amps, q_amps = rng.uniform(-5e6, 5e6, (2, 3, m))
    monkeypatch.setattr(synthesis, "_BLOCK_MEMBER_STEPS", budget)
    record = []
    transfers = ens.transfer_means(i_amps, q_amps, DT, record)
    grads = _objective_gradient(ens, i_amps, q_amps, DT, 0.0, record)
    assert transfers.shape == (3, 1 + spectators) and grads[0].shape == (3, m)
    for p in range(3):
        record = []
        assert np.array_equal(transfers[p], ens.transfer_means(i_amps[p], q_amps[p],
                                                               DT, record))
        want = _objective_gradient(ens, i_amps[p], q_amps[p], DT, 0.0, record)
        assert np.array_equal(grads[0][p], want[0]) and np.array_equal(grads[1][p], want[1])
