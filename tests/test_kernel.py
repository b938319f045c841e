"""The pair kernel (tree product and prefix scan) against a stepwise 2x2 loop."""

import numpy as np
import pytest

from spinmux import ControlScenario, PulseProgram, evolve, step_propagator
from spinmux.dynamics import TWO_PI, _compose, _matrix, _product, _scan, _su2_pairs
from spinmux.synthesis import _Ensemble

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


M_VALUES = (1, 2, 3, 7, 200, 1001)


@pytest.mark.parametrize("m", M_VALUES)
def test_shared_pulse_per_member_detunings(m):
    # one pulse, one member per detuning: the ensemble's (members, steps) case
    rng = np.random.default_rng(m)
    i_amps, q_amps = random_pulse(rng, m)
    deltas = np.array([-2.2e6, 0.0, 1.1e6, 3.3e6])
    a, b = _su2_pairs(TWO_PI * i_amps[None, :], TWO_PI * q_amps[None, :],
                      TWO_PI * deltas[:, None], DT)
    assert a.shape == b.shape == (len(deltas), m)
    final = as_matrices(*_product(a, b))
    prefixes = as_matrices(*_scan(a, b))
    for n, delta in enumerate(deltas):
        ref = stepwise_prefixes(i_amps, q_amps, delta)
        assert np.max(np.abs(prefixes[n] - ref)) <= 1e-12
        assert np.max(np.abs(final[n] - ref[-1])) <= 1e-12


@pytest.mark.parametrize("m", M_VALUES)
def test_one_pulse_without_member_axis(m):
    rng = np.random.default_rng(100 + m)
    i_amps, q_amps = random_pulse(rng, m)
    ref = stepwise_prefixes(i_amps, q_amps, 1.3e6)
    a, b = _su2_pairs(TWO_PI * i_amps, TWO_PI * q_amps, TWO_PI * 1.3e6, DT)
    assert np.max(np.abs(_matrix(*_product(a, b)) - ref[-1])) <= 1e-12
    assert np.max(np.abs(as_matrices(*_scan(a, b)) - ref)) <= 1e-12
    u = evolve(PulseProgram.from_arrays(i_amps, q_amps, DT), 1.3e6).matrix
    assert np.max(np.abs(u - ref[-1])) <= 1e-12


@pytest.mark.parametrize("m", (1, 2, 7, 200))
def test_distinct_pulse_per_member(m):
    rng = np.random.default_rng(200 + m)
    pulses = [random_pulse(rng, m) for _ in range(3)]
    deltas = np.array([0.5e6, -1.5e6, 2.5e6])
    i_amps = np.array([p[0] for p in pulses])
    q_amps = np.array([p[1] for p in pulses])
    a, b = _su2_pairs(TWO_PI * i_amps, TWO_PI * q_amps, TWO_PI * deltas[:, None], DT)
    final, prefixes = as_matrices(*_product(a, b)), as_matrices(*_scan(a, b))
    for n, ((i_n, q_n), delta) in enumerate(zip(pulses, deltas)):
        ref = stepwise_prefixes(i_n, q_n, delta)
        assert np.max(np.abs(prefixes[n] - ref)) <= 1e-12
        assert np.max(np.abs(final[n] - ref[-1])) <= 1e-12


def test_compose_applies_a_pair_to_kets():
    rng = np.random.default_rng(3)
    a, b = _su2_pairs(*rng.uniform(-1e7, 1e7, (3, 5)), DT)
    kets = rng.normal(size=(2, 5)) + 1j * rng.normal(size=(2, 5))
    got = np.array(_compose(a, b, *kets))
    want = np.einsum("nij,jn->in", as_matrices(a, b), kets)
    assert np.max(np.abs(got - want)) <= 1e-15


def test_scan_of_an_empty_axis_is_empty():
    a = np.ones((2, 0), dtype=complex)
    sa, sb = _scan(a, np.zeros_like(a))
    assert sa.shape == sb.shape == (2, 0)


@pytest.mark.parametrize("m", (1, 3, 200))
def test_transfer_means_match_stepwise_loop(m):
    rng = np.random.default_rng(300 + m)
    i_amps, q_amps = random_pulse(rng, m)
    scenario = ControlScenario(idle_detunings=(1.1e6, -0.7e6))
    ens = _Ensemble.for_scenario(scenario)
    per_member = []
    for delta, bra, ket in zip(ens.deltas, ens.bras, ens.kets):
        u = stepwise_prefixes(i_amps, q_amps, delta)[-1]
        per_member.append(abs(np.vdot(bra, u @ ket)) ** 2)
    want = np.array(per_member).reshape(ens.num_spins, -1).mean(axis=1)
    got = ens.transfer_means(i_amps, q_amps, DT)
    assert np.max(np.abs(got - want)) <= 1e-12
