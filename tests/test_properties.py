"""Property tests of the physics invariants over random inputs.

Examples are derandomized and not stored, so every run checks the same cases.
"""

import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spinmux.cli as cli
from spinmux import (
    ControlScenario,
    HyperfineManifold,
    PulseProgram,
    QubitState,
    cost,
    crosstalk_bound,
    demo_config_path,
    evolve,
    field_sample,
    gradient,
    load_config,
    read_pulse,
    rect_pi_pulse,
    state_error,
    write_pulse,
)

PROPERTY = settings(max_examples=30, deadline=None, derandomize=True, database=None)


@st.composite
def pulses(draw, min_m=1, max_m=60, max_amp=1e7):
    m = draw(st.integers(min_m, max_m))
    amps = st.floats(-max_amp, max_amp, allow_nan=False)
    i_amps = draw(st.lists(amps, min_size=m, max_size=m))
    q_amps = draw(st.lists(amps, min_size=m, max_size=m))
    dt = draw(st.floats(1e-9, 1e-7))
    return PulseProgram.from_arrays(i_amps, q_amps, dt)


@PROPERTY
@given(pulse=pulses(max_m=200), delta=st.floats(-5e7, 5e7))
def test_step_products_stay_unitary(pulse, delta):
    u = evolve(pulse, delta).matrix
    assert np.max(np.abs(u.conj().T @ u - np.eye(2))) <= 1e-10


@PROPERTY
@given(rabi=st.floats(1e5, 1e7), ratio=st.floats(0.02, 0.99),
       sign=st.sampled_from([-1.0, 1.0]), m=st.integers(1, 12))
def test_rectangular_pulses_stay_under_the_crosstalk_bound(rabi, ratio, sign, m):
    delta = sign * rabi / ratio
    eps = state_error(evolve(rect_pi_pulse(rabi, m), delta), QubitState.ground())
    assert eps <= crosstalk_bound(rabi, delta) + 1e-12


# spectator detunings keep clear of the target so the scenario stays valid
SPECTATOR = st.floats(0.3e6, 5e6).flatmap(
    lambda d: st.sampled_from([d, -d]))


@PROPERTY
@given(pulse=pulses(min_m=2, max_m=10, max_amp=5e6),
       idle=st.lists(SPECTATOR, min_size=1, max_size=4),
       triplet=st.booleans())
def test_gradient_matches_central_differences(pulse, idle, triplet):
    # h = 64 Hz as in the acceptance suite: rounding noise of the oracle stays
    # near 1e-17 and its O(h^2) truncation below that
    manifold = HyperfineManifold.triplet() if triplet else HyperfineManifold.disabled()
    scen = ControlScenario(idle_detunings=tuple(idle), manifold=manifold)
    g_i, g_q = gradient(pulse, scen, 0.0)
    i_amps, q_amps = pulse.amplitudes()
    h = 64.0

    def f(iv, qv):
        return cost(PulseProgram.from_arrays(iv, qv, pulse.dt), scen, 0.0).f

    for l in range(len(i_amps)):
        for grad, amps, other, first in ((g_i, i_amps, q_amps, True),
                                         (g_q, q_amps, i_amps, False)):
            up, dn = amps.copy(), amps.copy()
            up[l] += h
            dn[l] -= h
            f_up = f(up, other) if first else f(other, up)
            f_dn = f(dn, other) if first else f(other, dn)
            fd = (f_up - f_dn) / (2 * h)
            assert abs(grad[l] - fd) <= 1e-5 * abs(fd) + 1e-12


@pytest.fixture(scope="module")
def no_hyperfine_config(tmp_path_factory):
    doc = json.loads(Path(demo_config_path()).read_text())
    doc["constants"]["hyperfine_mhz"] = 0
    path = tmp_path_factory.mktemp("config") / "no_hyperfine.json"
    path.write_text(json.dumps(doc))
    return str(path)


@PROPERTY
@given(pulse=pulses(max_m=40, max_amp=2e7))
def test_simulate_pulse_without_hyperfine_is_single_member_evolve(
        no_hyperfine_config, pulse):
    cfg = load_config(no_hyperfine_config)
    ground = QubitState.ground()
    with tempfile.TemporaryDirectory() as tmp:
        pulse_path, out = Path(tmp) / "pulse.csv", Path(tmp) / "eps.csv"
        write_pulse(pulse_path, pulse)
        code = cli.main(["simulate", "pulse", "--config", no_hyperfine_config,
                         "--pulse", str(pulse_path), "--out", str(out)])
        assert code == 0
        read_back = read_pulse(pulse_path)
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert [r[0] for r in rows] == sorted(s.id for s in cfg.sites)
    for site_id, eps in rows:
        delta = (field_sample(cfg.environment, cfg.drive, cfg.site(site_id)).omega_plus
                 - cfg.drive.carrier.omega_mw)
        expected = state_error(evolve(read_back, delta), ground)
        assert abs(float(eps) - expected) <= 1e-12
