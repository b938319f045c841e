"""Property tests of the physics invariants over random inputs.

Examples are derandomized and not stored, so every run checks the same cases.
"""

import dataclasses
import json
import math
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import spinmux.cli as cli
from spinmux import (
    ControlScenario,
    HyperfineManifold,
    ParseError,
    PulseProgram,
    QubitState,
    ValidationError,
    WireDrive,
    address_map,
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
from spinmux.synthesis import _Ensemble, _objective_gradient

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
    manifold = HyperfineManifold.triplet() if triplet else HyperfineManifold.triplet(0.0)
    scen = ControlScenario(idle_detunings=tuple(idle), manifold=manifold)

    def f(iv, qv):
        return cost(PulseProgram.from_arrays(iv, qv, pulse.dt), scen, 0.0).f

    assert_central_differences(pulse, gradient(pulse, scen, 0.0), f)


def assert_central_differences(pulse, grads, f):
    """Each entry of the (dI, dQ) gradient `grads` against the central
    difference of f(I, Q) with h = 64 Hz."""
    i_amps, q_amps = pulse.amplitudes()
    g_i, g_q = grads
    h = 64.0
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


@PROPERTY
@given(pulse=pulses(min_m=2, max_m=10, max_amp=5e6),
       targets=st.lists(st.floats(-5e6, 5e6), min_size=1, max_size=3),
       idle=st.lists(SPECTATOR, min_size=0, max_size=3),
       triplet=st.booleans())
def test_gradient_matches_central_differences_for_several_targets(pulse, targets, idle,
                                                                  triplet):
    # f = sum over targets of (1 - eps) plus sum over spectators of eps, so
    # both goal signs meet the finite differences, in any mix
    manifold = HyperfineManifold.triplet() if triplet else HyperfineManifold.triplet(0.0)
    signs = [-1.0] * len(targets) + [1.0] * len(idle)
    ens = _Ensemble((*targets, *idle), manifold, signs)
    i_amps, q_amps = pulse.amplitudes()
    record = []
    ens.transfer_means(i_amps, q_amps, pulse.dt, record)

    def f(iv, qv):
        return len(targets) + float(np.dot(signs, ens.transfer_means(iv, qv, pulse.dt)))

    assert_central_differences(
        pulse, _objective_gradient(ens, i_amps, q_amps, pulse.dt, 0.0, record), f)


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
    sites = {s.id: s for s in cfg.sites}
    assert [r[0] for r in rows] == sorted(sites)
    for site_id, eps in rows:
        delta = (field_sample(cfg.environment, cfg.drive, sites[site_id]).omega_plus
                 - cfg.carrier)
        expected = state_error(evolve(read_back, delta), ground)
        assert abs(float(eps) - expected) <= 1e-12


DEMO = json.loads(Path(demo_config_path()).read_text())

# negative, fractional, huge, tiny, out-of-range and non-finite numbers, with
# integers beyond float range
NUMBERS = st.one_of(
    st.sampled_from([0, -0.0, -1, -0.5, 0.5, 2.7, 181.0, -181.0, 1e300, -1e300,
                     1.7e308, 1e-300, 10 ** 400, -(10 ** 400), float("nan"),
                     float("inf"), float("-inf")]),
    st.integers(),
    st.floats(),
)
OTHER_TYPES = st.one_of(
    st.booleans(),
    st.none(),
    st.text(max_size=4),
    st.lists(NUMBERS, max_size=4),
    st.dictionaries(st.text(max_size=3), NUMBERS, max_size=2),
)


def _paths(node, prefix=()):
    """Every key and list index path in a JSON document."""
    children = (node.items() if isinstance(node, dict)
                else enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _is_plain_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


@st.composite
def mutated_configs(draw):
    """The demo register after 1-3 mutations: a number replaced by an awkward
    one (twice as likely as the rest), a key or list entry dropped, a value of
    another type, or an empty list or object."""
    doc = json.loads(json.dumps(DEMO))
    for _ in range(draw(st.integers(1, 3))):
        parents = {}
        for path in _paths(doc):
            node = doc
            for p in path[:-1]:
                node = node[p]
            parents[path] = node
        if not parents:
            break
        kind = draw(st.sampled_from(["number", "number", "drop", "type", "empty"]))
        # a number is drawn field first, so the entries of 3-vectors do not
        # crowd out the scalar fields
        numeric = {}
        for p, node in parents.items():
            if _is_plain_number(node[p[-1]]):
                field = p[:-1] if isinstance(node, list) else p
                numeric.setdefault(field, []).append(p)
        if kind == "number" and numeric:
            path = draw(st.sampled_from(numeric[draw(st.sampled_from(list(numeric)))]))
        else:
            path = draw(st.sampled_from(list(parents)))
        parent, key = parents[path], path[-1]
        old = parent[key]
        if kind == "drop":
            del parent[key]
        elif kind == "number":
            scaled = ([-old, old + 0.5, old * 1e300, old * 1e-300]
                      if _is_plain_number(old) and abs(old) <= 1e300 else [0])
            parent[key] = draw(st.one_of(st.sampled_from(scaled), NUMBERS))
        elif kind == "type":
            parent[key] = draw(OTHER_TYPES)
        else:
            parent[key] = draw(st.sampled_from([[], {}]))
    return doc


def _finite(value):
    """True when every number held by a loaded config is finite."""
    if dataclasses.is_dataclass(value):
        return all(_finite(getattr(value, f.name)) for f in dataclasses.fields(value))
    if isinstance(value, tuple):
        return all(map(_finite, value))
    if isinstance(value, np.ndarray):
        return bool(np.all(np.isfinite(value)))
    if _is_plain_number(value):
        return math.isfinite(value)
    return True


@pytest.fixture(scope="module")
def config_file(tmp_path_factory):
    return tmp_path_factory.mktemp("mutated") / "config.json"


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(doc=mutated_configs())
def test_random_configs_load_or_name_the_field(config_file, doc):
    # a config either loads, holding only finite numbers, or stops with an
    # error that names the field or line
    config_file.write_text(json.dumps(doc))
    try:
        cfg = load_config(config_file)
    except ValidationError as exc:
        assert exc.field
    except ParseError as exc:
        assert exc.line
    else:
        assert _finite(cfg)


@PROPERTY
@given(carrier_ghz=st.floats(2.98, 3.19),
       sites=st.permutations([site["id"] for site in DEMO["sites"]]),
       pulse=pulses(max_m=12))
def test_cost_and_simulate_pulse_share_one_frame(carrier_ghz, sites, pulse):
    # with the carrier anywhere among the demo register's addresses, the cost of
    # the scenario optimize and sweep build is what simulate pulse reports
    doc = json.loads(json.dumps(DEMO))
    doc["drive"]["carrier_ghz"] = carrier_ghz
    with tempfile.TemporaryDirectory() as tmp:
        config, pulse_path, out = (Path(tmp) / name
                                   for name in ("config.json", "pulse.csv", "eps.csv"))
        config.write_text(json.dumps(doc))
        write_pulse(pulse_path, pulse)
        assert cli.main(["simulate", "pulse", "--config", str(config),
                         "--pulse", str(pulse_path), "--out", str(out)]) == 0
        cfg, read_back = load_config(config), read_pulse(pulse_path)
        eps = {site: float(e) for site, e in
               (line.split(",") for line in out.read_text().splitlines()[1:])}
    target, idle = sites[:2]
    parts = cost(read_back, cli._scenario_from_config(cfg, target, [idle]), 0.0)
    assert abs(parts.eps_i - eps[target]) <= 1e-12
    assert abs(parts.eps_j[0] - eps[idle]) <= 1e-12


REGISTER = load_config(demo_config_path())


@PROPERTY
@given(sign=st.sampled_from([-1.0, 1.0]), exponent=st.floats(-3.0, 308.0))
@example(sign=1.0, exponent=8.9)       # the largest address 9.0e14 Hz
@example(sign=-1.0, exponent=9.0)      # the largest address just past 1e15 Hz
def test_every_address_is_within_the_ceiling_or_names_i_dc(sign, exponent):
    # a DC current of either sign, 1e-3 to 1e308 mA: the one field pass gives
    # the demo register's addresses within 1e15 Hz or refuses them, never warning
    drive = WireDrive(i_dc=sign * 10.0 ** exponent * 1e-3, i_ac=0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            entries = address_map(REGISTER.environment, drive, REGISTER.sites).entries
        except ValueError as exc:
            assert str(exc) == f"address beyond 1e+15 Hz at i_dc={drive.i_dc:g} A"
        else:
            assert all(abs(e.omega_plus) <= 1e15 for e in entries)
