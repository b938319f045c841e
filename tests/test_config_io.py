import importlib.util
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from spinmux import (
    ParseError,
    ValidationError,
    WireDrive,
    address_map,
    calibrate_wire,
    field_sample,
    load_config,
)
from spinmux.fields import MAX_FILAMENTS, WireGeometry
from spinmux.spins import DipoleOrientation, PhysicalConstants, SpinSite

MINIMAL = {
    "environment": {
        "b_ext_mt": [0.0, 0.0, 3.0],
        "wire": {"anchor_um": [0.0, 0.0, -1.0], "direction": [0.0, 1.0, 0.0]},
    },
    "sites": [{"id": "q0", "position_um": [0.5, 0.0, 0.0]}],
}


def write_config(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


class TestLoadConfig:
    def test_minimal_config_gets_defaults(self, tmp_path):
        cfg = load_config(write_config(tmp_path, MINIMAL))
        constants = cfg.environment.constants
        assert constants.d_zfs == 2.87e9
        assert constants.gamma_nv == 2.803e10
        assert constants.hyperfine_splitting == pytest.approx(2.2e6)
        site = cfg.sites[0]
        assert site.orientation.theta_w == 54.7
        assert site.orientation.theta_u == 41.0
        assert site.t2_star == pytest.approx(1.7e-6)
        assert cfg.drive.i_dc == 0.0
        assert cfg.drive.i_ac == 0.0
        assert cfg.carrier == pytest.approx(2.87e9)
        assert np.allclose(cfg.environment.b_ext, [0.0, 0.0, 3e-3])

    def test_absent_optional_keys_give_exactly_the_library_defaults(self, tmp_path):
        # the config used to restate each default in its own units, and
        # 1.7 * 1e-6 is one ulp below the site's t2_star of 1.7e-6
        cfg = load_config(write_config(tmp_path, MINIMAL))
        wire, [site] = cfg.environment.wire, cfg.sites
        assert cfg.environment.constants == PhysicalConstants()
        assert (wire.num_filaments, wire.width) == (WireGeometry.num_filaments,
                                                    WireGeometry.width)
        assert site.orientation == DipoleOrientation()
        assert site.t2_star == SpinSite("q", np.zeros(3)).t2_star == 1.7e-6

    def test_duplicate_site_id_names_the_id(self, tmp_path):
        doc = dict(MINIMAL)
        doc["sites"] = [{"id": "q0", "position_um": [0, 0, 0]},
                        {"id": "q0", "position_um": [1, 0, 0]}]
        with pytest.raises(ValidationError) as err:
            load_config(write_config(tmp_path, doc))
        assert "q0" in str(err.value)

    def test_theta_w_out_of_range_cites_bounds(self, tmp_path):
        doc = dict(MINIMAL)
        doc["sites"] = [{"id": "q0", "position_um": [0, 0, 0],
                         "theta_w_deg": 200.0}]
        with pytest.raises(ValidationError) as err:
            load_config(write_config(tmp_path, doc))
        assert "[0, 180]" in str(err.value)
        assert "theta_w" in str(err.value)

    def test_malformed_json_is_a_parse_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"environment": ')
        with pytest.raises(ParseError):
            load_config(path)

    def test_missing_environment_is_a_validation_error(self, tmp_path):
        with pytest.raises(ValidationError) as err:
            load_config(write_config(tmp_path, {"sites": MINIMAL["sites"]}))
        assert "environment" in str(err.value)

    def test_non_positive_t2_star_reports_site(self, tmp_path):
        for t2_star in (0.0, -1.0):
            doc = dict(MINIMAL)
            doc["sites"] = [{"id": "q0", "position_um": [0, 0, 0],
                             "t2_star_us": t2_star}]
            with pytest.raises(ValidationError) as err:
                load_config(write_config(tmp_path, doc))
            assert "sites[0]" in str(err.value)

    @pytest.mark.parametrize("path, key, field", [
        # a misspelled unit used to load as the 0 mA default
        (("drive",), "i_dc_mA", "drive.i_dc_mA"),
        # fields that were parsed but reached no output
        (("drive",), "i_ac_ma", "drive.i_ac_ma"),
        (("sites", 0), "t2_us", "sites[0].t2_us"),
        ((), "site", "site"),
        (("constants",), "d_zfs", "constants.d_zfs"),
        (("environment",), "b_ext", "environment.b_ext"),
        (("environment", "wire"), "anchor", "environment.wire.anchor"),
    ], ids=["typo", "i_ac_ma", "t2_us", "top", "constants", "environment", "wire"])
    def test_unknown_key_names_the_field(self, tmp_path, path, key, field):
        doc = json.loads(json.dumps(MINIMAL))
        node = doc
        for step in path:
            node = node[step] if isinstance(node, list) else node.setdefault(step, {})
        node[key] = 1.0
        with pytest.raises(ValidationError) as err:
            load_config(write_config(tmp_path, doc))
        assert err.value.field == field

    def test_filament_count_above_the_cap_names_the_field(self, tmp_path):
        doc = json.loads(json.dumps(MINIMAL))
        doc["environment"]["wire"].update(num_filaments=1e15, width_um=1.0)
        with pytest.raises(ValidationError) as err:
            load_config(write_config(tmp_path, doc))
        assert err.value.field == "environment.wire.num_filaments"
        doc["environment"]["wire"]["num_filaments"] = MAX_FILAMENTS
        wire = load_config(write_config(tmp_path, doc)).environment.wire
        assert wire.num_filaments == MAX_FILAMENTS

    @pytest.mark.parametrize("section, key, value, field", [
        ("drive", "i_dc_ma", float("nan"), "drive.i_dc_ma"),
        # a deleted field is rejected as unknown, still under its own name
        ("drive", "i_ac_ma", True, "drive.i_ac_ma"),
        ("drive", "carrier_ghz", True, "drive.carrier_ghz"),
        ("drive", "carrier_ghz", float("inf"), "drive.carrier_ghz"),
        ("constants", "hyperfine_mhz", float("-inf"), "constants.hyperfine_mhz"),
        ("sites", "position_um", [float("inf"), 0, 0], "sites[0].position_um"),
        ("sites", "t2_star_us", False, "sites[0].t2_star_us"),
        ("environment", "b_ext_mt", [0, float("nan"), 3], "environment.b_ext_mt"),
    ])
    def test_non_finite_and_boolean_numbers_name_the_field(self, tmp_path, section,
                                                           key, value, field):
        doc = json.loads(json.dumps(MINIMAL))
        target = {"sites": lambda d: d["sites"][0],
                  "environment": lambda d: d["environment"]}.get(
            section, lambda d: d.setdefault(section, {}))(doc)
        target[key] = value
        with pytest.raises(ValidationError) as err:
            load_config(write_config(tmp_path, doc))
        assert err.value.field == field

    @pytest.mark.parametrize("count", [2.7, 0.5, -1.5, 1e-300])
    def test_fractional_filament_count_names_the_field(self, tmp_path, count):
        doc = json.loads(json.dumps(MINIMAL))
        doc["environment"]["wire"].update(num_filaments=count, width_um=1.0)
        with pytest.raises(ValidationError) as err:
            load_config(write_config(tmp_path, doc))
        assert err.value.field == "environment.wire.num_filaments"

    @pytest.mark.parametrize("wire, message", [
        ({"width_um": -1}, "width must be >= 0"),
        ({"num_filaments": 2, "width_um": 0}, "zero-width wire must have exactly one"),
    ], ids=["negative-width", "filaments-without-width"])
    def test_wire_geometry_errors_name_the_wire(self, tmp_path, wire, message):
        doc = json.loads(json.dumps(MINIMAL))
        doc["environment"]["wire"].update(wire)
        with pytest.raises(ValidationError, match=message) as err:
            load_config(write_config(tmp_path, doc))
        assert err.value.field == "environment.wire"

    def test_site_with_every_field_loads(self, tmp_path):
        # the orientation's fields share the site's object, and no key of it
        # is called unknown before the site has read them all
        doc = json.loads(json.dumps(MINIMAL))
        doc["sites"][0].update(theta_w_deg=30.0, theta_u_deg=-20.0, t2_star_us=2.5)
        [site] = load_config(write_config(tmp_path, doc)).sites
        assert (site.orientation.theta_w, site.orientation.theta_u) == (30.0, -20.0)
        assert site.t2_star == pytest.approx(2.5e-6)
        doc["sites"][0]["theta_w"] = 30.0
        with pytest.raises(ValidationError) as err:
            load_config(write_config(tmp_path, doc))
        assert err.value.field == "sites[0].theta_w"

    def test_integer_valued_filament_count_loads(self, tmp_path):
        doc = json.loads(json.dumps(MINIMAL))
        doc["environment"]["wire"].update(num_filaments=3.0, width_um=1.0)
        wire = load_config(write_config(tmp_path, doc)).environment.wire
        assert wire.num_filaments == 3 and isinstance(wire.num_filaments, int)

    @pytest.mark.parametrize("path, value, field", [
        # integers beyond the float range used to raise a bare OverflowError
        (("drive", "i_dc_ma"), 10 ** 400, "drive.i_dc_ma"),
        (("environment", "wire", "num_filaments"), 10 ** 400,
         "environment.wire.num_filaments"),
        # finite in GHz or MHz but infinite in Hz used to load as inf
        (("constants", "d_zfs_ghz"), 1e300, "constants.d_zfs_ghz"),
        (("constants", "hyperfine_mhz"), 1.7e308, "constants.hyperfine_mhz"),
        (("drive", "carrier_ghz"), 1e300, "drive.carrier_ghz"),
    ], ids=["i_dc_int", "num_filaments_int", "d_zfs", "hyperfine", "carrier"])
    def test_numbers_beyond_float_range_name_the_field(self, tmp_path, path, value,
                                                       field):
        doc = json.loads(json.dumps(MINIMAL))
        node = doc
        for key in path[:-1]:
            node = node.setdefault(key, {})
        node[path[-1]] = value
        with pytest.raises(ValidationError) as err:
            load_config(write_config(tmp_path, doc))
        assert err.value.field == field

    def test_huge_direction_component_loads_without_overflow(self, tmp_path):
        # a plain norm of this finite direction overflows to inf, which would
        # divide it to a zero vector and fail the load as "must be unit-norm"
        doc = json.loads(json.dumps(MINIMAL))
        doc["environment"]["wire"]["direction"] = [-7.5e299, -0.656, 0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            wire = load_config(write_config(tmp_path, doc)).environment.wire
        assert wire.direction[0] == -1.0

    def test_zero_hyperfine_disables_the_triplet(self, tmp_path):
        doc = dict(MINIMAL, constants={"hyperfine_mhz": 0})
        cfg = load_config(write_config(tmp_path, doc))
        assert cfg.environment.constants.hyperfine_splitting == 0.0
        assert cfg.manifold.splitting == 0.0

    def test_negative_hyperfine_rejected(self, tmp_path):
        doc = dict(MINIMAL, constants={"hyperfine_mhz": -1.0})
        with pytest.raises(ValidationError) as err:
            load_config(write_config(tmp_path, doc))
        assert err.value.field == "constants"


class TestDemoConfigs:
    def test_demo_register_loads(self, demo_config):
        cfg = load_config(demo_config)
        assert [s.id for s in cfg.sites] == ["nv-a", "nv-b", "nv-c", "nv-d", "nv-e"]
        assert cfg.drive.i_dc == pytest.approx(0.15)
        assert cfg.carrier == pytest.approx(3.0e9)

    def test_demo_wire_depth_matches_fresh_calibration(self, demo_config):
        # the bundled depth was produced by calibrate_wire at 170 MHz @ 2 um
        cfg = load_config(demo_config)
        wire = calibrate_wire(cfg.environment, target_shift=1.7e8, at_u=2e-6,
                              i_dc=0.15)
        assert wire.anchor[2] == pytest.approx(cfg.environment.wire.anchor[2],
                                               abs=1e-12)

    def test_demo_reference_site_sits_at_3ghz(self, demo_config):
        cfg = load_config(demo_config)
        [site] = [s for s in cfg.sites if s.id == "nv-b"]
        sample = field_sample(cfg.environment, WireDrive(i_dc=0.0, i_ac=0.0), site)
        assert sample.omega_plus == pytest.approx(3.00e9, abs=1.0)

    def test_demo_shift_moves_reference_site_to_3p06_ghz(self, demo_config):
        # with the full 150 mA bias the reference site lands near 3.06 GHz
        cfg = load_config(demo_config)
        [site] = [s for s in cfg.sites if s.id == "nv-b"]
        sample = field_sample(cfg.environment, cfg.drive, site)
        assert sample.omega_plus == pytest.approx(3.0608e9, rel=1e-3)

    def test_close_pair_split_by_1p1_mhz(self, close_pair_config):
        cfg = load_config(close_pair_config)
        amap = address_map(cfg.environment, cfg.drive, cfg.sites)
        freqs = {e.site_id: e.omega_plus for e in amap.entries}
        assert freqs["nv-c"] - freqs["nv-b"] == pytest.approx(1.1e6, rel=1e-6)

    def test_demos_match_their_generator(self, demo_config, close_pair_config):
        # the bundled files are what tools/regen_demo_configs.py writes, up to
        # the last bits of the wire-depth search
        tool = Path(__file__).resolve().parents[1] / "tools" / "regen_demo_configs.py"
        spec = importlib.util.spec_from_file_location("regen_demo_configs", tool)
        regen = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(regen)

        def assert_same(got, want, where):
            if isinstance(want, dict):
                assert isinstance(got, dict) and got.keys() == want.keys(), where
                for key in want:
                    assert_same(got[key], want[key], f"{where}.{key}")
            elif isinstance(want, list):
                assert isinstance(got, list) and len(got) == len(want), where
                for k, (g, w) in enumerate(zip(got, want)):
                    assert_same(g, w, f"{where}[{k}]")
            elif isinstance(want, str):
                assert got == want, where
            else:
                assert math.isclose(got, want, rel_tol=1e-9), where

        generated = regen.demo_configs()
        assert generated.keys() == {"demo_register", "demo_close_pair"}
        for name, path in (("demo_register", demo_config),
                           ("demo_close_pair", close_pair_config)):
            assert_same(generated[name], json.loads(Path(path).read_text()), name)
