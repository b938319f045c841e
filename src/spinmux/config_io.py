"""Register configuration files.

Configs are JSON with units spelled out in the field names (positions in um,
currents in mA, frequencies in GHz/MHz); everything is converted to SI here at
the boundary and validated against the core type invariants, reporting the
offending field path on failure.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .errors import ParseError, ValidationError
from .fields import MAX_FILAMENTS, FieldEnvironment, WireDrive, WireGeometry
from .spins import DipoleOrientation, HyperfineManifold, PhysicalConstants, SpinSite

_LIBRARY = object()     # an absent optional key: its field keeps the library default


@dataclass(frozen=True)
class RegisterConfig:
    """A fully validated register: fields, sites, default drive, carrier (Hz)."""

    environment: FieldEnvironment
    sites: tuple
    drive: WireDrive
    carrier: float

    @property
    def manifold(self) -> HyperfineManifold:
        return HyperfineManifold.triplet(self.environment.constants.hyperfine_splitting)


def demo_config_path(name: str = "demo_register") -> str:
    """Filesystem path of a bundled demo configuration."""
    return str(resources.files("spinmux.data").joinpath(f"{name}.json"))


def _is_number(value) -> bool:
    """A JSON number that fits a finite float; booleans and NaN/Infinity do
    not count."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        return False


def _get(mapping, key, default, path, kind, scale=1.0, bounds=None):
    """Remove a field from `mapping` and return its value (absent: `default`,
    None if required, _LIBRARY as is): a 3-vector, a number converted to SI by
    `scale` or an integer count, either within `bounds` (lo, hi) before scaling."""
    value = mapping.pop(key, default)
    field = f"{path}.{key}"
    if value is None:
        raise ValidationError("missing required field", field=field)
    if value is _LIBRARY:
        return value
    if kind == "vector":
        if not (isinstance(value, list) and len(value) == 3
                and all(_is_number(v) for v in value)):
            raise ValidationError("expected a list of 3 finite numbers", field=field)
        return np.asarray(value, dtype=float) * scale
    if kind == "integer" and not (_is_number(value) and float(value).is_integer()):
        raise ValidationError("expected an integer", field=field)
    if not _is_number(value):
        raise ValidationError("expected a finite number", field=field)
    if bounds is not None and not bounds[0] <= value <= bounds[1]:
        raise ValidationError(f"{value:g} outside [{bounds[0]:g}, {bounds[1]:g}]",
                              field=field)
    if kind == "integer":
        return int(value)
    # a GHz or MHz value near the float limit overflows in Hz
    if not math.isfinite(value * scale):
        raise ValidationError("too large to convert to SI units", field=field)
    return value * scale


def _object(mapping, key, path, required=False):
    """Pop the object at `key` as a copy for `_get` to empty; default empty."""
    if required and key not in mapping:
        raise ValidationError("missing required object", field=path)
    value = mapping.pop(key, {})
    if not isinstance(value, dict):
        raise ValidationError("expected an object", field=path)
    return dict(value)


def _no_unknown_keys(mapping, path):
    """Reject whatever `_get` left in `mapping`: keys that no field reads."""
    if mapping:
        key = next(iter(mapping))
        raise ValidationError("unknown field", field=f"{path}.{key}" if path else key)


def _build(kind, mapping, path, **fields):
    """`kind(**fields)` of the fields `_get` read out of `mapping`, _LIBRARY ones
    left out.  A ValueError of the constructor becomes a ValidationError naming
    `path`, and so does a key left in `mapping`, which no field read."""
    try:
        value = kind(**{name: v for name, v in fields.items() if v is not _LIBRARY})
    except ValueError as exc:
        raise ValidationError(str(exc), field=path) from None
    _no_unknown_keys(mapping, path)
    return value


def load_config(path) -> RegisterConfig:
    """Load and validate a register config, applying documented defaults; a
    key that no field reads, such as a misspelled one, is a ValidationError."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", line=exc.lineno) from None
    if not isinstance(raw, dict):
        raise ValidationError("top level must be an object", field="$")
    raw = dict(raw)

    c = _object(raw, "constants", "constants")
    constants = _build(
        PhysicalConstants, c, "constants",
        d_zfs=_get(c, "d_zfs_ghz", _LIBRARY, "constants", "number", 1e9),
        gamma_nv=_get(c, "gamma_nv_ghz_per_t", _LIBRARY, "constants", "number", 1e9),
        hyperfine_splitting=_get(c, "hyperfine_mhz", _LIBRARY, "constants", "number", 1e6))

    env_raw = _object(raw, "environment", "environment", required=True)
    wire_raw = _object(env_raw, "wire", "environment.wire", required=True)
    direction = _get(wire_raw, "direction", None, "environment.wire", "vector")
    norm = math.hypot(*direction)  # no overflow for finite components
    if norm < 1e-12:
        raise ValidationError("direction must be non-zero",
                              field="environment.wire.direction")
    wire = _build(
        WireGeometry, wire_raw, "environment.wire",
        anchor=_get(wire_raw, "anchor_um", None, "environment.wire", "vector", 1e-6),
        direction=direction / norm,
        num_filaments=_get(wire_raw, "num_filaments", _LIBRARY, "environment.wire",
                           "integer", bounds=(1, MAX_FILAMENTS)),
        width=_get(wire_raw, "width_um", _LIBRARY, "environment.wire", "number", 1e-6))
    environment = _build(
        FieldEnvironment, env_raw, "environment",
        b_ext=_get(env_raw, "b_ext_mt", None, "environment", "vector", 1e-3),
        wire=wire, constants=constants)

    d = _object(raw, "drive", "drive")
    drive = WireDrive(i_dc=_get(d, "i_dc_ma", 0.0, "drive", "number", 1e-3), i_ac=0.0)
    carrier = _get(d, "carrier_ghz", 2.87, "drive", "number", 1e9)
    if carrier <= 0:
        raise ValidationError("carrier frequency must be positive",
                              field="drive.carrier_ghz")
    _no_unknown_keys(d, "drive")

    sites_raw = raw.pop("sites", None)
    if not isinstance(sites_raw, list) or not sites_raw:
        raise ValidationError("need a non-empty site list", field="sites")
    sites = []
    seen = set()
    for k, s in enumerate(sites_raw):
        path_k = f"sites[{k}]"
        if not isinstance(s, dict):
            raise ValidationError("expected an object", field=path_k)
        s = dict(s)
        site_id = s.pop("id", None)
        if not isinstance(site_id, str) or not site_id:
            raise ValidationError("missing site id", field=f"{path_k}.id")
        if site_id in seen:
            raise ValidationError(f"duplicate site id {site_id!r}",
                                  field=f"{path_k}.id")
        seen.add(site_id)
        # the orientation reads the site's own object, whose keys the site checks
        sites.append(_build(
            SpinSite, s, path_k, id=site_id,
            position=_get(s, "position_um", None, path_k, "vector", 1e-6),
            orientation=_build(
                DipoleOrientation, {}, path_k,
                theta_w=_get(s, "theta_w_deg", _LIBRARY, path_k, "number",
                             bounds=(0.0, 180.0)),
                theta_u=_get(s, "theta_u_deg", _LIBRARY, path_k, "number",
                             bounds=(-180.0, 180.0))),
            t2_star=_get(s, "t2_star_us", _LIBRARY, path_k, "number", 1e-6)))
    _no_unknown_keys(raw, "")

    return RegisterConfig(environment=environment, sites=tuple(sites), drive=drive,
                          carrier=carrier)
