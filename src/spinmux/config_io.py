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

from .dynamics import DriveCarrier
from .errors import ParseError, ValidationError
from .fields import FieldEnvironment, WireDrive, WireGeometry
from .spins import (
    CoherenceParams,
    DipoleOrientation,
    HyperfineManifold,
    PhysicalConstants,
    SpinSite,
)


@dataclass(frozen=True)
class RegisterConfig:
    """A fully validated register: constants, fields, sites, default drive."""

    constants: PhysicalConstants
    environment: FieldEnvironment
    sites: tuple
    drive: WireDrive

    def site(self, site_id: str) -> SpinSite:
        for s in self.sites:
            if s.id == site_id:
                return s
        raise ValidationError(f"unknown site id {site_id!r}", field="sites")

    @property
    def manifold(self) -> HyperfineManifold:
        return HyperfineManifold.triplet(self.constants.hyperfine_splitting)


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


def _get(mapping, key, default, path, kind, scale=1.0):
    """A field's value: a number or 3-vector converted to SI by `scale`, or
    an integer count."""
    value = mapping.get(key, default)
    field = f"{path}.{key}"
    if value is None:
        raise ValidationError("missing required field", field=field)
    if kind == "integer":
        if not (_is_number(value) and float(value).is_integer()):
            raise ValidationError("expected an integer", field=field)
        return int(value)
    if kind == "number":
        if not _is_number(value):
            raise ValidationError("expected a finite number", field=field)
        # a GHz or MHz value near the float limit overflows in Hz
        if not math.isfinite(value * scale):
            raise ValidationError("too large to convert to SI units", field=field)
        return value * scale
    if not (isinstance(value, list) and len(value) == 3
            and all(_is_number(v) for v in value)):
        raise ValidationError("expected a list of 3 finite numbers", field=field)
    return np.asarray(value, dtype=float) * scale


def load_config(path) -> RegisterConfig:
    """Load and validate a register config, applying documented defaults."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", line=exc.lineno) from None
    if not isinstance(raw, dict):
        raise ValidationError("top level must be an object", field="$")

    for section in ("constants", "drive"):
        if section in raw and not isinstance(raw[section], dict):
            raise ValidationError("expected an object", field=section)

    c = raw.get("constants", {})
    try:
        constants = PhysicalConstants(
            d_zfs=_get(c, "d_zfs_ghz", 2.87, "constants", "number", 1e9),
            gamma_nv=_get(c, "gamma_nv_ghz_per_t", 28.03, "constants", "number",
                          1e9),
            hyperfine_splitting=_get(c, "hyperfine_mhz", 2.2, "constants", "number",
                                     1e6),
        )
    except ValueError as exc:
        raise ValidationError(str(exc), field="constants") from None

    env_raw = raw.get("environment")
    if not isinstance(env_raw, dict):
        raise ValidationError("missing required object", field="environment")
    wire_raw = env_raw.get("wire")
    if not isinstance(wire_raw, dict):
        raise ValidationError("missing required object", field="environment.wire")
    direction = _get(wire_raw, "direction", None, "environment.wire", "vector")
    norm = float(np.linalg.norm(direction))
    if norm < 1e-12:
        raise ValidationError("direction must be non-zero",
                              field="environment.wire.direction")
    try:
        wire = WireGeometry(
            anchor=_get(wire_raw, "anchor_um", None, "environment.wire", "vector",
                        1e-6),
            direction=direction / norm,
            num_filaments=_get(wire_raw, "num_filaments", 1, "environment.wire",
                               "integer"),
            width=_get(wire_raw, "width_um", 0.0, "environment.wire", "number", 1e-6),
        )
    except ValueError as exc:
        raise ValidationError(str(exc), field="environment.wire") from None
    try:
        environment = FieldEnvironment(
            b_ext=_get(env_raw, "b_ext_mt", None, "environment", "vector", 1e-3),
            wire=wire,
            constants=constants,
        )
    except ValueError as exc:
        raise ValidationError(str(exc), field="environment") from None

    d = raw.get("drive", {})
    try:
        carrier = DriveCarrier(
            omega_mw=_get(d, "carrier_ghz", 2.87, "drive", "number", 1e9))
        drive = WireDrive(
            i_dc=_get(d, "i_dc_ma", 0.0, "drive", "number", 1e-3),
            i_ac=_get(d, "i_ac_ma", 0.0, "drive", "number", 1e-3),
            carrier=carrier,
        )
    except ValueError as exc:
        raise ValidationError(str(exc), field="drive") from None

    sites_raw = raw.get("sites")
    if not isinstance(sites_raw, list) or not sites_raw:
        raise ValidationError("need a non-empty site list", field="sites")
    sites = []
    seen = set()
    for k, s in enumerate(sites_raw):
        path_k = f"sites[{k}]"
        if not isinstance(s, dict):
            raise ValidationError("expected an object", field=path_k)
        site_id = s.get("id")
        if not isinstance(site_id, str) or not site_id:
            raise ValidationError("missing site id", field=f"{path_k}.id")
        if site_id in seen:
            raise ValidationError(f"duplicate site id {site_id!r}",
                                  field=f"{path_k}.id")
        seen.add(site_id)
        theta_w = _get(s, "theta_w_deg", 54.7, path_k, "number")
        theta_u = _get(s, "theta_u_deg", 41.0, path_k, "number")
        if not 0.0 <= theta_w <= 180.0:
            raise ValidationError(
                f"theta_w {theta_w} outside [0, 180] degrees",
                field=f"{path_k}.theta_w_deg",
            )
        if not -180.0 <= theta_u <= 180.0:
            raise ValidationError(
                f"theta_u {theta_u} outside [-180, 180] degrees",
                field=f"{path_k}.theta_u_deg",
            )
        try:
            sites.append(
                SpinSite(
                    id=site_id,
                    position=_get(s, "position_um", None, path_k, "vector", 1e-6),
                    orientation=DipoleOrientation(theta_w=theta_w, theta_u=theta_u),
                    coherence=CoherenceParams(
                        t2_star=_get(s, "t2_star_us", 1.7, path_k, "number", 1e-6),
                        t2=_get(s, "t2_us", 150.0, path_k, "number", 1e-6),
                    ),
                )
            )
        except ValueError as exc:
            raise ValidationError(str(exc), field=path_k) from None

    return RegisterConfig(constants=constants, environment=environment,
                          sites=tuple(sites), drive=drive)
