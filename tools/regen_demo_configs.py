#!/usr/bin/env python3
"""Regenerate the bundled demo register configs.

The wire runs along the in-plane projection of the default dipole axis, so
the DC Zeeman shift vanishes directly above the crossing (u = 0) and grows
along +u.  The standoff depth is calibrated so the shift reaches 170 MHz at
u = 2 um with 150 mA of DC current.  The close-pair variant lowers the DC
current until the 0.4/1.0 um pair is split by 1.1 MHz, and puts the carrier
on the 0.4 um site's address.

    python tools/regen_demo_configs.py     # rewrites src/spinmux/data/demo_*.json
"""

import json
import math
import os

import numpy as np

from spinmux import (
    DipoleOrientation,
    FieldEnvironment,
    PhysicalConstants,
    SpinSite,
    WireDrive,
    WireGeometry,
    calibrate_wire,
    dipole_axis,
    field_sample,
    zeeman_shift,
)

DATA_DIR = os.path.join(os.path.dirname(__file__), "..", "src", "spinmux", "data")


def demo_configs():
    """The two demo config documents, keyed by file name without ".json"."""
    constants = PhysicalConstants()
    axis = dipole_axis(DipoleOrientation())
    direction = -np.array(
        [math.cos(math.radians(41.0)), math.sin(math.radians(41.0)), 0.0]
    )
    b_ext = (3.00e9 - constants.d_zfs) / constants.gamma_nv * axis

    env = FieldEnvironment(
        b_ext=b_ext,
        wire=WireGeometry(anchor=np.array([0.0, 0.0, -1e-6]), direction=direction),
        constants=constants,
    )
    wire = calibrate_wire(env, target_shift=1.7e8, at_u=2e-6, i_dc=0.15)
    env = FieldEnvironment(b_ext=b_ext, wire=wire, constants=constants)

    ref = SpinSite(id="nv-b", position=np.array([0.4e-6, 0.0, 0.0]))
    split_per_amp = zeeman_shift(env, 1.0, np.array([1.0e-6, 0.0, 0.0])) - \
        zeeman_shift(env, 1.0, np.array([0.4e-6, 0.0, 0.0]))
    i_dc_pair = 1.1e6 / split_per_amp
    # carrier for the 1.1 MHz regime sits on the target site's address
    pair_carrier = field_sample(env, WireDrive(i_dc=i_dc_pair, i_ac=0.0), ref).omega_plus

    shared = {
        "constants": {"d_zfs_ghz": 2.87, "gamma_nv_ghz_per_t": 28.03,
                      "hyperfine_mhz": 2.2},
        "environment": {
            "b_ext_mt": [v * 1e3 for v in b_ext],
            "wire": {
                "anchor_um": [0.0, 0.0, wire.anchor[2] * 1e6],
                "direction": [direction[0], direction[1], 0.0],
                "num_filaments": 1,
                "width_um": 0.0,
            },
        },
    }
    register = dict(shared)
    register["drive"] = {"i_dc_ma": 150.0, "carrier_ghz": 3.0}
    register["sites"] = [
        {"id": f"nv-{tag}", "position_um": [u, 0.0, 0.0]}
        for tag, u in zip("abcde", [0.0, 0.4, 1.0, 1.5, 2.0])
    ]
    pair = dict(shared)
    pair["drive"] = {"i_dc_ma": i_dc_pair * 1e3, "carrier_ghz": pair_carrier * 1e-9}
    pair["sites"] = [
        {"id": "nv-b", "position_um": [0.4, 0.0, 0.0]},
        {"id": "nv-c", "position_um": [1.0, 0.0, 0.0]},
    ]
    return {"demo_register": register, "demo_close_pair": pair}


def main():
    for name, doc in demo_configs().items():
        path = os.path.join(DATA_DIR, f"{name}.json")
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
        print("wrote", path)


if __name__ == "__main__":
    main()
