"""Pulse waveform files: CSV with header "t_ns,i_mhz,q_mhz".

The time column holds the elapsed time at the end of each step, so the last
row equals the pulse duration and the first row equals the step length.
Amplitudes are stored in MHz with 17 significant digits, which makes
write/read round trips lossless for float64.
"""

from __future__ import annotations

import numpy as np

from .dynamics import PulseProgram
from .errors import ParseError

PULSE_HEADER = "t_ns,i_mhz,q_mhz"

# Allowed relative wobble of the time grid around perfect uniformity.
_SPACING_TOL = 1e-6


def write_pulse(path, pulse: PulseProgram) -> None:
    """Write a pulse as CSV; one row per step."""
    i_amps, q_amps = pulse.amplitudes()
    with open(path, "w", newline="") as fh:
        fh.write(PULSE_HEADER + "\n")
        for k, (i, q) in enumerate(zip(i_amps, q_amps), start=1):
            t_ns = k * pulse.dt * 1e9
            fh.write(f"{t_ns:.17g},{i * 1e-6:.17g},{q * 1e-6:.17g}\n")


def _row_line(lines, row) -> int:
    """File line number of data row `row` (from 0), skipping blank lines."""
    return [n for n, line in enumerate(lines, start=1) if n > 1 and line.strip()][row]


def read_pulse(path) -> PulseProgram:
    """Parse a pulse CSV, checking the header, finite values and the time grid."""
    with open(path) as fh:
        lines = [line.rstrip("\n") for line in fh]
    if not lines or lines[0].strip() != PULSE_HEADER:
        raise ParseError(f'expected header "{PULSE_HEADER}"', line=1)
    times, i_mhz, q_mhz = [], [], []
    for number, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 3:
            raise ParseError("expected three comma-separated values", line=number)
        try:
            t, i, q = (float(p) for p in parts)
        except ValueError:
            raise ParseError("non-numeric value", line=number) from None
        times.append(t)
        i_mhz.append(i)
        q_mhz.append(q)
    if not times:
        raise ParseError("no data rows", line=2)

    times, i_mhz, q_mhz = np.asarray(times), np.asarray(i_mhz), np.asarray(q_mhz)
    bad = ~(np.isfinite(times) & np.isfinite(i_mhz) & np.isfinite(q_mhz))
    if bad.any():
        raise ParseError("non-finite value", line=_row_line(lines, np.argmax(bad)))
    bad = np.diff(times, prepend=-np.inf) <= 0
    if bad.any():
        raise ParseError("times must be strictly increasing",
                         line=_row_line(lines, np.argmax(bad)))
    dt_ns = times[-1] / len(times)
    deviation = np.abs(times - dt_ns * np.arange(1, len(times) + 1))
    if np.max(deviation) > _SPACING_TOL * times[-1]:
        raise ParseError("time grid is not uniformly spaced",
                         line=_row_line(lines, np.argmax(deviation)))

    return PulseProgram.from_arrays(i_mhz * 1e6, q_mhz * 1e6, dt_ns * 1e-9)
