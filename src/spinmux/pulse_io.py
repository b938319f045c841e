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

# Rows are formatted and parsed in blocks of this many, so the temporary
# strings and floats of a long pulse stay small.
_BLOCK_ROWS = 512


def write_pulse(path, pulse: PulseProgram) -> None:
    """Write a pulse as CSV; one row per step."""
    i_amps, q_amps = pulse.amplitudes()
    t_ns = np.arange(1, len(i_amps) + 1) * pulse.dt * 1e9
    with open(path, "w", newline="") as fh:
        fh.write(PULSE_HEADER + "\n")
        for block in range(0, len(t_ns), _BLOCK_ROWS):
            rows = slice(block, block + _BLOCK_ROWS)
            fh.write("".join(f"{t:.17g},{i:.17g},{q:.17g}\n" for t, i, q in zip(
                t_ns[rows].tolist(), (i_amps[rows] * 1e-6).tolist(),
                (q_amps[rows] * 1e-6).tolist())))


def _parse_rows(lines):
    """Line numbers and (times, i_mhz, q_mhz) arrays of the non-blank data
    lines: float() on every value in bulk, or, when that fails, row by row
    to name the first bad line."""
    numbers = [n for n, line in enumerate(lines, start=1) if n > 1 and line.strip()]
    if not numbers:
        raise ParseError("no data rows", line=2)
    rows = [lines[n - 1] for n in numbers]
    if all(line.count(",") == 2 for line in rows):
        values = np.empty((len(rows), 3))
        try:
            for block in range(0, len(rows), _BLOCK_ROWS):
                fields = ",".join(rows[block:block + _BLOCK_ROWS]).split(",")
                values[block:block + _BLOCK_ROWS].flat = np.fromiter(
                    map(float, fields), float, len(fields))
            return numbers, values.T
        except ValueError:
            pass
    values = []
    for number, line in zip(numbers, rows):
        parts = line.split(",")
        if len(parts) != 3:
            raise ParseError("expected three comma-separated values", line=number)
        try:
            values.append([float(p) for p in parts])
        except ValueError:
            raise ParseError("non-numeric value", line=number) from None
    return numbers, np.array(values).T


def read_pulse(path) -> PulseProgram:
    """Parse a pulse CSV, checking the header, finite values and the time grid."""
    with open(path) as fh:
        lines = [line.rstrip("\n") for line in fh]
    if not lines or lines[0].strip() != PULSE_HEADER:
        raise ParseError(f'expected header "{PULSE_HEADER}"', line=1)
    numbers, (times, i_mhz, q_mhz) = _parse_rows(lines)
    bad = ~(np.isfinite(times) & np.isfinite(i_mhz) & np.isfinite(q_mhz))
    if bad.any():
        raise ParseError("non-finite value", line=numbers[np.argmax(bad)])
    bad = np.diff(times, prepend=-np.inf) <= 0
    if bad.any():
        raise ParseError("times must be strictly increasing",
                         line=numbers[np.argmax(bad)])
    dt_ns = times[-1] / len(times)
    deviation = np.abs(times - dt_ns * np.arange(1, len(times) + 1))
    if np.max(deviation) > _SPACING_TOL * times[-1]:
        raise ParseError("time grid is not uniformly spaced",
                         line=numbers[np.argmax(deviation)])

    return PulseProgram.from_arrays(i_mhz * 1e6, q_mhz * 1e6, dt_ns * 1e-9)
