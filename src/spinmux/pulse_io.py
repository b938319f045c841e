"""Pulse waveform files, CSV with header "t_ns,i_mhz,q_mhz", and the one CSV
writer behind them and every CLI table.

The time column holds the elapsed time at the end of each step, so the last
row equals the pulse duration and the first row equals the step length.
Numbers are written with 17 significant digits, which makes write/read round
trips lossless for float64.
"""

from __future__ import annotations

import numpy as np

from .dynamics import SI_CEILING, PulseProgram
from .errors import ParseError

PULSE_HEADER = "t_ns,i_mhz,q_mhz"

# Allowed relative wobble of the time grid around perfect uniformity.
_SPACING_TOL = 1e-6

# Rows are formatted in blocks of this many, so the temporary strings of a
# long pulse stay small.
_BLOCK_ROWS = 512


def write_csv(path, header, columns) -> None:
    """Write equal-length columns as CSV under `header`: a column of str as
    it is, numbers with 17 significant digits ("%.17g"), formatted in blocks
    of _BLOCK_ROWS rows.  Every table spinmux writes goes through here, so a
    NaN in a numeric column (not inf) raises ValueError before any write."""
    text = [len(column) > 0 and isinstance(column[0], str) for column in columns]
    line = ",".join("%s" if is_text else "%.17g" for is_text in text) + "\n"
    width = len(columns)
    cells = [None] * (width * len(columns[0]))     # row-major
    for j, (column, is_text) in enumerate(zip(columns, text)):
        if not is_text and np.isnan(column := np.asarray(column, dtype=float)).any():
            raise ValueError(f"{path}: column {header.split(',')[j]!r} holds NaN")
        cells[j::width] = column if is_text else column.tolist()
    with open(path, "w", newline="") as fh:
        fh.write(header + "\n")
        for start in range(0, len(cells), _BLOCK_ROWS * width):
            block = cells[start:start + _BLOCK_ROWS * width]
            fh.write(line * (len(block) // width) % tuple(block))


def write_pulse(path, pulse: PulseProgram) -> None:
    """Write a pulse as CSV; one row per step."""
    i_amps, q_amps = pulse.amplitudes()
    t_ns = np.arange(1, len(i_amps) + 1) * pulse.dt * 1e9
    write_csv(path, PULSE_HEADER, (t_ns, i_amps * 1e-6, q_amps * 1e-6))


def _line_numbers(lines):
    """Line numbers of the non-blank data lines, worked out for error messages."""
    return [n for n, line in enumerate(lines, start=1) if n > 1 and line.strip()]


def _parse_rows(lines):
    """(times, i_mhz, q_mhz) arrays of the non-blank data lines: numpy's reader
    in one pass, or, when it refuses them or finds other than three columns,
    float() row by row, which names the first bad line.  That pass strips each
    value first, so padding by the separators \\x1c-\\x1f, which numpy's reader
    skips and float() alone refuses, parses either way."""
    rows = list(filter(str.strip, lines[1:]))
    if not rows:
        raise ParseError("no data rows", line=2)
    try:
        values = np.loadtxt(rows, delimiter=",", comments=None, ndmin=2)
        if values.shape[1] == 3:
            return values.T
    except ValueError:
        pass
    values = []
    for number, line in zip(_line_numbers(lines), rows):
        parts = line.split(",")
        if len(parts) != 3:
            raise ParseError("expected three comma-separated values", line=number)
        try:
            values.append([float(p.strip()) for p in parts])
        except ValueError:
            raise ParseError("non-numeric value", line=number) from None
    return np.array(values).T


def read_pulse(path) -> PulseProgram:
    """Parse a pulse CSV, checking the header, finite values, the grid and SI_CEILING."""
    with open(path) as fh:
        lines = fh.read().split("\n")
    if lines[0].strip() != PULSE_HEADER:
        raise ParseError(f'expected header "{PULSE_HEADER}"', line=1)
    times, i_mhz, q_mhz = _parse_rows(lines)
    bad = ~(np.isfinite(times) & np.isfinite(i_mhz) & np.isfinite(q_mhz))
    if bad.any():
        raise ParseError("non-finite value", line=_line_numbers(lines)[np.argmax(bad)])
    bad = np.maximum(np.abs(i_mhz), np.abs(q_mhz)) > SI_CEILING * 1e-6
    if bad.any():
        raise ParseError(f"amplitude beyond {SI_CEILING * 1e-6:g} MHz",
                         line=_line_numbers(lines)[np.argmax(bad)])
    bad = np.diff(times, prepend=-np.inf) <= 0
    if bad.any():
        raise ParseError("times must be strictly increasing",
                         line=_line_numbers(lines)[np.argmax(bad)])
    dt_ns = times[-1] / len(times)
    deviation = np.abs(times - dt_ns * np.arange(1, len(times) + 1))
    if np.max(deviation) > _SPACING_TOL * times[-1]:
        raise ParseError("time grid is not uniformly spaced",
                         line=_line_numbers(lines)[np.argmax(deviation)])
    if dt_ns * 1e-9 > SI_CEILING:
        raise ParseError(f"step longer than {SI_CEILING:g} s", line=_line_numbers(lines)[0])

    return PulseProgram.from_arrays(i_mhz * 1e6, q_mhz * 1e6, dt_ns * 1e-9)
