import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinmux import ParseError, PulseProgram, read_pulse, rect_pi_pulse, write_pulse
from spinmux.pulse_io import _BLOCK_ROWS, _line_numbers, _parse_rows, write_csv


def reference_write_csv(path, header, rows):
    """The per-row formatter the CLI tables were written with before they
    went through `write_csv`."""
    def fmt(x):
        return f"{float(x):.17g}"

    with open(path, "w", newline="") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(fmt(v) if not isinstance(v, str) else v for v in row) + "\n")


class TestWriteCsv:
    @pytest.mark.parametrize("n", (0, 1, _BLOCK_ROWS, _BLOCK_ROWS + 1))
    @pytest.mark.parametrize("text", (False, True), ids=("numbers", "text-column"))
    def test_matches_the_row_formatter(self, tmp_path, n, text):
        rng = np.random.default_rng(n)
        values = rng.uniform(-1.0, 1.0, (3, n)) * 10.0 ** rng.integers(-30, 30, (3, n))
        # crosstalk writes inf at its target; signed zeros, tiny and subnormal values
        special = [math.inf, -0.0, 1e-300, 0.0, -math.inf, -1e-300, 5e-324]
        for k, value in enumerate(special[:n]):
            values[k % 3, k] = value
        columns = [values[0], values[1].tolist(), values[2]]
        if text:
            columns.insert(1, [f"nv-{k}" for k in range(n)])
        header = ",".join(f"c{j}" for j in range(len(columns)))
        write_csv(tmp_path / "got.csv", header, columns)
        reference_write_csv(tmp_path / "want.csv", header, zip(*columns))
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()

    def test_nan_raises_naming_path_and_column_before_writing(self, tmp_path):
        path = tmp_path / "t.csv"
        with pytest.raises(ValueError) as info:
            write_csv(path, "site,eps,bound", (["a", "b"], [0.5, math.nan], [math.inf, 1.0]))
        assert str(info.value) == f"{path}: column 'eps' holds NaN"
        assert not path.exists()


class TestRoundTrip:
    def test_three_row_constant_pulse(self, tmp_path):
        path = tmp_path / "p.csv"
        pulse = PulseProgram.from_arrays([2e6, 2e6, 2e6], [0.0, 0.0, 0.0], 10e-9)
        write_pulse(path, pulse)
        back = read_pulse(path)
        assert back.dt == pytest.approx(10e-9, rel=1e-12)
        assert np.array_equal(back.amplitudes()[0], pulse.amplitudes()[0])
        assert np.array_equal(back.amplitudes()[1], pulse.amplitudes()[1])

    def test_amplitudes_survive_within_micro_hz(self, tmp_path):
        # 17 significant digits make the decimal text exact; the only loss is
        # the one-ulp Hz<->MHz unit conversion, far inside the 1e-9 MHz budget
        rng = np.random.default_rng(17)
        pulse = PulseProgram.from_arrays(rng.uniform(-1e7, 1e7, 50),
                                         rng.uniform(-1e7, 1e7, 50), 37.5e-9)
        path = tmp_path / "p.csv"
        write_pulse(path, pulse)
        back = read_pulse(path)
        for got, want in zip(back.amplitudes(), pulse.amplitudes()):
            assert np.max(np.abs(got - want)) <= 1e-3  # 1e-9 MHz in Hz

    @pytest.mark.parametrize("m", (1, 511, 512, 513, 1100, 3000))
    def test_long_pulse_matches_row_by_row_text(self, tmp_path, m):
        # the per-row writer and parser, as references for the blocked ones
        rng = np.random.default_rng(m)
        i_amps, q_amps = rng.uniform(-1e7, 1e7, m), rng.uniform(-1e7, 1e7, m)
        i_amps[::7], q_amps[::5] = 0.0, -0.0     # signed zeros print as 0 and -0
        pulse = PulseProgram.from_arrays(i_amps, q_amps, 3.3e-9)
        rows = [f"{k * pulse.dt * 1e9:.17g},{i * 1e-6:.17g},{q * 1e-6:.17g}"
                for k, (i, q) in enumerate(zip(pulse.i_amps, pulse.q_amps), start=1)]
        path = tmp_path / "p.csv"
        write_pulse(path, pulse)
        assert path.read_bytes() == ("t_ns,i_mhz,q_mhz\n"
                                     + "".join(r + "\n" for r in rows)).encode()
        want = np.array([[float(v) for v in r.split(",")] for r in rows])
        back = read_pulse(path)
        assert np.array_equal(back.i_amps, want[:, 1] * 1e6)
        assert np.array_equal(back.q_amps, want[:, 2] * 1e6)

    def test_single_step_pulse(self, tmp_path):
        path = tmp_path / "p.csv"
        write_pulse(path, PulseProgram.from_arrays([5e6], [-1e6], 80e-9))
        back = read_pulse(path)
        assert len(back.steps) == 1
        assert back.dt == pytest.approx(80e-9, rel=1e-12)

    def test_rect_pi_pulse_file_shape(self, tmp_path):
        path = tmp_path / "pi.csv"
        write_pulse(path, rect_pi_pulse(7.5e6, m=10))
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "t_ns,i_mhz,q_mhz"
        assert len(lines) == 11  # header + 10 rows
        for line in lines[1:]:
            _, i_mhz, q_mhz = line.split(",")
            assert float(i_mhz) == pytest.approx(7.5, rel=1e-12)
            assert float(q_mhz) == 0.0
        # last time stamp is the pi duration
        assert float(lines[-1].split(",")[0]) == pytest.approx(66.67, rel=1e-3)


class TestParseErrors:
    def test_wrong_header(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("time,i,q\n1.0,0.0,0.0\n")
        with pytest.raises(ParseError) as err:
            read_pulse(path)
        assert err.value.line == 1

    def test_non_uniform_spacing(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("t_ns,i_mhz,q_mhz\n10,1,0\n20,1,0\n35,1,0\n")
        with pytest.raises(ParseError):
            read_pulse(path)

    def test_non_increasing_times(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("t_ns,i_mhz,q_mhz\n10,1,0\n10,1,0\n")
        with pytest.raises(ParseError):
            read_pulse(path)

    def test_bad_number_reports_line(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("t_ns,i_mhz,q_mhz\n10,1,0\n20,oops,0\n")
        with pytest.raises(ParseError) as err:
            read_pulse(path)
        assert err.value.line == 3

    def test_wrong_column_count(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("t_ns,i_mhz,q_mhz\n10,1\n")
        with pytest.raises(ParseError) as err:
            read_pulse(path)
        assert err.value.line == 2

    def test_empty_body(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("t_ns,i_mhz,q_mhz\n")
        with pytest.raises(ParseError):
            read_pulse(path)

    @pytest.mark.parametrize("body, line", [
        ("10,1,0\n20,nan,0\n30,1,0\n", 3),
        ("10,1,0\n20,1,inf\n30,1,0\n", 3),
        ("10,1,0\n20,1,0\nnan,1,0\n", 4),
    ], ids=["i", "q", "last-time"])
    def test_non_finite_value_reports_line(self, tmp_path, body, line):
        path = tmp_path / "p.csv"
        path.write_text("t_ns,i_mhz,q_mhz\n" + body)
        with pytest.raises(ParseError) as err:
            read_pulse(path)
        assert err.value.line == line

    def test_lines_are_counted_across_blank_lines(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("t_ns,i_mhz,q_mhz\n\n10,1,0\n\n20,1,0\n20,1,0\n")
        with pytest.raises(ParseError) as err:
            read_pulse(path)
        assert err.value.line == 6
        assert "increasing" in str(err.value)

    @pytest.mark.parametrize("body, line, message", [
        ("10,1\n20,1,0,0\n", 2, "three comma-separated"),   # counts that sum to 6
        ("10,1,0\n\n\n20,1,0,0\n30,1\n", 5, "three comma-separated"),
        ("10,1,0\n\n20,1,0\n30,1,x\n40,1\n", 5, "non-numeric"),
        ("10,1,0\n20, ,0\n", 3, "non-numeric"),
        ("\n  \n\t\n", 2, "no data rows"),
        ("10,1,0\n\n \n20,nan,0\n", 5, "non-finite"),
        ("\n10,1,0\n\n20,1,0\n\t\n20,1,0\n", 7, "increasing"),
        ("10,1,0\n\n20,1,0\n \n35,1,0\n", 4, "uniformly spaced"),
        ("\n\n10,1,0\n20,1\n", 5, "three comma-separated"),
    ], ids=["compensating-counts", "after-blanks", "bad-value-first", "blank-value",
            "only-blanks", "non-finite-after-blanks", "increasing-after-blanks",
            "spacing-after-blanks", "count-after-leading-blanks"])
    def test_first_bad_row_is_named(self, tmp_path, body, line, message):
        path = tmp_path / "p.csv"
        path.write_text("t_ns,i_mhz,q_mhz\n" + body)
        with pytest.raises(ParseError, match=message) as err:
            read_pulse(path)
        assert err.value.line == line

    @pytest.mark.parametrize("body, line, message", [
        ("10,1,0\n20,-1.000001e9,0\n30,1,0\n", 3, "amplitude beyond 1e+09 MHz"),
        ("10,1,0\n\n20,1,1e300\n", 4, "amplitude beyond 1e+09 MHz"),
        ("2e24,1,0\n4e24,1,0\n", 2, "step longer than 1e+15 s"),
    ], ids=["i", "q", "step"])
    def test_beyond_the_ceiling_reports_line(self, tmp_path, body, line, message):
        # such files used to overflow in the step builder, with numpy warnings
        path = tmp_path / "p.csv"
        path.write_text("t_ns,i_mhz,q_mhz\n" + body)
        with pytest.raises(ParseError) as err:
            read_pulse(path)
        assert str(err.value) == f"line {line}: {message}"

    def test_a_pulse_at_the_ceiling_reads(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("t_ns,i_mhz,q_mhz\n1e24,1e9,-1e9\n2e24,-1e9,1e9\n")
        pulse = read_pulse(path)
        assert pulse.dt == 1e15
        assert np.abs(pulse.amplitudes()).max() == 1e15

    def test_values_match_float_per_field(self, tmp_path):
        # padding, signs, exponents and underscores parse as float() does
        rows = [" 10 ,+1.5e0, -0", "20,1_000.25,\t3e-7 ", "30.0,-0.0,1E2\r"]
        path = tmp_path / "p.csv"
        path.write_text("t_ns,i_mhz,q_mhz\n" + "\n".join(rows) + "\n")
        back = read_pulse(path)
        want = np.array([[float(v) for v in row.split(",")] for row in rows])
        assert np.array_equal(back.i_amps, want[:, 1] * 1e6)
        assert np.array_equal(back.q_amps, want[:, 2] * 1e6)
        assert back.dt == want[-1, 0] / 3 * 1e-9


def reference_parse_rows(lines):
    """The data-row parser before numpy's reader: float() on every value, in
    blocks of 512 rows when every row has two commas, else row by row to name
    the first bad line."""
    rows = list(filter(str.strip, lines[1:]))
    if not rows:
        raise ParseError("no data rows", line=2)
    if [row.count(",") for row in rows].count(2) == len(rows):
        values = np.empty((len(rows), 3))
        try:
            for block in range(0, len(rows), 512):
                fields = ",".join(rows[block:block + 512]).split(",")
                values[block:block + 512].flat = np.fromiter(map(float, fields), float,
                                                              len(fields))
            return values.T
        except ValueError:
            pass
    values = []
    for number, line in zip(_line_numbers(lines), rows):
        parts = line.split(",")
        if len(parts) != 3:
            raise ParseError("expected three comma-separated values", line=number)
        try:
            values.append([float(p) for p in parts])
        except ValueError:
            raise ParseError("non-numeric value", line=number) from None
    return np.array(values).T


# numbers as write_csv and people write them, and cells float() reads but numpy
# does not ("1_0", a full-width digit), or neither does
CELLS = st.tuples(
    st.sampled_from(["", "", " ", "\t", "\r"]),
    st.one_of(st.floats().map(repr), st.floats(-1e3, 1e3).map("{:.17g}".format),
              st.integers(-10**6, 10**6).map(str),
              st.sampled_from(["1_0", "\uff11", "x", "", "1e400", "-0", ".5", "+2."])),
    st.sampled_from(["", "", " ", "\r"]),
).map("".join)


@st.composite
def pulse_texts(draw):
    """A header and up to 12 lines: blank ones, and rows of one to four cells,
    of one width throughout (1, 3 or 4) unless the file is ragged."""
    width, ragged = draw(st.sampled_from([1, 3, 3, 4])), draw(st.booleans())
    lines = ["t_ns,i_mhz,q_mhz"]
    for _ in range(draw(st.integers(0, 12))):
        if draw(st.integers(0, 4)) == 0:
            lines.append(draw(st.sampled_from(["", " ", "\r", "\t "])))
        else:
            n = draw(st.integers(1, 4)) if ragged else width
            lines.append(",".join(draw(st.lists(CELLS, min_size=n, max_size=n))))
    return "\n".join(lines)


def parse_outcome(parse, lines):
    """The arrays' shape and bytes, or the ParseError's line and message."""
    try:
        values = parse(lines)
    except ParseError as exc:
        return exc.line, str(exc)
    return values.shape, np.ascontiguousarray(values).tobytes()


class TestNumpyReader:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(text=pulse_texts())
    def test_same_arrays_or_error_line_as_the_float_parser(self, text):
        lines = text.split("\n")
        assert parse_outcome(_parse_rows, lines) == parse_outcome(reference_parse_rows,
                                                                  lines)

    @pytest.mark.parametrize("last", ["30,1,0", "3_0,1,0"], ids=["numpy", "row-by-row"])
    def test_separator_padding_parses_in_either_pass(self, last):
        # numpy's reader skips \x1c-\x1f around a value, as str.strip does, and
        # so does the row-by-row pass that "3_0" sends the file to; float()
        # alone refuses them
        lines = ["t_ns,i_mhz,q_mhz", "10,\x1c1,0\x1f", "20,1\x1d,\x1e0", last]
        times, i_mhz, q_mhz = _parse_rows(lines)
        assert times.tolist() == [10.0, 20.0, 30.0]
        assert i_mhz.tolist() == [1.0, 1.0, 1.0] and q_mhz.tolist() == [0.0, 0.0, 0.0]
