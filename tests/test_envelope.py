"""Pulse envelope evaluation and the exact integrated-intensity clock."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from _references import write_columns_by_row

from arraylight.envelope import _CHUNK, PulseEnvelope, write_columns
from arraylight.errors import InvalidArgumentError
from arraylight.shaping import TargetWaveform


def test_constant_envelope():
    env = PulseEnvelope.constant(0.7)
    t = np.array([0.0, 1.0, 100.0])
    assert np.allclose(env(t), 0.7)
    assert np.allclose(env.tau(t), 0.49 * t)
    assert env.pieces(0.0, 50.0).tolist() == [[0.0, 50.0, 0.7, 0.0]]


def test_square_envelope():
    env = PulseEnvelope.square(3.0)
    assert env(0.0) == 1.0
    assert env(2.999999) == 1.0
    assert env(3.0) == 0.0  # right continuous at the step
    assert env(10.0) == 0.0
    assert np.allclose(env.tau(np.array([1.0, 3.0, 9.0])), [1.0, 3.0, 3.0])
    assert env.pieces(0.0, 10.0).tolist() == [[0.0, 3.0, 1.0, 0.0],
                                              [3.0, 10.0, 0.0, 0.0]]


def _jumps(rows):
    """Piece starts where f's value changes: the left limit that the
    line of the piece before gives differs from the right limit."""
    left = rows[:-1, 2] + rows[:-1, 3] * (rows[:-1, 1] - rows[:-1, 0])
    return rows[1:, 0][~np.isclose(left, rows[1:, 2], rtol=0, atol=1e-12)]


def test_breakpoints_are_jumps_and_kinks_are_slope_changes():
    knots = [0.0, 1.0, 2.5, 4.0]
    env = PulseEnvelope.from_samples(knots, [0.2, 0.9, 0.4, 0.7])
    rows = env.pieces(0.0, 10.0)
    assert rows[:, 0].tolist() == knots  # kinks only; 4.0: flat tail
    assert _jumps(rows).size == 0 and rows[-1, 1:].tolist() == [10, 0.7, 0]
    assert env.pieces(0.0, 3.0)[:, 0].tolist() == [0.0, 1.0, 2.5]
    # one jump at t = 2 among linear segments; 1, 3 and 5 are kinks, and
    # the boundary at 4 joins two segments of equal slope into one piece
    env = PulseEnvelope([0.0, 1.0, 2.0, 3.0, 4.0, 5.0],
                        [1.0, 2.0, 3.0, 4.0, 5.0, math.inf],
                        [0.0, 0.5, 0.8, 0.75, 0.5, 0.25],
                        [0.5, 0.6, 0.75, 0.5, 0.25, 0.25])
    rows = env.pieces(0.0, 10.0)
    assert rows[:, 0].tolist() == [0.0, 1.0, 2.0, 3.0, 5.0]
    assert _jumps(rows).tolist() == [2.0]
    assert rows[3].tolist() == [3.0, 5.0, 0.75, -0.25]
    # a cut at either end of the run starts no piece
    assert env.pieces(0.0, 2.0)[:, 0].tolist() == [0.0, 1.0]
    assert env.pieces(2.0, 10.0)[:, 0].tolist() == [2.0, 3.0, 5.0]


def test_piece_is_the_segment_line_up_to_its_end():
    env = PulseEnvelope.from_samples([0.0, 1.0, 2.5], [0.2, 0.9, 0.4])
    start, end, value, slope = env.pieces(0.5, 2.0)[0]
    assert (start, end) == (0.5, 1.0)
    assert value == env(0.5) and slope == pytest.approx(0.7)
    # at a knot the piece is the segment that starts there
    start, end, value, slope = env.pieces(1.0, 2.0)[0]
    assert (start, end) == (1.0, 2.0)
    assert value == env(1.0) and slope == pytest.approx(-1.0 / 3.0)
    # before a jump the piece runs on to the left limit; at it, the next
    sq = PulseEnvelope.square(2.0, high=0.8, low=0.1)
    (start, end, value, slope), after = sq.pieces(1.5, 3.0)
    assert value + slope * (end - start) == 0.8 and sq(2.0) == 0.1
    assert after.tolist() == [2.0, 3.0, 0.1, 0.0]
    assert sq.pieces(2.0, 3.0).tolist() == [[2.0, 3.0, 0.1, 0.0]]


@st.composite
def _envelopes(draw):
    n = draw(st.integers(1, 8))
    start = draw(st.floats(0.0, 5.0))
    widths = draw(st.lists(st.floats(1e-3, 3.0), min_size=n, max_size=n))
    edges = np.concatenate([[start], start + np.cumsum(widths)])
    unit = st.floats(0.0, 1.0)
    f0 = draw(st.lists(unit, min_size=n, max_size=n))
    f1 = draw(st.lists(unit, min_size=n, max_size=n))
    # contiguous segments: jumps where f0[k] != f1[k-1], then a flat tail
    tail = f1[-1] if draw(st.booleans()) else draw(unit)
    env = PulseEnvelope(edges, np.append(edges[1:], math.inf),
                        f0 + [tail], f1 + [tail])
    knot = draw(st.sampled_from(edges.tolist()))
    t = draw(st.sampled_from([
        knot, np.nextafter(knot, -math.inf), np.nextafter(knot, math.inf),
        start - draw(st.floats(1e-9, 5.0)),
        edges[-1] + draw(st.floats(1e-9, 1e3)),
        draw(st.floats(start, float(edges[-1]))),
    ]))
    return env, float(t)


@settings(max_examples=300, deadline=None)
@given(_envelopes())
def test_scalar_evaluation_matches_array_path(case):
    env, t = case
    assert env(t) == env(np.array([t]))[0]


@settings(max_examples=300, deadline=None)
@given(_envelopes(), st.floats(0.0, 10.0))
def test_pieces_follow_the_envelope(case, length):
    # the pieces tile [t0, t_end]; each starts on f's right limit, bit for
    # bit, and its line is f up to the left limit at its end
    env, t0 = case
    t_end = t0 + length
    rows = env.pieces(t0, t_end)
    start, end, value, slope = rows.T
    assert start[0] == t0 and end[-1] == t_end
    assert np.array_equal(start[1:], end[:-1]) and np.all(end[1:] > start[1:])
    assert np.array_equal(value, env(start))
    scale = 1.0 + np.abs(slope) * (end - start)
    for t in (start + 0.5 * (end - start), np.nextafter(end, -math.inf)):
        inside = (t >= start) & (t < end)  # a midpoint may round to end
        line = value + slope * (t - start)
        assert np.all(np.abs(env(t) - line)[inside] <= 1e-9 * scale[inside])


def test_square_high_low():
    env = PulseEnvelope.square(2.0, high=0.8, low=0.1)
    assert env(1.0) == 0.8
    assert env(5.0) == 0.1
    assert np.isclose(env.tau(np.array([4.0]))[0], 2.0 * 0.64 + 2.0 * 0.01)


def test_values_outside_unit_interval_rejected():
    with pytest.raises(InvalidArgumentError):
        PulseEnvelope.constant(1.5)
    with pytest.raises(InvalidArgumentError):
        PulseEnvelope.constant(-0.1)
    with pytest.raises(InvalidArgumentError):
        PulseEnvelope.from_samples([0.0, 1.0], [0.5, 1.2])


def test_from_samples_linear_interpolation():
    t = np.array([0.0, 1.0, 3.0])
    f = np.array([0.0, 1.0, 0.5])
    env = PulseEnvelope.from_samples(t, f)
    assert np.isclose(env(0.5), 0.5)
    assert np.isclose(env(2.0), 0.75)
    assert np.isclose(env(10.0), 0.5)  # held flat past the last sample


def test_tau_matches_dense_quadrature():
    rng = np.random.default_rng(31)
    t = np.sort(rng.uniform(0.0, 20.0, size=12))
    t[0] = 0.0
    f = rng.uniform(0.0, 1.0, size=12)
    env = PulseEnvelope.from_samples(t, f)
    for tq in (0.5, 3.7, 12.2, 20.0):
        dense = np.linspace(0.0, tq, 200_001)
        ref = np.trapezoid(np.interp(dense, t, f) ** 2, dense)
        got = env.tau(np.array([tq]))[0]
        assert abs(got - ref) < 1e-8


def test_tau_monotone_nondecreasing():
    rng = np.random.default_rng(8)
    t = np.linspace(0.0, 50.0, 40)
    f = rng.uniform(0.0, 1.0, size=40)
    env = PulseEnvelope.from_samples(t, f)
    tau = env.tau(np.linspace(0.0, 60.0, 500))
    assert np.all(np.diff(tau) >= -1e-15)


def test_csv_roundtrip(tmp_path):
    t = np.linspace(0.0, 10.0, 21)
    f = 0.5 + 0.5 * np.sin(t / 3.0) ** 2
    env = PulseEnvelope.from_samples(t, f)
    path = tmp_path / "env.csv"
    env.to_csv(path, t_grid=t)
    back = PulseEnvelope.from_csv(path)
    dense = np.linspace(0.0, 10.0, 301)
    assert np.allclose(back(dense), env(dense), atol=1e-14)


def test_csv_header_lines(tmp_path):
    env = PulseEnvelope.constant(1.0)
    path = tmp_path / "env.csv"
    env.to_csv(path, t_grid=np.array([0.0, 1.0]), header_lines=["tag 123"])
    text = path.read_text().splitlines()
    assert text[0] == "# tag 123"
    assert text[1] == "t,f"


@pytest.mark.parametrize("n_rows", [0, 1, _CHUNK, 2 * _CHUNK + 5])
def test_chunked_csv_writer_matches_the_row_writer(tmp_path, n_rows):
    # one % per chunk of rows writes the bytes of one % per row: signed
    # zeros, infinities, nan, a subnormal and integer columns included
    rng = np.random.default_rng(7)
    special = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -2.5e-310,
               1e300, 0.1, 1.0 / 3.0]
    floats = rng.normal(size=n_rows) * 10.0 ** rng.integers(-20, 20, n_rows)
    floats[:len(special)] = special[:n_rows]
    columns = [np.arange(n_rows), floats, np.cos(np.arange(n_rows)),
               (floats > 0).astype(int)]
    names = ["i", "x", "c", "flag"]
    header = ["tag 1", "u 0.5"]
    for keep in (slice(None), slice(None, None, 3)):  # all, integers only
        want, got = tmp_path / "want.csv", tmp_path / "got.csv"
        write_columns_by_row(want, names[keep], columns[keep], header)
        write_columns(got, names[keep], columns[keep], header)
        assert got.read_bytes() == want.read_bytes()


def test_ramping_envelope_has_no_constant_segments():
    env = PulseEnvelope.from_samples([0.0, 1.0], [0.0, 1.0])
    assert np.any(env.pieces(0.0, 2.0)[:, 3])
    # flatness is that of the run: flat through t = 2, a ramp after it
    env = PulseEnvelope.from_samples([0.0, 2.0, 3.0], [0.5, 0.5, 1.0])
    assert env.pieces(0.0, 2.0).tolist() == [[0.0, 2.0, 0.5, 0.0]]
    assert env.pieces(1.0, 2.5)[:, 3].tolist() == [0.0, 0.5]


def test_start_before_zero_rejected():
    with pytest.raises(InvalidArgumentError):
        PulseEnvelope.from_samples([-1.0, 1.0], [0.5, 0.5])


@pytest.mark.parametrize("read, samples, what", [
    (PulseEnvelope.from_csv, lambda env: env(np.array([0.0, 1.0])),
     "envelope"),
    (TargetWaveform.from_csv, lambda target: target.intensity, "target"),
], ids=["envelope", "target"])
def test_two_column_csv_readers(tmp_path, read, samples, what):
    path = tmp_path / "in.csv"
    where = re.escape(str(path))
    # comments, blank lines and a header before the data are skipped
    path.write_text("# made by hand\nt,value\n\n0.0,0.5\n1.0,0.25\n")
    assert np.array_equal(samples(read(path)), [0.5, 0.25])
    # a header after the data is a malformed row
    path.write_text("0.0,0.5\nt,value\n1.0,0.25\n")
    with pytest.raises(InvalidArgumentError,
                       match=f"malformed {what} row in {where}"):
        read(path)
    path.write_text("t,value\n0.0,0.5\n")
    with pytest.raises(InvalidArgumentError,
                       match=f"{what} file {where} needs"):
        read(path)


_INF, _NAN = math.inf, math.nan

# the module's raises that no other test reaches, and the others of the
# same constructors, each with its input and message
_BAD_INPUTS = [
    (lambda: PulseEnvelope([], [], [], []),
     "envelope needs at least one segment"),
    (lambda: PulseEnvelope([0.0], [1.0, 2.0], [1.0], [1.0]),
     "envelope needs at least one segment"),
    (lambda: PulseEnvelope([-1.0], [1.0], [1.0], [1.0]),
     "envelope must start at t >= 0"),
    (lambda: PulseEnvelope([0.0, 1.0], [1.0, 1.0], [1.0, 1.0], [1.0, 1.0]),
     "envelope segments must have t1 > t0"),
    (lambda: PulseEnvelope([0.0, 1.5], [1.0, _INF], [1.0, 0.5], [1.0, 0.5]),
     "envelope segments must be contiguous"),
    (lambda: PulseEnvelope([0.0], [1.0], [0.5], [1.5]),
     "envelope values must lie in [0, 1], got [0.5, 1.5]"),
    (lambda: PulseEnvelope([0.0], [_INF], [1.0], [0.5]),
     "infinite final segment must be constant"),
    (lambda: PulseEnvelope.square(0.0), "square pulse needs t_w > 0"),
    (lambda: PulseEnvelope.square(-2.0), "square pulse needs t_w > 0"),
    (lambda: PulseEnvelope.from_samples([0.0, 1.0], [1.0]),
     "need matching 1-d grids with >= 2 samples"),
    (lambda: PulseEnvelope.from_samples([0.0], [1.0]),
     "need matching 1-d grids with >= 2 samples"),
    (lambda: PulseEnvelope.from_samples([[0.0, 1.0]], [[1.0, 1.0]]),
     "need matching 1-d grids with >= 2 samples"),
    (lambda: PulseEnvelope.from_samples([0.0, 1.0, 1.0], [1.0, 1.0, 1.0]),
     "t_grid must be strictly increasing"),
    # NaN fails every bound: an envelope file's "1,nan" row, and NaN times
    (lambda: PulseEnvelope.from_samples([0.0, 1.0], [0.5, _NAN]),
     "envelope values must lie in [0, 1], got [nan, nan]"),
    pytest.param(lambda: PulseEnvelope.from_samples([0.0, _NAN], [1.0, 1.0]),
                 "t_grid must be strictly increasing", id="nan-t_grid"),
    pytest.param(lambda: PulseEnvelope([_NAN], [1.0], [1.0], [1.0]),
                 "envelope must start at t >= 0", id="nan-start"),
    pytest.param(lambda: PulseEnvelope([0.0], [_NAN], [1.0], [1.0]),
                 "envelope segments must have t1 > t0", id="nan-end"),
    pytest.param(lambda: PulseEnvelope.square(_NAN),
                 "square pulse needs t_w > 0", id="nan-t_w"),
]


@pytest.mark.parametrize("call, message", _BAD_INPUTS)
def test_bad_inputs_raise_typed_errors(call, message):
    with pytest.raises(InvalidArgumentError) as info:
        call()
    assert str(info.value) == message
