"""Drive-pulse envelopes f(t) with exact piecewise integrals.

An envelope is a piecewise-linear function of time with values in [0, 1].
Discontinuities (square pulses) are represented as zero-length jumps between
segments.  PulseEnvelope.pieces splits a run into the maximal pieces on
which f is linear, cut at each jump and at each kink, where f is continuous
but its slope changes: both propagators read f from them, the spectral one
when every piece is flat, the Taylor steps otherwise.  The cumulative
integral of f^2, used by the pulse-shaping reparametrization, is evaluated
in closed form per segment so it carries no quadrature error.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidArgumentError

__all__ = ["PulseEnvelope"]

# samples per chunk of the sample-bounded loops over a time grid: the CSV
# rows of one formatting call of write_columns, and the samples of one
# step of shaping's adiabatic_simulate, so that their temporaries scale
# with one chunk and not with the grid.  A trajectory's own chunks are
# bounded by entries instead (dynamics._chunk_slices)
_CHUNK = 1024


class PulseEnvelope:
    """Piecewise-linear envelope f(t) in [0, 1].

    Internally a list of segments (t0, t1, f0, f1); the last segment may be
    half-infinite (constant continuation).  Evaluation is right-continuous
    at breakpoints.
    """

    def __init__(self, t0s, t1s, f0s, f1s):
        t0s = np.asarray(t0s, dtype=float)
        t1s = np.asarray(t1s, dtype=float)
        f0s = np.asarray(f0s, dtype=float)
        f1s = np.asarray(f1s, dtype=float)
        if not (len(t0s) == len(t1s) == len(f0s) == len(f1s)) or len(t0s) == 0:
            raise InvalidArgumentError("envelope needs at least one segment")
        if not t0s[0] >= 0.0:
            raise InvalidArgumentError("envelope must start at t >= 0")
        if not np.all(t1s > t0s):
            raise InvalidArgumentError("envelope segments must have t1 > t0")
        if np.any(t0s[1:] != t1s[:-1]):
            raise InvalidArgumentError("envelope segments must be contiguous")
        fs = np.concatenate([f0s, f1s])
        if not np.all((fs >= 0.0) & (fs <= 1.0 + 1e-12)):
            raise InvalidArgumentError(
                f"envelope values must lie in [0, 1], got "
                f"[{fs.min():g}, {fs.max():g}]")
        if math.isinf(t1s[-1]) and f0s[-1] != f1s[-1]:
            raise InvalidArgumentError("infinite final segment must be constant")
        self._t0 = t0s
        self._f0 = f0s
        with np.errstate(invalid="ignore"):
            self._slope = np.where(
                np.isfinite(t1s), (f1s - f0s) / (t1s - t0s), 0.0
            )
        # cumulative integral of f^2 at segment starts, exact per segment
        L = np.where(np.isfinite(t1s), t1s - t0s, 0.0)
        s = self._slope
        seg = f0s**2 * L + f0s * s * L**2 + s**2 * L**3 / 3.0
        self._tau0 = np.concatenate([[0.0], np.cumsum(seg)[:-1]])
        # segment starts where f jumps or kinks: the line changes there
        self._cuts = t0s[1:][(f1s[:-1] != f0s[1:])
                             | (self._slope[:-1] != self._slope[1:])]

    # ---- constructors -------------------------------------------------

    @classmethod
    def constant(cls, value: float = 1.0) -> "PulseEnvelope":
        """Constant envelope f(t) = value for all t >= 0."""
        return cls([0.0], [math.inf], [value], [value])

    @classmethod
    def square(cls, t_w: float, high: float = 1.0, low: float = 0.0) -> "PulseEnvelope":
        """Square pulse: f = high on [0, t_w), then f = low."""
        if not t_w > 0:
            raise InvalidArgumentError("square pulse needs t_w > 0")
        return cls([0.0, t_w], [t_w, math.inf], [high, low], [high, low])

    @classmethod
    def from_samples(cls, t_grid, f_values) -> "PulseEnvelope":
        """Piecewise-linear interpolation of samples, constant past the end."""
        t = np.asarray(t_grid, dtype=float)
        f = np.asarray(f_values, dtype=float)
        if t.ndim != 1 or t.shape != f.shape or len(t) < 2:
            raise InvalidArgumentError("need matching 1-d grids with >= 2 samples")
        if not np.all(np.diff(t) > 0):
            raise InvalidArgumentError("t_grid must be strictly increasing")
        t0 = np.concatenate([t[:-1], [t[-1]]])
        t1 = np.concatenate([t[1:], [math.inf]])
        f0 = np.concatenate([f[:-1], [f[-1]]])
        f1 = np.concatenate([f[1:], [f[-1]]])
        return cls(t0, t1, f0, f1)

    @classmethod
    def from_csv(cls, path) -> "PulseEnvelope":
        data = read_two_columns(path, "envelope", "t,f")
        return cls.from_samples(data[:, 0], data[:, 1])

    # ---- queries ------------------------------------------------------

    def _segment(self, t):
        """Index of the segment whose line gives f at t (the first one
        before the envelope's start)."""
        return np.clip(np.searchsorted(self._t0, t, side="right") - 1, 0,
                       len(self._t0) - 1)

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        k = self._segment(t)
        out = self._f0[k] + self._slope[k] * (t - self._t0[k])
        return out if out.ndim else float(out)

    def tau(self, t):
        """Cumulative integral of f^2 from the envelope's start to t, exact."""
        t = np.asarray(t, dtype=float)
        k = self._segment(t)
        x = t - self._t0[k]
        f0, s = self._f0[k], self._slope[k]
        out = self._tau0[k] + f0 * f0 * x + f0 * s * x * x + s * s * x**3 / 3.0
        return out if out.ndim else float(out)

    def pieces(self, t0: float, t_end: float) -> np.ndarray:
        """The maximal linear pieces of f on [t0, t_end], one row (start,
        end, f(start), slope) each: a piece starts at t0 and at each jump or
        kink in (t0, t_end), so segments that continue one line are one.
        f(start) is f's right limit; the line gives the left limit at end."""
        cuts = self._cuts[(self._cuts > t0) & (self._cuts < t_end)]
        starts = np.concatenate([[t0], cuts])
        return np.column_stack([starts, np.append(cuts, t_end), self(starts),
                                self._slope[self._segment(starts)]])

    def to_csv(self, path, t_grid, header_lines=()) -> None:
        t = np.asarray(t_grid, dtype=float)
        write_columns(path, ["t", "f"], [t, self(t)], header_lines)


def write_columns(path, names, columns, header_lines=()) -> None:
    """Write equal-length columns as a CSV file: one '# ' line per header
    line, the column names, then one row per sample with every value as
    %.17g, which round-trips a float64.  The rows are formatted
    _CHUNK at a time, by one % of the row format repeated over the
    chunk."""
    row = ",".join(["%.17g"] * len(names)) + "\n"
    table = np.column_stack(columns)
    with open(path, "w") as fh:
        for line in header_lines:
            fh.write(f"# {line}\n")
        fh.write(",".join(names) + "\n")
        for lo in range(0, len(table), _CHUNK):
            block = table[lo:lo + _CHUNK]
            fh.write((row * len(block)) % tuple(block.ravel().tolist()))


def read_two_columns(path, what: str, columns: str) -> np.ndarray:
    """Rows of a two-column CSV file as an (n, 2) float array.

    Blank and '#' lines are skipped; a header is allowed only before the
    data.  what and columns name the file's content in error messages.
    """
    rows = []
    try:
        fh = open(path)
    except OSError as exc:
        raise InvalidArgumentError(f"cannot read {what} file {path}: "
                                   f"{exc.strerror}")
    with fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(",")
            try:
                rows.append((float(parts[0]), float(parts[1])))
            except (ValueError, IndexError):
                if rows:  # header allowed only before the data
                    raise InvalidArgumentError(
                        f"malformed {what} row in {path}: {line!r}")
    if len(rows) < 2:
        raise InvalidArgumentError(
            f"{what} file {path} needs columns {columns}")
    return np.asarray(rows)
