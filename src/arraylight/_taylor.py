"""Truncated-Taylor steps for the shaped-envelope ODE y' = G(f(t)) y.

taylor_pass integrates the stacked coordinates of a set of generator
blocks in one plain loop of steps; dynamics binds it as solve_ivp, with
solve_ivp's argument layout.

On each linear piece of the envelope, f(t_k + x) = f_k + s x, the
generator is G = A0 + s x P, with A0 = G(f_k) and P = G(1) - G(0) the
drive pairing.  Shifted by a scalar mu, the
Taylor terms z_m = y^(m)(t_k) h^m / m! of the solution over a step h obey
the two-term recursion

    z_0 = y,   (m + 1) z_{m+1} = h (A0 - mu) z_m + h^2 s P z_{m-1},

and y(t_k + theta h) = exp(mu theta h) sum_m theta^m z_m for theta in
[0, 1], a sum that also gives the stored samples inside the step.  Each
term is one product per block: a block keeps its terms in consecutive
rows after a zero z_{-1}, so [z_{m-1}; z_m] is one contiguous vector,
which the block's (d, 2d) step matrix [h s P | A0 - mu] maps to
(m + 1) z_{m+1} / h.  The step matrix is built once per pass and a step
rewrites only its drive pairing entries; a piece of slope 0 uses the
right half alone.  Everything that does not depend on the state is done
before the first step: the schedule of steps (their ends, pieces and
norm bounds), each block's term rows, allocated once per pass with the
views the products read and write (they grow when a step needs more
terms), and, for each stored sample, its step, theta and
exp(mu theta h).  A step computes ||y||, its term count, the pairing
entries, the term products and their sum.  Steps end on the ends of the
envelope's linear pieces (PulseEnvelope.pieces: its jumps and kinks), so
a step never crosses a change of f or of its slope: a step that ends on
a jump uses the piece before it, the step after it the piece after it.

With a = h ||A0 - mu|| and b = h^2 |s| ||P|| (2-norms), the norms of the
terms are bounded by e_m ||y||, the Taylor coefficients of
exp(a x + b x^2 / 2) at x = 1, which obey the same recursion with
scalars.  Once a + b <= (m + 3)/2 every later coefficient is at most half
the larger of the two before it, so the tail after the term m is at most
3 (e_{m+1} + e_{m+2}).  Each step keeps the fewest terms that hold this
below (rtol ||y|| + atol) h / T, T the length of the pass: the flow does
not grow the norm, so the truncation errors of the whole pass add up to
at most rtol max ||y|| + atol.  (Al-Mohy and Higham, SIAM J. Sci. Comput.
33, 488 (2011), likewise choose the terms from a norm bound.)  ||G(f) -
mu|| is convex in f, so on 0 <= f <= 1 it is bounded by the line through
its values at f = 0 and 1, computed once.  A piece is split into equal
steps when h ||G|| would exceed theta, about the most that _MAX_TERMS
terms cover for a constant generator: longer steps save few products but
let the terms, and their rounding, grow as exp(h ||G||).  mu is the centre of
the range of the diagonal (zero on the metastable amplitudes, about
i delta on the excited ones), which shrinks the norm.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

_MAX_TERMS = 30


class TaylorPass(NamedTuple):
    """A pass's storage times t, coordinates y (one column per time) and
    block products nfev."""
    t: np.ndarray
    y: np.ndarray
    nfev: int


def _spans(blocks) -> list:
    """Each block's rows in the stacked coordinates, in turn."""
    ends = np.cumsum([blk.dim for blk in blocks])
    return [slice(end - blk.dim, end) for blk, end in zip(blocks, ends)]


def _term_count(a: float, b: float, tol: float) -> int:
    """The fewest terms m whose neglected tail is bounded below tol by
    3 (e_{m+1} + e_{m+2}), e the Taylor coefficients of exp(a x + b x^2/2)
    at x = 1, with a + b <= (m + 3)/2 (module docstring)."""
    m, e, e_next = 0, a, (a * a + b) / 2  # e_{m+1}, e_{m+2}
    while 3.0 * (e + e_next) > tol or a + b > 0.5 * (m + 3):
        m += 1
        e, e_next = e_next, (a * e_next + b * e) / (m + 2)
    return m


def _step_matrix(blk, mu: complex):
    """A block's (d, 2d) step matrix B = [0 | G(0) - mu], its flat view,
    its right half (the step matrix of a slope-0 piece), the flat indices
    of its drive pairing entries in its left and in its right half, and
    their values in P = G(1) - G(0)."""
    d = blk.dim
    A = blk.matrix(0.0)
    P = blk.matrix(1.0) - A
    A.flat[::d + 1] -= mu
    B = np.zeros((d, 2 * d), dtype=complex)
    B[:, d:] = A
    pairs = np.flatnonzero(P)
    left = pairs + pairs // d * d  # row * d + col -> row * 2d + col
    return B, B.reshape(-1), B[:, d:], left, left + d, P.flat[pairs]


def _term_rows(d: int, n: int):
    """A block's term rows z_{-1} = 0, z_0, ..., z_n, as a (n + 2, d)
    array Z, with, for j < n, the product inputs [z_{j-1}; z_j] (flat,
    contiguous) and z_j, and the output rows z_{j+1}."""
    Z = np.zeros((n + 2, d), dtype=complex)
    flat = Z.reshape(-1)
    return (Z, [flat[j * d:(j + 2) * d] for j in range(n)], list(Z[1:-1]),
            list(Z[2:]))


def _schedule(pieces, norm0, norm1, coupling, theta):
    """The pass's steps, one row (t, t_new, f, slope, h, a, b) each: the
    step from t to t_new = t + h on the linear piece f(t + x) = f + slope x,
    with a = h ||G(f) - mu|| and b = h^2 |slope| ||P|| from the norm bounds
    (module docstring), on the rows (start, end, f(start), slope) of
    PulseEnvelope.pieces; the step count is that of the rest of the piece."""
    steps = []
    for start, end, f_start, slope in pieces.tolist():
        t = start
        while t < end:
            f = f_start + slope * (t - start)
            span = end - t
            n_steps = max(1, math.ceil(
                (norm0 + max(f, f + slope * span) * (norm1 - norm0)) * span
                / theta))
            h = span / n_steps
            t_new = end if n_steps == 1 else t + h
            steps.extend((t, t_new, f, slope, h,
                          h * (norm0 + f * (norm1 - norm0)),
                          h * h * abs(slope * coupling)))
            t = t_new
    return np.array(steps).reshape(-1, 7)


def taylor_pass(blocks, t_span, y0, *, envelope, rtol, atol, t_eval=None):
    """Truncated-Taylor steps for y' = G(f(t)) y over t_span = (t0, t_end),
    f = envelope piecewise linear, from the stacked coordinates y0 of the
    GeneratorBlocks blocks.

    Every step ends on the end of its linear piece of f (PulseEnvelope.
    pieces: the next jump or kink, or t_end), or on an equal share of the
    way there (module docstring); the steps are scheduled before the first
    one runs.  rtol and atol bound the truncation error of the pass,
    rtol max ||y|| + atol, each step taking its share h / (t_end - t0);
    atol must be finite and >= 0.  Each block's step matrix
    [h s P | G(f_k) - mu] and term rows are allocated once per pass (the
    rows grow when a step needs more terms), and each step rewrites the
    matrix's drive pairing entries for its f_k and h s.  Stores the
    states at t_eval, a sorted grid in [t0, t_end] read from the Taylor
    sum of the step that contains each time, or by default at t0 and
    every step end.
    """
    t0, t_end = map(float, t_span)
    spans = _spans(blocks)
    diagonal = np.concatenate(
        [np.zeros(blk.n_meta) for blk in blocks]
        + [np.diag(blk.excited) for blk in blocks])
    mu = complex(diagonal.real.min() + diagonal.real.max(),
                 diagonal.imag.min() + diagonal.imag.max()) / 2
    # ||G(f) - mu||_2 for 0 <= f <= 1 is convex in f, so below the line
    # through its values at f = 0 and 1 (up to rounding)
    norm0, norm1 = (
        max(np.linalg.norm(blk.matrix(f) - mu * np.eye(blk.dim), 2)
            for blk in blocks) for f in (0.0, 1.0))
    # the x = h ||G|| at which x^(M+1)/(M+1)!, the first term M terms
    # leave out of a constant generator's series, reaches rtol / 3
    theta = (math.factorial(_MAX_TERMS + 1) * rtol / 3.0) ** (
        1.0 / (_MAX_TERMS + 1))
    steps = _schedule(envelope.pieces(t0, t_end), norm0, norm1,
                      blocks[0].coupling, theta)

    mats = [_step_matrix(blk, mu) for blk in blocks]
    n_rows = _MAX_TERMS
    rows = [_term_rows(blk.dim, n_rows) for blk in blocks]

    # step k stores the samples times[upto[k]:upto[k + 1]], the times in
    # (t, t_new], and t0 on the first step, at x = time - t
    times = np.asarray(np.concatenate([[t0], steps[:, 1]])
                       if t_eval is None else t_eval, dtype=float)
    upto = [0] + np.searchsorted(times, steps[:, 1], side="right").tolist()
    owner = np.repeat(np.arange(len(steps)), np.diff(upto))
    x = times[:upto[-1]] - steps[owner, 0]
    x_h = x / steps[owner, 4]
    phase = np.exp(mu * x)
    out = np.empty((len(y0), len(times)), dtype=complex)
    y = np.array(y0, dtype=complex)

    tiny = np.finfo(float).tiny
    length = t_end - t0
    nfev = 0
    for k, step in enumerate(steps):
        _, _, f, slope, h, a, b = step.tolist()
        tol = (rtol + atol / max(np.linalg.norm(y), tiny)) * h / length
        m = _term_count(a, b, tol)
        if m > n_rows:
            n_rows = m
            rows = [_term_rows(blk.dim, n_rows) for blk in blocks]
        scales = [h / (j + 1) for j in range(m)]
        lo, hi = upto[k], upto[k + 1]

        for (B, flat, right_half, left, right, pairing), \
                (Z, pairs, last, outs), s in zip(mats, rows, spans):
            flat[right] = f * pairing
            if slope:
                flat[left] = (h * slope) * pairing
                A, inputs = B, pairs
            else:
                A, inputs = right_half, last
            Z[1] = y[s]
            for v, row, c in zip(inputs, outs, scales):
                np.dot(A, v, out=row)
                row *= c
            terms = Z[1:m + 2]
            if hi > lo:
                sample = terms.T @ x_h[lo:hi] ** np.arange(m + 1)[:, None]
                np.multiply(sample, phase[lo:hi], out=sample)
                out[s, lo:hi] = sample
            # in place: the block's z_0 was copied before
            np.sum(terms, axis=0, out=y[s])
        nfev += m
        np.multiply(np.exp(mu * h), y, out=y)
    return TaylorPass(times, out, nfev)
