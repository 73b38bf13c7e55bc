"""Truncated-Taylor steps for the shaped-envelope ODE y' = G(f(t)) y.

Imported by dynamics on the first ODE run only, since it loads
scipy.integrate for the OdeSolver interface that solve_ivp drives.

On each linear piece of the envelope, f(t_k + x) = f_k + s x, the
generator is G = A0 + s x P, with A0 = G(f_k) and P = G(1) - G(0) the
drive pairing.  Shifted by a scalar mu, the
Taylor terms z_m = y^(m)(t_k) h^m / m! of the solution over a step h obey
the two-term recursion

    z_0 = y,   (m + 1) z_{m+1} = h (A0 - mu) z_m + h^2 s P z_{m-1},

and y(t_k + theta h) = exp(mu theta h) sum_m theta^m z_m for theta in
[0, 1]: each term costs one product with the stacked blocks plus an
O(orbits) drive gather, and the same sum is the dense output.  Steps end
on the envelope's piece ends (its jumps and kinks), so a step never
crosses a change of f or of its slope: a step that ends on a jump uses
the piece before it, the step after it the piece after it.

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

import bisect
import math

import numpy as np
from scipy.integrate import DenseOutput, OdeSolver

from .dynamics import _spans

_MAX_TERMS = 30


def _term_count(a: float, b: float, tol: float) -> int:
    """The fewest terms m whose neglected tail is bounded below tol by
    3 (e_{m+1} + e_{m+2}), e the Taylor coefficients of exp(a x + b x^2/2)
    at x = 1, with a + b <= (m + 3)/2 (module docstring)."""
    m, e, e_next = 0, a, (a * a + b) / 2  # e_{m+1}, e_{m+2}
    while 3.0 * (e + e_next) > tol or a + b > 0.5 * (m + 3):
        m += 1
        e, e_next = e_next, (a * e_next + b * e) / (m + 2)
    return m


class PiecewiseTaylor(OdeSolver):
    """Truncated-Taylor steps for y' = G(f(t)) y, f piecewise linear.

    blocks are the GeneratorBlocks whose coordinates y stacks; envelope is
    the drive's PulseEnvelope, and ends the times in (t0, t_bound) where
    its value or slope changes.  Every step ends on the next of them (or
    on t_bound), or on an equal share of the way there (module docstring).
    rtol and atol bound the truncation error of the pass,
    rtol max ||y|| + atol, each step taking its share h / (t_bound - t0).
    Each step forms h (G(f_k) - mu) of every block once; nfev counts the
    products with the stacked blocks; fun is never called.
    """

    def __init__(self, fun, t0, y0, t_bound, *, blocks, envelope, ends,
                 rtol, atol, vectorized=False):
        super().__init__(fun, t0, y0, t_bound, vectorized,
                         support_complex=True)
        self.rtol, self.atol = rtol, atol
        self._envelope = envelope
        self._ends = sorted(ends) + [t_bound]
        self._length = t_bound - t0
        self._blocks = blocks
        self._spans = _spans(blocks)
        diagonal = np.concatenate(
            [np.zeros(blk.n_meta) for blk in blocks]
            + [np.diag(blk.excited) for blk in blocks])
        self._mu = complex(diagonal.real.min() + diagonal.real.max(),
                           diagonal.imag.min() + diagonal.imag.max()) / 2
        self._norms = [max(np.linalg.norm(blk.matrix(f) - self._mu
                                          * np.eye(blk.dim), 2)
                           for blk in blocks) for f in (0.0, 1.0)]
        self._coupling = blocks[0].coupling
        # P y = coupling * pairs * y[partner]: each metastable amplitude
        # and its driven partner swap
        self._partner = np.arange(self.n)
        self._pairs = np.zeros(self.n)
        for blk, s in zip(blocks, self._spans):
            if blk.coupling:
                meta = s.start + np.arange(blk.n_meta)
                driven = s.start + np.arange(blk.dim)[blk.driven]
                self._partner[meta], self._partner[driven] = driven, meta
                self._pairs[meta] = self._pairs[driven] = 1.0
        # the x = h ||G|| at which x^(M+1)/(M+1)!, the first term M terms
        # leave out of a constant generator's series, reaches rtol / 3
        self._theta = (math.factorial(_MAX_TERMS + 1) * rtol / 3.0) ** (
            1.0 / (_MAX_TERMS + 1))
        self._step_matrices = (None, None, None)
        self._terms = None
        self._h = None

    def _norm(self, f):
        """A bound on ||G(f) - mu||_2 for 0 <= f <= 1 (up to rounding): the
        norm is convex in f, so below the line through f = 0 and 1."""
        norm0, norm1 = self._norms
        return norm0 + f * (norm1 - norm0)

    def _matrices(self, f, h):
        """h (G(f) - mu) of each block, kept while f and h repeat."""
        if self._step_matrices[:2] != (f, h):
            mats = []
            for blk in self._blocks:
                A = blk.matrix(f)
                A.flat[::len(A) + 1] -= self._mu
                A *= h
                mats.append(A)
            self._step_matrices = (f, h, mats)
        return self._step_matrices[2]

    def _step_impl(self):
        t, y = self.t, self.y
        end = self._ends[bisect.bisect_right(self._ends, t)]
        f, slope = self._envelope.piece(t)
        span = end - t
        n_steps = max(1, math.ceil(
            self._norm(max(f, f + slope * span)) * span / self._theta))
        h = span / n_steps
        t_new = end if n_steps == 1 else t + h
        tol = (self.rtol + self.atol / max(np.linalg.norm(y),
                                           np.finfo(float).tiny)
               ) * h / self._length
        m = _term_count(h * self._norm(f),
                        h * h * abs(slope * self._coupling), tol)

        mats = self._matrices(f, h)
        pairs = (h * h * slope * self._coupling) * self._pairs
        Z = np.empty((m + 1, self.n), dtype=complex)
        Z[0] = y
        for j in range(m):
            out = Z[j + 1]
            for A, s in zip(mats, self._spans):
                np.matmul(A, Z[j, s], out=out[s])
            if j and slope:
                out += pairs * Z[j - 1, self._partner]
            out *= 1.0 / (j + 1)
        self.nfev += m

        self._terms, self._h = Z, h
        self.t = t_new
        self.y = np.exp(self._mu * h) * Z.sum(axis=0)
        return True, None

    def _dense_output_impl(self):
        return _TaylorDense(self.t_old, self.t, self._h, self._terms,
                            self._mu)


class _TaylorDense(DenseOutput):
    """exp(mu (t - t_old)) sum_m theta^m z_m, theta = (t - t_old)/h: the
    step's own Taylor sum at a point inside it."""

    def __init__(self, t_old, t, h, terms, mu):
        super().__init__(t_old, t)
        self.h = h
        self.terms = terms
        self.mu = mu

    def _call_impl(self, t):
        x = np.atleast_1d(t) - self.t_old
        powers = (x / self.h) ** np.arange(len(self.terms))[:, None]
        y = (self.terms.T @ powers) * np.exp(self.mu * x)
        return y[:, 0] if np.ndim(t) == 0 else y
