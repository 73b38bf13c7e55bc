"""Time propagation of the amplitude equations.

Two routes, cross-validated against each other:

* spectral: for piecewise-constant drive envelopes the generator is
  constant on each segment, so psi(t) = V exp(Lambda (t-t0)) V^-1 psi(t0)
  is exact at arbitrary times.  When the array has a rotation symmetry
  about z (hamiltonian.rotation_blocks), only the symmetry blocks the
  initial state touches are diagonalized, each on its own; they are split
  by inversion too when the array has it (C4h), which halves each solve.
  Otherwise the whole generator is diagonalized.  Requires a
  well-conditioned eigenbasis; collective modes are not orthogonal, so the
  condition number is checked.
* ODE: truncated-Taylor steps for arbitrary piecewise-linear envelopes,
  in one plain loop of steps (_taylor.taylor_pass, on numpy alone; bound
  here as solve_ivp, the one name every ODE pass calls, with solve_ivp's
  argument layout).  The right-hand side is linear,
  y' = G(f(t)) y, and on each linear piece of f the Taylor terms of the
  solution follow a two-term recursion: one product per term and block,
  of the block's generator at the piece's start and its drive pairing
  with the last two terms, stored next to each other.  Steps end on the
  envelope's jumps and kinks, so each uses one linear piece of f; the
  term count and any split of a long piece come from a norm bound of the
  generator and the tolerances, and the step's Taylor sum also gives the
  stored samples inside it.  The steps are scheduled, each block's term
  rows allocated and each stored sample assigned to its step before the
  first step runs, and the samples are written into one preallocated
  array, so a step does only the work that depends on the state: its
  norm, term count, products and sum.  It integrates the touched blocks
  of the rotation alone (C4, not split by inversion: two half-size
  products per term cost more than one), or the whole space without a
  symmetry.
  Off-grid states are integrated from the stored sample before them, at
  the run's tolerances.

Both routes take their blocks from EffectiveHamiltonian.block: a constant
excited part, projected once, and the drive pairing, scaled by f(t).  A
Trajectory stores what they compute, the stacked coordinates in those
blocks; populations, the norm and (in farfield) the flux of each helicity
are read from the coordinates, and only single vectors are lifted to the
full space.  The helicity difference of the flux is odd under inversion,
so it couples each inversion-split block to its parity partner: farfield
projects the flux operators onto all of a trajectory's blocks at once.
"""

from __future__ import annotations

import numpy as np

from ._taylor import _spans
from ._taylor import taylor_pass as solve_ivp
from .core import AmplitudeState
from .envelope import _CHUNK, write_columns
from .errors import EigenConditionError, InvalidArgumentError
from .hamiltonian import (EffectiveHamiltonian, eigenbasis_condition,
                          rotation_blocks)

__all__ = ["Trajectory", "piecewise_grid", "propagate_eigen", "propagate_ode"]

EIGEN_COND_LIMIT = 1e8


def piecewise_grid(t_end: float, bands) -> np.ndarray:
    """Piecewise-uniform grid on [0, t_end], closed by t_end.  bands is
    ((0, dt_0), (t_1, dt_1), ...): spacing dt_k from t_k to the next start
    or t_end; bands starting at or after t_end are left out."""
    stops = [start for start, _ in bands[1:]] + [t_end]
    parts = [np.arange(start, min(stop, t_end), dt)
             for (start, dt), stop in zip(bands, stops) if t_end > start]
    return np.concatenate(parts + [[t_end]])


class Trajectory:
    """Stored propagation result with dense evaluation.

    times: strictly increasing sample grid.  blocks: the generator blocks
    (EffectiveHamiltonian.block) the run worked in; coords: (sum of the
    block dims, K) stacked block coordinates, one column per sample.  The
    full-space states are never stored: lift maps coordinates to them,
    state_at lifts one.
    Populations, the norm and the CSV's a_j read the coordinates: every
    column of a block basis lies in one sector (the a_l, or one sublevel),
    and the bases are orthonormal.  Spectral trajectories evaluate
    off-grid coordinates exactly from the cached eigendecompositions; ODE
    trajectories integrate to off-grid times from the stored sample at or
    before the first of them, in the same blocks, at the run's own
    tolerances tols = (rtol, atol).  eigen_blocks lists, per spectral
    segment, the dimensions of the blocks diagonalized (None for ODE
    trajectories).  ode_passes and ode_products count the ODE work run for
    the trajectory so far, its propagate_ode pass and any off-grid pass of
    coords_at: Taylor passes, and products with the stacked blocks (zero
    for spectral trajectories).
    """

    def __init__(self, H, times, coords, kind, blocks, segments=None,
                 eigen_blocks=None, tols=None, ode_products=0):
        self.H = H
        self.times = np.asarray(times, dtype=float)
        self.blocks = tuple(blocks)
        self.coords = coords
        self.kind = kind
        self.eigen_blocks = eigen_blocks
        self._segments = segments
        if segments is not None:
            self._segment_ends = np.array([seg[1] for seg in segments]) + 1e-12
        self._tols = tols
        self.ode_passes = int(kind == "ode")
        self.ode_products = ode_products
        self._spans = _spans(self.blocks)
        if coords.shape[0] != self._spans[-1].stop:
            raise InvalidArgumentError(
                f"{coords.shape[0]} coordinates for blocks of total "
                f"dimension {self._spans[-1].stop}")
        if np.any(np.diff(self.times) <= 0):
            raise InvalidArgumentError("trajectory times must be strictly increasing")

    @property
    def t_start(self) -> float:
        return float(self.times[0])

    @property
    def t_end(self) -> float:
        return float(self.times[-1])

    def split(self, y: np.ndarray) -> list:
        """Stacked block coordinates -> each block's own rows of them."""
        return [y[s] for s in self._spans]

    def lift(self, y: np.ndarray, rows=None) -> np.ndarray:
        """Stacked block coordinates, (sum of the block dims,) or with K
        columns, -> full-space vectors sum_k Q_k y_k; only the full-space
        rows listed in rows when given."""
        parts = [blk.basis.lift(y_k, rows)
                 for blk, y_k in zip(self.blocks, self.split(y))]
        return sum(parts[1:], parts[0])

    def _check_coverage(self, u):
        if np.any(u < self.times[0] - 1e-12) or np.any(u > self.times[-1] + 1e-12):
            raise InvalidArgumentError(
                f"time {np.min(u):g}..{np.max(u):g} outside trajectory "
                f"coverage [{self.times[0]:g}, {self.times[-1]:g}]")

    def coords_at(self, u) -> np.ndarray:
        """Stacked block coordinates at the times u, one column each
        (exact for spectral trajectories, to the run's tolerances for ODE
        ones).  An ODE trajectory serves all off-grid times with one
        integration over their sorted grid."""
        u = np.atleast_1d(np.asarray(u, dtype=float))
        self._check_coverage(u)
        if self.kind == "eigen":
            # first segment ending at or after u: a boundary time belongs
            # to the earlier segment
            k = np.minimum(np.searchsorted(self._segment_ends, u, side="left"),
                           len(self._segments) - 1)
            out = np.empty((self.coords.shape[0], len(u)), dtype=complex)
            # (np.unique would import numpy.ma on its first call)
            for i in sorted(set(k.tolist())):
                t0, _, modes = self._segments[i]
                out[:, k == i] = _modal_coords(modes, u[k == i] - t0)
            return out
        # within the coverage slack, u is the end sample
        u = np.clip(u, self.t_start, self.t_end)
        k = np.searchsorted(self.times, u, side="right") - 1
        out = self.coords[:, k]
        off = u != self.times[k]
        if np.any(off):
            # sorted, without repeats (np.unique would import numpy.ma
            # on its first call)
            grid = np.array(sorted(set(u[off].tolist())))
            first = int(np.min(k[off]))
            tol, atol = self._tols
            sol = solve_ivp(self.blocks, (self.times[first], grid[-1]),
                            self.coords[:, first].copy(),
                            envelope=self.H.drive.envelope, rtol=tol,
                            atol=atol, t_eval=grid)
            self.ode_passes += 1
            self.ode_products += sol.nfev
            out[:, off] = sol.y[:, np.searchsorted(grid, u[off])]
        return out

    def state_at(self, u: float) -> np.ndarray:
        """Flat state vector at time u (exact for spectral trajectories,
        to the run's tolerances for ODE ones)."""
        return self.lift(self.coords_at(float(u))[:, 0])

    def beta_at(self, u: float) -> np.ndarray:
        """(N, 3) excited amplitudes at time u."""
        return self.H.beta_matrix(self.state_at(u))

    def _squares(self):
        """(metastable population, (K, 3) excited population per sublevel
        m = -1, 0, +1, norm squared), each sample's sums of |c|^2 over the
        coordinates of each sector (_column_sectors) and over all of them;
        |c|^2 is formed once per chunk of _CHUNK samples."""
        sectors = np.concatenate([_column_sectors(self.H, blk)
                                  for blk in self.blocks])
        onehot = sectors == np.arange(1 + self.H.n_sublevels)[:, None]
        sums = np.empty((len(onehot) + 1, len(self.times)))
        for lo in range(0, len(self.times), _CHUNK):
            c2 = np.abs(self.coords[:, lo:lo + _CHUNK]) ** 2
            np.matmul(onehot, c2, out=sums[:-1, lo:lo + _CHUNK])
            np.sum(c2, axis=0, out=sums[-1, lo:lo + _CHUNK])
        full = np.zeros((len(self.times), 3))
        full[:, self.H.columns] = sums[1:-1].T
        return sums[0], full, sums[-1]

    def norm_squared(self) -> np.ndarray:
        return self._squares()[2]

    def populations(self):
        """(metastable, excited-per-sublevel) population time series."""
        return self._squares()[:2]

    def to_csv(self, path, atoms=(0,), header_lines=()) -> None:
        meta, exc, norm2 = self._squares()
        cols = ["t", "pop_f", "pop_e_m1", "pop_e_0", "pop_e_p1", "norm2"]
        data = [self.times, meta, exc[:, 0], exc[:, 1], exc[:, 2], norm2]
        a = self.lift(self.coords, rows=list(atoms))
        for j, a_j in zip(atoms, a):
            cols += [f"re_a_{j}", f"im_a_{j}"]
            data += [a_j.real, a_j.imag]
        write_columns(path, cols, data, header_lines)


def _column_sectors(H: EffectiveHamiltonian, blk) -> np.ndarray:
    """Sector of each column of a block: 0 for the a_l, 1 + s for the
    model's sublevel s.  Every orbit column lies in one sector, so one of
    its entries tells which."""
    rows = blk.basis.first_rows
    n = H.n_atoms
    return np.where(rows < n, 0, 1 + (rows - n) % H.n_sublevels)


def _modal_coords(modes, dt, out=None) -> np.ndarray:
    """Stacked block coordinates W_k exp(lam_k dt) c0_k at the offsets dt
    from a spectral segment's start, one column each; modes holds
    (W_k, lam_k, c0_k) per block.  The columns are computed _CHUNK samples
    at a time, each chunk written straight into out (a new array when not
    given; any view, column slices included), so the temporaries hold one
    chunk of one block."""
    dt = np.asarray(dt, dtype=float)
    if out is None:
        out = np.empty((sum(len(lam) for _, lam, _ in modes), len(dt)),
                       dtype=complex)
    lo = 0
    for W, lam, c0 in modes:
        rows = out[lo:lo + len(lam)]
        for s in range(0, len(dt), _CHUNK):
            E = np.outer(lam, dt[s:s + _CHUNK])
            np.exp(E, out=E)
            E *= c0[:, None]
            np.matmul(W, E, out=rows[:, s:s + _CHUNK])
        lo += len(lam)
    return out


def propagate_eigen(H: EffectiveHamiltonian, psi0: AmplitudeState,
                    times, cond_limit: float = EIGEN_COND_LIMIT) -> Trajectory:
    """Spectral propagation on a time grid.

    Every piece of the envelope from psi0.t to the last time
    (PulseEnvelope.pieces) must be flat; each gets one eig.  With a rotation
    symmetry about z, the generator is block diagonal in the bases Q_k of
    rotation_blocks (split by inversion too, when the array has it), and
    the drive is the same on every atom, so the blocks psi0 touches stay
    the only ones touched on every segment: each of them
    is diagonalized on its own, Q_k^H G Q_k = W_k diag(lam_k) W_k^-1, and
    the samples are the block coordinates W_k exp(lam_k t) c0_k, stored
    as they are (Trajectory); the segment keeps the (W_k, lam_k, c0_k).
    Each segment's block is the block's constant excited part plus the
    drive pairing at that f; the dense generator is never formed.  Without
    a symmetry the whole generator is diagonalized.  The condition number
    is that of V = [Q_k W_k ...] in the 2-norm, from the W_k alone
    (hamiltonian.eigenbasis_condition).  Raises EigenConditionError when
    it exceeds cond_limit, in which case propagate_ode is the fallback.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or len(times) == 0:
        raise InvalidArgumentError("need a nonempty time grid")
    t0 = psi0.t
    if times[0] < t0 - 1e-12:
        raise InvalidArgumentError("time grid starts before the initial state")
    pieces = H.drive.envelope.pieces(t0, float(times[-1]))
    if np.any(pieces[:, 3]):
        raise InvalidArgumentError(
            "envelope ramps on the run; use propagate_ode")

    psi = H.pack(psi0)
    blocks = _touched_blocks(H, psi, inversion=True)
    y = np.concatenate([blk.basis.project(psi) for blk in blocks])
    spans = _spans(blocks)
    coords = np.empty((len(y), len(times)), dtype=complex)
    segments, dims = [], []
    for lo, hi, f, _ in pieces.tolist():
        eigs = [np.linalg.eig(blk.matrix(f)) for blk in blocks]
        cond = eigenbasis_condition(W for _, W in eigs)
        if cond > cond_limit:
            raise EigenConditionError(cond, cond_limit)
        modes = [(W, lam, np.linalg.solve(W, y[s]))
                 for (lam, W), s in zip(eigs, spans)]
        segments.append((lo, hi, modes))
        dims.append([len(lam) for lam, _ in eigs])
        # the sorted samples in [lo, hi] (1e-12 slack), written in place
        on = slice(np.searchsorted(times, lo - 1e-12, side="left"),
                   np.searchsorted(times, hi + 1e-12, side="right"))
        _modal_coords(modes, times[on] - lo, out=coords[:, on])
        y = _modal_coords(modes, [hi - lo])[:, 0]
    return Trajectory(H, times, coords, kind="eigen", blocks=blocks,
                      segments=segments, eigen_blocks=dims)


def _touched_blocks(H: EffectiveHamiltonian, psi: np.ndarray,
                    inversion: bool = False) -> list:
    """The generator's blocks (EffectiveHamiltonian.block) on the symmetry
    bases with a component of psi above rounding (dim * eps relative); the
    whole generator, on the identity basis, when there is no symmetry.

    The bases are those of the rotation alone, or split by inversion too
    (rotation_blocks(H, inversion=True), the spectral path's).  The drive
    is the same on every atom, so no other block is ever reached:
    propagate_eigen and propagate_ode both work in these blocks only and
    store their coordinates in them.
    """
    bases = rotation_blocks(H, inversion=inversion)
    tol = psi.size * np.finfo(float).eps * np.linalg.norm(psi)
    touched = [Q for Q in bases if np.linalg.norm(Q.project(psi)) > tol]
    return [H.block(Q) for Q in touched or bases]


def propagate_ode(H: EffectiveHamiltonian, psi0: AmplitudeState,
                  t_end: float, tol: float = 1e-8, atol: float = 1e-12,
                  times=None) -> Trajectory:
    """Truncated-Taylor integration up to t_end under H.drive.envelope.

    One pass of steps (_taylor.taylor_pass, called as solve_ivp) on the
    envelope's linear pieces (PulseEnvelope.pieces), which end on its
    jumps and kinks, so that f is linear on every step: a step that ends
    on a jump uses the piece before it, the next step the piece after
    it.  Each step sums the Taylor series of the solution to as
    many terms as a norm bound of the generator needs for the tolerances:
    the truncation errors of the pass add up to at most
    tol * max ||psi|| + atol, with tol finite and > 0 and atol finite and
    >= 0.  As in propagate_eigen, only the symmetry blocks psi0 touches
    are integrated, stacked in one vector, but those of the rotation
    alone, not split by inversion; each Taylor term is one product per
    block, of [h s P | G(f) - mu] with the last two terms (_taylor).  The
    stacked coordinates are stored as they are (Trajectory), with the
    pass's block products (ode_products).  times selects the storage grid,
    a nonempty, strictly increasing 1-D grid read from the Taylor sum of
    the step around each time; ends up to 1e-12 outside [t0, t_end] are
    taken as t0 and t_end (default: t0 and every step end).
    """
    if not 0 < tol < np.inf:
        raise InvalidArgumentError("tol must be finite and positive")
    if not 0 <= atol < np.inf:
        raise InvalidArgumentError("atol must be finite and >= 0")
    t0 = psi0.t
    if not t0 < t_end < np.inf:
        raise InvalidArgumentError(
            "t_end must be finite and exceed the initial time")

    if times is not None:
        times = np.asarray(times, dtype=float)
        if times.ndim != 1 or len(times) == 0:
            raise InvalidArgumentError("need a nonempty 1-D storage grid")
        if not (times[0] >= t0 - 1e-12 and times[-1] <= t_end + 1e-12):
            raise InvalidArgumentError("storage grid outside [t0, t_end]")
        times = np.clip(times, t0, t_end)
        if not np.all(np.diff(times) > 0):
            raise InvalidArgumentError(
                "storage grid must be strictly increasing")

    psi = H.pack(psi0)
    if not np.all(np.isfinite(psi)):
        raise InvalidArgumentError("initial state must be finite")
    blocks = _touched_blocks(H, psi)
    y0 = np.concatenate([blk.basis.project(psi) for blk in blocks])
    sol = solve_ivp(blocks, (t0, t_end), y0, envelope=H.drive.envelope,
                    rtol=tol, atol=atol, t_eval=times)
    return Trajectory(H, sol.t, sol.y, kind="ode", blocks=blocks,
                      tols=(tol, atol), ode_products=sol.nfev)

