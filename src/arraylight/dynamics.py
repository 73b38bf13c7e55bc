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
  condition number is checked.  The trajectory keeps each segment's
  modes, not its samples: they are evaluated from the closed form in
  chunks of at most _CHUNK_ENTRIES coordinates when read, so the run
  holds O(dim x chunk) coordinates, not O(dim x samples).
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
Trajectory holds the stacked coordinates in those blocks, stored (ODE) or
as the segments' modes (spectral), and hands every reader of all samples
the same bounded chunks of them (Trajectory.chunks): populations, the
norm, the CSV and (in farfield) the flux of each helicity are read from
the chunks, and only single vectors are lifted to the full space.  The
helicity difference of the flux is odd under inversion, so it couples
each inversion-split block to its parity partner: farfield projects the
flux operators onto all of a trajectory's blocks at once.
"""

from __future__ import annotations

import numpy as np

from ._kernels import _CHUNK_ENTRIES
from ._taylor import _spans
from ._taylor import taylor_pass as solve_ivp
from .core import AmplitudeState
from .envelope import _CHUNK, write_columns
from .errors import EigenConditionError, InvalidArgumentError
from .hamiltonian import (EffectiveHamiltonian, eigenbasis_condition,
                          rotation_blocks)

__all__ = ["Trajectory", "piecewise_grid", "propagate_eigen", "propagate_ode"]

EIGEN_COND_LIMIT = 1e8

# the atoms whose amplitudes Trajectory.chunks keeps for the CSV
_KEPT_ATOMS = (0,)


def piecewise_grid(t_end: float, bands) -> np.ndarray:
    """Piecewise-uniform grid on [0, t_end], closed by t_end.  bands is
    ((0, dt_0), (t_1, dt_1), ...): spacing dt_k from t_k to the next start
    or t_end; bands starting at or after t_end are left out."""
    stops = [start for start, _ in bands[1:]] + [t_end]
    parts = [np.arange(start, min(stop, t_end), dt)
             for (start, dt), stop in zip(bands, stops) if t_end > start]
    return np.concatenate(parts + [[t_end]])


class Trajectory:
    """Propagation result on a sample grid, with dense evaluation.

    times: strictly increasing sample grid.  blocks: the generator blocks
    (EffectiveHamiltonian.block) the run worked in; dim is the sum of
    their dimensions, the length of a stacked coordinate vector.  An ODE
    trajectory stores coords, the (dim, K) stacked coordinates, one column
    per sample.  A spectral one stores no coordinates (coords is None):
    its segments keep their modes, (start, end, [(W_k, lam_k, c0_k) per
    block]), and every sample is evaluated from them when read, a time on
    or after a later segment's start (1e-12 slack) by that segment.  The
    full-space states are never stored: lift maps coordinates to them,
    state_at lifts one.

    chunks is how the readers of every sample (populations, norm_squared,
    to_csv, farfield.waveform) see the coordinates: at most
    _CHUNK_ENTRIES of them at a time, in order, evaluated for a spectral
    trajectory and sliced from coords for an ODE one.  Its first pass
    through the grid also keeps the per-sample series that populations,
    the norm and the CSV read (each sector's sum of |c|^2, their total
    and the amplitudes of the atoms _KEPT_ATOMS), so a run that reads the
    waveform and then writes the CSV evaluates each sample once.  Every
    column of a block basis lies in one sector (the a_l, or one
    sublevel), and the bases are orthonormal.

    Off-grid coordinates come exactly from the segments' modes (spectral)
    or are integrated from the stored sample at or before the first of
    them, in the same blocks, at the run's own tolerances tols =
    (rtol, atol) (ODE).  eigen_blocks lists, per spectral segment, the
    dimensions of the blocks diagonalized (None for ODE trajectories).
    ode_passes and ode_products count the ODE work run for the trajectory
    so far, its propagate_ode pass and any off-grid pass of coords_at:
    Taylor passes, and products with the stacked blocks (zero for
    spectral trajectories).
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
            self._later_starts = np.array([seg[0] for seg in segments[1:]]) \
                - 1e-12
        self._tols = tols
        self._series = None
        self.ode_passes = int(kind == "ode")
        self.ode_products = ode_products
        self._spans = _spans(self.blocks)
        self.dim = self._spans[-1].stop
        if coords is not None and coords.shape[0] != self.dim:
            raise InvalidArgumentError(
                f"{coords.shape[0]} coordinates for blocks of total "
                f"dimension {self.dim}")
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
        """Stacked block coordinates, (dim,) or with K columns, ->
        full-space vectors sum_k Q_k y_k; only the full-space rows listed
        in rows when given."""
        parts = [blk.basis.lift(y_k, rows)
                 for blk, y_k in zip(self.blocks, self.split(y))]
        return sum(parts[1:], parts[0])

    def chunks(self):
        """Yield (slice of the samples, their (dim, k) stacked
        coordinates) through the grid in order, at most _CHUNK_ENTRIES
        coordinates at a time (_chunk_slices).  The first pass to the end
        keeps the per-sample series (class docstring)."""
        n = len(self.times)
        keep = self._series is None
        if keep:
            sectors = np.concatenate([_column_sectors(self.H, blk)
                                      for blk in self.blocks])
            onehot = sectors == np.arange(1 + self.H.n_sublevels)[:, None]
            sums = np.empty((len(onehot) + 1, n))
            atoms = np.empty((len(_KEPT_ATOMS), n), dtype=complex)
        for s in _chunk_slices(self.dim, n):
            y = (self._modal(self.times[s]) if self.coords is None
                 else self.coords[:, s])
            if keep:
                _square_sums(onehot, y, out=sums[:, s])
                atoms[:, s] = self.lift(y, rows=list(_KEPT_ATOMS))
            yield s, y
        if keep:
            self._series = sums, atoms

    def _modal(self, u) -> np.ndarray:
        """Stacked coordinates at the sorted times u of a spectral
        trajectory, each from the closed form of its segment: the last one
        whose start, less 1e-12, is at or before it (the first one for
        earlier times)."""
        out = np.empty((self.dim, len(u)), dtype=complex)
        cuts = [0, *np.searchsorted(u, self._later_starts).tolist(), len(u)]
        for (t0, _, modes), a, b in zip(self._segments, cuts[:-1], cuts[1:]):
            if b > a:
                _modal_coords(modes, u[a:b] - t0, out=out[:, a:b])
        return out

    def _check_coverage(self, u):
        if np.any(u < self.times[0] - 1e-12) or np.any(u > self.times[-1] + 1e-12):
            raise InvalidArgumentError(
                f"time {np.min(u):g}..{np.max(u):g} outside trajectory "
                f"coverage [{self.times[0]:g}, {self.times[-1]:g}]")

    def coords_at(self, u) -> np.ndarray:
        """Stacked block coordinates at the times u, one column each
        (exact for spectral trajectories, to the run's tolerances for ODE
        ones).  A spectral trajectory evaluates the sorted times in the
        chunks of chunks, so at its own grid the two agree bit for bit.
        An ODE trajectory serves all off-grid times with one integration
        over their sorted grid."""
        u = np.atleast_1d(np.asarray(u, dtype=float))
        self._check_coverage(u)
        if self.coords is None:
            order = np.argsort(u, kind="stable")
            out = np.empty((self.dim, len(u)), dtype=complex)
            for s in _chunk_slices(self.dim, len(u)):
                out[:, order[s]] = self._modal(u[order[s]])
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
        coordinates of each sector (_column_sectors) and over all of them,
        from the kept series (a pass of chunks when there is none yet)."""
        if self._series is None:
            for _ in self.chunks():
                pass
        sums = self._series[0]
        full = np.zeros((len(self.times), 3))
        full[:, self.H.columns] = sums[1:-1].T
        return sums[0], full, sums[-1]

    def norm_squared(self) -> np.ndarray:
        return self._squares()[2]

    def populations(self):
        """(metastable, excited-per-sublevel) population time series."""
        return self._squares()[:2]

    def to_csv(self, path, atoms=_KEPT_ATOMS, header_lines=()) -> None:
        """The populations, the norm and the amplitudes a_j of the atoms
        as CSV columns; atoms other than _KEPT_ATOMS take one more pass of
        chunks."""
        meta, exc, norm2 = self._squares()
        cols = ["t", "pop_f", "pop_e_m1", "pop_e_0", "pop_e_p1", "norm2"]
        data = [self.times, meta, exc[:, 0], exc[:, 1], exc[:, 2], norm2]
        a = (self._series[1] if tuple(atoms) == _KEPT_ATOMS else
             np.hstack([self.lift(y, rows=list(atoms))
                        for _, y in self.chunks()]))
        for j, a_j in zip(atoms, a):
            cols += [f"re_a_{j}", f"im_a_{j}"]
            data += [a_j.real, a_j.imag]
        write_columns(path, cols, data, header_lines)


def _square_sums(onehot: np.ndarray, y: np.ndarray, out: np.ndarray) -> None:
    """out[:-1] = onehot @ |y|^2 and out[-1] = the column sums of |y|^2;
    |y|^2 is freed on return, before the chunk is handed on."""
    c2 = np.abs(y)
    c2 *= c2
    np.matmul(onehot, c2, out=out[:-1])
    np.sum(c2, axis=0, out=out[-1])


def _chunk_slices(rows: int, n: int) -> list:
    """Slices of n samples, each at most _CHUNK_ENTRIES // rows samples
    (at least one), so that a chunk of rows coordinates per sample holds
    at most _CHUNK_ENTRIES of them."""
    step = max(1, _CHUNK_ENTRIES // max(rows, 1))
    return [slice(lo, min(lo + step, n)) for lo in range(0, n, step)]


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
    the segment keeps the (W_k, lam_k, c0_k).  No sample is computed
    here: the returned Trajectory stores the segments alone and evaluates
    the block coordinates W_k exp(lam_k t) c0_k of its samples in bounded
    chunks when they are read (Trajectory.chunks), so the run holds
    O(dim x chunk) coordinates, not O(dim x samples).  Only each
    segment's end state, the next one's start, is evaluated here.
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
        y = _modal_coords(modes, [hi - lo])[:, 0]
    return Trajectory(H, times, None, kind="eigen", blocks=blocks,
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

