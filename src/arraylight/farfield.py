"""Helicity-resolved far-field emission.

The detected field at radius r and direction r_hat samples the atomic
amplitudes at the retarded time u = t - r/c.  With the 1/r^2 geometric
factor divided out, the photon flux density per steradian and helicity is

    I_eps(r_hat, u) = (3 Gamma / 8 pi) |sum_{j,nu} beta_j^nu(u)
                      exp(+i k0 r_hat . r_j) (eps^dag e_nu)|^2

where eps is the transverse circular polarization vector of the detected
photon.  Transversality makes the explicit (I - r_hat r_hat) projector
redundant once eps is transverse.  The normalization 3Gamma/(8 pi) is
fixed by photon balance: a single excited atom emits exactly one photon,
and the helicity-summed single-atom pattern is (1 + cos^2 theta)/2
relative to 2/(8pi/3).

Angular maps use a Gauss-Legendre grid in cos(theta) crossed with a
uniform phi grid.  The plane-wave sums sum_j exp(i k0 r_hat . r_j) s_j
behind them (_kernels.direction_sums) factorize along the axes on a
lattice: with the array's dims and spacing they are contracted one axis at
a time, z once per ring of the grid (one cos theta), then y and x per
ring, and a free-form array takes the direct sum.  Waveforms need no grid:
the full-sphere flux per helicity is a quadratic form of the excited
amplitudes whose operators have a closed form in the dissipative part f
of the coupling tensor and the spherical Bessel function j1.  Like the
coupling, they depend on a pair of atoms only through its displacement.
Their helicity sum and difference, even and odd under inversion, are
projected onto the trajectory's symmetry blocks from the array's tables
(AtomArray.pair_tables) as the generator's blocks are
(hamiltonian.project_table): the sum couples each block to itself, the
difference to its parity partner, and every other block pair is zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from . import _kernels
from .core import AtomArray
from .dynamics import Trajectory, _chunk_slices
from .envelope import write_columns
from .errors import InvalidArgumentError
from .hamiltonian import project_table

__all__ = [
    "NORMALIZATION",
    "AngularGrid",
    "HelicityFrame",
    "AngularMap",
    "Waveform",
    "helicity_frame",
    "intensity",
    "intensity_map",
    "angular_map",
    "integrate_flux",
    "waveform",
]

NORMALIZATION = 3.0 / (8.0 * np.pi)

@dataclass(frozen=True)
class HelicityFrame:
    """Transverse circular polarization pair for one direction."""

    r_hat: np.ndarray
    eps_plus: np.ndarray
    eps_minus: np.ndarray


def _theta_phi_frames(theta, phi):
    """eps_plus, eps_minus as (M, 3) arrays for spherical angles."""
    st, ct = np.sin(theta), np.cos(theta)
    sp, cp = np.sin(phi), np.cos(phi)
    # polar limit: phi = 0 tangent frame
    pole = np.abs(st) < 1e-15
    sp = np.where(pole, 0.0, sp)
    cp = np.where(pole, 1.0, cp)
    e_th = np.stack([ct * cp, ct * sp, -st], axis=-1)
    e_ph = np.stack([-sp, cp, np.zeros_like(sp)], axis=-1)
    s = 1.0 / np.sqrt(2.0)
    return s * (e_th + 1j * e_ph), s * (e_th - 1j * e_ph)


def helicity_frame(r_hat) -> HelicityFrame:
    """Circular detection basis transverse to r_hat.

    eps_pm = (e_theta +- i e_phi)/sqrt(2) built from the spherical tangent
    vectors; at the poles the phi = 0 limit frame is used.
    """
    r = np.asarray(r_hat, dtype=float)
    nrm = np.linalg.norm(r)
    if nrm == 0.0:
        raise InvalidArgumentError("r_hat must be nonzero")
    if abs(nrm - 1.0) > 1e-12:
        raise InvalidArgumentError("r_hat must be a unit vector")
    theta = np.arccos(np.clip(r[2], -1.0, 1.0))
    phi = np.arctan2(r[1], r[0])
    ep, em = _theta_phi_frames(np.array([theta]), np.array([phi]))
    return HelicityFrame(r_hat=r, eps_plus=ep[0], eps_minus=em[0])


class AngularGrid:
    """Gauss-Legendre(cos theta) x uniform(phi) product quadrature."""

    def __init__(self, n_theta: int = 64, n_phi: int = 128):
        if n_theta < 2 or n_phi < 2:
            raise InvalidArgumentError("need at least 2 nodes per angle")
        self.n_theta = int(n_theta)
        self.n_phi = int(n_phi)
        x, w = leggauss(self.n_theta)
        theta_1d = np.arccos(x[::-1])           # ascending theta
        w_1d = w[::-1]
        phi_1d = 2.0 * np.pi * np.arange(self.n_phi) / self.n_phi
        T, P = np.meshgrid(theta_1d, phi_1d, indexing="ij")
        self.theta = T.ravel()
        self.phi = P.ravel()
        self.weights = np.repeat(w_1d * (2.0 * np.pi / self.n_phi), self.n_phi)
        st = np.sin(self.theta)
        self.dirs = np.column_stack(
            [st * np.cos(self.phi), st * np.sin(self.phi), np.cos(self.theta)])
        self.eps_plus, self.eps_minus = _theta_phi_frames(self.theta, self.phi)

    def __len__(self) -> int:
        return len(self.theta)


@dataclass(frozen=True)
class AngularMap:
    """Per-helicity intensity snapshot at one retarded time."""

    theta: np.ndarray
    phi: np.ndarray
    weights: np.ndarray
    I_plus: np.ndarray
    I_minus: np.ndarray
    retarded_time: float

    @property
    def total(self) -> np.ndarray:
        return self.I_plus + self.I_minus

    def to_csv(self, path, header_lines=()) -> None:
        write_columns(path, ["theta", "phi", "I_plus", "I_minus", "weight"],
                      [self.theta, self.phi, self.I_plus, self.I_minus,
                       self.weights], header_lines)


@dataclass(frozen=True)
class Waveform:
    """Angular-integrated flux versus retarded time.

    cumulative integrates the total flux (trapezoid on u_grid);
    state_side is the photon count inferred from the state norm,
    1 - sum|a|^2 - sum|beta|^2.  The two agree within the photon-balance
    tolerance whenever the sampling resolves the flux transients.
    """

    u_grid: np.ndarray
    flux_plus: np.ndarray
    flux_minus: np.ndarray
    cumulative: np.ndarray
    state_side: np.ndarray

    @property
    def flux_total(self) -> np.ndarray:
        return self.flux_plus + self.flux_minus

    def to_csv(self, path, header_lines=()) -> None:
        write_columns(path, ["u", "flux_plus", "flux_minus", "flux_total",
                             "n_cumulative", "n_stateside"],
                      [self.u_grid, self.flux_plus, self.flux_minus,
                       self.flux_total, self.cumulative, self.state_side],
                      header_lines)


def _cumulative_trapezoid(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Trapezoid integral of y over x from x[0] to each x, starting at 0
    (the arithmetic of scipy's cumulative_trapezoid)."""
    return np.concatenate([[0.0], np.cumsum(np.diff(x) * (y[1:] + y[:-1])
                                            / 2.0)])


def _cartesian_source(beta: np.ndarray) -> np.ndarray:
    """Contract sublevel amplitudes with the spherical basis: (N, 3)
    Cartesian source vectors s_j = sum_nu beta_j^nu e_nu."""
    return beta @ _kernels._EMATRIX.T


def intensity(beta_at_u, array: AtomArray, frame: HelicityFrame):
    """Flux density (photons per Gamma^-1 per steradian) for one direction.

    Returns (I_plus, I_minus) for the frame's two helicities.
    """
    beta = np.asarray(beta_at_u, dtype=complex)
    if beta.shape != (array.n_atoms, 3):
        raise InvalidArgumentError("beta must have shape (N, 3)")
    Ip, Im = _map_values(beta, array, frame.r_hat[None, :],
                         frame.eps_plus[None, :], frame.eps_minus[None, :])
    return Ip[0], Im[0]


def _map_values(beta, array: AtomArray, dirs, eps_plus, eps_minus):
    """(I_plus, I_minus) of a snapshot in the directions dirs (M, 3), with
    the helicity vectors eps_plus and eps_minus (M, 3) of each."""
    s = _cartesian_source(beta)
    V = _kernels.direction_sums(dirs, array.positions, s, array.dims,
                                array.spacing)
    Ap = np.einsum("mc,mc->m", eps_plus.conj(), V)
    Am = np.einsum("mc,mc->m", eps_minus.conj(), V)
    return NORMALIZATION * np.abs(Ap) ** 2, NORMALIZATION * np.abs(Am) ** 2


def intensity_map(beta, array: AtomArray, grid: AngularGrid | None = None,
                  retarded_time: float = 0.0) -> AngularMap:
    """Helicity-resolved intensity map of an amplitude snapshot."""
    grid = grid or AngularGrid()
    beta = np.asarray(beta, dtype=complex)
    if beta.shape != (array.n_atoms, 3):
        raise InvalidArgumentError("beta must have shape (N, 3)")
    Ip, Im = _map_values(beta, array, grid.dirs, grid.eps_plus,
                         grid.eps_minus)
    return AngularMap(theta=grid.theta, phi=grid.phi, weights=grid.weights,
                      I_plus=Ip, I_minus=Im, retarded_time=float(retarded_time))


def angular_map(traj: Trajectory, u: float, grid: AngularGrid | None = None) -> AngularMap:
    """Helicity-resolved intensity snapshot at retarded time u."""
    return intensity_map(traj.beta_at(u), traj.H.array, grid,
                         retarded_time=u)


def integrate_flux(amap: AngularMap):
    """Quadrature total flux per helicity: (flux_plus, flux_minus)."""
    return float(amap.weights @ amap.I_plus), float(amap.weights @ amap.I_minus)


def _quadratic_forms(Q: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Re(b^dag Q b) for every column b of B, without a conjugated copy
    of B."""
    QB = Q @ B
    return np.einsum("ik,ik->k", B.real, QB.real) \
        + np.einsum("ik,ik->k", B.imag, QB.imag)


def _flux_operators(H, blocks) -> list:
    """[F_plus, F_minus] on the stacked excited columns Q_e = [Q_e,1 Q_e,2
    ...] of the generator blocks, Q_e^H F_sigma Q_e: half the sum and
    difference of the helicity sum and difference, each projected from its
    flux table one block row Q_e,k^H F Q_e at a time
    (hamiltonian.project_table, with parity +1 and -1).  With a symmetry,
    neither F_sigma at (N m, N m) nor any per-pair array is formed."""
    tables = H.array.pair_tables
    Qs = [blk.basis.excited(H.n_atoms) for blk in blocks]
    total, diff = (0.5 * np.vstack([project_table(H, F, Q, Qs, parity)
                                    for Q in Qs])
                   for F, parity in ((tables.flux_total, 1),
                                     (tables.flux_diff, -1)))
    return [total + diff, np.subtract(total, diff, out=total)]


def waveform(traj: Trajectory, u_grid=None,
             allow_truncation: bool = False) -> Waveform:
    """Angular-integrated flux and cumulative photon number versus u.

    The flux of each helicity is the quadratic form of the excited
    amplitudes with its exact flux operator, built once on the stacked
    excited columns of all the trajectory's blocks (_flux_operators)
    and applied to each chunk of the coordinates (Trajectory.chunks, which
    evaluates a spectral trajectory's samples there), so the state is
    never lifted and no (dim, K) table is formed.  The flux operators
    commute with the rotation about z, and their sum with inversion, but
    the helicity difference is odd under inversion: it couples each block
    split by inversion to its parity partner, so the per-helicity forms
    are not block diagonal.  The state side is 1 - |coordinates|^2, the
    bases being orthonormal (Trajectory.norm_squared, whose series the
    pass keeps).  The total flux equals -d|psi|^2/dt exactly.
    u_grid defaults to the trajectory's own sample times; other times are
    read through Trajectory.coords_at, then taken a chunk at a time.
    The trajectory should be long enough that the residual excitation is
    below 1e-3; pass allow_truncation=True to accept a truncated waveform.
    """
    ops = _flux_operators(traj.H, traj.blocks)
    if u_grid is None:
        u, chunks = traj.times, traj.chunks()
    else:
        u = np.asarray(u_grid, dtype=float)
        y = traj.coords_at(u)
        chunks = ((s, y[:, s]) for s in _chunk_slices(len(y), len(u)))
    fp, fm = np.empty(len(u)), np.empty(len(u))
    for s, y_s in chunks:
        beta = np.vstack([y_k[blk.n_meta:] for blk, y_k
                          in zip(traj.blocks, traj.split(y_s))])
        fp[s], fm[s] = (_quadratic_forms(F, beta) for F in ops)
    norm2 = (traj.norm_squared() if u_grid is None
             else np.sum(np.abs(y) ** 2, axis=0))
    residual = float(norm2[-1])
    if residual > 1e-3 and not allow_truncation:
        raise InvalidArgumentError(
            f"residual norm {residual:.3e} > 1e-3 at u = {u[-1]:g}; "
            f"extend t_end or pass allow_truncation=True")
    ns = 1.0 - norm2
    total = fp + fm
    return Waveform(u_grid=u, flux_plus=fp, flux_minus=fm,
                    cumulative=_cumulative_trapezoid(total, u), state_side=ns)
