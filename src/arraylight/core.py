"""Unit conventions, atom arrays, drives, and the shared amplitude state.

Natural units throughout: the single-atom decay rate Gamma is the unit of
frequency (time in Gamma^-1) and the transition wavelength lambda0 is the
unit of length, so k0 = 2*pi exactly.

Each atom has a ground state g, a metastable state f holding the shared
excitation (amplitudes a_j), and three excited Zeeman sublevels e_nu,
nu in {-1, 0, +1} (amplitudes beta_j_nu).  A classical field couples f to
one chosen sublevel; emission happens on e -> g.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import _kernels
from .envelope import PulseEnvelope
from .errors import InvalidArgumentError

__all__ = [
    "AtomArray",
    "AmplitudeState",
    "LaserDrive",
    "SUBLEVELS",
    "build_lattice",
    "timed_dicke_state",
    "single_f_excitation",
]

SUBLEVELS = (-1, 0, 1)


@dataclass(frozen=True)
class AtomArray:
    """Fixed atom positions in lambda0 units.

    positions: (N, 3) float array; dims/spacing record the generating
    lattice when applicable ((0,0,0)/0 for free-form arrays).
    """

    positions: np.ndarray
    dims: tuple = (0, 0, 0)
    spacing: float = 0.0

    def __post_init__(self):
        pos = np.atleast_2d(np.asarray(self.positions, dtype=float))
        if pos.ndim != 2 or pos.shape[1] != 3 or pos.shape[0] == 0:
            raise InvalidArgumentError("positions must be a nonempty (N, 3) array")
        if not np.all(np.isfinite(pos)):
            raise InvalidArgumentError("positions must be finite")
        if pos.shape[0] > 1:
            diff = pos[:, None, :] - pos[None, :, :]
            dist = np.linalg.norm(diff, axis=-1)
            np.fill_diagonal(dist, np.inf)
            if dist.min() <= 0.0:
                raise InvalidArgumentError("coincident atom positions")
        pos.setflags(write=False)
        object.__setattr__(self, "positions", pos)

    @property
    def n_atoms(self) -> int:
        return self.positions.shape[0]

    def __len__(self) -> int:
        return self.n_atoms

    @cached_property
    def pair_tables(self) -> "_kernels.PairTables":
        """The coupling and flux-difference tensors on the array's distinct
        displacements (_kernels.pair_tables), built once: on the lattice's
        integer offsets when dims/spacing describe one and every position
        is on it, else one row per ordered pair."""
        return _kernels.pair_tables(self.positions, self.dims, self.spacing)


@dataclass(frozen=True)
class LaserDrive:
    """Classical control field f -> e coupling.

    omega_L0: peak Rabi frequency (Gamma units); delta: detuning
    omega_fe - omega_L; envelope: dimensionless f(t) in [0, 1];
    target_sublevel: which excited sublevel the drive addresses.
    """

    omega_L0: float
    delta: float = 0.0
    envelope: PulseEnvelope = field(default_factory=PulseEnvelope.constant)
    target_sublevel: int = 1

    def __post_init__(self):
        if not 0 <= self.omega_L0 < np.inf:
            raise InvalidArgumentError("omega_L0 must be finite and >= 0")
        if not np.isfinite(self.delta):
            raise InvalidArgumentError("delta must be finite")
        if self.envelope is None:
            object.__setattr__(self, "envelope", PulseEnvelope.constant())
        if self.target_sublevel not in SUBLEVELS:
            raise InvalidArgumentError("target_sublevel must be one of -1, 0, +1")


class AmplitudeState:
    """Single-excitation amplitudes at one instant.

    a:    (N,) complex metastable amplitudes
    beta: (N, 3) complex excited amplitudes, columns ordered nu = -1, 0, +1
    t:    time (Gamma^-1)
    Amplitudes are in the detuning-rotating frame
    beta_tilde = beta * exp(i*delta*t), in which the constant-drive
    generator is time independent.
    """

    __slots__ = ("a", "beta", "t")

    def __init__(self, a, beta=None, t=0.0):
        a = np.asarray(a, dtype=complex)
        if a.ndim != 1 or len(a) == 0:
            raise InvalidArgumentError("a must be a nonempty complex vector")
        if beta is None:
            beta = np.zeros((len(a), 3), dtype=complex)
        beta = np.asarray(beta, dtype=complex)
        if beta.shape != (len(a), 3):
            raise InvalidArgumentError("beta must have shape (N, 3)")
        self.a = a
        self.beta = beta
        self.t = float(t)

    @property
    def n_atoms(self) -> int:
        return len(self.a)

    @property
    def norm_squared(self) -> float:
        return float(np.sum(np.abs(self.a) ** 2) + np.sum(np.abs(self.beta) ** 2))

    def copy(self) -> "AmplitudeState":
        return AmplitudeState(self.a.copy(), self.beta.copy(), self.t)


def build_lattice(nx: int, ny: int, nz: int, d: float) -> AtomArray:
    """Rectangular lattice of nx*ny*nz atoms with spacing d, centered at
    the origin.  Ordering is deterministic: x fastest, then y, then z.
    """
    if min(nx, ny, nz) < 1:
        raise InvalidArgumentError("lattice dimensions must be >= 1")
    if not 0 < d < np.inf:
        raise InvalidArgumentError("lattice spacing must be finite and positive")
    xs = d * (np.arange(nx) - (nx - 1) / 2.0)
    ys = d * (np.arange(ny) - (ny - 1) / 2.0)
    zs = d * (np.arange(nz) - (nz - 1) / 2.0)
    Z, Y, X = np.meshgrid(zs, ys, xs, indexing="ij")
    pos = np.column_stack([X.ravel(), Y.ravel(), Z.ravel()])
    return AtomArray(pos, dims=(nx, ny, nz), spacing=float(d))


def timed_dicke_state(array: AtomArray, k_gf) -> AmplitudeState:
    """Collective f-excitation with plane-wave phases.

    a_j = exp(-i k_gf . r_j)/sqrt(N); the stored phase gradient fixes the
    emission direction (k_em = k_gf for a copropagating drive).
    """
    k = np.asarray(k_gf, dtype=float)
    if k.shape != (3,):
        raise InvalidArgumentError("k_gf must be a 3-vector")
    if not np.all(np.isfinite(k)):
        raise InvalidArgumentError("k_gf must be finite")
    a = np.exp(-1j * (array.positions @ k)) / np.sqrt(array.n_atoms)
    return AmplitudeState(a)


def single_f_excitation(array: AtomArray, j: int) -> AmplitudeState:
    """All population on the f state of atom j."""
    if not 0 <= j < array.n_atoms:
        raise InvalidArgumentError(f"atom index {j} out of range")
    a = np.zeros(array.n_atoms, dtype=complex)
    a[j] = 1.0
    return AmplitudeState(a)
