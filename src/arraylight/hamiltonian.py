"""Rotating-frame generator of the single-excitation amplitude dynamics.

State layout: the flat vector stacks the N metastable amplitudes a_l first,
then the excited amplitudes beta_tilde_l^eta for each atom, sublevels in
ascending order, atom-major.  In the frame rotating at the drive frequency
(beta_tilde = beta * exp(i*delta*t)) the equations of motion are

    da_l/dt          = -(i/2) Omega_L f(t) beta_tilde_l^{nu0}
    dbeta_l^eta/dt   = -(i/2) Omega_L f(t) delta_{eta,nu0} a_l
                       + (i*delta - Gamma/2) beta_tilde_l^eta
                       - (Gamma/2) sum_{j != l, nu} G^{lj}_{eta nu} beta_tilde_j^nu

with G the spherical-basis pair coupling blocks.  For a constant envelope
the generator is a single time-independent matrix; a time-dependent
envelope scales only the drive block.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg

from . import _kernels
from .core import AmplitudeState, AtomArray, LaserDrive, SUBLEVELS
from .errors import InvalidArgumentError, NumericError

__all__ = ["EffectiveHamiltonian", "ModeSpectrum", "assemble",
           "split_hermitian", "eigenmodes"]


@dataclass(frozen=True)
class EffectiveHamiltonian:
    """Assembled generator, split into a static part and a drive part.

    static_part: (N + N*m) square matrix holding detuning, decay and all
    pair couplings; drive_part: the a <-> beta coupling at peak Rabi
    frequency (the envelope value multiplies it during propagation).
    """

    array: AtomArray
    drive: LaserDrive
    sublevels: tuple
    static_part: np.ndarray
    drive_part: np.ndarray
    decay: bool = True

    @property
    def n_atoms(self) -> int:
        return self.array.n_atoms

    @property
    def dim(self) -> int:
        return self.static_part.shape[0]

    @property
    def n_sublevels(self) -> int:
        return len(self.sublevels)

    def generator_at(self, f_value: float) -> np.ndarray:
        """Full generator for one envelope value."""
        return self.static_part + f_value * self.drive_part

    def apply(self, y: np.ndarray, f_value) -> np.ndarray:
        """generator_at(f_value) @ y without forming the generator.

        Costs one excited-block product plus O(N) drive work.  y may also
        be a (dim, K) stack of states with f_value a length-K ndarray, one
        envelope value per column.
        """
        n = self.n_atoms
        out = np.empty(y.shape, dtype=complex)
        np.matmul(self._excited_contiguous, y[n:], out=out[n:])
        if self.drive.omega_L0 > 0:
            driven = self._driven
            c = (-0.5j * self.drive.omega_L0) * f_value
            out[:n] = c * y[driven]
            out[driven] += c * y[:n]
        else:
            out[:n] = 0.0
        return out

    @property
    def generator(self) -> np.ndarray:
        """Generator at the envelope's initial value (time independent for
        constant envelopes)."""
        return self.generator_at(self.drive.envelope(self.drive.envelope.t_start))

    @property
    def excited_block(self) -> np.ndarray:
        n = self.n_atoms
        return self.static_part[n:, n:]

    @cached_property
    def _excited_contiguous(self) -> np.ndarray:
        return np.ascontiguousarray(self.excited_block)

    @cached_property
    def _driven(self) -> slice:
        return _driven_amplitudes(self.n_atoms, self.n_sublevels,
                                  self.sublevels.index(self.drive.target_sublevel))

    @property
    def drive_block(self) -> np.ndarray:
        n = self.n_atoms
        return self.drive_part[:n, n:]

    # ---- state packing -------------------------------------------------

    def pack(self, state: AmplitudeState) -> np.ndarray:
        """AmplitudeState -> flat vector (drops excluded-sublevel columns,
        which must be empty)."""
        if state.n_atoms != self.n_atoms:
            raise InvalidArgumentError("state size does not match array")
        cols = [SUBLEVELS.index(s) for s in self.sublevels]
        excluded = [c for c in range(3) if c not in cols]
        if excluded and np.max(np.abs(state.beta[:, excluded]), initial=0.0) > 1e-12:
            raise InvalidArgumentError(
                "state has population in sublevels excluded from the model")
        return np.concatenate([state.a, state.beta[:, cols].ravel()])

    def unpack(self, vec: np.ndarray, t: float) -> AmplitudeState:
        n, m = self.n_atoms, self.n_sublevels
        beta = np.zeros((n, 3), dtype=complex)
        cols = [SUBLEVELS.index(s) for s in self.sublevels]
        beta[:, cols] = vec[n:].reshape(n, m)
        return AmplitudeState(vec[:n].copy(), beta, t=t)

    def beta_matrix(self, vec: np.ndarray) -> np.ndarray:
        """Excited sector of a flat vector as an (N, 3) array."""
        n, m = self.n_atoms, self.n_sublevels
        beta = np.zeros((n, 3), dtype=complex)
        cols = [SUBLEVELS.index(s) for s in self.sublevels]
        beta[:, cols] = vec[n:].reshape(n, m)
        return beta


@dataclass(frozen=True)
class ModeSpectrum:
    """Eigenmodes of the excited-sector generator.

    Amplitude convention: eigenvalue lambda_m = -i*Delta_m - Gamma_m/2,
    so Gamma_m = -2 Re(lambda_m) is the collective decay rate and
    Delta_m = -Im(lambda_m) the collective shift.  Modes with
    Gamma_m < Gamma are subradiant.
    """

    eigenvalues: np.ndarray
    right_vectors: np.ndarray
    condition_estimate: float

    @property
    def rates(self) -> np.ndarray:
        return -2.0 * np.real(self.eigenvalues)

    @property
    def shifts(self) -> np.ndarray:
        return -np.imag(self.eigenvalues)

    @property
    def subradiant(self) -> np.ndarray:
        return self.rates < 1.0

    @property
    def superradiant(self) -> np.ndarray:
        return self.rates > 1.0

    def to_csv(self, path, header_lines=()) -> None:
        order = np.lexsort((self.shifts, self.rates))
        with open(path, "w") as fh:
            for line in header_lines:
                fh.write(f"# {line}\n")
            fh.write("mode_index,shift_Delta_m,rate_Gamma_m,subradiant_flag\n")
            for i, k in enumerate(order):
                fh.write(f"{i},{self.shifts[k]:.17g},{self.rates[k]:.17g},"
                         f"{int(self.subradiant[k])}\n")


def _driven_amplitudes(n: int, m: int, si0: int) -> slice:
    """Flat positions n + m*l + si0 of the beta_l^{nu0} the drive couples to
    a_l (atom-major layout, m sublevels per atom)."""
    return slice(n + si0, None, m)


def assemble(array: AtomArray, drive: LaserDrive,
             include_sublevels=SUBLEVELS, decay: bool = True) -> EffectiveHamiltonian:
    """Build the rotating-frame generator.

    include_sublevels restricts the excited manifold (two-level physics
    uses just the driven sublevel).  decay=False drops every Gamma term
    (self-decay and pair couplings), leaving the bare Rabi problem; it
    exists to enable closed-form cross-checks.
    """
    subs = tuple(sorted(set(int(s) for s in include_sublevels)))
    if not subs or any(s not in SUBLEVELS for s in subs):
        raise InvalidArgumentError("include_sublevels must be a nonempty "
                                   "subset of {-1, 0, +1}")
    if drive.omega_L0 > 0 and drive.target_sublevel not in subs:
        raise InvalidArgumentError("driven sublevel is excluded from the model")
    n, m = array.n_atoms, len(subs)
    dim = n + n * m
    static = np.zeros((dim, dim), dtype=complex)

    diag = 1j * drive.delta - (0.5 if decay else 0.0)
    ex = np.full(n * m, diag, dtype=complex)
    static[n:, n:] += np.diag(ex)
    if decay and n > 1:
        blocks = _kernels.pair_blocks(array.positions)
        cols = [SUBLEVELS.index(s) for s in subs]
        static[n:, n:] += -0.5 * _kernels.model_matrix(blocks, cols)

    drive_part = np.zeros((dim, dim), dtype=complex)
    if drive.omega_L0 > 0:
        rows = np.arange(n)
        driven = _driven_amplitudes(n, m, subs.index(drive.target_sublevel))
        cols = np.arange(dim)[driven]
        drive_part[rows, cols] = -0.5j * drive.omega_L0
        drive_part[cols, rows] = -0.5j * drive.omega_L0

    return EffectiveHamiltonian(array=array, drive=drive, sublevels=subs,
                                static_part=static, drive_part=drive_part,
                                decay=decay)


def split_hermitian(H: EffectiveHamiltonian):
    """Hermitian / anti-Hermitian split of the excited-sector Hamiltonian.

    The split is applied to M = -i * excited_block, the Hamiltonian-like
    matrix generating beta_tilde' = i M beta_tilde.  With this sign choice
    the Hermitian part carries the detuning and the dispersive pair terms
    +(Gamma/2) g, and the anti-Hermitian part carries the decay,
    i(Gamma/2)(I + f pair terms).  The parts recombine exactly to M.
    """
    M = -1j * H.excited_block
    herm = 0.5 * (M + M.conj().T)
    anti = 0.5 * (M - M.conj().T)
    return herm, anti


def eigenmodes(H: EffectiveHamiltonian) -> ModeSpectrum:
    """Full complex eigendecomposition of the excited-sector generator."""
    try:
        lam, vecs = scipy.linalg.eig(H.excited_block)
    except scipy.linalg.LinAlgError as exc:  # pragma: no cover - rare
        raise NumericError(f"eigendecomposition failed: {exc}") from exc
    try:
        cond = float(np.linalg.cond(vecs))
    except np.linalg.LinAlgError:  # pragma: no cover - rare
        cond = np.inf
    return ModeSpectrum(eigenvalues=lam, right_vectors=vecs,
                        condition_estimate=cond)
