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
envelope scales only the 2N drive entries a_l <-> beta_l^{nu0}.  All
collective physics lives in the excited block, which is the only matrix
stored; the dense generator is built on demand.

Symmetry: when a rotation about z by 2 pi/4 (else 2 pi/2) maps the atom
positions onto themselves, the generator commutes with the unitary U that
moves each atom's amplitudes to its rotated partner and multiplies
sublevel nu by w^nu, w = exp(-2 pi i/order), and a_l by w^nu0 (the drive
couples a_l to beta_l^nu0 with the same factor on every atom).
U^order = I.  When r -> -r maps the positions onto themselves too, as on
every centred lattice, the generator also commutes with the permutation P
that moves each atom's amplitudes to the atom at -r, with no phase on the
sublevels: the Green's tensor is even in the separation.  P commutes with
U, and rotation_blocks builds the orthonormal bases of their joint
eigenspaces, the irreps (k, +-) of C4h (C2h), or of U's alone without the
inversion; the generator is block diagonal in them.  Each block is again a
constant excited part plus the drive, which pairs each orbit of the a_l
with the same orbit of the beta_l^nu0 (EffectiveHamiltonian.block).  The
spectral path (eigenmodes, dynamics.propagate_eigen) uses the blocks split
by inversion, the ODE those of U alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse

from . import _kernels
from .core import AmplitudeState, AtomArray, LaserDrive, SUBLEVELS
from .envelope import write_columns
from .errors import InvalidArgumentError, NumericError

__all__ = ["EffectiveHamiltonian", "ModeSpectrum", "assemble", "eigenmodes",
           "rotation_blocks"]


@dataclass(frozen=True)
class EffectiveHamiltonian:
    """Assembled generator, stored as its excited block and the drive.

    excited_block: C-contiguous, read-only (N*m, N*m) matrix holding the
    detuning, decay and all pair couplings of the excited amplitudes.  The
    drive couples each a_l to beta_l^{nu0} with -(i/2) Omega_L f(t); these
    2N entries are applied from drive, never stored.  block gives the
    generator on one symmetry basis, or whole, in the same form; both
    propagators work with it.  generator_at builds the dense (dim, dim)
    generator, against which the tests check the projected blocks.
    """

    array: AtomArray
    drive: LaserDrive
    sublevels: tuple
    excited_block: np.ndarray
    decay: bool = True

    def __post_init__(self):
        block = np.ascontiguousarray(self.excited_block, dtype=complex)
        block.setflags(write=False)
        object.__setattr__(self, "excited_block", block)

    @property
    def n_atoms(self) -> int:
        return self.array.n_atoms

    @property
    def dim(self) -> int:
        return self.n_atoms + self.excited_block.shape[0]

    @property
    def n_sublevels(self) -> int:
        return len(self.sublevels)

    @cached_property
    def columns(self) -> list:
        """Columns of the model's sublevels in an (N, 3) beta array."""
        return _sublevel_columns(self.sublevels)

    def generator_at(self, f_value: float) -> np.ndarray:
        """Dense generator for one envelope value."""
        return self.block().matrix(f_value)

    def block(self, basis=None) -> "GeneratorBlock":
        """The generator in one basis of rotation_blocks, Q^H G(f) Q, kept
        as a constant excited part and the drive pairing; the whole
        generator when basis is None.

        The columns of Q start with the metastable ones, so the block has
        the generator's own layout.  The drive couples each metastable
        column (an orbit of a_l) only to the nu0 column of the same orbit
        and irrep, with the same -(i/2) Omega_L f(t) as on every atom.
        """
        n = self.n_atoms
        coupling = -0.5j * self.drive.omega_L0
        if basis is None:
            return GeneratorBlock(None, n, self.excited_block,
                                  self._driven if coupling else None, coupling)
        Q_meta = basis[:n]  # csc: the metastable columns have entries here
        n_meta = int(np.count_nonzero(np.diff(Q_meta.indptr)))
        Q_exc = basis[n:, n_meta:]
        excited = Q_exc.conj().T @ self.excited_block @ Q_exc
        driven = None
        if coupling:
            # one entry per metastable column, at its nu0 partner
            pairs = (Q_meta.conj().T
                     @ basis[np.arange(self.dim)[self._driven]]).tocoo()
            driven = pairs.col[np.argsort(pairs.row)]
        return GeneratorBlock(basis, n_meta, np.ascontiguousarray(excited),
                              driven, coupling)

    @cached_property
    def _driven(self) -> slice:
        return _driven_amplitudes(self.n_atoms, self.n_sublevels,
                                  self.sublevels.index(self.drive.target_sublevel))

    # ---- state packing -------------------------------------------------

    def pack(self, state: AmplitudeState) -> np.ndarray:
        """AmplitudeState -> flat vector (drops excluded-sublevel columns,
        which must be empty)."""
        if state.n_atoms != self.n_atoms:
            raise InvalidArgumentError("state size does not match array")
        excluded = [c for c in range(3) if c not in self.columns]
        if excluded and np.max(np.abs(state.beta[:, excluded]), initial=0.0) > 1e-12:
            raise InvalidArgumentError(
                "state has population in sublevels excluded from the model")
        return np.concatenate([state.a, state.beta[:, self.columns].ravel()])

    def beta_matrix(self, vec: np.ndarray) -> np.ndarray:
        """Excited sector of a flat vector as an (N, 3) array."""
        n, m = self.n_atoms, self.n_sublevels
        beta = np.zeros((n, 3), dtype=complex)
        beta[:, self.columns] = vec[n:].reshape(n, m)
        return beta


@dataclass(frozen=True)
class GeneratorBlock:
    """One diagonal block of the generator (EffectiveHamiltonian.block).

    The block's first n_meta amplitudes are metastable, the rest excited.
    excited is the constant excited part; the drive couples metastable
    amplitude i and block amplitude driven[i] with coupling * f(t), both
    ways.  basis is the block's (dim, b) isometry Q, or None for the whole
    generator.
    """

    basis: object
    n_meta: int
    excited: np.ndarray
    driven: object  # slice or index array; None without a drive
    coupling: complex  # -(i/2) Omega_L

    @property
    def dim(self) -> int:
        return self.n_meta + self.excited.shape[0]

    def apply(self, y: np.ndarray, f_value, out=None) -> np.ndarray:
        """matrix(f_value) @ y without forming the matrix, written into
        out when given (it must not overlap y).

        Costs one product with the excited part plus O(N) drive work.  y
        may also be a (dim, K) stack of states with f_value a length-K
        ndarray, one envelope value per column.
        """
        n = self.n_meta
        if out is None:
            out = np.empty(y.shape, dtype=complex)
        np.matmul(self.excited, y[n:], out=out[n:])
        if self.coupling:
            c = self.coupling * f_value
            np.multiply(y[self.driven], c, out=out[:n])
            out[self.driven] += c * y[:n]
        else:
            out[:n] = 0.0
        return out

    def matrix(self, f_value: float) -> np.ndarray:
        """Dense block for one envelope value."""
        n = self.n_meta
        G = np.zeros((self.dim, self.dim), dtype=complex)
        G[n:, n:] = self.excited
        if self.coupling:
            rows = np.arange(n)
            cols = np.arange(self.dim)[self.driven]
            G[rows, cols] = G[cols, rows] = self.coupling * f_value
        return G

    def project(self, psi: np.ndarray) -> np.ndarray:
        """Full-space state(s) -> block coordinates Q^H psi."""
        return psi if self.basis is None else self.basis.conj().T @ psi

    def lift(self, y: np.ndarray, rows=None) -> np.ndarray:
        """Block coordinates -> full space, Q y; only the full-space rows
        listed in rows when given."""
        if self.basis is None:
            return y if rows is None else y[rows]
        return (self.basis if rows is None else self.basis[rows]) @ y


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

    @cached_property
    def condition_estimate(self) -> float:
        """2-norm condition number of the eigenvector matrix."""
        try:
            return float(np.linalg.cond(self.right_vectors))
        except np.linalg.LinAlgError:  # pragma: no cover - rare
            return np.inf

    @property
    def rates(self) -> np.ndarray:
        return -2.0 * np.real(self.eigenvalues)

    @property
    def shifts(self) -> np.ndarray:
        return -np.imag(self.eigenvalues)

    @property
    def subradiant(self) -> np.ndarray:
        return self.rates < 1.0

    def to_csv(self, path, header_lines=()) -> None:
        # the integer columns print as integers under %.17g
        order = np.lexsort((self.shifts, self.rates))
        write_columns(path, ["mode_index", "shift_Delta_m", "rate_Gamma_m",
                             "subradiant_flag"],
                      [np.arange(len(order)), self.shifts[order],
                       self.rates[order], self.subradiant[order].astype(int)],
                      header_lines)


def _driven_amplitudes(n: int, m: int, si0: int) -> slice:
    """Flat positions n + m*l + si0 of the beta_l^{nu0} the drive couples to
    a_l (atom-major layout, m sublevels per atom)."""
    return slice(n + si0, None, m)


def _sublevel_columns(sublevels) -> list:
    return [SUBLEVELS.index(s) for s in sublevels]


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
    nm = array.n_atoms * len(subs)
    # subtract from zeros: -0.5 * M alone leaves -0.0 entries, which shift
    # the rounding of LAPACK's eig
    block = np.zeros((nm, nm), dtype=complex)
    if decay and array.n_atoms > 1:
        blocks = _kernels.pair_blocks(array.positions)
        block -= 0.5 * _kernels.model_matrix(blocks, _sublevel_columns(subs))
    block.flat[::nm + 1] += 1j * drive.delta - (0.5 if decay else 0.0)
    return EffectiveHamiltonian(array=array, drive=drive, sublevels=subs,
                                excited_block=block, decay=decay)


# w^q = _QUARTER_TURNS[q % 4] for w = exp(-2 pi i/4), exact in floating point
_QUARTER_TURNS = np.array([1.0, -1.0j, -1.0, 1.0j])


def _position_permutation(positions: np.ndarray, images: np.ndarray):
    """perm[l] = index of the atom at images[l]; None unless every image is
    exactly an atom's position."""
    index = {tuple(p): l for l, p in enumerate(positions.tolist())}
    perm = [index.get(tuple(p)) for p in images.tolist()]
    return None if None in perm else perm


def _rotation_permutation(positions: np.ndarray, order: int):
    """perm[l] = index of the atom at R r_l, R the rotation by 2 pi/order
    about z; None unless every rotated position is exactly an atom's."""
    x, y, z = positions.T
    return _position_permutation(positions, np.column_stack(
        [-y, x, z] if order == 4 else [-x, -y, z]))


def _orbit(perm, start: int) -> list:
    """start, perm[start], perm[perm[start]], ... up to the return."""
    orbit = [start]
    while perm[orbit[-1]] != start:
        orbit.append(perm[orbit[-1]])
    return orbit


def rotation_blocks(H: EffectiveHamiltonian, excited_only: bool = False,
                    inversion: bool = True):
    """Orbit bases of the array's symmetry about z: the rotation (C4, else
    C2) and, when every -r_l is exactly an atom's position, the inversion
    r -> -r (C4h, C2h); None when the array has no rotation symmetry.

    Returns one sparse (dim, b) isometry Q per nonempty irrep (k, p), in
    the order (0, +), (0, -), (1, +), ...: U Q = w^k Q and P Q = p Q.
    The b sum to dim, and the generator splits into the blocks Q^H G Q.
    Each rotation orbit l -> perm[l] -> ... of length L and each sector
    (a, then the sublevels nu) give the columns
    c = sum_j w^{(nu - k) j} e_{perm^j l} / sqrt(L), one for each k with
    L (nu - k) = 0 mod order; a fixed-point atom (L = 1) thus enters only
    the irrep of its own phase.  P commutes with U, so the inversion image
    of an orbit is again one, enumerated from inv[l], and maps c to the
    partner column c' of the same k and sector.  An orbit that is its own
    image (q steps along it from l to inv[l]) has c' = w^{-(nu - k) q} c =
    +-c, so c is already a parity eigenvector; an atom at the origin enters
    only the even irreps.  Otherwise the pair gives (c +- c')/sqrt(2).  The
    metastable (a) columns of each Q come first, in orbit order, then the
    excited ones, so Q^H G Q has the generator's own layout.  excited_only
    builds the bases of the excited block instead of the full generator;
    inversion=False keeps the rotation irreps k alone, unsplit (what the
    ODE integrates: its per-step products cost less on fewer, larger
    blocks).
    """
    pos = H.array.positions
    for order in (4, 2):
        perm = _rotation_permutation(pos, order)
        if perm is not None:
            break
    else:
        return None
    inv = _position_permutation(pos, -pos) if inversion else None
    n, m = H.n_atoms, H.n_sublevels
    rows = np.arange(n * m).reshape(n, m)
    nus = list(H.sublevels)
    n_meta = 0 if excited_only else n  # rows of the a_l
    if not excited_only:
        rows = np.column_stack([np.arange(n), n + rows])
        nus.insert(0, H.drive.target_sublevel)
    step = 4 // order
    # per irrep (k, p), p = 0 even, 1 odd: the columns as (rows, coefficients)
    columns = [[] for _ in range(2 * order)]
    seen = np.zeros(n, dtype=bool)
    for start in range(n):
        if seen[start]:
            continue
        orbit = _orbit(perm, start)
        partner = [] if inv is None else _orbit(perm, inv[start])
        seen[orbit + partner] = True
        L = len(orbit)
        for s, nu in enumerate(nus):
            for k in range(order):
                if (L * (nu - k)) % order:
                    continue
                phase = _QUARTER_TURNS[(step * (nu - k) * np.arange(L)) % 4]
                if not partner:
                    columns[2 * k].append((rows[orbit, s], phase / np.sqrt(L)))
                elif partner[0] in orbit:
                    # P c = w^{-(nu - k) q} c = +-c, q the steps along
                    # the orbit from start to inv[start]
                    q = orbit.index(partner[0])
                    odd = (step * (nu - k) * q) % 4 == 2
                    columns[2 * k + odd].append(
                        (rows[orbit, s], phase / np.sqrt(L)))
                else:
                    pair = np.concatenate([rows[orbit, s], rows[partner, s]])
                    c = phase / np.sqrt(2 * L)
                    columns[2 * k].append((pair, np.concatenate([c, c])))
                    columns[2 * k + 1].append((pair, np.concatenate([c, -c])))
    bases = []
    for cols in filter(None, columns):
        cols.sort(key=lambda col: col[0][0] >= n_meta)  # stable
        col_rows, col_values = zip(*cols)
        index = (np.concatenate(col_rows),
                 np.repeat(np.arange(len(cols)), [len(r) for r in col_rows]))
        bases.append(scipy.sparse.csc_array(
            (np.concatenate(col_values), index), shape=(rows.size, len(cols))))
    return tuple(bases)


def eigenmodes(H: EffectiveHamiltonian) -> ModeSpectrum:
    """Complex eigendecomposition of the excited-sector generator.

    With a rotation symmetry each irrep block Q^H M Q of rotation_blocks
    (split by inversion too, when the array has it) is diagonalized on its
    own and right_vectors collects the Q V; otherwise the whole excited
    block is.
    """
    blocks = rotation_blocks(H, excited_only=True)
    M = H.excited_block
    lams, vecs = [], []
    for Q in (blocks or (None,)):
        try:
            lam, V = np.linalg.eig(M if Q is None else Q.conj().T @ M @ Q)
        except np.linalg.LinAlgError as exc:  # pragma: no cover - rare
            raise NumericError(f"eigendecomposition failed: {exc}") from exc
        lams.append(lam)
        vecs.append(V if Q is None else Q @ V)
    return ModeSpectrum(eigenvalues=np.concatenate(lams),
                        right_vectors=np.hstack(vecs))
