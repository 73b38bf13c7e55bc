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
collective physics lives in the excited block, which is not stored: the
excited part of each block below is projected straight from the array's
coupling table (project_table), and the dense generator is built on
demand.

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
inversion, as the images of the character-table projectors; the generator
is block diagonal in them.  Each basis column is one orbit (a rotation
orbit, or one and its inversion image) in one sector, sqrt(L) times the
projector image of its first row, L its length.  The columns of a basis
have disjoint supports, so a basis is stored as index arrays with its
irrep label (OrbitBasis) and its products are gathers, scatters and sums
over orbits.  A pair table that commutes with U and has parity s under P
projects from the first rows alone: its block between irreps (k, p) and
(k, s p) is sqrt(L) times those rows of it, projected onto the second
basis, and every other block is zero (project_table).  An array without
the rotation symmetry has one basis, the identity, one column per row, so
every consumer works on the same kind of blocks.  Each block is again a
constant excited part plus the drive, which pairs each orbit of the a_l
with the same orbit of the beta_l^nu0 (EffectiveHamiltonian.block).  The
spectral path uses the blocks split by inversion, the ODE those of U alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import AmplitudeState, AtomArray, LaserDrive, SUBLEVELS
from .envelope import write_columns
from .errors import InvalidArgumentError, NumericError

__all__ = ["EffectiveHamiltonian", "ModeSpectrum", "OrbitBasis", "assemble",
           "eigenbasis_condition", "eigenmodes", "project_table",
           "rotation_blocks"]


@dataclass(frozen=True)
class EffectiveHamiltonian:
    """Assembled generator: the array, the drive and the model's sublevels.

    No matrix is stored.  block gives the generator on one symmetry basis,
    or whole, as a constant excited part, projected from the array's
    coupling table (project_table) when first asked for, and the drive,
    which couples each a_l to beta_l^{nu0} with -(i/2) Omega_L f(t); both
    propagators work with it.  block().matrix(f) is the dense (dim, dim)
    generator.
    """

    array: AtomArray
    drive: LaserDrive
    sublevels: tuple

    @property
    def n_atoms(self) -> int:
        return self.array.n_atoms

    @property
    def dim(self) -> int:
        return self.n_atoms * (1 + self.n_sublevels)

    @property
    def n_sublevels(self) -> int:
        return len(self.sublevels)

    @property
    def excited_block(self) -> np.ndarray:
        """The C-contiguous, read-only (N*m, N*m) excited part of the whole
        generator, block().excited: the detuning, decay and all pair
        couplings of the excited amplitudes."""
        return self.block().excited

    @cached_property
    def columns(self) -> list:
        """Columns of the model's sublevels in an (N, 3) beta array."""
        return _sublevel_columns(self.sublevels)

    @cached_property
    def _whole(self) -> "OrbitBasis":
        """The identity basis of the whole space."""
        return OrbitBasis.identity(self.dim)

    @cached_property
    def _symmetry_bases(self) -> dict:
        """rotation_blocks' bases of the full generator, built once per
        value of its inversion flag."""
        return {}

    @cached_property
    def _basis_blocks(self) -> dict:
        """block(Q) by basis (an OrbitBasis hashes by identity)."""
        return {}

    def block(self, basis=None) -> "GeneratorBlock":
        """The generator in one basis of rotation_blocks, Q^H G(f) Q, kept
        as a constant excited part and the drive pairing; by default on
        the identity basis, the whole generator.

        The excited part is -(1/2) Q_e^H G Q_e, projected from the coupling
        table (project_table; Q_e the basis's excited columns), plus the
        detuning and decay on its diagonal.  The columns of Q start with
        the metastable ones, so the block has the generator's own layout.
        The drive couples each metastable column (an orbit of a_l) only to
        the nu0 column of the same orbit and irrep, with the same
        -(i/2) Omega_L f(t) as on every atom.  The block of each basis is
        built once: the spectral path and eigenmodes share it.
        """
        basis = basis or self._whole
        if basis in self._basis_blocks:
            return self._basis_blocks[basis]
        n = self.n_atoms
        n_meta = basis.n_meta(n)
        Qe = basis.excited(n)
        excited = project_table(
            self, -0.5 * self.array.pair_tables.coupling, Qe, (Qe,), 1)
        excited.flat[::Qe.shape[1] + 1] += 1j * self.drive.delta - 0.5
        excited.setflags(write=False)
        coupling = -0.5j * self.drive.omega_L0
        driven = None
        if coupling:
            # the nu0 column of a metastable column's orbit starts on the
            # nu0 row of the orbit's first atom
            first = basis.first_rows
            column = np.full(self.dim, -1)
            column[first] = np.arange(len(first))
            driven = column[n + self.n_sublevels * first[:n_meta]
                            + self.sublevels.index(self.drive.target_sublevel)]
        block = GeneratorBlock(basis, n_meta, excited, driven, coupling)
        self._basis_blocks[basis] = block
        return block

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
    ways.  basis is the block's (dim, b) isometry Q (an OrbitBasis), the
    identity for the whole generator.
    """

    basis: object
    n_meta: int
    excited: np.ndarray
    driven: np.ndarray  # None without a drive
    coupling: complex  # -(i/2) Omega_L

    @property
    def dim(self) -> int:
        return self.n_meta + self.excited.shape[0]

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


class OrbitBasis:
    """A (n_rows, b) isometry Q whose columns have disjoint supports, kept
    as index arrays (a basis of rotation_blocks), and the irrep (k, p) it
    spans: U Q = w^k Q, and P Q = p Q under the inversion P, p = 0 where
    the array lacks it.

    Column j has the coefficients coefficients[indptr[j]:indptr[j + 1]]
    in the rows rows[indptr[j]:indptr[j + 1]], as in a CSC matrix; no row
    appears in two columns.  So Q y scatters, and Q^H X is one gather of
    the rows of X, each times its conjugated coefficient, summed over each
    column.
    """

    def __init__(self, rows, coefficients, indptr, n_rows: int, irrep=(0, 0)):
        self.rows = np.asarray(rows)
        self.coefficients = np.asarray(coefficients, dtype=complex)
        self.indptr = np.asarray(indptr)
        self.n_rows = int(n_rows)
        self.irrep = tuple(irrep)

    @classmethod
    def identity(cls, n_rows: int) -> "OrbitBasis":
        """The (n_rows, n_rows) identity, one column per row: the one basis
        of an array without a symmetry."""
        index = np.arange(n_rows)
        return cls(index, np.ones(n_rows), np.arange(n_rows + 1), n_rows)

    @property
    def shape(self) -> tuple:
        return self.n_rows, len(self.indptr) - 1

    @property
    def first_rows(self) -> np.ndarray:
        """The first row of each column (its orbit's first atom, in the
        column's sector)."""
        return self.rows[self.indptr[:-1]]

    @cached_property
    def _column_of_entry(self) -> np.ndarray:
        return np.repeat(np.arange(self.shape[1]), np.diff(self.indptr))

    @cached_property
    def _entry_of_row(self) -> np.ndarray:
        entry = np.full(self.n_rows, -1)
        entry[self.rows] = np.arange(len(self.rows))
        return entry

    def project(self, X: np.ndarray) -> np.ndarray:
        """Q^H X for a vector or a (n_rows, K) stack."""
        terms = X[self.rows].astype(complex, copy=False)
        terms *= self.coefficients.conj().reshape((-1,) + (1,) * (X.ndim - 1))
        return np.add.reduceat(terms, self.indptr[:-1], axis=0)

    def lift(self, y: np.ndarray, rows=None) -> np.ndarray:
        """Q y for a vector or a (b, K) stack; only the listed rows of it
        when rows is given."""
        if rows is None:
            out = np.zeros((self.n_rows,) + y.shape[1:], dtype=complex)
            at, entry = self.rows, slice(None)
        else:
            entry = self._entry_of_row[rows]
            out = np.zeros((len(entry),) + y.shape[1:], dtype=complex)
            at = np.flatnonzero(entry >= 0)
            entry = entry[at]
        c = self.coefficients[entry].reshape((-1,) + (1,) * (y.ndim - 1))
        out[at] = c * y[self._column_of_entry[entry]]
        return out

    def n_meta(self, n: int) -> int:
        """Columns in the first n rows (the a_l), which come first."""
        return int(np.count_nonzero(self.first_rows < n))

    def excited(self, n: int) -> "OrbitBasis":
        """The basis of rows n onward, without the columns in the first n
        rows: the excited columns, each moved up by n rows."""
        lo = self.n_meta(n)
        start = self.indptr[lo]
        return OrbitBasis(self.rows[start:] - n, self.coefficients[start:],
                          self.indptr[lo:] - start, self.n_rows - n,
                          self.irrep)


def eigenbasis_condition(vectors) -> float:
    """2-norm condition number of V = [Q_1 W_1, Q_2 W_2, ...] from the
    eigenvector blocks W_k alone: max sigma_max / min sigma_min over the
    W_k.  The Q_k are orthonormal and mutually orthogonal, so V's singular
    values are those of the W_k together."""
    sv = [np.linalg.svd(W, compute_uv=False) for W in vectors]
    return float(max(s[0] for s in sv) / min(s[-1] for s in sv))


@dataclass(frozen=True)
class ModeSpectrum:
    """Eigenmodes of the excited-sector generator, kept per symmetry block.

    Amplitude convention: eigenvalue lambda_m = -i*Delta_m - Gamma_m/2,
    so Gamma_m = -2 Re(lambda_m) is the collective decay rate and
    Delta_m = -Im(lambda_m) the collective shift.  Modes with
    Gamma_m < Gamma are subradiant.

    blocks holds one (Q_k, A_k) per diagonalized block, in the order of
    eigenvalues: Q_k the block's excited-only OrbitBasis (the identity
    without a symmetry) and A_k = Q_k^H M Q_k its excited part, whose
    eigenvalues are lambda_k.  The eigenvectors are computed only when
    condition_estimate is first read; the rates never need them.
    """

    eigenvalues: np.ndarray
    blocks: tuple

    @cached_property
    def condition_estimate(self) -> float:
        """2-norm condition number of the eigenvectors V = [Q_1 W_1,
        Q_2 W_2, ...], A_k W_k = W_k diag(lambda_k), from the W_k of one
        eig per block (eigenbasis_condition)."""
        try:
            return eigenbasis_condition(np.linalg.eig(A)[1]
                                        for _, A in self.blocks)
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


def _sublevel_columns(sublevels) -> list:
    return [SUBLEVELS.index(s) for s in sublevels]


def assemble(array: AtomArray, drive: LaserDrive,
             include_sublevels=SUBLEVELS) -> EffectiveHamiltonian:
    """Set up the rotating-frame generator.

    Only the inputs are checked and kept: each block's excited part is
    projected from the array's coupling table when it is first used
    (EffectiveHamiltonian.block), so no (N m, N m) matrix is formed here.
    include_sublevels restricts the excited manifold (two-level physics
    uses just the driven sublevel).
    """
    subs = tuple(sorted(set(int(s) for s in include_sublevels)))
    if not subs or any(s not in SUBLEVELS for s in subs):
        raise InvalidArgumentError("include_sublevels must be a nonempty "
                                   "subset of {-1, 0, +1}")
    if drive.omega_L0 > 0 and drive.target_sublevel not in subs:
        raise InvalidArgumentError("driven sublevel is excluded from the model")
    return EffectiveHamiltonian(array=array, drive=drive, sublevels=subs)


def project_table(H: EffectiveHamiltonian, table: np.ndarray, Q: OrbitBasis,
                  bases, parity: int) -> np.ndarray:
    """Q^H T [P_1 P_2 ...] for the (N m, N m) matrix T of one pair table
    of the array (AtomArray.pair_tables: the coupling or flux_diff) on
    the model's sublevels, T commuting with the rotation and of the given
    parity under inversion; Q and the P_k are excited-only bases.

    Column i of Q is sqrt(L_i) times the projector image of its first row
    r_i (L_i its length; its first coefficient is exactly 1/sqrt(L_i)),
    and the projector of irrep (k, p) moves through T as that of
    (k, parity p).  So the block onto P is sqrt(L) T[r, :] P when P's
    irrep is (k, parity p), Q's being (k, p), and exactly zero otherwise:
    one gather of T's rows r (PairTables.model_rows), projected onto each
    such P; the zero blocks are not computed."""
    sel = np.asarray(H.columns)
    rows = H.array.pair_tables.model_rows(table[:, sel[:, None], sel],
                                          Q.first_rows)
    rows *= np.sqrt(np.diff(Q.indptr))[:, None]
    TQ = np.conj(rows, out=rows).T  # T^H Q
    partner = (Q.irrep[0], parity * Q.irrep[1])
    return np.ascontiguousarray(np.hstack([
        P.project(TQ).conj().T if P.irrep == partner
        else np.zeros((Q.shape[1], P.shape[1]), dtype=complex)
        for P in bases]))


# w^q = _QUARTER_TURNS[q % 4] for w = exp(-2 pi i/4), exact in floating point
_QUARTER_TURNS = np.array([1.0, -1.0j, -1.0, 1.0j])


def _position_permutation(positions: np.ndarray, images: np.ndarray):
    """perm[l] = index of the atom at images[l]; None unless every image is
    exactly an atom's position."""
    index = {tuple(p): l for l, p in enumerate(positions.tolist())}
    perm = [index.get(tuple(p)) for p in images.tolist()]
    return None if None in perm else np.array(perm)


def rotation_blocks(H: EffectiveHamiltonian, inversion: bool = True):
    """Orbit bases of the array's symmetry about z: the rotation (C4, else
    C2) and, when every -r_l is exactly an atom's position, the inversion
    r -> -r (C4h, C2h); without a rotation symmetry, the identity basis of
    the whole space alone.

    Returns one OrbitBasis, a (dim, b) isometry Q stored as orbit index
    arrays, per nonempty irrep Q.irrep = (k, p), in the order (0, +1),
    (0, -1), (1, +1), ...: U Q = w^k Q and P Q = p Q, p = 0 where the
    array has no inversion.  The b sum to dim; G splits into the Q^H G Q.
    The columns are the images of the character-table projectors
    (Dresselhaus, Dresselhaus & Jorio, Group Theory, Springer 2008).  The
    group's elements g = R^j P^i (j < order; i = 0, and 1 too with the
    inversion) act as U(g) e_{l,s} = w^{nu_s j} e_{g l,s}, with characters
    chi(g) = w^{k j} p^i.  Each orbit, taken from its lowest atom l, each
    sector s (a with nu0, then the sublevels nu) and each irrep (k, p) give

        c = sum_g chi(g)^* U(g) e_{l,s} = sum_g p^i w^{(nu_s - k) j} e_{g l,s},

    normalized.  Where two elements reach the same atom, c vanishes unless
    they give it the same value; else c holds each atom of the orbit once,
    with the value of the first element reaching it, over the square root
    of the orbit's size.  That one rule covers an atom on the z axis (the
    irrep k = nu mod order alone), an orbit that is its own inversion
    image (one parity), two orbits swapped by P (both parities) and an
    atom at the origin (the even irreps alone).  The metastable (a)
    columns of each Q come first, in orbit order, then the excited ones,
    orbit-major and sector-minor, so Q^H G Q has the generator's own
    layout; the rows of each column ascend.
    The bases are built once per Hamiltonian and inversion flag; those of
    the excited block alone are their Q.excited(n_atoms).  inversion=False
    keeps the rotation irreps k alone, unsplit (what the ODE integrates:
    its per-term products cost less on fewer, larger blocks).
    """
    cache = H._symmetry_bases
    if inversion not in cache:
        cache[inversion] = _irrep_bases(H, inversion) or (H._whole,)
    return cache[inversion]


def _irrep_bases(H: EffectiveHamiltonian, inversion: bool):
    """rotation_blocks' bases, or None without a rotation symmetry."""
    pos = H.array.positions
    for order, image in ((4, pos[:, [1, 0, 2]] * [-1, 1, 1]),
                         (2, pos * [-1, -1, 1])):
        perm = _position_permutation(pos, image)
        if perm is not None:
            break
    else:
        return None
    n, m = H.n_atoms, H.n_sublevels
    # the group as atom maps, G[g, l] the atom at g r_l: g = R^j for
    # j = 0, ..., order - 1, then their inversion images P R^j
    inv = _position_permutation(pos, -pos) if inversion else None
    G = [np.arange(n)]
    for _ in range(order - 1):
        G.append(perm[G[-1]])
    G = np.array(G if inv is None else G + [inv[Rj] for Rj in G])
    g = np.arange(len(G))[:, None, None, None]
    parity = np.arange(len(G) // order)  # (0,) or (0, 1): even, odd
    # p^i w^{(nu_s - k) j} of g = R^j P^i in quarter turns, (|G|, sector, k, p)
    nus = np.array((H.drive.target_sublevel,) + H.sublevels)
    quarter = ((4 // order) * (nus[:, None, None] - np.arange(order)[:, None])
               * (g % order) + 2 * parity * (g >= order)) % 4
    # each orbit from its lowest atom, its elements sorted stably by the atom
    # they reach (new: the first to reach it); the column of (sector, k, p)
    # vanishes unless the elements reaching each atom agree
    starts = np.flatnonzero(G.min(axis=0) == np.arange(n))
    at = np.argsort(G[:, starts], axis=0, kind="stable")  # (|G|, orbits)
    atoms = np.take_along_axis(G[:, starts], at, axis=0)
    new = (np.diff(atoms, axis=0, prepend=-1) != 0)[..., None, None, None]
    q = quarter[at]  # (|G|, orbits, sector, k, p)
    keep = new & np.all(new[1:] | (q[1:] == q[:-1]), axis=0)
    # the phase divided by the norm first, then negated: the signs of the
    # zero parts stay those of the quarter-turn table
    c = _QUARTER_TURNS[q[..., 0]] / np.sqrt(new.sum(axis=0))[..., 0]
    c = np.stack([c, np.where((at >= order)[..., None, None], -c, c)],
                 axis=-1)[..., parity]
    rows = np.concatenate([atoms[..., None],
                           n + m * atoms[..., None] + np.arange(m)], axis=-1)

    def columns(X):
        """(irreps, columns, |G|): the a_l orbits first, then orbit-major,
        sector-minor; in each column the rows ascending."""
        X = np.broadcast_to(X, keep.shape).transpose(3, 4, 1, 2, 0)
        X = X.reshape(-1, *X.shape[2:])  # (irreps, orbits, sector, |G|)
        return np.concatenate([X[:, :, 0], X[:, :, 1:].reshape(
            len(X), -1, len(G))], axis=1)

    signs = (0,) if inv is None else (1, -1)
    bases = []
    for irrep, mask, r, v in zip(
            [(k, p) for k in range(order) for p in signs], columns(keep),
            columns(rows[..., None, None]), columns(c)):
        length = mask.sum(axis=1)
        if length.any():
            indptr = np.concatenate([[0], np.cumsum(length[length > 0])])
            bases.append(OrbitBasis(r[mask], v[mask], indptr, n * (1 + m),
                                    irrep))
    return tuple(bases)


def eigenmodes(H: EffectiveHamiltonian) -> ModeSpectrum:
    """Complex eigenvalues of the excited-sector generator.

    Each block of rotation_blocks (split by inversion too, when the array
    has it; the identity alone without a symmetry) is solved on its own:
    the excited part A = Q_e^H M Q_e of the generator block H.block, which
    propagate_eigen shares, with Q_e its excited-only basis.  Only the
    eigenvalues are computed (eigvals); the spectrum keeps each block's
    (Q_e, A) (ModeSpectrum), and its eigenvectors are computed on the
    first read of condition_estimate.
    """
    n = H.n_atoms
    lams, blocks = [], []
    for Q in rotation_blocks(H):
        if Q.n_meta(n) == Q.shape[1]:
            continue  # metastable columns only
        A = H.block(Q).excited
        try:
            lams.append(np.linalg.eigvals(A))
        except np.linalg.LinAlgError as exc:  # pragma: no cover - rare
            raise NumericError(f"eigendecomposition failed: {exc}") from exc
        blocks.append((Q.excited(n), A))
    return ModeSpectrum(eigenvalues=np.concatenate(lams),
                        blocks=tuple(blocks))
