"""Test-only references of the package's symmetry bases, generator blocks,
pair tables, trajectories, spectra, closed-form solutions and CSV writer:
the orbit-by-orbit construction of the rotation_blocks bases, with the
direct construction on the excited block alone (excited_only), the
projection of a pair table summed from its rows at every padded orbit
position, the dense (N, N, 3, 3) pair arrays of a table (table_blocks,
flux_blocks) and their (N m, N m) matrix on the model's sublevels
(model_matrix), the generator without any Gamma term (Undamped), the
term-by-term block product, a trajectory's lifted states (states), the
adiabatic model's excited amplitudes (beta_from_a), the lifted
eigenvectors of a ModeSpectrum, the spectral coordinates in one product
per block and the row-by-row CSV writer."""

from dataclasses import replace

import numpy as np

from arraylight._kernels import pair_tables
from arraylight.hamiltonian import (_QUARTER_TURNS, EffectiveHamiltonian,
                                    OrbitBasis, _position_permutation)


def table_blocks(tables, table: np.ndarray) -> np.ndarray:
    """(N, N, 3, 3) blocks of one of a PairTables' tables, for every pair."""
    return table[tables.left[:, None] + tables.right]


def flux_blocks(pos: np.ndarray):
    """Exact per-helicity flux operators (Q_plus, Q_minus), each
    (N, N, 3, 3), gathered from pair_tables."""
    t = pair_tables(pos)
    return tuple(table_blocks(t, 0.5 * (t.flux_total + sign * t.flux_diff))
                 for sign in (1, -1))


def model_matrix(pair_blocks: np.ndarray, cols) -> np.ndarray:
    """(N m, N m) matrix of (N, N, 3, 3) blocks restricted to the sublevel
    columns cols, in the atom-major amplitude layout."""
    n, m = len(pair_blocks), len(cols)
    sel = np.asarray(cols)
    sub = pair_blocks[:, :, sel[:, None], sel[None, :]]
    return sub.transpose(0, 2, 1, 3).reshape(n * m, n * m)


class Undamped(EffectiveHamiltonian):
    """The generator without any Gamma term (self-decay and pair
    couplings), the bare Rabi problem of the closed-form checks: the
    excited part of every block is i delta I, the drive is unchanged."""

    @classmethod
    def of(cls, H: EffectiveHamiltonian) -> "Undamped":
        """H, an assembled generator, without its Gamma terms."""
        return cls(H.array, H.drive, H.sublevels)

    def block(self, basis=None):
        blk = super().block(basis)
        excited = 1j * self.drive.delta * np.eye(len(blk.excited))
        excited.setflags(write=False)
        return replace(blk, excited=excited)


def states(traj) -> np.ndarray:
    """(dim, K) full-space states of a Trajectory, lifted from its
    coordinates."""
    return traj.lift(traj.coords)


def beta_from_a(model, a: np.ndarray, f_value: float = 1.0) -> np.ndarray:
    """Leading-order excited amplitudes (N, 3) of an AdiabaticModel, f
    Omega_L/(2 delta) a; only the driven sublevel column is populated."""
    a = np.asarray(a, dtype=complex)
    beta = np.zeros((a.size, 3), dtype=complex)
    c = model.target_sublevel + 1
    beta[:, c] = (f_value * model.omega_L0 / (2.0 * model.delta)) * a
    return beta


def _padded(Q: OrbitBasis):
    """(rows, conjugated coefficients) of an OrbitBasis, each (length, b):
    position p of every column, padded with row 0 and coefficient 0."""
    length = np.diff(Q.indptr)
    column = np.repeat(np.arange(len(length)), length)
    position = np.arange(len(Q.rows)) - np.repeat(Q.indptr[:-1], length)
    rows = np.zeros((length.max(initial=0), len(length)), dtype=int)
    conj = np.zeros(rows.shape, dtype=complex)
    rows[position, column] = Q.rows
    conj[position, column] = Q.coefficients.conj()
    return rows, conj


def project_rows(Q: OrbitBasis, rows_of, shape=()) -> np.ndarray:
    """Q^H X for X of shape (n_rows,) + shape given only as rows_of(r),
    which returns the rows r of X, summed one batch of rows per padded
    position."""
    rows, conj = _padded(Q)
    c_shape = (-1,) + (1,) * len(shape)
    out = np.zeros((rows.shape[1],) + tuple(shape), dtype=complex)
    for r, c in zip(rows, conj):
        out += c.reshape(c_shape) * rows_of(r)
    return out


def project_table_padded(H: EffectiveHamiltonian, table: np.ndarray,
                         Q: OrbitBasis, bases) -> np.ndarray:
    """hamiltonian.project_table without the symmetry of the table: Q^H T
    summed from T's rows at each padded orbit position of Q, projected onto
    each P_k in turn, every block computed."""
    tables = H.array.pair_tables
    sel = np.asarray(H.columns)
    sub = table[:, sel[:, None], sel]
    TQ = project_rows(Q, lambda r: tables.model_rows(sub, r),
                      (H.n_atoms * H.n_sublevels,)).conj().T  # T^H Q
    return np.hstack([project_rows(P, TQ.__getitem__, TQ.shape[1:]).conj().T
                      for P in bases])


def apply(blk, y: np.ndarray, f_value) -> np.ndarray:
    """blk.matrix(f_value) @ y without forming the matrix, for a
    GeneratorBlock blk.

    Costs one product with the excited part plus O(N) drive work.  y
    may also be a (dim, K) stack of states with f_value a length-K
    ndarray, one envelope value per column.
    """
    n = blk.n_meta
    out = np.empty(y.shape, dtype=complex)
    np.matmul(blk.excited, y[n:], out=out[n:])
    if blk.coupling:
        c = blk.coupling * f_value
        np.multiply(y[blk.driven], c, out=out[:n])
        out[blk.driven] += c * y[:n]
    else:
        out[:n] = 0.0
    return out


def right_vectors(spec):
    """(lam, V): the eigenvalues and eigenvectors of a ModeSpectrum from
    one eig per stored block A_k, the vectors lifted into the excited
    amplitude layout, V = [Q_1 W_1, Q_2 W_2, ...], column m of V with
    lam[m]."""
    pairs = [(Q, np.linalg.eig(A)) for Q, A in spec.blocks]
    return (np.concatenate([lam for _, (lam, _) in pairs]),
            np.hstack([Q.lift(W) for Q, (_, W) in pairs]))


def modal_coords_at_once(modes, dt) -> np.ndarray:
    """dynamics._modal_coords in one product per block over all of dt:
    the stacked W_k exp(lam_k dt) c0_k."""
    dt = np.asarray(dt, dtype=float)
    return np.vstack([W @ (np.exp(np.outer(lam, dt)) * c0[:, None])
                      for W, lam, c0 in modes])


def write_columns_by_row(path, names, columns, header_lines=()) -> None:
    """envelope.write_columns one row at a time: each value as %.17g."""
    row = ",".join(["%.17g"] * len(names)) + "\n"
    with open(path, "w") as fh:
        for line in header_lines:
            fh.write(f"# {line}\n")
        fh.write(",".join(names) + "\n")
        for values in np.column_stack(columns):
            fh.write(row % tuple(values.tolist()))


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


def _orbit_bases(H: EffectiveHamiltonian, inversion: bool,
                 excited_only: bool = False):
    """rotation_blocks' bases, built from the atom permutations, or None
    without a rotation symmetry; those of the excited block alone with
    excited_only (the tests' reference for Q.excited)."""
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
        # each column's rows ascending (canonical CSC order), which fixes
        # the order of every sum over a column's entries
        order = [np.argsort(r) for r, _ in cols]
        col_rows = [r[o] for (r, _), o in zip(cols, order)]
        col_values = [v[o] for (_, v), o in zip(cols, order)]
        indptr = np.concatenate([[0], np.cumsum([len(r) for r in col_rows])])
        bases.append(OrbitBasis(np.concatenate(col_rows),
                                np.concatenate(col_values), indptr, rows.size))
    return tuple(bases)
