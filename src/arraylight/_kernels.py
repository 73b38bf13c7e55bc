"""The dipole-dipole Green's tensor on an array's distinct displacements,
in plain numpy.

The coupling blocks of the generator and the exact full-sphere flux
operators of the far field depend on a pair of atoms only through its
displacement D = r_l - r_j.  pair_tables evaluates the coupling and the
two per-helicity flux tensors once per distinct displacement, from one
call of greens.fg_scalar_coefficients.  On a lattice the displacements are
the integer offsets times the spacing, (2 n_x - 1)(2 n_y - 1)(2 n_z - 1)
of them against N^2 pairs, so both matrices are block Toeplitz, as in
discrete-dipole codes (Goodman, Draine & Flatau, Opt. Lett. 16, 1198
(1991)); a free-form array has one displacement per ordered pair.  The
zero displacement holds the self terms.  hamiltonian.project_table, the
one consumer, restricts a table to the model's sublevels once per call,
gathers the first row of each basis column from it straight into the
atom-major amplitude layout (PairTables.model_rows) and projects them onto
the symmetry blocks; pair_blocks gathers the whole (N, N, 3, 3) coupling
array of the positions as a free-form array, which no command needs.
direction_sums gives the plane-wave sums behind angular maps,
sum_j exp(i k0 n.r_j) s_j.  On a lattice that is the structure factor, a
product of one phase per axis, so the sum is three 1-D contractions: z
once per distinct n_z (one gemm), then y and x per group of directions
sharing it; a free-form array takes the direct sum, one phase per
direction and atom, as it takes one table row per pair.
Blocks are in the spherical basis, indices ordered nu = -1, 0, +1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .greens import K0, fg_scalar_coefficients, spherical_basis

__all__ = ["PairTables", "pair_tables", "pair_blocks", "direction_sums"]

# phase factors per chunk of the direct (free-form) direction_sums (at
# least one direction): a 512 kB complex buffer and 256 kB real phase arrays
_CHUNK_ENTRIES = 1 << 15

_EMATRIX = spherical_basis().matrix  # columns e_{-1}, e_0, e_{+1}
# _CROSS[b] = E^dag [e_b]_x E, where [n]_x v = n x v
_CROSS = np.einsum("ap,bca,cq->bpq", _EMATRIX.conj(),
                   np.cross(np.eye(3)[:, None], np.eye(3)[None, :]), _EMATRIX)


@dataclass(frozen=True)
class PairTables:
    """Spherical blocks of the pair tensors on an array's distinct
    displacements (pair_tables).

    coupling, flux_total (the helicity sum, even under inversion) and
    flux_diff (the helicity difference, odd) are (K, 3, 3); the pair
    (l, j) reads row left[l] + right[j] of each.
    """

    coupling: np.ndarray
    flux_total: np.ndarray
    flux_diff: np.ndarray
    left: np.ndarray
    right: np.ndarray

    def model_rows(self, sub: np.ndarray, rows) -> np.ndarray:
        """The rows `rows` of the (N m, N m) matrix of one table's blocks
        in the atom-major amplitude layout (row l m + a is sublevel a of
        atom l), from sub, the (K, m, m) table restricted to the model's
        m sublevels.  One take of whole sublevel rows, row k m + a of
        sub."""
        m = sub.shape[1]
        atom, level = np.divmod(np.asarray(rows), m)
        index = (self.left[atom][:, None] + self.right) * m + level[:, None]
        return np.take(sub.reshape(-1, m), index, axis=0).reshape(
            len(atom), -1)


def _grid_index(pos: np.ndarray, dims, spacing: float):
    """(N, 3) integer lattice indices of the positions, x first; None
    unless dims and spacing describe a lattice (as build_lattice makes it,
    centred at the origin) and every position is exactly on it."""
    dims = np.asarray(dims)
    if spacing <= 0 or np.any(dims < 1):
        return None
    centre = (dims - 1) / 2.0
    index = np.rint(pos / spacing + centre)
    if (np.any(index < 0) or np.any(index >= dims)
            or not np.array_equal(spacing * (index - centre), pos)):
        return None
    return index.astype(int)


def _displacements(pos: np.ndarray, dims, spacing: float):
    """(D, left, right): the distinct displacements D (K, 3) and the pair
    map, r_l - r_j = D[left[l] + right[j]].

    On a lattice, D holds every integer offset in the box
    |o_i| < n_i times the spacing, x fastest, so the offsets o and -o sit
    in the rows k and K - 1 - k; otherwise D holds r_l - r_j in row
    N l + j."""
    index = _grid_index(pos, dims, spacing)
    if index is None:
        n = len(pos)
        return ((pos[:, None, :] - pos[None, :, :]).reshape(-1, 3),
                n * np.arange(n), np.arange(n))
    span = 2 * np.asarray(dims) - 1
    stride = np.array([1, span[0], span[0] * span[1]])
    k = np.arange(np.prod(span))
    offsets = (k[:, None] // stride) % span - (span // 2)
    flat = index @ stride
    return spacing * offsets, flat + (span // 2) @ stride, -flat


def _dyad_blocks(a, b, u):
    """Spherical blocks of the Cartesian tensor a I - b r_hat r_hat^T."""
    return a[..., None, None] * np.eye(3) \
        - b[..., None, None] * (np.conj(u)[..., :, None] * u[..., None, :])


def _spherical(v: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """sum_c v[:, c] basis[c] as three elementwise products and two sums,
    so that -v gives exactly the negated result."""
    shape = (-1,) + (1,) * (basis.ndim - 1)
    return (v[:, 0].reshape(shape) * basis[0] + v[:, 1].reshape(shape)
            * basis[1] + v[:, 2].reshape(shape) * basis[2])


def pair_tables(pos: np.ndarray, dims=(0, 0, 0),
                spacing: float = 0.0) -> PairTables:
    """The coupling and flux tensors of an array on its distinct
    displacements D = r_l - r_j (one row per distinct D, see _displacements).

    coupling[D] = E^dag F(k0 D) E, zero at D = 0, with F = f - i g the
    coupling tensor: F is even in D, so the table is symmetric under
    swapping atoms.  Integrating the far-field intensity of a source beta
    over the sphere gives flux_sigma = sum_{l,j} beta_l^dag Q_sigma[D] beta_j.
    flux_total, the helicity sum, is the dissipative tensor (Lehmberg,
    Phys. Rev. A 2, 883 (1970)),

        Q_plus + Q_minus = delta_lj I + f(k0 D),

    and flux_diff, the helicity difference eps_+ eps_+^dag - eps_- eps_-^dag
    = i [r_hat]_x integrated,

        Q_plus - Q_minus = (3/2) j1(k0 |D|) [D_hat]_x,   zero at D = 0,

    where (3/2) j1(x) = -x f2(x): odd in D.  Every row of -D is exactly
    that of D, with flux_diff negated: the unit vector enters only through
    elementwise products.
    """
    pos = np.asarray(pos, dtype=float)
    D, left, right = _displacements(pos, dims, spacing)
    dist = np.linalg.norm(D, axis=1)
    far = dist > 0
    x = K0 * dist[far]
    rhat = D[far] / dist[far, None]
    u = _spherical(rhat, _EMATRIX)  # u = r_hat . e_mu
    f1, f2, g1, g2 = fg_scalar_coefficients(x)
    coupling = np.zeros((len(D), 3, 3), dtype=complex)
    coupling[far] = _dyad_blocks((f1 + f2) - 1j * (g1 + g2),
                                 (f1 + 3.0 * f2) - 1j * (g1 + 3.0 * g2), u)
    total = np.zeros_like(coupling)
    total[far] = _dyad_blocks(f1 + f2, f1 + 3.0 * f2, u)
    total[~far] = np.eye(3)
    diff = np.zeros_like(coupling)
    diff[far] = _spherical((-x * f2)[:, None] * rhat, _CROSS)
    return PairTables(coupling, total, diff, left, right)


def pair_blocks(pos: np.ndarray) -> np.ndarray:
    """Coupling blocks e_eta^dag F(k0 R) e_nu for all atom pairs.

    Returns (N, N, 3, 3) complex with zero diagonal blocks, gathered from
    pair_tables; F is even in the separation, so the result is symmetric
    under swapping atoms.
    """
    t = pair_tables(pos)
    return t.coupling[t.left[:, None] + t.right]


def direction_sums(dirs: np.ndarray, pos: np.ndarray, s: np.ndarray,
                   dims=(0, 0, 0), spacing: float = 0.0) -> np.ndarray:
    """V[m, c] = sum_j exp(+i k0 dirs[m].pos[j]) s[j, c].

    On a lattice (dims and spacing describe one and every position is on
    it, _grid_index) the sum is the lattice structure factor, which
    factorizes along the axes: s is scattered onto the (n_z, n_y n_x c)
    grid, z is contracted with one gemm per distinct n_z (a product grid's
    directions share n_z = cos theta along each ring), then y and x for
    each group of directions with the same n_z.  No (directions, N) phase
    array is formed: n_z phases per distinct n_z and n_y + n_x per
    direction are evaluated.  A free-form array takes the direct sum
    (_direct_sums)."""
    dirs = np.asarray(dirs, dtype=float)
    index = _grid_index(pos, dims, spacing)
    if index is None:
        return _direct_sums(dirs, pos, s)
    nx, ny, nz = dims
    c = s.shape[1]
    grid = np.zeros((nz * ny * nx, c), dtype=complex)
    np.add.at(grid, (index[:, 2] * ny + index[:, 1]) * nx + index[:, 0], s)
    axes = [spacing * (np.arange(n) - (n - 1) / 2.0) for n in dims]
    n_z, group, count = np.unique(dirs[:, 2], return_inverse=True,
                                  return_counts=True)
    rings = np.exp(1j * K0 * np.multiply.outer(n_z, axes[2])) \
        @ grid.reshape(nz, -1)  # (distinct n_z, n_y n_x c)
    order = np.argsort(group, kind="stable")
    out = np.empty((len(dirs), c), dtype=complex)
    for ring, at in zip(rings, np.split(order, np.cumsum(count)[:-1])):
        n = dirs[at]
        row = np.exp(1j * K0 * np.multiply.outer(n[:, 1], axes[1])) \
            @ ring.reshape(ny, nx * c)  # (directions, n_x c)
        out[at] = np.einsum("mx,mxc->mc", np.exp(
            1j * K0 * np.multiply.outer(n[:, 0], axes[0])),
            row.reshape(len(at), nx, c))
    return out


def _direct_sums(dirs: np.ndarray, pos: np.ndarray,
                 s: np.ndarray) -> np.ndarray:
    """direction_sums of a free-form array, chunked gemm.

    The phase factors of a chunk of directions (about _CHUNK_ENTRIES = 2^15
    of them in all, at least one direction) are written as cos and sin
    straight into one complex buffer, and one gemm maps the chunk: the
    chunk size sets only how many directions share a gemm."""
    m, n = len(dirs), len(pos)
    out = np.empty((m, s.shape[1]), dtype=complex)
    chunk = max(1, _CHUNK_ENTRIES // max(n, 1))
    phases = np.empty((min(chunk, m), n), dtype=complex)
    for lo in range(0, m, chunk):
        hi = min(lo + chunk, m)
        arg = K0 * (dirs[lo:hi] @ pos.T)
        buf = phases[:hi - lo]
        np.cos(arg, out=buf.real)
        np.sin(arg, out=buf.imag)
        np.matmul(buf, s, out=out[lo:hi])
    return out
