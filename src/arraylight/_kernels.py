"""All-pairs kernels of the dipole-dipole Green's tensor, in plain numpy.

pair_blocks gives the coupling blocks of the generator, flux_blocks the
exact full-sphere flux operators of the far field.  Both take their radial
coefficients from greens.fg_scalar_coefficients through one pair-geometry
step.  direction_sums gives the plane-wave sums behind angular maps.
Blocks are in the spherical basis, indices ordered nu = -1, 0, +1.
"""

from __future__ import annotations

import numpy as np

from .greens import fg_scalar_coefficients, spherical_basis

__all__ = ["pair_blocks", "flux_blocks", "model_matrix", "direction_sums"]

K0 = 2.0 * np.pi
_CHUNK_ENTRIES = 1 << 18  # phase factors per direction_sums chunk (4 MB)

_EMATRIX = spherical_basis().matrix  # columns e_{-1}, e_0, e_{+1}
# _CROSS[b] = E^dag [e_b]_x E, where [n]_x v = n x v
_CROSS = np.einsum("ap,bca,cq->bpq", _EMATRIX.conj(),
                   np.cross(np.eye(3)[:, None], np.eye(3)[None, :]), _EMATRIX)


def _pair_geometry(pos: np.ndarray):
    """x = k0 |r_l - r_j|, r_hat of r_l - r_j and u = r_hat . e_mu, indexed
    [l, j].  The diagonal is a dummy (x = k0, r_hat = 0) that callers
    overwrite."""
    pos = np.asarray(pos, dtype=float)
    R = pos[:, None, :] - pos[None, :, :]
    dist = np.linalg.norm(R, axis=-1)
    np.fill_diagonal(dist, 1.0)
    rhat = R / dist[..., None]
    return K0 * dist, rhat, rhat @ _EMATRIX


def _dyad_blocks(a, b, u):
    """Spherical blocks of the Cartesian tensor a I - b r_hat r_hat^T."""
    return a[..., None, None] * np.eye(3) \
        - b[..., None, None] * (np.conj(u)[..., :, None] * u[..., None, :])


def pair_blocks(pos: np.ndarray) -> np.ndarray:
    """Coupling blocks e_eta^dag F(k0 R) e_nu for all atom pairs.

    Returns (N, N, 3, 3) complex with zero diagonal blocks; F is even in
    the separation, so the result is symmetric under swapping atoms.
    """
    x, _, u = _pair_geometry(pos)
    f1, f2, g1, g2 = fg_scalar_coefficients(x)
    blocks = _dyad_blocks((f1 + f2) - 1j * (g1 + g2),
                          (f1 + 3.0 * f2) - 1j * (g1 + 3.0 * g2), u)
    idx = np.arange(len(x))
    blocks[idx, idx] = 0.0
    return blocks


def flux_blocks(pos: np.ndarray):
    """Exact per-helicity flux operators (Q_plus, Q_minus), each (N, N, 3, 3).

    Integrating the far-field intensity of a source beta over the sphere
    gives flux_sigma = sum_{l,j} beta_l^dag Q_sigma[l, j] beta_j.  With
    R = r_j - r_l, summing the helicities gives the dissipative tensor
    (Lehmberg, Phys. Rev. A 2, 883 (1970)),

        Q_plus + Q_minus = delta_lj I + f(k0 R),

    and the helicity difference eps_+ eps_+^dag - eps_- eps_-^dag =
    i [r_hat]_x integrates to

        Q_plus - Q_minus = -(3/2) j1(k0 R) [R_hat]_x,   zero for l = j,

    where (3/2) j1(x) = -x f2(x).
    """
    x, rhat, u = _pair_geometry(pos)
    f1, f2, _, _ = fg_scalar_coefficients(x)
    total = _dyad_blocks(f1 + f2, f1 + 3.0 * f2, u)
    idx = np.arange(len(x))
    total[idx, idx] = np.eye(3)
    # R_hat = -rhat[l, j]; the zero diagonal of rhat zeroes diagonal blocks
    diff = np.einsum("ljb,bpq->ljpq", (-x * f2)[..., None] * rhat, _CROSS)
    return 0.5 * (total + diff), 0.5 * (total - diff)


def model_matrix(blocks: np.ndarray, cols) -> np.ndarray:
    """(N m, N m) matrix of (N, N, 3, 3) blocks restricted to the sublevel
    columns cols, in the atom-major amplitude layout."""
    n, m = len(blocks), len(cols)
    sel = np.asarray(cols)
    sub = blocks[:, :, sel[:, None], sel[None, :]]
    return sub.transpose(0, 2, 1, 3).reshape(n * m, n * m)


def direction_sums(dirs: np.ndarray, pos: np.ndarray,
                   s: np.ndarray) -> np.ndarray:
    """V[m, c] = sum_j exp(+i k0 dirs[m].pos[j]) s[j, c], chunked gemm.

    The phase factors of a chunk of directions (about 2^18 of them in all)
    are written as cos and sin straight into one complex buffer."""
    dirs = np.asarray(dirs, dtype=float)
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
