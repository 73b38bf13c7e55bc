"""Pair-block and plane-wave-sum kernels against reference formulas, and
the displacement tables on a lattice against those of free-form arrays."""

import numpy as np
import pytest
from _references import table_blocks

from arraylight import _kernels
from arraylight.core import AtomArray, LaserDrive, build_lattice
from arraylight.greens import coupling_block
from arraylight.hamiltonian import assemble

K0 = 2.0 * np.pi


def _random_positions(rng, n):
    # rejection keeps pair distances away from zero
    while True:
        pos = rng.uniform(-1.5, 1.5, size=(n, 3))
        diff = pos[:, None, :] - pos[None, :, :]
        dist = np.linalg.norm(diff, axis=-1)
        np.fill_diagonal(dist, 1.0)
        if dist.min() > 0.05:
            return pos


def test_pair_blocks_match_reference_blocks():
    rng = np.random.default_rng(42)
    pos = _random_positions(rng, 6)
    blocks = _kernels.pair_blocks(pos)
    assert blocks.shape == (6, 6, 3, 3)
    for l in range(6):
        assert np.allclose(blocks[l, l], 0.0)
        for j in range(6):
            if l == j:
                continue
            ref = coupling_block(pos[l], pos[j])
            assert np.allclose(blocks[l, j], ref, atol=1e-13)


def test_pair_blocks_symmetric_under_swap():
    rng = np.random.default_rng(7)
    pos = _random_positions(rng, 5)
    blocks = _kernels.pair_blocks(pos)
    assert np.allclose(blocks, blocks.transpose(1, 0, 2, 3), atol=1e-14)


def _dense_flux_difference(H):
    """The helicity difference of the flux operators at (N m, N m),
    gathered from the array's table."""
    tables = H.array.pair_tables
    rows = np.arange(H.excited_block.shape[0])
    sel = np.asarray(H.columns)
    return tables.model_rows(tables.flux_diff[:, sel[:, None], sel], rows)


@pytest.mark.parametrize("dims", [(1, 1, 3), (2, 3, 4), (3, 3, 3),
                                  (3, 3, 8)])
@pytest.mark.parametrize("subs", [(-1, 0, 1), (1,), (-1, 1)])
def test_lattice_table_matches_free_form_table(dims, subs):
    # the same positions with dims (0, 0, 0) run the free-form path, one
    # table row per ordered pair with R = r_l - r_j; the lattice path's
    # R is an integer offset times d
    lattice = build_lattice(*dims, 0.6)
    free = AtomArray(lattice.positions)
    n = lattice.n_atoms
    span = 2 * np.array(dims) - 1
    assert len(lattice.pair_tables.coupling) == np.prod(span)
    assert len(free.pair_tables.coupling) == n * n
    drive = LaserDrive(2.0, 3.0, target_sublevel=subs[-1])
    H_lat, H_free = (assemble(arr, drive, subs) for arr in (lattice, free))
    assert (np.max(np.abs(H_lat.excited_block - H_free.excited_block))
            <= 1e-14)
    assert np.max(np.abs(_dense_flux_difference(H_lat)
                         - _dense_flux_difference(H_free))) <= 1e-14


@pytest.mark.parametrize("dims, d", [((1, 1, 3), 0.4), ((2, 3, 4), 0.55),
                                     ((3, 3, 8), 0.6), ((4, 4, 4), 0.37)])
def test_table_rows_of_opposite_displacements(dims, d):
    # on a lattice the offsets o and -o are rows k and K - 1 - k; the
    # coupling is even in D, exactly, and the flux helicity difference is
    # odd
    tables = build_lattice(*dims, d).pair_tables
    K = len(tables.coupling)
    _check_parity(tables, np.arange(K), K - 1 - np.arange(K))
    # a free-form array: rows N l + j and N j + l
    pos = _random_positions(np.random.default_rng(3), 7)
    tables = AtomArray(pos).pair_tables
    index = np.arange(49).reshape(7, 7)
    _check_parity(tables, index.ravel(), index.T.ravel())


def _check_parity(tables, rows, opposite):
    assert np.array_equal(tables.coupling[rows], tables.coupling[opposite])
    diff = tables.flux_diff
    assert np.array_equal(diff[rows], -diff[opposite])


def test_table_self_terms():
    # the zero displacement: no coupling and no flux helicity difference,
    # on either path
    lattice = build_lattice(2, 3, 4, 0.6)
    for arr in (lattice, AtomArray(lattice.positions)):
        idx = np.arange(arr.n_atoms)
        for T in (arr.pair_tables.coupling, arr.pair_tables.flux_diff):
            assert not np.any(table_blocks(arr.pair_tables, T)[idx, idx])


def test_positions_off_the_grid_use_the_free_form_path():
    # dims and spacing describe the lattice only when every position is on
    # it: a shifted copy gets one table row per ordered pair
    lattice = build_lattice(2, 2, 2, 0.5)
    shifted = AtomArray(lattice.positions + 0.1, dims=lattice.dims,
                        spacing=lattice.spacing)
    tables = lattice.pair_tables
    assert len(tables.coupling) == 27
    assert len(shifted.pair_tables.coupling) == 64
    assert np.max(np.abs(table_blocks(tables, tables.coupling)
                         - _kernels.pair_blocks(shifted.positions))) <= 1e-14


def test_direction_sums_match_einsum():
    rng = np.random.default_rng(13)
    pos = _random_positions(rng, 9)
    dirs = rng.normal(size=(37, 3))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    s = rng.normal(size=(9, 3)) + 1j * rng.normal(size=(9, 3))
    got = _kernels.direction_sums(dirs, pos, s)
    phases = np.exp(1j * K0 * dirs @ pos.T)
    ref = phases @ s
    assert got.shape == (37, 3)
    assert np.allclose(got, ref, atol=1e-12)
